// Average-case analytical model for the successive attack (Section 3.2,
// Algorithm 1, Eqs. 10-27).
//
// The attacker spreads N_T break-in attempts over up to R rounds. Each round
// it first attacks every node disclosed in the previous round (X_j), topping
// up to alpha = N_T/R attempts with random targets when it has spare round
// budget; successful break-ins disclose next-layer neighbor tables, feeding
// X_{j+1}. Four per-round regimes from Algorithm 1:
//   case 1: X_j < alpha < beta   — attack X_j + random top-up, continue;
//   case 2: X_j < beta <= alpha  — attack X_j + random top-up of the *total*
//                                  remaining budget beta, then stop;
//   case 3: alpha <= X_j < beta  — attack exactly the X_j disclosed nodes;
//   case 4: X_j >= beta          — attack a beta-subset of X_j; the rest
//                                  (f_i) stays disclosed-but-unattacked and
//                                  is congested later; stop.
// The congestion phase then mirrors the one-burst model (Eqs. 25-27).
//
// Setting R = 1 and P_E = 0 reproduces the one-burst model exactly
// (verified by tests).
#pragma once

#include <vector>

#include "core/attack_config.h"
#include "core/design.h"
#include "core/model_result.h"

namespace sos::core {

struct SuccessiveOptions {
  /// Eq. (11) subtracts only *SOS* break-in attempts from the random-target
  /// pool, ignoring random attempts that landed on innocent overlay nodes.
  /// true  = reproduce the paper's bookkeeping verbatim;
  /// false = also subtract non-SOS attempts (slightly smaller pool). The
  /// difference is an ablation reported by the ext_pool figure.
  bool paper_faithful_pool = true;
};

/// Per-round snapshot of every set Algorithm 1 manipulates; sizes are
/// expected values. Vectors indexed by layer (0 -> Layer 1); disclosed_new
/// has one extra trailing entry for the filter layer.
struct SuccessiveRound {
  int index = 0;    // round j (1-based)
  int case_id = 0;  // 1..4 per Algorithm 1
  double known = 0.0;         // X_j
  double beta_before = 0.0;   // break-in resources entering the round
  double beta_after = 0.0;
  double random_budget = 0.0; // attempts spent on random targets this round
  std::vector<double> attempted_disclosed;  // h^D_{i,j}
  std::vector<double> attempted_random;     // h^A_{i,j}
  std::vector<double> broken;               // b_{i,j}
  std::vector<double> disclosed_new;        // d^N_{i,j} (+ filters)
  std::vector<double> disclosed_attempted;  // d^A_{i,j}
  std::vector<double> leftover;             // f_{i,j}
  bool terminal = false;
};

struct SuccessiveTrace {
  std::vector<SuccessiveRound> rounds;
  ModelResult result;
};

namespace detail {

/// Mutable per-layer accumulators across rounds (expected set sizes).
struct SuccessiveLayerAccum {
  double attempted = 0.0;            // sum_k h_{i,k}
  double broken = 0.0;               // sum_k b_{i,k}
  double unsuccessful_known = 0.0;   // sum_k u^D_{i,k}
  double disclosed_attempted = 0.0;  // sum_k d^A_{i,k}
  double leftover = 0.0;             // sum_k f_{i,k} (terminal round only)
  double pending = 0.0;              // d^N_{i,j-1}: disclosed, to attack next
};

}  // namespace detail

/// Reusable scratch for SuccessiveModel evaluations: the per-layer
/// accumulators, the per-layer "bad" buffer of the congestion phase, and the
/// trace (whose round snapshots are recycled). An attack-grid sweep through
/// one workspace allocates nothing in steady state.
struct SuccessiveWorkspace {
  std::vector<detail::SuccessiveLayerAccum> accum;
  std::vector<double> bad;
  SuccessiveTrace trace;
};

class SuccessiveModel {
 public:
  static ModelResult evaluate(const SosDesign& design,
                              const SuccessiveAttack& attack,
                              const SuccessiveOptions& options = {});

  /// Same computation, keeping every round's intermediate sets (used by
  /// tests, the attack-campaign example and EXPERIMENTS.md narratives).
  static SuccessiveTrace trace(const SosDesign& design,
                               const SuccessiveAttack& attack,
                               const SuccessiveOptions& options = {});

  static double p_success(const SosDesign& design,
                          const SuccessiveAttack& attack,
                          const SuccessiveOptions& options = {}) {
    return evaluate(design, attack, options).p_success();
  }
};

/// Sweep-friendly evaluator: validates and copies the design once, then
/// evaluates any number of attacks against it through one reusable
/// SuccessiveWorkspace. Results are bit-identical to the static
/// SuccessiveModel entry points (same computation, recycled buffers); the
/// win is dropping the per-point design.validate() and all per-point
/// allocations from attack-grid loops (BudgetFrontier, analyze_sensitivity,
/// the figure benches).
class SuccessiveEvaluator {
 public:
  explicit SuccessiveEvaluator(const SosDesign& design,
                               SuccessiveOptions options = {});

  double p_success(const SuccessiveAttack& attack) {
    return trace(attack).result.p_success();
  }

  /// References into the evaluator's workspace: valid until the next call.
  const ModelResult& evaluate(const SuccessiveAttack& attack) {
    return trace(attack).result;
  }
  const SuccessiveTrace& trace(const SuccessiveAttack& attack);

  const SosDesign& design() const { return design_; }

 private:
  SosDesign design_;
  SuccessiveOptions options_;
  SuccessiveWorkspace workspace_;
};

}  // namespace sos::core
