// sim::sampling — rare-event estimators for P_S.
//
// The fixed-trial engine (sim/monte_carlo.h) is blind exactly where a
// hardened deployment lives: P_S ~ 1e-6 needs ~1e8 uniform trials to see one
// event, while easy points waste trials on digits nobody reads. This module
// spends trials where the variance is:
//
//   1. Sequential stopping — run trials in deterministic doubling chunks
//      until the Wilson score interval on deliveries/walks reaches a
//      requested absolute or relative half-width. The records stay
//      trial-indexed and the reduction runs in fixed trial order, so a
//      stopped run is bit-identical to a fixed run of the same resolved
//      length at any thread count.
//   2. Stratified sampling — condition trials of the one-burst attacker on
//      the number K of compromised secret servlets (the last-layer nodes
//      whose capture discloses filters — the variable that gates rare
//      deliveries under heavy attack). K's exact law is the
//      hypergeometric-binomial mixture P(K=k) = Σ_h Hyper(h; N, m, N_T) ·
//      Binom(k; h, P_B_eff); strata are z-score-boundary bins over [0, m]
//      with exact pmf weights, trials are allocated by Neyman allocation
//      from a pilot pass, and the estimate recombines as Σ W_h p̂_h with
//      Var = Σ W_h² σ_h² / n_h.
//
// Stratification is exact under per-layer hardening: every servlet shares
// the same effective break-in probability (P_B x the last layer's factor),
// and non-servlet attempts keep drawing their own per-layer Bernoulli
// outcomes in-trial. Both estimators run each trial through the same trial
// body and scheduler as run_monte_carlo (sim/trial_engine.h) — a stratum's
// conditioned attack is just another AttackFn — and fill the
// MonteCarloResult estimator fields (resolved_trials, wilson, strata,
// estimator_note, ...); a zero-variance stratum produces a diagnostic note,
// never a NaN. (Importance sampling over K saved too few trials to keep;
// see docs/MODELING.md "Rare-event estimators".)
#pragma once

#include <functional>
#include <vector>

#include "core/attack_config.h"
#include "sim/monte_carlo.h"

namespace sos::sim::sampling {

/// When a sequential estimator may stop. The half-width target applies to
/// the estimator's own interval: the Wilson score interval on raw
/// deliveries/walks for run_sequential, the recombined normal-approximation
/// interval for run_stratified.
struct StoppingRule {
  double ci_half_width = 0.05;  // target half-width
  bool relative = false;        // target is ci_half_width * p̂ instead
  int initial_trials = 64;      // first chunk; later chunks double the total
  int max_trials = 1 << 20;     // hard cap; hitting it sets result.capped
  double z = 1.96;              // interval critical value
  /// A relative rule may not fire before this many delivery events: with a
  /// handful of (possibly minuscule-weighted) successes the sample interval
  /// can collapse to zero width around a meaningless p̂, so "half-width <=
  /// fraction of p̂" would declare victory on noise. Absolute rules are
  /// unaffected (their Wilson/normal intervals stay honest at zero events).
  int min_events = 10;

  /// Throws std::invalid_argument on an unsatisfiable rule.
  void validate() const;
};

struct StratifiedOptions {
  /// Number of compromised-servlet-count bins. Boundaries sit at z-scores
  /// of the count's mean, biased toward the left (delivery-friendly) tail;
  /// duplicate and zero-mass bins are dropped, so this is an upper bound.
  int strata = 10;
  int pilot_per_stratum = 32;  // Neyman pilot pass size
  int min_per_stratum = 8;     // floor kept by every allocation round
};

/// Hook run after the (conditioned) attack and before the delivery walks —
/// the slot campaign sweeps use for steady-state benign faults.
using PostAttackFn = std::function<void(sosnet::SosOverlay&, common::Rng&)>;

/// Sequential stopping over the plain trial engine. config.trials is
/// ignored (the rule resolves the count); every other config field applies.
/// The result is bit-identical to run_monte_carlo with
/// trials = result.resolved_trials at any thread count.
MonteCarloResult run_sequential(const core::SosDesign& design,
                                const AttackFn& attack,
                                const MonteCarloConfig& config,
                                const StoppingRule& rule);

/// Stratified estimator over the one-burst attacker's compromised-servlet
/// count.
MonteCarloResult run_stratified(const core::SosDesign& design,
                                const core::OneBurstAttack& attack,
                                const MonteCarloConfig& config,
                                const StoppingRule& rule,
                                const StratifiedOptions& options = {},
                                const PostAttackFn& post_attack = {});

/// Smallest (real-valued) trial count whose Wilson interval at proportion p
/// has half-width <= half_width — the naive-estimator cost of a matched CI,
/// used for the trials-saved ratio in BENCH_sampling.json. Requires
/// half_width > 0.
double trials_for_wilson_half_width(double p, double half_width,
                                    double z = 1.96);

/// Exact Binomial(n, p) pmf via the shared log-factorial table; size n+1.
std::vector<double> binomial_pmf(int n, double p);

/// Exact law of the compromised-secret-servlet count K when N_T break-in
/// attempts fall uniformly on N nodes of which m are servlets, each
/// attempted servlet falling with probability p_effective:
///   P(K=k) = Σ_h Hyper(h; N, m, N_T) · Binom(k; h, p_effective).
/// Size m + 1.
std::vector<double> servlet_compromise_pmf(int total_overlay, int servlets,
                                           int break_in_budget,
                                           double p_effective);

/// Stratum bin edges over a count pmf's support: ascending, deduplicated,
/// edges.front() == 0 and edges.back() == pmf.size() (bins are
/// [e_i, e_{i+1})). Interior edges sit at z-scores of the pmf's mean,
/// spanning deeper into the left tail than the right (low compromise
/// counts are where rare deliveries live).
std::vector<int> stratum_boundaries(const std::vector<double>& pmf,
                                    int strata);

}  // namespace sos::sim::sampling
