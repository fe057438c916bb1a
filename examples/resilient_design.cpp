// Design-space exploration: given expected attack intensities, search over
// the paper's three design features (L, mapping degree, node distribution)
// and rank architectures by analytical P_S — i.e., the workflow the paper's
// conclusion recommends ("if the system is designed carefully keeping
// potential attack scenarios in mind, more resilient architectures can be
// designed").
//
// With --robust, the expected attack's (N_T, N_C) pair is replaced by a
// rational adversary that splits a priced budget however it hurts most, and
// designs are ranked by their *guaranteed* (worst-split) P_S instead.
//
//   ./resilient_design [--nt=200] [--nc=2000] [--rounds=3] [--pe=0.2]
//                      [--max-layers=8] [--top=10] [--verify-trials=200]
//   ./resilient_design --robust [--budget=4000] [--breakin-cost=2]
//                      [--congest-cost=1]
#include <algorithm>
#include <cstdio>
#include <exception>
#include <vector>

#include "attack/successive_attacker.h"
#include "common/cli.h"
#include "common/strings.h"
#include "common/table.h"
#include "core/successive_model.h"
#include "optimize/cost_model.h"
#include "optimize/design_space.h"
#include "optimize/objective.h"
#include "sim/monte_carlo.h"

using namespace sos;  // NOLINT: example brevity

namespace {

struct Candidate {
  optimize::DesignPoint point;
  double p_model;
};

}  // namespace

int main(int argc, char** argv) try {
  const common::Args args{argc, argv};

  core::SuccessiveAttack attack;
  attack.break_in_budget = static_cast<int>(args.get_int("nt", 200));
  attack.congestion_budget = static_cast<int>(args.get_int("nc", 2000));
  attack.break_in_success = args.get_double("pb", 0.5);
  attack.prior_knowledge = args.get_double("pe", 0.2);
  attack.rounds = static_cast<int>(args.get_int("rounds", 3));

  const int total = static_cast<int>(args.get_int("n", 10000));
  const int sos_nodes = static_cast<int>(args.get_int("sos", 100));
  const int filters = static_cast<int>(args.get_int("filters", 10));
  const int max_layers = static_cast<int>(args.get_int("max-layers", 8));
  const auto top = static_cast<std::size_t>(args.get_int("top", 10));

  // The paper's design grid: every layer count up to --max-layers (and at
  // most one node per layer), five mappings, three distributions.
  optimize::DesignSpace space;
  space.total_overlay_nodes = total;
  space.filter_count = filters;
  space.layers.clear();
  for (int layers = 1; layers <= std::min(max_layers, sos_nodes); ++layers)
    space.layers.push_back(layers);
  space.sos_nodes = {sos_nodes};
  space.mappings = {"one-to-one", "one-to-two", "one-to-five", "one-to-half",
                    "one-to-all"};
  space.distributions = {"even", "increasing", "decreasing"};
  const auto points = space.enumerate();

  if (args.get_bool("robust", false)) {
    core::AttackBudget budget;
    budget.total = args.get_double("budget", 4000.0);
    budget.break_in_cost = args.get_double("breakin-cost", 2.0);
    budget.congestion_cost = args.get_double("congest-cost", 1.0);
    budget.rounds = attack.rounds;
    budget.prior_knowledge = attack.prior_knowledge;
    budget.break_in_success = attack.break_in_success;

    optimize::AttackerObjective objective;  // successive, 21 split steps
    objective.budget = budget;

    std::printf(
        "minimax search: attacker splits %.0f budget units freely "
        "(break-in %.1f / congestion %.1f per unit)\n\n",
        budget.total, budget.break_in_cost, budget.congestion_cost);
    // Best guaranteed P_S first; ties go to fewer layers (cheaper latency).
    auto ranked =
        optimize::evaluate_designs(points, optimize::CostModel{}, objective);
    std::stable_sort(ranked.begin(), ranked.end(),
                     [](const optimize::EvaluatedDesign& a,
                        const optimize::EvaluatedDesign& b) {
                       if (a.p_success() != b.p_success())
                         return a.p_success() > b.p_success();
                       return a.point.layers < b.point.layers;
                     });
    common::Table table{{"rank", "L", "mapping", "distribution",
                         "guaranteed P_S", "attacker's split (NT/NC)"}};
    for (std::size_t rank = 0; rank < ranked.size() && rank < top; ++rank) {
      const auto& c = ranked[rank];
      table.add_row({std::to_string(rank + 1), std::to_string(c.point.layers),
                     c.point.mapping, c.point.distribution,
                     common::format_double(c.p_success(), 4),
                     std::to_string(c.worst.break_in_budget) + "/" +
                         std::to_string(c.worst.congestion_budget)});
    }
    std::fputs(table.to_ascii().c_str(), stdout);
    std::printf("\nguaranteed availability of the champion: %.4f\n",
                ranked.front().p_success());
    return 0;
  }

  std::printf("searching designs for attack %s PE=%.2f ...\n\n",
              attack.summary().c_str(), attack.prior_knowledge);

  std::vector<Candidate> candidates;
  for (const auto& point : points)
    candidates.push_back(Candidate{
        point, core::SuccessiveModel::p_success(point.design, attack)});
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& a, const Candidate& b) {
              return a.p_model > b.p_model;
            });

  common::Table table{
      {"rank", "L", "mapping", "distribution", "P_S_model", "P_S_mc"}};
  const int verify_trials =
      static_cast<int>(args.get_int("verify-trials", 200));
  for (std::size_t rank = 0; rank < candidates.size() && rank < top; ++rank) {
    const auto& c = candidates[rank];
    std::string mc_text = "-";
    if (verify_trials > 0 && rank < 3) {
      // Cross-check the podium against the simulated overlay.
      const attack::SuccessiveAttacker attacker{attack};
      sim::MonteCarloConfig config;
      config.trials = verify_trials;
      const auto mc = sim::run_monte_carlo(
          c.point.design,
          [&attacker](sosnet::SosOverlay& overlay, common::Rng& rng) {
            return attacker.execute(overlay, rng);
          },
          config);
      mc_text = common::format_double(mc.p_success, 4);
    }
    table.add_row({std::to_string(rank + 1), std::to_string(c.point.layers),
                   c.point.mapping, c.point.distribution,
                   common::format_double(c.p_model, 4), mc_text});
  }
  std::fputs(table.to_ascii().c_str(), stdout);

  const auto& best = candidates.front();
  std::printf("\nbest design: %s (%s distribution), analytical P_S=%.4f\n",
              best.point.design.summary().c_str(),
              best.point.distribution.c_str(),
              best.p_model);
  std::printf("the original SOS shape (L=3, one-to-all, even) ranks ");
  for (std::size_t rank = 0; rank < candidates.size(); ++rank) {
    const auto& c = candidates[rank];
    if (c.point.layers == 3 && c.point.mapping == "one-to-all" &&
        c.point.distribution == "even") {
      std::printf("#%zu with P_S=%.4f\n", rank + 1, c.p_model);
      break;
    }
  }
  return 0;
} catch (const std::exception& error) {
  std::fprintf(stderr, "error: %s\n", error.what());
  return 1;
}
