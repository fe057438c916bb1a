// Searcher contracts: branch-and-bound exactness (bound on == bound off ==
// brute force), SA recovering the exact frontier on an enumerable space,
// bit-identity of both searchers at any thread count, and the serial
// BudgetFrontier::sweep_into matching the pooled sweep bit for bit.
#include "optimize/search.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "common/thread_pool.h"
#include "core/budget_frontier.h"
#include "core/successive_model.h"
#include "optimize/cost_model.h"
#include "optimize/design_space.h"
#include "optimize/objective.h"
#include "optimize/pareto.h"

namespace sos::optimize {
namespace {

DesignSpace test_space() {
  DesignSpace space;
  space.total_overlay_nodes = 1000;
  space.filter_count = 8;
  space.layers = {1, 2, 3};
  space.sos_nodes = {24, 48};
  space.mappings = {"one-to-one", "one-to-five", "one-to-all"};
  space.distributions = {"even", "decreasing"};
  return space;
}

AttackerObjective test_objective() {
  AttackerObjective objective;
  objective.model = AttackerModel::kSuccessive;
  objective.budget.total = 400.0;
  objective.budget.break_in_cost = 2.0;
  objective.budget.congestion_cost = 1.0;
  objective.budget.rounds = 2;
  objective.budget.prior_knowledge = 0.1;
  objective.budget.break_in_success = 0.5;
  objective.split_steps = 11;
  return objective;
}

/// The paper's grid (layers 1..5 at N=10000, n=100, five mappings, three
/// distributions) against the default successive attacker's 4000-unit
/// budget.
DesignSpace paper_space() {
  DesignSpace space;
  space.mappings = {"one-to-one", "one-to-two", "one-to-five", "one-to-half",
                    "one-to-all"};
  space.distributions = {"even", "increasing", "decreasing"};
  return space;
}

void expect_same_frontier(const SearchResult& a, const SearchResult& b) {
  ASSERT_EQ(a.frontier.size(), b.frontier.size());
  for (std::size_t i = 0; i < a.frontier.size(); ++i) {
    EXPECT_EQ(a.frontier[i].point.key(), b.frontier[i].point.key());
    EXPECT_EQ(a.frontier[i].cost, b.frontier[i].cost);
    EXPECT_EQ(a.frontier[i].p_success(), b.frontier[i].p_success());
    EXPECT_EQ(a.frontier[i].worst.break_in_budget,
              b.frontier[i].worst.break_in_budget);
    EXPECT_EQ(a.frontier[i].worst.congestion_budget,
              b.frontier[i].worst.congestion_budget);
  }
}

TEST(Search, BoundedExhaustiveMatchesUnbounded) {
  const auto space = test_space();
  const auto objective = test_objective();
  const CostModel cost;

  ExhaustiveOptions bounded;
  bounded.bound = true;
  bounded.chunk = 4;  // force many prune rounds
  const auto with_bound = exhaustive_search(space, cost, objective, bounded);

  ExhaustiveOptions unbounded;
  unbounded.bound = false;
  const auto without = exhaustive_search(space, cost, objective, unbounded);

  expect_same_frontier(with_bound, without);
  EXPECT_EQ(without.stats.evaluated,
            static_cast<long long>(space.size()));
  EXPECT_EQ(with_bound.stats.evaluated + with_bound.stats.pruned,
            static_cast<long long>(space.size()))
      << "every candidate is either evaluated or pruned";
  EXPECT_EQ(with_bound.stats.space_size,
            static_cast<long long>(space.size()));
}

TEST(Search, FrontierEqualsParetoOfFullEvaluation) {
  const CostModel cost;
  for (const auto& [space, objective] :
       {std::pair{test_space(), test_objective()},
        std::pair{paper_space(), AttackerObjective{}}}) {
    const auto result = exhaustive_search(space, cost, objective);
    const auto reference =
        pareto_frontier(evaluate_designs(space.enumerate(), cost, objective));
    ASSERT_EQ(result.frontier.size(), reference.size());
    for (std::size_t i = 0; i < reference.size(); ++i)
      EXPECT_EQ(result.frontier[i].point.key(), reference[i].point.key());
  }

  // On the paper's grid the most robust design (the minimax champion, the
  // frontier's top P_S) beats the original SOS shape by a wide margin and is
  // never an extreme: pure one-to-all collapses to break-ins, L=1 to
  // congestion. max_element keeps the first of equal maxima, and the
  // enumeration is layers-major, so ties go to fewer layers.
  const auto paper =
      evaluate_designs(paper_space().enumerate(), cost, AttackerObjective{});
  const auto by_p = [](const EvaluatedDesign& a, const EvaluatedDesign& b) {
    return a.p_success() < b.p_success();
  };
  const auto& champion = *std::max_element(paper.begin(), paper.end(), by_p);
  EXPECT_EQ(champion.p_success(),
            exhaustive_search(paper_space(), cost, AttackerObjective{}).frontier.back()
                .p_success());
  const auto original =
      std::find_if(paper.begin(), paper.end(), [](const EvaluatedDesign& d) {
        return d.point.key() == "L=3 n=100 map=one-to-all dist=even";
      });
  ASSERT_NE(original, paper.end());
  EXPECT_GT(champion.p_success(), original->p_success() + 0.1);
  EXPECT_NE(champion.point.mapping, "one-to-all");
  EXPECT_GT(champion.point.layers, 1);
}

TEST(Search, AnnealRecoversExactFrontierOnEnumerableSpace) {
  const auto space = test_space();
  const auto objective = test_objective();
  const CostModel cost;

  const auto exact = exhaustive_search(space, cost, objective);

  AnnealOptions options;
  options.restarts = 8;
  options.iterations = 300;
  options.seed = 0x5eedULL;
  const auto annealed = anneal_search(space, cost, objective, options);

  expect_same_frontier(exact, annealed);
  EXPECT_GT(annealed.stats.moves, 0);
}

TEST(Search, SearchersAreBitIdenticalAtAnyThreadCount) {
  const auto space = test_space();
  const auto objective = test_objective();
  const CostModel cost;

  AnnealOptions anneal_base;
  anneal_base.restarts = 6;
  anneal_base.iterations = 120;
  anneal_base.seed = 0xfeedULL;

  common::ThreadPool one{1};
  ExhaustiveOptions ex_ref;
  ex_ref.pool = &one;
  ex_ref.chunk = 8;
  const auto exhaustive_ref = exhaustive_search(space, cost, objective, ex_ref);
  AnnealOptions sa_ref = anneal_base;
  sa_ref.pool = &one;
  const auto anneal_ref = anneal_search(space, cost, objective, sa_ref);

  for (const int threads : {2, 8}) {
    common::ThreadPool pool{threads};
    ExhaustiveOptions ex = ex_ref;
    ex.pool = &pool;
    const auto exhaustive = exhaustive_search(space, cost, objective, ex);
    expect_same_frontier(exhaustive_ref, exhaustive);
    EXPECT_EQ(exhaustive.stats.evaluated, exhaustive_ref.stats.evaluated);
    EXPECT_EQ(exhaustive.stats.pruned, exhaustive_ref.stats.pruned);

    AnnealOptions sa = anneal_base;
    sa.pool = &pool;
    const auto annealed = anneal_search(space, cost, objective, sa);
    expect_same_frontier(anneal_ref, annealed);
    EXPECT_EQ(annealed.stats.moves, anneal_ref.stats.moves);
    EXPECT_EQ(annealed.stats.evaluated, anneal_ref.stats.evaluated);
  }
}

TEST(Search, AnnealSeedChangesTrajectoryNotExactness) {
  const auto space = test_space();
  const auto objective = test_objective();
  const CostModel cost;
  const auto exact = exhaustive_search(space, cost, objective);

  AnnealOptions options;
  options.restarts = 8;
  options.iterations = 300;
  for (const std::uint64_t seed : {1ULL, 42ULL, 0xabcdef01ULL}) {
    options.seed = seed;
    const auto annealed = anneal_search(space, cost, objective, options);
    expect_same_frontier(exact, annealed);
  }
}

TEST(Search, SweepIntoMatchesPooledSweepBitForBit) {
  const auto objective = test_objective();
  const auto design = core::SosDesign::make(
      1000, 48, 3, 8, core::MappingPolicy::parse("one-to-five"),
      core::NodeDistribution::parse("decreasing"));

  const auto budget = objective.effective_budget();
  const auto pooled =
      core::BudgetFrontier::sweep(design, budget, objective.split_steps);

  core::SuccessiveEvaluator evaluator{design};
  std::vector<core::BudgetSplit> serial;
  core::BudgetFrontier::sweep_into(evaluator, budget, objective.split_steps,
                                   serial);

  ASSERT_EQ(pooled.size(), serial.size());
  for (std::size_t i = 0; i < pooled.size(); ++i) {
    EXPECT_EQ(pooled[i].fraction, serial[i].fraction);
    EXPECT_EQ(pooled[i].break_in_budget, serial[i].break_in_budget);
    EXPECT_EQ(pooled[i].congestion_budget, serial[i].congestion_budget);
    EXPECT_EQ(pooled[i].p_success, serial[i].p_success);
  }

  // Batched scoring records, per design, the pooled sweep's worst split.
  AttackerObjective coarse;
  coarse.split_steps = 9;
  for (const auto& scored :
       evaluate_designs(paper_space().enumerate(), CostModel{}, coarse)) {
    const auto worst =
        core::BudgetFrontier::worst_case(scored.point.design, coarse.budget, 9);
    EXPECT_EQ(scored.worst.p_success, worst.p_success) << scored.point.key();
    EXPECT_EQ(scored.worst.break_in_budget, worst.break_in_budget);
  }
}

TEST(Search, OneBurstObjectivePinsRoundsAndPriorKnowledge) {
  auto objective = test_objective();
  objective.model = AttackerModel::kOneBurst;
  const auto effective = objective.effective_budget();
  EXPECT_EQ(effective.rounds, 1);
  EXPECT_EQ(effective.prior_knowledge, 0.0);
  // And the search still runs end to end.
  const auto result =
      exhaustive_search(test_space(), CostModel{}, objective);
  EXPECT_FALSE(result.frontier.empty());
}

}  // namespace
}  // namespace sos::optimize
