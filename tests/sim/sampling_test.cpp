// sim::sampling — sequential stopping and stratified estimators:
// determinism contracts (a stopped run is bit-identical to a fixed run of
// the resolved length at any thread count), fixed-seed pins of every
// estimator, stopping-rule properties, the exact servlet-compromise law, and
// the degenerate-case tripwire (zero-variance strata must produce a
// diagnostic note, never a NaN).
#include "sim/sampling.h"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "attack/one_burst_attacker.h"
#include "common/stats.h"
#include "common/thread_pool.h"
#include "faults/fault_injector.h"
#include "sim/monte_carlo.h"

namespace sos::sim::sampling {
namespace {

core::SosDesign small_design() {
  return core::SosDesign::make(1000, 60, 3, 10,
                               core::MappingPolicy::one_to_all());
}

AttackFn one_burst_fn(const core::OneBurstAttack& attack) {
  return [attacker = attack::OneBurstAttacker{attack}](
             sosnet::SosOverlay& overlay, common::Rng& rng) {
    return attacker.execute(overlay, rng);
  };
}

/// Every field a fixed-trial reduction fills (the stop metadata —
/// stopped_by_rule / capped / estimator_note — is the sequential run's own).
void expect_same_estimate(const MonteCarloResult& a,
                          const MonteCarloResult& b) {
  EXPECT_EQ(a.p_success, b.p_success);
  EXPECT_EQ(a.ci.lo, b.ci.lo);
  EXPECT_EQ(a.ci.hi, b.ci.hi);
  EXPECT_EQ(a.walks, b.walks);
  EXPECT_EQ(a.deliveries, b.deliveries);
  EXPECT_EQ(a.mean_broken, b.mean_broken);
  EXPECT_EQ(a.mean_broken_sos, b.mean_broken_sos);
  EXPECT_EQ(a.mean_congested, b.mean_congested);
  EXPECT_EQ(a.mean_congested_sos, b.mean_congested_sos);
  EXPECT_EQ(a.mean_congested_filters, b.mean_congested_filters);
  EXPECT_EQ(a.mean_disclosed, b.mean_disclosed);
  EXPECT_EQ(a.mean_delivery_hops, b.mean_delivery_hops);
  EXPECT_EQ(a.resolved_trials, b.resolved_trials);
  EXPECT_EQ(a.wilson.lo, b.wilson.lo);
  EXPECT_EQ(a.wilson.hi, b.wilson.hi);
}

TEST(SamplingSequential, BitIdenticalToFixedRunOfResolvedLength) {
  const auto design = small_design();
  const core::OneBurstAttack attack{200, 150, 0.5};
  MonteCarloConfig config;
  config.walks_per_trial = 4;
  config.seed = 0xabc1ULL;
  config.threads = 1;
  StoppingRule rule;
  rule.ci_half_width = 0.08;
  rule.initial_trials = 16;
  rule.max_trials = 1 << 12;

  const auto sequential = run_sequential(design, one_burst_fn(attack),
                                         config, rule);
  ASSERT_TRUE(sequential.stopped_by_rule || sequential.capped);

  MonteCarloConfig fixed = config;
  fixed.trials = static_cast<int>(sequential.resolved_trials);
  const auto reference = run_monte_carlo(design, one_burst_fn(attack), fixed);
  expect_same_estimate(sequential, reference);

  // Thread count must never change any field of the stopped run.
  for (const int threads : {2, 8}) {
    ThreadPool pool{threads};
    MonteCarloConfig multi = config;
    multi.threads = threads;
    multi.pool = &pool;
    const auto parallel = run_sequential(design, one_burst_fn(attack),
                                         multi, rule);
    EXPECT_EQ(parallel.stopped_by_rule, sequential.stopped_by_rule);
    EXPECT_EQ(parallel.capped, sequential.capped);
    expect_same_estimate(parallel, sequential);
  }
}

TEST(SamplingSequential, StoppedRunNeverReportsWiderIntervalThanTarget) {
  const auto design = small_design();
  const core::OneBurstAttack attack{150, 100, 0.5};
  for (const std::uint64_t seed : {1ULL, 7ULL, 99ULL}) {
    for (const double target : {0.10, 0.05}) {
      MonteCarloConfig config;
      config.walks_per_trial = 4;
      config.seed = seed;
      config.threads = 1;
      StoppingRule rule;
      rule.ci_half_width = target;
      rule.initial_trials = 8;
      rule.max_trials = 1 << 14;
      const auto result = run_sequential(design, one_burst_fn(attack),
                                         config, rule);
      if (result.stopped_by_rule)
        EXPECT_LE(0.5 * result.wilson.width(), target)
            << "seed=" << seed << " target=" << target;
    }
  }
}

TEST(SamplingSequential, UnreachableTargetCapsWithDiagnostic) {
  const auto design = small_design();
  const core::OneBurstAttack attack{150, 100, 0.5};
  MonteCarloConfig config;
  config.walks_per_trial = 2;
  config.threads = 1;
  StoppingRule rule;
  rule.ci_half_width = 1e-6;  // unreachable at this cap
  rule.initial_trials = 8;
  rule.max_trials = 64;
  const auto result = run_sequential(design, one_burst_fn(attack), config,
                                     rule);
  EXPECT_FALSE(result.stopped_by_rule);
  EXPECT_TRUE(result.capped);
  EXPECT_EQ(result.resolved_trials, 64u);
  EXPECT_NE(result.estimator_note.find("max_trials"), std::string::npos);
}

TEST(SamplingSequential, FixedTrialResultKeepsEstimatorFieldsInert) {
  const auto design = small_design();
  const core::OneBurstAttack attack{150, 100, 0.5};
  MonteCarloConfig config;
  config.trials = 40;
  config.walks_per_trial = 3;
  config.threads = 1;
  const auto result = run_monte_carlo(design, one_burst_fn(attack), config);
  EXPECT_EQ(result.resolved_trials, 40u);
  const auto wilson =
      common::wilson_interval(result.deliveries, result.walks);
  EXPECT_EQ(result.wilson.lo, wilson.lo);
  EXPECT_EQ(result.wilson.hi, wilson.hi);
  EXPECT_FALSE(result.stopped_by_rule);
  EXPECT_FALSE(result.capped);
  EXPECT_TRUE(result.strata.empty());
  EXPECT_TRUE(result.estimator_note.empty());
}

TEST(SamplingLaw, ServletPmfIsAProperDistributionWithExactMean) {
  // N = 1000, m = 20, N_T = 300, p = 0.5: E[K] = p * m * N_T / N = 3.
  const auto pmf = servlet_compromise_pmf(1000, 20, 300, 0.5);
  ASSERT_EQ(pmf.size(), 21u);
  double total = 0.0, mean = 0.0;
  for (std::size_t k = 0; k < pmf.size(); ++k) {
    EXPECT_GE(pmf[k], 0.0);
    total += pmf[k];
    mean += static_cast<double>(k) * pmf[k];
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
  EXPECT_NEAR(mean, 3.0, 1e-9);
}

TEST(SamplingLaw, ServletPmfEdgeCases) {
  // p = 0: all mass at K = 0. Budget = N: every servlet attempted,
  // K ~ Binomial(m, p).
  const auto none = servlet_compromise_pmf(100, 10, 40, 0.0);
  EXPECT_NEAR(none[0], 1.0, 1e-12);
  const auto all = servlet_compromise_pmf(100, 10, 100, 0.3);
  const auto binom = binomial_pmf(10, 0.3);
  for (std::size_t k = 0; k < all.size(); ++k)
    EXPECT_NEAR(all[k], binom[k], 1e-12) << "k=" << k;
}

TEST(SamplingLaw, ConditionedAttackHitsTheDictatedServletCounts) {
  const auto design = small_design();
  const core::OneBurstAttack attack{200, 0, 0.5};
  const attack::OneBurstAttacker attacker{attack};
  sosnet::SosOverlay overlay{design, 17};
  common::Rng rng{42};
  const int last = design.layers() - 1;
  const std::vector<std::pair<int, int>> cases{{5, 2}, {8, 8}, {3, 0}};
  for (const auto& [victims, successes] : cases) {
    overlay.reset_health();
    const auto outcome =
        attacker.execute_conditioned(overlay, rng, victims, successes);
    EXPECT_EQ(outcome.broken_per_layer[static_cast<std::size_t>(last)],
              successes)
        << "victims=" << victims;
  }
  EXPECT_THROW(attacker.execute_conditioned(overlay, rng, 3, 4),
               std::invalid_argument);
  EXPECT_THROW(attacker.execute_conditioned(overlay, rng, 9999, 0),
               std::invalid_argument);
}

TEST(SamplingLaw, StratumBoundariesCoverTheSupport) {
  const auto pmf = servlet_compromise_pmf(1000, 20, 300, 0.5);
  const auto edges = stratum_boundaries(pmf, 6);
  ASSERT_GE(edges.size(), 2u);
  EXPECT_EQ(edges.front(), 0);
  EXPECT_EQ(edges.back(), static_cast<int>(pmf.size()));
  for (std::size_t i = 0; i + 1 < edges.size(); ++i)
    EXPECT_LT(edges[i], edges[i + 1]);
  // Degenerate pmf: a single-point mass yields the trivial two-edge cover.
  EXPECT_EQ(stratum_boundaries({1.0}, 4), (std::vector<int>{0, 1}));
}

TEST(SamplingLaw, TrialsForWilsonHalfWidthInvertsTheInterval) {
  for (const double p : {0.5, 0.05, 1e-3}) {
    for (const double h : {0.02, 0.005}) {
      const double n = trials_for_wilson_half_width(p, h);
      // Quadratic-regime sanity: n within a few percent of z^2 p(1-p)/h^2
      // whenever that classic approximation is itself valid (n * p >> 1).
      if (n * p > 50.0) {
        const double classic = 1.96 * 1.96 * p * (1.0 - p) / (h * h);
        EXPECT_NEAR(n, classic, 0.1 * classic) << "p=" << p << " h=" << h;
      }
      EXPECT_GT(trials_for_wilson_half_width(p, h / 2), n);
    }
  }
}

TEST(SamplingStratified, AgreesWithTheNaiveEstimatorAndIsThreadStable) {
  const auto design = small_design();
  const core::OneBurstAttack attack{200, 150, 0.5};
  MonteCarloConfig config;
  config.walks_per_trial = 4;
  config.seed = 0x57ULL;
  config.threads = 1;
  StoppingRule rule;
  rule.ci_half_width = 0.02;
  rule.initial_trials = 64;
  rule.max_trials = 1 << 12;

  const auto stratified = run_stratified(design, attack, config, rule);
  EXPECT_TRUE(std::isfinite(stratified.p_success));
  EXPECT_GT(stratified.resolved_trials, 0u);
  EXPECT_FALSE(stratified.strata.empty());

  MonteCarloConfig naive = config;
  naive.trials = 3000;
  const auto reference = run_monte_carlo(design, one_burst_fn(attack), naive);
  // Cross-estimator agreement within the union of both 95% intervals,
  // stretched 2x for the 1-in-20 tail.
  const double slack =
      2.0 * (0.5 * stratified.ci.width() + 0.5 * reference.ci.width());
  EXPECT_NEAR(stratified.p_success, reference.p_success, slack + 1e-12);

  for (const int threads : {2, 8}) {
    ThreadPool pool{threads};
    MonteCarloConfig multi = config;
    multi.threads = threads;
    multi.pool = &pool;
    const auto parallel = run_stratified(design, attack, multi, rule);
    EXPECT_EQ(parallel.p_success, stratified.p_success);
    EXPECT_EQ(parallel.ci.lo, stratified.ci.lo);
    EXPECT_EQ(parallel.ci.hi, stratified.ci.hi);
    EXPECT_EQ(parallel.resolved_trials, stratified.resolved_trials);
    ASSERT_EQ(parallel.strata.size(), stratified.strata.size());
    for (std::size_t h = 0; h < parallel.strata.size(); ++h) {
      EXPECT_EQ(parallel.strata[h].trials, stratified.strata[h].trials);
      EXPECT_EQ(parallel.strata[h].p_hat, stratified.strata[h].p_hat);
    }
  }
}

TEST(SamplingTripwires, ZeroVarianceStrataProduceANoteNotANaN) {
  // Congestion so heavy nothing ever delivers: every stratum's conditional
  // variance is zero. The estimator must report that and stay finite.
  const auto design = small_design();
  const core::OneBurstAttack attack{400, 900, 0.9};
  MonteCarloConfig config;
  config.walks_per_trial = 2;
  config.threads = 1;
  StoppingRule rule;
  rule.ci_half_width = 0.05;
  rule.initial_trials = 32;
  rule.max_trials = 256;
  const auto result = run_stratified(design, attack, config, rule);
  EXPECT_TRUE(std::isfinite(result.p_success));
  EXPECT_TRUE(std::isfinite(result.ci.lo));
  EXPECT_TRUE(std::isfinite(result.ci.hi));
  EXPECT_NE(result.estimator_note.find("zero"), std::string::npos)
      << result.estimator_note;
  for (const auto& tally : result.strata) {
    EXPECT_TRUE(std::isfinite(tally.p_hat));
    EXPECT_TRUE(std::isfinite(tally.stddev));
  }
}


// --- Fixed-seed pins: the exact bits each estimator produces at threads 1,
// 2 and 8. Any change to a trial's seeding, its RNG draw order, the
// scheduler's chunking or the reduction order shows up here. ---

struct GoldenTally {
  int lo = 0;
  int hi = 0;
  double weight = 0.0;
  std::uint64_t trials = 0;
  double p_hat = 0.0;
  double stddev = 0.0;
};

struct Golden {
  double p_success, ci_lo, ci_hi;
  std::uint64_t walks, deliveries;
  double mean_broken, mean_broken_sos, mean_congested, mean_congested_sos,
      mean_congested_filters, mean_disclosed, mean_delivery_hops;
  std::uint64_t resolved_trials;
  std::vector<GoldenTally> strata;
};

void expect_golden(const MonteCarloResult& result, const Golden& golden) {
  EXPECT_EQ(result.p_success, golden.p_success);
  EXPECT_EQ(result.ci.lo, golden.ci_lo);
  EXPECT_EQ(result.ci.hi, golden.ci_hi);
  EXPECT_EQ(result.walks, golden.walks);
  EXPECT_EQ(result.deliveries, golden.deliveries);
  EXPECT_EQ(result.mean_broken, golden.mean_broken);
  EXPECT_EQ(result.mean_broken_sos, golden.mean_broken_sos);
  EXPECT_EQ(result.mean_congested, golden.mean_congested);
  EXPECT_EQ(result.mean_congested_sos, golden.mean_congested_sos);
  EXPECT_EQ(result.mean_congested_filters, golden.mean_congested_filters);
  EXPECT_EQ(result.mean_disclosed, golden.mean_disclosed);
  EXPECT_EQ(result.mean_delivery_hops, golden.mean_delivery_hops);
  EXPECT_EQ(result.resolved_trials, golden.resolved_trials);
  ASSERT_EQ(result.strata.size(), golden.strata.size());
  for (std::size_t h = 0; h < golden.strata.size(); ++h) {
    const StratumTally& tally = result.strata[h];
    const GoldenTally& pin = golden.strata[h];
    EXPECT_EQ(tally.lo, pin.lo) << "stratum " << h;
    EXPECT_EQ(tally.hi, pin.hi) << "stratum " << h;
    EXPECT_EQ(tally.weight, pin.weight) << "stratum " << h;
    EXPECT_EQ(tally.trials, pin.trials) << "stratum " << h;
    EXPECT_EQ(tally.p_hat, pin.p_hat) << "stratum " << h;
    EXPECT_EQ(tally.stddev, pin.stddev) << "stratum " << h;
  }
}

const core::OneBurstAttack kGoldenAttack{100, 20, 0.5};

/// Runs `estimate(config)` at threads 1, 2 and 8 (each on its own pool)
/// and checks every run against the same pin.
template <typename Estimate>
void expect_golden_at_every_thread_count(std::uint64_t seed,
                                         const Golden& golden,
                                         const Estimate& estimate) {
  for (const int threads : {1, 2, 8}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ThreadPool pool{threads};
    MonteCarloConfig config;
    config.walks_per_trial = 4;
    config.seed = seed;
    config.threads = threads;
    config.pool = &pool;
    expect_golden(estimate(config), golden);
  }
}

TEST(SamplingGolden, MonteCarloIsPinnedAtEveryThreadCount) {
  const Golden golden{
      0x1.7555555555554p-1, 0x1.3448c0d825375p-1, 0x1.b661e9d285733p-1,
      192, 140,
      0x1.a0ffffffffffep+5, 0x1.98p+1, 0x1.05aaaaaaaaaa9p+4,
      0x1.d200000000002p+3, 0x1.d2aaaaaaaaaadp+1, 0x1.f2aaaaaaaaaaap+4,
      0x1p+2,
      48u, {}};
  expect_golden_at_every_thread_count(
      0x901d1ULL, golden, [](MonteCarloConfig config) {
        config.trials = 48;
        return run_monte_carlo(small_design(), one_burst_fn(kGoldenAttack),
                               config);
      });
}

TEST(SamplingGolden, SequentialIsPinnedAtEveryThreadCount) {
  const Golden golden{
      0x1.cfffffffffffep-1, 0x1.9b76d9e80292ep-1, 0x1.0244930bfeb67p+0,
      128, 116,
      0x1.8d8p+5, 0x1.acp+1, 0x1.048p+4,
      0x1.a2fffffffffffp+3, 0x1.dbfffffffffffp+1, 0x1.ebp+4,
      0x1p+2,
      32u, {}};
  StoppingRule rule;
  rule.ci_half_width = 0.08;
  rule.initial_trials = 16;
  rule.max_trials = 1 << 12;
  expect_golden_at_every_thread_count(
      0x901d2ULL, golden, [&rule](const MonteCarloConfig& config) {
        return run_sequential(small_design(), one_burst_fn(kGoldenAttack),
                              config, rule);
      });
}

TEST(SamplingGolden, StratifiedWithPostAttackHookIsPinnedAtEveryThreadCount) {
  const Golden golden{
      0x1.861678d06107cp-1, 0x1.7af7a8bae1547p-1, 0x1.913548e5e0bb1p-1,
      5120, 3800,
      0x1.8fc6b62039471p+5, 0x1.831f33482fbbap+1, 0x1.005d178a0ae85p+4,
      0x1.cbe8a11d80411p+3, 0x1.fd1743afb0d23p+1, 0x1.f10cf7a6d5a9bp+4,
      0x1p+2,
      1280u,
      {{0, 1, 0x1.6d57ef4cc1538p-2, 539u, 0x1.1fd2678a36253p-1,
        0x1.fc803cfacbecbp-2},
       {1, 2, 0x1.844017cf2d627p-2, 398u, 0x1.bd1b03dbfadaap-1,
        0x1.598b2b2fefe6p-2},
       {2, 3, 0x1.840e96614173ap-3, 204u, 0x1.c3c3c3c3c3c3fp-1,
        0x1.4abbe1a23798ep-2},
       {3, 4, 0x1.e50000e44a423p-5, 96u, 0x1.b555555555554p-1,
        0x1.6b4e87f8cf799p-2},
       {4, 21, 0x1.f815b2dd50692p-7, 43u, 0x1.d05f417d05f42p-1,
        0x1.2cf4cd870e758p-2}}};
  StoppingRule rule;
  rule.ci_half_width = 0.03;
  rule.initial_trials = 64;
  rule.max_trials = 1 << 11;
  // Steady-state crashes after the conditioned attack: the hook draws from
  // the trial's stream between the attack and the walks.
  faults::FaultConfig fault_config;
  fault_config.node_mtbf = 0.9;
  fault_config.node_mttr = 0.1;
  const PostAttackFn post_attack =
      [fault_config](sosnet::SosOverlay& overlay, common::Rng& rng) {
        faults::apply_steady_state_faults(fault_config, overlay, rng);
      };
  expect_golden_at_every_thread_count(
      0x901d3ULL, golden, [&](const MonteCarloConfig& config) {
        return run_stratified(small_design(), kGoldenAttack, config, rule, {},
                              post_attack);
      });
}

TEST(SamplingRules, StoppingRuleValidation) {
  StoppingRule rule;
  EXPECT_NO_THROW(rule.validate());
  rule.ci_half_width = 0.0;
  EXPECT_THROW(rule.validate(), std::invalid_argument);
  rule = StoppingRule{};
  rule.initial_trials = 1;
  EXPECT_THROW(rule.validate(), std::invalid_argument);
  rule = StoppingRule{};
  rule.max_trials = 4;
  rule.initial_trials = 8;
  EXPECT_THROW(rule.validate(), std::invalid_argument);
  rule = StoppingRule{};
  rule.min_events = 0;
  EXPECT_THROW(rule.validate(), std::invalid_argument);
}

}  // namespace
}  // namespace sos::sim::sampling
