// Figure registry + campaign expansion: the registered suite is pinned
// (ids, bench names, legacy default trial counts), and expand() reproduces
// the legacy execution orders exactly — the suite in registry order, sweeps
// in break_in > congestion > mapping > layers nesting.
#include "campaign/registry.h"

#include <gtest/gtest.h>

#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "campaign/digest.h"

namespace sos::campaign {
namespace {

ScenarioSpec tiny_sweep() {
  ScenarioSpec spec;
  spec.name = "t";
  spec.mode = ScenarioSpec::Mode::kSweep;
  spec.mc_trials = 0;
  spec.layers = {1, 3};
  spec.mappings = {"one-to-one", "one-to-all"};
  spec.break_in = {0, 200};
  spec.congestion = {500};
  return spec;
}

TEST(FigureRegistry, PinsTheLegacySuite) {
  // One row per figure: id, result-file base name, default trials.
  const std::vector<std::tuple<std::string, std::string, int>> expected{
      {"fig4a", "fig4a_one_burst_congestion", 0},
      {"fig4b", "fig4b_one_burst_breakin", 0},
      {"fig6a", "fig6a_successive_mapping", 0},
      {"fig6b", "fig6b_node_distribution", 0},
      {"fig7", "fig7_rounds", 0},
      {"fig8a", "fig8a_nt_vs_n", 0},
      {"fig8b", "fig8b_nt_vs_layers", 0},
      {"ext_nc", "ext_nc_sensitivity", 0},
      {"ext_mc", "ext_model_vs_montecarlo", 60},
      {"ext_exact", "ext_exact_vs_average", 0},
      {"ext_adaptive", "ext_adaptive_attacker", 40},
      {"ext_repair", "ext_repair_dynamics", 40},
      {"ext_chord", "ext_chord_fidelity", 24},
      {"ext_latency", "ext_latency_tradeoff", 0},
      {"ext_pool", "ext_pool_bookkeeping", 0},
      {"ext_migration", "ext_migration_defense", 40},
      {"ext_budget", "ext_budget_split", 0},
      {"ext_protocol", "ext_protocol_semantics", 0},
      {"ext_timeline", "ext_attack_timeline", 0},
      {"ext_hardening", "ext_hardening_placement", 0},
      {"ext_profile", "ext_mapping_profile", 0},
      {"ext_faults", "ext_fault_tolerance", 0},
      {"ext_scale", "ext_scale_curve", 8},
      {"ext_sampling", "ext_sampling_curve", 2048},
      {"ext_frontier", "ext_design_frontier", 48},
  };
  const auto& registry = figure_registry();
  ASSERT_EQ(registry.size(), expected.size());
  for (std::size_t i = 0; i < registry.size(); ++i) {
    EXPECT_EQ(registry[i].id, std::get<0>(expected[i])) << "row " << i;
    EXPECT_EQ(registry[i].bench_name, std::get<1>(expected[i])) << "row " << i;
    EXPECT_EQ(registry[i].default_mc_trials, std::get<2>(expected[i]))
        << "row " << i;
    EXPECT_NE(registry[i].generate, nullptr) << "row " << i;
  }
}

TEST(FigureRegistry, LookupByIdAndUniqueness) {
  std::set<std::string> ids;
  for (const auto& entry : figure_registry()) {
    EXPECT_TRUE(ids.insert(entry.id).second) << "duplicate id " << entry.id;
    const auto* found = find_figure(entry.id);
    ASSERT_NE(found, nullptr);
    EXPECT_STREQ(found->id, entry.id);
  }
  EXPECT_EQ(find_figure("fig99"), nullptr);
}

TEST(FigureRegistry, GeneratorProducesMatchingFigureId) {
  experiments::Params params;
  params.mc_trials = 0;
  const auto* entry = find_figure("fig4a");
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->generate(params).id, "fig4a");
}

TEST(CampaignExpand, SuiteSpecIsTheLegacyBenchLoop) {
  // suite_spec must re-expand to the figure suite: one point per
  // registered figure, in registry order, each resolved to its default
  // trial count.
  experiments::Params params;
  const auto points = expand(suite_spec(params));
  const auto& registry = figure_registry();
  ASSERT_EQ(points.size(), registry.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    EXPECT_EQ(points[i].index, static_cast<int>(i));
    EXPECT_EQ(points[i].figure_id, registry[i].id);
    EXPECT_EQ(points[i].mc_trials, registry[i].default_mc_trials);
    EXPECT_EQ(points[i].key, "figure=" + std::string(registry[i].id) +
                                 " mc_trials=" +
                                 std::to_string(registry[i].default_mc_trials));
  }
}

TEST(CampaignExpand, ExplicitTrialsOverrideTheRegistryDefault) {
  experiments::Params params;
  params.mc_trials = 4;
  const auto points = expand(figure_spec("ext_mc", params, 4));
  ASSERT_EQ(points.size(), 1u);
  EXPECT_EQ(points[0].mc_trials, 4);  // not ext_mc's registered 60
}

TEST(CampaignExpand, UnknownFigureListsTheRegistry) {
  experiments::Params params;
  try {
    expand(figure_spec("fig99", params));
    FAIL() << "expected rejection";
  } catch (const std::invalid_argument& error) {
    const std::string message = error.what();
    EXPECT_NE(message.find("ScenarioSpec: bad figures 'fig99' (accepted: "),
              std::string::npos)
        << message;
    EXPECT_NE(message.find("fig4a"), std::string::npos) << message;
    EXPECT_NE(message.find("ext_faults"), std::string::npos) << message;
  }
}

TEST(CampaignExpand, SweepNestingMatchesTheLegacyRowOrder) {
  const auto points = expand(tiny_sweep());
  // break_in outer, then congestion, then mapping, then layers — the same
  // nesting the legacy figure generators emit rows in.
  const std::vector<std::string> expected{
      "nt=0 nc=500 mapping=one-to-one layers=1",
      "nt=0 nc=500 mapping=one-to-one layers=3",
      "nt=0 nc=500 mapping=one-to-all layers=1",
      "nt=0 nc=500 mapping=one-to-all layers=3",
      "nt=200 nc=500 mapping=one-to-one layers=1",
      "nt=200 nc=500 mapping=one-to-one layers=3",
      "nt=200 nc=500 mapping=one-to-all layers=1",
      "nt=200 nc=500 mapping=one-to-all layers=3",
  };
  ASSERT_EQ(points.size(), expected.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    EXPECT_EQ(points[i].key, expected[i]);
    EXPECT_EQ(points[i].index, static_cast<int>(i));
  }
}

TEST(CampaignDigest, NameAndGridEditsKeepPointsWarm) {
  const auto spec = tiny_sweep();
  const auto points = expand(spec);

  auto renamed = spec;
  renamed.name = "renamed";
  renamed.break_in = {0, 200, 400};  // grown grid, shared prefix
  const auto renamed_points = expand(renamed);
  EXPECT_EQ(point_digest(spec, points[0]),
            point_digest(renamed, renamed_points[0]));

  auto reseeded = spec;
  reseeded.seed = 1;
  EXPECT_NE(point_digest(spec, points[0]),
            point_digest(reseeded, expand(reseeded)[0]));
}

TEST(CampaignDigest, SpecDigestCoversTheCanonicalText) {
  const auto spec = tiny_sweep();
  EXPECT_EQ(spec_digest(spec), salted_digest(spec.canonical()));
  auto renamed = spec;
  renamed.name = "renamed";
  EXPECT_NE(spec_digest(spec), spec_digest(renamed));
}

}  // namespace
}  // namespace sos::campaign
