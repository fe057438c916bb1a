// ScenarioSpec parsing and validation: golden "(accepted:)" error messages
// for every rejected field, the parser's syntax features, and the
// canonical() round trip the spec digest depends on.
#include "campaign/scenario_spec.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

namespace sos::campaign {
namespace {

ScenarioSpec parse(const std::string& text) { return ScenarioSpec::parse(text); }

/// Asserts that parsing `text` throws std::invalid_argument with exactly
/// `message` — the error strings are part of the CLI contract.
void expect_rejects(const std::string& text, const std::string& message) {
  try {
    ScenarioSpec::parse(text);
    FAIL() << "expected rejection: " << message;
  } catch (const std::invalid_argument& error) {
    EXPECT_EQ(std::string(error.what()), message) << "spec:\n" << text;
  }
}

const std::string kSweepHeader = "campaign = t\nmode = sweep\n";

TEST(ScenarioSpecParse, MinimalFiguresSpec) {
  const auto spec = parse("campaign = suite\nfigures = fig4a, fig8b\n");
  EXPECT_EQ(spec.name, "suite");
  EXPECT_EQ(spec.mode, ScenarioSpec::Mode::kFigures);
  ASSERT_EQ(spec.figures.size(), 2u);
  EXPECT_EQ(spec.figures[0], "fig4a");
  EXPECT_EQ(spec.figures[1], "fig8b");
  // Figures mode defaults to each figure's registered trial count.
  EXPECT_EQ(spec.mc_trials, ScenarioSpec::kPerFigureDefaultTrials);
}

TEST(ScenarioSpecParse, CommentsBlanksAndHexSeed) {
  const auto spec = parse(
      "# full-line comment\n"
      "campaign = demo   # trailing comment\n"
      "\n"
      "figures = fig4a\n"
      "seed = 0x5055\n");
  EXPECT_EQ(spec.name, "demo");
  EXPECT_EQ(spec.seed, 0x5055ULL);
}

TEST(ScenarioSpecParse, IntListsSupportRangesAndMixes) {
  const auto spec = parse(kSweepHeader + "layers = 1..3, 8\ncongestion = 0,500\n");
  EXPECT_EQ(spec.layers, (std::vector<int>{1, 2, 3, 8}));
  EXPECT_EQ(spec.congestion, (std::vector<int>{0, 500}));
}

TEST(ScenarioSpecParse, SweepModeDefaultsToAnalyticOnly) {
  EXPECT_EQ(parse(kSweepHeader).mc_trials, 0);
  EXPECT_EQ(parse(kSweepHeader + "mc_trials = 12\n").mc_trials, 12);
}

TEST(ScenarioSpecParse, McTrialsDefaultSentinel) {
  const auto spec = parse("campaign = t\nfigures = fig4a\nmc_trials = default\n");
  EXPECT_EQ(spec.mc_trials, ScenarioSpec::kPerFigureDefaultTrials);
}

TEST(ScenarioSpecParse, FaultKeysPopulateFaultConfig) {
  const auto spec = parse(kSweepHeader +
                          "fault_node_mtbf = 40\nfault_node_mttr = 5\n"
                          "fault_lossy_fraction = 0.1\nfault_seed = 9\n");
  EXPECT_DOUBLE_EQ(spec.faults.node_mtbf, 40.0);
  EXPECT_DOUBLE_EQ(spec.faults.node_mttr, 5.0);
  EXPECT_DOUBLE_EQ(spec.faults.lossy_fraction, 0.1);
  EXPECT_EQ(spec.faults.seed, 9ULL);
  EXPECT_TRUE(spec.faults.enabled());
}

// --- Golden error messages: one per rejected field. ---

TEST(ScenarioSpecErrors, SyntaxAndKeys) {
  expect_rejects(
      "campaign = t\nfigures = fig4a\ngarbage line\n",
      "ScenarioSpec: bad line 'garbage line' (accepted: 'key = value' lines, "
      "blank lines, and # comments)");
  expect_rejects(
      "campaign = t\ncampaign = u\nfigures = fig4a\n",
      "ScenarioSpec: bad duplicate key 'campaign' (accepted: each key at most "
      "once)");
  expect_rejects(
      "campaign = t\nfigures = fig4a\nbogus = 1\n",
      "ScenarioSpec: bad key 'bogus' (accepted: campaign, mode, figures, n, "
      "sos, filters, p_break, mc_trials, mc_walks, seed, attacker, layers, "
      "mappings, distribution, break_in, congestion, rounds, prior_knowledge, "
      "fault_node_mtbf, fault_node_mttr, fault_filter_flap_mtbf, "
      "fault_filter_flap_mttr, fault_lossy_fraction, fault_seed)");
  expect_rejects("campaign = t\nmode = batch\n",
                 "ScenarioSpec: bad mode 'batch' (accepted: figures, sweep)");
}

TEST(ScenarioSpecErrors, ScalarParsing) {
  expect_rejects("campaign = t\nfigures = fig4a\nn = ten\n",
                 "ScenarioSpec: bad n 'ten' (accepted: an integer)");
  expect_rejects("campaign = t\nfigures = fig4a\np_break = often\n",
                 "ScenarioSpec: bad p_break 'often' (accepted: a real number)");
  expect_rejects(
      "campaign = t\nfigures = fig4a\nseed = -1\n",
      "ScenarioSpec: bad seed '-1' (accepted: a non-negative integer, decimal "
      "or 0x hex)");
  expect_rejects(
      kSweepHeader + "layers = 5..1\n",
      "ScenarioSpec: bad layers '5..1' (accepted: comma-separated integers "
      "and lo..hi ranges, e.g. 1,2,4 or 1..8)");
}

TEST(ScenarioSpecErrors, SharedFieldValidation) {
  expect_rejects(
      "campaign = bad name\nfigures = fig4a\n",
      "ScenarioSpec: bad campaign 'bad name' (accepted: a non-empty name of "
      "letters, digits, '_', '-', '.')");
  expect_rejects("campaign = t\nfigures = fig4a\nn = 0\n",
                 "ScenarioSpec: bad n '0' (accepted: a positive overlay size)");
  expect_rejects("campaign = t\nfigures = fig4a\nsos = 20000\n",
                 "ScenarioSpec: bad sos '20000' (accepted: an integer in "
                 "[1, n])");
  expect_rejects(
      "campaign = t\nfigures = fig4a\nfilters = 0\n",
      "ScenarioSpec: bad filters '0' (accepted: a positive filter count)");
  expect_rejects(
      "campaign = t\nfigures = fig4a\np_break = 1.5\n",
      "ScenarioSpec: bad p_break '1.5' (accepted: a probability in [0, 1])");
  expect_rejects(
      "campaign = t\nfigures = fig4a\nmc_walks = 0\n",
      "ScenarioSpec: bad mc_walks '0' (accepted: a positive walk count)");
}

TEST(ScenarioSpecErrors, FiguresModeValidation) {
  expect_rejects(
      "campaign = t\nfigures = fig4a\nmc_trials = -3\n",
      "ScenarioSpec: bad mc_trials '-3' (accepted: 'default' or a "
      "non-negative trial count)");
  expect_rejects(
      "campaign = t\n",
      "ScenarioSpec: bad figures '' (accepted: a non-empty comma-separated "
      "list of registered figure ids (see sos_campaign list))");
}

TEST(ScenarioSpecErrors, SweepModeValidation) {
  expect_rejects(
      kSweepHeader + "mc_trials = -1\n",
      "ScenarioSpec: bad mc_trials '-1' (accepted: a non-negative trial "
      "count)");
  expect_rejects(
      kSweepHeader + "attacker = ddos\n",
      "ScenarioSpec: bad attacker 'ddos' (accepted: one-burst, successive)");
  expect_rejects(
      kSweepHeader + "layers = 200\n",
      "ScenarioSpec: bad layers '200' (accepted: layer counts in [1, sos] so "
      "every layer keeps at least one node)");
  expect_rejects(
      kSweepHeader + "mappings = one-to-none\n",
      "ScenarioSpec: bad mappings 'one-to-none' (accepted: one-to-one, "
      "one-to-two, one-to-five, one-to-half, one-to-all, a fixed count, or a "
      "fraction in (0, 1])");
  expect_rejects(
      kSweepHeader + "distribution = bimodal\n",
      "ScenarioSpec: bad distribution 'bimodal' (accepted: even, increasing, "
      "decreasing, or custom:w1,w2,...)");
  expect_rejects(kSweepHeader + "break_in = 20000\n",
                 "ScenarioSpec: bad break_in '20000' (accepted: budgets in "
                 "[0, n])");
  expect_rejects(kSweepHeader + "congestion = 20000\n",
                 "ScenarioSpec: bad congestion '20000' (accepted: budgets in "
                 "[0, n])");
  expect_rejects(
      kSweepHeader + "attacker = successive\nrounds = 0\n",
      "ScenarioSpec: bad rounds '0' (accepted: a round count >= 1)");
  expect_rejects(
      kSweepHeader + "attacker = successive\nprior_knowledge = 2\n",
      "ScenarioSpec: bad prior_knowledge '2' (accepted: a probability in "
      "[0, 1])");
}

TEST(ScenarioSpecErrors, EmptyListValidation) {
  // Empty lists cannot come out of the parser (parse_int_list rejects them),
  // so exercise validate() directly.
  ScenarioSpec spec;
  spec.name = "t";
  spec.mode = ScenarioSpec::Mode::kSweep;
  spec.mc_trials = 0;
  spec.layers.clear();
  try {
    spec.validate();
    FAIL() << "expected rejection";
  } catch (const std::invalid_argument& error) {
    EXPECT_STREQ(error.what(),
                 "ScenarioSpec: bad layers '' (accepted: a non-empty list of "
                 "layer counts)");
  }
}

// --- canonical(): the digest's input must round-trip exactly. ---

TEST(ScenarioSpecCanonical, FiguresRoundTrip) {
  const auto spec = parse(
      "campaign = suite\nfigures = fig4a, ext_mc\nmc_trials = default\n"
      "seed = 0xbeef\n");
  const auto text = spec.canonical();
  EXPECT_EQ(ScenarioSpec::parse(text).canonical(), text);
}

TEST(ScenarioSpecCanonical, SweepRoundTripWithFaultsAndSuccessive) {
  const auto spec = parse(kSweepHeader +
                          "attacker = successive\nlayers = 1..4\n"
                          "mappings = one-to-two, one-to-all\n"
                          "break_in = 0, 200\ncongestion = 0..1\n"
                          "mc_trials = 8\nrounds = 5\nprior_knowledge = 0.25\n"
                          "fault_node_mtbf = 40\nfault_node_mttr = 5\n");
  const auto text = spec.canonical();
  EXPECT_EQ(ScenarioSpec::parse(text).canonical(), text);
  // Ranges expand in the canonical form, so it is stable under re-parsing.
  EXPECT_NE(text.find("layers = 1, 2, 3, 4"), std::string::npos);
}

// --- trials=auto: the stopping-rule grammar for sweep campaigns. ---

constexpr const char* kAutoAccepted =
    "'default', a non-negative trial count, or "
    "auto:ci=<half-width>[:rel][:max=<trials>]"
    "[:estimator=<sequential|stratified>]";

TEST(ScenarioSpecAutoTrials, ParsesTheFullOptionSet) {
  const auto spec = parse(kSweepHeader + "mc_trials = auto:ci=0.25\n");
  EXPECT_TRUE(spec.auto_trials.enabled);
  EXPECT_DOUBLE_EQ(spec.auto_trials.ci, 0.25);
  EXPECT_FALSE(spec.auto_trials.relative);
  EXPECT_EQ(spec.auto_trials.max_trials, 1 << 20);
  EXPECT_EQ(spec.auto_trials.estimator, "sequential");
  EXPECT_EQ(spec.mc_trials, 0);  // the rule drives MC, not a fixed count

  const auto full = parse(
      kSweepHeader +
      "mc_trials = auto:ci=0.5:rel:max=4096:estimator=stratified\n");
  EXPECT_TRUE(full.auto_trials.relative);
  EXPECT_DOUBLE_EQ(full.auto_trials.ci, 0.5);
  EXPECT_EQ(full.auto_trials.max_trials, 4096);
  EXPECT_EQ(full.auto_trials.estimator, "stratified");
}

TEST(ScenarioSpecAutoTrials, GoldenGrammarErrors) {
  const std::string prefix = "ScenarioSpec: bad mc_trials '";
  expect_rejects(kSweepHeader + "mc_trials = auto:bogus\n",
                 prefix + "auto:bogus' (accepted: " + kAutoAccepted + ")");
  expect_rejects(kSweepHeader + "mc_trials = auto:ci=\n",
                 prefix + "auto:ci=' (accepted: " + kAutoAccepted + ")");
  expect_rejects(
      kSweepHeader + "mc_trials = auto:ci=0.2:ci=0.3\n",
      prefix + "auto:ci=0.2:ci=0.3' (accepted: " + kAutoAccepted + ")");
  expect_rejects(
      kSweepHeader + "mc_trials = auto:rel:rel\n",
      prefix + "auto:rel:rel' (accepted: " + kAutoAccepted + ")");
  expect_rejects(
      kSweepHeader + "mc_trials = auto:max=ten\n",
      prefix + "auto:max=ten' (accepted: " + kAutoAccepted + ")");
}

TEST(ScenarioSpecAutoTrials, GoldenValidationErrors) {
  expect_rejects(
      kSweepHeader + "mc_trials = auto:ci=1.5\n",
      "ScenarioSpec: bad mc_trials "
      "'auto:ci=1.5:max=1048576:estimator=sequential' (accepted: auto "
      "trials with ci in (0, 1))");
  expect_rejects(
      kSweepHeader + "mc_trials = auto:ci=0.25:max=1\n",
      "ScenarioSpec: bad mc_trials "
      "'auto:ci=0.25:max=1:estimator=sequential' (accepted: auto trials "
      "with max >= 2)");
  expect_rejects(
      kSweepHeader + "mc_trials = auto:ci=0.25:estimator=bayes\n",
      "ScenarioSpec: bad mc_trials "
      "'auto:ci=0.25:max=1048576:estimator=bayes' (accepted: estimator "
      "sequential, stratified)");
  expect_rejects(
      kSweepHeader + "mc_trials = auto:ci=0.25:estimator=importance\n",
      "ScenarioSpec: bad mc_trials "
      "'auto:ci=0.25:max=1048576:estimator=importance' (accepted: "
      "estimator sequential, stratified)");
  expect_rejects(
      kSweepHeader +
          "attacker = successive\nrounds = 2\n"
          "mc_trials = auto:ci=0.25:estimator=stratified\n",
      "ScenarioSpec: bad mc_trials "
      "'auto:ci=0.25:max=1048576:estimator=stratified' (accepted: "
      "stratified estimator with attacker = one-burst (it conditions on "
      "the one-burst compromised-servlet count))");
  expect_rejects(
      "campaign = t\nfigures = fig4a\nmc_trials = auto:ci=0.25\n",
      "ScenarioSpec: bad mc_trials "
      "'auto:ci=0.25:max=1048576:estimator=sequential' (accepted: 'default' "
      "or a non-negative trial count (auto trials apply to sweep campaigns "
      "only))");
}

TEST(ScenarioSpecAutoTrials, CanonicalRoundTripAndResultScope) {
  const auto spec = parse(
      kSweepHeader + "mc_trials = auto:ci=0.25:rel:estimator=stratified\n");
  const auto text = spec.canonical();
  EXPECT_NE(text.find("mc_trials = auto:ci=0.25:rel:max=1048576"
                      ":estimator=stratified"),
            std::string::npos);
  EXPECT_EQ(ScenarioSpec::parse(text).canonical(), text);
  EXPECT_NE(spec.result_scope().find(
                "mc_trials=auto:ci=0.25:rel:max=1048576:estimator="
                "stratified"),
            std::string::npos);
  // Fixed-trial scopes render exactly as before, keeping cached result
  // digests warm next to auto campaigns.
  EXPECT_NE(parse(kSweepHeader + "mc_trials = 12\n")
                .result_scope()
                .find("mc_trials=12"),
            std::string::npos);
}

TEST(ScenarioSpecScope, ExcludesCampaignNameAndAxes) {
  auto a = parse(kSweepHeader + "layers = 1..4\ncongestion = 0, 500\n");
  auto b = parse("campaign = other\nmode = sweep\nlayers = 2\n"
                 "congestion = 500, 1000\n");
  // Same result-relevant fields: grid edits and renames keep points warm.
  EXPECT_EQ(a.result_scope(), b.result_scope());
  b.seed = 1;
  EXPECT_NE(a.result_scope(), b.result_scope());
}

}  // namespace
}  // namespace sos::campaign
