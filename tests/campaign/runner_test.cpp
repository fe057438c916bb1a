// CampaignRunner end-to-end: warm-cache reruns, crash/resume via the
// checkpoint hook (a throwing hook aborts exactly like kill -9 — durable
// checkpoints survive, in-flight points are lost), thread-count
// bit-identity for sharded sweeps, and byte-identity of figure campaigns
// against the legacy generators.
//
// The CampaignSmoke suite doubles as the `ctest -L campaign-smoke` label:
// a tiny spec through cold run, interrupt, resume and output assembly.
#include "campaign/runner.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/strings.h"
#include "common/thread_pool.h"
#include "experiments/figure.h"
#include "experiments/figures.h"

namespace sos::campaign {
namespace {

namespace fs = std::filesystem;

/// Small sweep: 2 x 2 x 2 x 1 = 8 points with a light Monte Carlo overlay.
ScenarioSpec tiny_sweep() {
  ScenarioSpec spec;
  spec.name = "tiny";
  spec.mode = ScenarioSpec::Mode::kSweep;
  spec.total_overlay = 1000;
  spec.mc_trials = 2;
  spec.mc_walks = 2;
  spec.seed = 7;
  spec.layers = {1, 3};
  spec.mappings = {"one-to-one", "one-to-all"};
  spec.break_in = {0, 50};
  spec.congestion = {200};
  return spec;
}

class CampaignTestBase : public ::testing::Test {
 protected:
  void SetUp() override {
    // Pid-unique: the CampaignSmoke bodies run twice under parallel ctest
    // (discovered test + the `-L campaign-smoke` aggregate), and two
    // processes sharing a root would race remove_all against store writes.
    root_ = fs::temp_directory_path() /
            ("sos_campaign_test_" + std::to_string(::getpid()) + "_" +
             std::string(::testing::UnitTest::GetInstance()
                             ->current_test_info()
                             ->name()));
    fs::remove_all(root_);
  }
  void TearDown() override { fs::remove_all(root_); }

  std::string store(const std::string& name) const {
    return (root_ / name).string();
  }

  fs::path root_;
};

class CampaignSmoke : public CampaignTestBase {};
class CampaignRunnerTest : public CampaignTestBase {};

TEST_F(CampaignSmoke, ColdRunThenWarmRerun) {
  const auto spec = tiny_sweep();
  CampaignOptions options;
  options.store_dir = store("s");

  CampaignRunner cold{spec, options};
  const auto first = cold.run();
  EXPECT_EQ(first.total, 8);
  EXPECT_EQ(first.cached, 0);
  EXPECT_EQ(first.computed, 8);
  EXPECT_TRUE(first.complete());

  CampaignRunner warm{spec, options};
  const auto second = warm.run();
  EXPECT_EQ(second.cached, 8);
  EXPECT_EQ(second.computed, 0);
  EXPECT_EQ(warm.sweep_csv(), cold.sweep_csv());
}

TEST_F(CampaignSmoke, InterruptedCampaignResumesWithIdenticalBytes) {
  const auto spec = tiny_sweep();

  // Reference: one uninterrupted run.
  CampaignOptions reference_options;
  reference_options.store_dir = store("reference");
  CampaignRunner reference{spec, reference_options};
  reference.run();

  // Crash after 3 durable checkpoints: the throwing hook aborts run() at
  // the same place kill -9 would, losing only in-flight points.
  CampaignOptions crash_options;
  crash_options.store_dir = store("crashed");
  crash_options.checkpoint_interval = 2;
  crash_options.checkpoint_hook = [](int completed) {
    if (completed == 3) throw std::runtime_error("simulated crash");
  };
  CampaignRunner crashing{spec, crash_options};
  EXPECT_THROW(crashing.run(), std::runtime_error);

  CampaignOptions resume_options;
  resume_options.store_dir = store("crashed");
  const auto after_crash = CampaignRunner{spec, resume_options}.status();
  EXPECT_EQ(after_crash.cached, 3);  // exactly the checkpointed points

  // Resume recomputes only the unfinished points...
  CampaignRunner resumed{spec, resume_options};
  const auto report = resumed.run();
  EXPECT_EQ(report.cached, 3);
  EXPECT_EQ(report.computed, 5);
  EXPECT_TRUE(report.complete());

  // ...and the merged output is bit-identical to the uninterrupted run.
  EXPECT_EQ(resumed.sweep_csv(), reference.sweep_csv());
}

TEST_F(CampaignSmoke, WriteOutputsEmitsTheCampaignCsv) {
  const auto spec = tiny_sweep();
  CampaignOptions options;
  options.store_dir = store("s");
  CampaignRunner runner{spec, options};
  runner.run();
  const auto written = runner.write_outputs((root_ / "results").string());
  ASSERT_EQ(written.size(), 1u);
  EXPECT_TRUE(fs::path(written[0]).filename() == "tiny.csv");
  EXPECT_TRUE(fs::exists(written[0]));
}

TEST_F(CampaignRunnerTest, SweepCsvBitIdenticalAcrossWorkerCounts) {
  const auto spec = tiny_sweep();
  std::vector<std::string> csvs;
  for (const int threads : {1, 2, 8}) {
    common::ThreadPool pool{threads};
    CampaignOptions options;
    options.store_dir = store("threads" + std::to_string(threads));
    options.pool = &pool;
    CampaignRunner runner{spec, options};
    runner.run();
    csvs.push_back(runner.sweep_csv());
  }
  EXPECT_EQ(csvs[0], csvs[1]);
  EXPECT_EQ(csvs[0], csvs[2]);
}

TEST_F(CampaignRunnerTest, CheckpointIntervalDoesNotChangeBytes) {
  const auto spec = tiny_sweep();
  std::vector<std::string> csvs;
  for (const int interval : {1, 3, 100}) {
    CampaignOptions options;
    options.store_dir = store("interval" + std::to_string(interval));
    options.checkpoint_interval = interval;
    CampaignRunner runner{spec, options};
    runner.run();
    csvs.push_back(runner.sweep_csv());
  }
  EXPECT_EQ(csvs[0], csvs[1]);
  EXPECT_EQ(csvs[0], csvs[2]);
}

TEST_F(CampaignRunnerTest, FigureCampaignMatchesTheLegacyGenerator) {
  experiments::Params params;
  params.mc_trials = 0;

  CampaignOptions options;
  options.store_dir = store("fig4a");
  CampaignRunner runner{figure_spec("fig4a", params, 0), options};
  const auto report = runner.run();
  EXPECT_EQ(report.total, 1);

  const auto figure = experiments::fig4a(params);
  EXPECT_EQ(runner.figure_render("fig4a"), experiments::render_figure(figure));
  EXPECT_EQ(runner.figure_csv("fig4a"), figure.table.to_csv());

  // write_outputs emits the registered result file names.
  const auto written = runner.write_outputs((root_ / "results").string());
  ASSERT_EQ(written.size(), 2u);
  EXPECT_EQ(fs::path(written[0]).filename(),
            "fig4a_one_burst_congestion.txt");
  EXPECT_EQ(fs::path(written[1]).filename(),
            "fig4a_one_burst_congestion.csv");
}

TEST_F(CampaignRunnerTest, SweepModelColumnMatchesFig4a) {
  // A sweep spec over fig4a's exact grid (N_T=0, N_C in {2000,6000}, the
  // fig4 mapping set, L=1..8) must reproduce the legacy figure's analytic
  // column value for value, in the same row order.
  ScenarioSpec spec;
  spec.name = "fig4a_grid";
  spec.mode = ScenarioSpec::Mode::kSweep;
  spec.mc_trials = 0;
  spec.break_in = {0};
  spec.congestion = {2000, 6000};
  spec.mappings = {"one-to-one", "one-to-half", "one-to-all"};
  spec.layers = {1, 2, 3, 4, 5, 6, 7, 8};

  CampaignOptions options;
  options.store_dir = store("grid");
  CampaignRunner runner{spec, options};
  runner.run();
  const auto sweep_lines = common::split(runner.sweep_csv(), '\n');

  experiments::Params params;
  params.mc_trials = 0;
  const auto figure_lines =
      common::split(experiments::fig4a(params).table.to_csv(), '\n');

  // fig4a rows: N_C,mapping,L,P_S_model; sweep rows prepend N_T=0.
  ASSERT_EQ(sweep_lines.size(), figure_lines.size());
  ASSERT_EQ(sweep_lines.size(), 50u);  // header + 48 points + trailing empty
  for (std::size_t i = 1; i < sweep_lines.size(); ++i) {
    if (std::string(sweep_lines[i]).empty()) continue;
    EXPECT_EQ(std::string(sweep_lines[i]), "0," + std::string(figure_lines[i]))
        << "row " << i;
  }
}

TEST_F(CampaignRunnerTest, StatusBeforeRunSeesNothingDone) {
  CampaignOptions options;
  options.store_dir = store("s");
  CampaignRunner runner{tiny_sweep(), options};
  const auto report = runner.status();
  EXPECT_EQ(report.total, 8);
  EXPECT_EQ(report.cached, 0);
  EXPECT_EQ(report.computed, 0);
  EXPECT_FALSE(report.complete());
  EXPECT_THROW(runner.sweep_csv(), std::runtime_error);
}

TEST_F(CampaignRunnerTest, ManifestPinsTheExpansion) {
  CampaignOptions options;
  options.store_dir = store("s");
  CampaignRunner runner{tiny_sweep(), options};
  runner.run();
  const auto manifest = runner.store().read_manifest();
  ASSERT_TRUE(manifest.has_value());
  EXPECT_EQ(*manifest, runner.manifest_text());
  EXPECT_NE(manifest->find("sos-campaign-manifest v1\n"), std::string::npos);
  EXPECT_NE(manifest->find("points = 8\n"), std::string::npos);
  EXPECT_NE(manifest->find("nt=50 nc=200 mapping=one-to-all layers=3"),
            std::string::npos);
}

TEST_F(CampaignRunnerTest, CheckpointHookThrowingMidChunkKeepsCountsExact) {
  // A hook that throws in the middle of a sharded chunk (interval 3, crash
  // after the 4th durable point — one point into the second chunk) must
  // leave the store holding exactly the checkpointed points: nothing from
  // the chunk's in-flight remainder, nothing lost.
  const auto spec = tiny_sweep();

  CampaignOptions reference_options;
  reference_options.store_dir = store("reference");
  CampaignRunner reference{spec, reference_options};
  reference.run();

  CampaignOptions crash_options;
  crash_options.store_dir = store("crashed");
  crash_options.checkpoint_interval = 3;
  crash_options.checkpoint_hook = [](int completed) {
    if (completed == 4) throw std::runtime_error("mid-chunk crash");
  };
  EXPECT_THROW((CampaignRunner{spec, crash_options}.run()),
               std::runtime_error);

  CampaignOptions resume_options;
  resume_options.store_dir = store("crashed");
  const auto after = CampaignRunner{spec, resume_options}.status();
  EXPECT_EQ(after.cached, 4);  // the durable prefix, nothing else
  EXPECT_EQ(after.quarantined, 0);
  EXPECT_TRUE(std::none_of(
      after.points.begin(), after.points.end(),
      [](const PointStatus& p) { return p.quarantined; }));

  // Resume recomputes only the in-flight remainder, and the merged bytes
  // match an uninterrupted run.
  CampaignRunner resumed{spec, resume_options};
  const auto report = resumed.run();
  EXPECT_EQ(report.cached, 4);
  EXPECT_EQ(report.computed, 4);
  EXPECT_TRUE(report.complete());
  EXPECT_TRUE(report.settled());
  EXPECT_EQ(resumed.sweep_csv(), reference.sweep_csv());
}

TEST_F(CampaignRunnerTest, FiguresModeResumesAcrossFigures) {
  experiments::Params params;
  params.mc_trials = 0;
  auto spec = suite_spec(params, 0);
  spec.figures = {"fig4a", "fig8b"};

  CampaignOptions crash_options;
  crash_options.store_dir = store("s");
  crash_options.checkpoint_hook = [](int completed) {
    if (completed == 1) throw std::runtime_error("simulated crash");
  };
  EXPECT_THROW((CampaignRunner{spec, crash_options}.run()),
               std::runtime_error);

  CampaignOptions resume_options;
  resume_options.store_dir = store("s");
  CampaignRunner resumed{spec, resume_options};
  const auto report = resumed.run();
  EXPECT_EQ(report.cached, 1);
  EXPECT_EQ(report.computed, 1);
  EXPECT_EQ(resumed.figure_csv("fig8b"),
            experiments::fig8b(params).table.to_csv());
}

}  // namespace
}  // namespace sos::campaign
