// `sos_campaign run --supervised` parity and options. The supervised
// spelling is a RemoteWorkerPool of forked loopback workers at the pool's
// default liveness settings (heartbeats, shard size, per-point deadline);
// these tests pin that configuration: it must be byte-identical to the
// in-process CampaignRunner on the same spec (the workers run the exact
// same unit of work) at any worker count, serve the same warm cache,
// resume from in-process checkpoints, match the legacy figure generator,
// and validate its options with the repo's "(accepted:)" error style.
#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <stdexcept>
#include <string>
#include <vector>

#include "campaign/registry.h"
#include "campaign/remote_pool.h"
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

/// What `run --supervised` builds: pool defaults, with a short backoff.
RemotePoolOptions supervised_options(const std::string& store_dir) {
  RemotePoolOptions options;
  options.store_dir = store_dir;
  options.retry.backoff_base_s = 0.01;
  options.retry.backoff_max_s = 0.1;
  return options;
}

class SupervisorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Pid-unique (see chaos_test.cpp: discovered + aggregate ctest entries
    // may run the same body in parallel).
    root_ = fs::temp_directory_path() /
            ("sos_supervised_pool_test_" + std::to_string(::getpid()) + "_" +
             std::string(::testing::UnitTest::GetInstance()
                             ->current_test_info()
                             ->name()));
    fs::remove_all(root_);
  }
  void TearDown() override { fs::remove_all(root_); }

  std::string store(const std::string& name) const {
    return (root_ / name).string();
  }

  /// Reference output from an in-process run of `spec`.
  std::string reference_csv(const ScenarioSpec& spec) {
    CampaignOptions options;
    options.store_dir = store("reference");
    CampaignRunner runner{spec, options};
    runner.run();
    return runner.sweep_csv();
  }

  fs::path root_;
};

TEST_F(SupervisorTest, SupervisedRunIsBitIdenticalToInProcess) {
  const auto spec = tiny_sweep();
  RemoteWorkerPool pool{spec, supervised_options(store("s"))};
  const auto report = pool.run();
  EXPECT_EQ(report.total, 8);
  EXPECT_EQ(report.computed, 8);
  EXPECT_EQ(report.retried, 0);
  EXPECT_TRUE(report.complete());
  EXPECT_TRUE(report.settled());
  EXPECT_FALSE(report.degraded());
  EXPECT_EQ(pool.runner().sweep_csv(), reference_csv(spec));
}

TEST_F(SupervisorTest, ShardingAcrossManyWorkersDoesNotChangeBytes) {
  const auto spec = tiny_sweep();
  const auto reference = reference_csv(spec);
  for (const int workers : {1, 4}) {
    auto options = supervised_options(store("w" + std::to_string(workers)));
    options.local_workers = workers;
    options.points_per_assign = 2;
    RemoteWorkerPool pool{spec, options};
    const auto report = pool.run();
    EXPECT_TRUE(report.complete());
    EXPECT_EQ(pool.runner().sweep_csv(), reference) << "workers=" << workers;
  }
}

TEST_F(SupervisorTest, WarmRerunServesEveryPointFromCache) {
  const auto spec = tiny_sweep();
  RemoteWorkerPool{spec, supervised_options(store("s"))}.run();
  RemoteWorkerPool warm{spec, supervised_options(store("s"))};
  const auto report = warm.run();
  EXPECT_EQ(report.cached, 8);
  EXPECT_EQ(report.computed, 0);
  EXPECT_TRUE(report.complete());
}

TEST_F(SupervisorTest, SupervisedResumesFromInProcessCheckpoints) {
  // Stores are interchangeable across execution modes: an in-process run
  // interrupted after 3 checkpoints resumes on the loopback pool, and only
  // the unfinished points are recomputed.
  const auto spec = tiny_sweep();
  const auto reference = reference_csv(spec);

  CampaignOptions crash_options;
  crash_options.store_dir = store("s");
  crash_options.checkpoint_interval = 2;
  crash_options.checkpoint_hook = [](int completed) {
    if (completed == 3) throw std::runtime_error("simulated crash");
  };
  EXPECT_THROW((CampaignRunner{spec, crash_options}.run()),
               std::runtime_error);

  RemoteWorkerPool resumed{spec, supervised_options(store("s"))};
  const auto report = resumed.run();
  EXPECT_EQ(report.cached, 3);
  EXPECT_EQ(report.computed, 5);
  EXPECT_TRUE(report.complete());
  EXPECT_EQ(resumed.runner().sweep_csv(), reference);
}

TEST_F(SupervisorTest, CheckpointHookSeesEveryComputedPointInOrder) {
  std::vector<int> counts;
  auto options = supervised_options(store("s"));
  options.checkpoint_hook = [&counts](int completed) {
    counts.push_back(completed);
  };
  RemoteWorkerPool{tiny_sweep(), options}.run();
  const std::vector<int> expected{1, 2, 3, 4, 5, 6, 7, 8};
  EXPECT_EQ(counts, expected);
}

TEST_F(SupervisorTest, FigureCampaignSupervisedMatchesTheLegacyGenerator) {
  experiments::Params params;
  params.mc_trials = 0;
  RemoteWorkerPool pool{figure_spec("fig4a", params, 0),
                        supervised_options(store("fig"))};
  const auto report = pool.run();
  EXPECT_EQ(report.computed, 1);
  EXPECT_EQ(pool.runner().figure_csv("fig4a"),
            experiments::fig4a(params).table.to_csv());
}

TEST_F(SupervisorTest, OptionsValidateRejectsNonsense) {
  const auto spec = tiny_sweep();
  auto bad_workers = supervised_options(store("s"));
  bad_workers.local_workers = -1;
  EXPECT_THROW((RemoteWorkerPool{spec, bad_workers}), std::invalid_argument);

  // The per-point deadline keeps its "(accepted: > 0 seconds)" contract.
  for (const double deadline : {0.0, -1.0}) {
    auto bad_deadline = supervised_options(store("s"));
    bad_deadline.point_deadline_s = deadline;
    try {
      RemoteWorkerPool pool{spec, bad_deadline};
      ADD_FAILURE() << "deadline " << deadline << " accepted";
    } catch (const std::invalid_argument& error) {
      EXPECT_NE(std::string(error.what()).find("point_deadline_s"),
                std::string::npos);
      EXPECT_NE(std::string(error.what()).find("(accepted: > 0 seconds)"),
                std::string::npos);
    }
  }

  auto bad_retries = supervised_options(store("s"));
  bad_retries.retry.max_retries = -1;
  EXPECT_THROW((RemoteWorkerPool{spec, bad_retries}), std::invalid_argument);

  auto bad_chaos = supervised_options(store("s"));
  bad_chaos.chaos.sigkill = 1.5;
  EXPECT_THROW((RemoteWorkerPool{spec, bad_chaos}), std::invalid_argument);

  auto bad_fires = supervised_options(store("s"));
  bad_fires.chaos.max_fires_per_point = -1;
  EXPECT_THROW((RemoteWorkerPool{spec, bad_fires}), std::invalid_argument);
}

TEST_F(SupervisorTest, InertChaosConfigIsDisabled) {
  ChaosConfig chaos;
  EXPECT_FALSE(chaos.enabled());
  chaos.truncate = 0.5;
  EXPECT_TRUE(chaos.enabled());
}

}  // namespace
}  // namespace sos::campaign
