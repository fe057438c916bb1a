// Chaos harness: seeded worker-process fault schedules (SIGKILL, SIGSTOP
// hangs, bogus exit codes, torn frames) driven through the loopback
// RemoteWorkerPool that `run --supervised` uses. Every schedule must
// converge to a settled report — each point computed or formally
// quarantined — with zero lost checkpoints: whatever completes is
// byte-identical to an undisturbed run. (The network fault families live
// in distributed_chaos_test.cpp.)
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "campaign/remote_pool.h"

namespace sos::campaign {
namespace {

namespace fs = std::filesystem;

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

class ChaosTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Pid-unique root: ctest runs these bodies twice in parallel (the
    // discovered test and the `-L chaos` aggregate), and two processes
    // sharing a root would race remove_all against store writes.
    root_ = fs::temp_directory_path() /
            ("sos_chaos_test_" + std::to_string(::getpid()) + "_" +
             std::string(::testing::UnitTest::GetInstance()
                             ->current_test_info()
                             ->name()));
    fs::remove_all(root_);
  }
  void TearDown() override { fs::remove_all(root_); }

  std::string store(const std::string& name) const {
    return (root_ / name).string();
  }

  RemotePoolOptions chaos_options(const std::string& store_dir) const {
    RemotePoolOptions options;
    options.store_dir = store_dir;
    options.local_workers = 2;
    options.points_per_assign = 4;
    options.point_deadline_s = 30.0;
    options.retry.backoff_base_s = 0.005;
    options.retry.backoff_max_s = 0.05;
    return options;
  }

  std::string reference_csv(const ScenarioSpec& spec) {
    CampaignOptions options;
    options.store_dir = store("reference");
    CampaignRunner runner{spec, options};
    runner.run();
    return runner.sweep_csv();
  }

  fs::path root_;
};

TEST_F(ChaosTest, CertainSigkillOnFirstAttemptRetriesToCompletion) {
  // Every point's first attempt dies under SIGKILL (max_fires_per_point=1
  // guarantees the retry computes). The campaign must complete with the
  // reference bytes — a worker death between checkpoints loses nothing.
  const auto spec = tiny_sweep();
  auto options = chaos_options(store("s"));
  options.chaos.sigkill = 1.0;
  RemoteWorkerPool pool{spec, options};
  const auto report = pool.run();
  EXPECT_TRUE(report.complete());
  EXPECT_TRUE(report.settled());
  EXPECT_EQ(report.quarantined, 0);
  EXPECT_GE(report.retried, 1);
  EXPECT_EQ(pool.runner().sweep_csv(), reference_csv(spec));
}

TEST_F(ChaosTest, CertainBadExitRetriesToCompletion) {
  const auto spec = tiny_sweep();
  auto options = chaos_options(store("s"));
  options.chaos.bad_exit = 1.0;
  RemoteWorkerPool pool{spec, options};
  const auto report = pool.run();
  EXPECT_TRUE(report.complete());
  EXPECT_EQ(report.quarantined, 0);
  EXPECT_EQ(pool.runner().sweep_csv(), reference_csv(spec));
}

TEST_F(ChaosTest, TornFrameFromALyingWorkerIsNeverCheckpointed) {
  // The truncate fault writes half a result frame and exits 0 — a worker
  // that *lies*. The coordinator must detect the torn frame, never store
  // it, and recompute the point to the correct bytes.
  const auto spec = tiny_sweep();
  auto options = chaos_options(store("s"));
  options.chaos.truncate = 1.0;
  RemoteWorkerPool pool{spec, options};
  const auto report = pool.run();
  EXPECT_TRUE(report.complete());
  EXPECT_EQ(report.quarantined, 0);
  EXPECT_EQ(pool.runner().sweep_csv(), reference_csv(spec));
}

TEST_F(ChaosTest, HungWorkerIsKilledAtTheDeadlineAndThePointRetried) {
  // SIGSTOP is the nastiest fault: the worker is alive but frozen. With
  // the heartbeat-silence threshold far away, only the per-point deadline
  // can detect it (SIGKILL terminates even a stopped process).
  const auto spec = tiny_sweep();
  auto options = chaos_options(store("s"));
  options.chaos.hang = 1.0;
  options.point_deadline_s = 0.2;
  options.heartbeat_timeout_s = 60.0;
  RemoteWorkerPool pool{spec, options};
  const auto report = pool.run();
  EXPECT_TRUE(report.complete());
  EXPECT_EQ(report.quarantined, 0);
  EXPECT_EQ(pool.runner().sweep_csv(), reference_csv(spec));
}

TEST_F(ChaosTest, UnlimitedFaultsDriveEveryPointIntoQuarantine) {
  // max_fires_per_point = 0: the fault fires on every attempt, so every
  // point exhausts its retries. The campaign must still terminate —
  // settled and degraded, each point carrying a typed failure record (the
  // local child's exit status) — instead of looping or dying.
  const auto spec = tiny_sweep();
  auto options = chaos_options(store("s"));
  options.chaos.bad_exit = 1.0;
  options.chaos.max_fires_per_point = 0;
  options.retry.max_retries = 2;
  RemoteWorkerPool pool{spec, options};
  const auto report = pool.run();
  EXPECT_EQ(report.computed, 0);
  EXPECT_EQ(report.quarantined, 8);
  EXPECT_TRUE(report.settled());
  EXPECT_TRUE(report.degraded());
  EXPECT_FALSE(report.complete());
  ASSERT_EQ(report.failures.size(), 8u);
  for (const auto& failure : report.failures) {
    EXPECT_EQ(failure.attempts, 3);  // 1 + max_retries
    EXPECT_EQ(failure.reason, "exit 41");
  }

  // Degraded output assembly: the sweep CSV still has one row per point,
  // with NA result columns for the quarantined ones.
  const auto csv = pool.runner().sweep_csv();
  EXPECT_NE(csv.find(",NA"), std::string::npos);
  const auto reference = reference_csv(spec);
  EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'),
            std::count(reference.begin(), reference.end(), '\n'));
}

TEST_F(ChaosTest, RerunAfterQuarantineRecoversThePoints) {
  // Quarantine is advice, not a tombstone: a later run (here with chaos
  // off — "the bug got fixed") treats quarantined points as pending,
  // computes them, and clears the records.
  const auto spec = tiny_sweep();
  auto broken = chaos_options(store("s"));
  broken.chaos.sigkill = 1.0;
  broken.chaos.max_fires_per_point = 0;
  broken.retry.max_retries = 1;
  const auto degraded = RemoteWorkerPool{spec, broken}.run();
  ASSERT_TRUE(degraded.degraded());

  RemoteWorkerPool fixed{spec, chaos_options(store("s"))};
  const auto report = fixed.run();
  EXPECT_TRUE(report.complete());
  EXPECT_EQ(report.quarantined, 0);
  EXPECT_EQ(report.computed, 8);
  EXPECT_EQ(fixed.runner().sweep_csv(), reference_csv(spec));
}

TEST_F(ChaosTest, MixedFaultMixConvergesAcrossSeeds) {
  // A cocktail of all four faults at once, replayed over several seeds:
  // every schedule must settle with no lost checkpoints. Completed points
  // always carry reference bytes (quarantine is allowed; corruption is
  // not).
  const auto spec = tiny_sweep();
  const auto reference = reference_csv(spec);
  for (const std::uint64_t seed : {11ull, 12ull, 13ull}) {
    auto options = chaos_options(store("seed" + std::to_string(seed)));
    options.chaos.seed = seed;
    options.chaos.sigkill = 0.25;
    options.chaos.hang = 0.15;
    options.chaos.bad_exit = 0.25;
    options.chaos.truncate = 0.25;
    options.point_deadline_s = 0.2;
    RemoteWorkerPool pool{spec, options};
    const auto report = pool.run();
    EXPECT_TRUE(report.settled()) << "seed " << seed;
    EXPECT_TRUE(report.complete()) << "seed " << seed;  // max_fires=1
    EXPECT_EQ(pool.runner().sweep_csv(), reference)
        << "seed " << seed;
  }
}

TEST_F(ChaosTest, SameSeedReplaysTheSameSchedule) {
  const auto spec = tiny_sweep();
  std::vector<int> retried;
  for (const auto& name : {"a", "b"}) {
    auto options = chaos_options(store(name));
    options.chaos.seed = 99;
    options.chaos.sigkill = 0.5;
    options.chaos.bad_exit = 0.5;
    const auto report = RemoteWorkerPool{spec, options}.run();
    EXPECT_TRUE(report.complete());
    retried.push_back(report.retried);
  }
  EXPECT_EQ(retried[0], retried[1]);  // the schedule is the seed's
}

}  // namespace
}  // namespace sos::campaign
