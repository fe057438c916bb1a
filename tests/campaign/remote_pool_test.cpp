// RemoteWorkerPool end-to-end: a distributed campaign over TCP workers
// must produce a store byte-identical to the in-process CampaignRunner on
// the same spec, at any worker count and shard size; serve warm caches;
// resume checkpoints across executors; register external workers
// (run_remote_worker driven from a thread, exactly what `sos_campaign
// serve` runs); evict a worker that heartbeats but never delivers once its
// point deadline passes; settle promptly whatever the heartbeat interval;
// and fail with FleetUnreachableError — never a hang — when no worker ever
// shows up.
//
// Thread-worker caution: CampaignRunner's point computation fans out over
// ThreadPool::shared(), which must be owned by one caller at a time — so
// tests drive at most ONE in-process worker thread, and multi-worker
// fleets use the pool's forked loopback children.
#include "campaign/remote_pool.h"

#include <gtest/gtest.h>

#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "campaign/remote_protocol.h"
#include "common/mac.h"
#include "common/proc.h"

namespace sos::campaign {
namespace {

namespace fs = std::filesystem;

/// Small sweep: 2 x 2 x 2 x 1 = 8 points with a light Monte Carlo overlay
/// (the same grid the supervised and chaos tests pin).
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

RemotePoolOptions fast_options(const std::string& store_dir) {
  RemotePoolOptions options;
  options.store_dir = store_dir;
  options.heartbeat_interval_s = 0.02;
  options.heartbeat_timeout_s = 1.0;
  options.registration_timeout_s = 10.0;
  options.retry.backoff_base_s = 0.01;
  options.retry.backoff_max_s = 0.1;
  return options;
}

class RemotePoolTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = fs::temp_directory_path() /
            ("sos_remote_pool_test_" + std::to_string(::getpid()) + "_" +
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

  /// Sorted (digest, object bytes) inventory — the bit-identity witness.
  std::vector<std::pair<std::string, std::string>> store_objects(
      const std::string& dir) {
    ResultStore result_store{dir};
    std::vector<std::pair<std::string, std::string>> objects;
    for (auto digest : result_store.object_digests()) {
      auto bytes = result_store.load(digest);
      objects.emplace_back(std::move(digest), bytes ? *bytes : "<invalid>");
    }
    std::sort(objects.begin(), objects.end());
    return objects;
  }

  fs::path root_;
};

TEST_F(RemotePoolTest, DistributedRunIsBitIdenticalToInProcess) {
  const auto spec = tiny_sweep();
  const auto reference = reference_csv(spec);

  auto options = fast_options(store("dist"));
  options.local_workers = 3;
  options.points_per_assign = 2;
  RemoteWorkerPool pool{spec, options};
  const auto report = pool.run();

  EXPECT_EQ(report.total, 8);
  EXPECT_EQ(report.computed, 8);
  EXPECT_EQ(report.retried, 0);
  EXPECT_TRUE(report.complete());
  EXPECT_FALSE(report.degraded());
  EXPECT_EQ(pool.runner().sweep_csv(), reference);
  EXPECT_EQ(store_objects(store("dist")), store_objects(store("reference")));
}

TEST_F(RemotePoolTest, EveryExecutorProducesTheSameStoreBytes) {
  // The non-negotiable invariant: the in-process runner and a fleet of 1,
  // 2 or 8 forked loopback workers, handed 1 or 8 points per assignment,
  // all converge to identical objects.
  const auto spec = tiny_sweep();
  reference_csv(spec);  // in-process -> store("reference")
  const auto reference = store_objects(store("reference"));

  for (const int workers : {1, 2, 8}) {
    for (const int per_assign : {1, 8}) {
      const std::string name = "dist_" + std::to_string(workers) + "x" +
                               std::to_string(per_assign);
      auto options = fast_options(store(name));
      options.local_workers = workers;
      options.points_per_assign = per_assign;
      const auto report = RemoteWorkerPool{spec, options}.run();
      EXPECT_TRUE(report.complete()) << name;
      EXPECT_EQ(store_objects(store(name)), reference) << name;
    }
  }
}

TEST_F(RemotePoolTest, WarmRerunServesEveryPointFromCache) {
  const auto spec = tiny_sweep();
  auto options = fast_options(store("s"));
  options.local_workers = 2;
  RemoteWorkerPool{spec, options}.run();

  RemoteWorkerPool warm{spec, fast_options(store("s"))};
  const auto report = warm.run();
  EXPECT_EQ(report.cached, 8);
  EXPECT_EQ(report.computed, 0);
  EXPECT_TRUE(report.complete());
}

TEST_F(RemotePoolTest, ResumesFromInProcessCheckpoints) {
  // Stores are interchangeable across every executor: an in-process run
  // interrupted after 3 checkpoints finishes under the TCP pool, and only
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

  auto options = fast_options(store("s"));
  options.local_workers = 2;
  RemoteWorkerPool resumed{spec, options};
  const auto report = resumed.run();
  EXPECT_EQ(report.cached, 3);
  EXPECT_EQ(report.computed, 5);
  EXPECT_TRUE(report.complete());
  EXPECT_EQ(resumed.runner().sweep_csv(), reference);
}

TEST_F(RemotePoolTest, ExternalWorkerRegistersAndComputesEverything) {
  // No local children at all: one external worker — run_remote_worker on
  // a thread, the exact `sos_campaign serve` body — joins over TCP and
  // carries the whole campaign.
  const auto spec = tiny_sweep();
  const auto reference = reference_csv(spec);

  auto options = fast_options(store("ext"));
  options.local_workers = 0;
  RemoteWorkerPool pool{spec, options};

  RemoteWorkerConfig worker;
  worker.port = pool.port();
  worker.heartbeat_interval_s = 0.02;
  int worker_exit = -1;
  std::thread serve([&]() { worker_exit = run_remote_worker(worker); });

  const auto report = pool.run();
  serve.join();
  EXPECT_EQ(worker_exit, 0);  // clean SHUTDOWN
  EXPECT_EQ(report.computed, 8);
  EXPECT_TRUE(report.complete());
  EXPECT_EQ(pool.runner().sweep_csv(), reference);
  EXPECT_EQ(store_objects(store("ext")), store_objects(store("reference")));
}

TEST_F(RemotePoolTest, CheckpointHookSeesEveryComputedPointInOrder) {
  std::vector<int> counts;
  auto options = fast_options(store("s"));
  options.local_workers = 1;
  options.checkpoint_hook = [&counts](int completed) {
    counts.push_back(completed);
  };
  RemoteWorkerPool{tiny_sweep(), options}.run();
  const std::vector<int> expected{1, 2, 3, 4, 5, 6, 7, 8};
  EXPECT_EQ(counts, expected);
}

/// A peer that registers under the default key, heartbeats, accepts one
/// ASSIGN and never answers it: a worker whose compute livelocked while
/// its heartbeat thread kept beating. Runs until the coordinator closes
/// the connection (or a 30 s backstop).
struct LivelockedPeer {
  bool assigned = false;
  int beats_after_assign = 0;  // heartbeats sent while holding the shard
  double held_s = 0.0;         // ASSIGN received -> connection closed
};

LivelockedPeer run_livelocked_peer(std::uint16_t port, double beat_s) {
  using Clock = std::chrono::steady_clock;
  LivelockedPeer peer;
  auto sock = common::Socket::connect_ipv4("127.0.0.1", port);
  if (!sock) return peer;
  const common::MacKey base_key = load_base_key("");
  Hello hello;
  hello.pid = static_cast<std::uint64_t>(::getpid());  // never a child's
  hello.challenge = 0x11fe10c4ULL;
  const common::MacKey session_key =
      common::derive_session_key(base_key, hello.challenge);
  if (!common::write_frame(sock->fd(),
                           seal_frame(encode_hello(hello), base_key)))
    return peer;

  const auto beat_every = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(beat_s));
  const auto give_up = Clock::now() + std::chrono::seconds(30);
  auto next_beat = Clock::now();
  Clock::time_point assigned_at;
  common::FrameBuffer frames;
  char buffer[4096];
  while (Clock::now() < give_up) {
    if (Clock::now() >= next_beat) {
      (void)common::write_frame(sock->fd(),
                                seal_frame(encode_heartbeat(), session_key));
      if (peer.assigned) ++peer.beats_after_assign;
      next_beat += beat_every;
    }
    ::pollfd waiter{sock->fd(), POLLIN, 0};
    if (::poll(&waiter, 1, /*timeout_ms=*/5) <= 0) continue;
    const long n = sock->read_some(buffer, sizeof(buffer));
    if (n == -1) continue;
    if (n <= 0) break;  // the coordinator closed us: evicted
    frames.feed(buffer, static_cast<std::size_t>(n));
    while (auto raw = frames.next_frame()) {
      const auto frame = open_frame(*raw, session_key);
      if (frame && message_type(*frame) == MessageType::kAssign &&
          !peer.assigned) {
        peer.assigned = true;
        assigned_at = Clock::now();
      }
    }
  }
  if (peer.assigned)
    peer.held_s =
        std::chrono::duration<double>(Clock::now() - assigned_at).count();
  return peer;
}

TEST_F(RemotePoolTest, LivelockedWorkerIsEvictedAtThePointDeadline) {
  // Heartbeats keep the livelocked peer far from the silence threshold;
  // only the per-point deadline (never re-armed by a heartbeat) can take
  // its shard back. The loopback worker then finishes the point.
  const auto spec = tiny_sweep();
  reference_csv(spec);

  auto options = fast_options(store("livelock"));
  options.local_workers = 1;
  options.points_per_assign = 1;
  options.heartbeat_timeout_s = 30.0;
  options.point_deadline_s = 0.5;
  RemoteWorkerPool pool{spec, options};

  // Connected (and its HELLO buffered) before run() forks the loopback
  // worker, so the peer registers first and is handed a point.
  LivelockedPeer peer;
  std::thread livelocked(
      [&]() { peer = run_livelocked_peer(pool.port(), 0.02); });

  testing::internal::CaptureStderr();
  const auto report = pool.run();
  const std::string log = testing::internal::GetCapturedStderr();
  livelocked.join();

  ASSERT_TRUE(peer.assigned);
  EXPECT_GE(peer.held_s, options.point_deadline_s);
  EXPECT_LT(peer.held_s, options.heartbeat_timeout_s);
  EXPECT_GT(peer.beats_after_assign, 10);  // it was never silent
  EXPECT_NE(log.find("deadline 0.50s exceeded"), std::string::npos) << log;
  EXPECT_TRUE(report.complete());
  EXPECT_EQ(report.retried, 1);  // the held point, charged once
  EXPECT_EQ(store_objects(store("livelock")),
            store_objects(store("reference")));
}

TEST_F(RemotePoolTest, SettlesPromptlyWhateverTheHeartbeatInterval) {
  // Teardown must not wait out a worker's heartbeat sleep: with beats a
  // second apart, a small loopback campaign still settles well inside one
  // interval.
  auto options = fast_options(store("slow_beats"));
  options.local_workers = 2;
  options.heartbeat_interval_s = 1.0;
  options.heartbeat_timeout_s = 3.0;
  RemoteWorkerPool pool{tiny_sweep(), options};
  const auto start = std::chrono::steady_clock::now();
  const auto report = pool.run();
  const double settle_s = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - start)
                              .count();
  EXPECT_TRUE(report.complete());
  EXPECT_LT(settle_s, 0.5);
}

TEST_F(RemotePoolTest, EmptyFleetThrowsFleetUnreachable) {
  auto options = fast_options(store("s"));
  options.local_workers = 0;
  options.registration_timeout_s = 0.3;
  RemoteWorkerPool pool{tiny_sweep(), options};
  EXPECT_THROW(pool.run(), FleetUnreachableError);
}

TEST_F(RemotePoolTest, WorkerWithNoCoordinatorExitsFleetUnreachable) {
  // Bind-then-rebind guarantees a dead port; connect must give up with
  // the documented exit code, not spin forever.
  auto dead_port_probe = common::Listener::bind_loopback();
  const auto dead_port = dead_port_probe.port();
  dead_port_probe = common::Listener::bind_loopback();

  RemoteWorkerConfig worker;
  worker.port = dead_port;
  worker.connect_timeout_s = 0.2;
  EXPECT_EQ(run_remote_worker(worker), kExitFleetUnreachable);
  EXPECT_EQ(kExitFleetUnreachable, 4);  // the CLI contract pins the value
}

TEST_F(RemotePoolTest, PortIsKnownBeforeRun) {
  RemoteWorkerPool pool{tiny_sweep(), fast_options(store("s"))};
  EXPECT_GT(pool.port(), 0);
}

TEST_F(RemotePoolTest, OptionsValidateRejectsNonsense) {
  const auto spec = tiny_sweep();

  auto bad_workers = fast_options(store("s"));
  bad_workers.local_workers = -1;
  EXPECT_THROW((RemoteWorkerPool{spec, bad_workers}), std::invalid_argument);

  auto bad_assign = fast_options(store("s"));
  bad_assign.points_per_assign = 0;
  EXPECT_THROW((RemoteWorkerPool{spec, bad_assign}), std::invalid_argument);

  auto bad_beat = fast_options(store("s"));
  bad_beat.heartbeat_interval_s = 0.0;
  EXPECT_THROW((RemoteWorkerPool{spec, bad_beat}), std::invalid_argument);

  auto bad_timeout = fast_options(store("s"));
  bad_timeout.heartbeat_timeout_s = bad_timeout.heartbeat_interval_s / 2;
  EXPECT_THROW((RemoteWorkerPool{spec, bad_timeout}), std::invalid_argument);

  auto bad_deadline = fast_options(store("s"));
  bad_deadline.point_deadline_s = 0.0;
  EXPECT_THROW((RemoteWorkerPool{spec, bad_deadline}), std::invalid_argument);

  auto bad_registration = fast_options(store("s"));
  bad_registration.registration_timeout_s = 0.0;
  EXPECT_THROW((RemoteWorkerPool{spec, bad_registration}),
               std::invalid_argument);

  auto bad_retry = fast_options(store("s"));
  bad_retry.retry.max_retries = -1;
  EXPECT_THROW((RemoteWorkerPool{spec, bad_retry}), std::invalid_argument);

  auto bad_chaos = fast_options(store("s"));
  bad_chaos.chaos.net_drop = 1.5;
  EXPECT_THROW((RemoteWorkerPool{spec, bad_chaos}), std::invalid_argument);

  auto bad_partition = fast_options(store("s"));
  bad_partition.chaos.net_partition_s = 0.0;
  EXPECT_THROW((RemoteWorkerPool{spec, bad_partition}),
               std::invalid_argument);
}

}  // namespace
}  // namespace sos::campaign
