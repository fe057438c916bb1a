// CampaignRunner — executes a ScenarioSpec against a ResultStore.
//
// run() expands the spec into scenario points, digests each one, skips the
// points whose result objects already exist (warm cache), computes the
// rest, and durably checkpoints every completed point via the store's
// atomic writes. A campaign killed at any instant (kill -9 included) loses
// at most the points that were in flight; re-running the same spec against
// the same store re-executes only the unfinished points and yields final
// outputs bit-identical to an uninterrupted run.
//
// Execution model per mode:
//   figures — points run sequentially on the caller's thread; each figure
//             generator internally fans out over ThreadPool::shared() (its
//             batches must own the pool — nesting a second parallel_for
//             would deadlock), and its output is already bit-identical at
//             any pool size.
//   sweep   — points are sharded across the pool in checkpoint_interval
//             chunks: the analytic column via a slot-per-point parallel_for
//             and the Monte Carlo overlay via sim::SweepRunner's
//             trial-indexed deterministic reduction, so results are
//             bit-identical for every worker count; completed chunks are
//             checkpointed point by point in expansion order.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "campaign/registry.h"
#include "campaign/result_store.h"
#include "campaign/scenario_spec.h"

namespace sos::common {
class ThreadPool;
}  // namespace sos::common

namespace sos::sim {
struct MonteCarloResult;
}  // namespace sos::sim

namespace sos::campaign {

struct CampaignOptions {
  std::string store_dir;

  /// Sweep-mode sharding pool; null = ThreadPool::shared(). Figures mode
  /// always uses the shared pool (inside the generators).
  common::ThreadPool* pool = nullptr;

  /// Sweep-mode points computed between checkpoints (figures mode
  /// checkpoints after every figure regardless).
  int checkpoint_interval = 16;

  /// Test/ops injection hook, invoked after each newly computed point has
  /// been durably stored, with the running count of computed points. A
  /// throwing hook aborts the campaign exactly as a crash would — the store
  /// keeps every checkpoint written so far — which is how the resume tests
  /// simulate kill -9 without leaving the process.
  std::function<void(int completed)> checkpoint_hook;
};

struct PointStatus {
  CampaignPoint point;
  std::string digest;
  bool done = false;
  bool quarantined = false;  // a PointFailure record exists and !done
};

struct CampaignReport {
  int total = 0;
  int cached = 0;    // points served from the store without recomputation
  int computed = 0;  // points computed and checkpointed by this run
  int retried = 0;   // out-of-process runs: point attempts beyond the first
  int quarantined = 0;  // points recorded as PointFailure, not computed
  std::vector<PointStatus> points;
  std::vector<PointFailure> failures;  // one per quarantined point

  bool complete() const noexcept { return cached + computed == total; }
  /// Every point is either done or formally quarantined — the terminal
  /// state an out-of-process run guarantees (degraded mode when quarantined>0).
  bool settled() const noexcept {
    return cached + computed + quarantined == total;
  }
  bool degraded() const noexcept { return quarantined > 0; }
};

class CampaignRunner {
 public:
  /// Validates and expands the spec eagerly; opens (creates) the store.
  CampaignRunner(ScenarioSpec spec, CampaignOptions options);

  const ScenarioSpec& spec() const noexcept { return spec_; }
  const ResultStore& store() const noexcept { return store_; }
  const std::vector<CampaignPoint>& points() const noexcept { return points_; }
  const std::string& digest(int index) const { return digests_.at(index); }

  /// The manifest text for this campaign (header + index/digest/key lines).
  std::string manifest_text() const;

  /// Cache inventory without computing anything.
  CampaignReport status() const;

  /// Writes the manifest, computes every pending point, checkpoints each
  /// one. Exceptions (including from the checkpoint hook) propagate after
  /// all completed points are durable. In-process runs ignore quarantine
  /// records: a previously quarantined point is simply pending and, once
  /// computed, its record is cleared.
  CampaignReport run();

  /// Computes one point's result bytes in-process, with no store
  /// interaction — the unit of work a RemoteWorkerPool worker (loopback
  /// child or remote serve process) executes. Bit-identical to what run() would checkpoint for the same
  /// point: figures mode invokes the registered generator; sweep mode is
  /// exactly the checkpoint_interval=1 chunk path (analytic column +
  /// optional SweepRunner Monte Carlo overlay with the trial-indexed
  /// deterministic reduction).
  std::string compute_point_bytes(int index) const;

  // --- Final outputs, assembled from the store (points must be done). ---

  /// Figures mode: the stored full rendering / extracted CSV of one figure.
  std::string figure_render(const std::string& figure_id) const;
  std::string figure_csv(const std::string& figure_id) const;

  /// Sweep mode: the campaign's CSV (header + one row per point, in
  /// expansion order). Quarantined points emit an NA row (axis values kept,
  /// every result column NA) so degraded campaigns still assemble without
  /// silently dropping rows; genuinely pending points still throw.
  std::string sweep_csv() const;

  /// Writes the campaign's final outputs under `results_dir` — figures
  /// mode: <bench_name>.txt + <bench_name>.csv per figure (what
  /// `sos_campaign run` and scripts/run_all.sh produce); sweep mode:
  /// <campaign>.csv. Returns the written paths.
  std::vector<std::string> write_outputs(const std::string& results_dir) const;

 private:
  std::string loaded(int index) const;  // store load or throw
  void run_figure_points(const std::vector<int>& pending, int& computed);
  void run_sweep_points(const std::vector<int>& pending, int& computed);
  /// True when sweep rows carry a Monte Carlo column block — a fixed trial
  /// count or an auto stopping rule.
  bool mc_enabled() const noexcept;
  /// One adaptive point: builds the spec's StoppingRule and runs the
  /// configured sim::sampling estimator (which parallelizes its trials over
  /// `pool` internally). Deterministic in (spec, point) alone, so cached,
  /// resumed, and out-of-process executions agree byte-for-byte.
  sim::MonteCarloResult run_auto_point(const CampaignPoint& point,
                                       common::ThreadPool& pool) const;
  double sweep_model_value(const CampaignPoint& point) const;
  std::string sweep_row(const CampaignPoint& point, double model,
                        const sim::MonteCarloResult* mc) const;
  std::string sweep_na_row(const CampaignPoint& point) const;
  std::vector<std::string> sweep_headers() const;

  ScenarioSpec spec_;
  CampaignOptions options_;
  ResultStore store_;
  std::vector<CampaignPoint> points_;
  std::vector<std::string> digests_;
};

}  // namespace sos::campaign
