// Internal trial-execution machinery shared by run_monte_carlo, the
// sim::sampling estimators and the SweepRunner. Not part of the public API
// surface — include sim/monte_carlo.h, sim/sampling.h or sim/sweep.h instead.
//
// The contract that makes thread count irrelevant to the result: every trial
// derives its RNG streams from a seed its caller computes from (config seed,
// trial index) alone, writes its measurements into a trial-indexed slot, and
// the slots are reduced in trial order on one thread afterwards. Workers only
// ever share read-only state.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "sim/monte_carlo.h"

namespace sos::sim::internal {

/// One trial's footprint, written by exactly one worker.
struct TrialRecord {
  double success_rate = 0.0;
  int broken = 0;
  int broken_sos = 0;
  int congested = 0;
  int congested_sos = 0;
  int congested_filters = 0;
  int disclosed = 0;
  int delivered = 0;
};

/// Per-worker reusable state. The overlay persists across trials (and across
/// sweep points of the same design) and is rebuilt in place, which is what
/// makes the steady-state trial loop allocation-free.
struct TrialContext {
  std::optional<sosnet::SosOverlay> overlay;
  const core::SosDesign* built_from = nullptr;  // identity of overlay's design
  sosnet::TopologyWorkspace workspace;
  sosnet::WalkResult walk;
  /// Walk hop slots of the worker's latest trial, for callers that reduce a
  /// trial as soon as it finishes instead of keeping trial-indexed slots.
  std::vector<std::int16_t> hops;
};

/// The seed of trial `trial` of a plain (unconditioned) run.
inline std::uint64_t trial_seed(std::uint64_t seed, int trial) {
  return seed ^ common::mix64(0x7261696c5ull + static_cast<std::uint64_t>(trial));
}

/// Executes one trial seeded by `trial_seed` into `record` and `hop_slots`
/// (one slot per walk; -1 = not delivered, otherwise the walk's layer-hop
/// count). The overlay is rebuilt from `trial_seed`; attack and walks draw
/// from one stream seeded with mix64(trial_seed).
void run_trial(const core::SosDesign& design, const AttackFn& attack,
               const MonteCarloConfig& config, std::uint64_t trial_seed,
               TrialContext& context, TrialRecord& record,
               std::int16_t* hop_slots);

/// Shards body(index, context) over [begin, end) on config's pool. Threads
/// resolve as config.threads (0 = every pool worker), clamped to the pool
/// size and the index count; one thread runs inline. Each scheduling unit is
/// a block of consecutive indices, so a worker's persistent overlay stays
/// cache-resident across the block. Contexts grow to the participant count
/// and persist across calls, so consecutive rounds reuse warm overlays.
/// Bodies must write only to index-owned slots, which keeps the result
/// independent of scheduling.
void parallel_indices(
    const MonteCarloConfig& config, int begin, int end,
    std::vector<TrialContext>& contexts,
    const std::function<void(int index, TrialContext& context)>& body);

/// Fixed-order reduction of the trial-indexed buffers; the add sequence per
/// statistic matches a sequential threads=1 run exactly.
MonteCarloResult reduce_in_trial_order(const MonteCarloConfig& config,
                                       const std::vector<TrialRecord>& records,
                                       const std::vector<std::int16_t>& hops);

}  // namespace sos::sim::internal
