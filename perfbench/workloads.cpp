// The four campaign workloads, run end to end through the public entry
// points (CampaignRunner, RemoteWorkerPool, OptimizeRunner) and, in a traced
// run, replayed through the public functions of every layer.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "attack/attack_outcome.h"
#include "attack/break_in.h"
#include "attack/congestion.h"
#include "attack/knowledge.h"
#include "attack/one_burst_attacker.h"
#include "attack/successive_attacker.h"
#include "bench.h"
#include "campaign/optimize_runner.h"
#include "campaign/remote_pool.h"
#include "campaign/runner.h"
#include "common/files.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/budget_frontier.h"
#include "core/design.h"
#include "core/one_burst_model.h"
#include "core/successive_model.h"
#include "optimize/optimize.h"
#include "sim/monte_carlo.h"
#include "sosnet/sos_overlay.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
namespace attack = sos::attack;
namespace campaign = sos::campaign;
namespace common = sos::common;
namespace core = sos::core;
namespace optimize = sos::optimize;
namespace sim = sos::sim;
namespace sosnet = sos::sosnet;
using campaign::CampaignPoint;
using campaign::ScenarioSpec;

enum class Kind { kInProcess, kDistributed, kOptimize };

struct CampaignDef {
  std::string name;
  std::string spec_path;
  Kind kind = Kind::kInProcess;
};

/// One campaign executed through its public entry point.
struct CampaignRun {
  double total_s = 0.0;
  double first_result_ms = 0.0;  // run() start -> first checkpoint hook
  double work_ms = 0.0;          // run() start -> last checkpoint hook
  double settle_ms = 0.0;        // last checkpoint hook -> run() return
  bool hooked = false;
  int total = 0;
  int done = 0;  // computed + cached points, or validated winners
  int computed = 0;
  int cached = 0;
  int retried = 0;
  int quarantined = 0;
  bool complete = false;
  bool optimize = false;
  long long trials = 0;
  std::map<std::string, std::string> outputs;  // file name -> bytes
  std::vector<optimize::EvaluatedDesign> frontier;
};

std::string path_join(const std::string& a, const std::string& b) {
  return (fs::path(a) / b).string();
}

std::vector<std::string> split(const std::string& text, char sep) {
  std::vector<std::string> out;
  std::string cell;
  for (const char c : text) {
    if (c == sep) {
      out.push_back(cell);
      cell.clear();
    } else {
      cell.push_back(c);
    }
  }
  out.push_back(cell);
  return out;
}

/// Rows of a sweep CSV as header-name -> cell maps (the campaign outputs
/// never quote: labels carry no commas).
std::vector<std::map<std::string, std::string>> csv_rows(
    const std::string& text) {
  std::vector<std::map<std::string, std::string>> rows;
  const std::vector<std::string> lines = split(text, '\n');
  const std::vector<std::string> header = split(lines[0], ',');
  for (std::size_t i = 1; i < lines.size(); ++i) {
    if (lines[i].empty()) continue;
    const std::vector<std::string> cells = split(lines[i], ',');
    std::map<std::string, std::string> row;
    for (std::size_t c = 0; c < header.size() && c < cells.size(); ++c)
      row[header[c]] = cells[c];
    rows.push_back(std::move(row));
  }
  return rows;
}

std::map<std::string, std::string> read_outputs(
    const std::vector<std::string>& paths) {
  std::map<std::string, std::string> out;
  for (const auto& path : paths)
    out[fs::path(path).filename().string()] =
        common::read_file(path).value_or("");
  return out;
}

/// Every object file of a store, digest -> raw container bytes.
std::map<std::string, std::string> store_objects(const std::string& dir) {
  std::map<std::string, std::string> out;
  if (!fs::exists(dir)) return out;
  const campaign::ResultStore store{dir};
  for (const auto& digest : store.object_digests())
    out[digest] = common::read_file(store.object_path(digest)).value_or("");
  return out;
}

double peak_rss_mb() {
  rusage self{}, children{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &children);
  return static_cast<double>(self.ru_maxrss + children.ru_maxrss) / 1024.0;
}

double cpu_seconds() {
  rusage self{}, children{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &children);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           1e-6 * static_cast<double>(tv.tv_usec);
  };
  return secs(self.ru_utime) + secs(self.ru_stime) +
         secs(children.ru_utime) + secs(children.ru_stime);
}

/// Stolen and total CPU time in jiffies, from the aggregate line of
/// /proc/stat; {-1, -1} when it cannot be read.
std::pair<long long, long long> cpu_jiffies() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  long long value = 0, steal = -1, total = 0;
  if (!(stat >> cpu) || cpu != "cpu") return {-1, -1};
  for (int field = 0; field < 8 && stat >> value; ++field) {
    total += value;
    if (field == 7) steal = value;
  }
  return steal < 0 ? std::pair<long long, long long>{-1, -1}
                   : std::pair<long long, long long>{steal, total};
}

std::string fixed(double value, int digits = 3) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.*f", digits, value);
  return buffer;
}

/// min/p10/p25/p50/p75/p90/max of `values`, for the human-readable lines.
std::string quantiles(std::vector<double> values) {
  if (values.empty()) return " n/a";
  std::sort(values.begin(), values.end());
  std::string out;
  for (const double q : {0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0}) {
    const auto at = static_cast<std::size_t>(
        q * static_cast<double>(values.size() - 1));
    out += ' ';
    out += fixed(values[at]);
  }
  return out;
}

double ms_between(std::int64_t from_ns, std::int64_t to_ns) {
  return static_cast<double>(to_ns - from_ns) * 1e-6;
}

// --- Campaign execution through the public entry points. ---

void fill_counts(CampaignRun& out, const campaign::CampaignReport& report) {
  out.total = report.total;
  out.computed = report.computed;
  out.cached = report.cached;
  out.done = report.computed + report.cached;
  out.retried = report.retried;
  out.quarantined = report.quarantined;
  out.complete = report.complete() && report.quarantined == 0;
}

long long sweep_trials(const ScenarioSpec& spec, const std::string& csv,
                       int computed) {
  if (!spec.auto_trials.enabled)
    return static_cast<long long>(computed) * std::max(spec.mc_trials, 0);
  long long total = 0;
  for (const auto& row : csv_rows(csv)) {
    const auto it = row.find("mc_trials_resolved");
    if (it != row.end() && it->second != "NA") total += std::stoll(it->second);
  }
  return total;
}

CampaignRun run_campaign(const CampaignDef& def, const std::string& store,
                         const std::string& results, int nproc) {
  CampaignRun out;
  std::int64_t first_hook = 0, last_hook = 0, run_start = 0, run_end = 0;
  const auto hook = [&](int) {
    const std::int64_t t = now_ns();
    if (first_hook == 0) first_hook = t;
    last_hook = t;
  };
  const std::int64_t start = now_ns();
  if (def.kind == Kind::kOptimize) {
    campaign::OptimizeOptions options;
    options.store_dir = store;
    campaign::OptimizeRunner runner{
        optimize::OptimizeSpec::parse_file(def.spec_path), options};
    run_start = now_ns();
    const auto report = runner.run();
    run_end = now_ns();
    out.optimize = true;
    out.total = static_cast<int>(report.winners.size());
    out.done = report.validated;
    out.computed = report.validated;
    out.quarantined = report.quarantined;
    for (const auto& winner : report.winners)
      out.retried += std::max(0, winner.attempts - 1);
    out.complete = report.complete() && out.done == out.total;
    out.trials = static_cast<long long>(report.validated) *
                 runner.spec().validate_trials;
    out.frontier = report.search.frontier;
    out.outputs = read_outputs(runner.write_outputs(report, results));
  } else if (def.kind == Kind::kDistributed) {
    campaign::RemotePoolOptions options;
    options.store_dir = store;
    options.local_workers = nproc;
    options.checkpoint_hook = hook;
    campaign::RemoteWorkerPool pool{ScenarioSpec::parse_file(def.spec_path),
                                    options};
    run_start = now_ns();
    const auto report = pool.run();
    run_end = now_ns();
    fill_counts(out, report);
    out.outputs = read_outputs(pool.runner().write_outputs(results));
    out.trials = sweep_trials(pool.runner().spec(),
                              out.outputs.begin()->second, out.computed);
  } else {
    campaign::CampaignOptions options;
    options.store_dir = store;
    options.checkpoint_hook = hook;
    campaign::CampaignRunner runner{ScenarioSpec::parse_file(def.spec_path),
                                    options};
    run_start = now_ns();
    const auto report = runner.run();
    run_end = now_ns();
    fill_counts(out, report);
    out.outputs = read_outputs(runner.write_outputs(results));
    out.trials = sweep_trials(runner.spec(), out.outputs.begin()->second,
                              out.computed);
  }
  out.total_s = seconds_since(start);
  if (first_hook != 0) {
    out.hooked = true;
    out.first_result_ms = ms_between(run_start, first_hook);
    out.work_ms = ms_between(run_start, last_hook);
    out.settle_ms = ms_between(last_hook, run_end);
  }
  return out;
}

/// The set-up calls of every campaign of the workload — spec parse and the
/// entry point's constructor (expansion, digesting, store open, listener
/// bind) — against empty stores under `dir`. Returns their summed wall time.
double setup_once(const std::vector<CampaignDef>& defs, const std::string& dir,
                  int nproc) {
  double total = 0.0;
  for (const auto& def : defs) {
    const std::string store = path_join(dir, def.name);
    const std::int64_t start = now_ns();
    if (def.kind == Kind::kOptimize) {
      campaign::OptimizeOptions options;
      options.store_dir = store;
      const campaign::OptimizeRunner runner{
          optimize::OptimizeSpec::parse_file(def.spec_path), options};
      total += seconds_since(start);
    } else if (def.kind == Kind::kDistributed) {
      campaign::RemotePoolOptions options;
      options.store_dir = store;
      options.local_workers = nproc;
      const campaign::RemoteWorkerPool pool{
          ScenarioSpec::parse_file(def.spec_path), options};
      total += seconds_since(start);
    } else {
      campaign::CampaignOptions options;
      options.store_dir = store;
      const campaign::CampaignRunner runner{
          ScenarioSpec::parse_file(def.spec_path), options};
      total += seconds_since(start);
    }
  }
  return total;
}

// --- Output checks. ---

/// Wilson half-width, the sequential stopping rule's interval.
double wilson_half(double p, double n, double z) {
  const double z2 = z * z;
  const double denom = 1.0 + z2 / n;
  const double center = (p + z2 / (2.0 * n)) / denom;
  const double half =
      z * std::sqrt(p * (1.0 - p) / n + z2 / (4.0 * n * n)) / denom;
  return (std::min(1.0, center + half) - std::max(0.0, center - half)) / 2.0;
}

/// Every auto-CI row either meets its half-width target or hit the trial
/// cap. P_S_mc is printed to four decimals, so the check takes the most
/// favourable value within that rounding.
void check_auto_ci(Run& run, const ScenarioSpec& spec,
                   const std::string& csv) {
  if (!spec.auto_trials.enabled) return;
  const double z = 1.96;  // sim::sampling::StoppingRule's default
  int missed = 0, capped = 0, rows = 0;
  for (const auto& row : csv_rows(csv)) {
    ++rows;
    const long long trials = std::stoll(row.at("mc_trials_resolved"));
    if (trials >= spec.auto_trials.max_trials) {
      ++capped;
      continue;
    }
    const double p = std::stod(row.at("P_S_mc"));
    const double n = static_cast<double>(trials) * spec.mc_walks;
    double best = 1.0;
    for (const double q : {p - 5e-5, p, p + 5e-5}) {
      const double clamped = std::clamp(q, 0.0, 1.0);
      const double target = spec.auto_trials.relative
                                ? spec.auto_trials.ci * clamped
                                : spec.auto_trials.ci;
      best = std::min(best, wilson_half(clamped, n, z) - target);
    }
    if (best > 1e-9) ++missed;
  }
  run.check(rows > 0 && missed == 0,
            spec.name + ": " + std::to_string(missed) +
                " auto-CI points miss their half-width target unflagged");
  if (capped > 0)
    run.note(spec.name + ": " + std::to_string(capped) +
             " auto-CI points flagged capped");
}

void check_non_dominated(
    Run& run, const std::vector<optimize::EvaluatedDesign>& frontier) {
  bool ok = !frontier.empty();
  for (const auto& a : frontier)
    for (const auto& b : frontier)
      if (&a != &b && optimize::dominates(a, b)) ok = false;
  run.check(ok, "design_study frontier is mutually non-dominated");
}

// --- Scenario helpers mirroring the sweep point semantics. ---

core::SosDesign sweep_design(const ScenarioSpec& spec,
                             const CampaignPoint& point) {
  return core::SosDesign::make(
      spec.total_overlay, spec.sos_nodes, point.layers, spec.filters,
      core::MappingPolicy::parse(point.mapping),
      core::NodeDistribution::parse(spec.distribution));
}

core::OneBurstAttack one_burst_attack(const ScenarioSpec& spec,
                                      const CampaignPoint& point) {
  return core::OneBurstAttack{point.break_in, point.congestion, spec.p_break};
}

core::SuccessiveAttack successive_attack(const ScenarioSpec& spec,
                                         const CampaignPoint& point) {
  core::SuccessiveAttack attack;
  attack.break_in_budget = point.break_in;
  attack.congestion_budget = point.congestion;
  attack.break_in_success = spec.p_break;
  attack.prior_knowledge = spec.prior_knowledge;
  attack.rounds = spec.rounds;
  return attack;
}

double model_value(const ScenarioSpec& spec, const CampaignPoint& point) {
  const auto design = sweep_design(spec, point);
  if (spec.successive())
    return core::SuccessiveModel::p_success(design,
                                            successive_attack(spec, point));
  return core::OneBurstModel::p_success(design, one_burst_attack(spec, point));
}

sim::AttackFn attack_fn(const ScenarioSpec& spec, const CampaignPoint& point) {
  if (spec.successive()) {
    const attack::SuccessiveAttacker attacker{successive_attack(spec, point)};
    return [attacker](sosnet::SosOverlay& overlay, common::Rng& rng) {
      return attacker.execute(overlay, rng);
    };
  }
  const attack::OneBurstAttacker attacker{one_burst_attack(spec, point)};
  return [attacker](sosnet::SosOverlay& overlay, common::Rng& rng) {
    return attacker.execute(overlay, rng);
  };
}

// --- Trial replay: one Monte Carlo trial recomposed from layer calls. ---

/// A sampled sweep point with the trial count its campaign resolved.
struct ReplayPoint {
  ScenarioSpec spec;
  CampaignPoint point;
  int trials = 0;
  int id = 0;  // shared span id of the point
  std::string store_dir;
  std::string digest;
};

struct ReplayTotals {
  long long trials = 0;
  long long walks = 0;
  long long delivered = 0;
  long long one_burst_trials = 0;
  long long spillover_picks = 0;
  double congestion_ns = 0.0;
  double touched = 0.0;
  long long saturated = 0;
  double bytes_per_node = 0.0;
  int overlays = 0;
  std::map<int, long long> delivered_by_point;
};

/// The per-trial topology seed sim::run_monte_carlo derives.
std::uint64_t trial_seed(std::uint64_t seed, int trial) {
  return seed ^ common::mix64(0x7261696c5ull +
                              static_cast<std::uint64_t>(trial));
}

/// Recomposed one-burst attack: the sample, break-in and congestion calls
/// OneBurstAttacker::execute makes, each phase in its own span.
attack::AttackOutcome recomposed_one_burst(const core::OneBurstAttack& config,
                                           sosnet::SosOverlay& overlay,
                                           common::Rng& rng, Tracer& tracer,
                                           double& congestion_ns) {
  config.validate(overlay.network().size());
  attack::AttackOutcome outcome;
  const auto layers = static_cast<std::size_t>(overlay.design().layers());
  outcome.broken_per_layer.assign(layers, 0);
  outcome.congested_per_layer.assign(layers, 0);
  outcome.rounds_executed = 1;
  thread_local attack::AttackerKnowledge knowledge{1, 0};
  thread_local std::vector<std::uint64_t> victims;
  thread_local common::SampleScratch scratch;
  {
    Tracer::Scope span(tracer, "attack.break_in");
    knowledge.reset(overlay.network().size(), overlay.filter_count());
    rng.sample_without_replacement_into(
        static_cast<std::uint64_t>(overlay.network().size()),
        static_cast<std::uint64_t>(config.break_in_budget), victims, scratch);
    for (const auto victim : victims)
      attack::attempt_break_in(overlay, static_cast<int>(victim),
                               config.break_in_success, knowledge, rng,
                               outcome);
  }
  const std::int64_t start = now_ns();
  {
    Tracer::Scope span(tracer, "attack.congestion");
    attack::execute_congestion_phase(overlay, knowledge,
                                     config.congestion_budget, rng, outcome);
  }
  congestion_ns += static_cast<double>(now_ns() - start);
  return outcome;
}

/// Replays every trial of `rp` on one thread: rebuild, attack, walks — the
/// same per-trial seeds and call order as sim::run_monte_carlo.
void replay_point(const ReplayPoint& rp, Tracer& tracer,
                  ReplayTotals& totals) {
  Tracer::Scope point_span(tracer, "sim.point", rp.id);
  const ScenarioSpec& spec = rp.spec;
  std::optional<sosnet::SosOverlay> overlay;
  {
    Tracer::Scope span(tracer, "sosnet.construct");
    overlay.emplace(sweep_design(spec, rp.point), trial_seed(spec.seed, 0));
  }
  totals.bytes_per_node += static_cast<double>(overlay->footprint_bytes()) /
                           static_cast<double>(spec.total_overlay);
  ++totals.overlays;
  const auto one_burst = one_burst_attack(spec, rp.point);
  const attack::SuccessiveAttacker successive{
      successive_attack(spec, rp.point)};
  sosnet::TopologyWorkspace workspace;
  sosnet::WalkResult walk;
  long long delivered = 0;
  for (int trial = 0; trial < rp.trials; ++trial) {
    Tracer::Scope trial_span(tracer, "sim.trial");
    const std::uint64_t seed = trial_seed(spec.seed, trial);
    {
      Tracer::Scope span(tracer, "sosnet.rebuild");
      overlay->rebuild(seed, workspace, /*reseed_ids=*/false);
    }
    common::Rng rng{common::mix64(seed)};
    attack::AttackOutcome outcome;
    {
      Tracer::Scope span(tracer, "attack.execute");
      outcome = spec.successive()
                    ? successive.execute(*overlay, rng)
                    : recomposed_one_burst(one_burst, *overlay, rng, tracer,
                                           totals.congestion_ns);
    }
    if (!spec.successive()) {
      ++totals.one_burst_trials;
      totals.spillover_picks +=
          std::max(0, outcome.congested_nodes + outcome.congested_filters -
                          outcome.disclosed_at_congestion);
    }
    for (int w = 0; w < spec.mc_walks; ++w) {
      Tracer::Scope span(tracer, "sosnet.route");
      overlay->route_message(rng, walk);
      if (walk.delivered) ++delivered;
    }
    totals.touched +=
        static_cast<double>(overlay->network().touched_health().size());
    if (overlay->network().health_scan_saturated()) ++totals.saturated;
  }
  totals.trials += rp.trials;
  totals.walks += static_cast<long long>(rp.trials) * spec.mc_walks;
  totals.delivered += delivered;
  totals.delivered_by_point[rp.id] = delivered;
}

/// Fidelity: the recomposed one-burst trial must match
/// OneBurstAttacker::execute field by field, walks included.
bool recomposition_matches(const ReplayPoint& rp, int trials) {
  const ScenarioSpec& spec = rp.spec;
  sosnet::SosOverlay overlay{sweep_design(spec, rp.point),
                             trial_seed(spec.seed, 0)};
  const auto config = one_burst_attack(spec, rp.point);
  const attack::OneBurstAttacker attacker{config};
  sosnet::TopologyWorkspace workspace;
  Tracer off{false};
  double ignored = 0.0;
  for (int trial = 0; trial < trials; ++trial) {
    const std::uint64_t seed = trial_seed(spec.seed, trial);
    attack::AttackOutcome outcomes[2];
    std::vector<std::pair<bool, int>> walks[2];
    for (int pass = 0; pass < 2; ++pass) {
      overlay.rebuild(seed, workspace, /*reseed_ids=*/false);
      common::Rng rng{common::mix64(seed)};
      outcomes[pass] =
          pass == 0
              ? recomposed_one_burst(config, overlay, rng, off, ignored)
              : attacker.execute(overlay, rng);
      for (int w = 0; w < spec.mc_walks; ++w) {
        const auto walk = overlay.route_message(rng);
        walks[pass].emplace_back(walk.delivered, walk.layer_hops);
      }
    }
    const attack::AttackOutcome& a = outcomes[0];
    const attack::AttackOutcome& b = outcomes[1];
    if (a.break_in_attempts != b.break_in_attempts ||
        a.broken_in != b.broken_in ||
        a.congested_nodes != b.congested_nodes ||
        a.congested_filters != b.congested_filters ||
        a.rounds_executed != b.rounds_executed ||
        a.disclosed_at_congestion != b.disclosed_at_congestion ||
        a.broken_per_layer != b.broken_per_layer ||
        a.congested_per_layer != b.congested_per_layer ||
        walks[0] != walks[1])
      return false;
  }
  return true;
}

bool same_result(const sim::MonteCarloResult& a,
                 const sim::MonteCarloResult& b) {
  return a.p_success == b.p_success && a.ci.lo == b.ci.lo &&
         a.ci.hi == b.ci.hi && a.walks == b.walks &&
         a.deliveries == b.deliveries && a.mean_broken == b.mean_broken &&
         a.mean_congested == b.mean_congested &&
         a.mean_congested_filters == b.mean_congested_filters &&
         a.mean_disclosed == b.mean_disclosed &&
         a.mean_delivery_hops == b.mean_delivery_hops;
}

// --- Workload definitions. ---

struct Workload {
  std::vector<CampaignDef> campaigns;
  /// Traced replay: every replay_stride-th point of a campaign.
  int replay_stride = 1;
  /// Campaigns the traced replay covers (the first ones).
  std::size_t replay_campaigns = 0;
};

Workload define(const Options& options) {
  const auto def = [&](const std::string& name, Kind kind) {
    return CampaignDef{name, path_join(options.specs_dir, name + ".spec"),
                       kind};
  };
  Workload w;
  if (options.workload == "paper_mc") {
    w.campaigns = {def("paper_one_burst", Kind::kInProcess),
                   def("paper_successive", Kind::kInProcess)};
    w.replay_stride = 6;
  } else if (options.workload == "scale_mc") {
    w.campaigns = {def("scale_1e6", Kind::kInProcess),
                   def("scale_1e7", Kind::kInProcess)};
  } else if (options.workload == "fleet_sweep") {
    for (int i = 0;; ++i) {
      CampaignDef fleet = def("fleet_" + std::to_string(i), Kind::kDistributed);
      if (!fs::exists(fleet.spec_path)) break;
      w.campaigns.push_back(std::move(fleet));
    }
    w.replay_stride = 6;
    w.replay_campaigns = 2;
  } else if (options.workload == "design_study") {
    w.campaigns = {def("design_study", Kind::kOptimize)};
  } else {
    throw std::invalid_argument(
        "unknown workload '" + options.workload +
        "' (accepted: paper_mc, scale_mc, fleet_sweep, design_study)");
  }
  if (w.campaigns.empty())
    throw std::runtime_error("no campaign specs generated");
  for (const auto& campaign_def : w.campaigns)
    if (!fs::exists(campaign_def.spec_path))
      throw std::runtime_error("missing generated spec " +
                               campaign_def.spec_path);
  if (w.replay_campaigns == 0) w.replay_campaigns = w.campaigns.size();
  return w;
}

/// One cold pass over every campaign of the workload from empty stores,
/// then warm reruns of each, with the output checks.
struct Rep {
  double cold_s = 0.0;
  long long trials = 0;
  std::vector<CampaignRun> cold;
  std::vector<CampaignRun> warm;
  std::string dir;
};

std::string store_of(const Rep& rep, const CampaignDef& def) {
  return path_join(path_join(rep.dir, "stores"), def.name);
}

Rep run_rep(Run& run, const Workload& w, const std::string& dir) {
  const int nproc = run.options().nproc;
  Rep rep;
  rep.dir = dir;
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string cold_results = path_join(dir, "results");
  const std::int64_t start = now_ns();
  for (const auto& def : w.campaigns)
    rep.cold.push_back(
        run_campaign(def, store_of(rep, def), cold_results, nproc));
  rep.cold_s = seconds_since(start);

  for (std::size_t i = 0; i < w.campaigns.size(); ++i) {
    const CampaignDef& def = w.campaigns[i];
    const CampaignRun& cold = rep.cold[i];
    rep.trials += cold.trials;
    run.points(cold.total,
               cold.retried + cold.quarantined + (cold.total - cold.done));
    run.check(cold.complete && cold.total > 0,
              def.name + " settles complete (" + std::to_string(cold.done) +
                  "/" + std::to_string(cold.total) + " done)");
    if (def.kind == Kind::kOptimize) {
      check_non_dominated(run, cold.frontier);
    } else {
      check_auto_ci(run, ScenarioSpec::parse_file(def.spec_path),
                    cold.outputs.begin()->second);
    }
    const auto before = store_objects(store_of(rep, def));
    // A warm sweep rerun costs milliseconds, so each takes several samples;
    // the optimizer's rerun repeats its whole search, so it takes one.
    const int reruns = def.kind == Kind::kOptimize ? 1 : 5;
    for (int r = 0; r < reruns; ++r) {
      rep.warm.push_back(run_campaign(def, store_of(rep, def),
                                      path_join(dir, "warm_results"), nproc));
      const CampaignRun& warm = rep.warm.back();
      run.check(warm.computed == 0 || warm.optimize,
                def.name + " warm rerun computes zero points");
      run.check(warm.complete && warm.outputs == cold.outputs,
                def.name + " warm rerun gives byte-identical outputs");
    }
    run.check(store_objects(store_of(rep, def)) == before,
              def.name + " warm reruns leave the store byte-identical");
  }
  return rep;
}

/// fleet_sweep: one campaign computed in-process must give a store
/// byte-identical to the distributed one. Returns the in-process and the
/// distributed cold seconds.
std::pair<double, double> check_executor_identity(Run& run, const Workload& w,
                                                  const Rep& rep) {
  const CampaignDef& def = w.campaigns.front();
  const CampaignDef local{def.name, def.spec_path, Kind::kInProcess};
  const std::string store = path_join(rep.dir, "identity_store");
  fs::remove_all(store);
  const CampaignRun in_process =
      run_campaign(local, store, path_join(rep.dir, "identity_results"),
                   run.options().nproc);
  const auto a = store_objects(store);
  const auto b = store_objects(store_of(rep, def));
  run.check(in_process.complete && !a.empty() && a == b,
            def.name + " in-process and distributed stores are byte-identical");
  return {in_process.total_s, rep.cold.front().total_s};
}

// --- Untraced run: the end-to-end metrics. ---

/// One cold pass's end-to-end samples, and the share of the host's CPU time
/// the hypervisor stole while it ran (-1 when /proc/stat cannot be read).
struct PassSample {
  double cold_s = 0.0;
  double rate = 0.0;
  std::vector<double> campaign_ms;
  double steal_share = -1.0;
};

void run_untraced(Run& run, const Workload& w) {
  const Options& options = run.options();
  // Set-up samples: a quarter second of discarded samples warms the code,
  // the page cache and the CPU clock; then a batch is taken before every
  // rep, so the median spans the whole run and not one moment of the host.
  const std::string setup_dir = path_join(options.work_dir, "setup");
  const std::int64_t warm_up = now_ns();
  while (seconds_since(warm_up) < 0.25)
    setup_once(w.campaigns, setup_dir, options.nproc);
  std::vector<double> setup_ms;

  std::vector<PassSample> passes;
  std::vector<double> warm_ms, work_ms, settle_ms;
  std::string per_campaign;
  const std::int64_t start = now_ns();
  Rep last;
  int reps = 0;
  do {
    // Two rep directories alternate, so each rep deletes the stores of the
    // rep before last, not the ones it is about to compare against.
    const std::string rep_dir = "rep" + std::to_string(reps % 2);
    for (int i = 0; i < 15; ++i)
      setup_ms.push_back(
          1e3 * setup_once(w.campaigns, setup_dir, options.nproc));
    const auto jiffies_before = cpu_jiffies();
    last = run_rep(run, w, path_join(options.work_dir, rep_dir));
    const auto jiffies_after = cpu_jiffies();
    ++reps;
    PassSample pass;
    pass.cold_s = last.cold_s;
    pass.rate = static_cast<double>(last.trials) / last.cold_s;
    if (jiffies_before.first >= 0 && jiffies_after.first >= 0)
      pass.steal_share =
          static_cast<double>(jiffies_after.first - jiffies_before.first) /
          static_cast<double>(
              std::max(1LL, jiffies_after.second - jiffies_before.second));
    per_campaign += reps == 1 ? "" : " |";
    for (const auto& c : last.cold) {
      per_campaign += " " + fixed(c.total_s * 1e3, 1);
      pass.campaign_ms.push_back(c.total_s * 1e3);
      if (c.hooked) {
        work_ms.push_back(c.work_ms);
        settle_ms.push_back(c.settle_ms);
      }
    }
    passes.push_back(std::move(pass));
    for (const auto& c : last.warm) warm_ms.push_back(c.total_s * 1e3);
  } while (seconds_since(start) < options.seconds);
  fs::remove_all(setup_dir);

  if (w.campaigns.front().kind == Kind::kDistributed)
    check_executor_identity(run, w, last);
  if (w.campaigns.front().kind == Kind::kOptimize) {
    // search_s: the frontier search alone, through the runner's search-only
    // path on the settled store.
    campaign::OptimizeOptions search_only;
    search_only.store_dir = store_of(last, w.campaigns.front());
    search_only.search_only = true;
    campaign::OptimizeRunner runner{
        optimize::OptimizeSpec::parse_file(w.campaigns.front().spec_path),
        search_only};
    const std::int64_t t = now_ns();
    const auto stats = runner.run().search.stats;
    run.note("search_s = " + fixed(seconds_since(t), 4) + " s (" +
             std::to_string(stats.evaluated) + " evaluated, " +
             std::to_string(stats.pruned) + " pruned of " +
             std::to_string(stats.space_size) + ")");
  }

  // The hypervisor steals CPU time in waves of seconds to minutes, and a
  // pool thread on a stolen CPU holds the others at the next join, so a
  // pass that lost a few percent to steal reads tens of percent slower. The
  // timing metrics come from the half of the passes that lost the least
  // (every pass when /proc/stat cannot be read). A wave over the whole run
  // still shows.
  std::vector<const PassSample*> used;
  for (const auto& pass : passes) used.push_back(&pass);
  if (passes.front().steal_share >= 0.0) {
    std::stable_sort(used.begin(), used.end(),
                     [](const PassSample* a, const PassSample* b) {
                       return a->steal_share < b->steal_share;
                     });
    used.resize((used.size() + 1) / 2);
  }
  std::vector<double> cold, rates, campaign_ms, slowest_ms;
  for (const PassSample* pass : used) {
    cold.push_back(pass->cold_s);
    rates.push_back(pass->rate);
    campaign_ms.insert(campaign_ms.end(), pass->campaign_ms.begin(),
                       pass->campaign_ms.end());
    slowest_ms.push_back(
        *std::max_element(pass->campaign_ms.begin(), pass->campaign_ms.end()));
  }

  // The highest percentile with ten samples beyond it is only a tail when
  // there are enough campaigns for it to reach p90; otherwise the tail is
  // each rep's slowest campaign, median over reps.
  Tail campaign_tail = tail(campaign_ms);
  const bool percentile_tail =
      campaign_tail.samples > 10 && campaign_tail.percentile >= 90.0;
  if (!percentile_tail) campaign_tail.value = median(slowest_ms);

  const std::string q = " ms min/p10/p25/p50/p75/p90/max:";
  run.note("setup" + q + quantiles(setup_ms));
  run.note("cold campaign" + q + quantiles(campaign_ms));
  run.note("warm campaign" + q + quantiles(warm_ms));
  if (!work_ms.empty()) {
    run.note("cold run() start to last checkpoint" + q + quantiles(work_ms));
    run.note("cold last checkpoint to return" + q + quantiles(settle_ms));
  }
  std::string per_rep, steal_per_rep;
  for (const auto& pass : passes) {
    per_rep += " " + fixed(pass.cold_s);
    steal_per_rep += " " + fixed(pass.steal_share, 4);
  }
  run.note("cold_s per rep:" + per_rep);
  run.note("steal share per rep:" + steal_per_rep);
  run.note("cold campaign ms per rep:" + per_campaign);
  run.note("reps = " + std::to_string(reps) + ", timing metrics from the " +
           std::to_string(used.size()) + " with the least steal, campaigns = " +
           std::to_string(campaign_ms.size()) + ", trials/rep = " +
           std::to_string(last.trials));
  run.note(percentile_tail
               ? "campaign_tail_ms is p" + fixed(campaign_tail.percentile, 1) +
                     " of " + std::to_string(campaign_tail.samples) +
                     " cold campaigns"
               : "campaign_tail_ms is the median over " +
                     std::to_string(used.size()) +
                     " reps of the slowest campaign (" +
                     std::to_string(campaign_tail.samples) +
                     " cold campaigns)");
  run.metric("setup_s", median(setup_ms) * 1e-3, "s");
  run.metric("cold_s", median(cold), "s");
  run.metric("trials_per_s", median(rates), "trials/s");
  run.metric("campaign_p50_ms", median(campaign_ms), "ms");
  run.metric("campaign_tail_ms", campaign_tail.value, "ms");
  run.metric("peak_rss_mb", peak_rss_mb(), "MB");
}

// --- Traced run: the per-layer metrics. ---

/// Every per-layer metric, in report order. A metric the workload does not
/// exercise stays 0.
const std::vector<std::pair<std::string, std::string>>& layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> list = {
      {"attack.execute_us.p50", "us"},
      {"attack.execute_us.tail", "us"},
      {"attack.break_in_us", "us"},
      {"attack.congestion_us", "us"},
      {"attack.spillover_picks", "count"},
      {"attack.ns_per_spillover_pick", "ns"},
      {"attack.self_ms", "ms"},
      {"sosnet.rebuild_us", "us"},
      {"sosnet.route_us", "us"},
      {"sosnet.construct_ms", "ms"},
      {"sosnet.bytes_per_node", "B"},
      {"sosnet.delivery_ratio", "ratio"},
      {"sosnet.self_ms", "ms"},
      {"overlay.touched_per_trial", "count"},
      {"overlay.reset_saturated_share", "ratio"},
      {"sim.trial_us.p50", "us"},
      {"sim.trial_us.tail", "us"},
      {"sim.trials", "count"},
      {"sim.point_ms", "ms"},
      {"sim.speedup_vs_1thread", "x"},
      {"sim.trial_unattributed_share", "ratio"},
      {"sim.self_ms", "ms"},
      {"common.pool_utilization", "ratio"},
      {"common.write_file_atomic_us", "us"},
      {"common.self_ms", "ms"},
      {"campaign.construct_ms", "ms"},
      {"campaign.store_put_us.p50", "us"},
      {"campaign.store_put_us.tail", "us"},
      {"campaign.store_load_us", "us"},
      {"campaign.checkpoint_share", "ratio"},
      {"campaign.first_result_ms", "ms"},
      {"campaign.settle_ms", "ms"},
      {"campaign.executor_overhead_ratio", "ratio"},
      {"campaign.cached_share_warm", "ratio"},
      {"campaign.warm_p50_ms", "ms"},
      {"campaign.retried", "count"},
      {"campaign.quarantined", "count"},
      {"campaign.self_ms", "ms"},
      {"core.model_eval_us", "us"},
      {"core.frontier_sweep_us", "us"},
      {"core.self_ms", "ms"},
      {"optimize.search_ms", "ms"},
      {"optimize.designs_per_s", "designs/s"},
      {"optimize.pruned_share", "ratio"},
      {"optimize.validate_ms", "ms"},
      {"optimize.self_ms", "ms"},
      {"trace.overhead_share", "ratio"},
  };
  return list;
}

/// Shared span id of a point: campaign index * 1000 + point index.
int point_id(std::size_t campaign_index, int point_index) {
  return static_cast<int>(campaign_index) * 1000 + point_index;
}

/// The sweep points the traced run replays, with their resolved trials.
std::vector<ReplayPoint> replay_points(const Workload& w, const Rep& rep,
                                       std::uint64_t seed) {
  std::vector<ReplayPoint> out;
  for (std::size_t c = 0; c < w.replay_campaigns; ++c) {
    const CampaignDef& def = w.campaigns[c];
    if (def.kind == Kind::kOptimize) {
      const auto spec = optimize::OptimizeSpec::parse_file(def.spec_path);
      const auto& frontier = rep.cold[c].frontier;
      for (std::size_t i = 0; i < frontier.size() && i < 2; ++i) {
        ReplayPoint rp;
        rp.spec = campaign::OptimizeRunner::winner_spec(spec, frontier[i]);
        rp.point = campaign::expand(rp.spec).front();
        rp.trials = rp.spec.mc_trials;
        rp.id = point_id(c, static_cast<int>(i));
        rp.store_dir = store_of(rep, def);
        rp.digest = campaign::point_digest(rp.spec, rp.point);
        out.push_back(std::move(rp));
      }
      continue;
    }
    const ScenarioSpec spec = ScenarioSpec::parse_file(def.spec_path);
    const auto rows = csv_rows(rep.cold[c].outputs.begin()->second);
    const auto offset = static_cast<int>(
        seed % static_cast<std::uint64_t>(w.replay_stride));
    for (const auto& point : campaign::expand(spec)) {
      if (point.index % w.replay_stride != offset) continue;
      ReplayPoint rp;
      rp.spec = spec;
      rp.point = point;
      rp.trials = spec.auto_trials.enabled
                      ? std::stoi(rows.at(static_cast<std::size_t>(point.index))
                                      .at("mc_trials_resolved"))
                      : spec.mc_trials;
      rp.id = point_id(c, point.index);
      rp.store_dir = store_of(rep, def);
      rp.digest = campaign::point_digest(spec, point);
      out.push_back(std::move(rp));
    }
  }
  return out;
}

/// Campaign layer: each campaign's construction, then every point's stored
/// bytes loaded from the cold store and re-checkpointed into a scratch
/// store, with the analytic model column evaluated per point.
void replay_campaign_layer(Run& run, const Workload& w, const Rep& rep,
                           Tracer& tracer) {
  const std::string scratch = path_join(run.options().work_dir, "replay_store");
  fs::remove_all(scratch);
  int checkpointed = 0;
  for (std::size_t c = 0; c < w.replay_campaigns; ++c) {
    const CampaignDef& def = w.campaigns[c];
    Tracer::Scope campaign_span(tracer, "campaign.replay", point_id(c, 0));
    std::vector<ScenarioSpec> specs;
    if (def.kind == Kind::kOptimize) {
      const auto spec = optimize::OptimizeSpec::parse_file(def.spec_path);
      for (const auto& winner : rep.cold[c].frontier)
        specs.push_back(campaign::OptimizeRunner::winner_spec(spec, winner));
    } else {
      specs.push_back(ScenarioSpec::parse_file(def.spec_path));
    }
    const campaign::ResultStore cold_store{store_of(rep, def)};
    for (const auto& spec : specs) {
      const std::string store = path_join(scratch, def.name);
      std::optional<campaign::RemoteWorkerPool> pool;
      std::optional<campaign::CampaignRunner> local;
      {
        Tracer::Scope span(tracer, "campaign.construct");
        if (def.kind == Kind::kDistributed) {
          campaign::RemotePoolOptions options;
          options.store_dir = store;
          options.local_workers = run.options().nproc;
          pool.emplace(spec, options);
        } else {
          campaign::CampaignOptions options;
          options.store_dir = store;
          local.emplace(spec, options);
        }
      }
      const campaign::CampaignRunner& runner = pool ? pool->runner() : *local;
      for (const auto& point : runner.points()) {
        const int id = point_id(c, point.index);
        const std::string& digest = runner.digest(point.index);
        std::optional<std::string> bytes;
        {
          Tracer::Scope span(tracer, "campaign.store_load", id);
          bytes = cold_store.load(digest);
        }
        {
          Tracer::Scope span(tracer, "core.model_eval", id);
          (void)model_value(spec, point);
        }
        if (!bytes) continue;
        Tracer::Scope span(tracer, "campaign.store_put", id);
        runner.store().put(digest, *bytes);
        ++checkpointed;
      }
    }
  }
  run.check(checkpointed > 0,
            "campaign replay re-checkpointed the stored points");
}

/// design_study: the search called directly, the frontier sweep per design
/// on a sample of the space, and each winner's validation campaign.
void replay_optimizer(Run& run, const CampaignDef& def, const Rep& rep,
                      Tracer& tracer, std::map<std::string, double>& m) {
  const auto spec = optimize::OptimizeSpec::parse_file(def.spec_path);
  const auto& frontier = rep.cold.front().frontier;
  optimize::SearchResult result;
  {
    Tracer::Scope span(tracer, "optimize.search");
    result = optimize::exhaustive_search(spec.space, spec.cost, spec.objective);
  }
  const double search_ms = tracer.durations_us("optimize.search").back() * 1e-3;
  const auto space = static_cast<double>(result.stats.space_size);
  m["optimize.search_ms"] = search_ms;
  m["optimize.designs_per_s"] = space / (search_ms * 1e-3);
  m["optimize.pruned_share"] = static_cast<double>(result.stats.pruned) / space;
  bool same = result.frontier.size() == frontier.size();
  for (std::size_t i = 0; same && i < frontier.size(); ++i)
    same = result.frontier[i].point.key() == frontier[i].point.key() &&
           result.frontier[i].p_success() == frontier[i].p_success();
  run.check(same,
            "exhaustive_search frontier equals the OptimizeRunner frontier");

  const auto designs = spec.space.enumerate();
  const auto budget = spec.objective.effective_budget();
  std::vector<core::BudgetSplit> curve;
  for (std::size_t i = 0; i < designs.size(); i += 50) {
    core::SuccessiveEvaluator evaluator{designs[i].design};
    Tracer::Scope span(tracer, "core.frontier_sweep");
    core::BudgetFrontier::sweep_into(evaluator, budget,
                                     spec.objective.split_steps, curve);
  }

  for (std::size_t i = 0; i < frontier.size(); ++i) {
    campaign::CampaignOptions options;
    options.store_dir = path_join(run.options().work_dir,
                                  "validate_" + std::to_string(i));
    std::int64_t hooked = 0;
    options.checkpoint_hook = [&hooked](int) { hooked = now_ns(); };
    Tracer::Scope span(tracer, "optimize.validate", static_cast<int>(i));
    campaign::CampaignRunner runner{
        campaign::OptimizeRunner::winner_spec(spec, frontier[i]), options};
    const std::int64_t start = now_ns();
    run.check(runner.run().complete(), "winner validation campaign completes");
    if (i == 0) {
      // One point per validation campaign: its only checkpoint.
      m["campaign.first_result_ms"] = ms_between(start, hooked);
      m["campaign.settle_ms"] = ms_between(hooked, now_ns());
    }
  }
  m["optimize.validate_ms"] =
      median(tracer.durations_us("optimize.validate")) * 1e-3;
}

void run_traced(Run& run, const Workload& w) {
  const Options& options = run.options();
  const int nproc = options.nproc;
  std::map<std::string, double> m;
  for (const auto& [name, unit] : layer_metrics()) m[name] = 0.0;

  // One cold + warm pass through the public entry points, untraced: the
  // reference outputs, the checkpoint-hook timings and pool utilization.
  const double cpu_before = cpu_seconds();
  const Rep rep = run_rep(run, w, path_join(options.work_dir, "rep0"));
  const double cpu = cpu_seconds() - cpu_before;
  const int pool_threads = common::ThreadPool::shared().size();
  m["common.pool_utilization"] =
      cpu / (rep.cold_s * static_cast<double>(std::max(pool_threads, 1)));
  m["sim.trials"] = static_cast<double>(rep.trials);
  std::vector<double> first, settle, warm_ms;
  long long computed = 0;
  int warm_cached = 0, warm_total = 0;
  for (const auto& c : rep.cold) {
    if (c.hooked) {
      first.push_back(c.first_result_ms);
      settle.push_back(c.settle_ms);
    }
    computed += c.done;
    m["campaign.retried"] += c.retried;
    m["campaign.quarantined"] += c.quarantined;
  }
  for (const auto& c : rep.warm) {
    warm_ms.push_back(c.total_s * 1e3);
    warm_cached += c.optimize ? c.done : c.cached;
    warm_total += c.total;
  }
  m["campaign.first_result_ms"] = median(first);
  m["campaign.settle_ms"] = median(settle);
  m["campaign.warm_p50_ms"] = median(warm_ms);
  m["campaign.cached_share_warm"] =
      static_cast<double>(warm_cached) / std::max(warm_total, 1);
  run.note("untraced cold pass: " + fixed(rep.cold_s) + " s, " +
           std::to_string(rep.trials) + " trials");

  Tracer tracer{true};
  replay_campaign_layer(run, w, rep, tracer);

  // Trial engine: the sampled points traced, then the same calls untraced,
  // alternating until --seconds have passed.
  const auto points = replay_points(w, rep, options.seed);
  ReplayTotals totals, untraced_totals;
  Tracer off{false};
  double traced_ns = 0.0, untraced_ns = 0.0;
  int replays = 0;
  const std::int64_t replay_start = now_ns();
  do {
    std::int64_t t = now_ns();
    for (const auto& rp : points) replay_point(rp, tracer, totals);
    traced_ns += static_cast<double>(now_ns() - t);
    t = now_ns();
    for (const auto& rp : points) replay_point(rp, off, untraced_totals);
    untraced_ns += static_cast<double>(now_ns() - t);
    ++replays;
  } while (seconds_since(replay_start) < options.seconds);
  m["trace.overhead_share"] = traced_ns / untraced_ns - 1.0;
  run.check(untraced_totals.delivered == totals.delivered,
            "traced and untraced replays deliver identically");

  // Reconciliation and single-thread baseline on sampled points:
  // run_monte_carlo at threads=1 and at the pool size must agree bit for
  // bit, and with the replayed trials.
  common::ThreadPool one_thread{1};
  std::vector<double> speedups, point_ms;
  for (std::size_t i = 0; i < points.size() && i < 2; ++i) {
    const ReplayPoint& rp = points[i];
    const auto design = sweep_design(rp.spec, rp.point);
    const auto attack = attack_fn(rp.spec, rp.point);
    sim::MonteCarloConfig config;
    config.trials = rp.trials;
    config.walks_per_trial = rp.spec.mc_walks;
    config.seed = rp.spec.seed;
    config.threads = 0;
    std::int64_t t = now_ns();
    const auto parallel = sim::run_monte_carlo(design, attack, config);
    const double parallel_s = seconds_since(t);
    config.threads = 1;
    t = now_ns();
    const auto serial = sim::run_monte_carlo(design, attack, config);
    speedups.push_back(seconds_since(t) / parallel_s);
    point_ms.push_back(parallel_s * 1e3);
    const std::string where = " (point " + rp.point.key + ")";
    run.check(same_result(parallel, serial),
              "run_monte_carlo is bit-identical at threads=1 and threads=" +
                  std::to_string(nproc) + where);
    run.check(static_cast<long long>(parallel.deliveries) ==
                  totals.delivered_by_point[rp.id],
              "replayed trials reconcile with run_monte_carlo" + where);
    if (i == 0) {
      campaign::CampaignOptions serial_options;
      serial_options.store_dir = path_join(options.work_dir, "serial_store");
      serial_options.pool = &one_thread;
      const campaign::CampaignRunner serial_runner{rp.spec, serial_options};
      const auto stored = campaign::ResultStore{rp.store_dir}.load(rp.digest);
      run.check(stored && serial_runner.compute_point_bytes(rp.point.index) ==
                              *stored,
                "threads=1 point bytes match the pool run" + where);
    }
  }
  m["sim.speedup_vs_1thread"] = median(speedups);
  m["sim.point_ms"] = median(point_ms);

  int fidelity_points = 0;
  for (const auto& rp : points) {
    if (rp.spec.successive()) continue;
    ++fidelity_points;
    run.check(recomposition_matches(rp, std::min(rp.trials, 32)),
              "recomposed one-burst trial matches OneBurstAttacker::execute "
              "(point " + rp.point.key + ")");
  }
  if (fidelity_points == 0)
    run.note("fidelity: no one-burst points in this workload");

  for (const auto& def : w.campaigns)
    if (def.kind == Kind::kOptimize) replay_optimizer(run, def, rep, tracer, m);

  if (w.campaigns.front().kind == Kind::kDistributed) {
    const auto [in_process_s, distributed_s] =
        check_executor_identity(run, w, rep);
    m["campaign.executor_overhead_ratio"] = distributed_s / in_process_s;
  }

  // Atomic write cost, on object-sized payloads.
  const std::string atomic_dir = path_join(options.work_dir, "atomic");
  fs::create_directories(atomic_dir);
  const std::string payload(160, 'x');
  for (int i = 0; i < 32; ++i) {
    Tracer::Scope span(tracer, "common.write_file_atomic");
    common::write_file_atomic(
        path_join(atomic_dir, "object_" + std::to_string(i)), payload);
  }

  // Derived per-layer metrics.
  const auto p50 = [&](const char* name) {
    return median(tracer.durations_us(name));
  };
  const Tail execute_tail = tail(tracer.durations_us("attack.execute"));
  const Tail trial_tail = tail(tracer.durations_us("sim.trial"));
  const Tail put_tail = tail(tracer.durations_us("campaign.store_put"));
  m["attack.execute_us.p50"] = p50("attack.execute");
  m["attack.execute_us.tail"] = execute_tail.value;
  m["attack.break_in_us"] = p50("attack.break_in");
  m["attack.congestion_us"] = p50("attack.congestion");
  if (totals.one_burst_trials > 0)
    m["attack.spillover_picks"] = static_cast<double>(totals.spillover_picks) /
                                  static_cast<double>(totals.one_burst_trials);
  if (totals.spillover_picks > 0)
    m["attack.ns_per_spillover_pick"] =
        totals.congestion_ns / static_cast<double>(totals.spillover_picks);
  m["sosnet.rebuild_us"] = p50("sosnet.rebuild");
  m["sosnet.route_us"] = p50("sosnet.route");
  m["sosnet.construct_ms"] = p50("sosnet.construct") * 1e-3;
  if (totals.overlays > 0)
    m["sosnet.bytes_per_node"] = totals.bytes_per_node / totals.overlays;
  if (totals.walks > 0)
    m["sosnet.delivery_ratio"] = static_cast<double>(totals.delivered) /
                                 static_cast<double>(totals.walks);
  if (totals.trials > 0) {
    const auto trials = static_cast<double>(totals.trials);
    m["overlay.touched_per_trial"] = totals.touched / trials;
    m["overlay.reset_saturated_share"] =
        static_cast<double>(totals.saturated) / trials;
  }
  m["sim.trial_us.p50"] = p50("sim.trial");
  m["sim.trial_us.tail"] = trial_tail.value;
  m["sim.trial_unattributed_share"] = tracer.uncovered_share("sim.trial");
  m["common.write_file_atomic_us"] = p50("common.write_file_atomic");
  m["campaign.construct_ms"] = p50("campaign.construct") * 1e-3;
  m["campaign.store_put_us.p50"] = p50("campaign.store_put");
  m["campaign.store_put_us.tail"] = put_tail.value;
  m["campaign.store_load_us"] = p50("campaign.store_load");
  m["campaign.checkpoint_share"] = static_cast<double>(computed) *
                                   m["campaign.store_put_us.p50"] * 1e-6 /
                                   rep.cold_s;
  m["core.model_eval_us"] = p50("core.model_eval");
  m["core.frontier_sweep_us"] = p50("core.frontier_sweep");
  for (const auto& [layer, self_ms] : tracer.self_ms_by_layer())
    if (m.count(layer + ".self_ms") != 0) m[layer + ".self_ms"] = self_ms;

  const auto tail_note = [](const std::string& name, const Tail& t) {
    return name + " is p" + fixed(t.percentile, 1) + " of " +
           std::to_string(t.samples);
  };
  run.note("replayed " + std::to_string(points.size()) + " points " +
           std::to_string(replays) + " times: " +
           std::to_string(totals.trials) + " trials, " +
           std::to_string(tracer.spans().size()) + " spans");
  run.note(tail_note("attack.execute_us.tail", execute_tail) + "; " +
           tail_note("sim.trial_us.tail", trial_tail) + "; " +
           tail_note("campaign.store_put_us.tail", put_tail));
  run.note("uncovered share: campaign.replay " +
           fixed(tracer.uncovered_share("campaign.replay"), 4) +
           ", sim.point " + fixed(tracer.uncovered_share("sim.point"), 4) +
           ", sim.trial " + fixed(tracer.uncovered_share("sim.trial"), 4));
  const std::string trace_dir = path_join(options.work_dir, "trace");
  fs::create_directories(trace_dir);
  tracer.write_csv(path_join(trace_dir, options.workload + ".spans.csv"));
  for (const auto& [name, unit] : layer_metrics())
    run.metric(name, m[name], unit);
}

}  // namespace

void run_workload(Run& run) {
  const Workload w = define(run.options());
  if (run.options().trace) {
    run_traced(run, w);
  } else {
    run_untraced(run, w);
  }
}

}  // namespace perfbench
