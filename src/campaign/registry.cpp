#include "campaign/registry.h"

#include <stdexcept>

#include "campaign/digest.h"
#include "common/strings.h"

namespace sos::campaign {

namespace {

// Id, result-file base name, default --mc-trials, generator. The result
// names must track the bench_smoke_<name> entries in tests/CMakeLists.txt;
// registry_test pins id <-> generated Figure::id.
const std::vector<RegisteredFigure> kRegistry{
    {"fig4a", "fig4a_one_burst_congestion", 0, experiments::fig4a},
    {"fig4b", "fig4b_one_burst_breakin", 0, experiments::fig4b},
    {"fig6a", "fig6a_successive_mapping", 0, experiments::fig6a},
    {"fig6b", "fig6b_node_distribution", 0, experiments::fig6b},
    {"fig7", "fig7_rounds", 0, experiments::fig7},
    {"fig8a", "fig8a_nt_vs_n", 0, experiments::fig8a},
    {"fig8b", "fig8b_nt_vs_layers", 0, experiments::fig8b},
    {"ext_nc", "ext_nc_sensitivity", 0, experiments::ext_nc_sensitivity},
    {"ext_mc", "ext_model_vs_montecarlo", 60,
     experiments::ext_model_vs_montecarlo},
    {"ext_exact", "ext_exact_vs_average", 0, experiments::ext_exact_vs_average},
    {"ext_adaptive", "ext_adaptive_attacker", 40,
     experiments::ext_adaptive_attacker},
    {"ext_repair", "ext_repair_dynamics", 40, experiments::ext_repair_dynamics},
    {"ext_chord", "ext_chord_fidelity", 24, experiments::ext_chord_fidelity},
    {"ext_latency", "ext_latency_tradeoff", 0,
     experiments::ext_latency_tradeoff},
    {"ext_pool", "ext_pool_bookkeeping", 0, experiments::ext_pool_bookkeeping},
    {"ext_migration", "ext_migration_defense", 40,
     experiments::ext_migration_defense},
    {"ext_budget", "ext_budget_split", 0, experiments::ext_budget_split},
    {"ext_protocol", "ext_protocol_semantics", 0,
     experiments::ext_protocol_semantics},
    {"ext_timeline", "ext_attack_timeline", 0, experiments::ext_attack_timeline},
    {"ext_hardening", "ext_hardening_placement", 0,
     experiments::ext_hardening_placement},
    {"ext_profile", "ext_mapping_profile", 0, experiments::ext_mapping_profile},
    {"ext_faults", "ext_fault_tolerance", 0, experiments::ext_fault_tolerance},
    {"ext_scale", "ext_scale_curve", 8, experiments::ext_scale_curve},
    {"ext_sampling", "ext_sampling_curve", 2048,
     experiments::ext_sampling_curve},
    {"ext_frontier", "ext_design_frontier", 48,
     experiments::ext_design_frontier},
};

std::string registered_ids() {
  std::vector<std::string> ids;
  ids.reserve(kRegistry.size());
  for (const auto& entry : kRegistry) ids.push_back(entry.id);
  return common::join(ids, ", ");
}

}  // namespace

const std::vector<RegisteredFigure>& figure_registry() { return kRegistry; }

const RegisteredFigure* find_figure(std::string_view id) {
  for (const auto& entry : kRegistry)
    if (id == entry.id) return &entry;
  return nullptr;
}

std::vector<CampaignPoint> expand(const ScenarioSpec& spec) {
  std::vector<CampaignPoint> points;

  if (spec.mode == ScenarioSpec::Mode::kFigures) {
    points.reserve(spec.figures.size());
    for (const auto& id : spec.figures) {
      const RegisteredFigure* entry = find_figure(id);
      if (entry == nullptr)
        throw std::invalid_argument("ScenarioSpec: bad figures '" + id +
                                    "' (accepted: " + registered_ids() + ")");
      CampaignPoint point;
      point.index = static_cast<int>(points.size());
      point.figure_id = id;
      point.mc_trials = spec.mc_trials == ScenarioSpec::kPerFigureDefaultTrials
                            ? entry->default_mc_trials
                            : spec.mc_trials;
      point.key =
          "figure=" + id + " mc_trials=" + std::to_string(point.mc_trials);
      points.push_back(std::move(point));
    }
    return points;
  }

  // Sweep mode: nesting mirrors the legacy figure loops (budget-major, then
  // mapping, then layers), so a spec mirroring e.g. fig4a's grid re-expands
  // to the exact row order that binary emitted.
  for (const int nt : spec.break_in) {
    for (const int nc : spec.congestion) {
      for (const auto& mapping : spec.mappings) {
        for (const int layers : spec.layers) {
          CampaignPoint point;
          point.index = static_cast<int>(points.size());
          point.layers = layers;
          point.mapping = mapping;
          point.break_in = nt;
          point.congestion = nc;
          point.mc_trials = spec.mc_trials;
          point.key = "nt=" + std::to_string(nt) +
                      " nc=" + std::to_string(nc) + " mapping=" + mapping +
                      " layers=" + std::to_string(layers);
          points.push_back(std::move(point));
        }
      }
    }
  }
  return points;
}

std::string point_digest(const ScenarioSpec& spec, const CampaignPoint& point) {
  return salted_digest(spec.result_scope() + "point=" + point.key + "\n");
}

std::string spec_digest(const ScenarioSpec& spec) {
  return salted_digest(spec.canonical());
}

ScenarioSpec figure_spec(const std::string& figure_id,
                         const experiments::Params& params, int mc_trials) {
  ScenarioSpec spec;
  spec.name = figure_id;
  spec.mode = ScenarioSpec::Mode::kFigures;
  spec.figures = {figure_id};
  spec.total_overlay = params.total_overlay;
  spec.sos_nodes = params.sos_nodes;
  spec.filters = params.filters;
  spec.p_break = params.p_break;
  spec.mc_trials = mc_trials;
  spec.mc_walks = params.mc_walks;
  spec.seed = params.seed;
  spec.validate();
  return spec;
}

ScenarioSpec suite_spec(const experiments::Params& params, int mc_trials) {
  ScenarioSpec spec = figure_spec(kRegistry.front().id, params, mc_trials);
  spec.name = "all";
  spec.figures.clear();
  for (const auto& entry : kRegistry) spec.figures.push_back(entry.id);
  spec.validate();
  return spec;
}

}  // namespace sos::campaign
