// Figure registry + campaign-point expansion.
//
// Every figure of the evaluation (the paper's fig4/6/7/8 set and the ext_*
// extensions) is registered here by id, together with its result-file base
// name and its default Monte Carlo trial count. The sos_campaign CLI
// (`sos_campaign run <id>`) and the CampaignRunner dispatch through this
// table, so "the set of experiments" has exactly one definition.
//
// expand() turns a validated ScenarioSpec into the ordered list of scenario
// points the runner executes: one point per figure in figures mode, the
// break_in × congestion × mapping × layers cross product in sweep mode
// (loop nesting chosen to match the legacy figure generators' row order).
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "campaign/scenario_spec.h"
#include "experiments/figures.h"

namespace sos::campaign {

struct RegisteredFigure {
  const char* id;          // spec/figure id, e.g. "fig4a"
  const char* bench_name;  // result-file base name, e.g.
                           // "fig4a_one_burst_congestion": the figure is
                           // written to results/<name>.{csv,txt}
  int default_mc_trials;   // default --mc-trials
  experiments::Figure (*generate)(const experiments::Params&);
};

/// All registered figures, in the canonical suite order.
const std::vector<RegisteredFigure>& figure_registry();

/// Lookup by id; nullptr when unknown.
const RegisteredFigure* find_figure(std::string_view id);

/// One scenario point of an expanded campaign.
struct CampaignPoint {
  int index = 0;
  std::string key;  // canonical within-campaign key, digest material

  // Figures mode.
  std::string figure_id;  // empty for sweep points
  int mc_trials = 0;      // resolved trial count for this point

  // Sweep mode cell.
  int layers = 0;
  std::string mapping;  // MappingPolicy label
  int break_in = 0;     // N_T
  int congestion = 0;   // N_C
};

/// Expands a validated spec into its ordered point list. Throws
/// std::invalid_argument ("(accepted:)" style, listing the registered ids)
/// if a figures-mode spec names an unknown figure.
std::vector<CampaignPoint> expand(const ScenarioSpec& spec);

/// Digest addressing `point`'s result object: code-version salt +
/// spec.result_scope() + the point key.
std::string point_digest(const ScenarioSpec& spec, const CampaignPoint& point);

/// Digest identifying the whole campaign (over spec.canonical()).
std::string spec_digest(const ScenarioSpec& spec);

/// Built-in spec running a single registered figure with the given
/// parameters (mc_trials < 0 means the figure's registered default).
ScenarioSpec figure_spec(const std::string& figure_id,
                         const experiments::Params& params,
                         int mc_trials = ScenarioSpec::kPerFigureDefaultTrials);

/// Built-in spec running the whole registered figure suite — the campaign
/// equivalent of scripts/run_all.sh's bench loop.
ScenarioSpec suite_spec(const experiments::Params& params,
                        int mc_trials = ScenarioSpec::kPerFigureDefaultTrials);

}  // namespace sos::campaign
