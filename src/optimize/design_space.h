// Design-space enumeration over the paper's four design knobs.
//
// A DesignSpace is a grid over (L, n, mapping policy, node distribution) at
// fixed substrate parameters (N, filter count). Enumeration order is
// canonical — layers, then sos_nodes, then mapping, then distribution, each
// in the order listed — so every consumer (exhaustive search, SA restarts,
// figure tables) sees the same point indices and keys regardless of thread
// count. Degenerate duplicates (every distribution collapses to the same
// design at L = 1) are skipped.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "core/design.h"

namespace sos::optimize {

/// One enumerated candidate: the materialized design plus the grid
/// coordinates that produced it (kept for keys, CSV rows and SA moves).
struct DesignPoint {
  core::SosDesign design;
  int layers = 0;
  int sos_nodes = 0;
  std::string mapping;       // label as listed in the space
  std::string distribution;  // label as listed in the space

  /// "L=3 n=100 map=one-to-five dist=even" — unique within a space, stable
  /// across runs; used for dedup, store-validation spec names and tests.
  std::string key() const;
};

struct DesignSpace {
  int total_overlay_nodes = 10000;
  int filter_count = 10;
  std::vector<int> layers{1, 2, 3, 4, 5};
  std::vector<int> sos_nodes{100};
  std::vector<std::string> mappings{"one-to-one", "one-to-five", "one-to-all"};
  std::vector<std::string> distributions{"even"};

  /// Throws std::invalid_argument with "(accepted:)" messages: every axis
  /// non-empty, axis values unique, layers in [1, min(sos_nodes)], sos_nodes
  /// in [layers, N], mappings/distributions parseable, and at least one
  /// non-degenerate combination.
  void validate() const;

  /// Grid size after degenerate-combination skips (the number of points
  /// enumerate() returns). Valid space only.
  std::size_t size() const;

  /// All candidates in canonical order. Valid space only.
  std::vector<DesignPoint> enumerate() const;

  /// True when the (layer index, distribution index) combination is kept:
  /// at L = 1 only the first listed distribution survives (they all produce
  /// the identical single-layer design).
  bool combination_kept(int layer_index, int distribution_index) const;
};

}  // namespace sos::optimize
