// DesignSpace: canonical enumeration order, degenerate-combination skips,
// size() vs enumerate() agreement, key stability and validation errors.
#include "optimize/design_space.h"

#include <gtest/gtest.h>

#include <set>
#include <stdexcept>
#include <string>

namespace sos::optimize {
namespace {

DesignSpace small_space() {
  DesignSpace space;
  space.total_overlay_nodes = 1000;
  space.filter_count = 5;
  space.layers = {1, 2};
  space.sos_nodes = {20, 40};
  space.mappings = {"one-to-one", "one-to-all"};
  space.distributions = {"even", "decreasing"};
  return space;
}

/// Layers 1..5, five mappings, three distributions at N=10000, n=100.
DesignSpace paper_grid() {
  DesignSpace space;
  space.mappings = {"one-to-one", "one-to-two", "one-to-five", "one-to-half",
                    "one-to-all"};
  space.distributions = {"even", "increasing", "decreasing"};
  return space;
}

TEST(DesignSpace, SizeMatchesEnumerateAndSkipsDegenerates) {
  const auto space = small_space();
  space.validate();
  const auto points = space.enumerate();
  EXPECT_EQ(points.size(), space.size());
  // L=1 keeps only the first distribution (all collapse to one design):
  // L=1: 2 sos * 2 mappings * 1 dist = 4; L=2: 2 * 2 * 2 = 8.
  EXPECT_EQ(points.size(), 12u);

  std::set<std::string> keys;
  for (const auto& point : points) keys.insert(point.key());
  EXPECT_EQ(keys.size(), points.size()) << "keys must be unique";

  // The paper's grid up to L=5: L=1 contributes 5 mappings x 1
  // distribution, L=2..5 contribute 5 x 3 each.
  const auto paper = paper_grid();
  EXPECT_EQ(paper.size(), 5u + 4u * 15u);
  EXPECT_EQ(paper.enumerate().size(), paper.size());
}

TEST(DesignSpace, EnumerationOrderIsCanonical) {
  const auto points = small_space().enumerate();
  // layers-major, then sos_nodes, then mapping, then distribution.
  EXPECT_EQ(points.front().key(), "L=1 n=20 map=one-to-one dist=even");
  EXPECT_EQ(points[1].key(), "L=1 n=20 map=one-to-all dist=even");
  EXPECT_EQ(points[2].key(), "L=1 n=40 map=one-to-one dist=even");
  EXPECT_EQ(points[4].key(), "L=2 n=20 map=one-to-one dist=even");
  EXPECT_EQ(points[5].key(), "L=2 n=20 map=one-to-one dist=decreasing");
  EXPECT_EQ(points.back().key(), "L=2 n=40 map=one-to-all dist=decreasing");
}

TEST(DesignSpace, MaterializedDesignsMatchTheirCoordinates) {
  for (const auto& point : small_space().enumerate()) {
    EXPECT_EQ(point.design.layers(), point.layers);
    EXPECT_EQ(point.design.sos_node_count(), point.sos_nodes);
    EXPECT_EQ(point.design.total_overlay_nodes, 1000);
    EXPECT_EQ(point.design.filter_count, 5);
    EXPECT_NO_THROW(point.design.validate());
  }
}

TEST(DesignSpace, CombinationKeptOnlyDropsExtraDistributionsAtOneLayer) {
  const auto space = small_space();
  EXPECT_TRUE(space.combination_kept(0, 0));   // L=1, first distribution
  EXPECT_FALSE(space.combination_kept(0, 1));  // L=1, duplicate
  EXPECT_TRUE(space.combination_kept(1, 0));
  EXPECT_TRUE(space.combination_kept(1, 1));
}

TEST(DesignSpace, ValidateGoldenErrors) {
  auto empty_axis = small_space();
  empty_axis.layers.clear();
  try {
    empty_axis.validate();
    FAIL() << "empty axis accepted";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("(accepted:"), std::string::npos)
        << error.what();
  }

  auto duplicate = small_space();
  duplicate.sos_nodes = {20, 20};
  EXPECT_THROW(duplicate.validate(), std::invalid_argument);

  auto too_deep = small_space();
  too_deep.layers = {1, 30};  // > min(sos_nodes) = 20
  EXPECT_THROW(too_deep.validate(), std::invalid_argument);

  auto bad_mapping = small_space();
  bad_mapping.mappings = {"one-to-some"};
  EXPECT_THROW(bad_mapping.validate(), std::invalid_argument);

  auto too_many_nodes = small_space();
  too_many_nodes.sos_nodes = {20, 2000};  // > N = 1000
  EXPECT_THROW(too_many_nodes.validate(), std::invalid_argument);
}

}  // namespace
}  // namespace sos::optimize
