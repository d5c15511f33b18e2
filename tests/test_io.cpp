#include "io/serialization.h"

#include <gtest/gtest.h>

#include <sstream>

#include "graph/generators.h"
#include "oblivious/shortest_path_routing.h"

namespace sor {
namespace {

TEST(Io, GraphRoundTrip) {
  Graph g(4);
  g.add_edge(0, 1, 2.5);
  g.add_edge(1, 2, 1.0);
  g.add_edge(2, 3, 0.75);
  std::stringstream buffer;
  io::write_graph(buffer, g);
  const auto loaded = io::read_graph(buffer);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->num_vertices(), 4);
  ASSERT_EQ(loaded->num_edges(), 3);
  for (int e = 0; e < 3; ++e) {
    EXPECT_EQ(loaded->edge(e).u, g.edge(e).u);
    EXPECT_EQ(loaded->edge(e).v, g.edge(e).v);
    EXPECT_DOUBLE_EQ(loaded->edge(e).capacity, g.edge(e).capacity);
  }
}

TEST(Io, GraphRejectsMalformedInput) {
  {
    std::stringstream buffer("3 1\n0 0 1.0\n");  // self loop
    EXPECT_FALSE(io::read_graph(buffer).has_value());
  }
  {
    std::stringstream buffer("2 2\n0 1 1.0\n");  // missing edge line
    EXPECT_FALSE(io::read_graph(buffer).has_value());
  }
  {
    std::stringstream buffer("2 1\n0 5 1.0\n");  // vertex out of range
    EXPECT_FALSE(io::read_graph(buffer).has_value());
  }
  {
    std::stringstream buffer("2 1 extra\n0 1 1.0\n");  // header garbage
    EXPECT_FALSE(io::read_graph(buffer).has_value());
  }
  {
    std::stringstream buffer("2 1\n0 1 1.0 junk\n");  // edge-line garbage
    EXPECT_FALSE(io::read_graph(buffer).has_value());
  }
  {
    std::stringstream buffer("2 1\n0 1 x\n");  // non-numeric capacity
    EXPECT_FALSE(io::read_graph(buffer).has_value());
  }
}

TEST(Io, GraphToleratesHandEditedWhitespaceAndComments) {
  // Blank lines, trailing whitespace/CR, full-line and inline comments:
  // the shape a checked-in, hand-edited file actually has.
  std::stringstream buffer(
      "# topology\n"
      "\n"
      "3 2   # n m\n"
      "0 1 2.5\t\n"
      "   \n"
      "1 2 1.0 # uplink\r\n");
  const auto g = io::read_graph(buffer);
  ASSERT_TRUE(g.has_value());
  EXPECT_EQ(g->num_vertices(), 3);
  EXPECT_EQ(g->num_edges(), 2);
  EXPECT_DOUBLE_EQ(g->edge(0).capacity, 2.5);
}

TEST(Io, DemandRoundTrip) {
  Demand d;
  d.set(0, 3, 1.5);
  d.set(2, 1, 4.0);
  std::stringstream buffer;
  io::write_demand(buffer, d);
  const auto loaded = io::read_demand(buffer);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_DOUBLE_EQ(loaded->at(0, 3), 1.5);
  EXPECT_DOUBLE_EQ(loaded->at(2, 1), 4.0);
  EXPECT_EQ(loaded->support_size(), 2u);
}

TEST(Io, DemandCommentsAndBlanksIgnored) {
  std::stringstream buffer("# header\n\n0 1 2.0\n  # another\n1 2 1.0\n");
  const auto loaded = io::read_demand(buffer);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->support_size(), 2u);
}

TEST(Io, DemandRejectsSelfLoopAndNegatives) {
  {
    std::stringstream buffer("1 1 2.0\n");
    EXPECT_FALSE(io::read_demand(buffer).has_value());
  }
  {
    std::stringstream buffer("0 1 -2.0\n");
    EXPECT_FALSE(io::read_demand(buffer).has_value());
  }
  for (const char* line : {"-1 5 2.0\n", "3 -4 1.5\n"}) {
    std::stringstream buffer(line);
    EXPECT_FALSE(io::read_demand(buffer).has_value()) << line;
  }
}

TEST(Io, DemandRejectsTrailingGarbageInsteadOfIgnoringIt) {
  {
    std::stringstream buffer("0 1 2.0 surprise\n");
    EXPECT_FALSE(io::read_demand(buffer).has_value());
  }
  {
    std::stringstream buffer("0 1\n");  // missing value
    EXPECT_FALSE(io::read_demand(buffer).has_value());
  }
  {
    // Inline comments and trailing whitespace are NOT garbage.
    std::stringstream buffer("0 1 2.0   # peak-hour flow\t\n");
    const auto d = io::read_demand(buffer);
    ASSERT_TRUE(d.has_value());
    EXPECT_DOUBLE_EQ(d->at(0, 1), 2.0);
  }
}

TEST(Io, PathSystemRoundTrip) {
  const Graph g = gen::grid(3, 3);
  RandomShortestPathRouting routing(g);
  Rng rng(1);
  const PathSystem ps = sample_path_system(
      routing, 3, {{0, 8}, {2, 6}}, rng);
  std::stringstream buffer;
  io::write_path_system(buffer, ps);
  const auto loaded = io::read_path_system(buffer, g);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->total_paths(), ps.total_paths());
  EXPECT_EQ(loaded->paths(0, 8).size(), 3u);
  for (const Path& p : loaded->paths(0, 8)) {
    EXPECT_TRUE(is_valid_path(g, p, 0, 8));
  }
}

TEST(Io, PathSystemRejectsInvalidPath) {
  const Graph g = gen::grid(2, 2);
  std::stringstream buffer("0 3 0 3\n");  // 0 and 3 are not adjacent
  EXPECT_FALSE(io::read_path_system(buffer, g).has_value());
}

TEST(Io, PathSystemRejectsNonNumericVertexTokens) {
  const Graph g = gen::grid(2, 2);
  {
    // grid(2,2) vertex order: 0-1 top row, 2-3 bottom; 0-1-3 is a path.
    std::stringstream buffer("0 3 0 1 3 oops\n");
    EXPECT_FALSE(io::read_path_system(buffer, g).has_value());
  }
  {
    std::stringstream buffer("0 3 0 1 3   # valid, commented\n");
    const auto ps = io::read_path_system(buffer, g);
    ASSERT_TRUE(ps.has_value());
    EXPECT_EQ(ps->total_paths(), 1u);
  }
}

TEST(Io, DotOutputContainsEdgesAndLoads) {
  Graph g(3);
  g.add_edge(0, 1, 2.0);
  g.add_edge(1, 2, 1.0);
  std::stringstream plain;
  io::write_dot(plain, g);
  const std::string text = plain.str();
  EXPECT_NE(text.find("graph sor {"), std::string::npos);
  EXPECT_NE(text.find("0 -- 1"), std::string::npos);
  EXPECT_NE(text.find("1 -- 2"), std::string::npos);

  std::stringstream loaded;
  const std::vector<double> load = {4.0, 0.0};
  io::write_dot(loaded, g, &load);
  EXPECT_NE(loaded.str().find("penwidth"), std::string::npos);
}

}  // namespace
}  // namespace sor
