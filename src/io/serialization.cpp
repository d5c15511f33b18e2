#include "io/serialization.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <istream>
#include <ostream>
#include <sstream>

namespace sor::io {

namespace detail {

bool next_content_line(std::istream& in, std::string& line) {
  int line_no = 0;
  return next_content_line(in, line, line_no);
}

bool next_content_line(std::istream& in, std::string& line, int& line_no) {
  while (std::getline(in, line)) {
    ++line_no;
    const auto hash = line.find('#');  // full-line AND inline comments
    if (hash != std::string::npos) line.erase(hash);
    const auto last = line.find_last_not_of(" \t\r");
    if (last == std::string::npos) continue;  // blank or comment-only
    line.erase(last + 1);
    return true;
  }
  return false;
}

bool fully_consumed(std::istream& in) {
  in >> std::ws;
  return in.eof();
}

std::string format_double(double value) {
  char buffer[64];
  const auto [end, ec] =
      std::to_chars(buffer, buffer + sizeof(buffer), value);
  return ec == std::errc() ? std::string(buffer, end) : std::string("0");
}

}  // namespace detail

using detail::fully_consumed;
using detail::next_content_line;

void write_dot(std::ostream& out, const Graph& g,
               const std::vector<double>* edge_load) {
  out << "graph sor {\n";
  out << "  node [shape=circle, fontsize=10];\n";
  double max_rel = 0.0;
  if (edge_load) {
    for (int e = 0; e < g.num_edges(); ++e) {
      max_rel = std::max(max_rel, (*edge_load)[static_cast<std::size_t>(e)] /
                                      g.edge(e).capacity);
    }
  }
  for (int e = 0; e < g.num_edges(); ++e) {
    const Edge& edge = g.edge(e);
    out << "  " << edge.u << " -- " << edge.v << " [label=\"" << edge.capacity
        << "\"";
    if (edge_load && max_rel > 0.0) {
      const double rel =
          (*edge_load)[static_cast<std::size_t>(e)] / edge.capacity / max_rel;
      out << ", penwidth=" << (1.0 + 4.0 * rel);
    }
    out << "];\n";
  }
  out << "}\n";
}

void write_demand(std::ostream& out, const Demand& d) {
  out << "# demand: s t value\n";
  for (const auto& [pair, value] : d.entries()) {
    out << pair.first << ' ' << pair.second << ' ' << value << '\n';
  }
}

std::optional<Demand> read_demand(std::istream& in) {
  Demand d;
  std::string line;
  while (next_content_line(in, line)) {
    std::istringstream ls(line);
    int s = 0;
    int t = 0;
    double value = 0.0;
    if (!(ls >> s >> t >> value) || !fully_consumed(ls) || s < 0 || t < 0 ||
        s == t || value < 0.0 || !std::isfinite(value)) {
      return std::nullopt;
    }
    d.set(s, t, value);
  }
  return d;
}

void write_path_system(std::ostream& out, const PathSystem& ps) {
  out << "# path system: s t v0 v1 ... vk\n";
  for (const auto& [pair, refs] : ps.entries()) {
    for (PathRef ref : refs) {
      out << pair.first << ' ' << pair.second;
      for (int v : ps.store().vertices(ref)) out << ' ' << v;
      out << '\n';
    }
  }
}

std::optional<PathSystem> read_path_system(std::istream& in, const Graph& g) {
  PathSystem ps(g);  // loaded paths are interned on the fly
  std::string line;
  while (next_content_line(in, line)) {
    std::istringstream ls(line);
    int s = 0;
    int t = 0;
    if (!(ls >> s >> t)) return std::nullopt;
    Path p;
    int v = 0;
    while (ls >> v) p.push_back(v);
    // The vertex loop must have stopped at end-of-line, not at a token
    // that fails to parse as a vertex.
    if (!ls.eof()) return std::nullopt;
    // A path system routes distinct pairs; "v v v" is a valid path but no
    // pair.
    if (s == t || !is_valid_path(g, p, s, t)) return std::nullopt;
    ps.add_path(s, t, std::move(p));
  }
  return ps;
}

void write_graph(std::ostream& out, const Graph& g) {
  out << g.num_vertices() << ' ' << g.num_edges() << '\n';
  for (const Edge& e : g.edges()) {
    out << e.u << ' ' << e.v << ' ' << e.capacity << '\n';
  }
}

std::optional<Graph> read_graph(std::istream& in) {
  std::string line;
  if (!next_content_line(in, line)) return std::nullopt;
  std::istringstream header(line);
  int n = 0;
  int m = 0;
  if (!(header >> n >> m) || !fully_consumed(header) || n < 0 || m < 0) {
    return std::nullopt;
  }
  Graph g(n);
  for (int i = 0; i < m; ++i) {
    if (!next_content_line(in, line)) return std::nullopt;
    std::istringstream ls(line);
    int u = 0;
    int v = 0;
    double cap = 0.0;
    if (!(ls >> u >> v >> cap) || !fully_consumed(ls) || u < 0 || v < 0 ||
        u >= n || v >= n || u == v || cap <= 0.0 || !std::isfinite(cap)) {
      return std::nullopt;
    }
    g.add_edge(u, v, cap);
  }
  return g;
}

}  // namespace sor::io
