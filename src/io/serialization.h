// Text serialization: Graphviz DOT export for graphs/routings, and a
// simple line-based format for demands and path systems so experiment
// inputs/outputs can be checked in, diffed, and reloaded.
#pragma once

#include <iosfwd>
#include <optional>
#include <string>

#include "core/demand.h"
#include "core/path_system.h"
#include "graph/graph.h"

namespace sor::io {

/// Writes the graph as Graphviz DOT ("graph { ... }"); edges carry their
/// capacity as a label. Optional per-edge load (size num_edges) is rendered
/// as a penwidth so congested edges stand out.
void write_dot(std::ostream& out, const Graph& g,
               const std::vector<double>* edge_load = nullptr);

/// Demand text format: one "s t value" triple per line, '#' comments.
void write_demand(std::ostream& out, const Demand& d);

/// Parses the demand format; returns nullopt on malformed input: a line
/// that is not exactly "s t value", a negative vertex id, s == t, or a
/// negative or non-finite value.
std::optional<Demand> read_demand(std::istream& in);

/// Path system text format: one "s t v0 v1 ... vk" line per candidate path.
void write_path_system(std::ostream& out, const PathSystem& ps);

/// Parses the path-system format (validating each path against `g`);
/// returns nullopt on malformed input, invalid paths or a pair with s == t.
std::optional<PathSystem> read_path_system(std::istream& in, const Graph& g);

/// Graph text format: first line "n m", then m lines "u v capacity".
void write_graph(std::ostream& out, const Graph& g);
std::optional<Graph> read_graph(std::istream& in);

namespace detail {
// Shared line discipline of every text reader in src/io/ (these files are
// hand-edited; scenario specs especially): blank lines and '#' comments —
// full-line or inline — are skipped/stripped, trailing whitespace is
// trimmed, and extractors reject lines with trailing garbage instead of
// silently ignoring it.

/// Advances to the next line with content after comment/whitespace
/// stripping, leaving that content (no trailing whitespace, no comment) in
/// `line`. Returns false at EOF.
bool next_content_line(std::istream& in, std::string& line);

/// As above, but counts every physical line consumed (including skipped
/// blank/comment lines) into `line_no` — for readers whose errors name
/// the offending 1-based line (start `line_no` at 0).
bool next_content_line(std::istream& in, std::string& line, int& line_no);

/// True iff `in` holds nothing but whitespace from its current position —
/// i.e. the extraction that just ran consumed the whole line.
bool fully_consumed(std::istream& in);

/// Shortest decimal form that round-trips the double exactly (to_chars):
/// what the scenario spec/trace writers emit so a written trace reloads
/// bit-identically while staying human-readable ("0.5", not 17 digits).
std::string format_double(double value);
}  // namespace detail

}  // namespace sor::io
