// Text serialization for scenario specs and materialized traces — the same
// check-in-and-diff discipline as read_graph/read_demand: line-oriented,
// hand-editable, '#' comments (full-line or inline), blank lines and
// trailing whitespace ignored, and malformed input answered with nullopt
// rather than UB or silent defaults.
//
// Spec format (keyword lines in any order after the magic first line):
//
//   scenario v1
//   name diurnal
//   topology torus 8            # name size [degree]
//   backend racke:num_trees=6   # optional; omitted = topology default
//   seed 7
//   epochs 12
//   alpha 4
//   install_horizon 0           # <= 0 = whole-trace support union
//   measure_ratio 1
//   rebuild_backend 0
//   reinstall every_k:4
//   solve rounds=64,target_gap=1.05,deadline_ms=0  # omitted = defaults
//   model diurnal_gravity:total=128,amplitude=0.6,period=6
//   churn rate=0.2,down_factor=0.05,mean_outage=2
//   event 4 down 0 1            # event EPOCH down|up U V
//   event 6 scale 2 3 0.5       # event EPOCH scale U V FACTOR
//
// Trace format (demand values in shortest-round-trip decimal, so a dumped
// trace reloads bit-identically):
//
//   trace v1
//   epochs 3
//   event 1 down 0 1
//   epoch 0
//   0 5 1.25                    # s t value
//   epoch 1
//   epoch 2
//   0 5 0.5
#pragma once

#include <iosfwd>
#include <optional>

#include "scenario/scenario.h"

namespace sor::io {

void write_scenario(std::ostream& out, const scenario::ScenarioSpec& spec);
std::optional<scenario::ScenarioSpec> read_scenario(std::istream& in);

void write_trace(std::ostream& out, const scenario::ScenarioTrace& trace);
/// `num_vertices > 0` additionally bounds every demand endpoint and event
/// endpoint against the target graph — pass graph().num_vertices() when
/// the trace will be replayed, so an out-of-range id in a hand-edited
/// file is a clean nullopt here instead of out-of-bounds indexing in the
/// samplers downstream.
std::optional<scenario::ScenarioTrace> read_trace(std::istream& in,
                                                  int num_vertices = 0);

}  // namespace sor::io
