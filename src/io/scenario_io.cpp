#include "io/scenario_io.h"

#include <algorithm>
#include <cmath>
#include <istream>
#include <limits>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "api/backend_registry.h"
#include "io/serialization.h"

namespace sor::io {
namespace {

using detail::format_double;
using detail::fully_consumed;
using detail::next_content_line;
using scenario::LinkChurnSpec;
using scenario::LinkEvent;
using scenario::ReinstallPolicy;
using scenario::ScenarioSpec;
using scenario::ScenarioTrace;
using scenario::TrafficModelSpec;

std::string churn_to_string(const LinkChurnSpec& churn) {
  return "rate=" + format_double(churn.rate) +
         ",down_factor=" + format_double(churn.down_factor) +
         ",mean_outage=" + std::to_string(churn.mean_outage);
}

std::optional<LinkChurnSpec> parse_churn(const std::string& text) {
  BackendSpec flat;
  try {
    flat = BackendSpec::parse("churn:" + text);  // reuse the k=v grammar
  } catch (const std::invalid_argument&) {
    return std::nullopt;
  }
  LinkChurnSpec churn;
  for (const auto& [key, value] : flat.params) {
    if (key == "rate") {
      churn.rate = value;
    } else if (key == "down_factor") {
      churn.down_factor = value;
    } else if (key == "mean_outage") {
      // Range-check before the cast: a double past int's range has no int.
      if (value < 1.0 || value > std::numeric_limits<int>::max()) {
        return std::nullopt;
      }
      churn.mean_outage = static_cast<int>(value);
    } else {
      return std::nullopt;
    }
  }
  if (churn.rate < 0.0 || churn.rate > 1.0 || churn.down_factor <= 0.0 ||
      churn.mean_outage < 1) {
    return std::nullopt;
  }
  return churn;
}

/// The spec format's `name` is one token; whitespace or a '#' in the
/// in-memory name would produce a file read_scenario rejects (or silently
/// truncates), so the writer folds those characters to '-'.
std::string sanitized_name(const std::string& name) {
  std::string out = name.empty() ? "scenario" : name;
  for (char& c : out) {
    if (c == ' ' || c == '\t' || c == '\r' || c == '\n' || c == '#') c = '-';
  }
  return out;
}

void write_event(std::ostream& out, const LinkEvent& ev) {
  out << "event " << ev.epoch << ' ' << LinkEvent::kind_name(ev.kind) << ' '
      << ev.u << ' ' << ev.v;
  if (ev.kind == LinkEvent::Kind::kScale) out << ' ' << format_double(ev.factor);
  out << '\n';
}

/// Parses the part after the "event" keyword.
std::optional<LinkEvent> parse_event(std::istream& in) {
  LinkEvent ev;
  std::string kind_text;
  if (!(in >> ev.epoch >> kind_text >> ev.u >> ev.v)) return std::nullopt;
  const auto kind = LinkEvent::parse_kind(kind_text);
  if (!kind) return std::nullopt;
  ev.kind = *kind;
  if (ev.kind == LinkEvent::Kind::kScale) {
    if (!(in >> ev.factor) || ev.factor <= 0.0 || !std::isfinite(ev.factor)) {
      return std::nullopt;
    }
  }
  if (!fully_consumed(in)) return std::nullopt;
  if (ev.epoch < 0 || ev.u < 0 || ev.v < 0 || ev.u == ev.v) {
    return std::nullopt;
  }
  return ev;
}

}  // namespace

void write_scenario(std::ostream& out, const ScenarioSpec& spec) {
  out << "scenario v1\n";
  out << "name " << sanitized_name(spec.name) << '\n';
  out << "topology " << spec.topology << ' ' << spec.size;
  if (spec.topology == "expander") out << ' ' << spec.degree;
  out << '\n';
  if (!spec.backend.empty()) out << "backend " << spec.backend << '\n';
  out << "seed " << spec.seed << '\n';
  out << "epochs " << spec.epochs << '\n';
  out << "alpha " << spec.alpha << '\n';
  out << "install_horizon " << spec.install_horizon << '\n';
  out << "measure_ratio " << (spec.measure_ratio ? 1 : 0) << '\n';
  out << "rebuild_backend " << (spec.rebuild_backend ? 1 : 0) << '\n';
  out << "reinstall " << spec.reinstall.to_string() << '\n';
  // The solve, degrade and warm-start lines are written only when they
  // differ from their defaults.
  if (spec.solve != MinCongestionOptions{}) {
    out << "solve " << spec.solve.to_string() << '\n';
  }
  if (spec.degrade != scenario::DegradePolicy::kFail) {
    out << "degrade " << scenario::to_string(spec.degrade) << '\n';
  }
  if (spec.warm_start) out << "warm_start 1\n";
  out << "model " << spec.model.to_string() << '\n';
  out << "churn " << churn_to_string(spec.churn) << '\n';
  for (const LinkEvent& ev : spec.events) write_event(out, ev);
}

std::optional<ScenarioSpec> read_scenario(std::istream& in) {
  std::string line;
  if (!next_content_line(in, line) || line != "scenario v1") {
    return std::nullopt;
  }
  ScenarioSpec spec;
  while (next_content_line(in, line)) {
    std::istringstream ls(line);
    std::string key;
    ls >> key;
    if (key == "name") {
      if (!(ls >> spec.name) || !fully_consumed(ls)) return std::nullopt;
    } else if (key == "topology") {
      if (!(ls >> spec.topology >> spec.size) || spec.size < 1) {
        return std::nullopt;
      }
      if (!fully_consumed(ls)) {  // optional expander degree
        if (!(ls >> spec.degree) || !fully_consumed(ls) || spec.degree < 1) {
          return std::nullopt;
        }
      }
    } else if (key == "backend") {
      if (!(ls >> spec.backend) || !fully_consumed(ls)) return std::nullopt;
      try {
        BackendSpec::parse(spec.backend);
      } catch (const std::invalid_argument&) {
        return std::nullopt;
      }
    } else if (key == "seed") {
      if (!(ls >> spec.seed) || !fully_consumed(ls)) return std::nullopt;
    } else if (key == "epochs") {
      if (!(ls >> spec.epochs) || !fully_consumed(ls) || spec.epochs < 1) {
        return std::nullopt;
      }
    } else if (key == "alpha") {
      if (!(ls >> spec.alpha) || !fully_consumed(ls) || spec.alpha < 1) {
        return std::nullopt;
      }
    } else if (key == "install_horizon") {
      if (!(ls >> spec.install_horizon) || !fully_consumed(ls)) {
        return std::nullopt;
      }
    } else if (key == "measure_ratio" || key == "rebuild_backend") {
      int flag = 0;
      if (!(ls >> flag) || !fully_consumed(ls) || (flag != 0 && flag != 1)) {
        return std::nullopt;
      }
      (key == "measure_ratio" ? spec.measure_ratio : spec.rebuild_backend) =
          flag == 1;
    } else if (key == "warm_start") {
      int flag = 0;
      if (!(ls >> flag) || !fully_consumed(ls) || (flag != 0 && flag != 1)) {
        return std::nullopt;
      }
      spec.warm_start = flag == 1;
    } else if (key == "reinstall") {
      std::string text;
      if (!(ls >> text) || !fully_consumed(ls)) return std::nullopt;
      const auto policy = ReinstallPolicy::parse(text);
      if (!policy) return std::nullopt;
      spec.reinstall = *policy;
    } else if (key == "degrade") {
      std::string text;
      if (!(ls >> text) || !fully_consumed(ls)) return std::nullopt;
      const auto policy = scenario::parse_degrade_policy(text);
      if (!policy) return std::nullopt;
      spec.degrade = *policy;
    } else if (key == "solve") {
      std::string text;
      if (!(ls >> text) || !fully_consumed(ls)) return std::nullopt;
      const auto solve = MinCongestionOptions::parse(text, {});
      if (!solve) return std::nullopt;
      spec.solve = *solve;
    } else if (key == "model") {
      std::string text;
      if (!(ls >> text) || !fully_consumed(ls)) return std::nullopt;
      const auto model = TrafficModelSpec::parse(text);
      if (!model) return std::nullopt;
      spec.model = *model;
    } else if (key == "churn") {
      std::string text;
      if (!(ls >> text) || !fully_consumed(ls)) return std::nullopt;
      const auto churn = parse_churn(text);
      if (!churn) return std::nullopt;
      spec.churn = *churn;
    } else if (key == "event") {
      const auto ev = parse_event(ls);
      if (!ev) return std::nullopt;
      spec.events.push_back(*ev);
    } else {
      return std::nullopt;  // unknown keyword: typos must fail loudly
    }
  }
  return spec;
}

void write_trace(std::ostream& out, const ScenarioTrace& trace) {
  out << "trace v1\n";
  out << "epochs " << trace.demands.size() << '\n';
  for (const LinkEvent& ev : trace.events) write_event(out, ev);
  for (std::size_t e = 0; e < trace.demands.size(); ++e) {
    out << "epoch " << e << '\n';
    for (const auto& [pair, value] : trace.demands[e].entries()) {
      out << pair.first << ' ' << pair.second << ' ' << format_double(value)
          << '\n';
    }
  }
}

std::optional<ScenarioTrace> read_trace(std::istream& in, int num_vertices) {
  const auto in_bounds = [num_vertices](int v) {
    return num_vertices <= 0 || v < num_vertices;
  };
  std::string line;
  if (!next_content_line(in, line) || line != "trace v1") return std::nullopt;
  if (!next_content_line(in, line)) return std::nullopt;
  std::istringstream header(line);
  std::string key;
  int epochs = 0;
  if (!(header >> key >> epochs) || !fully_consumed(header) ||
      key != "epochs" || epochs < 0) {
    return std::nullopt;
  }

  // One demand per "epoch" line read, never `epochs` up front: the header
  // is a claim about the file, not a size it has shown.
  ScenarioTrace trace;
  int current = -1;  // no "epoch" header seen yet
  while (next_content_line(in, line)) {
    std::istringstream ls(line);
    ls >> key;
    if (key == "event") {
      const auto ev = parse_event(ls);
      if (!ev || ev->epoch >= epochs || !in_bounds(ev->u) ||
          !in_bounds(ev->v)) {
        return std::nullopt;
      }
      trace.events.push_back(*ev);
    } else if (key == "epoch") {
      int index = 0;
      if (!(ls >> index) || !fully_consumed(ls) || index != current + 1 ||
          index >= epochs) {
        return std::nullopt;  // epochs must appear in order 0..epochs-1
      }
      current = index;
      trace.demands.emplace_back();
    } else {
      // A demand triple for the current epoch.
      std::istringstream triple(line);
      int s = 0;
      int t = 0;
      double value = 0.0;
      if (current < 0 || !(triple >> s >> t >> value) ||
          !fully_consumed(triple) || s == t || s < 0 || t < 0 ||
          !in_bounds(s) || !in_bounds(t) || value < 0.0 ||
          !std::isfinite(value)) {
        return std::nullopt;
      }
      trace.demands.back().set(s, t, value);
    }
  }
  if (current != epochs - 1) return std::nullopt;  // missing epoch sections
  // The runner consumes events epoch-sorted; hand-edited files need not be.
  scenario::sort_events(trace.events);
  return trace;
}

}  // namespace sor::io
