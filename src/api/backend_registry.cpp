#include "api/backend_registry.h"

#include <algorithm>
#include <cmath>
#include <mutex>
#include <sstream>
#include <stdexcept>

#include "io/serialization.h"

namespace sor {

double BackendSpec::param(const std::string& key, double fallback) const {
  auto it = params.find(key);
  return it == params.end() ? fallback : it->second;
}

int BackendSpec::param_int(const std::string& key, int fallback) const {
  auto it = params.find(key);
  return it == params.end() ? fallback
                            : static_cast<int>(std::llround(it->second));
}

BackendSpec BackendSpec::parse(const std::string& text) {
  BackendSpec spec;
  const std::size_t colon = text.find(':');
  spec.name = text.substr(0, colon);
  if (spec.name.empty()) {
    throw std::invalid_argument("backend spec has an empty name: \"" + text +
                                "\"");
  }
  if (colon == std::string::npos) return spec;

  std::stringstream rest(text.substr(colon + 1));
  std::string item;
  while (std::getline(rest, item, ',')) {
    const std::size_t eq = item.find('=');
    if (eq == std::string::npos || eq == 0) {
      throw std::invalid_argument("backend spec expects key=value, got \"" +
                                  item + "\" in \"" + text + "\"");
    }
    const std::string key = item.substr(0, eq);
    const std::string value = item.substr(eq + 1);
    std::size_t used = 0;
    double parsed = 0.0;
    try {
      parsed = std::stod(value, &used);
    } catch (const std::exception&) {
      used = 0;
    }
    if (used != value.size() || value.empty()) {
      throw std::invalid_argument("backend spec param " + key +
                                  " has a non-numeric value \"" + value +
                                  "\" in \"" + text + "\"");
    }
    // std::stod reads "nan" and "inf" too. No knob of a backend, traffic
    // model or churn spec (all parsed here) means anything non-finite.
    if (!std::isfinite(parsed)) {
      throw std::invalid_argument("backend spec param " + key +
                                  " has a non-finite value \"" + value +
                                  "\" in \"" + text + "\"");
    }
    spec.params[key] = parsed;
  }
  return spec;
}

std::string BackendSpec::to_string() const {
  std::string out = name;
  char sep = ':';
  for (const auto& [key, value] : params) {
    out += sep;
    out += key;
    out += '=';
    out += io::detail::format_double(value);
    sep = ',';
  }
  return out;
}

BackendRegistry& BackendRegistry::instance() {
  static BackendRegistry registry;
  // First use wires in every built-in backend. Calling named functions
  // defined in the implementation files (instead of relying on static
  // initializers there) guarantees the archive members are linked in.
  static std::once_flag builtins;
  std::call_once(builtins, [] {
    detail::register_racke_backends(registry);
    detail::register_hypercube_backends(registry);
    detail::register_shortest_path_backends(registry);
    detail::register_hop_constrained_backends(registry);
  });
  return registry;
}

void BackendRegistry::add(const std::string& name, Entry entry) {
  if (name.empty() || !entry.factory) {
    throw std::invalid_argument("backend registration needs a name and a factory");
  }
  entries_[name] = std::move(entry);
}

bool BackendRegistry::has(const std::string& name) const {
  return entries_.find(name) != entries_.end();
}

std::vector<std::string> BackendRegistry::names() const {
  std::vector<std::string> out;
  out.reserve(entries_.size());
  for (const auto& [name, entry] : entries_) out.push_back(name);
  return out;
}

const std::string& BackendRegistry::description(const std::string& name) const {
  auto it = entries_.find(name);
  if (it == entries_.end()) {
    throw std::invalid_argument("unknown backend \"" + name + "\"");
  }
  return it->second.description;
}

std::unique_ptr<ObliviousRouting> BackendRegistry::make(
    const Graph& g, const BackendSpec& spec, Rng& rng,
    util::ThreadPool* pool) const {
  auto it = entries_.find(spec.name);
  if (it == entries_.end()) {
    std::ostringstream msg;
    msg << "unknown backend \"" << spec.name << "\"; registered:";
    for (const auto& name : names()) msg << ' ' << name;
    throw std::invalid_argument(msg.str());
  }
  const Entry& entry = it->second;
  for (const auto& [key, value] : spec.params) {
    if (std::find(entry.keys.begin(), entry.keys.end(), key) ==
        entry.keys.end()) {
      std::ostringstream msg;
      msg << "backend \"" << spec.name << "\" does not take param \"" << key
          << "\"; accepted:";
      if (entry.keys.empty()) msg << " (none)";
      for (const auto& k : entry.keys) msg << ' ' << k;
      throw std::invalid_argument(msg.str());
    }
  }
  return entry.factory(g, spec, rng, pool);
}

std::unique_ptr<ObliviousRouting> BackendRegistry::make(
    const Graph& g, const std::string& spec_text, Rng& rng,
    util::ThreadPool* pool) const {
  return make(g, BackendSpec::parse(spec_text), rng, pool);
}

}  // namespace sor
