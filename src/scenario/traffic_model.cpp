#include "scenario/traffic_model.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "api/backend_registry.h"
#include "io/serialization.h"

namespace sor::scenario {
namespace {

struct ModelInfo {
  TrafficModelSpec::Kind kind;
  const char* name;
  std::vector<const char*> keys;
};

const std::vector<ModelInfo>& models() {
  static const std::vector<ModelInfo> table = {
      {TrafficModelSpec::Kind::kDiurnalGravity,
       "diurnal_gravity",
       {"total", "amplitude", "period", "max_pairs"}},
      {TrafficModelSpec::Kind::kHotspotBurst,
       "hotspot_burst",
       {"total", "max_pairs", "hotspots", "fanin", "amount", "burst_every",
        "phase"}},
      {TrafficModelSpec::Kind::kFlashCrowd,
       "flash_crowd",
       {"total", "max_pairs", "sink", "start", "ramp", "hold", "decay",
        "fanin", "amount"}},
      {TrafficModelSpec::Kind::kPermutationStorm, "permutation_storm",
       {"amount"}},
      {TrafficModelSpec::Kind::kStrideSweep,
       "stride_sweep",
       {"stride", "step", "amount"}},
  };
  return table;
}

const ModelInfo& info_for(TrafficModelSpec::Kind kind) {
  for (const ModelInfo& m : models()) {
    if (m.kind == kind) return m;
  }
  throw std::logic_error("unknown traffic model kind");
}

Demand scaled(const Demand& d, double factor) {
  if (factor == 1.0) return d;
  Demand out;
  for (const auto& [pair, value] : d.entries()) {
    out.set(pair.first, pair.second, value * factor);
  }
  return out;
}

/// Shared gravity base of the burst/crowd models. `total <= 0` defaults to
/// 2n (a few units per vertex); `max_pairs <= 0` keeps every pair.
Demand gravity_base(const Graph& g, const TrafficModelSpec& spec,
                    double scale) {
  const int n = g.num_vertices();
  const double total = spec.param("total", 2.0 * n);
  const int max_pairs = spec.param_int("max_pairs", 3 * n);
  return gen::gravity_demand(g, total * scale, std::max(max_pairs, 0));
}

/// Adds `fanin` unit-ish flows from distinct random sources into `sink`
/// (distinct within this incast — a redrawn source would otherwise pile
/// double volume on one pair and shrink the fresh-pair support the drift
/// trigger is tuned around; overlap with the base demand still adds).
void add_incast(Demand& d, int n, int sink, int fanin, double amount,
                Rng& rng) {
  std::vector<char> used(static_cast<std::size_t>(n), 0);
  int added = 0;
  int guard = 0;
  while (added < fanin && guard < 50 * fanin + 200) {
    ++guard;
    const int src =
        static_cast<int>(rng.uniform_u64(static_cast<std::uint64_t>(n)));
    if (src == sink || used[static_cast<std::size_t>(src)]) continue;
    used[static_cast<std::size_t>(src)] = 1;
    d.add(src, sink, amount);
    ++added;
  }
}

}  // namespace

double TrafficModelSpec::param(const std::string& key, double fallback) const {
  auto it = params.find(key);
  return it == params.end() ? fallback : it->second;
}

int TrafficModelSpec::param_int(const std::string& key, int fallback) const {
  auto it = params.find(key);
  return it == params.end() ? fallback
                            : static_cast<int>(std::llround(it->second));
}

const char* TrafficModelSpec::kind_name(Kind kind) { return info_for(kind).name; }

std::optional<TrafficModelSpec> TrafficModelSpec::parse(
    const std::string& text) {
  BackendSpec flat;
  try {
    flat = BackendSpec::parse(text);  // same "name:k=v,..." grammar
  } catch (const std::invalid_argument&) {
    return std::nullopt;
  }
  for (const ModelInfo& m : models()) {
    if (flat.name != m.name) continue;
    for (const auto& [key, value] : flat.params) {
      if (std::find_if(m.keys.begin(), m.keys.end(), [&](const char* k) {
            return key == k;
          }) == m.keys.end()) {
        return std::nullopt;  // typo'd knob: fail loudly
      }
    }
    TrafficModelSpec spec;
    spec.kind = m.kind;
    spec.params = flat.params;
    return spec;
  }
  return std::nullopt;
}

std::string TrafficModelSpec::to_string() const {
  std::string out = kind_name(kind);
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

Demand epoch_demand(const Graph& g, const TrafficModelSpec& spec, int epoch,
                    Rng& rng) {
  const int n = g.num_vertices();
  switch (spec.kind) {
    case TrafficModelSpec::Kind::kDiurnalGravity: {
      const double amplitude = spec.param("amplitude", 0.5);
      const int period = std::max(spec.param_int("period", 8), 1);
      const double phase = 2.0 * 3.14159265358979323846 *
                           static_cast<double>(epoch) /
                           static_cast<double>(period);
      const double scale = std::max(1.0 + amplitude * std::sin(phase), 0.05);
      return gravity_base(g, spec, scale);
    }
    case TrafficModelSpec::Kind::kHotspotBurst: {
      Demand d = gravity_base(g, spec, 1.0);
      const int burst_every = std::max(spec.param_int("burst_every", 4), 1);
      const int phase = spec.param_int("phase", 1);
      if ((epoch - phase) % burst_every == 0) {
        const int hotspots = std::max(spec.param_int("hotspots", 2), 1);
        const int fanin = std::max(spec.param_int("fanin", n / 4), 1);
        const double amount = spec.param("amount", 1.0);
        const std::vector<int> order = rng.permutation(n);
        for (int h = 0; h < hotspots; ++h) {
          add_incast(d, n, order[static_cast<std::size_t>(h % n)], fanin,
                     amount, rng);
        }
      }
      return d;
    }
    case TrafficModelSpec::Kind::kFlashCrowd: {
      Demand d = gravity_base(g, spec, 1.0);
      const int sink = spec.param_int("sink", n / 2);
      const int start = spec.param_int("start", 2);
      const int ramp = std::max(spec.param_int("ramp", 2), 1);
      const int hold = std::max(spec.param_int("hold", 3), 0);
      const int decay = std::max(spec.param_int("decay", 2), 1);
      const int fanin = std::max(spec.param_int("fanin", n / 2), 1);
      const double amount = spec.param("amount", 1.0);
      const int e = epoch - start;
      double intensity = 0.0;
      if (e >= 0 && e < ramp) {
        intensity = static_cast<double>(e + 1) / static_cast<double>(ramp);
      } else if (e >= ramp && e < ramp + hold) {
        intensity = 1.0;
      } else if (e >= ramp + hold && e < ramp + hold + decay) {
        intensity = 1.0 - static_cast<double>(e - ramp - hold + 1) /
                              static_cast<double>(decay + 1);
      }
      const int crowd =
          static_cast<int>(std::lround(intensity * static_cast<double>(fanin)));
      if (crowd > 0 && sink >= 0 && sink < n) {
        add_incast(d, n, sink, crowd, amount, rng);
      }
      return d;
    }
    case TrafficModelSpec::Kind::kPermutationStorm: {
      const double amount = spec.param("amount", 1.0);
      return scaled(gen::random_permutation_demand(n, rng), amount);
    }
    case TrafficModelSpec::Kind::kStrideSweep: {
      const double amount = spec.param("amount", 1.0);
      const int base = std::max(spec.param_int("stride", 1), 1);
      const int step = std::max(spec.param_int("step", 1), 0);
      if (n < 2) return {};
      const int stride = 1 + (base - 1 + epoch * step) % (n - 1);
      return scaled(gen::stride_demand(n, stride), amount);
    }
  }
  return {};
}

}  // namespace sor::scenario
