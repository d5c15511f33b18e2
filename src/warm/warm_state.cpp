#include "warm/warm_state.h"

namespace sor::warm {

bool demand_matches(std::span<const DemandEntry> prev, const Demand& cur) {
  if (prev.size() != cur.entries().size()) return false;
  std::size_t i = 0;
  for (const auto& [pair, value] : cur.entries()) {
    if (prev[i].s != pair.first || prev[i].t != pair.second ||
        prev[i].value != value) {
      return false;
    }
    ++i;
  }
  return true;
}

}  // namespace sor::warm
