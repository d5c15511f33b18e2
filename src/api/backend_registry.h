// Oblivious-backend registry: construct any ObliviousRouting substrate by
// name + numeric parameters, without the caller naming a concrete class.
//
// This is Stage 1 of the pipeline behind one stable surface. Each
// implementation file under src/oblivious/ registers its own factories
// (self-registration), so adding a substrate means touching exactly one
// translation unit; the registry pulls those units in through link anchors
// so static-library builds cannot silently drop them.
//
// Specs are plain data and have a flat text form, so CLI flags, config
// files, and tests all talk the same language:
//
//   BackendSpec::parse("racke:num_trees=10,eta=6")
//   BackendSpec::parse("valiant")
//
// Unknown names or malformed specs throw std::invalid_argument with the
// list of registered names, which is also what `sor_cli --list-backends`
// prints.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "oblivious/routing.h"
#include "util/rng.h"

namespace sor {

namespace util {
class ThreadPool;
}  // namespace util

/// A backend selection: registry name plus numeric knobs. Every knob is a
/// double (ints are rounded by the factories); unknown keys are rejected at
/// construction time by the factory's declared key list.
struct BackendSpec {
  std::string name;
  std::map<std::string, double> params;

  /// The knob value, or `fallback` when the key is absent.
  double param(const std::string& key, double fallback) const;
  int param_int(const std::string& key, int fallback) const;

  /// Parses "name" or "name:key=value,key=value". Throws
  /// std::invalid_argument on malformed input (empty name, bad number).
  static BackendSpec parse(const std::string& text);

  /// Round-trip back to the flat text form. Knob values print in
  /// shortest round-trip decimal, so parse(to_string()) == *this.
  std::string to_string() const;
};

/// Process-wide name -> factory table for oblivious routing substrates.
class BackendRegistry {
 public:
  /// `pool` is the caller's worker pool for backends whose construction
  /// fans out (racke builds each wave's trees on it); null = serial. The
  /// pool never changes a backend's output, only its wall-clock.
  using Factory = std::function<std::unique_ptr<ObliviousRouting>(
      const Graph& g, const BackendSpec& spec, Rng& rng,
      util::ThreadPool* pool)>;

  struct Entry {
    std::string description;          ///< one-liner for --list-backends
    std::vector<std::string> keys;    ///< accepted param keys
    Factory factory;
  };

  /// The singleton, with all built-in src/oblivious/ backends registered.
  static BackendRegistry& instance();

  /// Registers a factory. Re-registering an existing name replaces it (the
  /// self-registration hooks are idempotent under repeated linking).
  void add(const std::string& name, Entry entry);

  bool has(const std::string& name) const;
  /// All registered names, sorted.
  std::vector<std::string> names() const;
  /// Description for a registered name; throws std::invalid_argument else.
  const std::string& description(const std::string& name) const;

  /// Builds the substrate `spec` names over `g`, fanning construction out
  /// on `pool` when the backend can (null = serial; SorEngine passes its
  /// own pool). Throws std::invalid_argument for unknown names, unknown
  /// param keys (the message lists the accepted ones), or parameters the
  /// backend rejects (e.g. "valiant" on a non-hypercube).
  std::unique_ptr<ObliviousRouting> make(
      const Graph& g, const BackendSpec& spec, Rng& rng,
      util::ThreadPool* pool = nullptr) const;

  /// Convenience: make(g, BackendSpec::parse(text), rng, pool).
  std::unique_ptr<ObliviousRouting> make(
      const Graph& g, const std::string& spec_text, Rng& rng,
      util::ThreadPool* pool = nullptr) const;

 private:
  BackendRegistry() = default;
  std::map<std::string, Entry> entries_;
};

namespace detail {
// Self-registration hooks, one per src/oblivious/ implementation file.
// Each is defined next to the classes it registers. The registry calls
// them on first use (passing itself, so the hooks never re-enter
// instance()), which also forces the linker to keep those archive members
// alive in static-library builds.
void register_racke_backends(BackendRegistry& registry);  // "racke", "frt"
void register_hypercube_backends(BackendRegistry& registry);  // "valiant", "greedy_bitfix"
void register_shortest_path_backends(BackendRegistry& registry);  // "shortest_path", "shortest_path_det"
void register_hop_constrained_backends(BackendRegistry& registry);  // "hop_constrained"
}  // namespace detail

}  // namespace sor
