// Seeded inputs of the four workloads and the answers they must produce.
//
// Every input carries its expected static warnings as exact
// (rule, file, line) keys taken from an independent source: the
// generator's planted-bug manifest, the paper's warning registry
// (corpus::registry()), or, for the wide diamond modules built here, the
// bug planted by construction. The checker under test never supplies an
// expected answer.
#pragma once

#include <compare>
#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "core/analysis_driver.h"
#include "load/engine.h"
#include "serve/protocol.h"

namespace pb {

struct Key {
  std::string rule;
  std::string file;
  uint32_t line = 0;
  auto operator<=>(const Key&) const = default;
};
using KeySet = std::set<Key>;

struct Input {
  enum class Kind { kGen, kCorpus, kWide };
  Kind kind = Kind::kGen;
  std::string name;  ///< unit name; corpus modules keep "framework/module"
  std::string text;  ///< MIR text handed to the program
  deepmc::core::PersistencyModel model = deepmc::core::PersistencyModel::kStrict;
  KeySet expected;   ///< static warnings, exactly
};

/// splitmix64 step: the benchmark's only source of input randomness.
uint64_t mix(uint64_t seed, uint64_t salt);

/// The 21 paper corpus modules in registry order, as printed MIR.
std::vector<Input> corpus_inputs();

/// Generated program `index` of the stream for `seed`. Frameworks cycle
/// over all four idioms; every fifth program is a guaranteed-clean control.
Input gen_input(uint64_t seed, size_t index);

/// Shape of a wide, diamond-heavy module: `roots` roots, each a chain of
/// `diamonds` diamonds (2^diamonds paths, 256 at most under the trace
/// bound) with every store flushed and fenced; every `coupled`-th root
/// also calls one shared callee, so an edit to it dirties several roots.
struct WideShape {
  size_t roots, diamonds, coupled;
};
/// analyze-gen's are like bench_serve's module (24 roots x 8 diamonds);
/// serve-edit's are smaller, so a fresh reference run per edited response
/// stays cheap.
inline constexpr WideShape kAnalyzeWide{24, 8, 0};
inline constexpr WideShape kServeWide{12, 6, 4};

/// A wide module of shape `w`. Every fourth root ends with one store that
/// is fenced but never flushed: exactly one strict.unflushed-write each.
/// `salt` varies stored constants only, which changes the text and no
/// warning.
Input wide_input(const std::string& tag, WideShape w, uint64_t salt);

/// KV operations per worker and framework in one kv-dynamic sweep.
inline constexpr uint64_t kLoadOpsPerThread = 4000;

deepmc::core::AnalysisUnit unit_of(const Input& in);

/// The recovery oracle the driver picks for a corpus unit's name
/// ("pmdk/btree_map" -> "pmdk_mini"); "" for other units.
std::string framework_of(const std::string& unit);

/// The serve protocol's analyze request for `in` (JSON report, no timing).
deepmc::serve::RequestFrame analyze_request(const Input& in);

/// Registry facts about one corpus module.
KeySet registry_static(const std::string& module);
KeySet registry_dynamic(const std::string& module);
std::set<std::pair<std::string, uint32_t>> registry_false_positives(
    const std::string& module);

/// The kv-dynamic engine configuration for one framework.
deepmc::load::EngineConfig load_config(const std::string& framework,
                                       uint64_t seed, uint32_t threads,
                                       uint64_t ops_per_thread);

}  // namespace pb
