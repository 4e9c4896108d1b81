// Independent correctness checks, one per workload. Each compares what the
// program produced against an answer it did not compute: the planted-bug
// manifests, the paper's warning registry, warnings implied by how the
// wide modules are built, a fresh uncached driver run, and the load
// engine's seeded bug sites. Each returns false and says why on the first
// mismatch; perfbench_selftest feeds each a corrupted output.
#pragma once

#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/analysis_driver.h"
#include "inputs.h"
#include "load/engine.h"
#include "support/thread_pool.h"

namespace pb {

using Loc = std::pair<std::string, uint32_t>;

/// Static warnings of a unit as (rule, file, line) keys.
KeySet static_keys(const deepmc::core::UnitReport& u);

/// analyze-gen: the unit was analyzed and reports exactly `in.expected`.
bool check_static(const deepmc::core::UnitReport& u, const Input& in,
                  std::string* why);

/// Where crash-state enumeration finds witnesses for one corpus module,
/// computed through crash::simulate_root on every executable trace root.
std::set<Loc> witness_locs(const Input& in);

/// execute-corpus: static warnings match the registry; no registry
/// false-positive site and no performance warning is confirmed; every
/// confirmed warning has a witness image; every root's images are all
/// classified; every dynamic-only registry site is reported.
bool check_execute(const deepmc::core::UnitReport& u, const Input& in,
                   const std::set<Loc>& witnesses, std::string* why);

/// serve-edit: the response body is byte-identical to the reference.
bool check_response(const std::string& body, const std::string& reference,
                    std::string* why);

/// The reports fresh, uncached one-shot driver runs render for `ins`
/// (JSON, no timing, one document per input), the form serve responses
/// take.
std::vector<std::string> reference_reports(const std::vector<Input>& ins,
                                           deepmc::support::ThreadPool& pool);

/// kv-dynamic: the one planned crash tripped, the acknowledged-state audit
/// and crash recovery held, every op ran, and the checker reports each
/// shard's seeded WAW race plus the seeded redundant flush and epoch
/// mismatch at their sites and nothing else.
bool check_load(const deepmc::load::EngineResult& r,
                const deepmc::load::EngineConfig& cfg, std::string* why);

}  // namespace pb
