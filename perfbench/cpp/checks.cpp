#include "checks.h"

#include <algorithm>
#include <memory>

#include "core/static_checker.h"
#include "crash/crashsim.h"
#include "ir/parser.h"

namespace pb {

using namespace deepmc;

namespace {

std::string key_str(const Key& k) {
  return k.rule + "@" + k.file + ":" + std::to_string(k.line);
}

bool set_equal(const KeySet& got, const KeySet& want, const std::string& what,
               std::string* why) {
  for (const Key& k : want)
    if (!got.count(k)) {
      *why = what + ": missing " + key_str(k);
      return false;
    }
  for (const Key& k : got)
    if (!want.count(k)) {
      *why = what + ": unexpected " + key_str(k);
      return false;
    }
  return true;
}

bool analyzed(const core::UnitReport& u, std::string* why) {
  if (u.status == core::UnitStatus::kOk && !u.failed) return true;
  *why = u.name + ": unit " + core::unit_status_name(u.status) + " " +
         u.error + u.degraded.reason;
  return false;
}

}  // namespace

KeySet static_keys(const core::UnitReport& u) {
  KeySet out;
  for (const core::Warning& w : u.result.warnings())
    out.insert({w.rule, w.loc.file, w.loc.line});
  return out;
}

bool check_static(const core::UnitReport& u, const Input& in,
                  std::string* why) {
  return analyzed(u, why) &&
         set_equal(static_keys(u), in.expected, in.name, why);
}

std::set<Loc> witness_locs(const Input& in) {
  const std::unique_ptr<ir::Module> module = ir::parse_module(in.text);
  core::StaticChecker checker(*module, in.model);
  checker.prepare();
  crash::CrashSimOptions opts;
  opts.model = in.model;
  opts.framework = framework_of(in.name);
  std::set<Loc> out;
  for (const ir::Function* f : checker.trace_roots()) {
    if (f->is_declaration() || f->arg_count() != 0) continue;
    const crash::RootCrashSim sim = crash::simulate_root(*module, *f, opts);
    for (const crash::Witness& w : sim.witnesses)
      for (const SourceLoc& loc : w.culprits) out.insert({loc.file, loc.line});
  }
  return out;
}

bool check_execute(const core::UnitReport& u, const Input& in,
                   const std::set<Loc>& witnesses, std::string* why) {
  if (!check_static(u, in, why)) return false;
  if (!u.crashsim.ran ||
      u.crashsim.validations.size() != u.result.warnings().size()) {
    *why = in.name + ": crash simulation did not validate every warning";
    return false;
  }
  for (const core::CrashSimRootSummary& r : u.crashsim.roots) {
    if (r.executed && r.images_consistent + r.images_inconsistent +
                              r.images_skipped != r.images) {
      *why = in.name + ": root @" + r.root + " classified " +
             std::to_string(r.images_consistent + r.images_inconsistent +
                            r.images_skipped) +
             " of " + std::to_string(r.images) + " images";
      return false;
    }
  }
  const auto fps = registry_false_positives(in.name);
  for (size_t i = 0; i < u.result.warnings().size(); ++i) {
    if (u.crashsim.validations[i] != core::Validation::kConfirmed) continue;
    const core::Warning& w = u.result.warnings()[i];
    const Loc loc{w.loc.file, w.loc.line};
    if (fps.count(loc)) {
      *why = in.name + ": false-positive site " + w.loc.str() + " confirmed";
      return false;
    }
    if (w.bug_class() == core::BugClass::kPerformance) {
      *why = in.name + ": performance warning " + w.loc.str() +
             " confirmed by a crash image";
      return false;
    }
    if (!witnesses.count(loc)) {
      *why = in.name + ": " + w.loc.str() + " confirmed with no witness image";
      return false;
    }
  }
  // An epoch mismatch cites its later write; the registry may cite the
  // earlier one, which the finding names as "first: file:line".
  for (const Key& k : registry_dynamic(in.name)) {
    const std::string site = k.file + ":" + std::to_string(k.line);
    const bool found = std::any_of(
        u.dynamic.begin(), u.dynamic.end(), [&](const core::DynamicFinding& f) {
          return f.rule == k.rule &&
                 (f.loc.str() == site ||
                  (k.rule == "rt.epoch-mismatch" &&
                   f.message.find("(first: " + site + ",") !=
                       std::string::npos));
        });
    if (!found) {
      *why = in.name + ": dynamic-only site " + key_str(k) + " not reported";
      return false;
    }
  }
  return true;
}

bool check_response(const std::string& body, const std::string& reference,
                    std::string* why) {
  if (body == reference) return true;
  size_t i = 0;
  while (i < body.size() && i < reference.size() && body[i] == reference[i])
    ++i;
  *why = "response differs from a fresh driver run at byte " +
         std::to_string(i) + " (" + std::to_string(body.size()) + " vs " +
         std::to_string(reference.size()) + " bytes)";
  return false;
}

std::vector<std::string> reference_reports(const std::vector<Input>& ins,
                                           support::ThreadPool& pool) {
  std::vector<core::AnalysisUnit> units;
  for (const Input& in : ins) units.push_back(unit_of(in));
  const core::Report report = core::AnalysisDriver().run(units, pool);
  std::vector<std::string> out;
  for (const core::UnitReport& u : report.units())
    out.push_back(core::Report::from_units({u}).json(false));
  return out;
}

bool check_load(const load::EngineResult& r, const load::EngineConfig& cfg,
                std::string* why) {
  const std::string fw = cfg.framework + ": ";
  if (!r.ok) {
    *why = fw + "audit or recovery failed (" +
           std::to_string(r.verify_failures) + " verify failures, " +
           std::to_string(r.recoveries_consistent) + "/" +
           std::to_string(r.crashes) + " consistent recoveries)";
    return false;
  }
  // The crash plan trips exactly once. The crash may interrupt an op,
  // which then is not counted as completed.
  const uint64_t n = uint64_t{cfg.spec.threads} * cfg.spec.ops_per_thread;
  if (r.crashes != 1 || r.total_ops > n || r.total_ops + 1 < n) {
    *why = fw + std::to_string(r.total_ops) + " ops completed of " +
           std::to_string(n) + " with " + std::to_string(r.crashes) +
           " crashes";
    return false;
  }
  // Shared-checker report keys: "waw:<addr>", "epoch:<object>:<loc>",
  // "flush:<loc>:<addr>"; bits 44+ of an address tag the worker (1..N).
  // Epoch mismatches elsewhere than the seeded site are not judged: which
  // of them appear depends on how the workers interleave.
  const uint64_t threads = cfg.spec.threads;
  std::set<uint64_t> race_tags, epoch_tags;
  size_t flushes = 0;
  for (const std::string& k : r.warning_keys) {
    if (k.rfind("waw:", 0) == 0) {
      race_tags.insert(std::stoull(k.substr(4), nullptr, 16) >> 44);
    } else if (k.rfind("epoch:", 0) == 0) {
      const size_t colon = k.find(':', 6);
      if (colon != std::string::npos &&
          k.compare(colon + 1, std::string::npos, "load-seed.epoch:2") == 0)
        epoch_tags.insert(std::stoull(k.substr(6, colon - 6), nullptr, 16) >>
                          44);
    } else if (k.rfind("flush:load-seed.flush:1:", 0) == 0) {
      ++flushes;
    } else {
      *why = fw + "unexpected checker report " + k;
      return false;
    }
  }
  auto one_per_worker = [&](const std::set<uint64_t>& tags) {
    return tags.size() == threads && *tags.begin() == 1 &&
           *tags.rbegin() == threads;
  };
  if (r.races != threads || !one_per_worker(race_tags)) {
    *why = fw + std::to_string(r.races) + " races over " +
           std::to_string(race_tags.size()) + " shards, want the seeded one "
           "per shard";
    return false;
  }
  if (!one_per_worker(epoch_tags)) {
    *why = fw + "seeded epoch mismatch reported on " +
           std::to_string(epoch_tags.size()) + " of " +
           std::to_string(threads) + " shards";
    return false;
  }
  // The checker keeps one redundant-flush report per source location.
  if (flushes != 1 || r.barrier_violations != 0) {
    *why = fw + std::to_string(flushes) + " seeded redundant flushes, " +
           std::to_string(r.barrier_violations) + " barrier violations";
    return false;
  }
  return true;
}

}  // namespace pb
