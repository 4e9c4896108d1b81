// Self-tests of the benchmark's correctness checks: each check must pass on
// the program's real output and reject a deliberately corrupted copy (a
// dropped warning, a shifted line, a warning on a clean control, a flipped
// validation, misclassified images, a lost dynamic finding, one altered
// response byte, a lost seeded bug, a crash that never tripped). Exit
// status 1 if any expectation fails.
//
//   .bench_build/perfbench/perfbench_selftest
#include <cstdio>
#include <string>
#include <utility>

#include "checks.h"
#include "inputs.h"
#include "load/engine.h"
#include "serve/service.h"
#include "support/thread_pool.h"

using namespace deepmc;
using namespace pb;

namespace {

int failures = 0;

void expect(bool accepted, bool want, const std::string& what,
            const std::string& why) {
  const bool ok = accepted == want;
  std::printf("[%s] %s: %s%s\n", ok ? "PASS" : "FAIL", what.c_str(),
              accepted ? "accepted" : "rejected",
              accepted ? "" : (" (" + why + ")").c_str());
  if (!ok) ++failures;
}

core::UnitReport analyze(const Input& in, bool execute) {
  core::DriverOptions opts;
  opts.jobs = 1;
  opts.crashsim = execute;
  opts.dynamic_run = execute;
  return core::AnalysisDriver(opts).run({unit_of(in)}).units().at(0);
}

/// `u` with warning `skip` removed and `shift` added to warning 0's line.
core::UnitReport edited(const core::UnitReport& u, size_t skip,
                        uint32_t shift) {
  core::UnitReport out = u;
  out.result = core::CheckResult();
  for (size_t i = 0; i < u.result.warnings().size(); ++i) {
    if (i == skip) continue;
    core::Warning w = u.result.warnings()[i];
    if (i == 0) w.loc.line += shift;
    out.result.add(std::move(w));
  }
  return out;
}

void static_checks() {
  Input buggy;
  for (size_t i = 0; buggy.expected.empty(); ++i) buggy = gen_input(7, i);
  const Input clean = gen_input(7, 4);  // every fifth program is a control
  const Input wide = wide_input("t", {8, 3, 4}, 1);
  const Input corpus = corpus_inputs().at(0);
  for (const Input* in : {&std::as_const(buggy), &clean, &wide, &corpus}) {
    std::string why;
    expect(check_static(analyze(*in, false), *in, &why), true,
           "analyze-gen real report of " + in->name, why);
  }
  for (const Input* in : {&std::as_const(buggy), &wide, &corpus}) {
    const core::UnitReport u = analyze(*in, false);
    std::string why;
    expect(check_static(edited(u, 0, 0), *in, &why), false,
           "analyze-gen dropped warning in " + in->name, why);
    expect(check_static(edited(u, SIZE_MAX, 1), *in, &why), false,
           "analyze-gen shifted line in " + in->name, why);
  }
  core::UnitReport noisy = analyze(clean, false);
  noisy.result = analyze(buggy, false).result;
  std::string why;
  expect(clean.expected.empty(), true, "gen program 4 is a clean control",
         "");
  expect(check_static(noisy, clean, &why), false,
         "analyze-gen warning on clean control " + clean.name, why);
}

void execute_checks() {
  for (const Input& in : corpus_inputs()) {
    if (in.name != "pmdk/btree_map" && in.name != "pmdk/hashmap_atomic")
      continue;
    const core::UnitReport u = analyze(in, true);
    const std::set<Loc> witnesses = witness_locs(in);
    std::string why;
    expect(check_execute(u, in, witnesses, &why), true,
           "execute-corpus real report of " + in.name, why);

    // Each validation that is not "confirmed", flipped to it in turn.
    for (size_t i = 0; i < u.crashsim.validations.size(); ++i) {
      if (u.crashsim.validations[i] == core::Validation::kConfirmed) continue;
      core::UnitReport flipped = u;
      flipped.crashsim.validations[i] = core::Validation::kConfirmed;
      expect(check_execute(flipped, in, witnesses, &why), false,
             "execute-corpus flipped validation of " +
                 u.result.warnings()[i].loc.str(),
             why);
    }

    core::UnitReport miscounted = u;
    for (core::CrashSimRootSummary& r : miscounted.crashsim.roots)
      if (r.executed) {
        ++r.images_consistent;
        break;
      }
    expect(check_execute(miscounted, in, witnesses, &why), false,
           "execute-corpus misclassified image in " + in.name, why);

    expect(check_execute(u, in, {}, &why), u.crashsim.confirmed == 0,
           "execute-corpus confirmed warning without witness in " + in.name,
           why);

    if (!u.dynamic.empty()) {
      core::UnitReport lost = u;
      lost.dynamic.erase(lost.dynamic.begin());
      expect(check_execute(lost, in, witnesses, &why), false,
             "execute-corpus lost dynamic finding in " + in.name, why);
    }
  }
}

void serve_checks() {
  support::ThreadPool pool(2);
  const Input wide = wide_input("t", {8, 3, 4}, 1);
  const std::string ref = reference_reports({wide}, pool).at(0);
  serve::AnalysisService service(serve::ServeOptions{});  // caching off
  serve::RequestOptions req;
  req.model = wide.model;
  const std::string body =
      service.analyze_report(wide.name, wide.text, req).body;
  std::string why;
  expect(check_response(body, ref, &why), true,
         "serve-edit response equal to a fresh run", why);
  std::string altered = body;
  altered[altered.size() / 2] ^= 1;
  expect(check_response(altered, ref, &why), false,
         "serve-edit one altered response byte", why);
}

void load_checks() {
  const load::EngineConfig cfg = load_config("pmdk_mini", 3, 2, 2000);
  const load::EngineResult r = load::run_load(cfg);
  std::string why;
  expect(check_load(r, cfg, &why), true, "kv-dynamic real result", why);

  auto without = [&](const std::string& prefix) {
    load::EngineResult c = r;
    for (auto it = c.warning_keys.begin(); it != c.warning_keys.end(); ++it)
      if (it->rfind(prefix, 0) == 0) {
        c.warning_keys.erase(it);
        break;
      }
    return c;
  };
  load::EngineResult lost_race = without("waw:");
  --lost_race.races;
  expect(check_load(lost_race, cfg, &why), false,
         "kv-dynamic lost seeded race", why);
  expect(check_load(without("flush:"), cfg, &why), false,
         "kv-dynamic lost seeded redundant flush", why);
  load::EngineResult no_epochs = r;
  std::erase_if(no_epochs.warning_keys, [](const std::string& k) {
    return k.find("load-seed.epoch:2") != std::string::npos;
  });
  expect(check_load(no_epochs, cfg, &why), false,
         "kv-dynamic lost seeded epoch mismatch", why);
  load::EngineResult extra = r;
  extra.warning_keys.push_back("raw:100000000040");
  expect(check_load(extra, cfg, &why), false, "kv-dynamic unseeded race",
         why);
  load::EngineResult audit = r;
  audit.ok = false;
  ++audit.verify_failures;
  expect(check_load(audit, cfg, &why), false, "kv-dynamic failed audit", why);
  load::EngineResult short_ops = r;
  short_ops.total_ops -= 2;
  expect(check_load(short_ops, cfg, &why), false, "kv-dynamic lost ops", why);
  load::EngineResult no_crash = r;  // every op ran, the crash never tripped
  no_crash.crashes = no_crash.recoveries_consistent = 0;
  no_crash.total_ops = uint64_t{cfg.spec.threads} * cfg.spec.ops_per_thread;
  expect(check_load(no_crash, cfg, &why), false, "kv-dynamic no crash", why);
}

}  // namespace

int main() {
  static_checks();
  execute_checks();
  serve_checks();
  load_checks();
  std::printf("%s: %d failing expectation(s)\n",
              failures ? "FAIL" : "PASS", failures);
  return failures ? 1 : 0;
}
