// kv-dynamic: load::run_load over all four frameworks in turn, with the
// shared runtime checker, the seeded deep bugs, a Zipfian get/put/del mix
// and one crash-and-recover cycle per framework, at `Args::jobs` workers.
// One operation is one sweep over the four frameworks; its items are the
// KV operations the sweep completed.
#include "checks.h"
#include "inputs.h"
#include "load/shards.h"
#include "workloads.h"

namespace pb {

using namespace deepmc;

namespace {

constexpr double kTailQ = 0.75;  ///< >= 10 samples beyond at 40 sweeps
constexpr size_t kMinOps = 40;

std::vector<load::EngineConfig> configs(const Args& args) {
  std::vector<load::EngineConfig> out;
  for (const std::string& fw : load::framework_names())
    out.push_back(load_config(fw, args.seed, args.jobs, kLoadOpsPerThread));
  return out;
}

}  // namespace

Outcome run_kv_dynamic(const Args& args, bool traced) {
  std::vector<load::EngineConfig> cfgs;
  std::vector<load::EngineResult> last;
  auto sweep = [&] {
    last.clear();
    uint64_t ops = 0;
    for (const load::EngineConfig& cfg : cfgs) {
      last.push_back(load::run_load(cfg));
      ops += last.back().total_ops;
    }
    return ops;
  };
  const double setup_s = median_setup(
      kSetupReps,
      [&] {
        cfgs = configs(args);
        sweep();
      },
      [&] { cfgs.clear(); });

  Outcome out;
  set_program_tracing(traced);
  const Phase ph = run_rounds(
      args.seconds, kMinOps, 1, [&](size_t) { return sweep(); },
      [&](size_t) {
        for (size_t k = 0; k < cfgs.size(); ++k) {
          std::string why;
          if (!check_load(last[k], cfgs[k], &why)) out.fail(1, why);
        }
      });
  set_program_tracing(false);
  out.attempted = ph.ops * cfgs.size();
  out.jobs = args.jobs;
  add_end_to_end(out, setup_s, ph, kTailQ);
  return out;
}

}  // namespace pb
