// execute-corpus: the execution-based checks. Each of the 21 corpus
// modules runs through a warm AnalysisDriver with crash-state enumeration
// (--crashsim) and the dynamic stage (--dynamic), one module per operation,
// over a long-lived pool of one worker.
#include <map>
#include <memory>

#include "checks.h"
#include "inputs.h"
#include "support/thread_pool.h"
#include "workloads.h"

namespace pb {

using namespace deepmc;

namespace {

/// Pool workers. One worker thread, not the calling thread: a worker's
/// allocator arena keeps the per-image pools mapped, where the main arena
/// trims and re-faults them. At 4 workers, concurrent page faults tripled
/// the run-to-run spread on a 4-vCPU host.
constexpr unsigned kJobs = 1;
constexpr double kTailQ = 0.95;  ///< >= 10 samples beyond at 210 ops
constexpr size_t kMinOps = 210;  ///< ten rounds

struct State {
  std::vector<Input> inputs;
  std::vector<core::AnalysisUnit> units;
  std::unique_ptr<support::ThreadPool> pool;
  std::unique_ptr<core::AnalysisDriver> driver;
};

State setup() {
  State st;
  st.inputs = corpus_inputs();
  for (const Input& in : st.inputs) st.units.push_back(unit_of(in));
  st.pool = std::make_unique<support::ThreadPool>(kJobs);
  core::DriverOptions opts;
  opts.crashsim = true;
  opts.dynamic_run = true;
  st.driver = std::make_unique<core::AnalysisDriver>(opts);
  for (const core::AnalysisUnit& u : st.units) st.driver->run({u}, *st.pool);
  return st;
}

}  // namespace

Outcome run_execute_corpus(const Args& args, bool traced) {
  State st;
  const double setup_s = median_setup(
      kSetupReps, [&] { st = setup(); }, [&] { st = State{}; });

  Outcome out;
  core::Report last;
  std::map<size_t, std::set<Loc>> witnesses;  // reference, per module
  set_program_tracing(traced);
  const Phase ph = run_rounds(
      args.seconds, kMinOps, st.units.size(),
      [&](size_t i) {
        last = st.driver->run({st.units[i]}, *st.pool);
        return uint64_t{1};
      },
      [&](size_t i) {
        auto it = witnesses.find(i);
        if (it == witnesses.end())
          it = witnesses.emplace(i, witness_locs(st.inputs[i])).first;
        std::string why;
        if (last.units().size() != 1 ||
            !check_execute(last.units()[0], st.inputs[i], it->second, &why))
          out.fail(1, why.empty() ? "module lost" : why);
      });
  set_program_tracing(false);
  out.attempted = ph.ops;
  out.jobs = kJobs;
  add_end_to_end(out, setup_s, ph, kTailQ);
  return out;
}

}  // namespace pb
