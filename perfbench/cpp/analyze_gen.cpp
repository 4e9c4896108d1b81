// analyze-gen: one-shot static analysis. One caller submits batches to a
// warm AnalysisDriver (no crash simulation, no dynamic stage); one batch is
// one operation, as one `deepmc a.mir b.mir ...` invocation would be.
#include <memory>

#include "checks.h"
#include "inputs.h"
#include "support/thread_pool.h"
#include "workloads.h"

namespace pb {

using namespace deepmc;

namespace {

constexpr size_t kBatches = 21;       ///< one per corpus module
constexpr size_t kGenPerBatch = 8;
constexpr size_t kWideModules = 3;
constexpr double kTailQ = 0.95;       ///< >= 10 samples beyond at 200 ops
constexpr size_t kMinOps = 200;

struct State {
  std::vector<std::vector<Input>> inputs;  ///< per batch
  std::vector<std::vector<core::AnalysisUnit>> units;
  std::unique_ptr<support::ThreadPool> pool;
  std::unique_ptr<core::AnalysisDriver> driver;
};

State setup(const Args& args) {
  State st;
  const std::vector<Input> corpus = corpus_inputs();
  std::vector<Input> wide;
  for (size_t w = 0; w < kWideModules; ++w)
    wide.push_back(wide_input("g" + std::to_string(w), kAnalyzeWide,
                              mix(args.seed, 100 + w)));
  for (size_t b = 0; b < kBatches; ++b) {
    std::vector<Input> batch;
    for (size_t j = 0; j < kGenPerBatch; ++j)
      batch.push_back(gen_input(args.seed, b * kGenPerBatch + j));
    batch.push_back(corpus[b % corpus.size()]);
    batch.push_back(wide[b % kWideModules]);
    std::vector<core::AnalysisUnit> units;
    for (const Input& in : batch) units.push_back(unit_of(in));
    st.inputs.push_back(std::move(batch));
    st.units.push_back(std::move(units));
  }
  st.pool = std::make_unique<support::ThreadPool>(args.jobs);
  st.driver = std::make_unique<core::AnalysisDriver>(core::DriverOptions{});
  for (const auto& units : st.units) st.driver->run(units, *st.pool);
  return st;
}

}  // namespace

Outcome run_analyze_gen(const Args& args, bool traced) {
  State st;
  const double setup_s = median_setup(
      kSetupReps, [&] { st = setup(args); }, [&] { st = State{}; });

  Outcome out;
  core::Report last;
  set_program_tracing(traced);
  const Phase ph = run_rounds(
      args.seconds, kMinOps, kBatches,
      [&](size_t b) {
        last = st.driver->run(st.units[b], *st.pool);
        return static_cast<uint64_t>(st.units[b].size());
      },
      [&](size_t b) {
        std::string why;
        const auto& units = last.units();
        bool ok = units.size() == st.inputs[b].size();
        for (size_t k = 0; ok && k < units.size(); ++k)
          ok = check_static(units[k], st.inputs[b][k], &why);
        if (!ok) out.fail(1, why.empty() ? "batch lost units" : why);
      });
  set_program_tracing(false);
  out.attempted = ph.ops;
  out.jobs = args.jobs;
  add_end_to_end(out, setup_s, ph, kTailQ);
  return out;
}

}  // namespace pb
