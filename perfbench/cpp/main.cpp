// perfbench: runs one DeepMC workload and prints a host stamp (with the
// pool workers, load threads or clients the workload used) and its result
// as one JSON line (the last line of stdout).
//
//   perfbench --workload analyze-gen|execute-corpus|serve-edit|kv-dynamic
//             --seed N --seconds S --trace 0|1
//             [--work-dir DIR] [--trace-out FILE] [--sha SHA]
//
// --trace 0 prints the end-to-end metrics. --trace 1 prints the per-layer
// metrics: it runs the per-layer probes, whose spans go to --trace-out as a
// Chrome trace and whose self times go to stderr, then the workload twice,
// untraced and with the program's metrics and span tracer on (their
// throughput ratio is trace.overhead_x). Exit status: 0 when the run
// completed (its "correct" field says whether every output matched), 2 on
// bad usage or an exception.
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <exception>
#include <fstream>
#include <map>
#include <string>

#include "obs/metrics.h"
#include "obs/tracer.h"
#include "workloads.h"

namespace pb {

void set_program_tracing(bool on) {
  if (on) {
    deepmc::obs::registry().reset();
    deepmc::obs::tracer().set_ring_capacity(4096);
    deepmc::obs::tracer().start();
  } else {
    deepmc::obs::tracer().stop();
  }
  deepmc::obs::set_enabled(on);
}

}  // namespace pb

namespace {

using pb::Outcome;

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload W --seed N --seconds S "
               "--trace 0|1 [--work-dir DIR] [--trace-out FILE] [--sha SHA]\n"
               "workloads: analyze-gen execute-corpus serve-edit "
               "kv-dynamic\n");
  return 2;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  return "unknown";
}

double metric(const Outcome& o, const std::string& name) {
  for (const pb::Metric& m : o.metrics)
    if (m.name == name) return m.value;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  pb::Args args;
  if (argc % 2 == 0) return usage();
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") args.workload = v;
    else if (k == "--seed") args.seed = std::stoull(v);
    else if (k == "--seconds") args.seconds = std::stod(v);
    else if (k == "--trace") args.trace = v == "1";
    else if (k == "--work-dir") args.work_dir = v;
    else if (k == "--trace-out") args.trace_out = v;
    else if (k == "--sha") args.sha = v;
    else return usage();
  }
  const std::map<std::string, Outcome (*)(const pb::Args&, bool)> workloads =
      {{"analyze-gen", pb::run_analyze_gen},
       {"execute-corpus", pb::run_execute_corpus},
       {"serve-edit", pb::run_serve_edit},
       {"kv-dynamic", pb::run_kv_dynamic}};
  const auto it = workloads.find(args.workload);
  if (it == workloads.end() || args.seconds <= 0) return usage();
  const long nproc = sysconf(_SC_NPROCESSORS_ONLN);
  args.jobs = static_cast<unsigned>(std::clamp<long>(nproc, 1, 4));

#ifdef NDEBUG
  const char* build = "release";
#else
  const char* build = "debug";
#endif
  try {
    Outcome out;
    if (!args.trace) {
      out = it->second(args, false);
    } else {
      // Probes first, so their allocator and page-fault history is that of
      // a fresh process whatever the workload.
      pb::SpanLog spans;
      Outcome probes;
      pb::run_probes(args, probes, spans);
      const Outcome plain = it->second(args, false);
      const Outcome traced = it->second(args, true);
      out.correct = plain.correct && traced.correct;
      out.attempted = plain.attempted + traced.attempted;
      out.failed = plain.failed + traced.failed;
      out.jobs = plain.jobs;
      out.notes = plain.notes;
      out.notes.insert(out.notes.end(), traced.notes.begin(),
                       traced.notes.end());
      const double traced_tp = metric(traced, "throughput");
      out.add("trace.overhead_x",
              traced_tp > 0 ? metric(plain, "throughput") / traced_tp : 0,
              "x");
      out.metrics.insert(out.metrics.end(), probes.metrics.begin(),
                         probes.metrics.end());
      std::fprintf(stderr, "layer self time (ms) over the probes:\n");
      for (const auto& [name, ms] : spans.self_ms())
        std::fprintf(stderr, "  %-28s %10.3f\n", name.c_str(), ms);
      if (!args.trace_out.empty()) {
        if (!spans.write_chrome(args.trace_out))
          throw std::runtime_error("cannot write " + args.trace_out);
        std::fprintf(stderr, "chrome trace: %s\n", args.trace_out.c_str());
      }
    }
    for (const std::string& n : out.notes)
      std::fprintf(stderr, "check failed: %s\n", n.c_str());
    std::printf("host: nproc=%ld cpu=\"%s\" build=%s sha=%s jobs=%u "
                "workload=%s seed=%llu seconds=%g trace=%d\n",
                nproc, cpu_model().c_str(), build, args.sha.c_str(), out.jobs,
                args.workload.c_str(),
                static_cast<unsigned long long>(args.seed), args.seconds,
                args.trace ? 1 : 0);
    std::printf("%s\n", out.json().c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
