// Shared plumbing of the benchmark driver: clocks and getrusage readings,
// quantiles, the metric list printed as the run's result line, the
// closed-loop timing of single-caller phases, and the span log the traced
// run writes as a Chrome trace.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

namespace pb {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// getrusage readings. `cpu_s` is user + sys.
struct Usage {
  double cpu_s = 0;
  double sys_s = 0;
  uint64_t minflt = 0;
};
Usage usage_process();
Usage usage_thread();
double peak_rss_mb();

/// Nearest-rank quantile (q in [0,1]) of `v`; 0 for an empty vector.
double quantile(std::vector<double> v, double q);
double median(std::vector<double> v);

uint64_t fnv1a(std::string_view s);

/// The command line every workload receives.
struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 5;
  bool trace = false;
  std::string work_dir = ".bench_build/work";  ///< scratch files (sockets, caches)
  std::string trace_out;                       ///< Chrome trace path (traced run)
  std::string sha = "unknown";
  unsigned jobs = 1;  ///< most pool workers or load threads: min(nproc, 4)
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What one run prints as its last line.
struct Outcome {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  unsigned jobs = 0;  ///< pool workers, load threads or clients it used
  std::vector<Metric> metrics;
  std::vector<std::string> notes;  ///< first few check failures, to stderr

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void fail(uint64_t n, const std::string& why);
  [[nodiscard]] std::string json() const;
};

/// One timed phase: every operation's latency and, per round, the items
/// completed per second and the process CPU per item. Throughput, CPU per
/// item and the tail are medians over rounds, so a slow second on a shared
/// host moves one round rather than the run.
struct Phase {
  std::vector<double> lat_ms;
  std::vector<size_t> round_end;           ///< lat_ms index after each round
  std::vector<double> round_rate;          ///< items / round seconds
  std::vector<double> round_cpu_per_item;  ///< process CPU seconds / item
  uint64_t ops = 0;

  /// Closes a round whose operations' latencies were appended to lat_ms.
  void add_round(uint64_t items, double seconds, double cpu_s);
};

/// One caller runs whole rounds of `round_ops` operations until `seconds`
/// have been spent inside operations and at least `min_ops` ran. `op(i)`
/// runs operation i of the round and returns the items it completed;
/// `check(i)` runs right after it, outside the timed interval.
Phase run_rounds(double seconds, size_t min_ops, size_t round_ops,
                 const std::function<uint64_t(size_t)>& op,
                 const std::function<void(size_t)>& check);

/// The end-to-end metrics every workload reports from its timed phase.
/// `tail_q` is the workload's fixed tail quantile; with rounds of at least
/// 20 operations the tail is the median over rounds of each round's
/// quantile, else the quantile over all operations.
void add_end_to_end(Outcome& out, double setup_s, const Phase& ph,
                    double tail_q);

/// Set-ups per run; `setup_s` is their median.
inline constexpr int kSetupReps = 7;

/// Median wall time of `reps` set-ups; `teardown` releases the previous
/// set-up's state before the next one starts, outside the timing. The last
/// set-up's state is kept.
template <typename Setup, typename Teardown>
double median_setup(int reps, Setup&& setup, Teardown&& teardown) {
  std::vector<double> t;
  for (int r = 0; r < reps; ++r) {
    if (r > 0) teardown();
    const Clock::time_point t0 = Clock::now();
    setup();
    t.push_back(seconds_since(t0));
  }
  return median(t);
}

/// Nested spans recorded by the benchmark around its calls into each
/// layer (single-threaded probes), written as Chrome trace_event JSON.
class SpanLog {
 public:
  size_t begin(std::string name);
  void end(size_t id);
  /// Self time per span name: duration less the time its children cover.
  [[nodiscard]] std::vector<std::pair<std::string, double>> self_ms() const;
  bool write_chrome(const std::string& path) const;

 private:
  struct Rec {
    std::string name;
    double t0_us = 0, t1_us = 0;
    int parent = -1;
  };
  Clock::time_point origin_ = Clock::now();
  std::vector<Rec> recs_;
  std::vector<size_t> open_;
};

/// RAII span over a SpanLog (no-op when the log is null).
class Span {
 public:
  Span(SpanLog* log, std::string name)
      : log_(log), id_(log ? log->begin(std::move(name)) : 0) {}
  ~Span() {
    if (log_) log_->end(id_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  SpanLog* log_;
  size_t id_;
};

}  // namespace pb
