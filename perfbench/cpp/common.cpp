#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>

namespace pb {

namespace {

Usage usage_of(int who) {
  rusage ru{};
  getrusage(who, &ru);
  Usage u;
  const double user = ru.ru_utime.tv_sec + ru.ru_utime.tv_usec * 1e-6;
  u.sys_s = ru.ru_stime.tv_sec + ru.ru_stime.tv_usec * 1e-6;
  u.cpu_s = user + u.sys_s;
  u.minflt = static_cast<uint64_t>(ru.ru_minflt);
  return u;
}

/// JSON number with all its digits (no exponent for the usual ranges).
std::string num(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

}  // namespace

Usage usage_process() { return usage_of(RUSAGE_SELF); }
Usage usage_thread() { return usage_of(RUSAGE_THREAD); }

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const size_t idx = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return v[std::min(idx, v.size() - 1)];
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

uint64_t fnv1a(std::string_view s) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

void Outcome::fail(uint64_t n, const std::string& why) {
  failed += n;
  if (notes.size() < 8) notes.push_back(why);
}

std::string Outcome::json() const {
  std::ostringstream os;
  os << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    os << (i ? ", " : "") << '"' << metrics[i].name << "\": {\"value\": "
       << num(metrics[i].value) << ", \"unit\": \"" << metrics[i].unit
       << "\"}";
  }
  os << "}}";
  return os.str();
}

void Phase::add_round(uint64_t items, double seconds, double cpu_s) {
  round_end.push_back(lat_ms.size());
  const double n = static_cast<double>(std::max<uint64_t>(items, 1));
  round_rate.push_back(n / std::max(seconds, 1e-9));
  round_cpu_per_item.push_back(cpu_s / n);
}

Phase run_rounds(double seconds, size_t min_ops, size_t round_ops,
                 const std::function<uint64_t(size_t)>& op,
                 const std::function<void(size_t)>& check) {
  Phase ph;
  double busy_s = 0;
  while (busy_s < seconds || ph.ops < min_ops) {
    uint64_t items = 0;
    double round_s = 0, round_cpu = 0;
    for (size_t i = 0; i < round_ops; ++i) {
      const Usage u0 = usage_process();
      const Clock::time_point t0 = Clock::now();
      items += op(i);
      const double s = seconds_since(t0);
      round_cpu += usage_process().cpu_s - u0.cpu_s;
      round_s += s;
      ph.lat_ms.push_back(s * 1e3);
      ++ph.ops;
      check(i);
    }
    busy_s += round_s;
    ph.add_round(items, round_s, round_cpu);
  }
  return ph;
}

void add_end_to_end(Outcome& out, double setup_s, const Phase& ph,
                    double tail_q) {
  out.add("setup_s", setup_s, "s");
  out.add("throughput", median(ph.round_rate), "items/s");
  out.add("latency_ms.p50", quantile(ph.lat_ms, 0.5), "ms");
  std::vector<double> round_tail;
  for (size_t r = 0, begin = 0; r < ph.round_end.size(); ++r) {
    const size_t end = ph.round_end[r];
    if (end - begin < 20) break;
    round_tail.push_back(quantile(
        std::vector<double>(ph.lat_ms.begin() + static_cast<ptrdiff_t>(begin),
                            ph.lat_ms.begin() + static_cast<ptrdiff_t>(end)),
        tail_q));
    begin = end;
  }
  out.add("latency_ms.tail",
          round_tail.empty() ? quantile(ph.lat_ms, tail_q) : median(round_tail),
          "ms");
  out.add("cpu_us_per_item", median(ph.round_cpu_per_item) * 1e6, "us");
  out.add("peak_rss_mb", peak_rss_mb(), "MB");
}

size_t SpanLog::begin(std::string name) {
  Rec r;
  r.name = std::move(name);
  r.t0_us = std::chrono::duration<double, std::micro>(Clock::now() - origin_)
                .count();
  r.parent = open_.empty() ? -1 : static_cast<int>(open_.back());
  recs_.push_back(std::move(r));
  open_.push_back(recs_.size() - 1);
  return recs_.size() - 1;
}

void SpanLog::end(size_t id) {
  recs_[id].t1_us =
      std::chrono::duration<double, std::micro>(Clock::now() - origin_)
          .count();
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

std::vector<std::pair<std::string, double>> SpanLog::self_ms() const {
  std::vector<double> self(recs_.size());
  for (size_t i = 0; i < recs_.size(); ++i)
    self[i] = recs_[i].t1_us - recs_[i].t0_us;
  for (const Rec& r : recs_)
    if (r.parent >= 0) self[static_cast<size_t>(r.parent)] -= r.t1_us - r.t0_us;
  std::map<std::string, double> by_name;
  for (size_t i = 0; i < recs_.size(); ++i)
    by_name[recs_[i].name] += self[i] / 1e3;
  return {by_name.begin(), by_name.end()};
}

bool SpanLog::write_chrome(const std::string& path) const {
  std::ofstream os(path);
  if (!os) return false;
  os << "{\"traceEvents\": [\n";
  for (size_t i = 0; i < recs_.size(); ++i) {
    const Rec& r = recs_[i];
    os << (i ? ",\n" : "") << "{\"name\": \"" << r.name
       << "\", \"cat\": \"perfbench\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1"
       << ", \"ts\": " << num(r.t0_us) << ", \"dur\": "
       << num(r.t1_us - r.t0_us) << "}";
  }
  os << "\n]}\n";
  return static_cast<bool>(os);
}

}  // namespace pb
