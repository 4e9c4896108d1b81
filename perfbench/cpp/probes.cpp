// Per-layer probes of the traced run. Each layer is timed from outside by
// calling its public functions on the workloads' seeded inputs, with a
// span around every call; work counts come from the program's obs metrics
// registry or from the layer's own result structs. Nothing here is
// instrumented inside the program.
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <map>
#include <memory>
#include <thread>

#include "analysis/dsa.h"
#include "analysis/trace.h"
#include "checks.h"
#include "core/static_checker.h"
#include "crash/crashsim.h"
#include "crash/enumerator.h"
#include "crash/event_log.h"
#include "crash/recovery_oracle.h"
#include "gen/generator.h"
#include "inputs.h"
#include "interp/interp.h"
#include "ir/parser.h"
#include "load/shards.h"
#include "obs/metrics.h"
#include "pmem/latency.h"
#include "pmem/pool.h"
#include "serve/client.h"
#include "serve/daemon.h"
#include "serve/fingerprint.h"
#include "serve/service.h"
#include "support/thread_pool.h"
#include "workloads.h"

namespace pb {

using namespace deepmc;

namespace {

template <typename F>
double time_us(F&& f) {
  const Clock::time_point t0 = Clock::now();
  f();
  return seconds_since(t0) * 1e6;
}

uint64_t counter(const obs::Snapshot& s, const std::string& name) {
  for (const auto& c : s.counters)
    if (c.name == name) return c.value;
  return 0;
}

double histogram_mean(const obs::Snapshot& s, const std::string& name) {
  for (const auto& h : s.histograms)
    if (h.name == name && h.value.count > 0)
      return static_cast<double>(h.value.sum) /
             static_cast<double>(h.value.count);
  return 0;
}

std::vector<const ir::Function*> sim_roots(const core::StaticChecker& c) {
  std::vector<const ir::Function*> out;
  for (const ir::Function* f : c.trace_roots())
    if (!f->is_declaration() && f->arg_count() == 0) out.push_back(f);
  return out;
}

// ---- ir, analysis, core, support: analyze-gen inputs ----------------------

void probe_static(const Args& args, Outcome& out, SpanLog& spans) {
  std::vector<Input> inputs;
  for (size_t i = 0; i < 40; ++i) inputs.push_back(gen_input(args.seed, i));
  for (Input& in : corpus_inputs()) inputs.push_back(std::move(in));
  inputs.push_back(wide_input("g0", kAnalyzeWide, mix(args.seed, 100)));
  const double n = static_cast<double>(inputs.size());

  // Three passes; each layer reports its median pass.
  std::vector<double> parse, dsa, trace, check, driver;
  core::DriverOptions serial;
  serial.jobs = 1;
  std::vector<core::AnalysisUnit> units;
  for (const Input& in : inputs) units.push_back(unit_of(in));
  for (int pass = 0; pass < 3; ++pass) {
    double p = 0, d = 0, t = 0, c = 0;
    for (const Input& in : inputs) {
      std::unique_ptr<ir::Module> m;
      {
        Span s(&spans, "ir.parse");
        p += time_us([&] { m = ir::parse_module(in.text); });
      }
      {
        Span s(&spans, "analysis.dsa");
        d += time_us([&] { analysis::DSA(*m).run(); });
      }
      core::StaticChecker checker(*m, in.model);
      checker.prepare();
      const std::vector<const ir::Function*> roots = checker.trace_roots();
      {
        Span s(&spans, "analysis.trace");
        t += time_us([&] {
          for (const ir::Function* f : roots)
            (void)checker.trace_collector().collect(*f);
        });
      }
      {
        Span s(&spans, "core.check");
        c += time_us([&] {
          for (const ir::Function* f : roots) (void)checker.check_root(*f);
        });
      }
    }
    parse.push_back(p);
    dsa.push_back(d);
    trace.push_back(t);
    check.push_back(c);
    // The same inputs through a serial driver; the layers above are its
    // work, and the rest is the driver's own.
    Span s(&spans, "core.driver");
    driver.push_back(
        time_us([&] { core::AnalysisDriver(serial).run(units); }) - p - d - c);
  }
  set_program_tracing(true);  // again, for the work counts
  core::AnalysisDriver(serial).run(units);
  const obs::Snapshot serial_snap = obs::registry().snapshot();
  set_program_tracing(false);
  out.add("ir.parse_us", median(parse) / n, "us");
  out.add("analysis.dsa_us", median(dsa) / n, "us");
  out.add("analysis.trace_us", median(trace) / n, "us");
  out.add("core.check_us", (median(check) - median(trace)) / n, "us");
  out.add("core.driver_other_us", median(driver) / n, "us");
  out.add("analysis.traces",
          static_cast<double>(counter(serial_snap, "trace.traces_total")) / n,
          "count");
  out.add("analysis.trace_events",
          static_cast<double>(counter(serial_snap, "trace.events_total")) / n,
          "count");

  // Queue wait over the workload's pool size.
  support::ThreadPool pool(args.jobs);
  set_program_tracing(true);
  {
    Span s(&spans, "core.driver.pool");
    core::AnalysisDriver().run(units, pool);
  }
  const obs::Snapshot pool_snap = obs::registry().snapshot();
  set_program_tracing(false);
  out.add("support.pool_queue_wait_us",
          histogram_mean(pool_snap, "pool.queue_wait_us"), "us");
}

// ---- crash, pmem, interp, runtime: execute-corpus inputs ------------------

void probe_crash(const Args& args, Outcome& out, SpanLog& spans) {
  const std::vector<Input> corpus = corpus_inputs();
  crash::CrashSimOptions copts;
  double sim_us = 0, replay_us = 0, oracle_us = 0, interp_us = 0;
  uint64_t images = 0, dups = 0, replays = 0, classified = 0, roots_run = 0,
           steps = 0, minflt = 0;
  double sys_s = 0;
  for (const Input& in : corpus) {
    const std::unique_ptr<ir::Module> m = ir::parse_module(in.text);
    core::StaticChecker checker(*m, in.model);
    checker.prepare();
    copts.model = in.model;
    copts.framework = framework_of(in.name);
    const auto oracle = crash::make_oracle(copts.framework);
    for (const ir::Function* f : sim_roots(checker)) {
      crash::RootCrashSim sim;
      const Usage u0 = usage_thread();
      {
        Span s(&spans, "crash.simulate_root");
        sim_us += time_us([&] { sim = crash::simulate_root(*m, *f, copts); });
      }
      const Usage u1 = usage_thread();
      minflt += u1.minflt - u0.minflt;
      sys_s += u1.sys_s - u0.sys_s;
      images += sim.stats.images;
      dups += sim.stats.duplicate_subsets;

      // Re-run the root on a recording pool to time its layers one by one.
      pmem::PmPool pool(copts.pool_bytes, pmem::LatencyModel::zero());
      crash::EventRecorder recorder(pool);
      interp::Interpreter interp(*m, pool, nullptr);
      bool ran = true;
      {
        Span s(&spans, "interp.run");
        interp_us += time_us([&] {
          try {
            interp.run(*f);
          } catch (const std::exception&) {
            ran = false;
          }
        });
      }
      steps += interp.steps_executed();
      ++roots_run;
      recorder.detach();
      if (!ran) continue;
      const crash::EventLog log = recorder.take_log();
      std::vector<crash::CrashImage> imgs;
      crash::Enumerator::Options eopts;
      eopts.model = in.model;
      crash::Enumerator(log, eopts).enumerate(
          [&](const crash::CrashImage& img) { imgs.push_back(img); });
      const crash::StoreReplay replay(log);
      {
        Span s(&spans, "crash.image_at");
        replay_us += time_us([&] {
          for (const crash::CrashImage& img : imgs)
            (void)replay.image_at(img.point, {});
        });
      }
      replays += imgs.size();
      if (!oracle) continue;
      for (const crash::CrashImage& img : imgs) {
        pmem::PmPool fresh(copts.pool_bytes, pmem::LatencyModel::zero());
        Span s(&spans, "crash.oracle");
        oracle_us += time_us([&] { (void)oracle->classify(fresh, img, {}); });
        ++classified;
      }
    }
  }
  const double img = static_cast<double>(std::max<uint64_t>(images, 1));
  out.add("crash.simulate_us_per_image", sim_us / img, "us");
  out.add("crash.images", static_cast<double>(images), "count");
  out.add("crash.materialized_per_image",
          static_cast<double>(images + dups) / img, "count");
  out.add("crash.replay_us_per_image",
          replay_us / static_cast<double>(std::max<uint64_t>(replays, 1)),
          "us");
  out.add("crash.oracle_us_per_image",
          oracle_us / static_cast<double>(std::max<uint64_t>(classified, 1)),
          "us");
  out.add("crash.minflt_per_image", static_cast<double>(minflt) / img,
          "count");
  out.add("crash.sys_ms", sys_s * 1e3, "ms");
  out.add("interp.run_us",
          interp_us / static_cast<double>(std::max<uint64_t>(roots_run, 1)),
          "us");
  out.add("interp.steps",
          static_cast<double>(steps) /
              static_cast<double>(std::max<uint64_t>(roots_run, 1)),
          "count");

  // Pool construction at crashsim's and --dynamic's sizes.
  for (const auto& [name, bytes] :
       {std::pair<const char*, uint64_t>{"pmem.pool_init_us", copts.pool_bytes},
        {"pmem.pool_init_us.dynamic", uint64_t{1} << 24}}) {
    std::vector<double> t;
    for (int r = 0; r < 9; ++r) {
      Span s(&spans, "pmem.pool_init");
      t.push_back(time_us([&] {
        pmem::PmPool pool(bytes, pmem::LatencyModel::zero());
      }));
    }
    out.add(name, median(t), "us");
  }

  // The dynamic stage: the same serial driver run with and without it.
  double dyn_ms = 0;
  size_t dyn_modules = 0;
  for (const Input& in : corpus) {
    if (in.text.find("define void @main(") == std::string::npos) continue;
    std::vector<double> with, without;
    for (int r = 0; r < 5; ++r)
      for (bool dynamic : {true, false}) {
        core::DriverOptions o;
        o.jobs = 1;
        o.dynamic_run = dynamic;
        Span s(&spans, dynamic ? "runtime.dynamic_on" : "runtime.dynamic_off");
        (dynamic ? with : without)
            .push_back(time_us([&] {
              core::AnalysisDriver(o).run({unit_of(in)});
            }) / 1e3);
      }
    dyn_ms += median(with) - median(without);
    ++dyn_modules;
  }
  out.add("runtime.dynamic_ms",
          dyn_ms / static_cast<double>(std::max<size_t>(dyn_modules, 1)),
          "ms");
}

// ---- serve: serve-edit inputs ---------------------------------------------

void probe_serve(const Args& args, Outcome& out, SpanLog& spans) {
  std::vector<Input> modules;
  modules.push_back(wide_input("e0", kServeWide, mix(args.seed, 200)));
  for (Input& in : corpus_inputs()) modules.push_back(std::move(in));
  const std::string dir =
      args.work_dir + "/probe-" + std::to_string(getpid());
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  // Planning: the parse plus serve::plan_module a request pays for keys.
  serve::RequestOptions req;
  double plan_us = 0;
  for (const Input& in : modules) {
    core::DriverOptions o;
    o.model = in.model;
    const std::string fp = serve::options_fingerprint(o);
    Span s(&spans, "serve.plan");
    plan_us += time_us([&] {
      (void)serve::plan_module(*ir::parse_module(in.text), fp);
    });
  }
  out.add("serve.plan_ms", plan_us / 1e3 / modules.size(), "ms");

  // In-process service: cold fill, then edits and identical resubmits.
  auto service_opts = [&](const std::string& sub) {
    serve::ServeOptions o;
    o.driver.jobs = 1;  // as in the serve-edit workload
    o.cache_dir = dir + "/" + sub;
    return o;
  };
  auto analyze = [&](serve::AnalysisService& svc, const Input& in) {
    serve::RequestOptions r;
    r.model = in.model;
    return svc.analyze_report(in.name, in.text, r);
  };
  serve::AnalysisService svc(service_opts("inproc"));
  std::vector<double> cold, edit, hit;
  for (const Input& in : modules) {
    Span s(&spans, "serve.cold");
    cold.push_back(time_us([&] { analyze(svc, in); }) / 1e3);
  }
  std::vector<Input> edits;  // the request sequence, reused for transport
  double dirty = 0;
  const serve::AnalysisService::Stats base = svc.stats();
  for (size_t i = 0; i < 60; ++i) {
    Input in = modules[i % 2 == 0 ? 0 : 1 + (i / 2) % (modules.size() - 1)];
    in.text = gen::touch_function(in.text, mix(args.seed, 400 + i));
    {
      Span s(&spans, "serve.edit");
      edit.push_back(time_us([&] { analyze(svc, in); }) / 1e3);
    }
    dirty += static_cast<double>(svc.stats().last_dirty_roots);
    {
      Span s(&spans, "serve.hit");
      hit.push_back(time_us([&] { analyze(svc, in); }) / 1e3);
    }
    edits.push_back(std::move(in));
  }
  const serve::AnalysisService::Stats st = svc.stats();
  const double root_hits = static_cast<double>(st.root_hits - base.root_hits);
  const double root_all =
      root_hits + static_cast<double>(st.root_misses - base.root_misses);
  out.add("serve.cold_ms", median(cold), "ms");
  out.add("serve.edit_ms", median(edit), "ms");
  out.add("serve.hit_ms", median(hit), "ms");
  out.add("serve.dirty_roots", dirty / static_cast<double>(edits.size()),
          "count");
  out.add("serve.root_hit_ratio", root_all > 0 ? root_hits / root_all : 0,
          "ratio");

  // Transport: one client through a daemon vs. the same requests in
  // process, both services warmed the same way.
  serve::AnalysisService inproc(service_opts("a"));
  serve::AnalysisService served(service_opts("b"));
  serve::ServeDaemon daemon(served, serve::DaemonOptions{});
  const std::string sock = args.work_dir + "/p" + std::to_string(getpid()) +
                           ".sock";
  std::string err;
  if (!daemon.listen_unix(sock, &err))
    throw std::runtime_error("probe: " + err);
  std::thread daemon_thread([&] { daemon.run(); });
  std::vector<double> via_client, in_process;
  {
    serve::ServeClient client(sock);
    auto send = [&](const Input& in) {
      serve::ResponseFrame resp;
      std::string e;
      if (!client.call(analyze_request(in), &resp, &e) ||
          resp.status != serve::kStatusOk)
        throw std::runtime_error("probe: serve request failed " + e);
    };
    for (const Input& in : modules) {
      analyze(inproc, in);
      send(in);
    }
    for (const Input& in : edits) {
      {
        Span s(&spans, "serve.request.client");
        via_client.push_back(time_us([&] { send(in); }) / 1e3);
      }
      Span s(&spans, "serve.request.inproc");
      in_process.push_back(time_us([&] { analyze(inproc, in); }) / 1e3);
    }
    client.close();
  }
  daemon.begin_drain("probe done");
  daemon_thread.join();
  out.add("serve.transport_ms", median(via_client) - median(in_process),
          "ms");
  std::filesystem::remove_all(dir);
}

// ---- load, runtime: kv-dynamic inputs -------------------------------------

void probe_load(const Args& args, Outcome& out, SpanLog& spans) {
  double setup_ms = 0, minflt = 0, kops = 0, fences = 0, ops = 0;
  size_t calls = 0;
  for (const std::string& fw : load::framework_names()) {
    const std::string shortname = fw.substr(0, fw.find('_'));
    std::vector<double> on_rate, off_rate;
    for (int r = 0; r < 3; ++r) {
      for (bool checked : {true, false}) {
        load::EngineConfig cfg = load_config(fw, args.seed, args.jobs,
                                                 kLoadOpsPerThread);
        if (!checked) cfg.checker = load::CheckerMode::kOff;
        load::EngineResult res;
        const Usage u0 = usage_process();
        double wall_us = 0;
        {
          Span s(&spans, checked ? "load.run_load" : "load.run_load.off");
          wall_us = time_us([&] { res = load::run_load(cfg); });
        }
        const Usage u1 = usage_process();
        (checked ? on_rate : off_rate).push_back(res.ops_per_sec);
        if (!checked) continue;
        setup_ms += wall_us / 1e3 - res.seconds * 1e3;
        minflt += static_cast<double>(u1.minflt - u0.minflt);
        kops += static_cast<double>(res.total_ops) / 1e3;
        fences += static_cast<double>(res.fences);
        ops += static_cast<double>(res.total_ops);
        ++calls;
      }
    }
    out.add("load.ops_per_s." + shortname, median(on_rate), "1/s");
    out.add("runtime.overhead_x." + shortname,
            median(off_rate) / std::max(median(on_rate), 1e-9), "x");
  }
  out.add("load.setup_ms", setup_ms / static_cast<double>(calls), "ms");
  out.add("load.minflt_per_kop", minflt / std::max(kops, 1e-9), "count");
  out.add("runtime.fences_per_op", fences / std::max(ops, 1.0), "count");
}

}  // namespace

void run_probes(const Args& args, Outcome& out, SpanLog& spans) {
  std::filesystem::create_directories(args.work_dir);
  {
    Span s(&spans, "probe.static");
    probe_static(args, out, spans);
  }
  {
    Span s(&spans, "probe.crash");
    probe_crash(args, out, spans);
  }
  {
    Span s(&spans, "probe.serve");
    probe_serve(args, out, spans);
  }
  {
    Span s(&spans, "probe.load");
    probe_load(args, out, spans);
  }
}

}  // namespace pb
