// serve-edit: a ServeDaemon over a Unix socket, started in this process
// with a fresh cache directory and warmed cold over wide modules plus the
// corpus modules. Then one ServeClient on the calling thread runs a closed
// loop of requests: mostly gen::touch_function single-function edits
// (a dirty cone of one root or one coupling group), some edits to the
// callee shared by several roots, and some identical resubmits
// (whole-unit cache hits). Every response is compared, right after it
// arrives and outside the timed interval, with a fresh uncached driver run
// over the same text.
#include <unistd.h>

#include <filesystem>
#include <memory>
#include <optional>
#include <thread>

#include "checks.h"
#include "gen/generator.h"
#include "inputs.h"
#include "serve/client.h"
#include "serve/daemon.h"
#include "serve/service.h"
#include "workloads.h"

namespace pb {

using namespace deepmc;

namespace {

constexpr size_t kRound = 20;      ///< requests per round
constexpr size_t kWide = 2;
/// p95, not p99: the top 1% of requests is where the host's stalls of a
/// few milliseconds land, and p99 spread 0.46 over ten runs on a 4-vCPU
/// host. 50 samples lie beyond p95 at the 1000-request minimum.
constexpr double kTailQ = 0.95;
constexpr size_t kMinOps = 1000;

/// lcm(1..32): gen::touch_function picks function `salt % functions`, so a
/// salt of f + kAnyCount * k edits function f of any module with at most 32
/// editable functions, and k picks the store.
constexpr uint64_t kAnyCount = 144403552893600ull;

enum class Kind : uint8_t { kEdit, kSharedEdit, kResubmit };

/// Request j of every round: 14 single-function edits, 2 edits of the
/// shared callee (j = 6, 16) and 4 resubmits (j = 4, 9, 14, 19).
Kind kind_of(size_t j) {
  if (j % 5 == 4) return Kind::kResubmit;
  if (j % 10 == 6) return Kind::kSharedEdit;
  return Kind::kEdit;
}

/// Every fourth request goes to one of five corpus modules, the others
/// alternate between the two wide modules. Wide edits are then 12 of 20
/// requests, so the median falls inside them rather than between corpus
/// modules of different sizes.
size_t module_of(size_t j) {
  return j % 4 == 3 ? kWide + 4 * (j / 4) : j % 2;
}

/// The client's view: the current text of each module.
struct Chain {
  uint64_t seed = 0;
  uint64_t sent = 0;  ///< requests issued so far
  std::vector<Input> modules;

  /// Advances the chain by request j of the round; returns the module.
  /// The slot and the round pick the edited function, so every seed pays
  /// for the same dirty cones; the seed picks the store inside it.
  size_t next(size_t j) {
    const size_t m = module_of(j);
    const uint64_t round = sent / kRound;
    const uint64_t store = mix(seed, sent++) % 1000;
    Input& in = modules[m];
    switch (kind_of(j)) {
      case Kind::kResubmit:
        return m;
      case Kind::kSharedEdit:  // @shared is a wide module's first function
        in.text = gen::touch_function(in.text, kAnyCount * store);
        return m;
      case Kind::kEdit: {
        const uint64_t f =
            m < kWide ? 1 + (5 * round + j) % kServeWide.roots : j / 2;
        in.text = gen::touch_function(in.text, f + kAnyCount * store);
        return m;
      }
    }
    return m;
  }
};

/// The response body, or nullopt when the request failed.
std::optional<std::string> call(serve::ServeClient& client, const Input& in) {
  serve::ResponseFrame resp;
  std::string err;
  if (!client.call(analyze_request(in), &resp, &err) ||
      resp.status != serve::kStatusOk)
    return std::nullopt;
  return std::move(resp.body);
}

struct State {
  std::string dir;
  std::unique_ptr<serve::AnalysisService> service;
  std::unique_ptr<serve::ServeDaemon> daemon;
  std::thread daemon_thread;
  std::unique_ptr<serve::ServeClient> client;
  Chain chain;

  State() = default;
  State(const State&) = delete;
  State& operator=(const State&) = delete;
  ~State() {
    if (client) client->close();
    if (daemon) daemon->begin_drain("benchmark done");
    if (daemon_thread.joinable()) daemon_thread.join();
    daemon.reset();
    service.reset();
    if (!dir.empty()) std::filesystem::remove_all(dir);
  }
};

std::unique_ptr<State> setup(const Args& args, int rep) {
  auto st = std::make_unique<State>();
  const std::string tag = std::to_string(getpid()) + "-" + std::to_string(rep);
  st->dir = args.work_dir + "/serve-" + tag;
  const std::string socket = args.work_dir + "/s" + tag + ".sock";
  std::filesystem::remove_all(st->dir);
  std::filesystem::create_directories(st->dir);

  st->chain.seed = mix(args.seed, 300);
  for (size_t w = 0; w < kWide; ++w)
    st->chain.modules.push_back(wide_input(
        "e" + std::to_string(w), kServeWide, mix(args.seed, 200 + w)));
  for (Input& in : corpus_inputs()) st->chain.modules.push_back(std::move(in));

  // One closed-loop client and a serial service (each request analyzed on
  // its session thread): on a 4-vCPU host, 2 or 4 clients over a 4-worker
  // service doubled the run-to-run spread of every metric.
  serve::ServeOptions sopts;
  sopts.driver.jobs = 1;
  sopts.cache_dir = st->dir;
  st->service = std::make_unique<serve::AnalysisService>(sopts);
  serve::DaemonOptions dopts;
  dopts.max_sessions = 1;
  st->daemon = std::make_unique<serve::ServeDaemon>(*st->service, dopts);
  std::string err;
  if (!st->daemon->listen_unix(socket, &err))
    throw std::runtime_error("serve-edit: " + err);
  st->daemon_thread = std::thread([d = st->daemon.get()] { d->run(); });
  st->client = std::make_unique<serve::ServeClient>(socket);

  // Cold fill: every module once, then one warm-up round.
  for (const Input& in : st->chain.modules)
    if (!call(*st->client, in))
      throw std::runtime_error("serve-edit: cold request failed");
  for (size_t j = 0; j < kRound; ++j)
    call(*st->client, st->chain.modules[st->chain.next(j)]);
  return st;
}

}  // namespace

Outcome run_serve_edit(const Args& args, bool traced) {
  std::filesystem::create_directories(args.work_dir);
  std::unique_ptr<State> st;
  int rep = 0;
  const double setup_s = median_setup(
      kSetupReps, [&] { st = setup(args, rep++); }, [&] { st.reset(); });

  // Reference report of each module's current text; an edit replaces its
  // module's, a resubmit is compared with the module's latest.
  support::ThreadPool pool(1);
  auto reference = [&](const Input& in) {
    return reference_reports({in}, pool).at(0);
  };
  std::vector<std::string> ref;
  for (const Input& in : st->chain.modules) ref.push_back(reference(in));

  Outcome out;
  Chain& chain = st->chain;
  size_t m = chain.next(0);  // each request's edit is made before its timing
  std::optional<std::string> last;
  set_program_tracing(traced);
  const Phase ph = run_rounds(
      args.seconds, kMinOps, kRound,
      [&](size_t) {
        last = call(*st->client, chain.modules[m]);
        return uint64_t{1};
      },
      [&](size_t j) {
        if (kind_of(j) != Kind::kResubmit) ref[m] = reference(chain.modules[m]);
        std::string why = "request failed";
        if (!last || !check_response(*last, ref[m], &why))
          out.fail(1, "serve-edit: " + chain.modules[m].name + ": " + why);
        m = chain.next((j + 1) % kRound);
      });
  set_program_tracing(false);
  out.attempted = ph.ops;
  out.jobs = 1;
  add_end_to_end(out, setup_s, ph, kTailQ);
  return out;
}

}  // namespace pb
