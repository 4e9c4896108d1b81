// The four workloads. Each builds its inputs from the seed, sets up the
// program's long-lived objects and warms them (the median of repeated
// set-ups is `setup_s`), runs whole rounds of a fixed operation list for
// the requested seconds, checks every operation against an independent
// answer, and reports the end-to-end metrics. With `traced` set the
// program's own metrics registry and span tracer are on during the timed
// phase, which is how the traced run measures tracing overhead.
#pragma once

#include "common.h"

namespace pb {

Outcome run_analyze_gen(const Args& args, bool traced);
Outcome run_execute_corpus(const Args& args, bool traced);
Outcome run_serve_edit(const Args& args, bool traced);
Outcome run_kv_dynamic(const Args& args, bool traced);

/// Per-layer probes of the traced run: times each layer from outside by
/// calling its public functions on seeded inputs, reads work counts from
/// the obs registry, and records a span around every call.
void run_probes(const Args& args, Outcome& out, SpanLog& spans);

/// Turns the program's metrics registry and span tracer on or off.
void set_program_tracing(bool on);

}  // namespace pb
