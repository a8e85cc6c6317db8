/**
 * @file
 * The three workloads and the per-layer probes of the traced run.
 *
 * An untraced run records only the end-to-end metrics.  A traced run
 * replays the same phases with spans on, then times calls into each
 * layer's public functions on the workload's own inputs (the layer
 * ledger).  Layers a workload does not exercise -- the daemon and
 * the non-screen kinds for screen_db, DTW and affine for serve_reads
 * -- are measured on serve_short's inputs for the same seed, so every
 * traced run reports the whole ledger; README.md names the workload
 * each layer metric belongs to.
 */

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include <cstdint>
#include <string>
#include <vector>

#include "rl/sim/event_queue.h"

#include "inputs.h"
#include "measure.h"
#include "report.h"

namespace perfbench {

struct RunOptions {
    std::string raceserved; ///< the daemon binary
    std::string workdir;    ///< socket, GFA, logs and span files
    uint64_t seed = 1;
    double seconds = 10.0;
    bool traced = false;
};

/**
 * One serve workload against a real daemon: set-up (spawns spread
 * over the run), warm-up, open loop at rateLo and rateHi, closed-loop
 * saturation.
 * Traced runs add the serve-side ledger and the in-process probes.
 * False when the daemon could not be started.
 */
bool runServe(const ServeSpec &spec, const ServeInputs &inputs,
              const RunOptions &options, Report &report);

/** screen_db: RaceEngine::screen on a serial engine, in process. */
void runScreen(const ScreenInputs &inputs, const RunOptions &options,
               Report &report);

/** @name Per-layer probes (traced runs only) @{ */

/** A grid pair and the horizon the engine would race it with. */
struct GridPair {
    rl::bio::Sequence a, b;
    rl::sim::Tick horizon = rl::sim::kTickInfinity;
};

/** serve.wire.*: encode and decode the workload's frames. */
void probeWire(const ServeInputs &inputs,
               const std::vector<rl::serve::Response> &responses,
               Report &report);

/** api.*: RaceEngine solve, solve-minus-kernel, and plan builds. */
void probeApi(const ServeInputs &inputs, SpanLog &spans, Report &report);

/** core.*: the grid kernel against bio::globalScore, and counters. */
void probeCore(const std::vector<GridPair> &pairs, SpanLog &spans,
               Report &report);

/** pangraph.*: the fused graph kernel against graphAlignDp. */
void probePangraph(const ServeInputs &inputs, SpanLog &spans,
                   Report &report);

/** The pairwise and screen pairs of a serve pool. */
std::vector<GridPair> gridPairs(const ServeInputs &inputs);

/** @} */

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
