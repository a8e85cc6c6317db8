/**
 * @file
 * KernelCounters: per-race profiling counters the grid kernels and
 * the compiled gate-level simulator already compute (or can derive
 * for free) while racing.
 *
 * Every kernel entry point that accepts one takes it as an optional
 * out-param (`KernelCounters *counters = nullptr`): a null pointer
 * costs nothing on the hot path -- the kernels only touch the struct
 * after the sweep -- and the raced result is bit-identical either
 * way.  The one value a grid sweep tracks only for a sink is
 * bucketsDrained's latest scheduled arrival: with a null pointer the
 * sweep runs without that running maximum.  Counters *accumulate* so
 * one struct can aggregate a whole batch; scratchHighWater is a
 * running maximum, everything else a running sum.  A cancelled race
 * adds only to `cancels`.
 *
 * The struct lives in rl/core (the lowest layer that races) so the
 * grid kernel, the fused graph kernel, and the circuit simulator can
 * all fill it without depending on rl/telemetry; the serve daemon
 * drains it into telemetry::Registry series per request.
 */

#ifndef RACELOGIC_CORE_KERNEL_COUNTERS_H
#define RACELOGIC_CORE_KERNEL_COUNTERS_H

#include <algorithm>
#include <cstdint>

namespace racelogic::core {

struct KernelCounters {
    /** Grid kernels: edge arrivals at or before the horizon (not
     *  cell firings).  CompiledSim: net toggles. */
    uint64_t events = 0;

    /** Clock cycles raced: the latest such arrival + 1 on the grid
     *  kernels (computed only when a sink is attached), ticks on
     *  CompiledSim. */
    uint64_t bucketsDrained = 0;

    /** Largest working table of one race, in entries (not bytes):
     *  arrival-table cells on the grid kernels, nets on CompiledSim. */
    uint64_t scratchHighWater = 0;

    /**
     * Structure elements that fired: grid cells, product states, or
     * (gate-level) simulation lanes that reached the sink.
     */
    uint64_t lanesOccupied = 0;

    /** Races aborted by a cancel token (deadline, caller gave up). */
    uint64_t cancels = 0;

    /** Races stopped by the Section 6 horizon before the sink fired. */
    uint64_t horizonAborts = 0;

    /** Fold another race's counters into this aggregate. */
    void
    merge(const KernelCounters &other)
    {
        events += other.events;
        bucketsDrained += other.bucketsDrained;
        scratchHighWater =
            std::max(scratchHighWater, other.scratchHighWater);
        lanesOccupied += other.lanesOccupied;
        cancels += other.cancels;
        horizonAborts += other.horizonAborts;
    }
};

} // namespace racelogic::core

#endif // RACELOGIC_CORE_KERNEL_COUNTERS_H
