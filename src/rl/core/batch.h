/**
 * @file
 * Batch screening on a pool of race fabrics.
 *
 * A deployed accelerator would instantiate several N x M fabrics and
 * stream database candidates across them ("move on to the next
 * pattern", Section 6).  This module models that system layer: a
 * greedy dispatcher assigns each already-raced comparison to the
 * earliest-free fabric; each comparison occupies its fabric for its
 * race time (bounded by its Section 6 threshold) plus a reset cycle.
 * The report carries makespan, utilization, and accept verdicts, and
 * prices wall time against a technology model.  The races themselves
 * run in api::RaceEngine::solveBatch, which schedules its results
 * here.
 */

#ifndef RACELOGIC_CORE_BATCH_H
#define RACELOGIC_CORE_BATCH_H

#include <cstdint>
#include <vector>

#include "rl/tech/cell_library.h"

namespace racelogic::core {

/** Pool configuration. */
struct BatchConfig {
    /** Parallel fabrics instantiated. */
    size_t fabricCount = 4;

    /** Cycles to reset a fabric between comparisons. */
    uint64_t resetCycles = 1;
};

/** Outcome of one batch run. */
struct BatchReport {
    size_t comparisons = 0;
    size_t acceptedCount = 0;
    std::vector<bool> accepted; ///< verdict per comparison

    /** Cycle at which the last fabric goes idle. */
    uint64_t makespanCycles = 0;

    /** Total fabric-busy cycles across the pool. */
    uint64_t busyCycles = 0;

    /** busyCycles / (fabricCount * makespanCycles). */
    double utilization = 0.0;

    /** Wall time for the whole batch under a library's race clock. */
    double
    wallTimeNs(const tech::CellLibrary &lib) const
    {
        return static_cast<double>(makespanCycles) * lib.racePeriodNs;
    }

    /** Batch throughput in comparisons per second. */
    double
    comparisonsPerSecond(const tech::CellLibrary &lib) const
    {
        double ns = wallTimeNs(lib);
        return ns > 0.0 ? double(comparisons) * 1e9 / ns : 0.0;
    }
};

/** One already-raced comparison, ready for pool scheduling. */
struct ScreenedComparison {
    bool accepted = false;

    /** Cycles the comparison occupies a fabric (threshold-clamped). */
    uint64_t cyclesUsed = 0;
};

/**
 * Greedy list scheduling of already-raced comparisons onto the
 * fabric pool (each goes to the fabric that frees up first).
 */
BatchReport scheduleBatch(const BatchConfig &config,
                          const std::vector<ScreenedComparison> &runs);

} // namespace racelogic::core

#endif // RACELOGIC_CORE_BATCH_H
