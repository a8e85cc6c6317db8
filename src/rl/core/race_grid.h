/**
 * @file
 * The N x M unit-cell Race Logic sequence aligner (paper Fig. 4).
 *
 * Behavioral model: the edit graph of the two strings is raced
 * (OR-type) by the dense row sweep (rl/core/dense_sweep.h), which
 * settles each grid node at its firing cycle -- the earliest arrival
 * over its in-edges -- without ever materializing the graph or
 * ticking a clock.  The firing-time table *is* the
 * paper's Fig. 4c ("the number inside each cell represents ... [the]
 * clock cycle at which signal '1' reached the output of an OR gate
 * of a particular unit cell"), and thresholding it by cycle yields
 * the Fig. 6 wavefront shades.
 *
 * The companion gate-level artifact lives in
 * rl/core/race_grid_circuit.h and is checked against this model.
 */

#ifndef RACELOGIC_CORE_RACE_GRID_H
#define RACELOGIC_CORE_RACE_GRID_H

#include <string>

#include "rl/bio/score_matrix.h"
#include "rl/bio/sequence.h"
#include "rl/core/dense_sweep.h"
#include "rl/sim/tick.h"
#include "rl/util/grid.h"

namespace racelogic::core {

struct KernelCounters; // rl/core/kernel_counters.h

/** @name Arrival-grid renderers
 *  Shared by RaceGridResult and the api facade (which holds the same
 *  grid without the surrounding struct).
 * @{ */

/** Cells whose arrival time equals `cycle`. */
size_t wavefrontSizeOf(const util::Grid<sim::Tick> &arrival,
                       sim::Tick cycle);

/** Fig. 4c rendering of an arrival grid. */
std::string renderArrivalTable(const util::Grid<sim::Tick> &arrival);

/** Fig. 6 wavefront rendering at `cycle`. */
std::string renderWavefrontPicture(const util::Grid<sim::Tick> &arrival,
                                   sim::Tick cycle);

/** @} */

/** Result of one race-grid alignment. */
struct RaceGridResult {
    /** Alignment score = arrival cycle of the sink node. */
    bio::Score score = 0;

    /**
     * True iff the sink fired.  A horizon-bounded race (Section 6
     * abort) leaves it false with score kScoreInfinity and
     * latencyCycles the horizon; a cancelled race always leaves it
     * false.
     */
    bool completed = true;

    /**
     * True iff a CancelToken stopped the sweep.  A cancelled result
     * defines only cancelled, completed (false) and score
     * (kScoreInfinity); every other field is unspecified.
     */
    bool cancelled = false;

    /** Race duration in clock cycles (equals score for OR type). */
    sim::Tick latencyCycles = 0;

    /**
     * Firing cycle of every edit-graph node (rows+1 x cols+1);
     * kTickInfinity where the signal never arrives.
     */
    util::Grid<sim::Tick> arrival;

    /** Number of grid nodes that fired during the race. */
    size_t cellsFired = 0;

    /** Edge arrivals scheduled at or before the horizon. */
    uint64_t events = 0;

    /** Cells whose arrival time equals `cycle` (wavefront members). */
    size_t wavefrontSize(sim::Tick cycle) const;

    /**
     * Render the arrival table like Fig. 4c (one row per line,
     * right-aligned numbers, '.' for never-fired cells).
     */
    std::string arrivalTable() const;

    /**
     * Render the wavefront at `cycle` like Fig. 6: '#' for cells
     * already fired, 'o' for cells firing exactly at `cycle`, '.'
     * for cells still dark.
     */
    std::string wavefrontPicture(sim::Tick cycle) const;
};

/** raceEditGrid's reusable weight rows (gapCol holds b's gaps). */
struct RaceGridScratch : SweepScratch {};

/**
 * Behavioral OR-type race-grid aligner for a cost matrix.
 *
 * The matrix must be Cost kind with all finite weights >= 1
 * (forbidden pairs allowed -- they become missing diagonal edges,
 * the paper's mismatch-to-infinity trick).
 */
class RaceGridAligner
{
  public:
    explicit RaceGridAligner(bio::ScoreMatrix matrix);

    /**
     * raceEditGrid() on this thread's registered kernel scratch
     * (rl/core/scratch_registry.h); const and thread-safe.  `horizon`
     * is the Section 6 abort counter, `cancel` and `counters` are
     * optional (see raceEditGrid).
     */
    RaceGridResult align(const bio::Sequence &a, const bio::Sequence &b,
                         sim::Tick horizon = sim::kTickInfinity,
                         const CancelToken *cancel = nullptr,
                         KernelCounters *counters = nullptr) const;

    /**
     * The same race on the caller's scratch (one per thread), for
     * loops that own their kernel storage.
     */
    RaceGridResult align(const bio::Sequence &a, const bio::Sequence &b,
                         sim::Tick horizon, RaceGridScratch &scratch,
                         const CancelToken *cancel = nullptr,
                         KernelCounters *counters = nullptr) const;

    const bio::ScoreMatrix &matrix() const { return costMatrix; }

  private:
    bio::ScoreMatrix costMatrix;
};

/**
 * OR-type race of the edit graph of (a, b) under a race-ready cost
 * matrix: the dense row sweep (rl/core/dense_sweep.h) over the chain
 * of b's positions, with the weight rows in the caller's scratch.
 * Bit-identical to racing makeEditGraph(a, b, costs) with
 * raceDag(..., RaceType::Or, horizon): same arrival grid (every cell
 * firing at or before `horizon`), event count and sink score.  If
 * the sink has not fired by the horizon, completed is false, score
 * kScoreInfinity and latencyCycles the horizon.
 *
 * `cancel` (nullptr = never) is polled once per row: the result is
 * either the uncancelled race's, field for field, or cancelled with
 * completed = false, score kScoreInfinity and nothing else defined.
 * `counters` (nullptr = off) accumulates the KernelCounters after
 * the sweep, so the result is bit-identical either way.  fatal() on
 * alphabet mismatch; requires a Cost-kind matrix with all finite
 * weights >= 1.
 */
RaceGridResult raceEditGrid(const bio::Sequence &a,
                            const bio::Sequence &b,
                            const bio::ScoreMatrix &costs,
                            sim::Tick horizon,
                            RaceGridScratch &scratch,
                            const CancelToken *cancel = nullptr,
                            KernelCounters *counters = nullptr);

} // namespace racelogic::core

#endif // RACELOGIC_CORE_RACE_GRID_H
