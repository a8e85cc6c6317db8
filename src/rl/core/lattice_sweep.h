/**
 * @file
 * Dense sweeps of the two Section 7 lattices: dynamic time warping
 * and Gotoh affine-gap alignment.
 *
 * Both lattices are grids, so -- as on the edit grid (Fig. 4c) --
 * the cycle a node fires in the OR race *is* its DP value: the
 * earliest arrival over its in-edges.  A row-major min-plus pull
 * sweep therefore computes every firing time without building the
 * graph::Dag or ticking a clock.  Each outcome uses the node
 * numbering of the lattice builder it stands in for, and is
 * bit-identical to raceDag(..., RaceType::Or) on that builder's
 * graph:
 *
 *  - `firing`: the DP table, never() where no in-edge fires;
 *  - `events`: one per in-edge whose source fired (there is no
 *    horizon, so every such arrival is scheduled);
 *  - `horizon`: the latest firing.
 *
 * The materialized lattices (apps::makeDtwGraph,
 * bio::makeAffineEditGraph) stay the gate-level synthesis input and
 * the test oracle; the sweeps call neither.
 */

#ifndef RACELOGIC_CORE_LATTICE_SWEEP_H
#define RACELOGIC_CORE_LATTICE_SWEEP_H

#include <cstdint>
#include <vector>

#include "rl/bio/affine.h"
#include "rl/core/cancel.h"
#include "rl/core/kernel_counters.h"
#include "rl/core/race_network.h"

namespace racelogic::core {

/**
 * OR race of the DTW lattice of signals (x, y), both non-empty:
 * cell (i, j), 1-based, is node (i-1)|y| + (j-1) and fires at
 * dtwDistance of the prefixes; the source is the last node.  The
 * caller keeps every path cost below kScoreInfinity (validated by
 * the api layer).
 *
 * `cancel` (nullptr = never) is polled once per row: the outcome is
 * either the uncancelled race, field for field, or has `cancelled`
 * set and nothing else defined.  `counters` (nullptr = off) gets
 * events, bucketsDrained (latest arrival + 1), scratchHighWater
 * (nodes) and lanesOccupied (fired nodes); a cancelled race adds
 * only to `cancels`.
 */
RaceOutcome sweepDtwLattice(const std::vector<int64_t> &x,
                            const std::vector<int64_t> &y,
                            const CancelToken *cancel = nullptr,
                            KernelCounters *counters = nullptr);

/**
 * OR race of the 3-layer affine lattice of (a, b) in
 * bio::AffineEditGraph::node() layout -- planes M, Ix, Iy of
 * (|a|+1) x (|b|+1) cells -- with the collector sink last.  Requires
 * what makeAffineEditGraph() asserts: a Cost-kind matrix over the
 * sequences' alphabet with finite pair weights >= 1 (kScoreInfinity
 * = no M-edge) and open >= extend >= 1.  `cancel` and `counters` as
 * for sweepDtwLattice().
 */
RaceOutcome sweepAffineLattice(const bio::Sequence &a,
                               const bio::Sequence &b,
                               const bio::ScoreMatrix &costs,
                               const bio::AffineGapCosts &gaps,
                               const CancelToken *cancel = nullptr,
                               KernelCounters *counters = nullptr);

} // namespace racelogic::core

#endif // RACELOGIC_CORE_LATTICE_SWEEP_H
