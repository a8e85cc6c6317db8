/**
 * @file
 * Fused sequence-to-graph race: a read against the pangenome without
 * materializing the (read x graph) product DAG.
 *
 * The graph analogue of core::raceEditGrid(): the dense row sweep
 * (rl/core/dense_sweep.h) over product states (j, p) -- j read
 * characters consumed, graph character p consumed last -- with the
 * compiled predecessor CSR as the column axis.  State (j, q) settles
 * at the earliest of its three in-edge families, read on the fly from
 * CompiledGraph and the hoisted weight rows:
 *
 *  - graph gap (deletion):      (j, p) -> (j, q)    gapWeight[q]
 *  - substitute / match:        (j-1, p) -> (j, q)  pair(read[j-1], sym(q))
 *  - read gap (insertion):      (j-1, q) -> (j, q)  gap(read[j-1])
 *
 * for each compiled predecessor p of q.  compileGraph() numbers
 * positions topologically, so one left-to-right pass per read row
 * settles the row.  Terminal states (m, p) feed the super-sink OR
 * through zero-weight wires; the kernel folds those in after the
 * sweep -- one event per fired terminal, sink time their minimum.
 *
 * The outcome is bit-identical to building the product with
 * buildAlignmentGraph() and racing it on core::raceDag()
 * (tests/pangraph_test.cc asserts it on randomized graphs); that
 * materialized path stays as the tested reference and the gate-level
 * synthesis input.
 */

#ifndef RACELOGIC_PANGRAPH_GRAPH_ALIGN_KERNEL_H
#define RACELOGIC_PANGRAPH_GRAPH_ALIGN_KERNEL_H

#include <vector>

#include "rl/bio/score_matrix.h"
#include "rl/bio/sequence.h"
#include "rl/core/dense_sweep.h"
#include "rl/core/kernel_counters.h"
#include "rl/pangraph/alignment_graph.h"

namespace racelogic::pangraph {

/** Outcome of racing one read against the graph. */
struct GraphRaceResult {
    /** Alignment score in the caller's matrix units (similarity
     *  recovered via Section 5 on converted plans; the raw raced
     *  cost until GraphAligner applies the recovery);
     *  kScoreInfinity when the race aborted at its horizon. */
    bio::Score score = 0;

    /** The raw race outcome: sink arrival cycle (converted cost). */
    bio::Score racedCost = 0;

    /** True iff the sink fired (false under a horizon or cancel). */
    bool completed = true;

    /**
     * True iff a CancelToken stopped the sweep.  A cancelled result
     * defines only cancelled, completed (false), score and racedCost
     * (kScoreInfinity); every other field is unspecified.
     */
    bool cancelled = false;

    /** Race duration in cycles (the horizon cycle when aborted). */
    sim::Tick latencyCycles = 0;

    /** Edge arrivals scheduled at or before the horizon. */
    uint64_t events = 0;

    /** Product-DAG nodes, and how many fired. */
    size_t nodes = 0;
    size_t cellsFired = 0;

    /** Per-node firing times, AlignmentGraph::node() layout. */
    std::vector<core::TemporalValue> arrival;
};

/** raceAlignmentGrid's reusable weight rows (gapCol unused: the
 *  graph's column gaps live in CompiledGraph). */
struct GraphAlignScratch : core::SweepScratch {};

/**
 * OR-type race of `read` against a compiled graph under the
 * race-ready cost matrix it was compiled with, with the weight rows
 * in the caller's scratch.  Bit-identical to racing
 * buildAlignmentGraph(compiled, read, costs) on
 * core::raceDag() with the same horizon: same arrival
 * vector, event count, sink score and Section 6 aborts (completed =
 * false, score kScoreInfinity, latencyCycles = horizon).
 *
 * `cancel` (nullptr = never) is polled once per read row: the result
 * is either the uncancelled race's, field for field, or cancelled
 * with completed = false, score and racedCost kScoreInfinity and
 * nothing else defined.  `counters` (nullptr = off) accumulates the
 * KernelCounters after the sweep, so the result is bit-identical
 * either way.
 *
 * `costs` must be the matrix `compiled` was bound to (GraphAligner
 * guarantees this); requires Cost kind with all finite weights >= 1
 * (checked at plan time).  GraphRaceResult::score is left at the
 * raced cost -- the aligner applies the Section 5 recovery.
 */
GraphRaceResult raceAlignmentGrid(const CompiledGraph &compiled,
                                  const bio::Sequence &read,
                                  const bio::ScoreMatrix &costs,
                                  sim::Tick horizon,
                                  GraphAlignScratch &scratch,
                                  const core::CancelToken *cancel = nullptr,
                                  core::KernelCounters *counters = nullptr);

} // namespace racelogic::pangraph

#endif // RACELOGIC_PANGRAPH_GRAPH_ALIGN_KERNEL_H
