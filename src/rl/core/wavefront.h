/**
 * @file
 * Bucketed wavefront race kernel (Dial's algorithm on a DAG).
 *
 * The paper's OR-type race *is* a shortest-path wavefront sweeping a
 * DAG one clock cycle at a time.  The generic discrete-event
 * simulator (sim::EventQueue) pays a heap allocation and O(log E)
 * ordering per edge arrival; but Race Logic delays are small bounded
 * integers, so a calendar of W+1 circular buckets (W = the largest
 * edge weight) schedules each arrival at tick t+w into bucket
 * (t+w) mod (W+1) in O(1), and the simulation drains bucket t, t+1,
 * ... -- exactly the clock the hardware would tick.  O(E + T), flat
 * arrays, no per-event allocation.
 *
 * WavefrontRaceKernel races any graph::Dag (Or = min, And = max via
 * in-degree countdown) under a Section 6 horizon: DAG paths, and the
 * materialized edit, product, DTW and affine graphs the sweeps are
 * checked against.  Grids and lattices need no clock -- there the
 * firing cycle is the DP value -- and run dense row sweeps
 * (rl/core/dense_sweep.h, rl/core/lattice_sweep.h).  Outcomes, event
 * counts included, are bit-identical to the heap reference
 * raceDagEventDriven() (tests/core_wavefront_test.cc).
 */

#ifndef RACELOGIC_CORE_WAVEFRONT_H
#define RACELOGIC_CORE_WAVEFRONT_H

#include <vector>

#include "rl/core/race_network.h"
#include "rl/graph/dag.h"

namespace racelogic::core {

/**
 * Largest edge weight the bucket calendar will size itself for.  The
 * ring needs maxWeight+1 buckets, so a pathological graph with one
 * enormous delay would explode memory; raceDag() falls back to the
 * heap-based event kernel above this bound.  Every workload in the
 * paper (cost matrices, DTW sample distances) sits far below it.
 */
constexpr graph::Weight kMaxWavefrontWeight = 1 << 16;

/**
 * Calendar-queue race kernel over a DAG's packed CSR view.
 *
 * Construction snapshots the adjacency (O(V + E)); race() is const
 * and allocates only its own per-race state, so one kernel can race
 * many source sets -- including concurrently from several threads.
 *
 * The caller is responsible for validity (acyclic, weights in
 * [0, kMaxWavefrontWeight]); raceDag() performs those checks before
 * constructing a kernel.
 */
class WavefrontRaceKernel
{
  public:
    explicit WavefrontRaceKernel(const graph::Dag &dag);

    /** True iff the bucket calendar can represent this graph. */
    static bool suitableFor(const graph::Dag &dag);

    /**
     * Race from `sources` (all injected at tick 0).
     *
     * @param horizon  Arrivals later than this tick are never
     *                 scheduled (Section 6 early termination); the
     *                 default races to full drain.
     */
    RaceOutcome race(const std::vector<graph::NodeId> &sources,
                     RaceType type,
                     sim::Tick horizon = sim::kTickInfinity) const;

    size_t nodeCount() const { return inDegree.size(); }
    size_t edgeCount() const { return csr.edgeCount(); }

  private:
    graph::CsrOutEdges csr;
    std::vector<uint32_t> inDegree;
    graph::Weight maxWeight = 0;
};

} // namespace racelogic::core

#endif // RACELOGIC_CORE_WAVEFRONT_H
