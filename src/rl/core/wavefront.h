/**
 * @file
 * Bucketed wavefront race kernel (Dial's algorithm on the DAG).
 *
 * The paper's OR-type race *is* a shortest-path wavefront sweeping the
 * edit graph one clock cycle at a time; the generic discrete-event
 * simulator (sim::EventQueue) models that with a binary heap of
 * std::function closures -- one heap allocation plus O(log E) ordering
 * work per edge arrival.  But Race Logic delays are small bounded
 * integers (cost-matrix weights), so a calendar of W+1 circular
 * buckets (Dial's algorithm, W = the largest edge weight) schedules
 * the same arrivals in O(1) each: an arrival at tick t+w goes into
 * bucket (t+w) mod (W+1), and the simulation simply drains bucket t,
 * t+1, t+2, ... -- exactly the clock the hardware would tick.  Total
 * cost O(E + T) with flat arrays, no per-event allocation, and no
 * comparator.
 *
 * Two kernels are provided:
 *
 *  - WavefrontRaceKernel: races any graph::Dag via its packed CSR
 *    view.  Supports Or (first-arrival, min) and And (last-arrival
 *    via in-degree countdown, max) races, and an early-termination
 *    horizon: arrivals past the horizon are never scheduled, which is
 *    the Section 6 abort counter -- a threshold screen stops racing
 *    at `threshold` cycles instead of draining the whole grid.
 *
 *  - raceEditGrid(): the same bucket sweep specialized to the
 *    (|a|+1) x (|b|+1) edit graph of two sequences, with the three
 *    out-edges of each cell (delete / insert / align) generated on
 *    the fly from the cost matrix.  No graph is materialized at all,
 *    which is what makes the behavioral race-grid aligner fast enough
 *    for database screening sweeps.
 *
 * Both kernels fire events in the same order as the event-driven
 * reference (rl/core/race_network.h raceDagEventDriven), so outcomes
 * -- firing times *and* event counts -- are bit-identical; the
 * equivalence suite in tests/core_wavefront_test.cc checks them
 * against each other and against the DP oracle.  sim::EventQueue
 * survives only under that reference, raceDagEventDriven().
 */

#ifndef RACELOGIC_CORE_WAVEFRONT_H
#define RACELOGIC_CORE_WAVEFRONT_H

#include <vector>

#include "rl/bio/score_matrix.h"
#include "rl/bio/sequence.h"
#include "rl/core/cancel.h"
#include "rl/core/kernel_counters.h"
#include "rl/core/race_grid.h"
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

/**
 * The Dial's-algorithm bucket calendar as a single flat arena, shared
 * by the fused sweep kernels (raceEditGrid here and
 * pangraph::raceAlignmentGrid).
 *
 * Instead of a vector-of-vectors calendar (one heap allocation per
 * ring slot, re-allocated every call), the pending arrivals live in
 * one backing vector of {cell, next} nodes and the ring holds only
 * head offsets into it -- push is an O(1) append plus a head swap,
 * and a drain walks a detached chain.  A calendar kept across calls
 * retains the arena's capacity, so steady-state screening and read
 * mapping (the per-thread batch loops) allocate no calendar storage
 * per comparison.
 *
 * The chain-detach drain relies on Dial's w >= 1 invariant: a fire at
 * tick t must never schedule back into bucket t (zero-weight edges
 * need kernel-level special-casing, as the super-sink wires of the
 * graph-align kernel do).
 */
struct BucketCalendar {
    /** One pending arrival, chained per bucket. */
    struct Node {
        uint32_t cell;
        uint32_t next; ///< arena offset of the next node, or kNil
    };

    static constexpr uint32_t kNil = ~uint32_t(0);

    std::vector<uint32_t> heads; ///< per ring slot: chain head offset
    std::vector<Node> arena;     ///< the one backing vector
    size_t pending = 0;          ///< scheduled-but-undrained arrivals

    /** Empty the ring to `ring` buckets, keeping arena capacity. */
    void
    reset(size_t ring)
    {
        heads.assign(ring, kNil);
        arena.clear();
        pending = 0;
    }

    /**
     * Release retained capacity.  reset() deliberately keeps the
     * arena's high-water allocation so steady-state batch loops
     * allocate nothing per comparison -- but one oversized solve then
     * pins that high-water for the thread's lifetime.  Brownout and
     * the idle-worker timer call this to give the memory back; the
     * next race simply regrows.
     */
    void
    shrinkToFit()
    {
        heads.clear();
        heads.shrink_to_fit();
        arena.clear();
        arena.shrink_to_fit();
        pending = 0;
    }

    /** Heap bytes currently retained by the ring and arena. */
    size_t
    residentBytes() const
    {
        return heads.capacity() * sizeof(uint32_t) +
               arena.capacity() * sizeof(Node);
    }

    /** O(1) append of `cell` to the bucket at ring slot `slot`. */
    void
    push(uint32_t cell, size_t slot)
    {
        uint32_t &head = heads[slot];
        arena.push_back({cell, head});
        head = static_cast<uint32_t>(arena.size() - 1);
        ++pending;
    }

    /**
     * Append `cell` to the bucket `w` ticks ahead of the slot being
     * drained, with one conditional wrap instead of a division
     * (requires w < ring, i.e. ring sized to maxWeight + 1).
     */
    void
    pushAhead(uint32_t cell, size_t slot, size_t w, size_t ring)
    {
        size_t at = slot + w;
        if (at >= ring)
            at -= ring;
        push(cell, at);
    }

    /** Detach and return slot's chain head (kNil when empty). */
    uint32_t
    detach(size_t slot)
    {
        uint32_t head = heads[slot];
        heads[slot] = kNil;
        return head;
    }

    /**
     * Drain bucket after bucket from tick 0 until the calendar is
     * empty, invoking visit(cell, t, slot) for every scheduled
     * arrival.  Each chain is detached before its nodes are visited:
     * visit may push -- into *other* buckets only (the w >= 1
     * invariant) -- and may grow the arena, so nodes are copied out
     * first.  The current slot (t % ring) is tracked incrementally
     * and handed to visit so pushes divide nothing.
     *
     * `cancel` (nullptr = never) is polled once per bucket -- the
     * simulated clock edge, the same granularity as the Section 6
     * abort counter -- so cooperative cancellation costs nothing per
     * event.  Returns false iff the sweep stopped early on a
     * cancelled token; arrivals still pending are simply abandoned
     * (the next reset() clears them).
     */
    template <typename Visit>
    bool
    drain(size_t ring, Visit &&visit, const CancelToken *cancel = nullptr)
    {
        size_t slot = 0;
        for (sim::Tick t = 0; pending > 0; ++t) {
            if (cancel && cancel->cancelled())
                return false;
            uint32_t node = detach(slot);
            while (node != kNil) {
                const Node entry = arena[node];
                node = entry.next;
                --pending;
                visit(entry.cell, t, slot);
            }
            if (++slot == ring)
                slot = 0;
        }
        return true;
    }
};

/**
 * Reusable scratch state for raceEditGrid: the bucket calendar plus
 * the hoisted per-symbol gap weights.
 */
struct RaceGridScratch {
    BucketCalendar calendar;
    std::vector<bio::Score> gapA, gapB; ///< hoisted gap weights

    /** Release all retained capacity (see BucketCalendar). */
    void
    shrinkToFit()
    {
        calendar.shrinkToFit();
        gapA.clear();
        gapA.shrink_to_fit();
        gapB.clear();
        gapB.shrink_to_fit();
    }

    /** Heap bytes currently retained across calendar and rows. */
    size_t
    residentBytes() const
    {
        return calendar.residentBytes() +
               (gapA.capacity() + gapB.capacity()) * sizeof(bio::Score);
    }
};

/**
 * Bucket-wavefront OR-type race of the edit graph of (a, b) under a
 * race-ready cost matrix, without materializing the graph.  The
 * bucket calendar lives in (and keeps the capacity of) the caller's
 * scratch.
 *
 * Semantically identical to racing makeEditGraph(a, b, costs) with
 * raceDag(..., RaceType::Or, horizon): same arrival grid (filled for
 * every cell firing at or before `horizon`), same event count, same
 * sink score.  `completed` is false iff the sink had not fired by the
 * horizon, in which case score is bio::kScoreInfinity and
 * latencyCycles is the horizon (the cycle the abort counter tripped).
 *
 * `cancel` (nullptr = never) is polled once per simulated clock
 * cycle; a cancelled race comes back completed = false with
 * cancelled = true, score kScoreInfinity, and latencyCycles the last
 * cycle swept -- the same typed-abort shape as a horizon trip, so
 * callers built around Section 6 aborts handle it unchanged.
 *
 * `counters` (nullptr = off) accumulates per-race profiling counts
 * the sweep tracks anyway -- events drained, buckets swept, arena
 * high-water, cells fired, cancel/horizon aborts.  It is touched only
 * after the drain, so the raced result is bit-identical either way.
 *
 * fatal() on alphabet mismatch; requires a Cost-kind matrix with all
 * finite weights >= 1 (checked by RaceGridAligner's constructor).
 */
RaceGridResult raceEditGrid(const bio::Sequence &a,
                            const bio::Sequence &b,
                            const bio::ScoreMatrix &costs,
                            sim::Tick horizon,
                            RaceGridScratch &scratch,
                            const CancelToken *cancel = nullptr,
                            KernelCounters *counters = nullptr);

} // namespace racelogic::core

#endif // RACELOGIC_CORE_WAVEFRONT_H
