#include "rl/core/wavefront.h"

#include <algorithm>

#include "rl/util/logging.h"

namespace racelogic::core {

WavefrontRaceKernel::WavefrontRaceKernel(const graph::Dag &dag)
    : csr(dag.outEdgesCsr())
{
    inDegree.assign(dag.nodeCount(), 0);
    for (graph::NodeId to : csr.to)
        ++inDegree[to];
    for (graph::Weight w : csr.weight) {
        rl_assert(w >= 0 && w <= kMaxWavefrontWeight,
                  "wavefront kernel weight ", w, " outside [0, ",
                  kMaxWavefrontWeight, "]; use raceDag(), which "
                  "dispatches oversized graphs to the event kernel");
        maxWeight = std::max(maxWeight, w);
    }
}

bool
WavefrontRaceKernel::suitableFor(const graph::Dag &dag)
{
    if (dag.edgeCount() == 0)
        return true;
    return dag.maxWeight() <= kMaxWavefrontWeight;
}

RaceOutcome
WavefrontRaceKernel::race(const std::vector<graph::NodeId> &sources,
                          RaceType type, sim::Tick horizon) const
{
    rl_assert(!sources.empty(), "race needs at least one source");

    const size_t n = nodeCount();
    RaceOutcome outcome;
    outcome.firing.assign(n, TemporalValue::never());

    // And nodes fire on the last arrival (in-degree countdown); Or
    // nodes on the first (later arrivals are absorbed).
    std::vector<uint32_t> waiting;
    if (type == RaceType::And)
        waiting = inDegree;

    // The calendar: ring of maxWeight+1 buckets, one per future tick
    // an arrival can land on.  Entries are arrival target nodes.
    const size_t ring = static_cast<size_t>(maxWeight) + 1;
    std::vector<std::vector<graph::NodeId>> buckets(ring);
    size_t pending = 0;
    sim::Tick lastFired = 0;

    auto fire = [&](graph::NodeId node, sim::Tick t) {
        outcome.firing[node] = TemporalValue::at(t);
        lastFired = std::max(lastFired, t);
        const uint32_t begin = csr.offsets[node];
        const uint32_t end = csr.offsets[node + 1];
        for (uint32_t e = begin; e < end; ++e) {
            sim::Tick at = t + static_cast<sim::Tick>(csr.weight[e]);
            if (at > horizon)
                continue; // Section 6: the abort counter trips first.
            buckets[at % ring].push_back(csr.to[e]);
            ++pending;
        }
    };

    for (graph::NodeId s : sources) {
        rl_assert(s < n, "bad source node ", s);
        // In AND mode a source with in-edges would double-fire; the
        // injected edge dominates (hardware ties the input high).
        if (type == RaceType::And)
            waiting[s] = 0;
        if (!outcome.firing[s].fired())
            fire(s, 0);
    }

    for (sim::Tick t = 0; pending > 0; ++t) {
        std::vector<graph::NodeId> &bucket = buckets[t % ring];
        // Index loop: zero-weight edges append to this same bucket
        // mid-drain and must still fire at tick t.
        for (size_t i = 0; i < bucket.size(); ++i) {
            graph::NodeId node = bucket[i];
            --pending;
            ++outcome.events;
            if (outcome.firing[node].fired())
                continue; // OR node already high
            if (type == RaceType::Or) {
                fire(node, t);
            } else {
                rl_assert(waiting[node] > 0, "arrival underflow");
                if (--waiting[node] == 0)
                    fire(node, t); // last arrival = max
            }
        }
        bucket.clear();
    }

    outcome.horizon = lastFired;
    return outcome;
}

RaceGridResult
raceEditGrid(const bio::Sequence &a, const bio::Sequence &b,
             const bio::ScoreMatrix &costs, sim::Tick horizon,
             RaceGridScratch &scratch, const CancelToken *cancel,
             KernelCounters *counters)
{
    rl_assert(a.alphabet() == costs.alphabet() &&
              b.alphabet() == costs.alphabet(),
              "sequences and matrix use different alphabets");
    // The chain-detaching drain below relies on every weight being
    // >= 1 (a fire at tick t never schedules back into bucket t);
    // zero-weight graphs must race on the general DAG kernel.
    rl_assert(costs.minFinite() >= 1,
              "raceEditGrid requires all finite weights >= 1 (got ",
              costs.minFinite(), ")");

    const size_t rows = a.size();
    const size_t cols = b.size();
    const size_t width = cols + 1;

    // Per-symbol gap weights, hoisted out of the sweep.
    std::vector<bio::Score> &gapA = scratch.gapA;
    std::vector<bio::Score> &gapB = scratch.gapB;
    gapA.resize(rows);
    gapB.resize(cols);
    for (size_t i = 0; i < rows; ++i)
        gapA[i] = costs.gap(a[i]);
    for (size_t j = 0; j < cols; ++j)
        gapB[j] = costs.gap(b[j]);

    // The calendar cells and arena offsets are 32-bit; bound the
    // grid so neither can wrap (each cell fires at most once and
    // pushes at most three arrivals).  Checked before the arrival
    // grid is allocated, so the diagnostic fires instead of an OOM.
    if ((rows + 1) * (cols + 1) >=
        static_cast<size_t>(BucketCalendar::kNil) / 3)
        rl_fatal("edit grid of ", rows, " x ", cols,
                 " exceeds the calendar's 32-bit arena; split the "
                 "comparison");

    RaceGridResult result;
    result.arrival = util::Grid<sim::Tick>(rows + 1, cols + 1,
                                           sim::kTickInfinity);

    // The calendar: ring of maxWeight+1 chain heads over one flat
    // node arena.  Weights are >= 1, so a drain of tick t never
    // pushes back into bucket t, and nothing scheduled can alias a
    // slot still holding older entries (Dial's invariant).
    const size_t ring = static_cast<size_t>(costs.maxFinite()) + 1;
    BucketCalendar &calendar = scratch.calendar;
    calendar.reset(ring);

    // fire() generates the cell's out-edges straight from the cost
    // matrix -- the edit graph is never materialized.  `slot` is
    // t % ring, tracked by the calendar's drain; pushAhead addresses
    // the ring as slot + w with one conditional wrap (w <= maxFinite
    // < ring), so the sweep divides nothing per scheduled arrival.
    auto fire = [&](size_t cell, sim::Tick t, size_t slot) {
        const size_t i = cell / width;
        const size_t j = cell % width;
        result.arrival.at(i, j) = t;
        ++result.cellsFired;
        auto push = [&](size_t to, bio::Score w) {
            if (t + static_cast<sim::Tick>(w) > horizon)
                return; // Section 6: the abort counter trips first.
            calendar.pushAhead(static_cast<uint32_t>(to), slot,
                               static_cast<size_t>(w), ring);
        };
        if (i < rows) // vertical: delete a[i]
            push(cell + width, gapA[i]);
        if (j < cols) // horizontal: insert b[j]
            push(cell + 1, gapB[j]);
        if (i < rows && j < cols) {
            bio::Score w = costs.pair(a[i], b[j]);
            if (w != bio::kScoreInfinity) // forbidden pair: no edge
                push(cell + width + 1, w);
        }
    };

    fire(0, 0, 0); // root injected at tick 0 (always <= horizon)

    sim::Tick lastSwept = 0;
    const bool drained = calendar.drain(
        ring,
        [&](uint32_t cell, sim::Tick t, size_t slot) {
            ++result.events;
            lastSwept = t;
            const size_t r = cell / width;
            const size_t c = cell % width;
            if (result.arrival.at(r, c) == sim::kTickInfinity)
                fire(cell, t, slot); // else: OR cell already high
        },
        cancel);

    // Profiling export: everything below was tracked by the sweep
    // anyway (or is a container size), so a null `counters` costs
    // nothing and a non-null one cannot change the result.
    if (counters) {
        counters->events += result.events;
        counters->bucketsDrained += static_cast<uint64_t>(lastSwept) + 1;
        counters->scratchHighWater =
            std::max(counters->scratchHighWater,
                     static_cast<uint64_t>(calendar.arena.size()));
        counters->lanesOccupied += result.cellsFired;
    }

    const sim::Tick sink = result.arrival.at(rows, cols);
    if (!drained && sink == sim::kTickInfinity) {
        // Cancelled before the sink fired: the same typed-abort shape
        // as a horizon trip, stamped with the last cycle swept.
        result.completed = false;
        result.cancelled = true;
        result.score = bio::kScoreInfinity;
        result.latencyCycles = lastSwept;
        if (counters)
            ++counters->cancels;
        return result;
    }
    if (sink != sim::kTickInfinity) {
        result.completed = true;
        result.score = static_cast<bio::Score>(sink);
        result.latencyCycles = sink;
    } else {
        rl_assert(horizon != sim::kTickInfinity,
                  "sink never fired; gap weights should guarantee a "
                  "path");
        result.completed = false;
        result.score = bio::kScoreInfinity;
        result.latencyCycles = horizon;
        if (counters)
            ++counters->horizonAborts;
    }
    return result;
}

} // namespace racelogic::core
