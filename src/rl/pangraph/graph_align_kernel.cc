#include "rl/pangraph/graph_align_kernel.h"

#include <algorithm>

#include "rl/graph/dag.h"
#include "rl/util/logging.h"

namespace racelogic::pangraph {

GraphRaceResult
raceAlignmentGrid(const CompiledGraph &compiled, const bio::Sequence &read,
                  const bio::ScoreMatrix &costs, sim::Tick horizon,
                  GraphAlignScratch &scratch,
                  const core::CancelToken *cancel,
                  core::KernelCounters *counters)
{
    rl_assert(costs.isCost(), "graph alignment races a Cost-kind matrix");
    rl_assert(read.alphabet() == costs.alphabet(),
              "read and matrix use different alphabets");
    // The hoisted gapWeight array and the ring sizing below must come
    // from the same matrix: a foreign `costs` could size the ring
    // smaller than a hoisted weight, breaking pushAhead's w < ring
    // precondition (an out-of-bounds write, not just a wrong score).
    // The equality also carries compileGraph's plan-time weight
    // validation over: all finite weights >= 1, which is what lets
    // the chain-detaching drain run (zero-weight super-sink wires
    // are folded into the sink arrival instead of entering the
    // calendar); the debug build re-derives that directly.
    rl_assert(costs.fingerprint() == compiled.matrixFingerprint,
              "matrix does not match the one the graph was compiled "
              "with; the hoisted gap weights would mix tables");
    rl_dassert(costs.minFinite() >= 1,
               "raceAlignmentGrid requires all finite weights >= 1");

    const size_t m = read.size();
    const size_t positions = compiled.positionCount();

    // Same guard as buildAlignmentGraph() -- plus one for the
    // calendar: cells *and* arena offsets are 32-bit, and a full
    // drain schedules up to one arrival per product edge (each state
    // fires at most once and pushes one insertion plus two arrivals
    // per compiled successor), so both bounds must fit or the sweep
    // fails here with a diagnostic instead of wrapping indices.
    const size_t states = (m + 1) * positions + 1;
    const size_t arrivalBound =
        m * positions + (2 * m + 1) * compiled.succ.size();
    if (states >= static_cast<size_t>(graph::kNoNode) ||
        arrivalBound >= static_cast<size_t>(core::BucketCalendar::kNil))
        rl_fatal("product of a ", m, " bp read x ", positions,
                 " graph positions has ", states, " states and up to ",
                 arrivalBound,
                 " scheduled arrivals, exceeding the 32-bit id space; "
                 "split the pangenome or map shorter reads");

    // Per-read weight rows, hoisted out of the sweep: the insertion
    // weight per read offset and one flat substitution row per read
    // offset indexed by graph symbol.
    const size_t alpha = costs.alphabet().size();
    scratch.gapRead.resize(m);
    scratch.pairRow.resize(m * alpha);
    for (size_t j = 0; j < m; ++j) {
        scratch.gapRead[j] = costs.gap(read[j]);
        bio::Score *row = scratch.pairRow.data() + j * alpha;
        for (size_t s = 0; s < alpha; ++s)
            row[s] = costs.pair(read[j], static_cast<bio::Symbol>(s));
    }

    GraphRaceResult result;
    result.nodes = states;
    result.arrival.assign(states, core::TemporalValue::never());

    const size_t ring = static_cast<size_t>(costs.maxFinite()) + 1;
    core::BucketCalendar &calendar = scratch.calendar;
    calendar.reset(ring);

    const uint32_t sink = static_cast<uint32_t>((m + 1) * positions);
    const uint32_t stride = static_cast<uint32_t>(positions);

    // fire() generates the state's edge families straight from the
    // compiled CSR and the hoisted weight rows -- the product DAG is
    // never materialized.  `slot` is t % ring, tracked by the
    // calendar's drain; pushAhead addresses the ring as slot + w
    // with one conditional wrap (w <= maxFinite < ring), so the
    // sweep performs no division per scheduled arrival.
    auto fire = [&](uint32_t cell, sim::Tick t, size_t slot) {
        result.arrival[cell] = core::TemporalValue::at(t);
        ++result.cellsFired;
        const size_t j = cell / positions;
        const CharPos p = static_cast<CharPos>(cell % positions);
        auto push = [&](uint32_t to, bio::Score w) {
            if (t + static_cast<sim::Tick>(w) > horizon)
                return; // Section 6: the abort counter trips first.
            calendar.pushAhead(to, slot, static_cast<size_t>(w), ring);
        };
        const uint32_t begin = compiled.succOffsets[p];
        const uint32_t end = compiled.succOffsets[p + 1];
        if (j < m) {
            // Consume read[j] against a gap (insertion).
            push(cell + stride, scratch.gapRead[j]);
            const bio::Score *row = scratch.pairRow.data() + j * alpha;
            for (uint32_t e = begin; e < end; ++e) {
                const CharPos q = compiled.succ[e];
                // State (j, q) is cell - p + q; (j+1, q) one row on.
                const uint32_t across = cell - p + q;
                // Consume graph char q against a gap (deletion).
                push(across, compiled.gapWeight[q]);
                const bio::Score w = row[compiled.symbol[q]];
                if (w != bio::kScoreInfinity) // forbidden: no edge
                    push(across + stride, w); // substitute/match
            }
        } else {
            for (uint32_t e = begin; e < end; ++e) {
                const CharPos q = compiled.succ[e];
                push(cell - p + q, compiled.gapWeight[q]);
            }
            if (p > 0 && compiled.terminal[p]) {
                // The zero-weight super-sink wire.  The DAG kernel
                // would schedule it into the bucket being drained and
                // count it on the same tick; fold that in directly --
                // one event per wire, first terminal firing fires the
                // sink OR.
                ++result.events;
                if (!result.arrival[sink].fired()) {
                    result.arrival[sink] = core::TemporalValue::at(t);
                    ++result.cellsFired;
                }
            }
        }
    };

    fire(0, 0, 0); // source (0, 0) injected at tick 0 (<= horizon)

    sim::Tick lastSwept = 0;
    const bool drained = calendar.drain(
        ring,
        [&](uint32_t cell, sim::Tick t, size_t slot) {
            ++result.events;
            lastSwept = t;
            if (!result.arrival[cell].fired())
                fire(cell, t, slot); // else: OR state already high
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

    const core::TemporalValue sinkArrival = result.arrival[sink];
    result.completed = sinkArrival.fired();
    if (result.completed) {
        result.racedCost = static_cast<bio::Score>(sinkArrival.time());
        result.score = result.racedCost;
        result.latencyCycles = sinkArrival.time();
    } else if (!drained) {
        // Cancelled before the sink fired: the same typed-abort shape
        // as a horizon trip, stamped with the last cycle swept.
        result.cancelled = true;
        result.racedCost = bio::kScoreInfinity;
        result.score = bio::kScoreInfinity;
        result.latencyCycles = lastSwept;
        if (counters)
            ++counters->cancels;
    } else {
        rl_assert(horizon != sim::kTickInfinity,
                  "sink never fired; gap weights should guarantee a "
                  "walk");
        result.racedCost = bio::kScoreInfinity;
        result.score = bio::kScoreInfinity;
        result.latencyCycles = horizon;
        if (counters)
            ++counters->horizonAborts;
    }
    return result;
}

} // namespace racelogic::pangraph
