#include "rl/pangraph/graph_align_kernel.h"

#include <algorithm>

#include "rl/util/logging.h"

namespace racelogic::pangraph {

namespace {

/** The column axis of a product: the compiled predecessor CSR. */
struct GraphColumns {
    const CompiledGraph &compiled;

    size_t size() const { return compiled.positionCount(); }
    bio::Symbol symbol(size_t q) const { return compiled.symbol[q]; }
    bio::Score gap(size_t q) const { return compiled.gapWeight[q]; }
    // A successor can sit anywhere after q in index order.
    size_t reach(size_t) const { return compiled.charCount; }

    template <typename F>
    void
    forEachPred(size_t q, F &&f) const
    {
        const uint32_t begin = compiled.predOffsets[q];
        const uint32_t end = compiled.predOffsets[q + 1];
        // Inside a segment the one predecessor is q - 1; naming it as
        // such lets the sweep take it from its register.
        if (end == begin + 1 && compiled.pred[begin] + 1 == q) {
            f(q - 1);
            return;
        }
        for (uint32_t e = begin; e < end; ++e)
            f(compiled.pred[e]);
    }
};

} // namespace

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
    // The hoisted gapWeight array and the weight rows below must come
    // from the same matrix, or the sweep would mix tables; the
    // equality also carries compileGraph's plan-time weight
    // validation (all finite weights >= 1) over.
    rl_assert(costs.fingerprint() == compiled.matrixFingerprint,
              "matrix does not match the one the graph was compiled "
              "with; the hoisted gap weights would mix tables");

    const size_t m = read.size();
    const size_t positions = compiled.positionCount();
    const size_t states = (m + 1) * positions + 1;

    const GraphColumns columns{compiled};
    const core::SweepRows weights = scratch.hoist(read, costs, columns);
    GraphRaceResult result;
    result.nodes = states;
    result.arrival.assign(states, core::TemporalValue::never());
    const core::SweepTally tally =
        core::denseSweep(columns, weights, horizon, result.arrival.data(),
                         scratch, cancel, counters != nullptr);

    if (tally.cancelled) {
        result.completed = false;
        result.cancelled = true;
        result.racedCost = bio::kScoreInfinity;
        result.score = bio::kScoreInfinity;
        if (counters)
            ++counters->cancels;
        return result;
    }
    result.events = tally.events;
    result.cellsFired = tally.fired;

    // The super-sink OR: one zero-weight wire per terminal state
    // (m, p), each an event once its state fires; the first fires the
    // sink.
    const core::TemporalValue *last = &result.arrival[m * positions];
    core::TemporalValue sink = core::TemporalValue::never();
    for (size_t p = 1; p < positions; ++p) {
        if (compiled.terminal[p] && last[p].fired()) {
            ++result.events;
            sink = std::min(sink, last[p]);
        }
    }
    result.arrival[states - 1] = sink;
    result.cellsFired += sink.fired();
    result.completed = sink.fired();
    rl_assert(result.completed || horizon != sim::kTickInfinity,
              "sink never fired; gap weights should guarantee a walk");
    // A Section 6 abort stops at the horizon, where the counter trips.
    result.racedCost = result.completed
                           ? static_cast<bio::Score>(sink.time())
                           : bio::kScoreInfinity;
    result.score = result.racedCost;
    result.latencyCycles = result.completed ? sink.time() : horizon;

    // Profiling export; the sweep tracked `latest` for it.
    if (counters) {
        counters->events += result.events;
        counters->bucketsDrained += tally.latest + 1;
        counters->scratchHighWater = std::max(
            counters->scratchHighWater, static_cast<uint64_t>(states));
        counters->lanesOccupied += result.cellsFired;
        counters->horizonAborts += !result.completed;
    }
    return result;
}

} // namespace racelogic::pangraph
