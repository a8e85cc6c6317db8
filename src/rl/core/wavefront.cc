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

} // namespace racelogic::core
