#include "rl/core/lattice_sweep.h"

#include <algorithm>

#include "rl/util/logging.h"

namespace racelogic::core {

namespace {

/** What a sweep counts besides the table it fills. */
struct Tally {
    uint64_t events = 0;    ///< arrivals from fired sources
    sim::Tick latest = 0;   ///< latest such arrival
    size_t fired = 0;       ///< nodes that fired
    sim::Tick lastFired = 0; ///< latest firing (the race's horizon)

    /**
     * An in-edge of weight `w` from `from`: one event if `from` fired,
     * and a candidate for its target's firing `best`.
     */
    void
    offer(sim::Tick &best, TemporalValue from, sim::Tick w)
    {
        if (!from.fired())
            return;
        const sim::Tick t = from.rawTime() + w;
        ++events;
        latest = std::max(latest, t);
        best = std::min(best, t);
    }

    /** Fire `node` at `best`, unless no in-edge arrived. */
    void
    settle(TemporalValue &node, sim::Tick best)
    {
        if (best == sim::kTickInfinity)
            return;
        node = TemporalValue::at(best);
        ++fired;
        lastFired = std::max(lastFired, best);
    }

    /** Record the totals in `outcome` and `counters`. */
    void
    finish(RaceOutcome &outcome, KernelCounters *counters) const
    {
        outcome.events = events;
        outcome.horizon = lastFired;
        if (!counters)
            return;
        counters->events += events;
        counters->bucketsDrained += latest + 1;
        counters->scratchHighWater =
            std::max(counters->scratchHighWater,
                     static_cast<uint64_t>(outcome.firing.size()));
        counters->lanesOccupied += fired;
    }
};

/** The once-per-row poll: true (and `outcome` marked) if cancelled. */
bool
stopped(const CancelToken *cancel, RaceOutcome &outcome,
        KernelCounters *counters)
{
    if (!cancel || !cancel->cancelled())
        return false;
    outcome.cancelled = true;
    if (counters)
        ++counters->cancels;
    return true;
}

/** |p - q| without signed overflow. */
sim::Tick
sampleDistance(int64_t p, int64_t q)
{
    const auto up = static_cast<sim::Tick>(p);
    const auto uq = static_cast<sim::Tick>(q);
    return p > q ? up - uq : uq - up;
}

} // namespace

RaceOutcome
sweepDtwLattice(const std::vector<int64_t> &x,
                const std::vector<int64_t> &y, const CancelToken *cancel,
                KernelCounters *counters)
{
    rl_assert(!x.empty() && !y.empty(), "DTW of an empty signal");
    const size_t rows = x.size();
    const size_t cols = y.size();

    RaceOutcome outcome;
    outcome.firing.assign(rows * cols + 1, TemporalValue::never());
    TemporalValue *cells = outcome.firing.data();
    cells[rows * cols] = TemporalValue::at(0); // the source

    // Every DTW edge is finite, so every node fires and every in-edge
    // is one event: a cell fires at its earliest predecessor plus its
    // node cost |x_i - y_j|, and its latest arrival is its latest
    // predecessor plus the same cost.
    Tally tally;
    tally.events = 1 + (rows - 1) * cols + rows * (cols - 1) +
                   (rows - 1) * (cols - 1);
    tally.fired = rows * cols + 1;
    auto fire = [&](TemporalValue &cell, sim::Tick first, sim::Tick last,
                    sim::Tick w) {
        cell = TemporalValue::at(first + w);
        tally.lastFired = std::max(tally.lastFired, first + w);
        tally.latest = std::max(tally.latest, last + w);
    };
    for (size_t i = 0; i < rows; ++i) {
        if (stopped(cancel, outcome, counters))
            return outcome;
        TemporalValue *here = cells + i * cols;
        const int64_t xi = x[i];
        if (i == 0) {
            fire(here[0], 0, 0, sampleDistance(xi, y[0]));
            for (size_t j = 1; j < cols; ++j) {
                const sim::Tick left = here[j - 1].rawTime();
                fire(here[j], left, left, sampleDistance(xi, y[j]));
            }
            continue;
        }
        const TemporalValue *above = here - cols;
        const sim::Tick up = above[0].rawTime();
        fire(here[0], up, up, sampleDistance(xi, y[0]));
        for (size_t j = 1; j < cols; ++j) {
            const sim::Tick p = above[j].rawTime();
            const sim::Tick q = here[j - 1].rawTime();
            const sim::Tick r = above[j - 1].rawTime();
            fire(here[j], std::min({p, q, r}), std::max({p, q, r}),
                 sampleDistance(xi, y[j]));
        }
    }
    tally.finish(outcome, counters);
    return outcome;
}

RaceOutcome
sweepAffineLattice(const bio::Sequence &a, const bio::Sequence &b,
                   const bio::ScoreMatrix &costs,
                   const bio::AffineGapCosts &gaps,
                   const CancelToken *cancel, KernelCounters *counters)
{
    rl_assert(a.alphabet() == costs.alphabet() &&
                  b.alphabet() == costs.alphabet(),
              "sequences and matrix use different alphabets");
    rl_assert(costs.isCost(), "affine alignment minimizes costs");
    rl_assert(gaps.extend >= 1 && gaps.open >= gaps.extend,
              "race-ready affine gaps need open >= extend >= 1");

    // Pair weights hoisted out of the sweep.
    const size_t alpha = costs.alphabet().size();
    std::vector<bio::Score> pairs(alpha * alpha);
    for (size_t s = 0; s < alpha; ++s)
        for (size_t t = 0; t < alpha; ++t) {
            const bio::Score w = costs.pair(static_cast<bio::Symbol>(s),
                                            static_cast<bio::Symbol>(t));
            rl_assert(w == bio::kScoreInfinity || w >= 1,
                      "race-ready pair weights must be >= 1");
            pairs[s * alpha + t] = w;
        }
    const auto open = static_cast<sim::Tick>(gaps.open);
    const auto extend = static_cast<sim::Tick>(gaps.extend);

    const size_t rows = a.size();
    const size_t width = b.size() + 1;
    const bio::Symbol *bCol = b.symbols().data();
    const size_t plane = (rows + 1) * width;

    RaceOutcome outcome;
    outcome.firing.assign(3 * plane + 1, TemporalValue::never());
    TemporalValue *m = outcome.firing.data();
    TemporalValue *ix = m + plane;
    TemporalValue *iy = ix + plane;

    // A node's in-edges come from the three layers' nodes at one
    // cell, weighted by the source layer.
    Tally tally;
    auto pull = [&](TemporalValue &node, size_t from, sim::Tick wm,
                    sim::Tick wx, sim::Tick wy) {
        sim::Tick best = sim::kTickInfinity;
        tally.offer(best, m[from], wm);
        tally.offer(best, ix[from], wx);
        tally.offer(best, iy[from], wy);
        tally.settle(node, best);
    };
    tally.settle(m[0], 0); // the source, M(0, 0)
    for (size_t i = 0; i <= rows; ++i) {
        if (stopped(cancel, outcome, counters))
            return outcome;
        const bio::Score *pairRow =
            i ? &pairs[size_t(a.symbols()[i - 1]) * alpha] : nullptr;
        for (size_t j = 0; j < width; ++j) {
            const size_t id = i * width + j;
            // M(i, j): an aligned pair; a forbidden pair is a missing
            // edge.
            const bio::Score pair =
                i && j ? pairRow[bCol[j - 1]] : bio::kScoreInfinity;
            if (pair != bio::kScoreInfinity) {
                const auto w = static_cast<sim::Tick>(pair);
                pull(m[id], id - width - 1, w, w, w);
            }
            // Ix(i, j): consume a[i-1] (gap in b).
            if (i)
                pull(ix[id], id - width, open, extend, open);
            // Iy(i, j): consume b[j-1] (gap in a).
            if (j)
                pull(iy[id], id - 1, open, open, extend);
        }
    }
    // Zero-weight collector wires into the single output node.
    pull(outcome.firing.back(), plane - 1, 0, 0, 0);

    tally.finish(outcome, counters);
    return outcome;
}

} // namespace racelogic::core
