/**
 * @file
 * The dense min-plus row sweep behind both fused grid kernels
 * (core::raceEditGrid and pangraph::raceAlignmentGrid).
 *
 * In the paper's OR-type race grid the cycle a cell fires *is* its DP
 * value (Fig. 4c), the earliest arrival over its in-edges, so the
 * race needs no simulated clock: a row-major pull sweep computes
 * every firing time directly.  Cell (j, q) -- row j of the row axis
 * (a string, or the read), position q of the column axis (a string,
 * or a graph's topologically numbered characters) -- is the minimum
 * of
 *
 *  - (j-1, q) + gapRow[j-1]                    (consume row symbol)
 *  - (j-1, p) + pair(row[j-1], sym(q))         for each pred p of q
 *  - (j, p)   + gapCol(q)                      for each pred p of q
 *
 * with (0, 0) injected at tick 0.  The race's other observables come
 * from the same candidates: an arrival is scheduled -- one event --
 * iff its source fired and it lands at or before the horizon (the
 * Section 6 abort counter trips first), and the race ran until its
 * latest scheduled arrival.  The horizon makes each row a band
 * (ASAP's banded extend): it starts at the row above's first fired
 * cell, stops past the furthest column a fired cell can still feed,
 * and a row where nothing fires ends the race.
 */

#ifndef RACELOGIC_CORE_DENSE_SWEEP_H
#define RACELOGIC_CORE_DENSE_SWEEP_H

#include <algorithm>
#include <vector>

#include "rl/bio/score_matrix.h"
#include "rl/bio/sequence.h"
#include "rl/core/cancel.h"
#include "rl/core/temporal.h"

namespace racelogic::core {

/** The row axis' weights, hoisted out of the sweep. */
struct SweepRows {
    size_t count = 0;                 ///< row symbols (rows 1..count)
    const bio::Score *gap = nullptr;  ///< gap[j]: (j, q) -> (j+1, q)
    const bio::Score *pair = nullptr; ///< pair[j * stride + sym(q)]
    size_t stride = 0;                ///< symbols per pair row
};

/**
 * Reusable per-thread storage for the hoisted weights, so steady-state
 * batch loops allocate none per race.
 */
struct SweepScratch {
    std::vector<bio::Score> gapRow;  ///< gap(row[j])
    std::vector<bio::Score> pairRow; ///< pair(row[j], s), one row per j
    std::vector<bio::Score> gapCol;  ///< column gaps of a string axis

    /** Hoist `row`'s gap and pair weights under `costs`. */
    SweepRows
    hoist(const bio::Sequence &row, const bio::ScoreMatrix &costs)
    {
        const size_t alpha = costs.alphabet().size();
        gapRow.resize(row.size());
        pairRow.resize(row.size() * alpha);
        for (size_t j = 0; j < row.size(); ++j) {
            gapRow[j] = costs.gap(row[j]);
            for (size_t s = 0; s < alpha; ++s)
                pairRow[j * alpha + s] =
                    costs.pair(row[j], static_cast<bio::Symbol>(s));
        }
        return {row.size(), gapRow.data(), pairRow.data(), alpha};
    }

    /** Release all retained capacity. */
    void
    shrinkToFit()
    {
        for (std::vector<bio::Score> *v : {&gapRow, &pairRow, &gapCol}) {
            v->clear();
            v->shrink_to_fit();
        }
    }

    /** Heap bytes currently retained. */
    size_t
    residentBytes() const
    {
        return (gapRow.capacity() + pairRow.capacity() +
                gapCol.capacity()) *
               sizeof(bio::Score);
    }
};

/** What one sweep counted besides the table it filled. */
struct SweepTally {
    uint64_t events = 0;    ///< arrivals scheduled (at or before horizon)
    sim::Tick latest = 0;   ///< latest scheduled arrival (0 if none)
    size_t fired = 0;       ///< cells that fired
    bool cancelled = false; ///< a CancelToken stopped the sweep
};

// Table cells are plain ticks or TemporalValues.
inline sim::Tick tickOf(sim::Tick cell) { return cell; }
inline sim::Tick tickOf(TemporalValue cell) { return cell.rawTime(); }
inline void settle(sim::Tick &cell, sim::Tick t) { cell = t; }
inline void settle(TemporalValue &c, sim::Tick t) { c = TemporalValue::at(t); }

/**
 * Sweep the (rows.count + 1) x columns.size() grid into `table`
 * (row-major, every cell pre-set to never), writing each cell that
 * fires at or before `horizon`.  `Columns` provides size(); and, for
 * q >= 1, symbol(q), gap(q) and forEachPred(q, f), which calls f(p)
 * for each predecessor p < q (position 0 has none); and reach(q),
 * the furthest position a fired cell at q can feed in its own row or
 * the next.  Weights are >= 1 and kScoreInfinity is a missing edge.
 * `cancel` (nullptr = never) is polled once per row; a cancelled
 * sweep returns at once, its table partial.
 */
template <typename Columns, typename Cell>
SweepTally
denseSweep(const Columns &columns, const SweepRows &rows,
           sim::Tick horizon, Cell *table, const CancelToken *cancel)
{
    const size_t width = columns.size();
    // Every fired cell is at most `limit` and a forbidden weight alone
    // exceeds it, so no sum below overflows or counts a missing edge.
    const sim::Tick limit = std::min<sim::Tick>(
        horizon, static_cast<sim::Tick>(bio::kScoreInfinity) - 1);

    SweepTally tally;
    auto offer = [&](sim::Tick &best, sim::Tick from, bio::Score w) {
        if (from > limit)
            return; // the source never fired
        const sim::Tick t = from + static_cast<sim::Tick>(w);
        if (t > limit)
            return; // past the horizon: never scheduled
        ++tally.events;
        tally.latest = std::max(tally.latest, t);
        best = std::min(best, t);
    };

    // The band: the row above's first fired column, and the furthest
    // column a fired cell of that row (or, as we go, this one) feeds.
    size_t lo = 0, reach = 0;
    for (size_t j = 0; j <= rows.count; ++j) {
        if (cancel && cancel->cancelled()) {
            tally.cancelled = true;
            return tally;
        }
        Cell *here = table + j * width;
        const Cell *above = j ? here - width : nullptr;
        const bio::Score *pairs =
            j ? rows.pair + (j - 1) * rows.stride : nullptr;
        size_t nextLo = width, nextReach = 0;
        for (size_t q = lo; q < width && q <= reach; ++q) {
            sim::Tick best = j || q ? sim::kTickInfinity : 0; // root
            if (j)
                offer(best, tickOf(above[q]), rows.gap[j - 1]);
            if (q) {
                const bio::Score across = j ? pairs[columns.symbol(q)] : 0;
                const bio::Score gap = columns.gap(q);
                columns.forEachPred(q, [&](size_t p) {
                    if (j)
                        offer(best, tickOf(above[p]), across);
                    offer(best, tickOf(here[p]), gap);
                });
            }
            if (best == sim::kTickInfinity)
                continue;
            settle(here[q], best);
            ++tally.fired;
            nextLo = std::min(nextLo, q);
            nextReach = std::max(nextReach, columns.reach(q));
            reach = std::max(reach, nextReach);
        }
        if (nextLo == width)
            break; // nothing fired, so nothing later can
        lo = nextLo;
        reach = nextReach;
    }
    return tally;
}

} // namespace racelogic::core

#endif // RACELOGIC_CORE_DENSE_SWEEP_H
