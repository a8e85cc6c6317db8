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
 *
 * The inner loop has no data-dependent branch.  The sweep reads and
 * writes two rolling rows of plain ticks in which never is
 * kSweepNever, so an unfired source plus any weight lands past every
 * horizon and one compare per candidate counts the event; the chain
 * along the row, (j, q - 1) -> (j, q), is carried in a register.
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

/** The row axis, hoisted out of the sweep. */
struct SweepRows {
    size_t count = 0;                    ///< row symbols (rows 1..count)
    const bio::Score *gap = nullptr;     ///< gap[j]: (j, q) -> (j+1, q)
    const bio::Symbol *symbol = nullptr; ///< symbol[j] picks row j+1's
                                         ///< profile row
};

/**
 * "Never" in the sweep's rolling rows: the table's never (all ones)
 * with the top bit cleared.  It is above every firing time (all below
 * kScoreInfinity), and never plus two weights of up to kScoreInfinity
 * each still fits a Tick, so no sum the sweep forms can wrap.
 */
inline constexpr sim::Tick kSweepNever = sim::kTickInfinity >> 1;

/** One column of a profile row: the weights into (j, q) along the
 *  row, under row j's symbol. */
struct SweepColumn {
    bio::Score across = 0; ///< pair(row symbol, sym(q)): (j-1, p) -> (j, q)
    bio::Score gap = 0;    ///< gap(q): (j, p) -> (j, q)
};

/**
 * Reusable per-thread storage for the hoisted weights, the column
 * profile and the two rolling rows, so steady-state batch loops
 * allocate none per race.
 */
struct SweepScratch {
    std::vector<bio::Score> gapRow;   ///< gap(row[j])
    std::vector<bio::Score> pairs;    ///< pair(s, t), alpha x alpha
    std::vector<bio::Score> gapCol;   ///< column gaps of a string axis
    std::vector<SweepColumn> profile; ///< one row per row symbol used
    std::vector<size_t> profileRow;   ///< s -> its row's offset
    std::vector<sim::Tick> above;     ///< row j-1 (never = kSweepNever)
    std::vector<sim::Tick> here;      ///< row j (never = kSweepNever)

    /** A weight as the sweep takes it: anything above kScoreInfinity
     *  already lands past every horizon, and the cap bounds the sums. */
    static bio::Score
    capped(bio::Score w)
    {
        return std::min(w, bio::kScoreInfinity);
    }

    /**
     * Ready a sweep of `row` against `columns` under `costs`: hoist
     * the row's gap weights and the pair table, build the column
     * profile and clear the rolling rows.  Callers do this before
     * allocating the race's table, so the scratch's growth never
     * lands between two tables on the heap.
     */
    template <typename Columns>
    SweepRows
    hoist(const bio::Sequence &row, const bio::ScoreMatrix &costs,
          const Columns &columns)
    {
        const size_t alpha = costs.alphabet().size();
        gapRow.resize(row.size());
        for (size_t j = 0; j < row.size(); ++j)
            gapRow[j] = capped(costs.gap(row[j]));
        pairs.resize(alpha * alpha);
        for (size_t s = 0; s < alpha; ++s)
            for (size_t t = 0; t < alpha; ++t)
                pairs[s * alpha + t] =
                    capped(costs.pair(static_cast<bio::Symbol>(s),
                                      static_cast<bio::Symbol>(t)));
        const SweepRows rows{row.size(), gapRow.data(),
                             row.symbols().data()};
        buildProfile(columns, rows, alpha);
        for (std::vector<sim::Tick> *v : {&above, &here}) {
            v->resize(std::max(v->size(), columns.size()));
            std::fill_n(v->begin(), columns.size(), kSweepNever);
        }
        return rows;
    }

    /**
     * Fill `profile` with one row of {pair(s, sym(q)), gap(q)} per row
     * symbol s in use, after a leading row for row 0 (whose diagonal
     * reads a row above that never fired), and point profileRow[s] at
     * each.
     */
    template <typename Columns>
    void
    buildProfile(const Columns &columns, const SweepRows &rows,
                 size_t alpha)
    {
        const size_t width = columns.size();
        profileRow.assign(alpha, 0);
        size_t used = 1;
        for (size_t j = 0; j < rows.count; ++j) {
            size_t &at = profileRow[rows.symbol[j]];
            if (!at)
                at = used++ * width;
        }
        profile.resize(std::max(profile.size(), used * width));
        SweepColumn *first = profile.data();
        for (size_t q = 1; q < width; ++q)
            first[q] = {0, columns.gap(q)};
        for (size_t s = 0; s < alpha; ++s) {
            if (!profileRow[s])
                continue;
            SweepColumn *row = first + profileRow[s];
            const bio::Score *pair = pairs.data() + s * alpha;
            for (size_t q = 1; q < width; ++q)
                row[q] = {pair[columns.symbol(q)], first[q].gap};
        }
    }

    /** Release all retained capacity. */
    void
    shrinkToFit()
    {
        for (std::vector<bio::Score> *v : {&gapRow, &pairs, &gapCol}) {
            v->clear();
            v->shrink_to_fit();
        }
        profile.clear();
        profile.shrink_to_fit();
        profileRow.clear();
        profileRow.shrink_to_fit();
        for (std::vector<sim::Tick> *v : {&above, &here}) {
            v->clear();
            v->shrink_to_fit();
        }
    }

    /** Heap bytes currently retained. */
    size_t
    residentBytes() const
    {
        return (gapRow.capacity() + pairs.capacity() + gapCol.capacity()) *
                   sizeof(bio::Score) +
               profile.capacity() * sizeof(SweepColumn) +
               profileRow.capacity() * sizeof(size_t) +
               (above.capacity() + here.capacity()) * sizeof(sim::Tick);
    }
};

/** What one sweep counted besides the table it filled. */
struct SweepTally {
    uint64_t events = 0;    ///< arrivals scheduled (at or before horizon)
    sim::Tick latest = 0;   ///< latest scheduled arrival (0 if none or
                            ///< not tracked)
    size_t fired = 0;       ///< cells that fired
    bool cancelled = false; ///< a CancelToken stopped the sweep
};

/** min by value: std::min's reference result sends a loop's
 *  candidates through memory. */
inline sim::Tick earlier(sim::Tick a, sim::Tick b) { return b < a ? b : a; }

// Table cells are plain ticks or TemporalValues.
inline void settle(sim::Tick &cell, sim::Tick t) { cell = t; }
inline void settle(TemporalValue &c, sim::Tick t) { c = TemporalValue::at(t); }

namespace detail {

/**
 * denseSweep() with `latest` tracked or not, fixed at compile time.
 * Out of line: inlined into a kernel entry point, the row loop
 * competed with it for registers and spilled its counters.
 */
template <bool kTrackLatest, typename Columns, typename Cell>
[[gnu::noinline]] SweepTally
sweepRows(const Columns &columns, const SweepRows &rows, sim::Tick horizon,
          Cell *table, const SweepScratch &scratch, sim::Tick *above,
          sim::Tick *here, const CancelToken *cancel)
{
    const size_t width = columns.size();
    // Every fired cell is at most `limit`, and never or a forbidden
    // weight alone exceeds it, so one compare per candidate both drops
    // unfired sources and applies the horizon.
    const sim::Tick limit = std::min<sim::Tick>(
        horizon, static_cast<sim::Tick>(bio::kScoreInfinity) - 1);

    uint64_t events = 0;
    sim::Tick latest = 0;
    size_t fired = 0;
    auto count = [&](sim::Tick t) {
        const bool scheduled = t <= limit;
        events += scheduled;
        if constexpr (kTrackLatest) {
            const sim::Tick kept = t & (sim::Tick(0) - scheduled);
            latest = latest < kept ? kept : latest;
        }
    };

    // The band: the row above's first fired column, and the furthest
    // column a fired cell of that row feeds.
    size_t lo = 0, reach = 0;
    // The columns each rolling row was last swept over; the rest of it
    // holds never.
    size_t aboveLo = 0, aboveEnd = 0, hereLo = 0, hereEnd = 0;
    for (size_t j = 0; j <= rows.count; ++j) {
        if (cancel && cancel->cancelled())
            return {.cancelled = true};
        // Cells left of the band are read as predecessors; the rest of
        // the stale span is overwritten or cleared after the row.
        std::fill(here + hereLo, here + std::min(hereEnd, lo), kSweepNever);
        Cell *out = table + j * width;
        const sim::Tick down = j ? rows.gap[j - 1] : 0;
        const SweepColumn *weights =
            scratch.profile.data() +
            (j ? scratch.profileRow[rows.symbol[j - 1]] : 0);
        // (j, q - 1).  An unfired cell keeps its raw minimum, which
        // may exceed never but not its pull from above, so one more
        // weight cannot wrap it.
        sim::Tick x = kSweepNever;
        size_t unfired = 0;
        auto settleCell = [&](size_t q, sim::Tick best) {
            // All ones unless it fired: the table's never, and the
            // rolling rows' with the top bit dropped.
            const sim::Tick never = sim::Tick(0) - (best > limit);
            unfired -= never;
            const sim::Tick cell = best | never;
            settle(out[q], cell);
            here[q] = cell & kSweepNever;
            x = best;
        };
        auto sweepCell = [&](size_t q) {
            sim::Tick best = above[q] + down;
            count(best);
            const SweepColumn w = weights[q];
            columns.forEachPred(q, [&](size_t p) {
                const sim::Tick diagonal = above[p] + w.across;
                const sim::Tick along = (p + 1 == q ? x : here[p]) + w.gap;
                count(diagonal);
                count(along);
                best = earlier(earlier(best, diagonal), along);
            });
            settleCell(q, best);
        };

        size_t q = lo;
        if (q == 0) { // position 0 has no predecessors
            const sim::Tick best = j ? above[0] + down : 0; // root: 0
            if (j)
                count(best);
            settleCell(0, best);
            ++q;
        }
        // Sweep to the furthest column a fired cell feeds: the row
        // above's reach, then, while it grows, this row's own.
        for (size_t stop = std::min(reach + 1, width);;) {
            for (; q < stop; ++q)
                sweepCell(q);
            if (unfired == q - lo)
                break;
            size_t last = q - 1;
            while (here[last] > limit)
                --last;
            reach = columns.reach(last);
            stop = std::min(reach + 1, width);
            if (stop <= q)
                break;
        }
        if (unfired == q - lo)
            break; // nothing fired, so nothing later can
        fired += q - lo - unfired;

        if (q < hereEnd)
            std::fill(here + q, here + hereEnd, kSweepNever);
        hereLo = aboveLo;
        hereEnd = aboveEnd;
        aboveLo = lo;
        aboveEnd = q;
        while (here[lo] > limit)
            ++lo;
        std::swap(above, here);
    }
    return {events, latest, fired, false};
}

} // namespace detail

/**
 * Sweep the (rows.count + 1) x columns.size() grid into `table`
 * (row-major, every cell pre-set to never), writing each cell that
 * fires at or before `horizon`.  `Columns` provides size(); and, for
 * q >= 1, symbol(q), gap(q) and forEachPred(q, f), which calls f(p)
 * for each predecessor p < q (position 0 has none); and reach(q),
 * non-decreasing in q: the furthest position a fired cell at q can
 * feed in its own row or the next.  Weights are in [1,
 * kScoreInfinity] and kScoreInfinity is a missing edge.  `rows` and
 * `scratch` come from scratch.hoist(row, costs, columns) for the
 * same columns.  `cancel` (nullptr = never) is polled once per row;
 * a cancelled sweep returns at once, its table partial.
 * `trackLatest` fills SweepTally::latest, a running max over every
 * candidate that only a KernelCounters sink reads; off, it stays 0.
 */
template <typename Columns, typename Cell>
SweepTally
denseSweep(const Columns &columns, const SweepRows &rows,
           sim::Tick horizon, Cell *table, SweepScratch &scratch,
           const CancelToken *cancel, bool trackLatest)
{
    sim::Tick *above = scratch.above.data(), *here = scratch.here.data();
    return trackLatest
               ? detail::sweepRows<true>(columns, rows, horizon, table,
                                         scratch, above, here, cancel)
               : detail::sweepRows<false>(columns, rows, horizon, table,
                                          scratch, above, here, cancel);
}

} // namespace racelogic::core

#endif // RACELOGIC_CORE_DENSE_SWEEP_H
