#include "rl/core/race_grid.h"

#include <sstream>

#include "rl/core/kernel_counters.h"
#include "rl/core/scratch_registry.h"
#include "rl/util/logging.h"
#include "rl/util/strings.h"

namespace racelogic::core {

size_t
wavefrontSizeOf(const util::Grid<sim::Tick> &arrival, sim::Tick cycle)
{
    size_t count = 0;
    for (sim::Tick t : arrival.flat())
        if (t == cycle)
            ++count;
    return count;
}

size_t
RaceGridResult::wavefrontSize(sim::Tick cycle) const
{
    return wavefrontSizeOf(arrival, cycle);
}

std::string
renderArrivalTable(const util::Grid<sim::Tick> &arrival)
{
    // Column width fits the largest finite arrival.
    sim::Tick largest = 0;
    for (sim::Tick t : arrival.flat())
        if (t != sim::kTickInfinity)
            largest = std::max(largest, t);
    int width = 1;
    for (sim::Tick v = largest; v >= 10; v /= 10)
        ++width;

    std::ostringstream os;
    for (size_t r = 0; r < arrival.rows(); ++r) {
        for (size_t c = 0; c < arrival.cols(); ++c) {
            sim::Tick t = arrival.at(r, c);
            if (c)
                os << ' ';
            if (t == sim::kTickInfinity)
                os << util::format("%*s", width, ".");
            else
                os << util::format("%*llu", width,
                                   static_cast<unsigned long long>(t));
        }
        os << '\n';
    }
    return os.str();
}

std::string
RaceGridResult::arrivalTable() const
{
    return renderArrivalTable(arrival);
}

std::string
renderWavefrontPicture(const util::Grid<sim::Tick> &arrival,
                       sim::Tick cycle)
{
    std::ostringstream os;
    for (size_t r = 0; r < arrival.rows(); ++r) {
        for (size_t c = 0; c < arrival.cols(); ++c) {
            sim::Tick t = arrival.at(r, c);
            if (t == cycle)
                os << 'o';
            else if (t < cycle)
                os << '#';
            else
                os << '.';
        }
        os << '\n';
    }
    return os.str();
}

std::string
RaceGridResult::wavefrontPicture(sim::Tick cycle) const
{
    return renderWavefrontPicture(arrival, cycle);
}

RaceGridAligner::RaceGridAligner(bio::ScoreMatrix matrix)
    : costMatrix(std::move(matrix))
{
    rl_assert(costMatrix.isCost(),
              "OR-type race grids minimize; pass a Cost matrix "
              "(convert similarity matrices via toShortestPathForm)");
    rl_assert(costMatrix.minFinite() >= 1,
              "race-grid weights must be >= 1 clock cycle");
}

RaceGridResult
RaceGridAligner::align(const bio::Sequence &a, const bio::Sequence &b,
                       sim::Tick horizon, const CancelToken *cancel,
                       KernelCounters *counters) const
{
    ThreadScratch<RaceGridScratch> scratch;
    return align(a, b, horizon, scratch.get(), cancel, counters);
}

RaceGridResult
RaceGridAligner::align(const bio::Sequence &a, const bio::Sequence &b,
                       sim::Tick horizon, RaceGridScratch &scratch,
                       const CancelToken *cancel,
                       KernelCounters *counters) const
{
    return raceEditGrid(a, b, costMatrix, horizon, scratch, cancel,
                        counters);
}

namespace {

/** The column axis of an edit grid: b's positions as a linear chain. */
struct ChainColumns {
    const bio::Symbol *symbols; ///< b
    const bio::Score *gaps;     ///< gap(b[q - 1]) at q - 1
    size_t width;               ///< |b| + 1

    size_t size() const { return width; }
    bio::Symbol symbol(size_t q) const { return symbols[q - 1]; }
    bio::Score gap(size_t q) const { return gaps[q - 1]; }
    size_t reach(size_t q) const { return q + 1; }
    template <typename F> void forEachPred(size_t q, F &&f) const { f(q - 1); }
};

} // namespace

RaceGridResult
raceEditGrid(const bio::Sequence &a, const bio::Sequence &b,
             const bio::ScoreMatrix &costs, sim::Tick horizon,
             RaceGridScratch &scratch, const CancelToken *cancel,
             KernelCounters *counters)
{
    rl_assert(a.alphabet() == costs.alphabet() &&
              b.alphabet() == costs.alphabet(),
              "sequences and matrix use different alphabets");
    rl_assert(costs.minFinite() >= 1,
              "raceEditGrid requires all finite weights >= 1 (got ",
              costs.minFinite(), ")");

    const size_t rows = a.size();
    const size_t cols = b.size();

    scratch.gapCol.resize(cols);
    for (size_t j = 0; j < cols; ++j)
        scratch.gapCol[j] = SweepScratch::capped(costs.gap(b[j]));
    const ChainColumns columns{b.symbols().data(), scratch.gapCol.data(),
                               cols + 1};
    const SweepRows weights = scratch.hoist(a, costs, columns);

    RaceGridResult result;
    result.arrival = util::Grid<sim::Tick>(rows + 1, cols + 1,
                                           sim::kTickInfinity);
    const SweepTally tally =
        denseSweep(columns, weights, horizon, result.arrival.data(),
                   scratch, cancel, counters != nullptr);

    if (tally.cancelled) {
        result.completed = false;
        result.cancelled = true;
        result.score = bio::kScoreInfinity;
        if (counters)
            ++counters->cancels;
        return result;
    }
    result.events = tally.events;
    result.cellsFired = tally.fired;
    const sim::Tick sink = result.arrival.at(rows, cols);
    result.completed = sink != sim::kTickInfinity;
    rl_assert(result.completed || horizon != sim::kTickInfinity,
              "sink never fired; gap weights should guarantee a path");
    // A Section 6 abort stops at the horizon, where the counter trips.
    result.score = result.completed ? static_cast<bio::Score>(sink)
                                    : bio::kScoreInfinity;
    result.latencyCycles = result.completed ? sink : horizon;

    // Profiling export; the sweep tracked `latest` for it.
    if (counters) {
        counters->events += result.events;
        counters->bucketsDrained += tally.latest + 1;
        counters->scratchHighWater =
            std::max(counters->scratchHighWater,
                     static_cast<uint64_t>(result.arrival.size()));
        counters->lanesOccupied += result.cellsFired;
        counters->horizonAborts += !result.completed;
    }
    return result;
}

} // namespace racelogic::core
