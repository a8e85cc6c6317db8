/**
 * @file
 * Identity suite for the DTW and affine lattice sweeps
 * (rl/core/lattice_sweep.h): each sweep, and each engine solve built
 * on it, must reproduce the race of the materialized lattice --
 * raceDag() on makeDtwGraph() / makeAffineEditGraph() -- node for
 * node, event counts and race duration included, and keep the
 * cancellation contract of rl/core/cancel.h.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>

#include "rl/api/api.h"
#include "rl/apps/dtw.h"
#include "rl/bio/affine.h"
#include "rl/core/cancel.h"
#include "rl/core/kernel_counters.h"
#include "rl/core/lattice_sweep.h"
#include "rl/core/race_network.h"
#include "rl/util/random.h"

namespace {

using namespace racelogic;
using api::RaceEngine;
using api::RaceProblem;
using api::RaceResult;
using bio::AffineGapCosts;
using bio::Alphabet;
using bio::Score;
using bio::ScoreMatrix;
using bio::Sequence;
using core::RaceOutcome;

size_t
firedCount(const std::vector<core::TemporalValue> &firing)
{
    return static_cast<size_t>(
        std::count_if(firing.begin(), firing.end(),
                      [](core::TemporalValue v) { return v.fired(); }));
}

/** A sweep outcome and its counters against the materialized race. */
void
expectSweepMatches(const RaceOutcome &got,
                   const core::KernelCounters &counters,
                   const RaceOutcome &want)
{
    EXPECT_FALSE(got.cancelled);
    EXPECT_TRUE(got.firing == want.firing);
    EXPECT_EQ(got.events, want.events);
    EXPECT_EQ(got.horizon, want.horizon);
    EXPECT_EQ(counters.events, got.events);
    EXPECT_EQ(counters.lanesOccupied, firedCount(want.firing));
    EXPECT_EQ(counters.scratchHighWater, want.firing.size());
    EXPECT_EQ(counters.cancels, 0u);
}

/** An engine solve against the materialized race and the DP. */
void
expectSolveMatches(const RaceResult &got, const RaceOutcome &want,
                   graph::NodeId sink, Score dp)
{
    ASSERT_TRUE(want.at(sink).fired());
    const sim::Tick arrival = want.at(sink).time();
    EXPECT_TRUE(got.completed);
    EXPECT_FALSE(got.cancelled);
    EXPECT_TRUE(got.nodeArrival == want.firing);
    EXPECT_EQ(got.events, want.events);
    EXPECT_EQ(got.nodes, want.firing.size());
    EXPECT_EQ(got.cellsFired, firedCount(want.firing));
    EXPECT_EQ(got.latencyCycles, arrival);
    EXPECT_EQ(got.racedCost, static_cast<Score>(arrival));
    EXPECT_EQ(got.score, dp);
}

/** `length` samples uniform in [-span, span]. */
std::vector<apps::Sample>
randomSignal(util::Rng &rng, size_t length, int64_t span)
{
    std::vector<apps::Sample> signal(length);
    for (apps::Sample &v : signal)
        v = rng.uniformInt(-span, span);
    return signal;
}

// ------------------------------------------------------------ identity

TEST(LatticeSweep, DtwMatchesMaterializedLatticeRaceExactly)
{
    util::Rng rng(6100);
    RaceEngine engine;
    // Span 0 makes every edge a zero-weight wire; 2^20 puts sample
    // distances past kMaxRaceWeight, the validation cap raceDag()
    // itself does not need.
    const int64_t spans[] = {0, 3, 1000, int64_t(1) << 20};
    for (int trial = 0; trial < 160; ++trial) {
        const int64_t span = spans[trial % 4];
        std::vector<apps::Sample> x, y;
        if (trial < 4) {
            x = randomSignal(rng, 1, span); // 1 x 1
            y = randomSignal(rng, 1, span);
        } else {
            x = randomSignal(rng, 1 + rng.index(32), span);
            y = trial % 5 == 0 ? x // equal signals
                               : randomSignal(rng, 1 + rng.index(32), span);
        }
        SCOPED_TRACE(testing::Message()
                     << "trial " << trial << ": " << x.size() << " x "
                     << y.size() << ", span " << span);

        apps::DtwGraph lattice = apps::makeDtwGraph(x, y);
        const RaceOutcome want = core::raceDag(
            lattice.dag, {lattice.source}, core::RaceType::Or);

        core::KernelCounters counters;
        expectSweepMatches(core::sweepDtwLattice(x, y, nullptr, &counters),
                           counters, want);
        expectSolveMatches(engine.solve(RaceProblem::dtw(x, y)), want,
                           lattice.sink, apps::dtwDistance(x, y));
    }
}

TEST(LatticeSweep, AffineMatchesMaterializedLatticeRaceExactly)
{
    util::Rng rng(6200);
    RaceEngine engine;
    for (int trial = 0; trial < 160; ++trial) {
        ScoreMatrix costs = ScoreMatrix::dnaShortestPath();
        AffineGapCosts gaps{rng.uniformInt(1, 6), 1};
        switch (trial % 4) {
        case 0:
            break;
        case 1:
            costs = ScoreMatrix::dnaShortestPathInfMismatch();
            break;
        case 2: {
            // Random pair weights, some forbidden.
            for (bio::Symbol s = 0; s < 4; ++s)
                for (bio::Symbol t = 0; t < 4; ++t)
                    costs.setPair(s, t,
                                  rng.bernoulli(0.2)
                                      ? bio::kScoreInfinity
                                      : rng.uniformInt(1, 5));
            break;
        }
        case 3: {
            // Pair and gap weights past kMaxRaceWeight.
            for (bio::Symbol s = 0; s < 4; ++s)
                for (bio::Symbol t = 0; t < 4; ++t)
                    costs.setPair(s, t,
                                  rng.uniformInt(1, int64_t(1) << 18));
            gaps.open = rng.uniformInt(int64_t(1) << 16, int64_t(1) << 18);
            break;
        }
        }
        gaps.extend = rng.uniformInt(1, gaps.open);
        // Lengths from 0: an empty string leaves one row or column.
        const Sequence a =
            Sequence::random(rng, Alphabet::dna(), rng.index(33));
        const Sequence b =
            Sequence::random(rng, Alphabet::dna(), rng.index(33));
        SCOPED_TRACE(testing::Message()
                     << "trial " << trial << ": '" << a.str() << "' vs '"
                     << b.str() << "', open " << gaps.open << ", extend "
                     << gaps.extend);

        bio::AffineEditGraph lattice =
            bio::makeAffineEditGraph(a, b, costs, gaps);
        const RaceOutcome want = core::raceDag(
            lattice.dag, {lattice.source}, core::RaceType::Or);

        core::KernelCounters counters;
        expectSweepMatches(
            core::sweepAffineLattice(a, b, costs, gaps, nullptr, &counters),
            counters, want);
        expectSolveMatches(
            engine.solve(RaceProblem::affineAlignment(costs, gaps, a, b)),
            want, lattice.sink, bio::affineGlobalScore(a, b, costs, gaps));
    }
}

// -------------------------------------------------------- cancellation

/**
 * The RaceGrid deadline contract through the engine: 200 deadlines
 * spread over twice the race's duration each come back either
 * cancelled (and then only the typed abort) or as the uncancelled
 * race, field for field -- counters included.
 */
void
expectDeadlinesCancelOrLeaveTheRaceBitIdentical(RaceProblem problem)
{
    RaceEngine engine;
    using Clock = core::CancelToken::Clock;
    const Clock::time_point start = Clock::now();
    const RaceResult plain = engine.solve(problem);
    const Clock::duration span = Clock::now() - start;
    ASSERT_TRUE(plain.completed);

    constexpr int kDeadlines = 200;
    int cancelled = 0;
    for (int k = 0; k < kDeadlines; ++k) {
        const core::CancelToken token(Clock::now() +
                                      span * k / (kDeadlines / 2));
        core::KernelCounters counters;
        problem.cancel = &token;
        problem.counters = &counters;
        const RaceResult r = engine.solve(problem);
        if (r.cancelled) {
            ++cancelled;
            EXPECT_FALSE(r.completed) << "deadline " << k;
            EXPECT_FALSE(r.accepted) << "deadline " << k;
            EXPECT_EQ(r.score, bio::kScoreInfinity) << "deadline " << k;
            EXPECT_EQ(r.racedCost, bio::kScoreInfinity) << "deadline " << k;
            EXPECT_EQ(counters.cancels, 1u) << "deadline " << k;
            EXPECT_EQ(counters.events, 0u) << "deadline " << k;
            continue;
        }
        EXPECT_TRUE(r.completed) << "deadline " << k;
        EXPECT_EQ(r.score, plain.score) << "deadline " << k;
        EXPECT_EQ(r.latencyCycles, plain.latencyCycles);
        EXPECT_EQ(r.events, plain.events) << "deadline " << k;
        EXPECT_EQ(r.cellsFired, plain.cellsFired) << "deadline " << k;
        EXPECT_TRUE(r.nodeArrival == plain.nodeArrival) << "deadline " << k;
        EXPECT_EQ(counters.events, r.events) << "deadline " << k;
        EXPECT_EQ(counters.lanesOccupied, r.cellsFired) << "deadline " << k;
        EXPECT_EQ(counters.cancels, 0u) << "deadline " << k;
    }
    EXPECT_GT(cancelled, 0); // deadline 0 has passed by the first poll
}

TEST(LatticeSweep, DtwDeadlineEitherCancelsOrLeavesTheRaceBitIdentical)
{
    util::Rng rng(6300);
    expectDeadlinesCancelOrLeaveTheRaceBitIdentical(RaceProblem::dtw(
        randomSignal(rng, 400, 100), randomSignal(rng, 400, 100)));
}

TEST(LatticeSweep, AffineDeadlineEitherCancelsOrLeavesTheRaceBitIdentical)
{
    util::Rng rng(6400);
    const Sequence a = Sequence::random(rng, Alphabet::dna(), 230);
    const Sequence b = Sequence::random(rng, Alphabet::dna(), 230);
    expectDeadlinesCancelOrLeaveTheRaceBitIdentical(
        RaceProblem::affineAlignment(ScoreMatrix::dnaShortestPath(),
                                     AffineGapCosts{3, 1}, a, b));
}

} // namespace
