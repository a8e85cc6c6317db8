/**
 * @file
 * Tests for the behavioral race-grid aligner (Fig. 4): equivalence
 * with the DP oracle, the paper's exact propagation table, latency
 * corner formulas, and the wavefront records behind Fig. 6.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>

#include "rl/bio/align_dp.h"
#include "rl/bio/edit_graph.h"
#include "rl/core/cancel.h"
#include "rl/core/kernel_counters.h"
#include "rl/core/race_grid.h"
#include "rl/core/race_network.h"
#include "rl/util/random.h"

namespace {

using namespace racelogic;
using bio::Alphabet;
using bio::ScoreMatrix;
using bio::Sequence;
using core::RaceGridAligner;
using core::RaceGridResult;

Sequence
dna(const std::string &text)
{
    return Sequence(Alphabet::dna(), text);
}

// ------------------------------------------------- paper propagation

TEST(RaceGrid, Fig4cPropagationTableReproducedExactly)
{
    // Fig. 4c: "The number inside each cell represents timing, i.e.
    // clock cycle at which signal '1' reached the output of an OR
    // gate of a particular unit cell."  Rows = GATTCGA, cols =
    // ACTGAGA, mismatch = infinity.
    RaceGridAligner aligner(ScoreMatrix::dnaShortestPathInfMismatch());
    RaceGridResult r = aligner.align(dna("GATTCGA"), dna("ACTGAGA"));
    const sim::Tick expect[8][8] = {
        {0, 1, 2, 3, 4, 5, 6, 7},
        {1, 2, 3, 4, 4, 5, 6, 7},
        {2, 2, 3, 4, 5, 5, 6, 7},
        {3, 3, 4, 4, 5, 6, 7, 8},
        {4, 4, 5, 5, 6, 7, 8, 9},
        {5, 5, 5, 6, 7, 8, 9, 10},
        {6, 6, 6, 7, 7, 8, 9, 10},
        {7, 7, 7, 8, 8, 8, 9, 10},
    };
    ASSERT_EQ(r.arrival.rows(), 8u);
    ASSERT_EQ(r.arrival.cols(), 8u);
    for (size_t i = 0; i < 8; ++i)
        for (size_t j = 0; j < 8; ++j)
            EXPECT_EQ(r.arrival.at(i, j), expect[i][j])
                << "cell (" << i << "," << j << ")";
    EXPECT_EQ(r.score, 10);
    EXPECT_EQ(r.latencyCycles, 10u);
}

TEST(RaceGrid, ArrivalTableRendering)
{
    RaceGridAligner aligner(ScoreMatrix::dnaShortestPathInfMismatch());
    RaceGridResult r = aligner.align(dna("AC"), dna("AC"));
    std::string table = r.arrivalTable();
    EXPECT_EQ(table, "0 1 2\n1 1 2\n2 2 2\n");
}

// ------------------------------------------------------- equivalence

class GridVsDp : public ::testing::TestWithParam<int> {};

TEST_P(GridVsDp, ArrivalTimesEqualDpTableEverywhere)
{
    util::Rng rng(100 + GetParam());
    ScoreMatrix m = ScoreMatrix::dnaShortestPathInfMismatch();
    RaceGridAligner aligner(m);
    size_t n = 1 + rng.index(30);
    size_t k = 1 + rng.index(30);
    Sequence a = Sequence::random(rng, Alphabet::dna(), n);
    Sequence b = Sequence::random(rng, Alphabet::dna(), k);
    RaceGridResult r = aligner.align(a, b);
    auto dp = bio::dpTable(a, b, m);
    for (size_t i = 0; i <= n; ++i)
        for (size_t j = 0; j <= k; ++j)
            EXPECT_EQ(r.arrival.at(i, j),
                      static_cast<sim::Tick>(dp(i, j)))
                << "(" << i << "," << j << ")";
    EXPECT_EQ(r.score, dp(n, k));
}

TEST_P(GridVsDp, Fig2bMatrixAlsoMatches)
{
    // The finite mismatch=2 matrix exercises weight-2 diagonal edges.
    util::Rng rng(200 + GetParam());
    ScoreMatrix m = ScoreMatrix::dnaShortestPath();
    RaceGridAligner aligner(m);
    size_t n = 1 + rng.index(20);
    size_t k = 1 + rng.index(20);
    Sequence a = Sequence::random(rng, Alphabet::dna(), n);
    Sequence b = Sequence::random(rng, Alphabet::dna(), k);
    EXPECT_EQ(aligner.align(a, b).score, bio::globalScore(a, b, m));
}

TEST_P(GridVsDp, BinaryAlphabet)
{
    util::Rng rng(300 + GetParam());
    ScoreMatrix m(Alphabet::binary(), bio::ScoreKind::Cost);
    m.setPair(0, 0, 1);
    m.setPair(1, 1, 1);
    m.setPair(0, 1, bio::kScoreInfinity);
    m.setPair(1, 0, bio::kScoreInfinity);
    m.setAllGaps(1);
    RaceGridAligner aligner(m);
    Sequence a = Sequence::random(rng, Alphabet::binary(),
                                  1 + rng.index(25));
    Sequence b = Sequence::random(rng, Alphabet::binary(),
                                  1 + rng.index(25));
    EXPECT_EQ(aligner.align(a, b).score, bio::globalScore(a, b, m));
}

INSTANTIATE_TEST_SUITE_P(Seeds, GridVsDp, ::testing::Range(0, 20));

// --------------------------------------------------- latency corners

class LatencyCorners : public ::testing::TestWithParam<size_t> {};

TEST_P(LatencyCorners, BestCaseIsNCycles)
{
    size_t n = GetParam();
    util::Rng rng(17 + n);
    RaceGridAligner aligner(ScoreMatrix::dnaShortestPathInfMismatch());
    Sequence s = Sequence::random(rng, Alphabet::dna(), n);
    RaceGridResult r = aligner.align(s, s);
    EXPECT_EQ(r.latencyCycles, n)
        << "identical strings ride the weight-1 diagonal";
}

TEST_P(LatencyCorners, WorstCaseIsTwoNCycles)
{
    size_t n = GetParam();
    util::Rng rng(31 + n);
    RaceGridAligner aligner(ScoreMatrix::dnaShortestPathInfMismatch());
    auto [s, w] = bio::worstCasePair(rng, Alphabet::dna(), n);
    RaceGridResult r = aligner.align(s, w);
    EXPECT_EQ(r.latencyCycles, 2 * n)
        << "complete mismatch is all indels";
}

INSTANTIATE_TEST_SUITE_P(Lengths, LatencyCorners,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34,
                                           55));

// ----------------------------------------------------- wavefront maps

TEST(Wavefront, WorstCaseWavefrontIsAntiDiagonal)
{
    // Fig. 6a: under complete mismatch the wavefront at cycle t is
    // exactly the anti-diagonal i + j = t.
    util::Rng rng(77);
    size_t n = 12;
    auto [s, w] = bio::worstCasePair(rng, Alphabet::dna(), n);
    RaceGridAligner aligner(ScoreMatrix::dnaShortestPathInfMismatch());
    RaceGridResult r = aligner.align(s, w);
    for (size_t i = 0; i <= n; ++i)
        for (size_t j = 0; j <= n; ++j)
            EXPECT_EQ(r.arrival.at(i, j), i + j);
    EXPECT_EQ(r.wavefrontSize(0), 1u);
    EXPECT_EQ(r.wavefrontSize(n), n + 1);
    EXPECT_EQ(r.wavefrontSize(2 * n), 1u);
}

TEST(Wavefront, BestCaseDiagonalLeadsTheFront)
{
    // Fig. 6b: for identical strings the diagonal cell (t, t) fires
    // at cycle t -- the wavefront's leading point.
    util::Rng rng(78);
    size_t n = 12;
    Sequence s = Sequence::random(rng, Alphabet::dna(), n);
    RaceGridAligner aligner(ScoreMatrix::dnaShortestPathInfMismatch());
    RaceGridResult r = aligner.align(s, s);
    for (size_t t = 0; t <= n; ++t)
        EXPECT_EQ(r.arrival.at(t, t), t);
    // Off-diagonal cells fire strictly later than the diagonal cell
    // of their own row/column minimum.
    for (size_t i = 0; i <= n; ++i)
        for (size_t j = 0; j <= n; ++j)
            EXPECT_GE(r.arrival.at(i, j), std::max(i, j));
}

TEST(Wavefront, PictureShadesMatchArrivals)
{
    RaceGridAligner aligner(ScoreMatrix::dnaShortestPathInfMismatch());
    RaceGridResult r = aligner.align(dna("AA"), dna("AA"));
    // At cycle 1: (0,0) fired (#), (0,1)/(1,0)/(1,1) firing (o),
    // everything at arrival 2 still dark (.).
    std::string pic = r.wavefrontPicture(1);
    EXPECT_EQ(pic, "#o.\noo.\n...\n");
}

TEST(Wavefront, CellsFiredNeverExceedsGrid)
{
    util::Rng rng(79);
    RaceGridAligner aligner(ScoreMatrix::dnaShortestPathInfMismatch());
    Sequence a = Sequence::random(rng, Alphabet::dna(), 9);
    Sequence b = Sequence::random(rng, Alphabet::dna(), 14);
    RaceGridResult r = aligner.align(a, b);
    EXPECT_LE(r.cellsFired, 10u * 15u);
    EXPECT_GT(r.cellsFired, 0u);
    EXPECT_GT(r.events, 0u);
}

// --------------------------------------------------------- monotone

TEST(RaceGrid, ArrivalsAreMonotoneAlongEdges)
{
    // Temporal causality: no cell fires before any of the
    // predecessors that could have triggered it.
    util::Rng rng(80);
    RaceGridAligner aligner(ScoreMatrix::dnaShortestPath());
    Sequence a = Sequence::random(rng, Alphabet::dna(), 15);
    Sequence b = Sequence::random(rng, Alphabet::dna(), 11);
    RaceGridResult r = aligner.align(a, b);
    for (size_t i = 0; i <= 15; ++i) {
        for (size_t j = 0; j <= 11; ++j) {
            if (i > 0) {
                EXPECT_LE(r.arrival.at(i, j),
                          r.arrival.at(i - 1, j) + 1);
            }
            if (j > 0) {
                EXPECT_LE(r.arrival.at(i, j),
                          r.arrival.at(i, j - 1) + 1);
            }
            if (i > 0 && j > 0) {
                EXPECT_GE(r.arrival.at(i, j),
                          r.arrival.at(i - 1, j - 1) + 1);
            }
        }
    }
}

// ------------------------------------------------------- cancellation

TEST(RaceGrid, PreCancelledTokenAbortsWithTypedResult)
{
    RaceGridAligner aligner(ScoreMatrix::dnaShortestPath());
    core::RaceGridScratch scratch;
    core::CancelToken token;
    token.cancel();
    RaceGridResult r =
        aligner.align(dna("GATTACA"), dna("GCATGCT"),
                      sim::kTickInfinity, scratch, &token);
    EXPECT_FALSE(r.completed);
    EXPECT_TRUE(r.cancelled);
    EXPECT_EQ(r.score, bio::kScoreInfinity);
}

TEST(RaceGrid, ExpiredDeadlineTokenCancelsLikeAFlag)
{
    RaceGridAligner aligner(ScoreMatrix::dnaShortestPath());
    core::RaceGridScratch scratch;
    const core::CancelToken token(core::CancelToken::Clock::now() -
                                  std::chrono::milliseconds(1));
    ASSERT_TRUE(token.cancelled());
    RaceGridResult r = aligner.align(dna("ACGT"), dna("AGT"),
                                     sim::kTickInfinity, scratch,
                                     &token);
    EXPECT_TRUE(r.cancelled);
    EXPECT_FALSE(r.completed);
}

TEST(RaceGrid, UncancelledTokenIsBitIdenticalToPlainRace)
{
    // The whole point of pointer-passed tokens: a null token -- and a
    // live one that never fires -- must not perturb the race at all.
    RaceGridAligner aligner(ScoreMatrix::dnaShortestPath());
    const Sequence a = dna("GATTCGAATTG"), b = dna("ACTGAGACCAT");
    const RaceGridResult plain = aligner.align(a, b);

    core::RaceGridScratch scratch;
    const core::CancelToken idle; // never cancelled
    for (const core::CancelToken *token :
         {static_cast<const core::CancelToken *>(nullptr), &idle}) {
        RaceGridResult r =
            aligner.align(a, b, sim::kTickInfinity, scratch, token);
        EXPECT_FALSE(r.cancelled);
        EXPECT_EQ(r.score, plain.score);
        EXPECT_EQ(r.latencyCycles, plain.latencyCycles);
        EXPECT_EQ(r.events, plain.events);
        EXPECT_EQ(r.cellsFired, plain.cellsFired);
        ASSERT_EQ(r.arrival.rows(), plain.arrival.rows());
        for (size_t i = 0; i < r.arrival.rows(); ++i)
            for (size_t j = 0; j < r.arrival.cols(); ++j)
                EXPECT_EQ(r.arrival.at(i, j), plain.arrival.at(i, j));
    }
}

TEST(RaceGrid, DeadlineEitherCancelsOrLeavesTheRaceBitIdentical)
{
    // The cancellation contract: a deadline that trips mid-race gives
    // a typed abort, never a truncated "completed" race.  Expensive
    // gaps leave most of the grid to fire after the diagonal reaches
    // the sink, so deadlines across the race's duration land on both
    // sides of the sink's firing.
    ScoreMatrix m = ScoreMatrix::dnaShortestPath();
    m.setAllGaps(20);
    RaceGridAligner aligner(m);
    util::Rng rng(13);
    const Sequence a = Sequence::random(rng, Alphabet::dna(), 400);
    core::RaceGridScratch scratch;

    using Clock = core::CancelToken::Clock;
    const Clock::time_point start = Clock::now();
    const RaceGridResult plain =
        aligner.align(a, a, sim::kTickInfinity, scratch);
    const Clock::duration span = Clock::now() - start;
    ASSERT_TRUE(plain.completed);

    constexpr int kDeadlines = 200;
    int cancelled = 0;
    for (int k = 0; k < kDeadlines; ++k) {
        const core::CancelToken token(Clock::now() +
                                      span * k / (kDeadlines / 2));
        const RaceGridResult r =
            aligner.align(a, a, sim::kTickInfinity, scratch, &token);
        if (r.cancelled) {
            ++cancelled;
            EXPECT_FALSE(r.completed) << "deadline " << k;
            EXPECT_EQ(r.score, bio::kScoreInfinity) << "deadline " << k;
            continue;
        }
        EXPECT_TRUE(r.completed) << "deadline " << k;
        EXPECT_EQ(r.score, plain.score) << "deadline " << k;
        EXPECT_EQ(r.latencyCycles, plain.latencyCycles);
        EXPECT_EQ(r.events, plain.events) << "deadline " << k;
        EXPECT_EQ(r.cellsFired, plain.cellsFired) << "deadline " << k;
        EXPECT_TRUE(r.arrival == plain.arrival) << "deadline " << k;
    }
    EXPECT_GT(cancelled, 0); // deadline 0 has passed by the first poll
}

// ------------------------------------ identity against the edit graph

/**
 * The latest arrival the event-driven race of `eg` schedules at or
 * before `horizon`: the latest t = firing(u) + w over edges whose
 * source fired -- what KernelCounters::bucketsDrained counts, less 1.
 */
sim::Tick
latestScheduled(const bio::EditGraph &eg, const core::RaceOutcome &race,
                sim::Tick horizon)
{
    sim::Tick latest = 0;
    for (const graph::Edge &e : eg.dag.edges()) {
        const core::TemporalValue from = race.at(e.from);
        if (!from.fired())
            continue;
        const sim::Tick t = from.time() + static_cast<sim::Tick>(e.weight);
        if (t <= horizon)
            latest = std::max(latest, t);
    }
    return latest;
}

/**
 * Race (a, b) on raceEditGrid with and without a KernelCounters sink
 * and on the materialized edit graph (raceDagEventDriven): every
 * result field must agree, and the sink's bucketsDrained must be the
 * reference's latest scheduled arrival + 1.  Returns the counted run.
 */
RaceGridResult
expectGridMatchesEditGraphRace(const Sequence &a, const Sequence &b,
                               const ScoreMatrix &m, sim::Tick horizon)
{
    SCOPED_TRACE(testing::Message() << "a " << a.str() << ", b " << b.str()
                                    << ", horizon " << horizon);
    core::RaceGridScratch scratch;
    core::KernelCounters counters;
    const RaceGridResult counted =
        core::raceEditGrid(a, b, m, horizon, scratch, nullptr, &counters);
    const RaceGridResult plain =
        core::raceEditGrid(a, b, m, horizon, scratch);

    EXPECT_EQ(counted.score, plain.score);
    EXPECT_EQ(counted.completed, plain.completed);
    EXPECT_EQ(counted.cancelled, plain.cancelled);
    EXPECT_EQ(counted.latencyCycles, plain.latencyCycles);
    EXPECT_EQ(counted.events, plain.events);
    EXPECT_EQ(counted.cellsFired, plain.cellsFired);
    EXPECT_TRUE(counted.arrival == plain.arrival);

    const bio::EditGraph eg = bio::makeEditGraph(a, b, m);
    const core::RaceOutcome reference = core::raceDagEventDriven(
        eg.dag, {eg.source}, core::RaceType::Or, horizon);
    size_t fired = 0;
    for (size_t i = 0; i <= eg.rows; ++i) {
        for (size_t j = 0; j <= eg.cols; ++j) {
            const core::TemporalValue v = reference.at(eg.node(i, j));
            fired += v.fired();
            EXPECT_EQ(counted.arrival.at(i, j), v.rawTime())
                << "(" << i << "," << j << ")";
        }
    }
    EXPECT_EQ(counted.events, reference.events);
    EXPECT_EQ(counted.cellsFired, fired);
    EXPECT_EQ(counted.completed, reference.at(eg.sink).fired());
    EXPECT_EQ(counters.events, counted.events);
    EXPECT_EQ(counters.lanesOccupied, counted.cellsFired);
    EXPECT_EQ(counters.bucketsDrained,
              latestScheduled(eg, reference, horizon) + 1);
    EXPECT_EQ(counters.horizonAborts, counted.completed ? 0u : 1u);
    return counted;
}

TEST(RaceGrid, CountersDoNotChangeTheRace)
{
    // A KernelCounters sink only observes: every field of the race is
    // the same with and without one, on full races and on Section 6
    // aborts, under both factory cost matrices.
    util::Rng rng(1501);
    const ScoreMatrix matrices[] = {
        ScoreMatrix::dnaShortestPath(),
        ScoreMatrix::dnaShortestPathInfMismatch(),
    };
    for (int round = 0; round < 24; ++round) {
        const ScoreMatrix &m = matrices[round % 2];
        const Sequence a =
            Sequence::random(rng, Alphabet::dna(), rng.index(14));
        const Sequence b =
            Sequence::random(rng, Alphabet::dna(), rng.index(14));
        const RaceGridResult full =
            expectGridMatchesEditGraphRace(a, b, m, sim::kTickInfinity);
        ASSERT_TRUE(full.completed);
        EXPECT_EQ(full.score, bio::globalScore(a, b, m));
        for (sim::Tick horizon :
             {sim::Tick(0), sim::Tick(rng.index(full.latencyCycles + 1)),
              full.latencyCycles - (full.latencyCycles > 0),
              full.latencyCycles})
            expectGridMatchesEditGraphRace(a, b, m, horizon);
    }
}

TEST(RaceGrid, ArrivalAtExactlyTheHorizonIsAnEvent)
{
    // One wire of weight 3: (0, 0) -> (1, 0).  Its arrival at tick 3
    // is scheduled and fires under horizon 3; under horizon 2 it lands
    // one past the abort counter, so it is neither.
    ScoreMatrix m = ScoreMatrix::dnaShortestPath();
    m.setAllGaps(3);
    const RaceGridResult at =
        expectGridMatchesEditGraphRace(dna("A"), dna(""), m, 3);
    EXPECT_EQ(at.events, 1u);
    EXPECT_EQ(at.cellsFired, 2u);
    EXPECT_TRUE(at.completed);
    EXPECT_EQ(at.arrival.at(1, 0), 3u);

    const RaceGridResult past =
        expectGridMatchesEditGraphRace(dna("A"), dna(""), m, 2);
    EXPECT_EQ(past.events, 0u);
    EXPECT_EQ(past.cellsFired, 1u);
    EXPECT_FALSE(past.completed);
    EXPECT_EQ(past.arrival.at(1, 0), sim::kTickInfinity);

    // On a full grid: every arrival at exactly the sink's time counts
    // when the horizon is that time, and none does one tick earlier.
    util::Rng rng(1502);
    const Sequence a = Sequence::random(rng, Alphabet::dna(), 12);
    const Sequence b = Sequence::random(rng, Alphabet::dna(), 11);
    const RaceGridResult full = expectGridMatchesEditGraphRace(
        a, b, ScoreMatrix::dnaShortestPath(), sim::kTickInfinity);
    const RaceGridResult edge = expectGridMatchesEditGraphRace(
        a, b, ScoreMatrix::dnaShortestPath(), full.latencyCycles);
    EXPECT_TRUE(edge.completed);
    EXPECT_EQ(edge.score, full.score);
    const RaceGridResult under = expectGridMatchesEditGraphRace(
        a, b, ScoreMatrix::dnaShortestPath(), full.latencyCycles - 1);
    EXPECT_FALSE(under.completed);
    EXPECT_LT(under.events, edge.events);
}

TEST(RaceGrid, HugeWeightsDoNotWrap)
{
    // Gap weights of 2^50 and one finite mismatch of 2^55 beside
    // forbidden (kScoreInfinity) pairs: every sum the sweep forms --
    // fired cell plus weight, or "never" plus weight -- must stay
    // exact, on full races and with horizons deep in the 2^50 range.
    ScoreMatrix m = ScoreMatrix::dnaShortestPathInfMismatch();
    m.setAllGaps(bio::Score(1) << 50);
    m.setPair(0, 1, bio::Score(1) << 55);
    util::Rng rng(1503);
    for (int round = 0; round < 12; ++round) {
        const Sequence a =
            Sequence::random(rng, Alphabet::dna(), rng.index(10));
        const Sequence b =
            Sequence::random(rng, Alphabet::dna(), rng.index(10));
        const RaceGridResult full =
            expectGridMatchesEditGraphRace(a, b, m, sim::kTickInfinity);
        ASSERT_TRUE(full.completed);
        EXPECT_EQ(full.score, bio::globalScore(a, b, m));
        expectGridMatchesEditGraphRace(a, b, m, full.latencyCycles / 2);
        expectGridMatchesEditGraphRace(
            a, b, m, static_cast<sim::Tick>(bio::kScoreInfinity) - 1);
    }
}

TEST(RaceGridDeath, SimilarityMatrixRejected)
{
    EXPECT_DEATH(RaceGridAligner(ScoreMatrix::blosum62()),
                 "Cost matrix");
}

TEST(RaceGridDeath, ZeroWeightsRejected)
{
    EXPECT_DEATH(RaceGridAligner(
                     ScoreMatrix::unitEdit(Alphabet::dna())),
                 ">= 1");
}

} // namespace
