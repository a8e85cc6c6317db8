/**
 * @file
 * Tests for Section 6 threshold screening through api::RaceEngine:
 * exactness of the verdict against the DP filter, cycle accounting,
 * and the throughput gain on realistic workloads.
 */

#include <gtest/gtest.h>

#include "rl/api/api.h"
#include "rl/bio/align_dp.h"
#include "rl/util/random.h"

namespace {

using namespace racelogic;
using api::RaceEngine;
using api::RaceProblem;
using api::RaceResult;
using bio::Alphabet;
using bio::ScoreMatrix;
using bio::Sequence;

RaceResult
screenOne(bio::Score threshold, const Sequence &query,
          const Sequence &candidate)
{
    RaceEngine engine;
    return engine.solve(RaceProblem::thresholdScreen(
        ScoreMatrix::dnaShortestPathInfMismatch(), threshold, query,
        candidate));
}

/** An engine that races every screen to completion (no horizon). */
RaceEngine
fullRaceEngine()
{
    api::EngineConfig config;
    config.earlyTerminate = false;
    return RaceEngine(config);
}

TEST(Threshold, SimilarPairReportsExactScoreAndCycles)
{
    Sequence a(Alphabet::dna(), "ACGTAC");
    RaceResult outcome = screenOne(8, a, a);
    EXPECT_TRUE(outcome.accepted);
    EXPECT_EQ(outcome.score, 6);
    EXPECT_EQ(outcome.cyclesUsed, 6u);
}

TEST(Threshold, DissimilarPairAbortsAtThreshold)
{
    Sequence a(Alphabet::dna(), "AAAAAA");
    Sequence b(Alphabet::dna(), "CCCCCC");
    RaceResult outcome = screenOne(5, a, b); // true cost 12
    EXPECT_FALSE(outcome.accepted);
    EXPECT_FALSE(outcome.completed);
    EXPECT_EQ(outcome.score, bio::kScoreInfinity);
    EXPECT_EQ(outcome.cyclesUsed, 5u)
        << "the engine learns the verdict at the threshold cycle";
    EXPECT_EQ(outcome.latencyCycles, 5u)
        << "the kernel itself stops racing at the threshold";
}

TEST(Threshold, BoundaryScoreEqualToThresholdIsSimilar)
{
    Sequence a(Alphabet::dna(), "ACGTAC");
    RaceResult outcome = screenOne(6, a, a); // score 6 == threshold
    EXPECT_TRUE(outcome.accepted);
    EXPECT_EQ(outcome.cyclesUsed, 6u);
}

class ThresholdExactness : public ::testing::TestWithParam<int> {};

TEST_P(ThresholdExactness, VerdictMatchesDpFilterExactly)
{
    // Aborting early can never misclassify: arrival times are
    // monotone, so "not fired by T" == "score > T".
    util::Rng rng(7000 + GetParam());
    ScoreMatrix m = ScoreMatrix::dnaShortestPathInfMismatch();
    bio::Score threshold = 4 + rng.uniformInt(0, 12);
    RaceEngine engine;
    Sequence query = Sequence::random(rng, Alphabet::dna(), 12);
    for (int candidate = 0; candidate < 12; ++candidate) {
        Sequence c =
            rng.bernoulli(0.5)
                ? mutate(rng, query, bio::MutationModel::uniform(0.15))
                : Sequence::random(rng, Alphabet::dna(), 12);
        if (c.empty())
            continue;
        RaceResult outcome = engine.solve(
            RaceProblem::thresholdScreen(m, threshold, query, c));
        bio::Score truth = bio::globalScore(query, c, m);
        EXPECT_EQ(outcome.accepted, truth <= threshold);
        if (outcome.accepted) {
            EXPECT_EQ(outcome.score, truth);
        }
        EXPECT_EQ(outcome.cyclesUsed,
                  static_cast<sim::Tick>(std::min(truth, threshold)));
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ThresholdExactness,
                         ::testing::Range(0, 15));

TEST(Threshold, DatabaseScreeningAggregates)
{
    util::Rng rng(91);
    auto wl = bio::makeScreeningWorkload(
        rng, Alphabet::dna(), 24, 60, 0.2,
        bio::MutationModel::uniform(0.08));
    ScoreMatrix m = ScoreMatrix::dnaShortestPathInfMismatch();
    RaceEngine engine = fullRaceEngine();
    api::BatchOutcome batch = engine.screen(m, 32, wl.query, wl.database);
    ASSERT_EQ(batch.results.size(), 60u);
    uint64_t clamped = 0, full = 0;
    for (size_t i = 0; i < wl.database.size(); ++i) {
        const bio::Score truth =
            bio::globalScore(wl.query, wl.database[i], m);
        EXPECT_EQ(batch.results[i].accepted, truth <= 32) << i;
        clamped += static_cast<uint64_t>(std::min<bio::Score>(truth, 32));
        full += static_cast<uint64_t>(truth);
    }
    EXPECT_EQ(batch.busyCycles(), clamped);
    EXPECT_EQ(batch.fullRaceCycles(), full);
    EXPECT_LE(batch.busyCycles(), batch.fullRaceCycles());
    EXPECT_GE(batch.speedup(), 1.0);
}

TEST(Threshold, UnrelatedDatabaseGivesLargeSpeedup)
{
    // With rare matches, aborted races dominate: busy cycles drop
    // from ~2N (complete-mismatch full race) to the threshold.
    util::Rng rng(92);
    size_t n = 40;
    Sequence query = Sequence::random(rng, Alphabet::dna(), n);
    std::vector<Sequence> database;
    for (int i = 0; i < 50; ++i)
        database.push_back(Sequence::random(rng, Alphabet::dna(), n));
    bio::Score threshold = 44; // just above best-case n cycles
    RaceEngine engine = fullRaceEngine();
    api::BatchOutcome batch =
        engine.screen(ScoreMatrix::dnaShortestPathInfMismatch(),
                      threshold, query, database);
    EXPECT_GT(batch.speedup(), 1.2);
}

TEST(Threshold, RelatedEntriesAreAccepted)
{
    util::Rng rng(93);
    Sequence query = Sequence::random(rng, Alphabet::dna(), 30);
    Sequence relative = mutate(rng, query,
                              bio::MutationModel{0.05, 0.0, 0.0});
    EXPECT_TRUE(screenOne(40, query, relative).accepted);
}

} // namespace
