/**
 * @file
 * End-to-end integration tests through the one front door,
 * api::RaceEngine: triple agreement between Race Logic / systolic
 * baseline / DP oracle, the gate-level backend against the DP, and a
 * full screening pipeline.
 */

#include <gtest/gtest.h>

#include "rl/api/api.h"
#include "rl/bio/align_dp.h"
#include "rl/systolic/lipton_lopresti.h"
#include "rl/util/random.h"

namespace {

using namespace racelogic;
using api::RaceEngine;
using api::RaceProblem;
using bio::Alphabet;
using bio::ScoreMatrix;
using bio::Sequence;

api::EngineConfig
gateLevel()
{
    api::EngineConfig config;
    config.backend = api::BackendKind::GateLevel;
    return config;
}

TEST(PairwiseEngine, CostMatrixPassthrough)
{
    // Fig. 4: the paper's worked example races to cost 10.
    ScoreMatrix m = ScoreMatrix::dnaShortestPathInfMismatch();
    Sequence p(Alphabet::dna(), "ACTGAGA");
    Sequence q(Alphabet::dna(), "GATTCGA");
    RaceEngine engine;
    auto out = engine.solve(RaceProblem::pairwiseAlignment(m, q, p));
    EXPECT_EQ(out.score, 10);
    EXPECT_EQ(out.score, bio::globalScore(q, p, m));
    EXPECT_EQ(out.racedCost, 10);
    EXPECT_EQ(out.latencyCycles, 10u);
}

TEST(PairwiseEngine, SimilarityMatrixAutoConverts)
{
    EXPECT_EQ(bio::toShortestPathForm(ScoreMatrix::blosum62()).bias, 6);
    Sequence a(Alphabet::protein(), "HEAGAWGHEE");
    Sequence b(Alphabet::protein(), "PAWHEAE");
    RaceEngine engine;
    auto out = engine.solve(
        RaceProblem::pairwiseAlignment(ScoreMatrix::blosum62(), a, b));
    EXPECT_EQ(out.score,
              bio::globalScore(a, b, ScoreMatrix::blosum62()));
    EXPECT_GT(out.latencyCycles, 0u);
}

class AlignerVsOracles : public ::testing::TestWithParam<int> {};

TEST_P(AlignerVsOracles, TripleAgreementRaceSystolicDp)
{
    // The load-bearing claim of the whole reproduction: three
    // completely independent engines -- the temporal race, the
    // mod-4 systolic array, and the textbook DP -- produce the same
    // score on random inputs.
    util::Rng rng(11000 + GetParam());
    ScoreMatrix m = ScoreMatrix::dnaShortestPathInfMismatch();
    RaceEngine race;
    systolic::LiptonLoprestiArray sys(m);
    for (int trial = 0; trial < 5; ++trial) {
        size_t n = 1 + rng.index(28);
        size_t k = 1 + rng.index(28);
        Sequence a = Sequence::random(rng, Alphabet::dna(), n);
        Sequence b = Sequence::random(rng, Alphabet::dna(), k);
        bio::Score dp = bio::globalScore(a, b, m);
        EXPECT_EQ(
            race.solve(RaceProblem::pairwiseAlignment(m, a, b)).score,
            dp);
        EXPECT_EQ(sys.align(a, b).score, dp);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AlignerVsOracles,
                         ::testing::Range(0, 10));

class GateLevelBackend : public ::testing::TestWithParam<int> {};

TEST_P(GateLevelBackend, CrossChecksBehavioralModel)
{
    // The GateLevel backend synthesizes a real netlist per grid
    // shape and asserts agreement internally; any divergence aborts.
    util::Rng rng(12000 + GetParam());
    ScoreMatrix m = ScoreMatrix::dnaShortestPathInfMismatch();
    RaceEngine engine(gateLevel());
    size_t n = 1 + rng.index(6);
    size_t k = 1 + rng.index(6);
    Sequence a = Sequence::random(rng, Alphabet::dna(), n);
    Sequence b = Sequence::random(rng, Alphabet::dna(), k);
    auto out = engine.solve(RaceProblem::pairwiseAlignment(m, a, b));
    EXPECT_EQ(out.score, bio::globalScore(a, b, m));
}

TEST_P(GateLevelBackend, Blosum62GateLevelRoundTrip)
{
    util::Rng rng(13000 + GetParam());
    RaceEngine engine(gateLevel());
    // Tiny strings: each generalized protein cell is ~10^3 gates.
    Sequence a = Sequence::random(rng, Alphabet::protein(), 2);
    Sequence b = Sequence::random(rng, Alphabet::protein(), 2);
    auto out = engine.solve(
        RaceProblem::pairwiseAlignment(ScoreMatrix::blosum62(), a, b));
    EXPECT_EQ(out.score,
              bio::globalScore(a, b, ScoreMatrix::blosum62()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, GateLevelBackend,
                         ::testing::Range(0, 5));

TEST(ScreeningPipeline, EndToEndRecallAndPrecisionProxy)
{
    // Section 6 workload: screen a database where a minority of
    // entries are genuine relatives of the query.  With a sane
    // threshold the screener keeps relatives and rejects chance
    // similarities -- checked against the exact DP filter rather
    // than the generator's ground truth (mutation can occasionally
    // produce a distant relative; the hardware is exact either way).
    util::Rng rng(99);
    auto wl = bio::makeScreeningWorkload(
        rng, Alphabet::dna(), 32, 80, 0.3,
        bio::MutationModel{0.04, 0.02, 0.02});
    ScoreMatrix m = ScoreMatrix::dnaShortestPathInfMismatch();
    bio::Score threshold = 44;
    // Full races (no kernel horizon) so speedup() can compare the
    // clamped busy time against racing every candidate to the end.
    api::EngineConfig config;
    config.earlyTerminate = false;
    RaceEngine engine(config);
    api::BatchOutcome batch =
        engine.screen(m, threshold, wl.query, wl.database);
    ASSERT_EQ(batch.results.size(), wl.database.size());
    for (size_t i = 0; i < wl.database.size(); ++i) {
        bool dp_similar =
            bio::globalScore(wl.query, wl.database[i], m) <= threshold;
        EXPECT_EQ(batch.results[i].accepted, dp_similar)
            << "entry " << i;
    }
    EXPECT_GT(batch.acceptedCount(), 0u);
    EXPECT_LT(batch.acceptedCount(), wl.database.size());
    EXPECT_GT(batch.speedup(), 1.0);
}

TEST(Determinism, IdenticalRunsProduceIdenticalResults)
{
    // The whole stack is deterministic under a fixed seed --
    // required for reproducible experiments.
    auto run = [] {
        util::Rng rng(555);
        RaceEngine engine;
        Sequence a = Sequence::random(rng, Alphabet::protein(), 24);
        Sequence b = Sequence::random(rng, Alphabet::protein(), 20);
        auto out = engine.solve(RaceProblem::pairwiseAlignment(
            ScoreMatrix::blosum62(), a, b));
        return std::make_pair(out.score, out.latencyCycles);
    };
    EXPECT_EQ(run(), run());
}

} // namespace
