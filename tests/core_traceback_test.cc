/**
 * @file
 * Direct tests for core::tracebackFromRace driven from
 * race-kernel arrival grids (previously exercised only
 * indirectly through examples).  The firing-time table of a race is
 * a valid DP table, so walking tight edges must reproduce
 * bio::globalAlign exactly -- same score, same path, same rendered
 * rows, thanks to the shared diagonal/vertical/horizontal
 * tie-breaking.  The pangraph CIGAR reconstruction
 * (rl/pangraph/mapping.h) reuses the same tight-edge principle; this
 * suite anchors the grid half.
 */

#include <gtest/gtest.h>

#include "rl/bio/align_dp.h"
#include "rl/core/race_grid.h"
#include "rl/core/traceback.h"
#include "rl/util/random.h"

namespace {

using namespace racelogic;
using bio::Alphabet;
using bio::ScoreMatrix;
using bio::Sequence;

void
expectSameAlignment(const bio::Alignment &raced,
                    const bio::Alignment &oracle)
{
    EXPECT_EQ(raced.score, oracle.score);
    EXPECT_EQ(raced.path, oracle.path);
    EXPECT_EQ(raced.alignedA, oracle.alignedA);
    EXPECT_EQ(raced.alignedB, oracle.alignedB);
    EXPECT_EQ(raced.matches, oracle.matches);
    EXPECT_EQ(raced.mismatches, oracle.mismatches);
    EXPECT_EQ(raced.indels, oracle.indels);
}

TEST(CoreTraceback, PaperExamplePair)
{
    ScoreMatrix costs = ScoreMatrix::dnaShortestPath();
    Sequence p(Alphabet::dna(), "ACTGAGA");
    Sequence q(Alphabet::dna(), "GATTCGA");
    core::RaceGridAligner aligner(costs);
    core::RaceGridResult raced = aligner.align(p, q);
    bio::Alignment alignment =
        core::tracebackFromRace(raced, p, q, costs);
    expectSameAlignment(alignment, bio::globalAlign(p, q, costs));
    EXPECT_TRUE(
        bio::checkAlignment(p, q, costs, alignment).empty());
}

TEST(CoreTraceback, MatchesGlobalAlignOnRandomPairs)
{
    util::Rng rng(314);
    const ScoreMatrix matrices[] = {
        ScoreMatrix::dnaShortestPath(),
        ScoreMatrix::dnaShortestPathInfMismatch(),
        ScoreMatrix::uniform(Alphabet::dna(), bio::ScoreKind::Cost, 3),
    };
    for (const ScoreMatrix &costs : matrices) {
        core::RaceGridAligner aligner(costs);
        for (int round = 0; round < 10; ++round) {
            Sequence a = Sequence::random(
                rng, Alphabet::dna(),
                static_cast<size_t>(rng.uniformInt(0, 24)));
            Sequence b = Sequence::random(
                rng, Alphabet::dna(),
                static_cast<size_t>(rng.uniformInt(0, 24)));
            core::RaceGridResult raced = aligner.align(a, b);
            bio::Alignment alignment =
                core::tracebackFromRace(raced, a, b, costs);
            expectSameAlignment(alignment,
                                bio::globalAlign(a, b, costs));
            EXPECT_TRUE(
                bio::checkAlignment(a, b, costs, alignment).empty());
        }
    }
}

TEST(CoreTraceback, WorksFromScratchReuseKernelRuns)
{
    // The batch-screening loop reuses one RaceGridScratch per
    // thread; arrival grids out of that path must trace back too.
    ScoreMatrix costs = ScoreMatrix::dnaShortestPath();
    core::RaceGridAligner aligner(costs);
    core::RaceGridScratch scratch;
    util::Rng rng(9);
    for (int round = 0; round < 6; ++round) {
        Sequence a = Sequence::random(rng, Alphabet::dna(), 12);
        Sequence b = Sequence::random(rng, Alphabet::dna(), 15);
        core::RaceGridResult raced =
            aligner.align(a, b, sim::kTickInfinity, scratch);
        bio::Alignment alignment =
            core::tracebackFromRace(raced, a, b, costs);
        expectSameAlignment(alignment, bio::globalAlign(a, b, costs));
    }
}

TEST(CoreTraceback, WorksOnHorizonTruncatedCompletedRace)
{
    // A horizon equal to the exact score truncates the arrival grid
    // past the sink, but every cell on an optimal path fired at or
    // before the sink, so the traceback still walks clean.
    ScoreMatrix costs = ScoreMatrix::dnaShortestPath();
    Sequence a(Alphabet::dna(), "ACTGACTG");
    Sequence b(Alphabet::dna(), "ACGGACG");
    core::RaceGridAligner aligner(costs);
    bio::Score exact = bio::globalScore(a, b, costs);
    core::RaceGridResult raced =
        aligner.align(a, b, static_cast<sim::Tick>(exact));
    ASSERT_TRUE(raced.completed);
    bio::Alignment alignment =
        core::tracebackFromRace(raced, a, b, costs);
    expectSameAlignment(alignment, bio::globalAlign(a, b, costs));
}

TEST(CoreTraceback, AllIndelWorstCasePair)
{
    // Complete-mismatch pairs under the missing-diagonal matrix:
    // the only walk is pure indels.
    ScoreMatrix costs = ScoreMatrix::dnaShortestPathInfMismatch();
    util::Rng rng(41);
    auto [a, b] = bio::worstCasePair(rng, Alphabet::dna(), 9);
    core::RaceGridAligner aligner(costs);
    core::RaceGridResult raced = aligner.align(a, b);
    bio::Alignment alignment =
        core::tracebackFromRace(raced, a, b, costs);
    EXPECT_EQ(alignment.matches, 0u);
    EXPECT_EQ(alignment.mismatches, 0u);
    EXPECT_EQ(alignment.indels, a.size() + b.size());
    EXPECT_EQ(alignment.score,
              static_cast<bio::Score>(a.size() + b.size()));
}

} // namespace
