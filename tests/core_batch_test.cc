/**
 * @file
 * Tests for batch screening on the fabric pool: the greedy
 * scheduler's invariants, verdict agreement with the DP filter, and
 * scaling behaviour of the pool -- raced through
 * api::RaceEngine::screen / solveBatch, scheduled by
 * core::scheduleBatch.
 */

#include <gtest/gtest.h>

#include "rl/api/api.h"
#include "rl/bio/align_dp.h"
#include "rl/core/batch.h"
#include "rl/util/random.h"

namespace {

using namespace racelogic;
using api::RaceEngine;
using api::RaceProblem;
using bio::Alphabet;
using bio::ScoreMatrix;
using bio::Sequence;
using core::BatchConfig;
using core::BatchReport;

struct Workload {
    Sequence query;
    std::vector<Sequence> database;
};

Workload
makeWorkload(uint64_t seed, size_t n, size_t entries)
{
    util::Rng rng(seed);
    auto wl = bio::makeScreeningWorkload(
        rng, Alphabet::dna(), n, entries, 0.25,
        bio::MutationModel::uniform(0.1));
    return {wl.query, wl.database};
}

/** Screen `wl` on a pool of `fabrics` and return its schedule. */
BatchReport
screenOnPool(const Workload &wl, size_t fabrics, bio::Score threshold)
{
    api::EngineConfig config;
    config.fabricCount = fabrics;
    RaceEngine engine(config);
    api::BatchOutcome batch =
        engine.screen(ScoreMatrix::dnaShortestPathInfMismatch(),
                      threshold, wl.query, wl.database);
    EXPECT_TRUE(batch.schedule.has_value());
    return batch.schedule.value_or(BatchReport{});
}

TEST(Batch, SingleFabricMakespanEqualsBusyTime)
{
    Workload wl = makeWorkload(1, 16, 40);
    BatchReport report = screenOnPool(wl, 1, 20);
    EXPECT_EQ(report.makespanCycles, report.busyCycles);
    EXPECT_DOUBLE_EQ(report.utilization, 1.0);
}

TEST(Batch, MakespanBoundedByListSchedulingInvariants)
{
    Workload wl = makeWorkload(2, 16, 60);
    for (size_t fabrics : {2u, 4u, 8u}) {
        BatchReport report = screenOnPool(wl, fabrics, 24);
        // Lower bound: perfect division of work.
        EXPECT_GE(report.makespanCycles * fabrics, report.busyCycles);
        // Utilization is a proper fraction.
        EXPECT_GT(report.utilization, 0.0);
        EXPECT_LE(report.utilization, 1.0);
    }
}

TEST(Batch, MoreFabricsNeverSlowTheBatch)
{
    Workload wl = makeWorkload(3, 20, 80);
    uint64_t previous = ~0ull;
    for (size_t fabrics : {1u, 2u, 4u, 8u, 16u}) {
        uint64_t makespan = screenOnPool(wl, fabrics, 26).makespanCycles;
        EXPECT_LE(makespan, previous) << fabrics << " fabrics";
        previous = makespan;
    }
}

TEST(Batch, VerdictsMatchDpFilter)
{
    Workload wl = makeWorkload(4, 16, 50);
    bio::Score threshold = 22;
    ScoreMatrix m = ScoreMatrix::dnaShortestPathInfMismatch();
    BatchReport report = screenOnPool(wl, 4, threshold);
    ASSERT_EQ(report.accepted.size(), wl.database.size());
    size_t accepted = 0;
    for (size_t i = 0; i < wl.database.size(); ++i) {
        bool similar =
            bio::globalScore(wl.query, wl.database[i], m) <= threshold;
        accepted += similar;
        EXPECT_EQ(report.accepted[i], similar) << i;
    }
    EXPECT_EQ(report.acceptedCount, accepted);
}

TEST(Batch, ThresholdShortensBusyTime)
{
    Workload wl = makeWorkload(5, 24, 40);
    ScoreMatrix m = ScoreMatrix::dnaShortestPathInfMismatch();
    api::EngineConfig config;
    config.fabricCount = 2;
    RaceEngine engine(config);

    // Plain alignments of one query against the database race to
    // completion on the same pool.
    std::vector<RaceProblem> unbounded;
    for (const Sequence &candidate : wl.database)
        unbounded.push_back(
            RaceProblem::pairwiseAlignment(m, wl.query, candidate));
    api::BatchOutcome full = engine.solveBatch(unbounded);
    api::BatchOutcome capped =
        engine.screen(m, 28, wl.query, wl.database);
    ASSERT_TRUE(full.schedule.has_value());
    ASSERT_TRUE(capped.schedule.has_value());
    EXPECT_LT(capped.schedule->busyCycles, full.schedule->busyCycles);
}

TEST(Batch, ThroughputPricing)
{
    Workload wl = makeWorkload(6, 16, 30);
    BatchReport report = screenOnPool(wl, 4, 20);
    const auto &lib = tech::CellLibrary::amis();
    EXPECT_GT(report.wallTimeNs(lib), 0.0);
    EXPECT_GT(report.comparisonsPerSecond(lib), 0.0);
    // 30 comparisons in makespan cycles at 3 ns each.
    EXPECT_NEAR(report.comparisonsPerSecond(lib),
                30.0 * 1e9 /
                    (double(report.makespanCycles) * lib.racePeriodNs),
                1.0);
}

TEST(Batch, ScheduleIsGreedyListScheduling)
{
    // Busy 3, 5, 2 (+1 reset each) on two fabrics: the third run
    // goes to the fabric free at cycle 4, finishing at 7.
    BatchConfig cfg;
    cfg.fabricCount = 2;
    BatchReport report = core::scheduleBatch(
        cfg, {{true, 3}, {false, 5}, {true, 2}});
    EXPECT_EQ(report.comparisons, 3u);
    EXPECT_EQ(report.acceptedCount, 2u);
    EXPECT_EQ(report.accepted, (std::vector<bool>{true, false, true}));
    EXPECT_EQ(report.busyCycles, 13u);
    EXPECT_EQ(report.makespanCycles, 7u);
    EXPECT_DOUBLE_EQ(report.utilization, 13.0 / 14.0);
}

TEST(Batch, EmptyDatabase)
{
    BatchReport report = core::scheduleBatch(BatchConfig{}, {});
    EXPECT_EQ(report.comparisons, 0u);
    EXPECT_EQ(report.makespanCycles, 0u);
    EXPECT_EQ(report.utilization, 0.0);
}

} // namespace
