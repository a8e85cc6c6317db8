/**
 * @file
 * Equivalence suite for the race kernels: core::raceDag's
 * topological sweep, the heap-scheduled event-queue reference, and
 * the DP oracle must agree node-for-node on randomized DAGs and
 * sequences -- Or and And races, with and without an
 * early-termination horizon, events and horizon included -- and the
 * dense-sweep grid kernel must reproduce the materialized edit-graph
 * race exactly (arrival grids and event counts included).
 */

#include <gtest/gtest.h>

#include "rl/api/api.h"
#include "rl/bio/align_dp.h"
#include "rl/bio/edit_graph.h"
#include "rl/core/kernel_counters.h"
#include "rl/core/race_grid.h"
#include "rl/core/race_network.h"
#include "rl/graph/generate.h"
#include "rl/graph/paths.h"
#include "rl/graph/topo.h"
#include "rl/util/random.h"
#include "rl/util/thread_pool.h"

namespace {

using namespace racelogic;
using bio::Alphabet;
using bio::ScoreMatrix;
using bio::Sequence;
using core::RaceOutcome;
using core::RaceType;
using graph::Dag;
using graph::NodeId;
using graph::Objective;

// --------------------------- raceDag vs event queue vs oracle

void
expectSameOutcome(const RaceOutcome &got, const RaceOutcome &want)
{
    ASSERT_EQ(got.firing.size(), want.firing.size());
    for (size_t n = 0; n < want.firing.size(); ++n)
        EXPECT_TRUE(got.firing[n] == want.firing[n]) << "node " << n;
    EXPECT_EQ(got.events, want.events);
    EXPECT_EQ(got.horizon, want.horizon);
}

class RaceDagVsReference : public ::testing::TestWithParam<int> {};

TEST_P(RaceDagVsReference, OrRaceMatchesEventQueueAndDp)
{
    util::Rng rng(3100 + GetParam());
    // Zero weights included: wire edges must propagate same-tick.
    Dag d = graph::randomDag(rng, 50, 0.15, {0, 9});
    auto [source, sink] = graph::addSuperEndpoints(d, 1);
    (void)sink;

    RaceOutcome swept = core::raceDag(d, {source}, RaceType::Or);
    RaceOutcome reference =
        core::raceDagEventDriven(d, {source}, RaceType::Or);
    expectSameOutcome(swept, reference);

    auto dp = graph::solveDag(d, {source}, Objective::Shortest);
    for (NodeId n = 0; n < d.nodeCount(); ++n) {
        if (dp.reached(n))
            EXPECT_EQ(swept.at(n).time(),
                      static_cast<sim::Tick>(dp.distance[n]));
        else
            EXPECT_FALSE(swept.at(n).fired());
    }
}

TEST_P(RaceDagVsReference, AndRaceMatchesEventQueueAndDp)
{
    util::Rng rng(3500 + GetParam());
    Dag d = graph::layeredDag(rng, 6, 5, 0.5, {1, 9});
    std::vector<NodeId> sources{0, 1, 2, 3, 4};
    ASSERT_TRUE(core::andRaceMatchesDp(d, sources));

    RaceOutcome swept = core::raceDag(d, sources, RaceType::And);
    RaceOutcome reference =
        core::raceDagEventDriven(d, sources, RaceType::And);
    expectSameOutcome(swept, reference);

    auto dp = graph::solveDag(d, sources, Objective::Longest);
    for (NodeId n = 0; n < d.nodeCount(); ++n) {
        if (dp.reached(n)) {
            EXPECT_EQ(swept.at(n).time(),
                      static_cast<sim::Tick>(dp.distance[n]));
        }
    }
}

TEST_P(RaceDagVsReference, HorizonTruncatesIdenticallyOnBothKernels)
{
    util::Rng rng(3900 + GetParam());
    Dag d = graph::randomDag(rng, 40, 0.2, {1, 6});
    auto [source, sink] = graph::addSuperEndpoints(d, 1);
    (void)sink;

    RaceOutcome full = core::raceDag(d, {source}, RaceType::Or);
    for (sim::Tick horizon : {sim::Tick(0), sim::Tick(3), full.horizon}) {
        RaceOutcome swept =
            core::raceDag(d, {source}, RaceType::Or, horizon);
        RaceOutcome reference = core::raceDagEventDriven(
            d, {source}, RaceType::Or, horizon);
        expectSameOutcome(swept, reference);
        // A node fires under the horizon iff its full-race arrival is
        // within it (arrival times are monotone in simulated time).
        for (NodeId n = 0; n < d.nodeCount(); ++n) {
            if (full.at(n).fired() && full.at(n).time() <= horizon) {
                ASSERT_TRUE(swept.at(n).fired()) << "node " << n;
                EXPECT_EQ(swept.at(n).time(), full.at(n).time());
            } else {
                EXPECT_FALSE(swept.at(n).fired()) << "node " << n;
            }
        }
    }
}

TEST_P(RaceDagVsReference, AnySourceSetTypeAndHorizonMatchesEventQueue)
{
    // Sources drawn from anywhere -- with in-edges, duplicated --
    // over zero weights and the odd 200,000-cycle delay, both gate
    // families, finite and infinite horizons.
    util::Rng rng(4100 + GetParam());
    Dag d = graph::randomDag(rng, 30, 0.2, {0, 5});
    const std::vector<NodeId> order = graph::topologicalOrder(d);
    d.addEdge(order.front(), order.back(), 200000);
    std::vector<NodeId> sources;
    for (int k = 0; k < 3; ++k)
        sources.push_back(static_cast<NodeId>(rng.index(d.nodeCount())));
    sources.push_back(sources.front());

    for (RaceType type : {RaceType::Or, RaceType::And}) {
        const sim::Tick full =
            core::raceDagEventDriven(d, sources, type).horizon;
        for (sim::Tick horizon :
             {sim::Tick(0), sim::Tick(rng.index(full + 1)), full,
              sim::Tick(199999), sim::kTickInfinity}) {
            SCOPED_TRACE(testing::Message()
                         << (type == RaceType::Or ? "or" : "and")
                         << " horizon " << horizon);
            expectSameOutcome(
                core::raceDag(d, sources, type, horizon),
                core::raceDagEventDriven(d, sources, type, horizon));
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RaceDagVsReference,
                         ::testing::Range(0, 15));

TEST(Wavefront, RaceDagAgreesOnFig3)
{
    Dag d = graph::makeFig3ExampleDag();
    RaceOutcome out = core::raceDag(d, {0, 1}, RaceType::Or);
    EXPECT_EQ(out.at(4).time(), 2u);
    // The seed quirk, fixed: the AND race (longest path) gives 4.
    RaceOutcome longest = core::raceDag(d, {0, 1}, RaceType::And);
    EXPECT_EQ(longest.at(4).time(), 4u);
}

TEST(Wavefront, OversizedWeightsRaceLikeTheEventKernel)
{
    // Delays past kMaxRaceWeight -- the validation cap on outside
    // input -- still race, and agree with the DP and the reference.
    Dag d(3);
    d.addEdge(0, 1, core::kMaxRaceWeight + 5);
    d.addEdge(1, 2, 2);
    RaceOutcome out = core::raceDag(d, {0}, RaceType::Or);
    EXPECT_EQ(out.at(2).time(),
              static_cast<sim::Tick>(core::kMaxRaceWeight + 7));
    expectSameOutcome(out,
                      core::raceDagEventDriven(d, {0}, RaceType::Or));
}

// --------------------------------------------- grid-direct kernel

class GridKernel : public ::testing::TestWithParam<int> {};

TEST_P(GridKernel, MatchesMaterializedEditGraphRaceExactly)
{
    util::Rng rng(4300 + GetParam());
    ScoreMatrix m = GetParam() % 2 == 0
                        ? ScoreMatrix::dnaShortestPathInfMismatch()
                        : ScoreMatrix::dnaShortestPath();
    // Lengths from 0: an empty string races a single row or column.
    Sequence a = Sequence::random(rng, Alphabet::dna(), rng.index(13));
    Sequence b = Sequence::random(rng, Alphabet::dna(), rng.index(13));

    bio::EditGraph eg = bio::makeEditGraph(a, b, m);
    core::RaceGridScratch scratch;
    const sim::Tick full =
        core::raceEditGrid(a, b, m, sim::kTickInfinity, scratch)
            .latencyCycles;
    for (sim::Tick horizon :
         {sim::Tick(0), sim::Tick(rng.index(full + 1)), full,
          sim::kTickInfinity}) {
        SCOPED_TRACE(testing::Message() << "horizon " << horizon);
        core::KernelCounters counters;
        core::RaceGridResult grid = core::raceEditGrid(
            a, b, m, horizon, scratch, nullptr, &counters);
        RaceOutcome reference = core::raceDagEventDriven(
            eg.dag, {eg.source}, RaceType::Or, horizon);

        EXPECT_EQ(grid.events, reference.events);
        size_t fired = 0;
        for (size_t i = 0; i <= eg.rows; ++i) {
            for (size_t j = 0; j <= eg.cols; ++j) {
                core::TemporalValue v = reference.at(eg.node(i, j));
                if (v.fired()) {
                    ++fired;
                    EXPECT_EQ(grid.arrival.at(i, j), v.time())
                        << "(" << i << "," << j << ")";
                } else {
                    EXPECT_EQ(grid.arrival.at(i, j), sim::kTickInfinity);
                }
            }
        }
        EXPECT_EQ(grid.cellsFired, fired);
        EXPECT_EQ(counters.events, grid.events);
        EXPECT_EQ(counters.lanesOccupied, grid.cellsFired);
        if (horizon >= full) {
            EXPECT_TRUE(grid.completed);
            EXPECT_EQ(grid.score, bio::globalScore(a, b, m));
        } else {
            EXPECT_FALSE(grid.completed);
            EXPECT_EQ(counters.horizonAborts, 1u);
        }
    }
}

TEST_P(GridKernel, HorizonMatchesFullRacePrefix)
{
    util::Rng rng(4700 + GetParam());
    ScoreMatrix m = ScoreMatrix::dnaShortestPathInfMismatch();
    Sequence a = Sequence::random(rng, Alphabet::dna(), 10);
    Sequence b = Sequence::random(rng, Alphabet::dna(), 10);

    core::RaceGridScratch scratch;
    core::RaceGridResult full =
        core::raceEditGrid(a, b, m, sim::kTickInfinity, scratch);
    for (sim::Tick horizon :
         {sim::Tick(0), sim::Tick(4), sim::Tick(full.latencyCycles)}) {
        core::RaceGridResult bounded =
            core::raceEditGrid(a, b, m, horizon, scratch);
        for (size_t i = 0; i < full.arrival.rows(); ++i) {
            for (size_t j = 0; j < full.arrival.cols(); ++j) {
                sim::Tick t = full.arrival.at(i, j);
                EXPECT_EQ(bounded.arrival.at(i, j),
                          t <= horizon ? t : sim::kTickInfinity);
            }
        }
        bool sinkIn = full.latencyCycles <= horizon;
        EXPECT_EQ(bounded.completed, sinkIn);
        if (sinkIn) {
            EXPECT_EQ(bounded.score, full.score);
        } else {
            EXPECT_EQ(bounded.score, bio::kScoreInfinity);
            EXPECT_EQ(bounded.latencyCycles, horizon);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GridKernel, ::testing::Range(0, 10));

// ------------------------------- horizon-true screening accounting

TEST(ScreeningHorizon, BatchBusyCyclesAgreeWithClampAfterFullRace)
{
    // RaceEngine::screen races each comparison with the threshold as
    // the kernel horizon.  The resulting busy cycles must equal the
    // DP accounting (the full cost, clamped to the threshold),
    // comparison by comparison.
    util::Rng rng(51);
    auto wl = bio::makeScreeningWorkload(
        rng, Alphabet::dna(), 18, 40, 0.3,
        bio::MutationModel::uniform(0.1));
    ScoreMatrix m = ScoreMatrix::dnaShortestPathInfMismatch();
    const bio::Score threshold = 22;

    api::EngineConfig cfg;
    cfg.fabricCount = 1; // makespan == busy time: exact accounting
    api::RaceEngine engine(cfg);
    api::BatchOutcome batch =
        engine.screen(m, threshold, wl.query, wl.database);
    ASSERT_TRUE(batch.schedule.has_value());

    uint64_t clampedTotal = 0;
    for (size_t i = 0; i < wl.database.size(); ++i) {
        bio::Score score = bio::globalScore(wl.query, wl.database[i], m);
        EXPECT_EQ(batch.results[i].accepted, score <= threshold) << i;
        EXPECT_EQ(batch.results[i].cyclesUsed,
                  static_cast<sim::Tick>(std::min(score, threshold)))
            << i;
        clampedTotal +=
            std::min<uint64_t>(static_cast<uint64_t>(score),
                               static_cast<uint64_t>(threshold)) +
            cfg.resetCycles;
    }
    EXPECT_EQ(batch.schedule->busyCycles, clampedTotal);
    EXPECT_EQ(batch.schedule->makespanCycles, clampedTotal);
}

TEST(ScreeningHorizon, ScreenerStopsRacingAtThreshold)
{
    // The aborted race never fires cells past the threshold cycle --
    // visible through the aligner's bounded overload.
    ScoreMatrix m = ScoreMatrix::dnaShortestPathInfMismatch();
    core::RaceGridAligner racer(m);
    Sequence a(Alphabet::dna(), "AAAAAAAA");
    Sequence b(Alphabet::dna(), "CCCCCCCC");
    core::RaceGridResult bounded = racer.align(a, b, 5);
    EXPECT_FALSE(bounded.completed);
    for (sim::Tick t : bounded.arrival.flat())
        EXPECT_TRUE(t == sim::kTickInfinity || t <= 5u);

    core::RaceGridResult full = racer.align(a, b);
    EXPECT_GT(full.events, bounded.events)
        << "the horizon should prune simulated arrivals";
}

// ------------------------------------------------------ thread pool

TEST(ThreadPool, CoversEveryIndexExactlyOnceAcrossBatches)
{
    util::ThreadPool pool(4);
    EXPECT_EQ(pool.threadCount(), 4u);
    for (size_t round = 0; round < 3; ++round) {
        const size_t n = 257 + round;
        std::vector<std::atomic<int>> hits(n);
        pool.parallelFor(n, [&](size_t i) {
            hits[i].fetch_add(1, std::memory_order_relaxed);
        });
        for (size_t i = 0; i < n; ++i)
            EXPECT_EQ(hits[i].load(), 1) << "index " << i;
    }
    // Degenerate sizes.
    pool.parallelFor(0, [](size_t) { FAIL(); });
    std::atomic<int> one{0};
    pool.parallelFor(1, [&](size_t) { ++one; });
    EXPECT_EQ(one.load(), 1);
}

} // namespace
