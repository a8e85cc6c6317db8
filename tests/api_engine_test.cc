/**
 * @file
 * Tests for the unified racelogic::api facade: every problem kind
 * solved through one RaceEngine matches its DP oracle, the
 * Behavioral / GateLevel backends agree through the one API, and the
 * gate-level estimates are priced from the synthesized netlist.
 */

#include <algorithm>
#include <tuple>

#include <gtest/gtest.h>

#include "rl/api/api.h"
#include "rl/bio/affine.h"
#include "rl/bio/align_dp.h"
#include "rl/circuit/compiled_sim.h"
#include "rl/core/generalized.h"
#include "rl/core/race_network.h"
#include "rl/graph/generate.h"
#include "rl/graph/paths.h"
#include "rl/pangraph/alignment_graph.h"
#include "rl/pangraph/generate.h"
#include "rl/pangraph/graph_align_dp.h"
#include "rl/pangraph/graph_aligner.h"
#include "rl/tech/energy_model.h"
#include "rl/util/random.h"

namespace {

using namespace racelogic;
using api::BackendKind;
using api::EngineConfig;
using api::ProblemKind;
using api::RaceEngine;
using api::RaceProblem;
using api::RaceResult;
using bio::Alphabet;
using bio::ScoreMatrix;
using bio::Sequence;

Sequence
dna(const std::string &text)
{
    return Sequence(Alphabet::dna(), text);
}

Sequence
protein(const std::string &text)
{
    return Sequence(Alphabet::protein(), text);
}

EngineConfig
configFor(BackendKind backend)
{
    EngineConfig config;
    config.backend = backend;
    return config;
}

// ------------------------------------------------------ DP oracles

TEST(ApiEngine, PairwiseMatchesDpTableOnCosts)
{
    // The arrival grid IS the DP table: every cell fires at its
    // optimal prefix cost (Fig. 4c).
    ScoreMatrix costs = ScoreMatrix::dnaShortestPathInfMismatch();
    RaceEngine engine;

    util::Rng rng(11);
    for (int round = 0; round < 6; ++round) {
        Sequence a = Sequence::random(rng, Alphabet::dna(), 9);
        Sequence b = Sequence::random(rng, Alphabet::dna(), 12);
        RaceResult got = engine.solve(
            RaceProblem::pairwiseAlignment(costs, a, b));
        util::Grid<bio::Score> table = bio::dpTable(a, b, costs);
        EXPECT_EQ(got.score, bio::globalScore(a, b, costs));
        EXPECT_EQ(got.racedCost, got.score);
        EXPECT_EQ(got.latencyCycles, static_cast<sim::Tick>(got.score));
        size_t finite = 0;
        for (size_t i = 0; i <= a.size(); ++i) {
            for (size_t j = 0; j <= b.size(); ++j) {
                bio::Score want = table.at(i, j);
                finite += want != bio::kScoreInfinity;
                EXPECT_EQ(got.arrival.at(i, j),
                          want == bio::kScoreInfinity
                              ? sim::kTickInfinity
                              : static_cast<sim::Tick>(want));
            }
        }
        EXPECT_EQ(got.cellsFired, finite);
    }
}

TEST(ApiEngine, PairwiseSimilarityAutoConvertsToDpScore)
{
    // Section 5: the race runs on the converted cost matrix and the
    // score comes back in the similarity semantics.
    ScoreMatrix blosum = ScoreMatrix::blosum62();
    RaceEngine engine;

    Sequence a = protein("HEAGAWGHEE");
    Sequence b = protein("PAWHEAE");
    RaceResult got =
        engine.solve(RaceProblem::pairwiseAlignment(blosum, a, b));
    EXPECT_EQ(got.score, bio::globalAlign(a, b, blosum).score);
    EXPECT_EQ(got.racedCost,
              bio::globalScore(a, b, bio::toShortestPathForm(blosum).costs));
}

TEST(ApiEngine, DtwMatchesReferenceDp)
{
    util::Rng rng(5);
    auto x = apps::quantizedSine(rng, 24, 2.0, 20.0, 0.0, 2.0);
    auto y = apps::quantizedSine(rng, 30, 2.0, 20.0, 0.4, 2.0);

    RaceEngine engine;
    RaceResult got = engine.solve(RaceProblem::dtw(x, y));
    EXPECT_EQ(got.score, apps::dtwDistance(x, y));
    EXPECT_EQ(got.latencyCycles,
              static_cast<sim::Tick>(got.score));
    EXPECT_FALSE(got.nodeArrival.empty());
}

TEST(ApiEngine, DagPathMatchesLegacySolveDag)
{
    util::Rng rng(7);
    graph::Dag dag = graph::randomDag(rng, 40, 0.15, {1, 6});
    auto [source, sink] = graph::addSuperEndpoints(dag, 1);

    RaceEngine engine;
    for (graph::Objective objective :
         {graph::Objective::Shortest, graph::Objective::Longest}) {
        auto dp = graph::solveDag(dag, {source}, objective);
        RaceResult got = engine.solve(
            RaceProblem::dagPath(dag, {source}, sink, objective));
        ASSERT_TRUE(got.completed);
        EXPECT_EQ(got.score, dp.distance[sink]);
    }
}

TEST(ApiEngine, AffineMatchesGotohDp)
{
    ScoreMatrix costs = ScoreMatrix::dnaShortestPath();
    bio::AffineGapCosts gaps{3, 1};
    Sequence a = dna("ACTGAGA");
    Sequence b = dna("AGA");

    RaceEngine engine;
    RaceResult got = engine.solve(
        RaceProblem::affineAlignment(costs, gaps, a, b));
    EXPECT_EQ(got.score, bio::affineGlobalScore(a, b, costs, gaps));
    EXPECT_EQ(got.latencyCycles, static_cast<sim::Tick>(got.score));
    EXPECT_EQ(got.nodes,
              bio::makeAffineEditGraph(a, b, costs, gaps).dag.nodeCount());
}

TEST(ApiEngine, AffineRejectsBadGapsAndSimilarityWithTypedErrors)
{
    RaceEngine engine;
    RaceProblem zeroExtend = RaceProblem::affineAlignment(
        ScoreMatrix::dnaShortestPath(), bio::AffineGapCosts{2, 0},
        dna("ACTG"), dna("AG"));
    auto gaps = engine.trySolve(zeroExtend);
    ASSERT_FALSE(gaps.ok());
    EXPECT_EQ(gaps.status().code(), ErrorCode::InvalidArgument);
    EXPECT_NE(gaps.status().message().find("open >= extend >= 1"),
              std::string::npos);

    // The factory refuses a similarity matrix outright; a problem
    // assembled field by field (as a wire decoder does) must come
    // back typed instead of reaching the race.
    RaceProblem similarity = RaceProblem::affineAlignment(
        ScoreMatrix::dnaShortestPath(), bio::AffineGapCosts{3, 1},
        dna("ACTG"), dna("AG"));
    similarity.matrix = ScoreMatrix::dnaLongestPath();
    auto kind = engine.trySolve(similarity);
    ASSERT_FALSE(kind.ok());
    EXPECT_EQ(kind.status().code(), ErrorCode::InvalidArgument);
    EXPECT_NE(kind.status().message().find("Cost-kind"),
              std::string::npos);
    EXPECT_EQ(engine.stats().solves, 0u);
}

TEST(ApiEngine, AffineRejectsZeroPairWeightWithTypedError)
{
    // Validation used to accept finite pair weights >= 0, and a free
    // match then tripped the race's ">= 1" assertion.
    ScoreMatrix freeMatch = ScoreMatrix::dnaShortestPath();
    freeMatch.setPair(0, 0, 0);
    RaceEngine engine;
    auto got = engine.trySolve(RaceProblem::affineAlignment(
        freeMatch, bio::AffineGapCosts{3, 1}, dna("ACTG"), dna("AG")));
    ASSERT_FALSE(got.ok());
    EXPECT_EQ(got.status().code(), ErrorCode::InvalidArgument);
    EXPECT_NE(got.status().message().find("at least one cycle"),
              std::string::npos);
    EXPECT_EQ(engine.stats().solves, 0u);
}

TEST(ApiEngine, AffineRejectsGapCostsWhoseAlignmentCostOverflows)
{
    // (|a| + |b|) x max(open, largest finite pair weight) must stay
    // below kScoreInfinity, or the race's sums wrap: this problem
    // used to solve Ok with score 0.
    RaceEngine engine;
    const bio::Score big = bio::Score(1) << 62;
    auto gaps = engine.trySolve(RaceProblem::affineAlignment(
        ScoreMatrix::dnaShortestPath(), bio::AffineGapCosts{big, big},
        dna("ACGTACGT"), dna("")));
    ASSERT_FALSE(gaps.ok());
    EXPECT_EQ(gaps.status().code(), ErrorCode::InvalidArgument);
    EXPECT_NE(gaps.status().message().find("past the race's range"),
              std::string::npos);

    // A finite pair weight counts too; forbidden pairs do not.
    ScoreMatrix heavy = ScoreMatrix::dnaShortestPathInfMismatch();
    heavy.setPair(0, 0, bio::Score(1) << 60);
    auto pair = engine.trySolve(RaceProblem::affineAlignment(
        heavy, bio::AffineGapCosts{3, 1}, dna("ACGTACGT"), dna("ACGT")));
    ASSERT_FALSE(pair.ok());
    EXPECT_EQ(pair.status().code(), ErrorCode::InvalidArgument);
    EXPECT_EQ(engine.stats().solves, 0u);

    // Just under the bound races exactly: 8 residues x open.
    const bio::Score open = (bio::kScoreInfinity - 1) / 8;
    const bio::AffineGapCosts wide{open, open};
    const Sequence a = dna("ACGTA"), b = dna("AGT");
    auto fits = engine.trySolve(RaceProblem::affineAlignment(
        ScoreMatrix::dnaShortestPathInfMismatch(), wide, a, b));
    ASSERT_TRUE(fits.ok()) << fits.status().message();
    EXPECT_EQ(fits.value().score,
              bio::affineGlobalScore(
                  a, b, ScoreMatrix::dnaShortestPathInfMismatch(), wide));
}

TEST(ApiEngine, DtwRejectsSamplesWhoseWarpCostOverflows)
{
    RaceEngine engine;
    const apps::Sample big = apps::Sample(1) << 62;
    auto got = engine.trySolve(RaceProblem::dtw({0, big}, {big, 0}));
    ASSERT_FALSE(got.ok());
    EXPECT_EQ(got.status().code(), ErrorCode::InvalidArgument);

    // The full int64 range: the span itself needs 64 unsigned bits.
    auto extreme = engine.trySolve(
        RaceProblem::dtw({INT64_MIN}, {INT64_MAX}));
    ASSERT_FALSE(extreme.ok());
    EXPECT_EQ(extreme.status().code(), ErrorCode::InvalidArgument);
    EXPECT_EQ(engine.stats().solves, 0u);

    // Just under the bound races exactly: 2 cells x span < infinity.
    const apps::Sample span = (bio::kScoreInfinity - 1) / 2;
    auto fits = engine.trySolve(RaceProblem::dtw({0, span}, {span}));
    ASSERT_TRUE(fits.ok()) << fits.status().message();
    EXPECT_EQ(fits.value().score, apps::dtwDistance({0, span}, {span}));
}

TEST(ApiEngine, GeneralizedMatchesLegacyGeneralizedAligner)
{
    ScoreMatrix pam = ScoreMatrix::pam250();
    core::GeneralizedAligner legacy(pam, 2);
    RaceEngine engine;

    Sequence a = protein("MKVLA");
    Sequence b = protein("MKPLA");
    auto want = legacy.align(a, b);
    RaceResult got = engine.solve(
        RaceProblem::generalizedAlignment(pam, a, b, 2));
    EXPECT_EQ(got.score, want.similarityScore);
    EXPECT_EQ(got.racedCost, want.racedCost);
    EXPECT_EQ(got.latencyCycles, want.latencyCycles);
}

TEST(ApiEngine, ThresholdScreenMatchesDpFilter)
{
    // Aborting at the threshold never misclassifies: arrival times
    // are monotone, so "sink not fired by T" == "score > T".
    ScoreMatrix costs = ScoreMatrix::dnaShortestPathInfMismatch();
    util::Rng rng(2014);
    auto workload = bio::makeScreeningWorkload(
        rng, Alphabet::dna(), 24, 40, 0.25,
        bio::MutationModel{0.05, 0.02, 0.02});
    bio::Score threshold = 32;

    RaceEngine engine;
    size_t accepted = 0;
    for (const Sequence &candidate : workload.database) {
        const bio::Score truth =
            bio::globalScore(workload.query, candidate, costs);
        const bool similar = truth <= threshold;
        accepted += similar;
        RaceResult got = engine.solve(RaceProblem::thresholdScreen(
            costs, threshold, workload.query, candidate));
        EXPECT_EQ(got.accepted, similar);
        EXPECT_EQ(got.completed, similar);
        EXPECT_EQ(got.score, similar ? truth : bio::kScoreInfinity);
        EXPECT_EQ(got.cyclesUsed,
                  static_cast<sim::Tick>(std::min(truth, threshold)));
    }
    EXPECT_GT(accepted, 0u);
    EXPECT_LT(accepted, workload.database.size());
}

// --------------------------------------- backend agreement (6 kinds)

TEST(ApiEngine, BehavioralAndGateLevelAgreeOnPairwise)
{
    ScoreMatrix costs = ScoreMatrix::dnaShortestPath();
    RaceEngine behavioral(configFor(BackendKind::Behavioral));
    RaceEngine gates(configFor(BackendKind::GateLevel));

    util::Rng rng(3);
    for (int round = 0; round < 3; ++round) {
        Sequence a = Sequence::random(rng, Alphabet::dna(), 5);
        Sequence b = Sequence::random(rng, Alphabet::dna(), 6);
        RaceProblem p = RaceProblem::pairwiseAlignment(costs, a, b);
        RaceResult soft = behavioral.solve(p);
        RaceResult hard = gates.solve(p);
        EXPECT_EQ(soft.score, hard.score);
        EXPECT_EQ(soft.latencyCycles, hard.latencyCycles);
    }
}

TEST(ApiEngine, BehavioralAndGateLevelAgreeOnGeneralized)
{
    ScoreMatrix blosum = ScoreMatrix::blosum62();
    Sequence a = protein("HEAG");
    Sequence b = protein("PAW");
    RaceProblem p = RaceProblem::generalizedAlignment(blosum, a, b);

    RaceEngine behavioral(configFor(BackendKind::Behavioral));
    RaceEngine gates(configFor(BackendKind::GateLevel));
    RaceResult soft = behavioral.solve(p);
    RaceResult hard = gates.solve(p);
    EXPECT_EQ(soft.score, hard.score);
    EXPECT_EQ(soft.racedCost, hard.racedCost);
}

TEST(ApiEngine, BehavioralAndGateLevelAgreeOnThresholdScreen)
{
    ScoreMatrix costs = ScoreMatrix::dnaShortestPathInfMismatch();
    Sequence query = dna("ACTGAGA");
    RaceEngine behavioral(configFor(BackendKind::Behavioral));
    RaceEngine gates(configFor(BackendKind::GateLevel));

    // One candidate under the threshold, one far over it.
    for (const auto &candidate : {dna("ACTGAGA"), dna("TTTTTTT")}) {
        RaceProblem p = RaceProblem::thresholdScreen(costs, 9, query,
                                                     candidate);
        RaceResult soft = behavioral.solve(p);
        RaceResult hard = gates.solve(p);
        EXPECT_EQ(soft.accepted, hard.accepted);
        EXPECT_EQ(soft.score, hard.score);
        EXPECT_EQ(soft.cyclesUsed, hard.cyclesUsed);
    }
}

TEST(ApiEngine, BehavioralAndGateLevelAgreeOnDtw)
{
    std::vector<apps::Sample> x{3, 5, 8, 6, 2};
    std::vector<apps::Sample> y{3, 6, 7, 2};
    RaceProblem p = RaceProblem::dtw(x, y);

    RaceEngine behavioral(configFor(BackendKind::Behavioral));
    RaceEngine gates(configFor(BackendKind::GateLevel));
    RaceResult soft = behavioral.solve(p);
    RaceResult hard = gates.solve(p);
    EXPECT_EQ(soft.score, hard.score);
}

TEST(ApiEngine, BehavioralAndGateLevelAgreeOnDagPath)
{
    graph::Dag fig3 = graph::makeFig3ExampleDag();
    RaceEngine behavioral(configFor(BackendKind::Behavioral));
    RaceEngine gates(configFor(BackendKind::GateLevel));

    for (graph::Objective objective :
         {graph::Objective::Shortest, graph::Objective::Longest}) {
        RaceProblem p =
            RaceProblem::dagPath(fig3, {0, 1}, 4, objective);
        RaceResult soft = behavioral.solve(p);
        RaceResult hard = gates.solve(p);
        EXPECT_EQ(soft.score, hard.score);
    }
    // Fig. 3 reconstruction: shortest 2 (longest is 4; both the DP
    // and the AND race agree -- see makeFig3ExampleDag()).
    RaceResult shortest = behavioral.solve(RaceProblem::dagPath(
        fig3, {0, 1}, 4, graph::Objective::Shortest));
    EXPECT_EQ(shortest.score, 2);
}

TEST(ApiEngine, BehavioralAndGateLevelAgreeOnAffine)
{
    ScoreMatrix costs = ScoreMatrix::dnaShortestPath();
    bio::AffineGapCosts gaps{2, 1};
    RaceProblem p = RaceProblem::affineAlignment(
        costs, gaps, dna("ACTG"), dna("AG"));

    RaceEngine behavioral(configFor(BackendKind::Behavioral));
    RaceEngine gates(configFor(BackendKind::GateLevel));
    RaceResult soft = behavioral.solve(p);
    RaceResult hard = gates.solve(p);
    EXPECT_EQ(soft.score, hard.score);
}

// ------------------------------------------------- systolic backend

TEST(ApiEngine, SystolicBackendMatchesBehavioralScore)
{
    ScoreMatrix costs = ScoreMatrix::dnaShortestPathInfMismatch();
    RaceEngine behavioral(configFor(BackendKind::Behavioral));
    RaceEngine systolic(configFor(BackendKind::Systolic));

    util::Rng rng(21);
    for (int round = 0; round < 4; ++round) {
        Sequence a = Sequence::random(rng, Alphabet::dna(), 8);
        Sequence b = Sequence::random(rng, Alphabet::dna(), 8);
        RaceProblem p = RaceProblem::pairwiseAlignment(costs, a, b);
        EXPECT_EQ(systolic.solve(p).score, behavioral.solve(p).score);
    }
}

TEST(ApiEngine, SystolicScreeningCannotAbort)
{
    ScoreMatrix costs = ScoreMatrix::dnaShortestPathInfMismatch();
    Sequence query = dna("ACTGAGA");
    Sequence distant = dna("TTTTTTT");
    RaceProblem p =
        RaceProblem::thresholdScreen(costs, 9, query, distant);

    RaceEngine behavioral(configFor(BackendKind::Behavioral));
    RaceEngine systolic(configFor(BackendKind::Systolic));
    RaceResult soft = behavioral.solve(p);
    RaceResult hard = systolic.solve(p);
    EXPECT_FALSE(soft.accepted);
    EXPECT_FALSE(hard.accepted);
    // The race aborts at the threshold; the array runs to completion.
    EXPECT_EQ(soft.cyclesUsed, 9u);
    EXPECT_GT(hard.cyclesUsed, soft.cyclesUsed);
}

// ----------------------------------------------- batch + estimates

TEST(ApiEngine, SolveBatchDispatchesOntoFabricPool)
{
    ScoreMatrix costs = ScoreMatrix::dnaShortestPathInfMismatch();
    util::Rng rng(99);
    auto workload = bio::makeScreeningWorkload(
        rng, Alphabet::dna(), 16, 24, 0.25,
        bio::MutationModel{0.05, 0.02, 0.02});
    bio::Score threshold = 22;

    RaceEngine engine;
    api::BatchOutcome batch = engine.screen(
        costs, threshold, workload.query, workload.database);
    ASSERT_EQ(batch.results.size(), workload.database.size());
    ASSERT_TRUE(batch.schedule.has_value());
    EXPECT_EQ(batch.schedule->comparisons, workload.database.size());
    EXPECT_EQ(batch.schedule->acceptedCount, batch.acceptedCount());
    EXPECT_GT(batch.schedule->utilization, 0.0);

    // Verdicts from the pool dispatcher and the engine agree.
    for (size_t i = 0; i < batch.results.size(); ++i)
        EXPECT_EQ(batch.results[i].accepted, batch.schedule->accepted[i]);
}

TEST(ApiEngine, MixedThresholdBatchScheduleMatchesResults)
{
    // Each screen carries its own threshold; the pool schedule is
    // built from the per-result busy cycles, so verdicts and cycle
    // accounting stay consistent across a mixed-threshold batch.
    ScoreMatrix costs = ScoreMatrix::dnaShortestPathInfMismatch();
    Sequence query = dna("ACTGAGA");
    Sequence distant = dna("TTTTTTT"); // cost 13 (one T-T match)
    RaceEngine engine;
    std::vector<RaceProblem> problems;
    problems.push_back(
        RaceProblem::thresholdScreen(costs, 9, query, distant));
    problems.push_back(
        RaceProblem::thresholdScreen(costs, 20, query, distant));
    api::BatchOutcome batch = engine.solveBatch(problems);
    ASSERT_TRUE(batch.schedule.has_value());
    EXPECT_FALSE(batch.results[0].accepted);
    EXPECT_TRUE(batch.results[1].accepted);
    EXPECT_EQ(batch.schedule->accepted[0], batch.results[0].accepted);
    EXPECT_EQ(batch.schedule->accepted[1], batch.results[1].accepted);
    // Busy cycles: 9 (aborted at its own threshold) + 13 (completed).
    EXPECT_EQ(batch.busyCycles(), 22u);
}

TEST(ApiEngine, ZeroThresholdScreenRejectsOnBothBackends)
{
    ScoreMatrix costs = ScoreMatrix::dnaShortestPathInfMismatch();
    RaceProblem p = RaceProblem::thresholdScreen(
        costs, 0, dna("ACTG"), dna("ACTG"));
    for (BackendKind backend :
         {BackendKind::Behavioral, BackendKind::GateLevel}) {
        RaceEngine engine(configFor(backend));
        RaceResult r = engine.solve(p);
        EXPECT_FALSE(r.accepted);
        EXPECT_FALSE(r.completed);
        EXPECT_EQ(r.cyclesUsed, 0u);
        EXPECT_EQ(r.score, bio::kScoreInfinity);
    }
}

TEST(ApiEngine, MixedBatchHasNoSchedule)
{
    RaceEngine engine;
    std::vector<RaceProblem> problems;
    problems.push_back(RaceProblem::dtw({1, 2, 3}, {1, 2, 4}));
    problems.push_back(RaceProblem::pairwiseAlignment(
        ScoreMatrix::dnaShortestPath(), dna("ACT"), dna("AGT")));
    api::BatchOutcome batch = engine.solveBatch(problems);
    EXPECT_EQ(batch.results.size(), 2u);
    EXPECT_FALSE(batch.schedule.has_value());
}

TEST(ApiEngine, EstimatesAreAttachedAndPlausible)
{
    ScoreMatrix costs = ScoreMatrix::dnaShortestPathInfMismatch();
    RaceEngine engine;
    RaceResult r = engine.solve(RaceProblem::pairwiseAlignment(
        costs, dna("ACTGAGA"), dna("GATTCGA")));
    ASSERT_TRUE(r.estimate.has_value());
    EXPECT_GT(r.estimate->wallTimeNs, 0.0);
    EXPECT_GT(r.estimate->areaUm2, 0.0);
    EXPECT_GT(r.estimate->energyJ, 0.0);
    EXPECT_FALSE(r.describe().empty());
    EXPECT_FALSE(r.arrivalTable().empty());
}

// ------------------------------------------------ gate-level pricing
//
// On the GateLevel backend every estimate field except wall time is
// priced from the netlist the engine actually raced: area from its
// gate inventory, energy from its measured switching activity (the
// ModelSim -> PrimeTime stand-in).  These tests rebuild each netlist
// independently -- GeneralizedGridCircuit for grids,
// compileRaceCircuit for lattices and graph products -- and pin the
// figures exactly.

/** Expect `est` to be priced from `netlist` with energy `energyJ`. */
void
expectPricedFrom(const api::HardwareEstimate &est,
                 const circuit::Netlist &netlist, double energyJ)
{
    const tech::CellLibrary &lib = tech::CellLibrary::amis();
    const auto counts = netlist.typeCounts();
    ASSERT_GT(netlist.gateCount(), 0u);
    ASSERT_GT(energyJ, 0.0);
    EXPECT_EQ(est.areaUm2, lib.areaOfInventory(counts));
    EXPECT_EQ(est.energyJ, energyJ);
    EXPECT_EQ(est.gateCount, netlist.gateCount());
    EXPECT_EQ(est.dffCount,
              counts[static_cast<size_t>(circuit::GateType::Dff)]);
}

/**
 * Replay a compiled race circuit from its sources, expect the sink to
 * rise at cycle `expected` (the DP oracle), and return the energy of
 * the switching activity the engine's run budget (expected + 4)
 * covers.
 */
double
replayLatticeEnergy(const core::RaceCircuit &compiled, graph::NodeId sink,
                    bio::Score expected)
{
    circuit::CompiledSim sim(compiled.netlist);
    for (circuit::NetId input : compiled.sourceInputs)
        sim.setInput(input, true);
    auto arrival = sim.runUntil(compiled.nodeNets[sink], true,
                                static_cast<uint64_t>(expected) + 4);
    EXPECT_EQ(arrival, std::optional<uint64_t>(expected));
    return tech::energyFromActivityJ(tech::CellLibrary::amis(),
                                     sim.activity());
}

TEST(GateLevelPricing, PairwiseIsPricedFromTheSynthesizedFabric)
{
    ScoreMatrix costs = ScoreMatrix::dnaShortestPath();
    Sequence a = dna("GATTACA");
    Sequence b = dna("GCATGC");
    RaceEngine engine(configFor(BackendKind::GateLevel));
    RaceResult got =
        engine.solve(RaceProblem::pairwiseAlignment(costs, a, b));
    ASSERT_TRUE(got.estimate.has_value());

    core::GeneralizedGridCircuit fabric(costs, a.size(), b.size(),
                                        EngineConfig{}.encoding);
    fabric.sim().clearActivity();
    core::CircuitRunResult run = fabric.align(a, b, 0);
    ASSERT_TRUE(run.completed);
    EXPECT_EQ(run.score, bio::globalScore(a, b, costs));
    expectPricedFrom(*got.estimate, fabric.netlist(),
                     tech::energyFromActivityJ(tech::CellLibrary::amis(),
                                               fabric.sim().activity()));
}

TEST(GateLevelPricing, DtwIsPricedFromTheCompiledLattice)
{
    std::vector<apps::Sample> x{3, 5, 8, 6, 2};
    std::vector<apps::Sample> y{3, 6, 7, 2};
    RaceEngine engine(configFor(BackendKind::GateLevel));
    RaceResult got = engine.solve(RaceProblem::dtw(x, y));
    ASSERT_TRUE(got.estimate.has_value());

    apps::DtwGraph lattice = apps::makeDtwGraph(x, y);
    core::RaceCircuit compiled = core::compileRaceCircuit(
        lattice.dag, {lattice.source}, core::RaceType::Or);
    expectPricedFrom(*got.estimate, compiled.netlist,
                     replayLatticeEnergy(compiled, lattice.sink,
                                         apps::dtwDistance(x, y)));
}

TEST(GateLevelPricing, GraphAlignIsPricedFromTheCompiledProduct)
{
    util::Rng rng(21);
    pangraph::VariationGraphParams params;
    params.backboneSegments = 3;
    params.maxLabel = 4;
    auto graph = std::make_shared<pangraph::VariationGraph>(
        pangraph::randomVariationGraph(rng, Alphabet::dna(), params));
    ScoreMatrix costs = ScoreMatrix::dnaShortestPath();
    Sequence read = pangraph::sampleRead(
        rng, *graph, bio::MutationModel::uniform(0.2));

    RaceEngine engine(configFor(BackendKind::GateLevel));
    RaceResult got =
        engine.solve(RaceProblem::graphAlign(costs, read, graph));
    ASSERT_TRUE(got.estimate.has_value());

    pangraph::GraphAligner aligner(graph, costs);
    pangraph::AlignmentGraph product = pangraph::buildAlignmentGraph(
        aligner.compiled(), read, aligner.costs());
    core::RaceCircuit compiled = core::compileRaceCircuit(
        product.dag, {product.source}, core::RaceType::Or);
    expectPricedFrom(
        *got.estimate, compiled.netlist,
        replayLatticeEnergy(compiled, product.sink,
                            pangraph::graphAlignDp(*graph, read, costs)
                                .distance));
}

TEST(GateLevelPricing, LanePackedBatchSplitsTheChunkEnergyPerLane)
{
    // One shape, three comparisons: one 64-lane chunk on one fabric,
    // whose lock-step activity is shared evenly by its lanes.
    ScoreMatrix costs = ScoreMatrix::dnaShortestPath();
    std::vector<Sequence> as{dna("GATTACA"), dna("ACGTACG"),
                             dna("TTTTTTT")};
    std::vector<Sequence> bs{dna("GCATGC"), dna("ACGTAC"),
                             dna("ACGTAC")};
    std::vector<RaceProblem> problems;
    std::vector<core::LanePair> lanes;
    for (size_t i = 0; i < as.size(); ++i) {
        problems.push_back(
            RaceProblem::pairwiseAlignment(costs, as[i], bs[i]));
        lanes.push_back({&as[i], &bs[i]});
    }
    EngineConfig config = configFor(BackendKind::GateLevel);
    config.workerThreads = 1;
    RaceEngine engine(config);
    api::BatchOutcome batch = engine.solveBatch(problems);

    core::GeneralizedGridCircuit fabric(costs, 7, 6, config.encoding);
    core::LaneBatchResult raced = fabric.alignLanes(lanes, 0);
    const double perLane =
        tech::energyFromActivityJ(tech::CellLibrary::amis(),
                                  raced.activity) /
        static_cast<double>(lanes.size());
    ASSERT_EQ(batch.results.size(), problems.size());
    for (size_t i = 0; i < problems.size(); ++i) {
        SCOPED_TRACE(i);
        EXPECT_EQ(raced.lanes[i].score,
                  bio::globalScore(as[i], bs[i], costs));
        ASSERT_TRUE(batch.results[i].estimate.has_value());
        expectPricedFrom(*batch.results[i].estimate, fabric.netlist(),
                         perLane);
    }
}

TEST(ApiEngine, EngineThresholdAppliesToPlainAlignment)
{
    ScoreMatrix costs = ScoreMatrix::dnaShortestPathInfMismatch();
    EngineConfig config;
    config.threshold = 5;
    RaceEngine engine(config);
    RaceResult r = engine.solve(RaceProblem::pairwiseAlignment(
        costs, dna("ACTGAGA"), dna("GATTCGA"))); // cost 10 > 5
    EXPECT_FALSE(r.accepted);
    EXPECT_EQ(r.cyclesUsed, 5u);
    EXPECT_EQ(r.score, 10); // score still exact outside screening
}

// ----------------------------------- one solve contract, every kind

/** A small instance of one problem kind and its DP-oracle score. */
struct ContractInstance {
    RaceProblem problem;
    bio::Score oracle = 0;
};

/**
 * `kind` on a small fixed input.  A finite `threshold` makes the
 * screening kinds (ThresholdScreen, GraphAlign) a Section 6 screen.
 */
ContractInstance
contractInstance(ProblemKind kind, bio::Score threshold)
{
    const ScoreMatrix costs = ScoreMatrix::dnaShortestPath();
    switch (kind) {
    case ProblemKind::PairwiseAlignment: {
        Sequence a = dna("GATTACA"), b = dna("GCATGCT");
        return {RaceProblem::pairwiseAlignment(costs, a, b),
                bio::globalScore(a, b, costs)};
    }
    case ProblemKind::AffineAlignment: {
        Sequence a = dna("ACTGAGA"), b = dna("AGA");
        bio::AffineGapCosts gaps{3, 1};
        return {RaceProblem::affineAlignment(costs, gaps, a, b),
                bio::affineGlobalScore(a, b, costs, gaps)};
    }
    case ProblemKind::Dtw: {
        std::vector<apps::Sample> x{3, 5, 8, 6, 2};
        std::vector<apps::Sample> y{3, 6, 7, 2};
        return {RaceProblem::dtw(x, y), apps::dtwDistance(x, y)};
    }
    case ProblemKind::DagPath: {
        graph::Dag fig3 = graph::makeFig3ExampleDag();
        auto dp = graph::solveDag(fig3, {0, 1},
                                  graph::Objective::Shortest);
        return {RaceProblem::dagPath(fig3, {0, 1}, 4,
                                     graph::Objective::Shortest),
                dp.distance[4]};
    }
    case ProblemKind::GeneralizedAlignment: {
        ScoreMatrix pam = ScoreMatrix::pam250();
        Sequence a = protein("MKVLA"), b = protein("MKPLA");
        return {RaceProblem::generalizedAlignment(pam, a, b, 2),
                bio::globalAlign(a, b, pam).score};
    }
    case ProblemKind::ThresholdScreen: {
        Sequence a = dna("GATTACA"), b = dna("GCATGCT");
        // A screen needs a finite threshold; 1000 accepts.
        return {RaceProblem::thresholdScreen(
                    costs,
                    threshold == bio::kScoreInfinity ? 1000 : threshold,
                    a, b),
                bio::globalScore(a, b, costs)};
    }
    case ProblemKind::GraphAlign: {
        util::Rng rng(21);
        pangraph::VariationGraphParams params;
        params.backboneSegments = 3;
        params.maxLabel = 4;
        auto graph = std::make_shared<pangraph::VariationGraph>(
            pangraph::randomVariationGraph(rng, Alphabet::dna(), params));
        Sequence read = pangraph::sampleRead(
            rng, *graph, bio::MutationModel::uniform(0.2));
        return {RaceProblem::graphAlign(costs, read, graph, threshold),
                pangraph::graphAlignDp(*graph, read, costs).distance};
    }
    }
    ADD_FAILURE() << "unknown problem kind";
    return {};
}

void
expectTypedAbort(const RaceResult &r)
{
    EXPECT_TRUE(r.cancelled);
    EXPECT_FALSE(r.completed);
    EXPECT_FALSE(r.accepted);
    EXPECT_EQ(r.score, bio::kScoreInfinity);
    EXPECT_TRUE(r.nodeArrival.empty())
        << "a cancelled race must reveal no mapping detail";
}

class SolveContract
    : public ::testing::TestWithParam<std::tuple<ProblemKind, BackendKind>>
{};

TEST_P(SolveContract, AcceptRejectAndCancelHoldOnEveryKind)
{
    const auto [kind, backend] = GetParam();
    RaceEngine engine(configFor(backend));

    // Accepted: the score is the DP oracle's.
    const ContractInstance loose =
        contractInstance(kind, bio::kScoreInfinity);
    const RaceResult accepted = engine.solve(loose.problem);
    EXPECT_TRUE(accepted.completed);
    EXPECT_TRUE(accepted.accepted);
    EXPECT_FALSE(accepted.cancelled);
    EXPECT_EQ(accepted.score, loose.oracle);

    // Rejected: a screen whose threshold sits one under the score
    // reveals only that the score exceeds it.
    if (kind == ProblemKind::ThresholdScreen ||
        kind == ProblemKind::GraphAlign) {
        ASSERT_GE(loose.oracle, 1);
        const RaceResult rejected = engine.solve(
            contractInstance(kind, loose.oracle - 1).problem);
        EXPECT_FALSE(rejected.completed);
        EXPECT_FALSE(rejected.accepted);
        EXPECT_FALSE(rejected.cancelled);
        EXPECT_EQ(rejected.score, bio::kScoreInfinity);
        EXPECT_TRUE(rejected.nodeArrival.empty());
    }

    // Pre-cancelled: a typed abort, except where the race takes no
    // token (DagPath races, and GraphAlign's gate-level product race).
    core::CancelToken token;
    token.cancel();
    RaceProblem cancelled = loose.problem;
    cancelled.cancel = &token;
    const RaceResult r = engine.solve(cancelled);
    const bool ignoresToken =
        kind == ProblemKind::DagPath ||
        (kind == ProblemKind::GraphAlign &&
         backend == BackendKind::GateLevel);
    if (ignoresToken) {
        EXPECT_FALSE(r.cancelled);
        EXPECT_EQ(r.score, loose.oracle);
    } else {
        expectTypedAbort(r);
    }
}

INSTANTIATE_TEST_SUITE_P(
    ApiEngine, SolveContract,
    ::testing::Combine(
        ::testing::Values(ProblemKind::PairwiseAlignment,
                          ProblemKind::AffineAlignment, ProblemKind::Dtw,
                          ProblemKind::DagPath,
                          ProblemKind::GeneralizedAlignment,
                          ProblemKind::ThresholdScreen,
                          ProblemKind::GraphAlign),
        ::testing::Values(BackendKind::Behavioral,
                          BackendKind::GateLevel)),
    [](const auto &info) {
        std::string name =
            std::string(api::problemKindName(std::get<0>(info.param))) +
            "_" + api::backendKindName(std::get<1>(info.param));
        std::replace(name.begin(), name.end(), '-', '_');
        return name;
    });

TEST(ApiEngine, GateLevelBatchReturnsTypedAbortForCancelledLanes)
{
    const ScoreMatrix costs = ScoreMatrix::dnaShortestPath();
    core::CancelToken token;
    token.cancel();
    std::vector<RaceProblem> problems;
    for (const char *b : {"GCATGCT", "GATTACA", "ACGTACG"})
        problems.push_back(
            RaceProblem::pairwiseAlignment(costs, dna("GATTACA"), dna(b)));
    problems[0].cancel = &token;
    problems[2].cancel = &token;

    RaceEngine engine(configFor(BackendKind::GateLevel));
    const api::BatchOutcome batch = engine.solveBatch(problems);
    ASSERT_EQ(batch.results.size(), 3u);
    expectTypedAbort(batch.results[0]);
    expectTypedAbort(batch.results[2]);
    EXPECT_FALSE(batch.results[1].cancelled);
    EXPECT_EQ(batch.results[1].score,
              bio::globalScore(dna("GATTACA"), dna("GATTACA"), costs));
}

TEST(ApiEngine, UncancelledTokenLeavesTheSolveBitIdentical)
{
    RaceEngine engine;
    RaceProblem plain = RaceProblem::pairwiseAlignment(
        ScoreMatrix::dnaShortestPath(), dna("GATTACA"), dna("GCATGCT"));
    const RaceResult expected = engine.solve(plain);

    core::CancelToken idle; // live but never fired
    RaceProblem tokened = plain;
    tokened.cancel = &idle;
    const RaceResult r = engine.solve(tokened);
    EXPECT_FALSE(r.cancelled);
    EXPECT_EQ(r.score, expected.score);
    EXPECT_EQ(r.racedCost, expected.racedCost);
    EXPECT_EQ(r.latencyCycles, expected.latencyCycles);
    EXPECT_EQ(r.events, expected.events);
    EXPECT_EQ(r.cellsFired, expected.cellsFired);
    EXPECT_EQ(r.nodeArrival, expected.nodeArrival);
}

} // namespace
