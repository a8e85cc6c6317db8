#include "rl/api/engine.h"

#include <algorithm>

#include "rl/api/validate.h"

#include "rl/circuit/compiled_sim.h"
#include "rl/core/generalized.h"
#include "rl/core/lattice_sweep.h"
#include "rl/core/race_grid.h"
#include "rl/core/race_network.h"
#include "rl/pangraph/alignment_graph.h"
#include "rl/pangraph/graph_aligner.h"
#include "rl/systolic/lipton_lopresti.h"
#include "rl/tech/area_model.h"
#include "rl/tech/energy_model.h"
#include "rl/util/logging.h"

namespace racelogic::api {

/**
 * A planned fabric for one grid shape: the converted matrix, the
 * behavioral racer, and (backend-dependent) the synthesized gate-level
 * fabric or systolic array.  Strings are runtime inputs, so one plan
 * serves every same-shape query.
 */
struct RaceEngine::Plan {
    size_t rows = 0;
    size_t cols = 0;

    /** The matrix the problem supplied (cache-hit exact check). */
    std::optional<bio::ScoreMatrix> input;

    /** Section 5 conversion metadata (similarity inputs only). */
    std::optional<bio::ShortestPathForm> conversion;

    /** Behavioral OR-type racer over the race-ready costs. */
    std::optional<core::RaceGridAligner> behavioral;

    /** Synthesized fabric (GateLevel backend). */
    std::unique_ptr<core::GeneralizedGridCircuit> fabric;

    /** Lipton-Lopresti array (Systolic backend). */
    std::unique_ptr<systolic::LiptonLoprestiArray> array;

    /**
     * Planned pangenome (GraphAlign only): the compiled
     * character-level graph plus the converted matrix.  Reads are
     * runtime inputs, so one aligner serves every read -- and its
     * align() is const, so parallel batches share it safely.
     */
    std::shared_ptr<pangraph::GraphAligner> graphAligner;

    /** Per-cell gate inventory (estimates; measured once per plan). */
    std::array<size_t, circuit::kGateTypeCount> cellInventory{};
    bool hasInventory = false;

    const bio::ScoreMatrix &
    costs() const
    {
        return behavioral->matrix();
    }

    /**
     * Approximate resident heap bytes -- the memory budget's
     * currency.  Counts the dominant allocations (netlist gates,
     * compiled-graph CSRs, score tables); the budget needs honest
     * bookkeeping that tracks reality, not byte-exact totals.
     */
    size_t residentBytes() const;
};

namespace {

/** Approximate heap bytes of one score matrix's tables. */
size_t
scoreMatrixBytes(const bio::ScoreMatrix &matrix)
{
    const size_t n = matrix.alphabet().size();
    return (n * n + n) * sizeof(bio::Score) + sizeof(bio::ScoreMatrix);
}

} // namespace

size_t
RaceEngine::Plan::residentBytes() const
{
    size_t bytes = sizeof(Plan);
    if (input)
        bytes += scoreMatrixBytes(*input);
    if (conversion)
        bytes += scoreMatrixBytes(conversion->costs);
    if (behavioral)
        bytes += scoreMatrixBytes(behavioral->matrix());
    if (fabric) {
        // Gate storage dominates a synthesized fabric; ~64 bytes per
        // gate covers the Gate record plus its input vector.
        bytes += fabric->netlist().gateCount() * 64;
    }
    if (array) {
        // One PE row per diagonal; storage scales with the perimeter.
        bytes += (rows + cols + 2) * 128;
    }
    if (graphAligner) {
        const pangraph::CompiledGraph &cg = graphAligner->compiled();
        bytes += cg.symbol.capacity() * sizeof(bio::Symbol) +
                 cg.segmentOf.capacity() * sizeof(pangraph::SegmentId) +
                 (cg.firstChar.capacity() + cg.lastChar.capacity() +
                  cg.succ.capacity() + cg.pred.capacity()) *
                     sizeof(pangraph::CharPos) +
                 (cg.succOffsets.capacity() + cg.predOffsets.capacity()) *
                     sizeof(uint32_t) +
                 cg.terminal.capacity() +
                 cg.gapWeight.capacity() * sizeof(bio::Score) +
                 scoreMatrixBytes(graphAligner->costs());
    }
    return bytes;
}

namespace {

/** True iff the two matrices describe identical edit weights. */
bool
sameMatrix(const bio::ScoreMatrix &lhs, const bio::ScoreMatrix &rhs)
{
    if (lhs.kind() != rhs.kind() ||
        lhs.alphabet().size() != rhs.alphabet().size())
        return false;
    const size_t n = lhs.alphabet().size();
    for (size_t i = 0; i < n; ++i) {
        auto s = static_cast<bio::Symbol>(i);
        if (lhs.gap(s) != rhs.gap(s))
            return false;
        for (size_t j = 0; j < n; ++j)
            if (lhs.pair(s, static_cast<bio::Symbol>(j)) !=
                rhs.pair(s, static_cast<bio::Symbol>(j)))
                return false;
    }
    return true;
}

/** Kinds the Lipton-Lopresti array races: Fig. 2b pairwise grids. */
bool
systolicKind(ProblemKind kind)
{
    return kind == ProblemKind::PairwiseAlignment ||
           kind == ProblemKind::ThresholdScreen;
}

/** Kinds that race one cached rows x cols grid plan. */
bool
gridFamilyKind(ProblemKind kind)
{
    return kind == ProblemKind::PairwiseAlignment ||
           kind == ProblemKind::GeneralizedAlignment ||
           kind == ProblemKind::ThresholdScreen;
}

/** Kinds with a cached plan (the acquire-then-race batch pattern). */
bool
planFamilyKind(ProblemKind kind)
{
    return gridFamilyKind(kind) || kind == ProblemKind::GraphAlign;
}

/**
 * True iff `problem` is a Section 6 screen: its own threshold bounds
 * the race, and a rejection reveals only the verdict.  A GraphAlign
 * problem screens when it carries a threshold.
 */
bool
screens(const RaceProblem &problem)
{
    return problem.kind == ProblemKind::ThresholdScreen ||
           (problem.kind == ProblemKind::GraphAlign &&
            problem.threshold != bio::kScoreInfinity);
}

/** A DagPath's gate family: shortest races OR, longest races AND. */
core::RaceType
dagRaceType(const RaceProblem &problem)
{
    return problem.objective == graph::Objective::Shortest
               ? core::RaceType::Or
               : core::RaceType::And;
}

/**
 * The threshold in force: a screen's own, else the engine-wide one.
 * An AND race has none -- early termination is an OR-race property,
 * and a MAX race's answer is not known until the end.
 */
bio::Score
thresholdFor(const RaceProblem &problem, const EngineConfig &cfg)
{
    if (screens(problem))
        return problem.threshold;
    if (problem.kind == ProblemKind::DagPath &&
        dagRaceType(problem) == core::RaceType::And)
        return bio::kScoreInfinity;
    return cfg.threshold;
}

/**
 * Shape a raced result into its verdict.  Accepted iff the sink fired
 * within `threshold`; cyclesUsed is the latency, clamped to the
 * threshold when the race exceeded it.  A cancelled race reveals
 * nothing, and a rejected screen only that its score exceeds the
 * threshold: both come back completed = false, score kScoreInfinity
 * and without per-node arrival detail (graphMapping() needs a
 * completed race, and keeping the product arrivals would make
 * screening batches scale as reads x product size).  Engine-wide
 * thresholds on other kinds keep the exact score of a rejection.
 */
void
applyVerdict(const RaceProblem &problem, bio::Score threshold,
             RaceResult &result)
{
    const bool over = result.completed && result.racedCost > threshold;
    result.accepted = result.completed && !over;
    result.cyclesUsed = over ? static_cast<sim::Tick>(threshold)
                             : result.latencyCycles;
    if (result.cancelled || (screens(problem) && !result.accepted)) {
        result.completed = false;
        result.accepted = false;
        result.nodeArrival.clear();
        result.nodeArrival.shrink_to_fit();
    }
    if (!result.completed)
        result.score = bio::kScoreInfinity;
}

/**
 * Copy a DAG or lattice race outcome into `result`: the sink's
 * arrival (the raw score), the race's counts and per-node arrivals.
 * A cancelled outcome defines only cancelled, completed (false) and
 * racedCost (kScoreInfinity).
 */
void
shapeRaceOutcome(core::RaceOutcome outcome, graph::NodeId sink,
                 RaceResult &result)
{
    if (outcome.cancelled) {
        result.cancelled = true;
        result.completed = false;
        result.racedCost = bio::kScoreInfinity;
        return;
    }
    core::TemporalValue arrival = outcome.at(sink);
    result.events = outcome.events;
    result.nodes = outcome.firing.size();
    result.completed = arrival.fired();
    result.latencyCycles =
        arrival.fired() ? arrival.time() : outcome.horizon;
    result.racedCost = arrival.fired()
                           ? static_cast<bio::Score>(arrival.time())
                           : bio::kScoreInfinity;
    result.score = result.racedCost;
    result.nodeArrival = std::move(outcome.firing);
    result.cellsFired = static_cast<size_t>(std::count_if(
        result.nodeArrival.begin(), result.nodeArrival.end(),
        [](const core::TemporalValue &v) { return v.fired(); }));
}

/**
 * The gate-level cycle budget of a replay.  Any finite threshold
 * becomes the budget -- the hardware realization of Section 6's
 * abort -- so the priced switching activity covers exactly the
 * cycles the fabric is busy; floor 1, because threshold 0 must reject
 * after a single cycle (all weights are >= 1).  A full race runs to
 * its sink; the slack only bounds a netlist that disagrees.
 */
uint64_t
gateBudget(bio::Score threshold, const RaceResult &result)
{
    return threshold == bio::kScoreInfinity
               ? static_cast<uint64_t>(result.racedCost) + 4
               : std::max<uint64_t>(static_cast<uint64_t>(threshold), 1);
}

/**
 * Cross-check a gate-level run against the behavioral result it
 * replays.  Both clocked to the same threshold, so they agree exactly
 * when both sinks fired.  A sink that fired only on the gates must
 * be past the threshold: the behavioral race aborted at its horizon,
 * and the gates ran to the budget's floor of 1 or, lane-packed, to
 * the chunk's largest budget.  A sink that never fired must be a
 * rejection.
 */
void
checkGateRun(bool fired, bio::Score gateScore, bio::Score threshold,
             const RaceResult &result)
{
    if (fired && result.completed)
        rl_assert(gateScore == result.racedCost,
                  "gate-level race disagrees with the behavioral model: ",
                  gateScore, " vs ", result.racedCost);
    else if (fired)
        rl_assert(gateScore > threshold,
                  "gate-level race completed under a threshold the "
                  "behavioral model aborted at");
    else
        rl_assert(threshold != bio::kScoreInfinity && !result.accepted,
                  "gate-level race did not complete within budget");
}

/**
 * Price `result`'s estimate from a netlist the engine actually raced
 * (the ModelSim -> PrimeTime stand-in): area from its gate
 * inventory, energy as measured from its simulated switching.
 */
void
priceFromNetlist(const EngineConfig &cfg, const circuit::Netlist &netlist,
                 double energyJ, RaceResult &result)
{
    if (!cfg.withEstimates || !result.estimate)
        return;
    const auto counts = netlist.typeCounts();
    HardwareEstimate &est = *result.estimate;
    est.areaUm2 = cfg.library->areaOfInventory(counts);
    est.energyJ = energyJ;
    est.gateCount = netlist.gateCount();
    est.dffCount = counts[static_cast<size_t>(circuit::GateType::Dff)];
}

/**
 * Replay a DAG race on gates: compile `dag` to a netlist, run it on
 * the compiled levelized simulator to `budget`, cross-check the sink
 * against the behavioral result and price the estimate from it.
 */
void
replayDag(const graph::Dag &dag, const std::vector<graph::NodeId> &sources,
          graph::NodeId sink, core::RaceType type, bio::Score threshold,
          const EngineConfig &cfg, RaceResult &result)
{
    core::RaceCircuit compiled = core::compileRaceCircuit(dag, sources, type);
    circuit::CompiledSim sim(compiled.netlist);
    for (circuit::NetId input : compiled.sourceInputs)
        sim.setInput(input, true);
    auto arrival = sim.runUntil(compiled.nodeNets[sink], true,
                                gateBudget(threshold, result));
    checkGateRun(arrival.has_value(),
                 static_cast<bio::Score>(arrival.value_or(0)), threshold,
                 result);
    priceFromNetlist(cfg, compiled.netlist,
                     tech::energyFromActivityJ(*cfg.library,
                                               sim.activity()),
                     result);
}

/**
 * A batch is "screening-shaped" when every problem races one shared
 * fabric against varying runtime inputs: one cost matrix and query
 * over a candidate database, or one pangenome plan over a read set.
 * Exactly the workloads the core::batch fabric pool schedules.
 */
bool
screeningShaped(const std::vector<RaceProblem> &problems)
{
    if (problems.empty())
        return false;
    const RaceProblem &first = problems.front();
    if (first.kind == ProblemKind::GraphAlign) {
        for (const RaceProblem &p : problems) {
            if (p.kind != ProblemKind::GraphAlign)
                return false;
            if (p.vgraph != first.vgraph ||
                !sameMatrix(*p.matrix, *first.matrix))
                return false;
        }
        return true;
    }
    if (!first.matrix || !first.matrix->isCost() || !first.a)
        return false;
    for (const RaceProblem &p : problems) {
        if (!systolicKind(p.kind))
            return false;
        if (!(*p.a == *first.a) || !sameMatrix(*p.matrix, *first.matrix))
            return false;
    }
    return true;
}

} // namespace

size_t
BatchOutcome::acceptedCount() const
{
    return static_cast<size_t>(
        std::count_if(results.begin(), results.end(),
                      [](const RaceResult &r) { return r.accepted; }));
}

uint64_t
BatchOutcome::busyCycles() const
{
    uint64_t total = 0;
    for (const RaceResult &r : results)
        total += r.cyclesUsed;
    return total;
}

uint64_t
BatchOutcome::fullRaceCycles() const
{
    uint64_t total = 0;
    for (const RaceResult &r : results)
        total += r.latencyCycles;
    return total;
}

double
BatchOutcome::speedup() const
{
    uint64_t busy = busyCycles();
    return busy == 0 ? 1.0
                     : static_cast<double>(fullRaceCycles()) /
                           static_cast<double>(busy);
}

RaceEngine::RaceEngine(EngineConfig config) : cfg(config)
{
    rl_assert(cfg.library != nullptr,
              "EngineConfig.library must point at a CellLibrary");
}

RaceEngine::~RaceEngine() = default;

void
RaceEngine::clearPlanCache()
{
    lru.clear();
    index.clear();
    std::lock_guard<std::mutex> lock(statsMutex);
    cacheBytes = 0;
}

size_t
RaceEngine::planCacheBytes() const
{
    std::lock_guard<std::mutex> lock(statsMutex);
    return cacheBytes;
}

size_t
RaceEngine::evictLruPlan()
{
    if (lru.empty())
        return 0;
    const size_t freed = lru.back().second->residentBytes();
    index.erase(lru.back().first);
    lru.pop_back();
    std::lock_guard<std::mutex> lock(statsMutex);
    cacheBytes -= std::min(cacheBytes, freed);
    return freed;
}

size_t
RaceEngine::evictGraphPlans()
{
    size_t freed = 0;
    for (auto it = lru.begin(); it != lru.end();) {
        if (it->second->graphAligner == nullptr) {
            ++it;
            continue;
        }
        freed += it->second->residentBytes();
        index.erase(it->first);
        it = lru.erase(it);
    }
    if (freed > 0) {
        std::lock_guard<std::mutex> lock(statsMutex);
        cacheBytes -= std::min(cacheBytes, freed);
    }
    return freed;
}

std::shared_ptr<RaceEngine::Plan>
RaceEngine::buildPlan(const RaceProblem &problem)
{
    auto plan = std::make_shared<Plan>();
    plan->input = *problem.matrix;
    if (problem.kind == ProblemKind::GraphAlign) {
        plan->graphAligner = std::make_shared<pangraph::GraphAligner>(
            problem.vgraph, *problem.matrix, problem.lambda);
    } else {
        plan->rows = problem.a->size();
        plan->cols = problem.b->size();
        const bio::ScoreMatrix &input = *plan->input;
        if (input.isCost()) {
            plan->behavioral.emplace(input);
        } else {
            plan->conversion =
                bio::toShortestPathForm(input, problem.lambda);
            plan->behavioral.emplace(plan->conversion->costs);
        }
        if (cfg.backend == BackendKind::GateLevel)
            plan->fabric = std::make_unique<core::GeneralizedGridCircuit>(
                plan->costs(), plan->rows, plan->cols, cfg.encoding);
        if (cfg.backend == BackendKind::Systolic)
            plan->array = std::make_unique<systolic::LiptonLoprestiArray>(
                plan->costs());
        if (cfg.withEstimates && cfg.backend != BackendKind::Systolic) {
            plan->cellInventory =
                core::GeneralizedGridCircuit::cellInventory(plan->costs(),
                                                            cfg.encoding);
            plan->hasInventory = true;
        }
    }
    {
        std::lock_guard<std::mutex> lock(statsMutex);
        ++statistics.plansBuilt;
    }
    return plan;
}

void
RaceEngine::insertPlan(std::string key, std::shared_ptr<Plan> plan)
{
    {
        std::lock_guard<std::mutex> lock(statsMutex);
        cacheBytes += plan->residentBytes();
    }
    lru.emplace_front(std::move(key), std::move(plan));
    index[lru.front().first] = lru.begin();
    while (lru.size() > cfg.planCacheCapacity)
        evictLruPlan();
}

std::shared_ptr<RaceEngine::Plan>
RaceEngine::planFor(const RaceProblem &problem, bool recordHit)
{
    if (cfg.planCacheCapacity == 0)
        return buildPlan(problem);

    std::string key = problem.shapeKey();
    auto found = index.find(key);
    if (found != index.end()) {
        // The key carries 64-bit content fingerprints; confirm the
        // match exactly so a hash collision can never hand back the
        // wrong fabric.  A collision falls through to an uncached
        // fresh plan (the slot keeps its original owner).  GraphAlign
        // keys additionally embed the graph topology, re-verified
        // structurally here.
        const Plan &cached = *found->second->second;
        const bool graphKind = problem.kind == ProblemKind::GraphAlign;
        bool match = graphKind == (cached.graphAligner != nullptr) &&
                     sameMatrix(*problem.matrix, *cached.input);
        if (match && graphKind)
            match = problem.vgraph == cached.graphAligner->graphPtr() ||
                    pangraph::sameTopology(*problem.vgraph,
                                           cached.graphAligner->graph());
        if (match) {
            lru.splice(lru.begin(), lru, found->second);
            if (recordHit) {
                std::lock_guard<std::mutex> lock(statsMutex);
                ++statistics.planCacheHits;
            }
            return lru.front().second;
        }
        return buildPlan(problem);
    }

    auto plan = buildPlan(problem);
    insertPlan(std::move(key), plan);
    return plan;
}

Status
RaceEngine::validate(const RaceProblem &problem) const
{
    ProblemLimits limits;
    limits.maxProductStates = cfg.maxProductStates;
    // checkShape() must pass before shapeKey() (hasPlanFor) is safe
    // to call: the key builder dereferences the kind's optionals.
    if (Status shape = checkShape(problem); !shape.ok())
        return shape;
    // Backend compatibility is this engine's concern, not the
    // problem's (solve() asserts the same invariant).
    if (cfg.backend == BackendKind::Systolic && !systolicKind(problem.kind))
        return Status::error(ErrorCode::Unsupported,
                             "the systolic baseline races pairwise "
                             "grids and threshold screens only");
    if (hasPlanFor(problem)) {
        // The cached plan's build already vetted the expensive
        // matrix/graph half; only the budgets and the per-request
        // runtime inputs (sequences, thresholds) need checking.
        if (Status s = checkBudgets(problem, limits); !s.ok())
            return s;
        return checkRuntimeInputs(problem);
    }
    return validateProblem(problem, limits);
}

Expected<RaceResult>
RaceEngine::trySolve(const RaceProblem &problem)
{
    if (Status s = validate(problem); !s.ok())
        return s;
    return solve(problem);
}

EngineStats
RaceEngine::stats() const
{
    std::lock_guard<std::mutex> lock(statsMutex);
    return statistics;
}

RaceResult
RaceEngine::solve(const RaceProblem &problem)
{
    {
        std::lock_guard<std::mutex> lock(statsMutex);
        ++statistics.solves;
    }
    rl_assert(cfg.backend != BackendKind::Systolic ||
                  systolicKind(problem.kind),
              "the systolic baseline races pairwise grids and threshold "
              "screens only; race ", problemKindName(problem.kind),
              " on the behavioral or gate-level backend");

    std::shared_ptr<Plan> plan;
    if (planFamilyKind(problem.kind))
        plan = planFor(problem);
    if (cfg.backend == BackendKind::Systolic)
        return raceSystolic(problem, *plan);

    // GateLevel GraphAlign races the product DAG it synthesizes (Fig.
    // 3b, one OR gate per state, DFF chains per edit weight), built
    // once -- materialization dominates the per-read cost.
    std::optional<pangraph::AlignmentGraph> product;
    if (cfg.backend == BackendKind::GateLevel &&
        problem.kind == ProblemKind::GraphAlign)
        product = pangraph::buildAlignmentGraph(
            plan->graphAligner->compiled(), *problem.a,
            plan->graphAligner->costs());
    const pangraph::AlignmentGraph *productDag =
        product ? &*product : nullptr;

    RaceResult result = race(problem, plan.get(), productDag);
    if (cfg.backend == BackendKind::GateLevel)
        replayOnGates(problem, plan.get(), productDag, result);
    return result;
}

RaceResult
RaceEngine::race(const RaceProblem &problem, const Plan *plan,
                 const pangraph::AlignmentGraph *product) const
{
    const bio::Score threshold = thresholdFor(problem, cfg);
    // Screens race with the threshold as the kernel horizon (the
    // Section 6 abort counter) unless the config asks for full-race
    // measurement.  Engine-wide thresholds keep racing to
    // completion: their contract reports the exact score even when
    // rejected.
    const sim::Tick horizon =
        screens(problem) && cfg.earlyTerminate &&
                threshold != bio::kScoreInfinity
            ? static_cast<sim::Tick>(threshold)
            : sim::kTickInfinity;

    RaceResult result;
    result.kind = problem.kind;
    result.backend = cfg.backend;
    switch (problem.kind) {
    case ProblemKind::PairwiseAlignment:
    case ProblemKind::GeneralizedAlignment:
    case ProblemKind::ThresholdScreen: {
        const bio::Sequence &a = *problem.a;
        const bio::Sequence &b = *problem.b;
        // align() races on this thread's registered kernel scratch,
        // so batch loops (and every serial solve) reuse one set of
        // weight rows instead of allocating them per comparison.
        core::RaceGridResult raced = plan->behavioral->align(
            a, b, horizon, problem.cancel, problem.counters);
        result.nodes = (plan->rows + 1) * (plan->cols + 1);
        result.completed = raced.completed;
        result.cancelled = raced.cancelled;
        result.racedCost = raced.score;
        result.latencyCycles = raced.latencyCycles;
        result.events = raced.events;
        result.cellsFired = raced.cellsFired;
        result.arrival = std::move(raced.arrival);
        if (raced.completed)
            result.score = plan->conversion
                               ? plan->conversion->recoverScore(
                                     raced.score, a.size(), b.size())
                               : raced.score;
        break;
    }
    case ProblemKind::GraphAlign: {
        // The fused kernel never materializes a product DAG; only
        // GateLevel passes in the product it also synthesizes.
        const pangraph::GraphAligner &aligner = *plan->graphAligner;
        pangraph::GraphRaceResult raced =
            product ? aligner.align(*product, horizon)
                    : aligner.align(*problem.a, horizon, problem.cancel,
                                    problem.counters);
        result.nodes = raced.nodes;
        result.completed = raced.completed;
        result.cancelled = raced.cancelled;
        result.racedCost = raced.racedCost;
        result.latencyCycles = raced.latencyCycles;
        result.events = raced.events;
        result.cellsFired = raced.cellsFired;
        result.nodeArrival = std::move(raced.arrival);
        result.score = raced.score;
        break;
    }
    case ProblemKind::Dtw:
        // The sink is warp cell (|x|, |y|), DtwGraph::node()'s last.
        shapeRaceOutcome(
            core::sweepDtwLattice(problem.x, problem.y, problem.cancel,
                                  problem.counters),
            static_cast<graph::NodeId>(
                problem.x.size() * problem.y.size() - 1),
            result);
        break;
    case ProblemKind::AffineAlignment:
        // The collector sink follows the three (|a|+1) x (|b|+1)
        // planes.
        shapeRaceOutcome(
            core::sweepAffineLattice(*problem.a, *problem.b,
                                     *problem.matrix, problem.gaps,
                                     problem.cancel, problem.counters),
            static_cast<graph::NodeId>(3 * (problem.a->size() + 1) *
                                       (problem.b->size() + 1)),
            result);
        break;
    case ProblemKind::DagPath:
        shapeRaceOutcome(core::raceDag(*problem.dag, problem.sources,
                                       dagRaceType(problem)),
                         problem.sink, result);
        break;
    }
    // Validated gaps connect every lattice's corners; only a DagPath
    // sink can be unreachable.
    rl_assert(result.completed || result.cancelled ||
                  horizon != sim::kTickInfinity ||
                  problem.kind == ProblemKind::DagPath,
              problemKindName(problem.kind), " race never finished");
    applyVerdict(problem, threshold, result);

    if (cfg.withEstimates) {
        const tech::CellLibrary &lib = *cfg.library;
        HardwareEstimate est;
        est.wallTimeNs =
            static_cast<double>(result.cyclesUsed) * lib.racePeriodNs;
        // On GateLevel the replay prices area/energy from the raced
        // netlist; skip the analytic model then.
        if (plan && plan->hasInventory &&
            cfg.backend != BackendKind::GateLevel) {
            // Eq. 3 with the actual race duration: clock-pin charging
            // of every fabric DFF per cycle, plus the per-comparison
            // data term.
            const double cells =
                static_cast<double>(plan->rows * plan->cols);
            const double dffPerCell = static_cast<double>(
                plan->cellInventory[static_cast<size_t>(
                    circuit::GateType::Dff)]);
            est.areaUm2 =
                tech::generalizedGridArea(lib, plan->costs(), plan->rows,
                                          plan->cols, plan->cellInventory)
                    .totalUm2;
            est.energyJ =
                lib.switchEnergyJ(lib.dffClockCapF) * cells * dffPerCell *
                    static_cast<double>(result.cyclesUsed) +
                cells * lib.raceCellTogglesPerComparison *
                    lib.switchEnergyJ(lib.netCapF);
        }
        result.estimate = est;
    }
    return result;
}

RaceResult
RaceEngine::raceSystolic(const RaceProblem &problem, const Plan &plan) const
{
    const bio::Sequence &a = *problem.a;
    const bio::Sequence &b = *problem.b;
    systolic::SystolicResult raced = plan.array->align(a, b);
    RaceResult result;
    result.kind = problem.kind;
    result.backend = cfg.backend;
    result.racedCost = raced.score;
    result.latencyCycles = raced.cycles;
    result.nodes = raced.peCount;
    // The array cannot abort: it is busy for the full run even when
    // the verdict is negative (the Section 6 contrast).
    result.cyclesUsed = raced.cycles;
    result.accepted = raced.score <= thresholdFor(problem, cfg);
    result.score = plan.conversion ? plan.conversion->recoverScore(
                                         raced.score, a.size(), b.size())
                                   : raced.score;
    if (cfg.withEstimates) {
        const tech::CellLibrary &lib = *cfg.library;
        HardwareEstimate est;
        est.wallTimeNs =
            static_cast<double>(raced.cycles) * lib.systolicPeriodNs;
        est.areaUm2 =
            tech::systolicArea(lib, a.alphabet(), a.size(), b.size())
                .totalUm2;
        est.energyJ =
            tech::systolicEnergyFromResult(lib, raced, a.alphabet())
                .totalJ();
        result.estimate = est;
    }
    return result;
}

void
RaceEngine::replayOnGates(const RaceProblem &problem, Plan *plan,
                          const pangraph::AlignmentGraph *product,
                          RaceResult &result) const
{
    const bio::Score threshold = thresholdFor(problem, cfg);
    // A cancelled race has nothing to replay and stays a typed abort;
    // an unreachable DagPath sink has no budget to run to.
    if (result.cancelled ||
        (!result.completed && threshold == bio::kScoreInfinity))
        return;
    switch (problem.kind) {
    case ProblemKind::PairwiseAlignment:
    case ProblemKind::GeneralizedAlignment:
    case ProblemKind::ThresholdScreen: {
        // The same race on the plan's synthesized fabric.
        plan->fabric->sim().clearActivity();
        core::CircuitRunResult run = plan->fabric->align(
            *problem.a, *problem.b, gateBudget(threshold, result));
        checkGateRun(run.completed, run.score, threshold, result);
        priceFromNetlist(cfg, plan->fabric->netlist(),
                         tech::energyFromActivityJ(
                             *cfg.library, plan->fabric->sim().activity()),
                         result);
        return;
    }
    case ProblemKind::Dtw: {
        apps::DtwGraph lattice = apps::makeDtwGraph(problem.x, problem.y);
        replayDag(lattice.dag, {lattice.source}, lattice.sink,
                  core::RaceType::Or, threshold, cfg, result);
        return;
    }
    case ProblemKind::AffineAlignment: {
        bio::AffineEditGraph lattice = bio::makeAffineEditGraph(
            *problem.a, *problem.b, *problem.matrix, problem.gaps);
        replayDag(lattice.dag, {lattice.source}, lattice.sink,
                  core::RaceType::Or, threshold, cfg, result);
        return;
    }
    case ProblemKind::DagPath:
        replayDag(*problem.dag, problem.sources, problem.sink,
                  dagRaceType(problem), threshold, cfg, result);
        return;
    case ProblemKind::GraphAlign:
        replayDag(product->dag, {product->source}, product->sink,
                  core::RaceType::Or, threshold, cfg, result);
        return;
    }
}

void
RaceEngine::raceBatchGateLevel(
    const std::vector<RaceProblem> &problems,
    const std::vector<std::shared_ptr<Plan>> &plans,
    std::vector<RaceResult> &results)
{
    // Group problem indices by plan (one synthesized fabric per grid
    // shape) and fill each fabric's 64 bit-parallel lanes.  Cancelled
    // lanes have nothing to replay and stay typed aborts.
    struct Chunk {
        const Plan *plan;
        std::vector<size_t> indices;
    };
    std::vector<Chunk> chunks;
    std::unordered_map<const Plan *, size_t> open;
    for (size_t i = 0; i < problems.size(); ++i) {
        if (results[i].cancelled)
            continue;
        const Plan *plan = plans[i].get();
        auto found = open.find(plan);
        if (found != open.end() &&
            chunks[found->second].indices.size() < 64) {
            chunks[found->second].indices.push_back(i);
        } else {
            open[plan] = chunks.size();
            chunks.push_back({plan, {i}});
        }
    }

    auto raceChunk = [&](size_t c) {
        const Chunk &chunk = chunks[c];
        const Plan &plan = *chunk.plan;

        // The shared lock-step budget: the largest per-lane budget
        // (each lane's own Section 6 verdict is checked below).
        std::vector<core::LanePair> lanes;
        lanes.reserve(chunk.indices.size());
        uint64_t budget = 0;
        bool wantCounters = false;
        for (size_t idx : chunk.indices) {
            const RaceProblem &p = problems[idx];
            lanes.push_back({&*p.a, &*p.b});
            budget = std::max(budget,
                              gateBudget(thresholdFor(p, cfg), results[idx]));
            wantCounters = wantCounters || p.counters != nullptr;
        }
        // alignLanes is const and simulates on a private CompiledSim
        // over the plan's shared compile, so chunks race on the pool
        // without touching the fabric's serial-path simulator.
        // Profiling counters describe the one lock-step sweep the
        // whole chunk shares (like the chunk's Activity), so each
        // requesting problem gets the chunk-level merge.
        core::KernelCounters chunkCounters;
        core::LaneBatchResult raced = plan.fabric->alignLanes(
            lanes, budget, wantCounters ? &chunkCounters : nullptr);

        // The lock-step word's Eq. 3 energy, averaged per lane (lanes
        // share one fabric compile and clock).
        const double laneEnergyJ =
            tech::energyFromActivityJ(*cfg.library, raced.activity) /
            static_cast<double>(lanes.size());
        for (size_t k = 0; k < chunk.indices.size(); ++k) {
            const RaceProblem &p = problems[chunk.indices[k]];
            RaceResult &soft = results[chunk.indices[k]];
            const core::CircuitRunResult &run = raced.lanes[k];
            if (p.counters)
                p.counters->merge(chunkCounters);
            checkGateRun(run.completed, run.score, thresholdFor(p, cfg),
                         soft);
            priceFromNetlist(cfg, plan.fabric->netlist(), laneEnergyJ,
                             soft);
        }
    };

    if (batchWorkerCount() > 1 && chunks.size() > 1)
        threadPool().parallelFor(chunks.size(), raceChunk);
    else
        for (size_t c = 0; c < chunks.size(); ++c)
            raceChunk(c);
}

size_t
RaceEngine::batchWorkerCount() const
{
    return cfg.workerThreads == 0 ? util::ThreadPool::defaultThreadCount()
                                  : cfg.workerThreads;
}

util::ThreadPool &
RaceEngine::threadPool()
{
    if (!pool)
        pool = std::make_unique<util::ThreadPool>(batchWorkerCount());
    return *pool;
}

bool
RaceEngine::hasPlanFor(const RaceProblem &problem) const
{
    if (cfg.planCacheCapacity == 0)
        return false;
    return index.find(problem.shapeKey()) != index.end();
}

void
RaceEngine::prepare(const RaceProblem &problem)
{
    rl_assert(planFamilyKind(problem.kind),
              "prepare() plans grid-family and GraphAlign problems; ",
              problemKindName(problem.kind),
              " bakes its instance into the lattice and has no "
              "reusable plan");
    planFor(problem, /*recordHit=*/false);
}

void
RaceEngine::adoptGraphPlan(const RaceProblem &problem,
                           std::shared_ptr<pangraph::GraphAligner> aligner)
{
    rl_assert(problem.kind == ProblemKind::GraphAlign,
              "adoptGraphPlan() seeds GraphAlign shapes only");
    rl_assert(aligner != nullptr, "adoptGraphPlan() needs a plan");
    rl_assert(aligner->graphPtr() == problem.vgraph,
              "the adopted aligner must be planned for the problem's "
              "graph");
    if (cfg.planCacheCapacity == 0)
        return;
    std::string key = problem.shapeKey();
    if (index.find(key) != index.end())
        return;
    auto plan = std::make_shared<Plan>();
    plan->input = *problem.matrix;
    plan->graphAligner = std::move(aligner);
    insertPlan(std::move(key), std::move(plan));
}

BatchOutcome
RaceEngine::solveBatch(const std::vector<RaceProblem> &problems)
{
    {
        std::lock_guard<std::mutex> lock(statsMutex);
        ++statistics.batches;
    }
    BatchOutcome outcome;

    const bool gridFamily =
        !problems.empty() &&
        std::all_of(problems.begin(), problems.end(),
                    [](const RaceProblem &p) {
                        return gridFamilyKind(p.kind);
                    });
    // Grid and graph batches share the acquire-then-race pattern;
    // each problem's plan is cached main-thread state, the race body
    // is const.
    const bool planFamily =
        !problems.empty() &&
        std::all_of(problems.begin(), problems.end(),
                    [](const RaceProblem &p) {
                        return planFamilyKind(p.kind);
                    });
    // GateLevel batches are replayed on the fabric in 64-wide
    // bit-parallel chunks -- worthwhile even on one thread.  (Graph
    // product fabrics are per-read, so they stay on the serial
    // gate-level path below.)
    const bool lanePacked = gridFamily && problems.size() > 1 &&
                            cfg.backend == BackendKind::GateLevel;
    const bool parallel =
        batchWorkerCount() > 1 && problems.size() > 1 && planFamily &&
        (cfg.backend == BackendKind::Behavioral || lanePacked);

    if (parallel || lanePacked) {
        // Acquire every plan serially first -- the plan cache and
        // statistics are main-thread state -- then race on the pool.
        // The race bodies are const and each writes only its own
        // slot, so the results are bit-identical to a serial run
        // regardless of the thread schedule.
        std::vector<std::shared_ptr<Plan>> plans;
        plans.reserve(problems.size());
        for (const RaceProblem &problem : problems)
            plans.push_back(planFor(problem));
        {
            std::lock_guard<std::mutex> lock(statsMutex);
            statistics.solves += problems.size();
        }
        outcome.results.resize(problems.size());
        auto raceOne = [&](size_t i) {
            outcome.results[i] = race(problems[i], plans[i].get());
        };
        if (parallel) {
            {
                std::lock_guard<std::mutex> lock(statsMutex);
                ++statistics.parallelBatches;
            }
            threadPool().parallelFor(problems.size(), raceOne);
        } else {
            for (size_t i = 0; i < problems.size(); ++i)
                raceOne(i);
        }
        if (lanePacked)
            raceBatchGateLevel(problems, plans, outcome.results);
    } else {
        outcome.results.reserve(problems.size());
        for (const RaceProblem &problem : problems)
            outcome.results.push_back(solve(problem));
    }

    if (screeningShaped(problems)) {
        // Model the deployment: dispatch the already-raced workload
        // onto the core::batch pool scheduler.  Feeding the
        // per-result busy cycles (each clamped by its own threshold)
        // avoids racing everything a second time and keeps the
        // schedule verdicts identical to the results by construction.
        core::BatchConfig pool;
        pool.fabricCount = cfg.fabricCount;
        pool.resetCycles = cfg.resetCycles;
        std::vector<core::ScreenedComparison> runs;
        runs.reserve(outcome.results.size());
        for (const RaceResult &r : outcome.results)
            runs.push_back({r.accepted,
                            static_cast<uint64_t>(r.cyclesUsed)});
        outcome.schedule = core::scheduleBatch(pool, runs);
    }
    return outcome;
}

BatchOutcome
RaceEngine::screen(const bio::ScoreMatrix &costs, bio::Score threshold,
                   const bio::Sequence &query,
                   const std::vector<bio::Sequence> &database)
{
    std::vector<RaceProblem> problems;
    problems.reserve(database.size());
    for (const bio::Sequence &candidate : database)
        problems.push_back(RaceProblem::thresholdScreen(
            costs, threshold, query, candidate));
    return solveBatch(problems);
}

pangraph::GraphMapping
RaceEngine::graphMapping(const RaceProblem &problem,
                         const RaceResult &result)
{
    rl_assert(problem.kind == ProblemKind::GraphAlign,
              "graphMapping() reconstructs GraphAlign solves only");
    rl_assert(result.completed && !result.nodeArrival.empty(),
              "graphMapping() needs a completed race with arrival "
              "detail (accepted reads only)");
    // An auxiliary lookup, not a solve: cache hits are not counted,
    // and if the plan was evicted (or caching is off) it is rebuilt
    // transparently -- plansBuilt then reports that honestly.
    std::shared_ptr<Plan> plan = planFor(problem, /*recordHit=*/false);
    const pangraph::GraphAligner &aligner = *plan->graphAligner;
    return pangraph::mappingFromArrival(aligner.compiled(), *problem.a,
                                        aligner.costs(),
                                        result.nodeArrival);
}

BatchOutcome
RaceEngine::mapReads(std::shared_ptr<const pangraph::VariationGraph> graph,
                     const bio::ScoreMatrix &costs, bio::Score threshold,
                     const std::vector<bio::Sequence> &reads)
{
    std::vector<RaceProblem> problems;
    problems.reserve(reads.size());
    for (const bio::Sequence &read : reads)
        problems.push_back(
            RaceProblem::graphAlign(costs, read, graph, threshold));
    return solveBatch(problems);
}

} // namespace racelogic::api
