/**
 * @file
 * RaceEngine: the library's one front door.
 *
 *   Problem -> Plan -> Engine -> Result
 *
 * Describe any supported dynamic program as a RaceProblem, pick a
 * backend and technology in EngineConfig, and solve():
 *
 *   api::RaceEngine engine;
 *   auto result = engine.solve(api::RaceProblem::pairwiseAlignment(
 *       bio::ScoreMatrix::dnaShortestPathInfMismatch(), q, p));
 *   // result.score, result.latencyCycles, result.arrivalTable(), ...
 *
 * Planning is the expensive part of a race -- converting a similarity
 * matrix (Section 5) and, on the gate-level backend, synthesizing a
 * fabric netlist for the problem's grid shape.  The engine keeps a
 * shape-keyed LRU cache of plans: repeated same-shape queries (the
 * database-screening workload of Section 6) skip synthesis entirely,
 * exactly as deployed hardware would reuse its fabric with new
 * strings on the primary inputs.
 *
 * solveBatch() additionally dispatches screening-shaped batches onto
 * the core::batch fabric pool, reporting makespan and utilization of
 * a multi-fabric deployment.
 */

#ifndef RACELOGIC_API_ENGINE_H
#define RACELOGIC_API_ENGINE_H

#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "rl/api/config.h"
#include "rl/api/problem.h"
#include "rl/api/result.h"
#include "rl/core/batch.h"
#include "rl/pangraph/mapping.h"
#include "rl/util/status.h"
#include "rl/util/thread_pool.h"

namespace racelogic::pangraph {
class GraphAligner;
struct AlignmentGraph;
} // namespace racelogic::pangraph

namespace racelogic::api {

/**
 * Counters exposed for tests, benches, and capacity planning.
 *
 * RaceEngine::stats() returns a copy taken under the same mutex the
 * solve paths increment under, so a metrics reader on another thread
 * (the serve daemon's Stats endpoint) always sees a coherent
 * snapshot -- never a torn view where solves has advanced but
 * planCacheHits has not.
 */
struct EngineStats {
    uint64_t solves = 0;        ///< problems solved
    uint64_t plansBuilt = 0;    ///< plans synthesized (cache misses)
    uint64_t planCacheHits = 0; ///< solves that reused a cached plan
    uint64_t batches = 0;       ///< solveBatch calls
    uint64_t parallelBatches = 0; ///< batches raced on the thread pool
};

/** Outcome of one solveBatch call. */
struct BatchOutcome {
    /** Per-problem results, in input order. */
    std::vector<RaceResult> results;

    /**
     * Fabric-pool schedule (makespan, utilization, wall time) from
     * the core::batch dispatcher, fed with the per-result busy
     * cycles.  Present when the batch was screening-shaped: every
     * problem a pairwise alignment or threshold screen over one
     * shared cost matrix and query.
     */
    std::optional<core::BatchReport> schedule;

    /** Problems whose result passed the threshold (or all, if none). */
    size_t acceptedCount() const;

    /** Total fabric-busy cycles (threshold-clamped, Section 6). */
    uint64_t busyCycles() const;

    /**
     * Total cycles had every race run to completion.  Requires
     * EngineConfig::earlyTerminate = false (measurement mode): with
     * early termination on, an aborted race stops at its threshold
     * cycle and the remainder of its full-race latency is unknown --
     * which is the whole point of Section 6 -- so this degenerates to
     * busyCycles().
     */
    uint64_t fullRaceCycles() const;

    /** Early-termination gain: fullRaceCycles / busyCycles. */
    double speedup() const;
};

/**
 * The unified engine over every race-logic workload.
 *
 * One engine instance owns its plan cache and statistics; it is not
 * thread-safe (shard engines per thread, they share nothing).
 */
class RaceEngine
{
  public:
    explicit RaceEngine(EngineConfig config = EngineConfig{});
    ~RaceEngine();

    RaceEngine(const RaceEngine &) = delete;
    RaceEngine &operator=(const RaceEngine &) = delete;

    /** Solve one problem on the configured backend. */
    RaceResult solve(const RaceProblem &problem);

    /**
     * Would solve(problem) succeed?  Shape, resource budgets
     * (EngineConfig::maxProductStates plus the kernels' hard id-space
     * bounds), and runtime-input checks always run; the deep
     * matrix/graph validation (api/validate.h validateProblem()) is
     * skipped when a cached plan for the problem's shape already
     * exists -- that plan's build vetted it.  const and read-only:
     * neither the cache nor the statistics are touched.
     */
    Status validate(const RaceProblem &problem) const;

    /**
     * Fallible solve for untrusted problems: validate(), then
     * solve().  A problem this rejects would have tripped an
     * input-facing rl_fatal/rl_assert inside solve(); the serve
     * layer's one entry point.
     */
    Expected<RaceResult> trySolve(const RaceProblem &problem);

    /**
     * Solve a batch of problems, reusing cached plans across them.
     *
     * On the Behavioral backend, grid-family batches (pairwise /
     * generalized alignment, threshold screens) and graph-align
     * batches (reads against cached pangenome plans) are raced in
     * parallel on the engine's util::ThreadPool
     * (EngineConfig::workerThreads); results come back in input
     * order, bit-identical to a serial run.  Screening-shaped
     * batches are additionally dispatched onto the core::batch
     * fabric pool (fabricCount, resetCycles, threshold from the
     * config) to model a multi-fabric deployment.
     *
     * On the GateLevel backend, grid-family batches are raced
     * behaviorally the same way and then replayed on the synthesized
     * fabric in 64-wide bit-parallel chunks: each cached fabric's
     * compiled netlist hosts up to 64 comparisons per simulation
     * word (lanes grouped per shape, chunks spread across the thread
     * pool), every lane cross-checked against its behavioral result.
     * Estimates on this path price the measured chunk activity:
     * energyJ is the lock-step word's Eq. 3 energy averaged per lane
     * (see docs/api.md).
     */
    BatchOutcome solveBatch(const std::vector<RaceProblem> &problems);

    /**
     * Convenience: screen `database` against `query` over race-ready
     * `costs` with the Section 6 early-termination `threshold`.
     */
    BatchOutcome screen(const bio::ScoreMatrix &costs,
                        bio::Score threshold, const bio::Sequence &query,
                        const std::vector<bio::Sequence> &database);

    /**
     * Convenience: map `reads` against one pangenome over race-ready
     * `costs`.  A finite `threshold` aborts each race at that cycle
     * (Section 6 read-mapping screen); all reads share one cached
     * graph plan and, on the Behavioral backend, race in parallel on
     * the thread pool with results bit-identical to a serial run.
     */
    BatchOutcome mapReads(
        std::shared_ptr<const pangraph::VariationGraph> graph,
        const bio::ScoreMatrix &costs, bio::Score threshold,
        const std::vector<bio::Sequence> &reads);

    /**
     * Reconstruct the (walk, CIGAR) mapping of a completed
     * GraphAlign solve from the arrival times already raced -- no
     * re-race; the traceback walks the cached plan's compiled view
     * (rebuilt transparently if the plan was evicted or caching is
     * disabled).  Plan-cache statistics are not perturbed.
     * `problem` must be the GraphAlign problem that produced
     * `result` (accepted, so its sink fired).
     */
    pangraph::GraphMapping graphMapping(const RaceProblem &problem,
                                        const RaceResult &result);

    const EngineConfig &config() const { return cfg; }

    /**
     * Coherent snapshot of the counters: copied under the solve-path
     * mutex, so it is safe to call from a thread that does not own
     * the engine (every other member is owner-thread-only).
     */
    EngineStats stats() const;

    /**
     * True iff a plan for this problem's shape key is currently
     * cached.  Never mutates the cache or the statistics -- the
     * serve layer uses it to decide whether a solve will hit
     * shard-locally or must fall back to the shared build lock.
     */
    bool hasPlanFor(const RaceProblem &problem) const;

    /**
     * Build (or touch) the cached plan for a plan-family problem
     * (grid family or GraphAlign) without solving it.  A miss counts
     * plansBuilt; a hit counts nothing.  The serve layer calls this
     * under its shared build lock so concurrent shards never
     * synthesize expensive plans at the same time.
     */
    void prepare(const RaceProblem &problem);

    /**
     * Seed the cache with an externally compiled GraphAlign plan for
     * `problem`'s shape, so the first post-reload solve hits instead
     * of re-synthesizing what the reload's validation compile already
     * built.  `aligner` must be the planned form of (problem.vgraph,
     * problem.matrix) -- the serve reload path's tryMake() output.
     * A no-op when the shape is already cached (the resident plan and
     * its LRU position win) or when plan caching is disabled.
     * Counts neither plansBuilt (this engine synthesized nothing) nor
     * planCacheHits; cacheBytes grows as on any insert.
     */
    void adoptGraphPlan(const RaceProblem &problem,
                        std::shared_ptr<pangraph::GraphAligner> aligner);

    /** Plans currently held in the cache. */
    size_t planCacheSize() const { return lru.size(); }

    /**
     * Approximate resident heap bytes of the cached plans, maintained
     * on every insert and evict.  Like stats(), readable from a
     * thread that does not own the engine (same mutex) -- the serve
     * layer's memory budget sums this across shards.
     */
    size_t planCacheBytes() const;

    /**
     * Evict the least-recently-used plan; returns approximate bytes
     * freed (0 when the cache is empty).  The serve layer's brownout
     * reclaim calls this until back under its low watermark.
     */
    size_t evictLruPlan();

    /**
     * Evict every graph-keyed (GraphAlign) plan; returns approximate
     * bytes freed.  A hot graph reload makes the old graph's plans
     * permanently unreachable (the new fingerprint never matches
     * their keys), so the reload path drops them eagerly instead of
     * waiting for LRU churn -- grid-family plans are untouched.
     */
    size_t evictGraphPlans();

    /** Drop every cached plan (statistics are preserved). */
    void clearPlanCache();

  private:
    struct Plan;

    /**
     * Fetch or build the plan for a grid-family or graph problem.
     * `recordHit` = false skips the planCacheHits counter: auxiliary
     * lookups (graphMapping traceback) must not inflate the solve
     * statistics.
     */
    std::shared_ptr<Plan> planFor(const RaceProblem &problem,
                                  bool recordHit = true);
    std::shared_ptr<Plan> buildPlan(const RaceProblem &problem);

    /** Cache `plan` under `key`, then trim the LRU to capacity. */
    void insertPlan(std::string key, std::shared_ptr<Plan> plan);

    /**
     * The behavioral race of one problem, shaped into its verdict and
     * estimate: the one race every backend but Systolic runs first.
     * `plan` is the acquired plan (null for kinds without one).
     * const, racing on per-thread kernel scratch: this is also the
     * body solveBatch runs concurrently on the thread pool.
     * `product` races GraphAlign on an already-built product DAG
     * (GateLevel builds it once for the race and for synthesis);
     * null races the fused kernel.
     */
    RaceResult race(const RaceProblem &problem, const Plan *plan,
                    const pangraph::AlignmentGraph *product = nullptr) const;

    /** The Systolic backend's race of a pairwise grid or screen. */
    RaceResult raceSystolic(const RaceProblem &problem,
                            const Plan &plan) const;

    /**
     * The GateLevel half of a solve: replay the raced `result` on
     * gates -- the plan's synthesized fabric for the grid family, a
     * compiled DAG for every other kind -- cross-check the sink and
     * price the estimate from the netlist.  Cancelled results are
     * left as typed aborts.
     */
    void replayOnGates(const RaceProblem &problem, Plan *plan,
                       const pangraph::AlignmentGraph *product,
                       RaceResult &result) const;

    /**
     * Replay an already-raced grid-family batch on the synthesized
     * fabrics, 64 lanes per chunk, cross-checking and (optionally)
     * pricing each result from the measured chunk activity.
     */
    void raceBatchGateLevel(
        const std::vector<RaceProblem> &problems,
        const std::vector<std::shared_ptr<Plan>> &plans,
        std::vector<RaceResult> &results);

    /** Worker threads solveBatch may use (resolves the 0 default). */
    size_t batchWorkerCount() const;

    /** The lazily created batch pool (never on the serial path). */
    util::ThreadPool &threadPool();

    EngineConfig cfg;

    /** Counters + their snapshot mutex (see stats()).  cacheBytes
     *  rides under the same mutex so planCacheBytes() is readable
     *  cross-thread like stats(). */
    EngineStats statistics;
    size_t cacheBytes = 0;
    mutable std::mutex statsMutex;

    std::unique_ptr<util::ThreadPool> pool;

    /** LRU plan cache: most recently used at the front. */
    using LruEntry = std::pair<std::string, std::shared_ptr<Plan>>;
    std::list<LruEntry> lru;
    std::unordered_map<std::string, std::list<LruEntry>::iterator> index;
};

} // namespace racelogic::api

#endif // RACELOGIC_API_ENGINE_H
