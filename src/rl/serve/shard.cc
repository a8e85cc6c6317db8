#include "rl/serve/shard.h"

#include <functional>
#include <string>

#include "rl/util/logging.h"

namespace racelogic::serve {

namespace {

/** Kinds with a reusable cached plan (grid family + GraphAlign). */
bool
planFamilyKind(api::ProblemKind kind)
{
    return kind == api::ProblemKind::PairwiseAlignment ||
           kind == api::ProblemKind::GeneralizedAlignment ||
           kind == api::ProblemKind::ThresholdScreen ||
           kind == api::ProblemKind::GraphAlign;
}

} // namespace

EngineShards::EngineShards(size_t shardCount,
                           const api::EngineConfig &config)
{
    rl_assert(shardCount > 0, "at least one engine shard is required");
    api::EngineConfig shardConfig = config;
    // Each shard solves serially on its own lane thread; parallelism
    // comes from sharding, and a nested per-shard pool would
    // oversubscribe the host.
    shardConfig.workerThreads = 1;
    shards.reserve(shardCount);
    for (size_t i = 0; i < shardCount; ++i)
        shards.push_back(std::make_unique<Shard>(shardConfig));
}

size_t
EngineShards::shardFor(const api::RaceProblem &problem) const
{
    // Route by plan key: same fabric shape -> same shard, so a warm
    // shape is always a shard-local hit.  Per-instance kinds spread
    // by their content hash, which is as good as round-robin.
    return std::hash<std::string>{}(problem.shapeKey()) % shards.size();
}

api::RaceResult
EngineShards::solveOn(size_t shard, const api::RaceProblem &problem)
{
    rl_assert(shard < shards.size(), "shard index out of range");
    Shard &s = *shards[shard];
    // Uncontended on the hot path (only the shard's lane thread
    // solves on it); keeps reload eviction and brownout reclaim
    // off a live solve's plan cache.
    std::lock_guard<std::mutex> engineLock(s.engineMutex);

    if (planFamilyKind(problem.kind)) {
        if (s.engine.hasPlanFor(problem)) {
            // The hot path: shard-local plan hit.  No shared state
            // is touched between here and the race.
            std::lock_guard<std::mutex> lock(s.countersMutex);
            ++s.counters.shardHits;
        } else {
            // Miss: synthesize under the daemon-wide build lock so
            // concurrent shards never run expensive plan builds at
            // the same time.  The lock covers planning only -- the
            // race below runs unlocked.
            std::lock_guard<std::mutex> build(buildMutex);
            {
                std::lock_guard<std::mutex> lock(s.countersMutex);
                ++s.counters.buildLocks;
            }
            s.engine.prepare(problem);
        }
    }
    // Per-instance kinds (DTW / affine / DAG path) bake the problem
    // into their lattice inside solve(); they have no shared cache to
    // protect, so they take neither counter nor lock.
    return s.engine.solve(problem);
}

Expected<api::RaceResult>
EngineShards::trySolveOn(size_t shard, const api::RaceProblem &problem)
{
    rl_assert(shard < shards.size(), "shard index out of range");
    Shard &s = *shards[shard];
    std::lock_guard<std::mutex> engineLock(s.engineMutex);

    if (planFamilyKind(problem.kind)) {
        if (s.engine.hasPlanFor(problem)) {
            // Hot path: the cached plan vetted the deep half, so
            // validate() runs only budgets + runtime inputs here.
            if (racelogic::Status v = s.engine.validate(problem); !v.ok())
                return v;
            std::lock_guard<std::mutex> lock(s.countersMutex);
            ++s.counters.shardHits;
        } else {
            // Validate *before* prepare, under the build lock: a
            // rejected problem must never reach plan synthesis (the
            // expensive, fatal-on-bad-input step).
            std::lock_guard<std::mutex> build(buildMutex);
            if (racelogic::Status v = s.engine.validate(problem); !v.ok())
                return v;
            {
                std::lock_guard<std::mutex> lock(s.countersMutex);
                ++s.counters.buildLocks;
            }
            s.engine.prepare(problem);
        }
    } else {
        if (racelogic::Status v = s.engine.validate(problem); !v.ok())
            return v;
    }
    return s.engine.solve(problem);
}

uint64_t
EngineShards::setGraph(
    std::shared_ptr<const pangraph::VariationGraph> graph,
    std::shared_ptr<const bio::ScoreMatrix> matrix,
    std::shared_ptr<pangraph::GraphAligner> precompiled)
{
    rl_assert(graph != nullptr, "setGraph() needs a graph");
    rl_assert(matrix != nullptr, "a pangenome needs its score matrix");
    // The shape every request against the new graph will carry; built
    // before the pointers move into the registry.  Routes the warm
    // seed to the same shard those requests will hash to.
    std::optional<api::RaceProblem> seed;
    size_t seedShard = 0;
    if (precompiled) {
        rl_assert(precompiled->graphPtr() == graph,
                  "the precompiled aligner must plan the graph being "
                  "installed");
        seed = api::RaceProblem::graphAlign(
            *matrix, bio::Sequence(graph->alphabet(), ""), graph);
        seedShard = shardFor(*seed);
    }
    uint64_t version;
    {
        std::lock_guard<std::mutex> lock(registryMutex);
        registry.graph = std::move(graph);
        registry.matrix = std::move(matrix);
        version = ++registry.version;
    }
    // The old graph's plans are unreachable now (their keys embed the
    // old fingerprint); drop them instead of waiting for LRU churn.
    // Grid-family plans survive untouched.
    //
    // Deliberately NOT under buildMutex: the solve paths lock
    // engineMutex then buildMutex on a plan miss, so holding
    // buildMutex while acquiring engineMutex here would be the ABBA
    // half of a deadlock against any concurrent miss.  Per-shard
    // engineMutex alone is enough -- it excludes that shard's builds.
    // A solve that snapshotted the old graph and builds concurrently
    // can at worst re-insert one old-fingerprint plan after its
    // shard's eviction ran; new requests can never hit it (their keys
    // embed the new fingerprint) and LRU/brownout churn reclaims it.
    for (size_t i = 0; i < shards.size(); ++i) {
        Shard &s = *shards[i];
        std::lock_guard<std::mutex> engineLock(s.engineMutex);
        s.engine.evictGraphPlans();
        if (seed && i == seedShard)
            s.engine.adoptGraphPlan(*seed, precompiled);
    }
    return version;
}

GraphSnapshot
EngineShards::graphSnapshot() const
{
    std::lock_guard<std::mutex> lock(registryMutex);
    return registry;
}

uint64_t
EngineShards::graphVersion() const
{
    std::lock_guard<std::mutex> lock(registryMutex);
    return registry.version;
}

size_t
EngineShards::planCacheBytesTotal() const
{
    size_t total = 0;
    for (const auto &shardPtr : shards)
        total += shardPtr->engine.planCacheBytes();
    return total;
}

size_t
EngineShards::evictPlans(size_t bytesToReclaim)
{
    size_t freed = 0;
    bool progress = true;
    while (freed < bytesToReclaim && progress) {
        progress = false;
        for (auto &shardPtr : shards) {
            std::lock_guard<std::mutex> engineLock(shardPtr->engineMutex);
            const size_t got = shardPtr->engine.evictLruPlan();
            if (got > 0)
                progress = true;
            freed += got;
            if (freed >= bytesToReclaim)
                break;
        }
    }
    return freed;
}

std::vector<ShardStatsWire>
EngineShards::statsSnapshot() const
{
    std::vector<ShardStatsWire> out;
    out.reserve(shards.size());
    for (const auto &shardPtr : shards) {
        const Shard &s = *shardPtr;
        ShardStatsWire w;
        const api::EngineStats engine = s.engine.stats();
        w.solves = engine.solves;
        w.plansBuilt = engine.plansBuilt;
        w.planCacheHits = engine.planCacheHits;
        {
            std::lock_guard<std::mutex> lock(s.countersMutex);
            w.shardHits = s.counters.shardHits;
            w.buildLocks = s.counters.buildLocks;
        }
        out.push_back(w);
    }
    return out;
}

} // namespace racelogic::serve
