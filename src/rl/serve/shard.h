/**
 * @file
 * Sharded plan caches: one RaceEngine per shard, one thread per shard.
 *
 * The api::RaceEngine's plan cache is deliberately single-threaded --
 * fast, no locks, owner-thread-only.  A serving daemon wants many
 * threads without putting a global lock on plan acquisition, so the
 * serve layer shards: W independent engines, each with its own
 * shape-keyed LRU and its own long-lived lane thread (the only
 * thread that ever solves on it), and requests routed by hashing the
 * *plan key* (shapeKey), so every request for the same fabric shape
 * lands on the same shard and its plan-cache hit is entirely
 * shard-local -- no shared state touched at all on the hot path.
 *
 * Only a plan-cache *miss* (a shape this shard has never planned, or
 * a per-instance kind like DTW/affine that has no reusable plan)
 * falls back to the daemon-wide build lock, which serializes
 * expensive plan synthesis across shards.  Per-shard counters
 * (shardHits / buildLocks) make the claim checkable from the metrics
 * endpoint: after warmup, a steady same-shape workload must advance
 * shardHits only.
 */

#ifndef RACELOGIC_SERVE_SHARD_H
#define RACELOGIC_SERVE_SHARD_H

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "rl/api/api.h"
#include "rl/pangraph/graph_aligner.h"
#include "rl/pangraph/variation_graph.h"
#include "rl/serve/wire.h"

namespace racelogic::serve {

/** Serve-level counters for one shard (engine stats ride separately). */
struct ShardCounters {
    uint64_t shardHits = 0;  ///< solves that found the plan shard-local
    uint64_t buildLocks = 0; ///< solves that took the shared build lock
};

/**
 * One coherent view of the daemon's preloaded pangenome.
 *
 * Requests copy a snapshot at admission; the shared_ptr pins the
 * graph for as long as any queued or in-flight solve still references
 * it, so a hot reload can swap the registry without ever yanking a
 * graph out from under a race.  `version` increments on every
 * successful swap (Health reports it, so an operator can confirm a
 * reload actually landed).
 */
struct GraphSnapshot {
    std::shared_ptr<const pangraph::VariationGraph> graph;
    std::shared_ptr<const bio::ScoreMatrix> matrix;
    uint64_t version = 0;
};

/**
 * W sharded engines behind one facade.
 *
 * Thread contract: solveOn(shard, ...) may be called concurrently
 * for *different* shards but never concurrently for the same shard.
 * The daemon meets it by construction: each shard's jobs run only on
 * that shard's own lane thread (rl/serve/queue.h), so an engine and
 * its kernel scratch never change threads.  statsSnapshot() is safe
 * from any thread.
 */
class EngineShards
{
  public:
    EngineShards(size_t shardCount, const api::EngineConfig &config);

    size_t shardCount() const { return shards.size(); }

    /** The shard a problem routes to: hash(shapeKey) mod W. */
    size_t shardFor(const api::RaceProblem &problem) const;

    /**
     * Solve on one shard with hit/miss accounting: a shard-local
     * plan hit races immediately (no shared state); anything else
     * builds under the daemon-wide build lock first.
     */
    api::RaceResult solveOn(size_t shard,
                            const api::RaceProblem &problem);

    /**
     * Fallible solveOn(): the shard engine's validate() runs before
     * any plan is built -- a rejected problem takes neither the
     * build lock's synthesis nor the race, and the typed Status maps
     * mechanically onto the wire (wireErrorForCode /
     * statusForCode).  Same thread contract as solveOn().
     */
    Expected<api::RaceResult> trySolveOn(size_t shard,
                                         const api::RaceProblem &problem);

    /** Coherent per-shard counter snapshot (wire layout). */
    std::vector<ShardStatsWire> statsSnapshot() const;

    /**
     * Install (or hot-swap) the preloaded pangenome: swap the
     * versioned registry, then evict every graph-keyed plan shard by
     * shard under that shard's engine mutex only -- the new
     * fingerprint can never hit them, so they are dead weight the
     * moment the version bumps.  In-flight solves keep racing their
     * admission-time snapshot (the shared_ptr pins it).
     *
     * Lock discipline: the solve paths take engineMutex then
     * buildMutex (on a plan miss), so this method must NEVER reach
     * for an engineMutex while holding buildMutex -- that ABBA order
     * wedged a reload against a plan-miss solve.  It has no need to:
     * each shard's engineMutex already excludes that shard's plan
     * builds.
     *
     * `precompiled` (optional) is the new graph's already-planned
     * aligner -- the reload path's validation compile -- adopted into
     * the shard the new shape routes to, so the first post-swap
     * GraphAlign hits warm instead of re-synthesizing the plan under
     * the daemon-wide build lock.  Returns the new version.
     */
    uint64_t
    setGraph(std::shared_ptr<const pangraph::VariationGraph> graph,
             std::shared_ptr<const bio::ScoreMatrix> matrix,
             std::shared_ptr<pangraph::GraphAligner> precompiled = nullptr);

    /** Copy the current graph snapshot (safe from any thread). */
    GraphSnapshot graphSnapshot() const;

    /** The current graph version (0 = never installed). */
    uint64_t graphVersion() const;

    /**
     * Approximate resident bytes across every shard's plan cache
     * (safe from any thread; feeds the daemon memory budget).
     */
    size_t planCacheBytesTotal() const;

    /**
     * Evict least-recently-used plans round-robin across shards until
     * roughly `bytesToReclaim` bytes are freed or every cache is
     * empty.  Returns bytes actually freed.  Safe from the janitor
     * thread: each eviction holds that shard's engine mutex.
     */
    size_t evictPlans(size_t bytesToReclaim);

  private:
    struct Shard {
        explicit Shard(const api::EngineConfig &config)
            : engine(config)
        {
        }

        api::RaceEngine engine;
        ShardCounters counters;
        mutable std::mutex countersMutex;

        /**
         * Serializes engine access between the lane thread's solve
         * path and control-plane work (reload eviction, brownout
         * reclaim).  Uncontended on the hot path -- only the lane
         * thread ever solves on this shard.
         */
        std::mutex engineMutex;
    };

    std::vector<std::unique_ptr<Shard>> shards;

    /** Serializes plan synthesis across shards (misses only). */
    std::mutex buildMutex;

    /** The versioned graph registry (hot reload swaps it). */
    GraphSnapshot registry;
    mutable std::mutex registryMutex;
};

} // namespace racelogic::serve

#endif // RACELOGIC_SERVE_SHARD_H
