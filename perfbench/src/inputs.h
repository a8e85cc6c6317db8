/**
 * @file
 * Workload definitions and seeded input generation.
 *
 * Everything a run sends is a pure function of (workload, seed): the
 * pangenome, the request pool, each pool entry's expected answer
 * from the in-repo DP oracles, and the arrival stream that picks pool
 * entries at Poisson-distributed due times.  The program under test
 * only ever sees the generated inputs.
 *
 * The offered rates of the serve workloads are fixed here, once, as
 * shares of the saturation throughput measured on the reference host
 * (see perfbench/README.md); they are deliberately not re-derived per
 * run, so a faster daemon shows up as lower latency at the same load.
 */

#ifndef PERFBENCH_INPUTS_H
#define PERFBENCH_INPUTS_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "rl/apps/dtw.h"
#include "rl/bio/score_matrix.h"
#include "rl/bio/sequence.h"
#include "rl/pangraph/variation_graph.h"
#include "rl/serve/wire.h"
#include "rl/util/random.h"

namespace perfbench {

namespace rl = racelogic;

/** The request kinds the serve workloads send. */
enum class Kind : uint8_t {
    Pairwise,
    Screen,
    Dtw,
    Affine,
    GraphAlign,
    MapReads,
};

/** One problem's expected outcome. */
struct Answer {
    int64_t score = 0; ///< DP optimum (checked only when accepted)
    bool accepted = true;
};

/** One request of a pool, with its oracle answers. */
struct Item {
    Kind kind = Kind::Pairwise;
    std::string a, b;                  ///< Pairwise/Screen/Affine pair
    std::vector<rl::apps::Sample> x, y; ///< Dtw signals
    std::vector<std::string> reads;    ///< GraphAlign (one) / MapReads
    rl::bio::Score threshold = rl::bio::kScoreInfinity;
    std::vector<Answer> answers; ///< one per problem, after computeAnswers

    /** Problems this request asks the daemon to solve. */
    size_t
    problems() const
    {
        return kind == Kind::MapReads ? reads.size() : 1;
    }
};

/** Gap costs every Affine request carries (the wire defaults). */
constexpr rl::bio::Score kAffineOpen = 2;
constexpr rl::bio::Score kAffineExtend = 1;

/** The race-ready matrix of every request and of the daemon's graph. */
const rl::bio::ScoreMatrix &costs();

/** Fixed load and limits of one serve workload. */
struct ServeSpec {
    const char *name;
    double rateLo;        ///< offered req/s (see kServeSpecs)
    double rateHi;        ///< offered req/s, about twice rateLo
    size_t window;        ///< closed-loop outstanding requests
    double limitMs;       ///< goodput latency limit
    bool reloadPerPhase;  ///< one SIGHUP of the same GFA per phase
};

/** The spec for a serve workload name; nullptr if not a serve one. */
const ServeSpec *serveSpec(const std::string &workload);

/** A serve workload's generated pangenome and request pool. */
struct ServeInputs {
    std::shared_ptr<const rl::pangraph::VariationGraph> graph;
    std::string gfa; ///< the graph as GFA text, for the daemon
    std::vector<Item> pool;
};

/** Generate a serve workload's inputs (answers not yet computed). */
ServeInputs makeServeInputs(const ServeSpec &spec, uint64_t seed);

/** Fill every pool item's answers from the DP oracles. */
void computeAnswers(ServeInputs &inputs);

/** The framed request bytes for `item` under wire id `id`. */
std::vector<uint8_t> encodeFrame(const Item &item, uint32_t id);

/** How one response compares with the oracle. */
enum class Verdict { Correct, Failed, Wrong };

/**
 * Failed: the daemon refused or did not solve (non-Ok status).
 * Wrong: an Ok response whose answer differs from the oracle.
 */
Verdict check(const Item &item, const rl::serve::Response &response);

/**
 * Pool entries in seeded, shuffled passes over the whole pool: a phase
 * that draws n entries sends each one n / pool times, give or take
 * one, so its mix of work does not swing with the seed the way
 * independent draws would.  A phase keeps one bag across its rounds.
 */
class ItemBag
{
  public:
    ItemBag(uint64_t seed, size_t poolSize);

    uint32_t next();

  private:
    rl::util::Rng rng;
    std::vector<uint32_t> order;
    size_t at = 0;
};

/** Poisson arrivals: due offsets and the pool entry each one sends. */
struct Stream {
    std::vector<int64_t> dueNs;
    std::vector<uint32_t> item;
};

/**
 * Arrivals at `rate` per second over `seconds`, due times from
 * `seed`, pool entries from `bag`.
 */
Stream poissonStream(uint64_t seed, double rate, double seconds,
                     ItemBag &bag);

/** The screen_db workload: one query against a database. */
struct ScreenInputs {
    rl::bio::Sequence query;
    std::vector<rl::bio::Sequence> database;
    rl::bio::Score threshold = 0;
    std::vector<Answer> answers; ///< per candidate, after screenAnswers
};

/** Fixed load and limits of screen_db; a call screens one candidate. */
struct ScreenSpec {
    double rateLo;  ///< offered calls/s (see kScreenSpec)
    double rateHi;  ///< offered calls/s, twice rateLo
    double limitMs; ///< goodput latency limit per call
};

const ScreenSpec &screenSpec();

ScreenInputs makeScreenInputs(uint64_t seed);

/** Fill the per-candidate answers from bio::globalScore. */
void screenAnswers(ScreenInputs &inputs);

} // namespace perfbench

#endif // PERFBENCH_INPUTS_H
