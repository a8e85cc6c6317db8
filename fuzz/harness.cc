#include "fuzz/harness.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "rl/api/api.h"
#include "rl/bio/align_dp.h"
#include "rl/bio/edit_graph.h"
#include "rl/bio/fasta.h"
#include "rl/core/kernel_counters.h"
#include "rl/core/race_grid.h"
#include "rl/core/race_network.h"
#include "rl/pangraph/alignment_graph.h"
#include "rl/pangraph/gfa.h"
#include "rl/serve/wire.h"

namespace racelogic::fuzz {

namespace {

[[noreturn]] void
violated(const char *property, const std::string &detail)
{
    std::fprintf(stderr, "fuzz harness: %s violated: %s\n", property,
                 detail.c_str());
    std::abort();
}

/** The preloaded pangenome a fuzzed daemon would serve: a SNP bubble
 *  plus an insertion bubble, with the Fig. 2b race-ready matrix. */
struct GraphContext {
    std::shared_ptr<const pangraph::VariationGraph> graph;
    bio::ScoreMatrix matrix;
};

const GraphContext &
graphContext()
{
    static const GraphContext ctx = [] {
        auto g = std::make_shared<pangraph::VariationGraph>(
            bio::Alphabet::dna());
        const bio::Alphabet &dna = bio::Alphabet::dna();
        auto seg = [&](const char *name, const char *label) {
            return g->addSegment(name, bio::Sequence(dna, label));
        };
        auto s1 = seg("s1", "ACTGA");
        auto sA = seg("snpA", "C");
        auto sB = seg("snpB", "G");
        auto s2 = seg("s2", "TT");
        auto ins = seg("ins", "AC");
        auto s3 = seg("s3", "GATT");
        g->addLink(s1, sA);
        g->addLink(s1, sB);
        g->addLink(sA, s2);
        g->addLink(sB, s2);
        g->addLink(s2, ins);
        g->addLink(s2, s3);
        g->addLink(ins, s3);
        return GraphContext{std::move(g),
                            bio::ScoreMatrix::dnaShortestPath()};
    }();
    return ctx;
}

/** Bytes consumed front to back; past the end every read is 0. */
class ByteReader
{
  public:
    ByteReader(const uint8_t *data, size_t size) : at(data), end(data + size)
    {
    }

    uint8_t
    byte()
    {
        return at < end ? *at++ : 0;
    }

    uint32_t
    u24()
    {
        const uint32_t lo = byte(), mid = byte(), hi = byte();
        return lo | mid << 8 | hi << 16;
    }

  private:
    const uint8_t *at;
    const uint8_t *end;
};

/** A finite weight in [1, 2^20]: mostly small, sometimes large. */
bio::Score
decodeWeight(ByteReader &in)
{
    const uint8_t code = in.byte();
    if (code >= 0xE0)
        return 1 + static_cast<bio::Score>(in.u24() % (1u << 20));
    return 1 + code % 16;
}

/** Abort unless `a` and `b`, two runs of the same race, agree. */
void
expectSameRace(const core::RaceGridResult &a, const core::RaceGridResult &b,
               const char *what)
{
    if (a.score != b.score || a.completed != b.completed ||
        a.cancelled != b.cancelled || a.latencyCycles != b.latencyCycles ||
        a.events != b.events || a.cellsFired != b.cellsFired ||
        !(a.arrival == b.arrival))
        violated(what, "a result field differs");
}

} // namespace

int
gfaInput(const uint8_t *data, size_t size)
{
    std::istringstream in(
        std::string(reinterpret_cast<const char *>(data), size));
    auto graph = pangraph::tryReadGfa(in, bio::Alphabet::dna());
    if (!graph.ok())
        return 0;
    // Parser promise: an accepted graph is valid (non-empty, acyclic,
    // sourced and sinked) ...
    if (racelogic::Status valid = graph.value().checkValid();
        !valid.ok())
        violated("tryReadGfa acceptance", valid.message());
    // ... and compiles against a race-ready matrix of its alphabet
    // without tripping any plan-time fatal.
    auto compiled = pangraph::tryCompileGraph(
        graph.value(), bio::ScoreMatrix::dnaShortestPath());
    if (!compiled.ok())
        violated("tryCompileGraph on an accepted GFA",
                 compiled.status().message());
    return 0;
}

int
fastaInput(const uint8_t *data, size_t size)
{
    bio::FastaLimits limits;
    limits.maxSequenceLength = serve::kMaxWireSequence;
    auto records = bio::tryReadFasta(
        std::string(reinterpret_cast<const char *>(data), size),
        bio::Alphabet::dna(), limits);
    if (!records.ok())
        return 0;
    // Parser promise: no accepted record is empty (the reader calls
    // such files corrupted, so it must never hand one back).
    for (const bio::FastaRecord &record : records.value())
        if (record.sequence.empty())
            violated("tryReadFasta acceptance",
                     "empty record '" + record.description + "'");
    return 0;
}

int
wireInput(const uint8_t *data, size_t size)
{
    const GraphContext &ctx = graphContext();
    std::vector<uint8_t> payload(data, data + size);

    serve::Request request;
    const serve::WireError error =
        serve::decodeRequest(payload, ctx.graph->alphabet(), request);

    // Response decode must be total for any bytes too; a daemon's
    // reply stream is attacker-observable, a client's parser of it
    // must not be attacker-crashable.
    serve::Response response;
    (void)serve::decodeResponse(payload, response);

    if (error != serve::WireError::None)
        return 0;

    // Mirror AlignServer::handleRequest's problem construction, then
    // hold decode to its promise: everything it accepts passes the
    // library's own full validation (no fatal is reachable past this
    // point on the serving path).
    std::vector<api::RaceProblem> problems;
    switch (request.tag) {
    case serve::RequestTag::Pairwise:
        problems.push_back(api::RaceProblem::pairwiseAlignment(
            *request.matrix, *request.a, *request.b));
        break;
    case serve::RequestTag::Affine:
        problems.push_back(api::RaceProblem::affineAlignment(
            *request.matrix,
            bio::AffineGapCosts{request.open, request.extend},
            *request.a, *request.b));
        break;
    case serve::RequestTag::Screen:
        problems.push_back(api::RaceProblem::thresholdScreen(
            *request.matrix, request.threshold, *request.a,
            *request.b));
        break;
    case serve::RequestTag::Dtw:
        problems.push_back(api::RaceProblem::dtw(
            std::move(request.x), std::move(request.y)));
        break;
    case serve::RequestTag::GraphAlign:
        problems.push_back(api::RaceProblem::graphAlign(
            ctx.matrix, *request.read, ctx.graph, request.threshold));
        break;
    case serve::RequestTag::MapReads:
        for (bio::Sequence &read : request.reads)
            problems.push_back(api::RaceProblem::graphAlign(
                ctx.matrix, std::move(read), ctx.graph,
                request.threshold));
        break;
    case serve::RequestTag::Stats:
    case serve::RequestTag::Ping:
    case serve::RequestTag::Metrics:
        return 0;
    }

    for (const api::RaceProblem &problem : problems) {
        if (racelogic::Status deep = api::validateProblem(problem);
            !deep.ok())
            violated("decode-accepted => validateProblem Ok",
                     deep.message());
        // The budget path must stay a typed verdict, never an abort,
        // whatever the sizes involved.
        api::ProblemLimits limits;
        limits.maxGridCells = 1u << 16;
        limits.maxProductStates = 1u << 16;
        (void)api::checkBudgets(problem, limits);
    }
    return 0;
}

int
kernelInput(const uint8_t *data, size_t size)
{
    ByteReader in(data, size);
    const size_t k = 2 + in.byte() % 4;
    const bio::Alphabet alphabet(std::string("ACGTU").substr(0, k));

    // Gaps stay finite so the sink is always reachable; a pair byte
    // of 0xF8 and up forbids that substitution.
    bio::ScoreMatrix costs(alphabet, bio::ScoreKind::Cost);
    for (size_t s = 0; s < k; ++s) {
        costs.setGap(static_cast<bio::Symbol>(s), decodeWeight(in));
        for (size_t t = 0; t < k; ++t) {
            const bool forbidden = in.byte() >= 0xF8;
            costs.setPair(static_cast<bio::Symbol>(s),
                          static_cast<bio::Symbol>(t),
                          forbidden ? bio::kScoreInfinity
                                    : decodeWeight(in));
        }
    }
    auto sequence = [&] {
        std::vector<bio::Symbol> symbols(in.byte() % 41);
        for (bio::Symbol &s : symbols)
            s = static_cast<bio::Symbol>(in.byte() % k);
        return bio::Sequence(alphabet, std::move(symbols));
    };
    const bio::Sequence a = sequence();
    const bio::Sequence b = sequence();

    core::RaceGridScratch scratch;
    const core::RaceGridResult full =
        core::raceEditGrid(a, b, costs, sim::kTickInfinity, scratch);
    if (!full.completed || full.score != bio::globalScore(a, b, costs))
        violated("unbounded race == globalScore",
                 "score " + std::to_string(full.score));

    // Horizon: none, a fraction of the full race (the abort edge), or
    // an absolute tick.
    sim::Tick horizon = sim::kTickInfinity;
    const uint8_t mode = in.byte();
    if (mode % 3 == 1)
        horizon = full.latencyCycles * in.byte() / 255 + in.byte() % 3;
    else if (mode % 3 == 2)
        horizon = in.u24();

    core::KernelCounters counters;
    const core::RaceGridResult counted = core::raceEditGrid(
        a, b, costs, horizon, scratch, nullptr, &counters);
    const core::RaceGridResult plain =
        core::raceEditGrid(a, b, costs, horizon, scratch);
    expectSameRace(counted, plain, "counters leave the race unchanged");
    if (counted.completed &&
        counted.score != bio::globalScore(a, b, costs))
        violated("completed race == globalScore",
                 "score " + std::to_string(counted.score));

    // The materialized edit graph on the event-driven reference.
    const bio::EditGraph eg = bio::makeEditGraph(a, b, costs);
    const core::RaceOutcome reference = core::raceDagEventDriven(
        eg.dag, {eg.source}, core::RaceType::Or, horizon);
    size_t fired = 0;
    for (size_t i = 0; i <= eg.rows; ++i) {
        for (size_t j = 0; j <= eg.cols; ++j) {
            const core::TemporalValue v = reference.at(eg.node(i, j));
            fired += v.fired();
            if (counted.arrival.at(i, j) != v.rawTime())
                violated("arrival == event-driven reference",
                         "cell (" + std::to_string(i) + ", " +
                             std::to_string(j) + ")");
        }
    }
    sim::Tick latest = 0;
    for (const graph::Edge &e : eg.dag.edges()) {
        const core::TemporalValue from = reference.at(e.from);
        if (!from.fired())
            continue;
        const sim::Tick t = from.time() + static_cast<sim::Tick>(e.weight);
        if (t <= horizon)
            latest = std::max(latest, t);
    }
    if (counted.events != reference.events ||
        counted.cellsFired != fired ||
        counted.completed != reference.at(eg.sink).fired() ||
        counters.events != counted.events ||
        counters.lanesOccupied != counted.cellsFired ||
        counters.bucketsDrained != latest + 1 ||
        counters.horizonAborts != (counted.completed ? 0u : 1u))
        violated("counts == event-driven reference",
                 "events " + std::to_string(counted.events) + " vs " +
                     std::to_string(reference.events));
    return 0;
}

} // namespace racelogic::fuzz
