#include "inputs.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "rl/apps/dtw.h"
#include "rl/bio/affine.h"
#include "rl/bio/align_dp.h"
#include "rl/pangraph/generate.h"
#include "rl/pangraph/gfa.h"
#include "rl/pangraph/graph_align_dp.h"
#include "rl/util/random.h"

namespace perfbench {

using rl::bio::Alphabet;
using rl::bio::Sequence;
using rl::util::Rng;

const rl::bio::ScoreMatrix &
costs()
{
    // Fig. 2b (match 1, mismatch 2, indel 1): the same weights
    // raceserved builds for its preloaded graph.
    static const rl::bio::ScoreMatrix matrix =
        rl::bio::ScoreMatrix::dnaShortestPath();
    return matrix;
}

namespace {

// Offered rates are about a quarter (lo) and a half (hi) of the
// closed-loop saturation each mix reached on the reference host while
// the hypervisor stole the most CPU seen (~10% of all vCPU time), and
// so well below the knee when it steals none (README.md, "Host
// caveats").  Set against the quiet host, a hi rate would cross the
// knee whenever the steal rose and stop measuring the program.
const ServeSpec kServeSpecs[] = {
    {"serve_short", 750.0, 1500.0, 8, 10.0, false},
    {"serve_reads", 80.0, 170.0, 4, 50.0, true},
};

const ScreenSpec kScreenSpec = {55.0, 110.0, 50.0};

/** Independent generator streams of one seed. */
enum Salt : uint64_t {
    kSaltGraph = 0x9a4e,
    kSaltPool = 0x900c,
    kSaltStream = 0x57e4,
    kSaltScreen = 0x5c2e,
    kSaltBag = 0xba90,
};

Rng
rngFor(uint64_t seed, Salt salt)
{
    return Rng(seed * 0x9e3779b97f4a7c15ULL ^ salt);
}

std::string
randomDna(Rng &rng, size_t n)
{
    return Sequence::random(rng, Alphabet::dna(), n).str();
}

std::string
mutated(Rng &rng, const std::string &text, double rate)
{
    return rl::bio::mutate(rng, Sequence(Alphabet::dna(), text),
                           rl::bio::MutationModel::uniform(rate))
        .str();
}

std::vector<rl::apps::Sample>
randomSignal(Rng &rng, size_t n)
{
    std::vector<rl::apps::Sample> s(n);
    for (rl::apps::Sample &v : s)
        v = rng.uniformInt(0, 31);
    return s;
}

/**
 * A read spelled along a random walk of `graph`, mutated, with its
 * length inside [minLen, maxLen]: walks outside the range are
 * redrawn, and a read still too long after a few draws is cut.
 */
std::string
graphRead(Rng &rng, const rl::pangraph::VariationGraph &graph,
          size_t minLen, size_t maxLen, double noise)
{
    std::string read;
    for (int attempt = 0; attempt < 8; ++attempt) {
        read = rl::pangraph::sampleRead(
                   rng, graph, rl::bio::MutationModel::uniform(noise))
                   .str();
        if (read.size() >= minLen && read.size() <= maxLen)
            return read;
    }
    if (read.size() > maxLen)
        read.resize(maxLen);
    while (read.size() < minLen)
        read += randomDna(rng, 1);
    return read;
}

/** Characters over all of a graph's segments. */
size_t
graphPositions(const rl::pangraph::VariationGraph &graph)
{
    size_t chars = 0;
    for (size_t s = 0; s < graph.segmentCount(); ++s)
        chars += graph.segment(s).label.size();
    return chars;
}

/**
 * A random graph with `positions` characters (within 2%): graphs are
 * redrawn until one fits, so the work per read -- proportional to
 * positions times read length -- does not swing with the seed.
 */
std::shared_ptr<const rl::pangraph::VariationGraph>
sizedGraph(Rng &rng, const rl::pangraph::VariationGraphParams &params,
           size_t positions)
{
    for (;;) {
        auto graph = std::make_shared<rl::pangraph::VariationGraph>(
            rl::pangraph::randomVariationGraph(rng, Alphabet::dna(),
                                               params));
        const size_t chars = graphPositions(*graph);
        if (chars * 50 >= positions * 49 && chars * 50 <= positions * 51)
            return graph;
    }
}

/** Threshold that accepts a read within ~20% of a perfect walk. */
rl::bio::Score
readThreshold(size_t length)
{
    return rl::bio::Score(length + length / 5 + 2);
}

/**
 * Exactly `count` requests of each kind, in a seeded order: the mix,
 * and so the work per request, is the same for every seed.
 */
std::vector<Kind>
kindMix(Rng &rng, const std::vector<std::pair<Kind, size_t>> &counts)
{
    std::vector<Kind> kinds;
    for (const auto &[kind, count] : counts)
        kinds.insert(kinds.end(), count, kind);
    rng.shuffle(kinds);
    return kinds;
}

/**
 * `n` lengths spread evenly over [lo, hi], in a seeded order: a pool's
 * mean length is then the same for every seed.
 */
std::vector<size_t>
evenLengths(Rng &rng, size_t n, size_t lo, size_t hi)
{
    std::vector<size_t> lengths(n);
    for (size_t k = 0; k < n; ++k)
        lengths[k] = lo + k * (hi - lo + 1) / n;
    rng.shuffle(lengths);
    return lengths;
}

/** A pairwise or screen request's grid: lengths, and a related pair? */
struct GridShape {
    size_t a = 0, b = 0;
    bool related = false;
};

/**
 * `n` (a multiple of 18) grid shapes over the lengths {32, 48, 64}:
 * each length related to itself three times and each of the nine
 * length pairs unrelated once per 18, in a seeded order -- half the
 * pairs related, every shape equally often, for every seed.
 */
std::vector<GridShape>
shortGridShapes(Rng &rng, size_t n)
{
    const size_t lengths[] = {32, 48, 64};
    std::vector<GridShape> shapes;
    while (shapes.size() < n) {
        for (size_t a : lengths)
            shapes.insert(shapes.end(), 3, GridShape{a, a, true});
        for (size_t a : lengths)
            for (size_t b : lengths)
                shapes.push_back(GridShape{a, b, false});
    }
    rng.shuffle(shapes);
    return shapes;
}

/**
 * The mean graph-alignment grid of a pool: graph positions times the
 * mean length of its GraphAlign and MapReads reads.  A read's work is
 * proportional to its grid, and both factors swing with the seed (the
 * walks' lengths follow the graph: a serve_reads pool's mean read
 * ranged 178-212 nt over twelve seeds), so inputs are redrawn until
 * this is within 1% of the workload's figure.
 */
double
meanReadGrid(const rl::pangraph::VariationGraph &graph,
             const std::vector<Item> &pool)
{
    size_t reads = 0, letters = 0;
    for (const Item &item : pool)
        for (const std::string &read : item.reads) {
            ++reads;
            letters += read.size();
        }
    return double(graphPositions(graph)) * double(letters) / double(reads);
}

/**
 * serve_short's pool: a fixed set of short shapes, every plan warm.
 * Grid lengths come from {32, 48, 64}, so the pairwise and screen
 * plans form a handful of shapes; reads are at most 64 nt against a
 * 65-position pangenome; DTW and affine stay small.  Every length is
 * drawn evenly (shortGridShapes, evenLengths) rather than at random:
 * drawn at random, the pool's mean grid area swung +-8% by kind
 * across ten seeds, and the CPU per request with it.
 */
std::vector<Item>
shortPool(Rng &rng, const rl::pangraph::VariationGraph &graph)
{
    // 35% pairwise, 23% screen, 26% graph, 8% DTW, 7% affine of 308.
    constexpr size_t kPairwise = 108, kScreen = 72, kGraph = 80,
                     kRandomReads = 16, kDtw = 26, kAffine = 22;
    std::vector<GridShape> pairwise = shortGridShapes(rng, kPairwise);
    std::vector<GridShape> screen = shortGridShapes(rng, kScreen);
    std::vector<size_t> randomReads = evenLengths(rng, kRandomReads, 40, 64);
    std::vector<char> isRandomRead(kGraph, false);
    std::fill_n(isRandomRead.begin(), kRandomReads, true);
    rng.shuffle(isRandomRead);
    std::vector<size_t> dtwX = evenLengths(rng, kDtw, 16, 32);
    std::vector<size_t> dtwY = evenLengths(rng, kDtw, 16, 32);
    std::vector<size_t> affine = evenLengths(rng, kAffine, 16, 32);

    std::vector<Item> pool;
    for (Kind kind : kindMix(rng, {{Kind::Pairwise, kPairwise},
                                   {Kind::Screen, kScreen},
                                   {Kind::GraphAlign, kGraph},
                                   {Kind::Dtw, kDtw},
                                   {Kind::Affine, kAffine}})) {
        Item item;
        item.kind = kind;
        switch (item.kind) {
        case Kind::Pairwise:
        case Kind::Screen: {
            std::vector<GridShape> &shapes =
                kind == Kind::Pairwise ? pairwise : screen;
            const GridShape shape = shapes.back();
            shapes.pop_back();
            item.a = randomDna(rng, shape.a);
            if (shape.related) {
                // Substitutions only, so the grid shape stays in the
                // fixed set.
                rl::bio::MutationModel subs{0.1, 0.0, 0.0};
                item.b = rl::bio::mutate(
                             rng, Sequence(Alphabet::dna(), item.a), subs)
                             .str();
            } else {
                item.b = randomDna(rng, shape.b);
            }
            if (item.kind == Kind::Screen)
                item.threshold = rl::bio::Score(
                    std::max(item.a.size(), item.b.size()) * 5 / 4);
            break;
        }
        case Kind::GraphAlign: {
            const bool random = isRandomRead.back();
            isRandomRead.pop_back();
            std::string read;
            if (random) {
                read = randomDna(rng, randomReads.back());
                randomReads.pop_back();
            } else {
                read = graphRead(rng, graph, 24, 64, 0.1);
            }
            item.threshold = readThreshold(read.size());
            item.reads.push_back(read);
            break;
        }
        case Kind::Dtw:
            item.x = randomSignal(rng, dtwX.back());
            item.y = randomSignal(rng, dtwY.back());
            dtwX.pop_back();
            dtwY.pop_back();
            break;
        case Kind::Affine:
            item.a = randomDna(rng, affine.back());
            item.b = mutated(rng, item.a, 0.15);
            affine.pop_back();
            break;
        case Kind::MapReads:
            break;
        }
        pool.push_back(std::move(item));
    }
    return pool;
}

ServeInputs
makeServeShort(uint64_t seed)
{
    ServeInputs in;
    Rng graphRng = rngFor(seed, kSaltGraph);
    Rng rng = rngFor(seed, kSaltPool);
    rl::pangraph::VariationGraphParams params;
    params.backboneSegments = 8;
    params.minLabel = 4;
    params.maxLabel = 10;
    // 65 positions times a 56 nt mean read, the median over forty
    // seeds.
    for (;;) {
        in.graph = sizedGraph(graphRng, params, 65);
        in.pool = shortPool(rng, *in.graph);
        if (std::abs(meanReadGrid(*in.graph, in.pool) / (65 * 56) - 1.0) <=
            0.01)
            return in;
    }
}

/**
 * serve_reads' pool: read-mapping traffic against a 235-position
 * pangenome (~200 nt per walk).  Reads are 100-250 nt; grid lengths
 * are spread evenly over [64, 160] and paired at random, so across the
 * pool there are far more grid shapes than the shards' plan caches
 * hold and most grid requests build a plan, while the pool's mean grid
 * area stays put from seed to seed.
 */
std::vector<Item>
readsPool(Rng &rng, const rl::pangraph::VariationGraph &graph)
{
    // 55% graph reads, 5% MapReads batches, 20% pairwise, 20% screen
    // of 1600; 15% of the reads are random strings.
    constexpr size_t kGraph = 880, kMapReads = 80, kBatch = 4,
                     kPairwise = 320, kScreen = 320;
    constexpr size_t kReads = kGraph + kMapReads * kBatch;
    constexpr size_t kRandomReads = kReads * 15 / 100;
    std::vector<size_t> randomReads =
        evenLengths(rng, kRandomReads, 100, 250);
    std::vector<char> isRandomRead(kReads, false);
    std::fill_n(isRandomRead.begin(), kRandomReads, true);
    rng.shuffle(isRandomRead);
    std::vector<size_t> gridA = evenLengths(rng, kPairwise + kScreen, 64, 160);
    std::vector<size_t> gridB = evenLengths(rng, kPairwise + kScreen, 64, 160);

    std::vector<Item> pool;
    auto read = [&]() {
        const bool random = isRandomRead.back();
        isRandomRead.pop_back();
        if (!random)
            return graphRead(rng, graph, 100, 250, 0.06);
        const std::string r = randomDna(rng, randomReads.back());
        randomReads.pop_back();
        return r;
    };
    for (Kind kind : kindMix(rng, {{Kind::GraphAlign, kGraph},
                                   {Kind::MapReads, kMapReads},
                                   {Kind::Pairwise, kPairwise},
                                   {Kind::Screen, kScreen}})) {
        Item item;
        item.kind = kind;
        switch (item.kind) {
        case Kind::GraphAlign:
            item.reads.push_back(read());
            item.threshold = readThreshold(item.reads[0].size());
            break;
        case Kind::MapReads: {
            size_t longest = 0;
            for (size_t r = 0; r < kBatch; ++r) {
                item.reads.push_back(read());
                longest = std::max(longest, item.reads.back().size());
            }
            item.threshold = readThreshold(longest);
            break;
        }
        case Kind::Pairwise:
        case Kind::Screen:
            item.a = randomDna(rng, gridA.back());
            item.b = item.kind == Kind::Screen && rng.bernoulli(0.4)
                         ? mutated(rng, item.a, 0.1)
                         : randomDna(rng, gridB.back());
            gridA.pop_back();
            gridB.pop_back();
            if (item.kind == Kind::Screen)
                item.threshold = rl::bio::Score(
                    (item.a.size() + item.b.size()) * 5 / 8);
            break;
        case Kind::Dtw:
        case Kind::Affine:
            break;
        }
        pool.push_back(std::move(item));
    }
    return pool;
}

ServeInputs
makeServeReads(uint64_t seed)
{
    ServeInputs in;
    Rng graphRng = rngFor(seed, kSaltGraph);
    Rng rng = rngFor(seed, kSaltPool);
    rl::pangraph::VariationGraphParams params;
    params.backboneSegments = 18;
    params.minLabel = 6;
    params.maxLabel = 16;
    params.insertDensity = 0.2;
    params.deleteDensity = 0.2;
    // 235 positions times a 200 nt mean read.
    for (;;) {
        in.graph = sizedGraph(graphRng, params, 235);
        in.pool = readsPool(rng, *in.graph);
        if (std::abs(meanReadGrid(*in.graph, in.pool) / (235 * 200) - 1.0) <=
            0.01)
            return in;
    }
}

Answer
thresholdAnswer(int64_t distance, rl::bio::Score threshold)
{
    return Answer{distance, distance <= threshold};
}

bool
sameAnswer(const Answer &want, int64_t score, bool accepted)
{
    return accepted == want.accepted &&
           (!accepted || score == want.score);
}

} // namespace

const ServeSpec *
serveSpec(const std::string &workload)
{
    for (const ServeSpec &spec : kServeSpecs)
        if (workload == spec.name)
            return &spec;
    return nullptr;
}

ServeInputs
makeServeInputs(const ServeSpec &spec, uint64_t seed)
{
    ServeInputs in = std::string(spec.name) == "serve_short"
                         ? makeServeShort(seed)
                         : makeServeReads(seed);
    std::ostringstream gfa;
    rl::pangraph::writeGfa(gfa, *in.graph);
    in.gfa = gfa.str();
    return in;
}

void
computeAnswers(ServeInputs &inputs)
{
    const Alphabet &dna = Alphabet::dna();
    for (Item &item : inputs.pool) {
        item.answers.clear();
        switch (item.kind) {
        case Kind::Pairwise:
            item.answers.push_back(Answer{
                rl::bio::globalScore(Sequence(dna, item.a),
                                     Sequence(dna, item.b), costs()),
                true});
            break;
        case Kind::Screen:
            item.answers.push_back(thresholdAnswer(
                rl::bio::globalScore(Sequence(dna, item.a),
                                     Sequence(dna, item.b), costs()),
                item.threshold));
            break;
        case Kind::Dtw:
            item.answers.push_back(
                Answer{rl::apps::dtwDistance(item.x, item.y), true});
            break;
        case Kind::Affine:
            item.answers.push_back(Answer{
                rl::bio::affineGlobalScore(
                    Sequence(dna, item.a), Sequence(dna, item.b),
                    costs(),
                    rl::bio::AffineGapCosts{kAffineOpen, kAffineExtend}),
                true});
            break;
        case Kind::GraphAlign:
        case Kind::MapReads:
            for (const std::string &read : item.reads)
                item.answers.push_back(thresholdAnswer(
                    rl::pangraph::graphAlignDp(*inputs.graph,
                                               Sequence(dna, read),
                                               costs())
                        .distance,
                    item.threshold));
            break;
        }
    }
}

std::vector<uint8_t>
encodeFrame(const Item &item, uint32_t id)
{
    namespace serve = rl::serve;
    switch (item.kind) {
    case Kind::Pairwise:
        return serve::frame(serve::encodePairwise(id, costs(), item.a,
                                                  item.b));
    case Kind::Screen:
        return serve::frame(serve::encodeScreen(id, costs(), item.threshold,
                                                item.a, item.b));
    case Kind::Dtw:
        return serve::frame(serve::encodeDtw(id, item.x, item.y));
    case Kind::Affine:
        return serve::frame(serve::encodeAffine(
            id, costs(), kAffineOpen, kAffineExtend, item.a, item.b));
    case Kind::GraphAlign:
        return serve::frame(
            serve::encodeGraphAlign(id, item.reads[0], item.threshold));
    case Kind::MapReads: {
        std::string fasta;
        for (size_t r = 0; r < item.reads.size(); ++r)
            fasta += ">r" + std::to_string(r) + "\n" + item.reads[r] + "\n";
        return serve::frame(
            serve::encodeMapReads(id, fasta, item.threshold));
    }
    }
    return {};
}

Verdict
check(const Item &item, const rl::serve::Response &response)
{
    if (response.status != rl::serve::Status::Ok)
        return Verdict::Failed;
    if (item.kind == Kind::MapReads) {
        if (response.reads.size() != item.answers.size())
            return Verdict::Wrong;
        for (size_t r = 0; r < item.answers.size(); ++r)
            if (!sameAnswer(item.answers[r], response.reads[r].score,
                            response.reads[r].accepted))
                return Verdict::Wrong;
        return Verdict::Correct;
    }
    if (!response.solve || item.answers.size() != 1)
        return Verdict::Wrong;
    return sameAnswer(item.answers[0], response.solve->score,
                      response.solve->accepted)
               ? Verdict::Correct
               : Verdict::Wrong;
}

ItemBag::ItemBag(uint64_t seed, size_t poolSize)
    : rng(rngFor(seed, kSaltBag)), order(poolSize), at(poolSize)
{
    for (size_t i = 0; i < poolSize; ++i)
        order[i] = uint32_t(i);
}

uint32_t
ItemBag::next()
{
    if (at == order.size()) {
        rng.shuffle(order);
        at = 0;
    }
    return order[at++];
}

Stream
poissonStream(uint64_t seed, double rate, double seconds, ItemBag &bag)
{
    Stream s;
    Rng rng = rngFor(seed, kSaltStream);
    double t = 0.0;
    for (;;) {
        t += -std::log1p(-rng.uniformReal()) / rate;
        if (t >= seconds)
            break;
        s.dueNs.push_back(int64_t(t * 1e9));
        s.item.push_back(bag.next());
    }
    return s;
}

const ScreenSpec &
screenSpec()
{
    return kScreenSpec;
}

ScreenInputs
makeScreenInputs(uint64_t seed)
{
    Rng rng = rngFor(seed, kSaltScreen);
    // A minority of related candidates (mutated copies of the query)
    // among unrelated random strings: the Section 6 scenario.
    // Related candidates race to the end while unrelated ones abort
    // at the horizon, so the database is redrawn until exactly 77 of
    // its 384 (a fifth) are related: the work does not swing with the
    // seed.
    auto draw = [&]() {
        return rl::bio::makeScreeningWorkload(
            rng, Alphabet::dna(), 256, 384, 0.2,
            rl::bio::MutationModel::uniform(0.1));
    };
    rl::bio::ScreeningWorkload w = draw();
    while (std::count(w.related.begin(), w.related.end(), true) != 77)
        w = draw();
    ScreenInputs in{std::move(w.query), std::move(w.database), 0, {}};
    // Related candidates cost ~1.1x the query length; unrelated ones
    // well over 1.3x.  1.2x accepts the former and aborts the latter
    // at the horizon.
    in.threshold = rl::bio::Score(in.query.size() * 6 / 5);
    return in;
}

void
screenAnswers(ScreenInputs &inputs)
{
    inputs.answers.clear();
    for (const Sequence &candidate : inputs.database)
        inputs.answers.push_back(thresholdAnswer(
            rl::bio::globalScore(inputs.query, candidate, costs()),
            inputs.threshold));
}

} // namespace perfbench
