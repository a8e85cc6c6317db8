/**
 * The in-process half of the layer ledger: each probe times calls
 * into one module's public functions on the workload's own inputs,
 * with every call recorded as a span.  Times are medians over
 * repeated passes; kernel counters are exact counts from one pass.
 */

#include <algorithm>
#include <functional>
#include <memory>

#include "rl/api/engine.h"
#include "rl/bio/align_dp.h"
#include "rl/core/race_grid.h"
#include "rl/core/wavefront.h"
#include "rl/pangraph/graph_align_dp.h"
#include "rl/pangraph/graph_align_kernel.h"
#include "rl/pangraph/graph_aligner.h"
#include "workloads.h"

namespace perfbench {

namespace api = rl::api;
namespace serve = rl::serve;
using rl::bio::Alphabet;
using rl::bio::Sequence;

namespace {

/** Timing passes over a probe's input set. */
constexpr int kPasses = 5;

/** Inputs a probe uses at most, so the traced run stays bounded. */
constexpr size_t kMaxProbeItems = 48;

/** Time `fn` once, record it as a span, return microseconds. */
double
timedUs(SpanLog &spans, const char *name, uint32_t trace,
        const std::function<void()> &fn)
{
    const int64_t t = nowNs();
    fn();
    const int64_t end = nowNs();
    spans.add(spanId(trace, 0), 0, trace, name, t, end);
    return double(end - t) * 1e-3;
}

/** The engine configuration raceserved's shards run with. */
api::EngineConfig
serveConfig()
{
    api::EngineConfig cfg;
    cfg.withEstimates = false;
    return cfg;
}

/** The engine problem a pool item describes (not MapReads). */
api::RaceProblem
problemFor(const Item &item, const ServeInputs &in)
{
    const Alphabet &dna = Alphabet::dna();
    switch (item.kind) {
    case Kind::Pairwise:
        return api::RaceProblem::pairwiseAlignment(
            costs(), Sequence(dna, item.a), Sequence(dna, item.b));
    case Kind::Screen:
        return api::RaceProblem::thresholdScreen(
            costs(), item.threshold, Sequence(dna, item.a),
            Sequence(dna, item.b));
    case Kind::Dtw:
        return api::RaceProblem::dtw(item.x, item.y);
    case Kind::Affine:
        return api::RaceProblem::affineAlignment(
            costs(), rl::bio::AffineGapCosts{kAffineOpen, kAffineExtend},
            Sequence(dna, item.a), Sequence(dna, item.b));
    case Kind::GraphAlign:
    case Kind::MapReads:
        break;
    }
    return api::RaceProblem::graphAlign(costs(),
                                        Sequence(dna, item.reads[0]),
                                        in.graph, item.threshold);
}

std::vector<const Item *>
itemsOf(const ServeInputs &in, Kind kind)
{
    std::vector<const Item *> out;
    for (const Item &item : in.pool)
        if (item.kind == kind && out.size() < kMaxProbeItems)
            out.push_back(&item);
    return out;
}

/**
 * Per-input median over kPasses of `run(i)` (us); each input is
 * warmed once first so caches and plans are in place.
 */
std::vector<double>
perInputMedians(size_t n, SpanLog &spans, const char *name,
                const std::function<void(size_t)> &run)
{
    for (size_t i = 0; i < n; ++i)
        run(i);
    std::vector<std::vector<double>> us(n);
    for (int pass = 0; pass < kPasses; ++pass) {
        const uint32_t first = spans.newTraces(n);
        for (size_t i = 0; i < n; ++i)
            us[i].push_back(timedUs(spans, name, first + uint32_t(i),
                                    [&] { run(i); }));
    }
    std::vector<double> out;
    for (std::vector<double> &v : us)
        out.push_back(median(v));
    return out;
}

} // namespace

std::vector<GridPair>
gridPairs(const ServeInputs &in)
{
    std::vector<GridPair> pairs;
    for (const Item &item : in.pool) {
        if (item.kind != Kind::Pairwise && item.kind != Kind::Screen)
            continue;
        pairs.push_back(GridPair{
            Sequence(Alphabet::dna(), item.a),
            Sequence(Alphabet::dna(), item.b),
            item.kind == Kind::Screen ? rl::sim::Tick(item.threshold)
                                      : rl::sim::kTickInfinity});
    }
    return pairs;
}

void
probeWire(const ServeInputs &in,
          const std::vector<serve::Response> &responses, Report &report)
{
    // Requests with a recorded response, framed the way they were sent.
    std::vector<std::vector<uint8_t>> payloads, encodedResponses;
    std::vector<size_t> items;
    for (size_t i = 0; i < responses.size(); ++i) {
        if (responses[i].id == 0)
            continue;
        items.push_back(i);
        std::vector<uint8_t> framed = encodeFrame(in.pool[i], 1);
        payloads.emplace_back(framed.begin() + 4, framed.end());
        encodedResponses.push_back(serve::encodeResponse(responses[i]));
    }
    if (items.empty())
        return;
    std::vector<double> encodeUs, decodeUs;
    size_t sink = 0;
    for (int pass = 0; pass < kPasses; ++pass) {
        int64_t t = nowNs();
        for (size_t k = 0; k < items.size(); ++k) {
            sink += encodeFrame(in.pool[items[k]], 1).size();
            sink += serve::encodeResponse(responses[items[k]]).size();
        }
        encodeUs.push_back(double(nowNs() - t) * 1e-3 / double(items.size()));
        t = nowNs();
        for (size_t k = 0; k < items.size(); ++k) {
            serve::Request request;
            serve::Response response;
            sink += size_t(serve::decodeRequest(payloads[k], Alphabet::dna(),
                                                request));
            sink += size_t(
                serve::decodeResponse(encodedResponses[k], response));
        }
        decodeUs.push_back(double(nowNs() - t) * 1e-3 / double(items.size()));
    }
    report.set("serve.wire.encode_us", median(encodeUs), "us");
    report.set("serve.wire.decode_us", median(decodeUs), "us");
    report.note("wire: %zu request/response pairs per pass (checksum %zu)",
                items.size(), sink);
}

void
probeApi(const ServeInputs &in, SpanLog &spans, Report &report)
{
    api::RaceEngine engine(serveConfig());
    const std::pair<Kind, const char *> kinds[] = {
        {Kind::Pairwise, "pairwise"}, {Kind::Screen, "screen"},
        {Kind::Dtw, "dtw"},           {Kind::Affine, "affine"},
        {Kind::GraphAlign, "graph_align"}};
    for (const auto &[kind, label] : kinds) {
        std::vector<api::RaceProblem> problems;
        for (const Item *item : itemsOf(in, kind))
            problems.push_back(problemFor(*item, in));
        if (problems.empty())
            continue; // another pool reports this kind
        const std::vector<double> solveUs = perInputMedians(
            problems.size(), spans, "api.solve",
            [&](size_t i) { (void)engine.solve(problems[i]); });
        report.set(std::string("api.solve_us.") + label, median(solveUs),
                   "us");

        if (kind != Kind::Pairwise && kind != Kind::GraphAlign)
            continue;
        // The engine's cost over the bare kernel on the same inputs.
        std::vector<double> kernelUs;
        if (kind == Kind::Pairwise) {
            const rl::core::RaceGridAligner aligner(costs());
            rl::core::RaceGridScratch scratch;
            kernelUs = perInputMedians(
                problems.size(), spans, "core.align", [&](size_t i) {
                    (void)aligner.align(*problems[i].a, *problems[i].b,
                                        rl::sim::kTickInfinity, scratch);
                });
        } else {
            const rl::pangraph::GraphAligner aligner(in.graph, costs());
            rl::pangraph::GraphAlignScratch scratch;
            kernelUs = perInputMedians(
                problems.size(), spans, "pangraph.align", [&](size_t i) {
                    (void)aligner.align(
                        *problems[i].a,
                        rl::sim::Tick(problems[i].threshold), scratch);
                });
        }
        std::vector<double> tax;
        for (size_t i = 0; i < problems.size(); ++i)
            tax.push_back(solveUs[i] - kernelUs[i]);
        report.set(std::string("api.tax_us.") + label, median(tax), "us");

        // Plan build on a cold engine, one per problem.
        std::vector<double> buildUs;
        const size_t builds = kind == Kind::Pairwise ? problems.size() : 8;
        const uint32_t first = spans.newTraces(builds);
        for (size_t i = 0; i < builds && !problems.empty(); ++i) {
            api::RaceEngine cold(serveConfig());
            buildUs.push_back(timedUs(
                spans, "api.prepare", first + uint32_t(i),
                [&] { cold.prepare(problems[i % problems.size()]); }));
        }
        report.set(std::string("api.plan_build_us.") + label,
                   median(buildUs), "us");
    }
}

void
probeCore(const std::vector<GridPair> &all, SpanLog &spans, Report &report)
{
    const std::vector<GridPair> pairs(
        all.begin(), all.begin() + std::min(all.size(), kMaxProbeItems));
    if (pairs.empty())
        return;
    const rl::core::RaceGridAligner aligner(costs());
    rl::core::RaceGridScratch scratch;

    // One counted pass: exact, deterministic per input set.
    rl::core::KernelCounters counters;
    for (const GridPair &p : pairs)
        (void)aligner.align(p.a, p.b, p.horizon, scratch, nullptr,
                            &counters);
    const double n = double(pairs.size());
    report.set("core.events", double(counters.events) / n, "count");
    report.set("core.buckets", double(counters.bucketsDrained) / n,
               "count");
    report.set("core.cells_fired", double(counters.lanesOccupied) / n,
               "count");
    report.set("core.horizon_abort_frac",
               double(counters.horizonAborts) / n, "ratio");

    // Kernel and DP over the same pairs, alternating passes.
    std::vector<double> gridUs, ratio;
    rl::bio::Score sink = 0;
    for (int pass = 0; pass < kPasses; ++pass) {
        const uint32_t first = spans.newTraces(pairs.size());
        int64_t t = nowNs();
        for (size_t i = 0; i < pairs.size(); ++i) {
            const int64_t s = nowNs();
            sink += aligner.align(pairs[i].a, pairs[i].b, pairs[i].horizon,
                                  scratch)
                        .latencyCycles;
            const uint32_t trace = first + uint32_t(i);
            spans.add(spanId(trace, 0), 0, trace, "core.align", s, nowNs());
        }
        const double grid = double(nowNs() - t);
        t = nowNs();
        for (const GridPair &p : pairs)
            sink += rl::bio::globalScore(p.a, p.b, costs());
        const double dp = double(nowNs() - t);
        gridUs.push_back(grid * 1e-3 / n);
        ratio.push_back(grid / dp);
    }
    report.set("core.grid_us", median(gridUs), "us");
    report.set("core.grid_over_dp", median(ratio), "ratio");
    report.note("core: %zu pairs, %d passes (checksum %lld)", pairs.size(),
                kPasses, (long long)sink);
}

void
probePangraph(const ServeInputs &in, SpanLog &spans, Report &report)
{
    std::vector<std::pair<Sequence, rl::sim::Tick>> reads;
    for (const Item *item : itemsOf(in, Kind::GraphAlign))
        reads.emplace_back(Sequence(Alphabet::dna(), item->reads[0]),
                           rl::sim::Tick(item->threshold));
    if (reads.empty())
        return;
    const rl::pangraph::GraphAligner aligner(in.graph, costs());
    rl::pangraph::GraphAlignScratch scratch;

    rl::core::KernelCounters counters;
    for (const auto &[read, horizon] : reads)
        (void)rl::pangraph::raceAlignmentGrid(aligner.compiled(), read,
                                              aligner.costs(), horizon,
                                              scratch, nullptr, &counters);
    const double n = double(reads.size());
    report.set("pangraph.events", double(counters.events) / n, "count");
    report.set("pangraph.buckets", double(counters.bucketsDrained) / n,
               "count");

    std::vector<double> raceUs, ratio;
    rl::bio::Score sink = 0;
    for (int pass = 0; pass < kPasses; ++pass) {
        const uint32_t first = spans.newTraces(reads.size());
        int64_t t = nowNs();
        for (size_t i = 0; i < reads.size(); ++i) {
            const int64_t s = nowNs();
            sink += rl::pangraph::raceAlignmentGrid(
                        aligner.compiled(), reads[i].first, aligner.costs(),
                        reads[i].second, scratch)
                        .latencyCycles;
            const uint32_t trace = first + uint32_t(i);
            spans.add(spanId(trace, 0), 0, trace, "pangraph.race", s,
                      nowNs());
        }
        const double race = double(nowNs() - t);
        t = nowNs();
        for (const auto &[read, horizon] : reads)
            sink += rl::pangraph::graphAlignDp(*in.graph, read, costs())
                        .distance;
        const double dp = double(nowNs() - t);
        raceUs.push_back(race * 1e-3 / n);
        ratio.push_back(race / dp);
    }
    report.set("pangraph.race_us", median(raceUs), "us");
    report.set("pangraph.over_dp", median(ratio), "ratio");
    report.note("pangraph: %zu reads, %zu graph positions, %d passes "
                "(checksum %lld)",
                reads.size(), aligner.compiled().symbol.size() - 1, kPasses,
                (long long)sink);
}

} // namespace perfbench
