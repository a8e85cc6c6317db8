/**
 * The serve workloads: open-loop Poisson arrivals and a closed-loop
 * saturation phase against a real raceserved child process.
 *
 * Generator hygiene: one process, one load connection plus one
 * control connection, and two threads (a sender that sleeps until
 * each request's due time, and the main thread as receiver).
 * Latency is timed from the due time, so a stall that delays later
 * sends is charged to them, and how late the sender ran is reported.
 */

#include <algorithm>
#include <cmath>
#include <fstream>
#include <functional>
#include <limits>
#include <memory>
#include <thread>

#include "calibrate.h"
#include "daemon.h"
#include "workloads.h"

namespace perfbench {

namespace serve = rl::serve;

namespace {

/**
 * Extra spawns per round, of a throwaway daemon between the rounds;
 * set-up time is the median of these and the serving daemon's own.
 */
constexpr int kSpawnsPerRound = 2;

/** Pool entries sent once, closed loop, before any timed phase. */
constexpr size_t kWarmItems = 320;

/**
 * Shares of --seconds given to the lo, hi and saturation phases.  The
 * gated metrics come from the lo and saturation blocks; the hi block
 * feeds only the traced run's layer metrics, so it gets the least.
 */
constexpr double kLoShare = 0.40, kHiShare = 0.20, kSatShare = 0.40;

/** Interleaved rounds each phase is split into. */
constexpr int kRounds = 10;

/** How long after its last due time a phase waits for answers. */
constexpr int64_t kGraceNs = 5'000'000'000;

constexpr double kInf = std::numeric_limits<double>::infinity();

/** One request's timeline. */
struct Shot {
    int64_t dueNs = 0;
    int64_t sendNs = 0;
    int64_t sendEndNs = 0;
    int64_t recvNs = 0;
    uint32_t item = 0;
    Verdict verdict = Verdict::Failed;
    bool answered = false;
};

struct Phase {
    std::vector<Shot> shots;
    double seconds = 0.0; ///< offered window (open) or run time (closed)
};

void
sleepUntilNs(int64_t ns)
{
    std::this_thread::sleep_until(
        Clock::time_point(std::chrono::nanoseconds(ns)));
}

Clock::time_point
clockAt(int64_t ns)
{
    return Clock::time_point(std::chrono::nanoseconds(ns));
}

/** Span names of one open-loop phase (static strings). */
struct PhaseSpans {
    const char *request, *late, *send;
};
constexpr PhaseSpans kLoSpans{"lo.request", "lo.late", "lo.send"};
constexpr PhaseSpans kHiSpans{"hi.request", "hi.late", "hi.send"};

/** Record one answered response against its shot. */
void
settle(Shot &shot, const ServeInputs &in, const serve::Response &r,
       int64_t recvNs)
{
    shot.recvNs = recvNs;
    shot.answered = true;
    shot.verdict = check(in.pool[shot.item], r);
}

/**
 * Open loop: a sender thread sends stream entry i at t0 + due[i]
 * whether or not earlier requests were answered; this thread
 * receives.  `reload` sends one SIGHUP when the stream passes its
 * midpoint.
 */
Phase
openLoop(Daemon &daemon, const ServeInputs &in, const Stream &stream,
         double seconds, bool reload, SpanLog *spans,
         const PhaseSpans &names)
{
    const size_t n = stream.dueNs.size();
    Phase phase;
    phase.seconds = seconds;
    phase.shots.resize(n);
    for (size_t i = 0; i < n; ++i)
        phase.shots[i].item = stream.item[i];
    if (n == 0)
        return phase;
    serve::ServeClient client = daemon.connect();
    if (!client.ok())
        return phase;

    // Written by the sender only; read here after it joined.
    std::vector<int64_t> sendNs(n, 0), sendEndNs(n, 0);
    SpanLog senderSpans;
    const uint32_t firstTrace = spans ? spans->newTraces(n) : 1;
    if (spans)
        senderSpans.reserve(2 * n);
    const int64_t t0 = nowNs() + 2'000'000;
    const int64_t midNs = int64_t(seconds * 0.5e9);

    std::thread sender([&]() {
        bool reloaded = !reload;
        for (size_t i = 0; i < n; ++i) {
            const uint32_t id = uint32_t(i + 1);
            const uint32_t trace = firstTrace + uint32_t(i);
            const std::vector<uint8_t> bytes =
                encodeFrame(in.pool[stream.item[i]], id);
            const int64_t due = t0 + stream.dueNs[i];
            sleepUntilNs(due);
            if (!reloaded && stream.dueNs[i] >= midNs) {
                daemon.sighup();
                reloaded = true;
            }
            sendNs[i] = nowNs();
            if (!client.sendBytes(bytes))
                return;
            sendEndNs[i] = nowNs();
            if (spans) {
                senderSpans.add(spanId(trace, 1), spanId(trace, 0), trace,
                                names.late, due, sendNs[i]);
                senderSpans.add(spanId(trace, 2), spanId(trace, 0), trace,
                                names.send, sendNs[i], sendEndNs[i]);
            }
        }
    });

    const Clock::time_point deadline =
        clockAt(t0 + stream.dueNs.back() + kGraceNs);
    for (size_t received = 0; received < n; ++received) {
        serve::Response r;
        if (client.receive(r, deadline) != serve::IoStatus::Ok)
            break;
        const int64_t recv = nowNs();
        if (r.id == 0 || r.id > n || phase.shots[r.id - 1].answered)
            break; // unsolicited: the stream's framing is suspect
        Shot &shot = phase.shots[r.id - 1];
        settle(shot, in, r, recv);
        if (spans) {
            const uint32_t trace = firstTrace + r.id - 1;
            spans->add(spanId(trace, 0), 0, trace, names.request,
                       t0 + stream.dueNs[r.id - 1], recv);
        }
    }
    sender.join();
    client.close();
    for (size_t i = 0; i < n; ++i) {
        Shot &shot = phase.shots[i];
        shot.dueNs = t0 + stream.dueNs[i];
        shot.sendNs = sendNs[i];
        shot.sendEndNs = sendEndNs[i];
        if (shot.sendEndNs == 0)
            shot.answered = false; // never fully sent
    }
    if (spans)
        spans->absorb(senderSpans);
    return phase;
}

/**
 * Closed loop: keep `window` requests outstanding; `next` yields the
 * pool entry to send or -1 to stop.  Latency is timed from the send.
 * `keep` (optional) stores the first response seen per pool entry.
 */
Phase
closedLoop(Daemon &daemon, const ServeInputs &in, size_t window,
           const std::function<int64_t()> &next,
           std::vector<serve::Response> *keep)
{
    Phase phase;
    serve::ServeClient client = daemon.connect();
    const int64_t begin = nowNs();
    size_t inflight = 0;
    bool stopping = !client.ok();
    for (;;) {
        while (!stopping && inflight < window) {
            const int64_t item = next();
            if (item < 0) {
                stopping = true;
                break;
            }
            Shot shot;
            shot.item = uint32_t(item);
            const uint32_t id = uint32_t(phase.shots.size() + 1);
            const std::vector<uint8_t> bytes =
                encodeFrame(in.pool[shot.item], id);
            shot.sendNs = shot.dueNs = nowNs();
            const bool sent = client.sendBytes(bytes);
            shot.sendEndNs = nowNs();
            phase.shots.push_back(shot);
            if (!sent) {
                stopping = true;
                break;
            }
            ++inflight;
        }
        if (inflight == 0)
            break;
        serve::Response r;
        if (client.receive(r, serve::deadlineAfterMs(kGraceNs / 1000000)) !=
            serve::IoStatus::Ok)
            break;
        const int64_t recv = nowNs();
        if (r.id == 0 || r.id > phase.shots.size() ||
            phase.shots[r.id - 1].answered)
            break;
        Shot &shot = phase.shots[r.id - 1];
        settle(shot, in, r, recv);
        if (keep && shot.item < keep->size() &&
            (*keep)[shot.item].id == 0)
            (*keep)[shot.item] = r;
        --inflight;
    }
    client.close();
    phase.seconds = double(nowNs() - begin) * 1e-9;
    return phase;
}

/** Pool a block's shots into the phase of its kind. */
void
append(Phase &phase, Phase block)
{
    phase.shots.insert(phase.shots.end(), block.shots.begin(),
                       block.shots.end());
    phase.seconds += block.seconds;
}

/** Latency and failure summary of one phase. */
struct PhaseStats {
    size_t sent = 0, failed = 0, wrong = 0;
    std::vector<double> latencyMs; ///< ascending; failures are +inf
    std::vector<double> lateUs;    ///< send minus due
    double clientMeanUs = 0.0;     ///< mean send-to-receive, answered
    double meanMs = 0.0;           ///< mean due-to-receive, answered
    uint64_t items = 0;            ///< problems answered correctly
    size_t withinLimit = 0;
};

PhaseStats
summarize(const Phase &phase, const ServeInputs &in, double limitMs)
{
    PhaseStats s;
    s.sent = phase.shots.size();
    std::vector<double> rtt, answered;
    for (const Shot &shot : phase.shots) {
        if (shot.sendNs != 0)
            s.lateUs.push_back(double(shot.sendNs - shot.dueNs) * 1e-3);
        if (!shot.answered || shot.verdict != Verdict::Correct) {
            ++s.failed;
            s.wrong += shot.answered && shot.verdict == Verdict::Wrong;
            s.latencyMs.push_back(kInf);
            continue;
        }
        const double ms = double(shot.recvNs - shot.dueNs) * 1e-6;
        s.latencyMs.push_back(ms);
        answered.push_back(ms);
        rtt.push_back(double(shot.recvNs - shot.sendNs) * 1e-3);
        s.items += in.pool[shot.item].problems();
        s.withinLimit += ms <= limitMs;
    }
    std::sort(s.latencyMs.begin(), s.latencyMs.end());
    std::sort(s.lateUs.begin(), s.lateUs.end());
    s.clientMeanUs = mean(rtt);
    s.meanMs = mean(answered);
    return s;
}

/** A percentile in ms; a failed request at that rank reads as the
 *  whole phase (a lower bound on what it cost the caller). */
double
latencyAt(const PhaseStats &s, unsigned permille, double phaseSeconds)
{
    const double v = percentile(s.latencyMs, permille);
    return std::isfinite(v) ? v : phaseSeconds * 1e3;
}

void
account(Report &report, const PhaseStats &s)
{
    report.attempted += s.sent;
    report.failed += s.failed;
    report.wrong += s.wrong;
}

void
noteOpenPhase(Report &report, const char *label, double rate,
              const Phase &phase, const PhaseStats &s)
{
    const unsigned tail = highestSupported(s.latencyMs.size());
    report.note("%s: offered %.0f req/s for %.2f s, sent %zu, failed %zu;"
                " p50 %.3f ms, p90 %.3f ms, p99 %.3f ms; highest supported"
                " tail %s = %.3f ms (n=%zu); sender late p50 %.0f us"
                " p99 %.0f us",
                label, rate, phase.seconds, s.sent, s.failed,
                latencyAt(s, 500, phase.seconds),
                latencyAt(s, 900, phase.seconds),
                latencyAt(s, 990, phase.seconds),
                permilleName(tail).c_str(),
                latencyAt(s, tail, phase.seconds), s.latencyMs.size(),
                percentile(s.lateUs, 500), percentile(s.lateUs, 990));
}

const char *const kStages[] = {"read",     "decode", "admit",
                               "queue_wait", "dispatch", "solve",
                               "encode",   "write"};

/** Daemon stage means over the accumulated intervals. */
void
stageMeans(const HistogramDeltas &d, Report &report)
{
    for (const char *stage : kStages)
        report.set(std::string("serve.stage.") + stage + "_us",
                   d.mean(std::string("rl_serve_stage_") + stage + "_us"),
                   "us");
}

/** Median Ping round trip on an otherwise idle connection, in us. */
double
pingUs(Daemon &daemon, SpanLog &spans)
{
    serve::ServeClient client = daemon.connect();
    std::vector<double> us;
    const uint32_t firstTrace = spans.newTraces(2000);
    for (uint32_t i = 1; i <= 2000 && client.ok(); ++i) {
        const int64_t t = nowNs();
        serve::Response r;
        if (!client.submitPing(i) ||
            client.receive(r, serve::deadlineAfterMs(5000)) !=
                serve::IoStatus::Ok)
            break;
        const int64_t end = nowNs();
        const uint32_t trace = firstTrace + i - 1;
        spans.add(spanId(trace, 0), 0, trace, "serve.ping", t, end);
        us.push_back(double(end - t) * 1e-3);
    }
    return median(us);
}

/** Shard counters summed over the interval between two scrapes. */
void
shardLedger(const Scrape &a, const Scrape &b, Report &report)
{
    uint64_t solves = 0, hits = 0, locks = 0, busiest = 0;
    const size_t shards = std::min(a.shards.size(), b.shards.size());
    for (size_t i = 0; i < shards; ++i) {
        const uint64_t s = b.shards[i].solves - a.shards[i].solves;
        solves += s;
        busiest = std::max(busiest, s);
        hits += b.shards[i].shardHits - a.shards[i].shardHits;
        locks += b.shards[i].buildLocks - a.shards[i].buildLocks;
    }
    // Busiest shard's solves over the even share: 1 = balanced,
    // `shards` = everything on one shard.
    report.set("serve.shard_skew",
               solves ? double(busiest) * double(shards) / double(solves)
                      : 0.0,
               "ratio");
    report.set("serve.shard_hit_rate",
               solves ? double(hits) / double(solves) : 0.0, "ratio");
    report.set("serve.build_locks", double(locks), "count");
    auto rejected = [](const serve::QueueStatsWire &q) {
        return q.rejectedQueueFull + q.rejectedOversized +
               q.rejectedBadRequest + q.rejectedResource +
               q.rejectedShutdown + q.shedDeadline + q.shedEvicted;
    };
    report.set("serve.rejected", double(rejected(b.queue) - rejected(a.queue)),
               "count");
    report.set("serve.queue_high_water", double(b.queue.highWater),
               "count");
}

} // namespace

bool
runServe(const ServeSpec &spec, const ServeInputs &in,
         const RunOptions &o, Report &report)
{
    const std::string base = o.workdir + "/" + spec.name;
    {
        std::ofstream gfa(base + ".gfa");
        gfa << in.gfa;
        if (!gfa)
            return false;
    }
    DaemonOptions opts;
    opts.binary = o.raceserved;
    opts.socketPath = base + ".sock";
    opts.gfaPath = base + ".gfa";
    opts.logPath = base + ".log";

    // Set-up: spawn to the first Ready Health reply.  The host's
    // speed drifts over seconds, so the other spawns are spread
    // between the rounds rather than run back to back.
    std::vector<double> setups, setupCpus;
    auto spawned = [&](const Daemon &d) {
        setups.push_back(d.setupSeconds());
        setupCpus.push_back(d.setupCpuSeconds());
        return d.ok();
    };
    DaemonOptions throwaway = opts;
    throwaway.socketPath = base + ".setup.sock";
    throwaway.logPath = base + ".setup.log";
    auto daemon = std::make_unique<Daemon>(opts);
    if (!spawned(*daemon))
        return false;

    // Warm-up: every plan of a fixed-shape pool is built before timing.
    std::vector<serve::Response> warmResponses(
        std::min(in.pool.size(), kWarmItems));
    size_t warmNext = 0;
    const Phase warm = closedLoop(
        *daemon, in, 4,
        [&]() -> int64_t {
            return warmNext < warmResponses.size() ? int64_t(warmNext++)
                                                   : -1;
        },
        &warmResponses);
    account(report, summarize(warm, in, spec.limitMs));

    // Rounds of (lo, hi, saturation) blocks: every phase samples the
    // host across the whole run instead of one contiguous slice.
    const double loBlock = kLoShare * o.seconds / kRounds;
    const double hiBlock = kHiShare * o.seconds / kRounds;
    const double satBlock = kSatShare * o.seconds / kRounds;
    SpanLog spans;
    Phase pPlain, pLo, pHi, pSat;
    HistogramDeltas loDeltas, hiDeltas;
    Scrape first, before, after;
    // Daemon CPU seconds per phase, scaled to the reference host by
    // calibration samples taken here, while the daemon idles, ahead of
    // and after each round's blocks.
    double loCpu = 0.0, satCpu = 0.0;
    Calibration calibration;
    ItemBag loBag(o.seed * 4 + 1, in.pool.size()),
        hiBag(o.seed * 4 + 2, in.pool.size()),
        satBag(o.seed * 4 + 3, in.pool.size());
    daemon->scrape(first);
    for (int round = 0; round < kRounds; ++round) {
        calibration.sampleEveryCpu();
        const uint64_t blockSeed = o.seed * 1024 + uint64_t(round) * 4;
        const Stream lo =
            poissonStream(blockSeed + 1, spec.rateLo, loBlock, loBag);
        const Stream hi =
            poissonStream(blockSeed + 2, spec.rateHi, hiBlock, hiBag);
        // One reload per round, alternating between the rate phases.
        const bool reloadLo = spec.reloadPerPhase && round % 2 == 0;
        const bool reloadHi = spec.reloadPerPhase && round % 2 == 1;
        if (o.traced) // the same block untraced: trace-overhead baseline
            append(pPlain, openLoop(*daemon, in, lo, loBlock, reloadLo,
                                    nullptr, kLoSpans));
        daemon->scrape(before);
        const double loCpu0 = daemon->cpuSeconds();
        append(pLo, openLoop(*daemon, in, lo, loBlock, reloadLo,
                             o.traced ? &spans : nullptr, kLoSpans));
        loCpu += daemon->cpuSeconds() - loCpu0;
        daemon->scrape(after);
        loDeltas.add(before, after);
        append(pHi, openLoop(*daemon, in, hi, hiBlock, reloadHi,
                             o.traced ? &spans : nullptr, kHiSpans));
        daemon->scrape(before);
        hiDeltas.add(after, before);

        const int64_t satEnd = nowNs() + int64_t(satBlock * 1e9);
        const double satCpu0 = daemon->cpuSeconds();
        append(pSat, closedLoop(
                         *daemon, in, spec.window,
                         [&]() -> int64_t {
                             return nowNs() < satEnd ? int64_t(satBag.next())
                                                     : -1;
                         },
                         nullptr));
        satCpu += daemon->cpuSeconds() - satCpu0;
        calibration.sampleEveryCpu();
        for (int k = 0; k < kSpawnsPerRound; ++k)
            if (!spawned(Daemon(throwaway)))
                return false;
    }
    daemon->scrape(after);
    const double peakMb = daemon->peakRssMb();

    const PhaseStats sLo = summarize(pLo, in, spec.limitMs);
    const PhaseStats sHi = summarize(pHi, in, spec.limitMs);
    const PhaseStats sSat = summarize(pSat, in, spec.limitMs);
    for (const PhaseStats *s : {&sLo, &sHi, &sSat})
        account(report, *s);
    const PhaseStats sPlain = summarize(pPlain, in, spec.limitMs);
    account(report, sPlain);

    noteOpenPhase(report, "lo", spec.rateLo, pLo, sLo);
    noteOpenPhase(report, "hi", spec.rateHi, pHi, sHi);
    report.note("sat: closed loop, window %zu, %.2f s, sent %zu, failed %zu;"
                " %.1f req/s answered, %zu within %.0f ms",
                spec.window, pSat.seconds, sSat.sent, sSat.failed,
                double(sSat.sent - sSat.failed) / pSat.seconds,
                sSat.withinLimit, spec.limitMs);
    std::string stages;
    for (const char *stage : kStages) {
        char part[64];
        std::snprintf(part, sizeof(part), " %s %.1f", stage,
                      loDeltas.mean(std::string("rl_serve_stage_") + stage +
                                    "_us"));
        stages += part;
    }
    report.note("daemon stage means over lo (us):%s; request %.1f vs "
                "client %.1f",
                stages.c_str(), loDeltas.mean("rl_serve_request_us"),
                sLo.clientMeanUs);

    // Gated: what the daemon spends, in CPU time the host's steal
    // cannot inflate.  The wall-clock figures are printed in every run
    // and reported as layer metrics by traced runs (README.md).
    const double p50Lo = latencyAt(sLo, 500, pLo.seconds);
    const double p50Hi = latencyAt(sHi, 500, pHi.seconds);
    const double goodput = double(sSat.withinLimit) / pSat.seconds;
    const double itemsPerS = double(sSat.items) / pSat.seconds;
    report.note("wall clock: p50_ms_lo %.4f ms, p50_ms_hi %.4f ms, "
                "goodput_rps %.1f, items_per_s %.1f, set-up %.4f s",
                p50Lo, p50Hi, goodput, itemsPerS, median(setups));
    // CPU time cannot see a change that trades latency for CPU (a
    // dispatcher that waits to batch, say).  The wall clock is too
    // noisy to gate, so only a gross trade is caught: a lo-rate median
    // over the goodput limit invalidates the run.
    if (p50Lo > spec.limitMs)
        report.reject("p50 at the lo rate is over the " +
                      std::to_string(int(spec.limitMs)) + " ms limit");
    const double satUs = satCpu * 1e6 / double(sSat.items);
    const double loUs = loCpu * 1e6 / double(sLo.items);
    noteCalibration(report, calibration, satUs, loUs, median(setupCpus));
    if (!o.traced) {
        const double scale = calibration.scale();
        report.set("cpu_us_per_item", satUs * scale, "us");
        report.set("cpu_us_per_item_lo", loUs * scale, "us");
        report.set("setup_s", median(setupCpus) * scale, "s");
        report.set("peak_rss_mb", peakMb, "MiB");
        return true;
    }
    report.set("p50_ms_lo", p50Lo, "ms");
    report.set("p50_ms_hi", p50Hi, "ms");
    report.set("goodput_rps", goodput, "1/s");
    report.set("items_per_s", itemsPerS, "1/s");

    // ---- the serve-side ledger (traced runs).  The tails are here, not
    // among the end-to-end metrics: on the reference host they follow
    // the hypervisor's multi-ms stalls more than the program.
    for (const unsigned permille : {900u, 990u}) {
        const std::string p = permille == 900 ? "p90" : "p99";
        report.set(p + "_ms_lo", latencyAt(sLo, permille, pLo.seconds), "ms");
        report.set(p + "_ms_hi", latencyAt(sHi, permille, pHi.seconds), "ms");
    }
    stageMeans(loDeltas, report);
    report.set("serve.stage.queue_wait_us_hi",
               hiDeltas.mean("rl_serve_stage_queue_wait_us"), "us");
    // The client's share of a lo request: the request span's self time
    // (its interval minus the late and send children) plus the send.
    report.set("serve.unattributed_us",
               (mean(spans.selfTimes(kLoSpans.request)) +
                mean(spans.durations(kLoSpans.send))) *
                       1e-3 -
                   loDeltas.mean("rl_serve_request_us"),
               "us");
    std::vector<double> lateUs;
    for (const char *name : {kLoSpans.late, kHiSpans.late})
        for (double ns : spans.durations(name))
            lateUs.push_back(ns * 1e-3);
    shardLedger(first, after, report);
    std::sort(lateUs.begin(), lateUs.end());
    report.set("loadgen.late_p50_us", percentile(lateUs, 500), "us");
    report.set("loadgen.late_p99_us", percentile(lateUs, 990), "us");
    report.set("trace.overhead_frac",
               sPlain.meanMs > 0 ? sLo.meanMs / sPlain.meanMs - 1.0 : 0.0,
               "ratio");
    report.set("serve.ping_us", pingUs(*daemon, spans), "us");
    std::vector<double> reloads;
    for (int k = 0; k < 3; ++k) {
        const double ms = daemon->reloadMs(daemon->graphVersion());
        if (ms >= 0)
            reloads.push_back(ms);
    }
    report.set("serve.reload_ms", median(reloads), "ms");
    daemon.reset();

    probeWire(in, warmResponses, report);
    probeApi(in, spans, report);
    probeCore(gridPairs(in), spans, report);
    probePangraph(in, spans, report);
    spans.write(base + ".spans.tsv");
    return true;
}

} // namespace perfbench
