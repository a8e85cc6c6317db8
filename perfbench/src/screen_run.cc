/**
 * screen_db: one query screened against a database through the
 * library's RaceEngine::screen on a serial engine, with no serving
 * layer.  A call screens one candidate.  The open-loop
 * phases offer calls at fixed rates on this one thread -- a call due
 * while the previous one still runs waits, and that wait counts in
 * its latency -- and the saturation phase calls back to back.
 */

#include <algorithm>
#include <thread>
#include <tuple>

#include "calibrate.h"
#include "daemon.h"
#include "rl/api/engine.h"
#include "workloads.h"

namespace perfbench {

namespace {

/**
 * Cold-engine set-ups per round; set-up time is the median of all of
 * them, spread between the rounds as the host's speed drifts.
 */
constexpr int kSetupsPerRound = 3;

/** Shares of --seconds per phase, as in the serve runs. */
constexpr double kLoShare = 0.40, kHiShare = 0.20, kSatShare = 0.40;
constexpr int kRounds = 10;

rl::api::EngineConfig
screenConfig()
{
    rl::api::EngineConfig cfg;
    cfg.workerThreads = 1; // the host shows no parallel gain
    return cfg;
}

struct Screener {
    const ScreenInputs &in;
    /** screen() takes a database; each call's is one candidate. */
    std::vector<std::vector<rl::bio::Sequence>> calls;
    rl::api::RaceEngine engine{screenConfig()};

    explicit Screener(const ScreenInputs &inputs) : in(inputs)
    {
        for (const rl::bio::Sequence &candidate : in.database)
            calls.push_back({candidate});
    }

    /** Screen candidate `c`; false if the verdict or score disagrees. */
    bool
    call(size_t c)
    {
        const rl::api::BatchOutcome out =
            engine.screen(costs(), in.threshold, in.query, calls[c]);
        if (out.results.size() != 1)
            return false;
        const Answer &want = in.answers[c];
        const rl::api::RaceResult &got = out.results[0];
        return got.accepted == want.accepted &&
               (!want.accepted || got.score == want.score);
    }
};

struct CallStats {
    size_t calls = 0, wrong = 0, withinLimit = 0;
    std::vector<double> latencyMs; ///< ascending
    std::vector<double> lateUs;    ///< idle-loop wake-up lateness
    double meanMs = 0.0;
};

void
finish(CallStats &s)
{
    std::sort(s.latencyMs.begin(), s.latencyMs.end());
    std::sort(s.lateUs.begin(), s.lateUs.end());
    s.meanMs = mean(s.latencyMs);
}

/** Calls at the stream's due times on this thread, added to `s`. */
void
openLoop(Screener &screener, const Stream &stream, double limitMs,
         SpanLog *spans, CallStats &s)
{
    const int64_t t0 = nowNs() + 2'000'000;
    const uint32_t firstTrace =
        spans ? spans->newTraces(stream.dueNs.size()) : 1;
    for (size_t i = 0; i < stream.dueNs.size(); ++i) {
        const int64_t due = t0 + stream.dueNs[i];
        const bool idle = nowNs() < due;
        if (idle)
            std::this_thread::sleep_until(
                Clock::time_point(std::chrono::nanoseconds(due)));
        const int64_t start = nowNs();
        if (idle)
            s.lateUs.push_back(double(start - due) * 1e-3);
        const size_t c = stream.item[i];
        const bool ok = screener.call(c);
        const int64_t end = nowNs();
        if (spans) {
            const uint32_t id = firstTrace + uint32_t(i);
            spans->add(spanId(id, 0), 0, id, "screen.request", due, end);
            spans->add(spanId(id, 1), spanId(id, 0), id, "api.screen",
                       start, end);
        }
        ++s.calls;
        s.wrong += !ok;
        const double ms = double(end - due) * 1e-6;
        s.latencyMs.push_back(ms);
        s.withinLimit += ok && ms <= limitMs;
    }
}

} // namespace

void
runScreen(const ScreenInputs &in, const RunOptions &o, Report &report)
{
    const ScreenSpec &spec = screenSpec();

    // Set-up: engine construction, the first plan, and the first
    // verdict -- a cold engine's time to its first screened candidate.
    // That candidate is the database's first unrelated one: a related
    // one races to the end, and set-up would swing with the seed.
    std::vector<double> setups, setupCpus;
    size_t firstRejected = 0;
    while (firstRejected + 1 < in.database.size() &&
           in.answers[firstRejected].accepted)
        ++firstRejected;
    const std::vector<rl::bio::Sequence> first = {
        in.database[firstRejected]};
    auto setUp = [&]() {
        const int64_t t = nowNs();
        const double cpu = threadCpuSeconds();
        rl::api::RaceEngine engine(screenConfig());
        (void)engine.screen(costs(), in.threshold, in.query, first);
        setupCpus.push_back(threadCpuSeconds() - cpu);
        setups.push_back(double(nowNs() - t) * 1e-9);
    };

    Screener screener(in);
    const size_t candidates = in.database.size();
    size_t warmWrong = 0;
    for (size_t c = 0; c < candidates; ++c)
        warmWrong += !screener.call(c);
    report.attempted += candidates;
    report.failed += warmWrong;
    report.wrong += warmWrong;

    // Rounds of (lo, hi, saturation) blocks, as in the serve runs.
    const double loBlock = kLoShare * o.seconds / kRounds;
    const double hiBlock = kHiShare * o.seconds / kRounds;
    const double satBlock = kSatShare * o.seconds / kRounds;
    SpanLog spans;
    SpanLog *traced = o.traced ? &spans : nullptr;
    CallStats sPlain, sLo, sHi, sat;
    // The serial engine runs on this thread, and so do the calibration
    // samples, ahead of and after each round's blocks.
    Calibration calibration;
    ItemBag loBag(o.seed * 4 + 1, candidates),
        hiBag(o.seed * 4 + 2, candidates), satBag(o.seed * 4 + 3, candidates);
    double satSeconds = 0.0, loCpu = 0.0, satCpu = 0.0;
    for (int round = 0; round < kRounds; ++round) {
        calibration.sample();
        const uint64_t blockSeed = o.seed * 1024 + uint64_t(round) * 4;
        const Stream lo =
            poissonStream(blockSeed + 1, spec.rateLo, loBlock, loBag);
        const Stream hi =
            poissonStream(blockSeed + 2, spec.rateHi, hiBlock, hiBag);
        if (o.traced) // the same block untraced: trace-overhead baseline
            openLoop(screener, lo, spec.limitMs, nullptr, sPlain);
        const double loCpu0 = threadCpuSeconds();
        openLoop(screener, lo, spec.limitMs, traced, sLo);
        loCpu += threadCpuSeconds() - loCpu0;
        openLoop(screener, hi, spec.limitMs, traced, sHi);

        const double satCpu0 = threadCpuSeconds();
        const int64_t satBegin = nowNs();
        const int64_t satEnd = satBegin + int64_t(satBlock * 1e9);
        while (nowNs() < satEnd) {
            const size_t c = satBag.next();
            const int64_t t = nowNs();
            const bool ok = screener.call(c);
            const double ms = double(nowNs() - t) * 1e-6;
            ++sat.calls;
            sat.wrong += !ok;
            sat.withinLimit += ok && ms <= spec.limitMs;
            sat.latencyMs.push_back(ms);
        }
        satSeconds += double(nowNs() - satBegin) * 1e-9;
        satCpu += threadCpuSeconds() - satCpu0;
        calibration.sample();
        for (int k = 0; k < kSetupsPerRound; ++k)
            setUp();
    }
    for (CallStats *s : {&sPlain, &sLo, &sHi, &sat}) {
        finish(*s);
        report.attempted += s->calls;
        report.failed += s->wrong;
        report.wrong += s->wrong;
    }

    size_t accepted = 0;
    for (const Answer &a : in.answers)
        accepted += a.accepted;
    report.note("screen_db: %zu candidates of %zu nt query, threshold %lld,"
                " %zu accepted by the DP oracle; one candidate per call",
                in.database.size(), in.query.size(),
                (long long)in.threshold, accepted);
    for (const auto &[label, rate, s] :
         {std::tuple<const char *, double, const CallStats *>{
              "lo", spec.rateLo, &sLo},
          {"hi", spec.rateHi, &sHi}}) {
        const unsigned tail = highestSupported(s->latencyMs.size());
        report.note("%s: offered %.0f calls/s, %zu calls; p50 %.3f ms, "
                    "p90 %.3f ms, p99 %.3f ms; highest supported tail %s ="
                    " %.3f ms (n=%zu); wake-up late p50 %.0f us p99 %.0f us",
                    label, rate, s->calls, percentile(s->latencyMs, 500),
                    percentile(s->latencyMs, 900),
                    percentile(s->latencyMs, 990),
                    permilleName(tail).c_str(),
                    percentile(s->latencyMs, tail), s->latencyMs.size(),
                    percentile(s->lateUs, 500), percentile(s->lateUs, 990));
    }
    const double correctCalls = double(sat.calls - sat.wrong);
    report.note("sat: %zu calls in %.2f s, %.0f candidates/s", sat.calls,
                satSeconds, correctCalls / satSeconds);

    // Gated in CPU time, as the serve runs; wall clock is reported.
    const double p50Lo = percentile(sLo.latencyMs, 500);
    const double p50Hi = percentile(sHi.latencyMs, 500);
    const double goodput = double(sat.withinLimit) / satSeconds;
    report.note("wall clock: p50_ms_lo %.4f ms, p50_ms_hi %.4f ms, "
                "goodput_rps %.1f, items_per_s %.1f, set-up %.6f s",
                p50Lo, p50Hi, goodput, correctCalls / satSeconds,
                median(setups));
    // The serve runs' latency guard (serve_run.cc), on the same terms.
    if (p50Lo > spec.limitMs)
        report.reject("p50 at the lo rate is over the " +
                      std::to_string(int(spec.limitMs)) + " ms limit");
    const double satUs = satCpu * 1e6 / correctCalls;
    const double loUs = loCpu * 1e6 / double(sLo.calls - sLo.wrong);
    noteCalibration(report, calibration, satUs, loUs, median(setupCpus));
    if (!o.traced) {
        const double scale = calibration.scale();
        report.set("cpu_us_per_item", satUs * scale, "us");
        report.set("cpu_us_per_item_lo", loUs * scale, "us");
        report.set("setup_s", median(setupCpus) * scale, "s");
        report.set("peak_rss_mb", peakRssMbOf(0), "MiB");
        return;
    }
    report.set("p50_ms_lo", p50Lo, "ms");
    report.set("p50_ms_hi", p50Hi, "ms");
    report.set("goodput_rps", goodput, "1/s");
    report.set("items_per_s", correctCalls / satSeconds, "1/s");

    for (const unsigned permille : {900u, 990u}) {
        const std::string p = permille == 900 ? "p90" : "p99";
        report.set(p + "_ms_lo", percentile(sLo.latencyMs, permille), "ms");
        report.set(p + "_ms_hi", percentile(sHi.latencyMs, permille), "ms");
    }
    std::vector<double> late = sLo.lateUs;
    late.insert(late.end(), sHi.lateUs.begin(), sHi.lateUs.end());
    std::sort(late.begin(), late.end());
    report.set("loadgen.late_p50_us", percentile(late, 500), "us");
    report.set("loadgen.late_p99_us", percentile(late, 990), "us");
    report.set("trace.overhead_frac",
               sPlain.meanMs > 0 ? sLo.meanMs / sPlain.meanMs - 1.0 : 0.0,
               "ratio");

    std::vector<GridPair> pairs;
    for (const rl::bio::Sequence &candidate : in.database)
        pairs.push_back(GridPair{in.query, candidate,
                                 rl::sim::Tick(in.threshold)});
    probeCore(pairs, spans, report);
    spans.write(o.workdir + "/screen_db.spans.tsv");
}

} // namespace perfbench
