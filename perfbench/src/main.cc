/**
 * perfbench: the repository benchmark's measuring binary.
 *
 *   perfbench --workload serve_short|serve_reads|screen_db --seed N
 *             --seconds S --trace 0|1 --raceserved PATH --workdir DIR
 *             [--revision TEXT]
 *
 * Prints context lines, one line per metric with its unit, and as
 * the last line one JSON object: correct, attempted, failed, and the
 * end-to-end metrics (--trace 0) or the per-layer ledger (--trace 1).
 * Exits 1, with correct:false, when any attempt failed or disagreed
 * with its DP oracle or a metric could not be measured (Report::
 * problems); 2 on bad arguments; 3 when the daemon could not be
 * started.
 */

#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <utility>

#include "inputs.h"
#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

using namespace perfbench;

namespace {

/** A traced screen_db run's serve ledger runs at most this long. */
constexpr double kCompanionSeconds = 8.0;

int
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s --workload serve_short|serve_reads|screen_db "
                 "--seed N --seconds S --trace 0|1 --raceserved PATH "
                 "--workdir DIR [--revision TEXT]\n",
                 argv0);
    return 2;
}

/** The host's steal and total CPU ticks so far (/proc/stat). */
std::pair<uint64_t, uint64_t>
cpuTicks()
{
    std::ifstream in("/proc/stat");
    std::string cpu;
    in >> cpu;
    uint64_t total = 0, steal = 0, v = 0;
    for (int field = 0; field < 8 && in >> v; ++field) {
        total += v;
        if (field == 7)
            steal = v;
    }
    return {steal, total};
}

/** The result line; a value that is not a finite number is null. */
void
printJson(const Report &report, bool correct)
{
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct ? "true" : "false",
                (unsigned long long)report.attempted,
                (unsigned long long)report.failed);
    const char *sep = "";
    for (const Metric &m : report.all()) {
        char value[32] = "null";
        if (std::isfinite(m.value))
            std::snprintf(value, sizeof(value), "%.17g", m.value);
        std::printf("%s\"%s\": {\"value\": %s, \"unit\": \"%s\"}", sep,
                    m.name.c_str(), value, m.unit.c_str());
        sep = ", ";
    }
    std::printf("}}\n");
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload, revision = "unknown";
    RunOptions o;
    bool haveSeed = false, haveSeconds = false, haveTrace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            return usage(argv[0]);
        const std::string value = argv[++i];
        if (arg == "--workload") {
            workload = value;
        } else if (arg == "--seed") {
            o.seed = std::strtoull(value.c_str(), nullptr, 10);
            haveSeed = true;
        } else if (arg == "--seconds") {
            o.seconds = std::atof(value.c_str());
            haveSeconds = o.seconds > 0;
        } else if (arg == "--trace") {
            o.traced = value == "1";
            haveTrace = value == "0" || value == "1";
        } else if (arg == "--raceserved") {
            o.raceserved = value;
        } else if (arg == "--workdir") {
            o.workdir = value;
        } else if (arg == "--revision") {
            revision = value;
        } else {
            return usage(argv[0]);
        }
    }
    const ServeSpec *spec = serveSpec(workload);
    if ((!spec && workload != "screen_db") || !haveSeed || !haveSeconds ||
        !haveTrace || o.raceserved.empty() || o.workdir.empty())
        return usage(argv[0]);

    // A daemon that dies mid-phase must fail the write, not kill us.
    std::signal(SIGPIPE, SIG_IGN);

    // The hypervisor's steal during the run, so a slow run on a busy
    // host can be told from a slow program.
    const std::pair<uint64_t, uint64_t> ticks0 = cpuTicks();
    Report report;
    if (spec) {
        ServeInputs inputs = makeServeInputs(*spec, o.seed);
        computeAnswers(inputs);
        if (!runServe(*spec, inputs, o, report)) {
            std::fprintf(stderr, "perfbench: raceserved did not start\n");
            return 3;
        }
        if (o.traced && workload != "serve_short") {
            // serve_reads sends no DTW or affine requests: the solve
            // times of those kinds come from serve_short's pool.
            SpanLog spans;
            probeApi(makeServeInputs(*serveSpec("serve_short"), o.seed),
                     spans, report);
        }
    } else {
        ScreenInputs inputs = makeScreenInputs(o.seed);
        screenAnswers(inputs);
        runScreen(inputs, o, report);
        if (o.traced) {
            // screen_db has no daemon and no graph: its serve, wire,
            // api and pangraph layers come from serve_short's inputs.
            const ServeSpec &companion = *serveSpec("serve_short");
            ServeInputs serveInputs = makeServeInputs(companion, o.seed);
            computeAnswers(serveInputs);
            RunOptions c = o;
            c.seconds = std::min(o.seconds, kCompanionSeconds);
            report.note("serve and pangraph layers: serve_short inputs, "
                        "%g s", c.seconds);
            if (!runServe(companion, serveInputs, c, report)) {
                std::fprintf(stderr,
                             "perfbench: raceserved did not start\n");
                return 3;
            }
        }
    }
    const double failFrac =
        report.attempted ? double(report.failed) / double(report.attempted)
                         : 0.0;
    if (o.traced)
        report.set("fail_frac", failFrac, "ratio");

    std::printf("# perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
                workload.c_str(), (unsigned long long)o.seed, o.seconds,
                o.traced ? 1 : 0);
    const std::pair<uint64_t, uint64_t> ticks1 = cpuTicks();
    const uint64_t allTicks = ticks1.second - ticks0.second;
    std::printf("# host: nproc=%u build=%s compiler=%s revision=%s "
                "steal=%.1f%%\n",
                std::thread::hardware_concurrency(), PERFBENCH_BUILD_TYPE,
                PERFBENCH_COMPILER, revision.c_str(),
                allTicks ? 100.0 * double(ticks1.first - ticks0.first) /
                               double(allTicks)
                         : 0.0);
    for (const std::string &line : report.lines())
        std::printf("# %s\n", line.c_str());
    std::printf("# attempted %llu, failed %llu (wrong answers %llu), "
                "fail_frac %.6f\n",
                (unsigned long long)report.attempted,
                (unsigned long long)report.failed,
                (unsigned long long)report.wrong, failFrac);
    for (const Metric &m : report.all())
        std::printf("%-34s %14.6f %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    const std::vector<std::string> problems = report.problems(!o.traced);
    for (const std::string &problem : problems) {
        std::printf("# invalid: %s\n", problem.c_str());
        std::fprintf(stderr, "perfbench: invalid run: %s\n",
                     problem.c_str());
    }
    printJson(report, problems.empty());
    std::fflush(stdout);
    return problems.empty() ? 0 : 1;
}
