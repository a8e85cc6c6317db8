/**
 * @file
 * The real raceserved binary as a child process: spawn until Health
 * reports Ready, scrape Metrics and Stats at phase boundaries,
 * SIGHUP reloads, peak RSS, and a drain on destruction.
 */

#ifndef PERFBENCH_DAEMON_H
#define PERFBENCH_DAEMON_H

#include <ctime>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include <sys/types.h>

#include "rl/serve/client.h"
#include "rl/telemetry/registry.h"

namespace perfbench {

namespace rl = racelogic;

/** How to start one daemon. */
struct DaemonOptions {
    std::string binary;     ///< path to raceserved
    std::string socketPath; ///< Unix socket (relative to the cwd)
    std::string gfaPath;    ///< the pangenome to preload and reload
    std::string logPath;    ///< the daemon's stderr
    size_t workers = 2;
    size_t depth = 1024;
};

/** Both counter endpoints at one instant. */
struct Scrape {
    rl::telemetry::Snapshot metrics;
    rl::serve::QueueStatsWire queue;
    std::vector<rl::serve::ShardStatsWire> shards;
};

/**
 * Histogram sums and counts accumulated over scrape intervals, so a
 * mean over several disjoint intervals is still exact (from the
 * _sum/_count deltas, not from bucket estimates).
 */
class HistogramDeltas
{
  public:
    void add(const Scrape &before, const Scrape &after);

    /** Mean recorded value of `name`; 0 when nothing was recorded. */
    double mean(const std::string &name) const;

  private:
    std::map<std::string, std::pair<uint64_t, uint64_t>> sumCount;
};

class Daemon
{
  public:
    /**
     * Fork and exec the daemon, then poll its socket until a Health
     * reply reports Ready.  ok() is false when it never got there.
     */
    explicit Daemon(const DaemonOptions &options);

    /** SIGTERM, wait for the drain; SIGKILL if it does not end. */
    ~Daemon();

    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    bool ok() const { return ready; }

    /** Seconds from fork to the first Ready Health reply. */
    double setupSeconds() const { return setup; }

    /**
     * CPU seconds the daemon's threads had used when it first
     * reported Ready: its set-up work, whatever the host's steal.
     */
    double setupCpuSeconds() const { return setupCpu; }

    /**
     * CPU seconds the daemon has used so far, exited threads included
     * (its process CPU-time clock, in ns); NaN once it is gone.  Time
     * the hypervisor stole is not in it.
     */
    double cpuSeconds() const;

    /** A fresh load connection (the caller owns it). */
    rl::serve::ServeClient connect() const;

    /** Metrics + Stats over the control connection. */
    bool scrape(Scrape &out);

    /** Graph version from Health; 0 on failure. */
    uint64_t graphVersion();

    /** Send SIGHUP (the reload itself runs in the daemon). */
    void sighup() const;

    /**
     * SIGHUP, then poll Health until the graph version moves past
     * `from`; the milliseconds that took, or a negative value if it
     * never moved within 10 s.
     */
    double reloadMs(uint64_t from);

    /** The daemon's VmHWM in MiB; NaN if unreadable. */
    double peakRssMb() const;

  private:
    /** Send one control request and receive its reply. */
    bool control(const std::vector<uint8_t> &payload,
                 rl::serve::Response &out);

    DaemonOptions opts;
    pid_t child = -1;
    clockid_t cpuClock = CLOCK_PROCESS_CPUTIME_ID;
    bool ready = false;
    double setup = 0.0;
    double setupCpu = 0.0;
    rl::serve::ServeClient ctl;
};

/** VmHWM of a process (`pid` 0 = this one) in MiB; NaN if unreadable. */
double peakRssMbOf(pid_t pid);

} // namespace perfbench

#endif // PERFBENCH_DAEMON_H
