#include "daemon.h"

#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>

#include <fcntl.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include "measure.h"

namespace perfbench {

namespace serve = rl::serve;

namespace {

/** Reap `pid` within `timeoutMs`; true once it has exited. */
bool
reapWithin(pid_t pid, int64_t timeoutMs)
{
    const auto deadline =
        Clock::now() + std::chrono::milliseconds(timeoutMs);
    for (;;) {
        int status = 0;
        const pid_t got = ::waitpid(pid, &status, WNOHANG);
        if (got == pid || got < 0)
            return true;
        if (Clock::now() >= deadline)
            return false;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
}

} // namespace

double
peakRssMbOf(pid_t pid)
{
    const std::string path =
        pid == 0 ? "/proc/self/status"
                 : "/proc/" + std::to_string(pid) + "/status";
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0; // kB -> MiB
    }
    return std::nan("");
}

void
HistogramDeltas::add(const Scrape &before, const Scrape &after)
{
    for (const rl::telemetry::HistogramSnapshot &b :
         after.metrics.histograms) {
        const rl::telemetry::HistogramSnapshot *a =
            before.metrics.histogram(b.name);
        if (!a || b.count < a->count)
            continue;
        std::pair<uint64_t, uint64_t> &acc = sumCount[b.name];
        acc.first += b.sum - a->sum;
        acc.second += b.count - a->count;
    }
}

double
HistogramDeltas::mean(const std::string &name) const
{
    auto it = sumCount.find(name);
    if (it == sumCount.end() || it->second.second == 0)
        return 0.0;
    return double(it->second.first) / double(it->second.second);
}

Daemon::Daemon(const DaemonOptions &options) : opts(options)
{
    ::unlink(opts.socketPath.c_str());
    const std::string workers = std::to_string(opts.workers);
    const std::string depth = std::to_string(opts.depth);
    std::vector<const char *> argv = {
        opts.binary.c_str(), "--unix",  opts.socketPath.c_str(),
        "--gfa",             opts.gfaPath.c_str(), "--workers",
        workers.c_str(),     "--depth", depth.c_str(),
        "--quiet",           nullptr};

    const int64_t t0 = nowNs();
    child = ::fork();
    if (child == 0) {
        // The daemon must not outlive the benchmark, even if the
        // benchmark is killed.
        ::prctl(PR_SET_PDEATHSIG, SIGKILL);
        const int log =
            ::open(opts.logPath.c_str(), O_WRONLY | O_CREAT | O_APPEND,
                   0644);
        if (log >= 0) {
            ::dup2(log, STDOUT_FILENO);
            ::dup2(log, STDERR_FILENO);
        }
        ::execv(argv[0], const_cast<char *const *>(argv.data()));
        std::_Exit(127);
    }
    if (child < 0)
        return;
    if (::clock_getcpuclockid(child, &cpuClock) != 0)
        return;

    const auto deadline = Clock::now() + std::chrono::seconds(30);
    while (Clock::now() < deadline) {
        int status = 0;
        if (::waitpid(child, &status, WNOHANG) == child) {
            child = -1; // exited before it was ready
            return;
        }
        ctl = serve::ServeClient::overUnix(opts.socketPath, 100);
        serve::Response r;
        if (ctl.ok() && ctl.submitHealth(0) &&
            ctl.receive(r, serve::deadlineAfterMs(1000)) ==
                serve::IoStatus::Ok &&
            r.health && r.health->state == serve::HealthState::Ready) {
            setup = double(nowNs() - t0) * 1e-9;
            setupCpu = cpuSeconds();
            ready = true;
            return;
        }
        ctl.close();
        std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
}

Daemon::~Daemon()
{
    ctl.close();
    if (child <= 0)
        return;
    // SIGTERM again every 100 ms: raceserved checks its stop flag
    // before pause(), so a signal landing between the two is only
    // noticed at the next one.
    bool reaped = false;
    for (int attempt = 0; attempt < 100 && !reaped; ++attempt) {
        ::kill(child, SIGTERM);
        reaped = reapWithin(child, 100);
    }
    if (!reaped) {
        ::kill(child, SIGKILL);
        reapWithin(child, 10000);
    }
    ::unlink(opts.socketPath.c_str());
}

serve::ServeClient
Daemon::connect() const
{
    return serve::ServeClient::overUnix(opts.socketPath, 1000);
}

bool
Daemon::control(const std::vector<uint8_t> &payload,
                serve::Response &out)
{
    if (!ctl.ok())
        ctl = connect();
    if (ctl.submitRaw(payload) &&
        ctl.receive(out, serve::deadlineAfterMs(5000)) ==
            serve::IoStatus::Ok)
        return true;
    ctl.close();
    return false;
}

bool
Daemon::scrape(Scrape &out)
{
    serve::Response metrics, stats;
    if (!control(serve::encodeMetricsRequest(0), metrics) ||
        !metrics.metrics || !control(serve::encodeStatsRequest(0), stats) ||
        !stats.queueStats)
        return false;
    out.metrics = std::move(*metrics.metrics);
    out.queue = *stats.queueStats;
    out.shards = std::move(stats.shardStats);
    return true;
}

uint64_t
Daemon::graphVersion()
{
    serve::Response r;
    if (!control(serve::encodeHealthRequest(0), r) || !r.health)
        return 0;
    return r.health->graphVersion;
}

void
Daemon::sighup() const
{
    if (child > 0)
        ::kill(child, SIGHUP);
}

double
Daemon::reloadMs(uint64_t from)
{
    const int64_t t0 = nowNs();
    sighup();
    const auto deadline = Clock::now() + std::chrono::seconds(10);
    while (Clock::now() < deadline) {
        if (graphVersion() > from)
            return double(nowNs() - t0) * 1e-6;
        std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    return -1.0;
}

double
Daemon::cpuSeconds() const
{
    timespec ts{};
    if (child <= 0 || ::clock_gettime(cpuClock, &ts) != 0)
        return std::nan("");
    return double(ts.tv_sec) + double(ts.tv_nsec) * 1e-9;
}

double
Daemon::peakRssMb() const
{
    return child > 0 ? peakRssMbOf(child) : std::nan("");
}

} // namespace perfbench
