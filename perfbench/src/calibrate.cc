#include "calibrate.h"

#include <array>
#include <cstdint>
#include <ctime>
#include <limits>

#include <sched.h>

#include "measure.h"

namespace perfbench {

namespace {

constexpr size_t kLength = 256;

/** The two fixed strings: a fixed LCG, the second a 20% mutant. */
struct Strings {
    std::array<char, kLength> a{}, b{};

    Strings()
    {
        uint64_t x = 0x9e3779b97f4a7c15ull;
        auto next = [&x]() {
            x = x * 6364136223846793005ull + 1442695040888963407ull;
            return unsigned(x >> 33);
        };
        for (size_t i = 0; i < kLength; ++i) {
            a[i] = "ACGT"[next() % 4];
            b[i] = next() % 5 == 0 ? "ACGT"[next() % 4] : a[i];
        }
    }
};

const Strings &
strings()
{
    static const Strings s;
    return s;
}

} // namespace

double
threadCpuSeconds()
{
    timespec ts{};
    ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return double(ts.tv_sec) + double(ts.tv_nsec) * 1e-9;
}

int
referencePass()
{
    // Dijkstra over the edit grid with a bucket calendar indexed by
    // arrival time: the race the program's kernels run, in the
    // benchmark's own plain form, so host contention slows it about as
    // much as it slows them.
    const Strings &s = strings();
    constexpr size_t kSide = kLength + 1;
    constexpr int kLatest = 2 * int(kLength); // all-indel path
    std::vector<int> arrival(kSide * kSide, std::numeric_limits<int>::max());
    std::vector<std::vector<uint32_t>> calendar(kLatest + 3);
    auto relax = [&](size_t cell, int t) {
        if (t < arrival[cell]) {
            arrival[cell] = t;
            calendar[size_t(t)].push_back(uint32_t(cell));
        }
    };
    relax(0, 0);
    for (int t = 0; t <= kLatest; ++t) {
        const std::vector<uint32_t> &bucket = calendar[size_t(t)];
        for (size_t k = 0; k < bucket.size(); ++k) {
            const size_t cell = bucket[k];
            if (arrival[cell] != t)
                continue; // superseded by an earlier arrival
            const size_t i = cell / kSide, j = cell % kSide;
            if (i == kLength && j == kLength)
                return t;
            // Fig. 2b costs: match 1, mismatch 2, indel 1.
            if (i < kLength && j < kLength)
                relax(cell + kSide + 1, t + (s.a[i] == s.b[j] ? 1 : 2));
            if (i < kLength)
                relax(cell + kSide, t + 1);
            if (j < kLength)
                relax(cell + 1, t + 1);
        }
    }
    return -1;
}

double
Calibration::passesFor(double seconds)
{
    volatile int sink = 0;
    const double start = threadCpuSeconds();
    double now = start;
    size_t passes = 0;
    do {
        sink = sink + referencePass();
        ++passes;
        now = threadCpuSeconds();
    } while (now - start < seconds);
    return (now - start) * 1e6 / double(passes);
}

void
Calibration::sample(double seconds)
{
    usPerPass.push_back(passesFor(seconds));
}

void
Calibration::sampleEveryCpu(double seconds)
{
    cpu_set_t allowed;
    if (::sched_getaffinity(0, sizeof(allowed), &allowed) != 0) {
        sample(seconds);
        return;
    }
    std::vector<int> cpus;
    for (int c = 0; c < CPU_SETSIZE; ++c)
        if (CPU_ISSET(c, &allowed))
            cpus.push_back(c);
    double sum = 0.0;
    for (int c : cpus) {
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(c, &one);
        ::sched_setaffinity(0, sizeof(one), &one);
        sum += passesFor(seconds / double(cpus.size()));
    }
    ::sched_setaffinity(0, sizeof(allowed), &allowed);
    usPerPass.push_back(sum / double(cpus.size()));
}

double
Calibration::medianUs() const
{
    return median(usPerPass);
}

double
Calibration::scale() const
{
    return usPerPass.empty() ? std::numeric_limits<double>::quiet_NaN()
                             : kReferenceUs / medianUs();
}

void
noteCalibration(Report &report, const Calibration &calibration,
                double rawUsPerItem, double rawUsPerItemLo, double rawSetupS)
{
    report.note("calibration: reference pass p50 %.2f us over %zu samples "
                "(reference host %.0f us, scale %.4f); unscaled CPU: "
                "cpu_us_per_item %.2f us, cpu_us_per_item_lo %.2f us, "
                "setup_s %.6f s",
                calibration.medianUs(), calibration.size(), kReferenceUs,
                calibration.scale(), rawUsPerItem, rawUsPerItemLo,
                rawSetupS);
}

} // namespace perfbench
