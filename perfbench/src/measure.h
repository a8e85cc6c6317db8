/**
 * @file
 * Measurement primitives shared by every perfbench workload: the
 * clock, the percentile rule, and the in-memory span log.
 *
 * Percentiles follow one rule everywhere: nearest rank over the
 * sorted samples, and a tail percentile is *supported* only when at
 * least ten samples lie beyond its rank (kMinBeyond).  Reports name
 * the highest supported tail and the sample count next to every
 * timing, so a p99 taken from 300 samples is never mistaken for one
 * taken from 30000.
 *
 * Spans are the benchmark's own trace: one record per timed call at
 * a layer boundary (name, start, end, parent), kept in memory per
 * thread and written out when the run ends.  A span's self time is
 * its duration minus the part of its interval its children cover.
 */

#ifndef PERFBENCH_MEASURE_H
#define PERFBENCH_MEASURE_H

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Nanoseconds since an arbitrary, process-wide steady epoch. */
int64_t nowNs();

/** Samples that must lie beyond a tail percentile's rank. */
constexpr size_t kMinBeyond = 10;

/**
 * Nearest-rank percentile of ascending `sorted`, with `permille` the
 * percentile in tenths of a percent (500 = p50, 990 = p99, 999 =
 * p99.9).  Integer rank arithmetic, so p99 of 1000 samples is exactly
 * the 990th.  0 when empty.
 */
double percentile(const std::vector<double> &sorted, unsigned permille);

/** Samples strictly beyond the nearest rank of `permille` of n. */
size_t samplesBeyond(size_t n, unsigned permille);

/**
 * The highest of p99.9, p99, p90 and p50 that has at least
 * kMinBeyond samples beyond its rank among n samples; 0 when even
 * p50 is unsupported.
 */
unsigned highestSupported(size_t n);

/** "p99.9" / "p99" / "p90" / "p50" / "none" for a permille value. */
std::string permilleName(unsigned permille);

/** Median of an unsorted sample (copies); 0 when empty. */
double median(std::vector<double> values);

/** Arithmetic mean; 0 when empty. */
double mean(const std::vector<double> &values);

/**
 * Time covered by a parent interval [start, end) that no child
 * interval covers.  Children are clipped to the parent and may
 * overlap each other; the covered part is their union.
 */
int64_t selfTime(int64_t start, int64_t end,
                 std::vector<std::pair<int64_t, int64_t>> children);

/** One timed call at a layer boundary. */
struct Span {
    uint64_t id = 0;     ///< unique within the run
    uint64_t parent = 0; ///< id of the causing span, 0 = root
    uint32_t trace = 0;  ///< spans of one request share this
    const char *name = ""; ///< static string: the layer and call
    int64_t startNs = 0;
    int64_t endNs = 0;

    int64_t durationNs() const { return endNs - startNs; }
};

/**
 * Span id for slot `slot` (< 16) of trace `trace`: ids are derived,
 * not allocated, so threads that record different spans of one
 * request (the sender and the receiver of an open loop) agree on
 * parent ids without sharing state.
 */
constexpr uint64_t
spanId(uint32_t trace, unsigned slot)
{
    return (uint64_t(trace) << 4) | slot;
}

/**
 * Append-only span buffer owned by one thread.  Reserve up front so
 * recording in a timed loop never allocates.
 */
class SpanLog
{
  public:
    void reserve(size_t n) { spans.reserve(n); }

    /** Claim `n` fresh trace ids (one per request); returns the first. */
    uint32_t
    newTraces(size_t n)
    {
        const uint32_t first = nextTrace;
        nextTrace += uint32_t(n);
        return first;
    }

    void
    add(uint64_t id, uint64_t parent, uint32_t trace, const char *name,
        int64_t startNs, int64_t endNs)
    {
        spans.push_back(Span{id, parent, trace, name, startNs, endNs});
    }

    /** Move another thread's spans in (after that thread joined). */
    void absorb(SpanLog &other);

    const std::vector<Span> &all() const { return spans; }

    /** Durations (ns) of every span named `name`. */
    std::vector<double> durations(const char *name) const;

    /**
     * Self time (ns) of every span named `name`, children found by
     * parent id anywhere in the log.
     */
    std::vector<double> selfTimes(const char *name) const;

    /**
     * Write one tab-separated line per span (trace, id, parent, name,
     * start, end in ns).  False when the file cannot be written.
     */
    bool write(const std::string &path) const;

  private:
    std::vector<Span> spans;
    uint32_t nextTrace = 1;
};

} // namespace perfbench

#endif // PERFBENCH_MEASURE_H
