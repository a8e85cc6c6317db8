/**
 * @file
 * The run's result: named metrics with units, the attempt ledger,
 * and human-readable lines printed ahead of the final JSON object.
 */

#ifndef PERFBENCH_REPORT_H
#define PERFBENCH_REPORT_H

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
};

class Report
{
  public:
    /**
     * Record a metric; the first value recorded under a name wins, so
     * a workload's own measurement is never replaced by a companion
     * run's.
     */
    void
    set(const std::string &name, double value, const std::string &unit)
    {
        for (const Metric &m : metrics)
            if (m.name == name)
                return;
        metrics.push_back(Metric{name, value, unit});
    }

    const std::vector<Metric> &all() const { return metrics; }

    /** A line printed before the JSON (context, counts, caveats). */
    template <typename... Args>
    void
    note(const char *format, Args... args)
    {
        char line[512];
        std::snprintf(line, sizeof(line), format, args...);
        notes.emplace_back(line);
    }

    const std::vector<std::string> &lines() const { return notes; }

    /** Mark the run invalid: it reports correct:false and exits 1. */
    void reject(const std::string &reason) { reasons.push_back(reason); }

    /**
     * Why this run must not count: every reject() reason, any failed
     * or wrong attempt, any metric that is not a finite number, and
     * (`gated`) any end-to-end metric that is not above 0 -- a zero
     * denominator or an unreadable counter must never read as the
     * best possible value.  Empty when the run is valid.
     */
    std::vector<std::string>
    problems(bool gated) const
    {
        std::vector<std::string> out = reasons;
        if (attempted == 0)
            out.push_back("nothing was attempted");
        if (failed != 0 || wrong != 0)
            out.push_back(std::to_string(failed) + " of " +
                          std::to_string(attempted) + " attempts failed (" +
                          std::to_string(wrong) + " wrong answers)");
        for (const Metric &m : metrics) {
            if (!std::isfinite(m.value))
                out.push_back(m.name + " is not a finite number");
            else if (gated && m.value <= 0.0)
                out.push_back(m.name + " is not above 0");
        }
        return out;
    }

    /** Every request or call sent. */
    uint64_t attempted = 0;
    /** Refused, timed out, not answered, or answered wrongly; any
     *  failure invalidates the run (the workloads are sized so that
     *  none fails). */
    uint64_t failed = 0;
    /** Ok answers that disagree with the DP oracle. */
    uint64_t wrong = 0;

  private:
    std::vector<Metric> metrics;
    std::vector<std::string> notes;
    std::vector<std::string> reasons;
};

} // namespace perfbench

#endif // PERFBENCH_REPORT_H
