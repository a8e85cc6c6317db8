/**
 * @file
 * Host-speed calibration for the gated CPU-time metrics.
 *
 * The reference host's speed drifts by 10-90% over minutes, and
 * differs between its CPUs at the same moment: other tenants share
 * the physical cores.  CPU time per item drifts with it.  A fixed
 * reference computation -- a race over the edit grid of two fixed
 * strings, in code of the benchmark's own that no change to the
 * program can touch -- is timed in samples spread through the run,
 * between the measured blocks.  Multiplying the run's CPU time by
 * kReferenceUs over the median sample gives the time it would have
 * taken on a host where one reference pass costs kReferenceUs: most
 * of the drift cancels, and a change to the program still moves the
 * figure in full.  Samples are too short to pair one with each block;
 * the run's median is what tracks the host.
 *
 * The reference is a race, not a textbook DP loop, because contention
 * slows the two differently: over four minutes in which the CPU time
 * per screened candidate swung +-15%, its ratio to this race held
 * within +-4%, its ratio to an edit-distance DP loop only +-9%.
 */

#ifndef PERFBENCH_CALIBRATE_H
#define PERFBENCH_CALIBRATE_H

#include <cstddef>
#include <vector>

#include "report.h"

namespace perfbench {

/** CPU microseconds one reference pass takes on the reference host. */
constexpr double kReferenceUs = 1000.0;

/** CPU seconds of this thread (the calibration runs on it). */
double threadCpuSeconds();

/**
 * One reference pass: the shortest-path race (bucket-calendar
 * Dijkstra, Fig. 2b costs) across the edit grid of two fixed
 * 256-symbol strings.  Always returns the same value.
 */
int referencePass();

class Calibration
{
  public:
    /**
     * Time reference passes for about `seconds` of this thread's CPU
     * and record the CPU microseconds per pass.
     */
    void sample(double seconds = 0.1);

    /**
     * The same, split evenly over every CPU this thread may run on,
     * pinned to each in turn, recording the mean cost per pass: the
     * host's speed as seen by threads of another process (the daemon)
     * that roam across those CPUs.
     */
    void sampleEveryCpu(double seconds = 0.12);

    /**
     * Factor that turns CPU time measured across the samples into
     * reference-host time: kReferenceUs over the median cost per pass.
     * NaN before any sample.
     */
    double scale() const;

    size_t size() const { return usPerPass.size(); }

    /** Median CPU microseconds per pass; 0 before any sample. */
    double medianUs() const;

  private:
    /** CPU microseconds per pass over about `seconds`. */
    static double passesFor(double seconds);

    std::vector<double> usPerPass;
};

/**
 * Note the calibration and the unscaled figures (CPU microseconds per
 * item at saturation and at the lo rate, set-up CPU seconds) ahead of
 * the result.
 */
void noteCalibration(Report &report, const Calibration &calibration,
                     double rawUsPerItem, double rawUsPerItemLo,
                     double rawSetupS);

} // namespace perfbench

#endif // PERFBENCH_CALIBRATE_H
