/**
 * @file
 * Dynamic time warping on Race Logic.
 *
 * DTW is the other canonical grid-DAG dynamic program: warp two
 * sampled signals onto each other minimizing the summed per-sample
 * distance.  Its recurrence has exactly the edit-graph shape --
 * three predecessors, non-negative node costs -- so the paper's
 * OR-type construction races it unchanged: the node cost |x_i - y_j|
 * becomes the weight of every edge *entering* cell (i, j), and
 * equal samples yield zero-weight edges, which are plain wires in
 * hardware.  This module gives the reference DP, the DAG builder
 * (the gate-level synthesis input and the test oracle), and a small
 * signal workload generator.  The race itself runs through
 * api::RaceEngine::solve(api::RaceProblem::dtw(x, y)) on the dense
 * lattice sweep core::sweepDtwLattice(), which numbers nodes like
 * DtwGraph::node() without building the graph.
 */

#ifndef RACELOGIC_APPS_DTW_H
#define RACELOGIC_APPS_DTW_H

#include <cstdint>
#include <vector>

#include "rl/graph/dag.h"
#include "rl/util/random.h"

namespace racelogic::apps {

/** A quantized signal sample (integer ADC codes). */
using Sample = int64_t;

/** Reference DTW distance (classic O(n*m) DP, band-free). */
int64_t dtwDistance(const std::vector<Sample> &x,
                    const std::vector<Sample> &y);

/** The DTW lattice as a weighted DAG. */
struct DtwGraph {
    graph::Dag dag;
    graph::NodeId source = graph::kNoNode;
    graph::NodeId sink = graph::kNoNode;
    size_t rows = 0; ///< |x|
    size_t cols = 0; ///< |y|

    /** Node id of warp cell (i, j), 1-based like the DP. */
    graph::NodeId
    node(size_t i, size_t j) const
    {
        return static_cast<graph::NodeId>((i - 1) * cols + (j - 1));
    }
};

/** Build the DTW lattice of (x, y); both must be non-empty. */
DtwGraph makeDtwGraph(const std::vector<Sample> &x,
                      const std::vector<Sample> &y);

/**
 * Quantized noisy sine for tests/examples: length samples of
 * amplitude * sin(2*pi*cycles*t/length + phase) + uniform noise,
 * rounded to integers.
 */
std::vector<Sample> quantizedSine(util::Rng &rng, size_t length,
                                  double cycles, double amplitude,
                                  double phase = 0.0,
                                  double noise = 0.0);

} // namespace racelogic::apps

#endif // RACELOGIC_APPS_DTW_H
