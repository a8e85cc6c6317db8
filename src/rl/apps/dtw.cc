#include "rl/apps/dtw.h"

#include <algorithm>
#include <cmath>

#include "rl/util/logging.h"

namespace racelogic::apps {

namespace {

int64_t
cost(Sample a, Sample b)
{
    return a > b ? a - b : b - a;
}

} // namespace

int64_t
dtwDistance(const std::vector<Sample> &x, const std::vector<Sample> &y)
{
    rl_assert(!x.empty() && !y.empty(), "DTW of an empty signal");
    const size_t n = x.size();
    const size_t m = y.size();
    constexpr int64_t inf = INT64_MAX / 4;

    std::vector<int64_t> prev(m + 1, inf), curr(m + 1, inf);
    prev[0] = 0; // virtual start before both signals
    for (size_t i = 1; i <= n; ++i) {
        curr[0] = inf;
        for (size_t j = 1; j <= m; ++j) {
            int64_t best =
                std::min({prev[j], curr[j - 1], prev[j - 1]});
            curr[j] = best >= inf ? inf
                                  : best + cost(x[i - 1], y[j - 1]);
        }
        std::swap(prev, curr);
    }
    return prev[m];
}

DtwGraph
makeDtwGraph(const std::vector<Sample> &x, const std::vector<Sample> &y)
{
    rl_assert(!x.empty() && !y.empty(), "DTW of an empty signal");
    DtwGraph g;
    g.rows = x.size();
    g.cols = y.size();
    g.dag.addNodes(g.rows * g.cols);
    g.source = g.dag.addNode("dtwSource");
    g.sink = g.node(g.rows, g.cols);

    // The node cost |x_i - y_j| weighs every edge entering (i, j).
    g.dag.addEdge(g.source, g.node(1, 1), cost(x[0], y[0]));
    for (size_t i = 1; i <= g.rows; ++i) {
        for (size_t j = 1; j <= g.cols; ++j) {
            int64_t w = cost(x[i - 1], y[j - 1]);
            if (i > 1)
                g.dag.addEdge(g.node(i - 1, j), g.node(i, j), w);
            if (j > 1)
                g.dag.addEdge(g.node(i, j - 1), g.node(i, j), w);
            if (i > 1 && j > 1)
                g.dag.addEdge(g.node(i - 1, j - 1), g.node(i, j), w);
        }
    }
    return g;
}

std::vector<Sample>
quantizedSine(util::Rng &rng, size_t length, double cycles,
              double amplitude, double phase, double noise)
{
    rl_assert(length >= 1, "empty signal requested");
    std::vector<Sample> signal(length);
    constexpr double tau = 2.0 * 3.14159265358979323846;
    for (size_t t = 0; t < length; ++t) {
        double value =
            amplitude *
            std::sin(tau * cycles * double(t) / double(length) + phase);
        if (noise > 0.0)
            value += (rng.uniformReal() * 2.0 - 1.0) * noise;
        signal[t] = static_cast<Sample>(std::llround(value));
    }
    return signal;
}

} // namespace racelogic::apps
