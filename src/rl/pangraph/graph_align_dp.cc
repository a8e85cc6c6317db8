#include "rl/pangraph/graph_align_dp.h"

#include <algorithm>

#include "rl/util/logging.h"

namespace racelogic::pangraph {

GraphDpResult
graphAlignDp(const VariationGraph &graph, const bio::Sequence &read,
             const bio::ScoreMatrix &costs)
{
    rl_assert(costs.isCost(), "the graph oracle minimizes a Cost matrix");
    rl_assert(read.alphabet() == costs.alphabet() &&
                  graph.alphabet() == costs.alphabet(),
              "graph, read, and matrix use different alphabets");
    graph.validate();

    const size_t m = read.size();
    const size_t segs = graph.segmentCount();

    // Character numbering: consecutive by segment in topological
    // order, then offset -- independently recomputed here, but by
    // construction the same convention as compileGraph(), so tables
    // are comparable.
    const std::vector<SegmentId> order = graph.topologicalOrder();
    std::vector<CharPos> firstChar(segs);
    CharPos next = 1;
    for (SegmentId id : order) {
        firstChar[id] = next;
        next += static_cast<CharPos>(graph.segment(id).label.size());
    }
    const size_t positions = next;

    GraphDpResult out;
    out.table = util::Grid<bio::Score>(positions, m + 1,
                                       bio::kScoreInfinity);

    auto relax = [](bio::Score base, bio::Score w) -> bio::Score {
        return base == bio::kScoreInfinity || w == bio::kScoreInfinity
                   ? bio::kScoreInfinity
                   : base + w;
    };

    // Row 0: only read insertions before any graph character.
    out.table.at(0, 0) = 0;
    for (size_t j = 1; j <= m; ++j)
        out.table.at(0, j) =
            relax(out.table.at(0, j - 1), costs.gap(read[j - 1]));

    for (SegmentId id : order) {
        const bio::Sequence &label = graph.segment(id).label;
        for (size_t k = 0; k < label.size(); ++k) {
            const CharPos p = firstChar[id] + static_cast<CharPos>(k);
            const bio::Symbol sym = label[k];
            const bio::Score del = costs.gap(sym);

            // Predecessor rows: the previous character of this
            // segment, or the last character of every predecessor
            // segment (the virtual start for source segments).
            std::vector<CharPos> preds;
            if (k > 0) {
                preds.push_back(p - 1);
            } else if (graph.inLinks(id).empty()) {
                preds.push_back(0);
            } else {
                for (SegmentId q : graph.inLinks(id))
                    preds.push_back(
                        firstChar[q] +
                        static_cast<CharPos>(
                            graph.segment(q).label.size() - 1));
            }

            for (size_t j = 0; j <= m; ++j) {
                bio::Score best = bio::kScoreInfinity;
                for (CharPos q : preds) {
                    // Consume graph char p against a gap.
                    best = std::min(best,
                                    relax(out.table.at(q, j), del));
                    // Substitute/match read[j-1] with graph char p.
                    if (j > 0)
                        best = std::min(
                            best,
                            relax(out.table.at(q, j - 1),
                                  costs.pair(read[j - 1], sym)));
                }
                // Consume read[j-1] against a gap.
                if (j > 0)
                    best = std::min(best,
                                    relax(out.table.at(p, j - 1),
                                          costs.gap(read[j - 1])));
                out.table.at(p, j) = best;
            }
        }
    }

    bio::Score distance = bio::kScoreInfinity;
    for (SegmentId id : graph.sinks()) {
        const CharPos last =
            firstChar[id] +
            static_cast<CharPos>(graph.segment(id).label.size() - 1);
        distance = std::min(distance, out.table.at(last, m));
    }
    rl_assert(distance != bio::kScoreInfinity,
              "no alignment exists; gap weights should guarantee one");
    out.distance = distance;
    return out;
}

} // namespace racelogic::pangraph
