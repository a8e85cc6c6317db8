/**
 * @file
 * Affine-gap alignment (Gotoh) and its Race Logic mapping.
 *
 * The paper's cost model charges every indel equally; real
 * bioinformatics pipelines charge gap *opening* more than gap
 * *extension*.  The classic Gotoh formulation tracks three states
 * per cell -- M (last step aligned a pair), Ix (gap in b), Iy (gap
 * in a).  That is still a DAG: three nodes per grid cell with
 * open/extend-weighted edges, so Race Logic accelerates it with the
 * same OR-type construction as the linear-gap case -- a working
 * instance of the paper's "not limited to" claim.  This module
 * provides the reference Gotoh DP and the 3-layer edit-graph builder
 * (the gate-level synthesis input and the test oracle); the engine
 * races the lattice on core::sweepAffineLattice()
 * (rl/core/lattice_sweep.h), which numbers nodes like
 * AffineEditGraph::node() without building the graph.
 */

#ifndef RACELOGIC_BIO_AFFINE_H
#define RACELOGIC_BIO_AFFINE_H

#include "rl/bio/score_matrix.h"
#include "rl/bio/sequence.h"
#include "rl/graph/dag.h"

namespace racelogic::bio {

/** Affine gap weights (cost semantics, race-ready when >= 1). */
struct AffineGapCosts {
    Score open = 2;   ///< first residue of a gap
    Score extend = 1; ///< each further residue
};

/**
 * Reference Gotoh DP: minimal affine-gap global alignment cost.
 *
 * @param a, b   Sequences.
 * @param costs  Cost-kind substitution matrix (pair weights used;
 *               its gap column is ignored -- gaps come from `gaps`).
 * @param gaps   Affine gap parameters.
 */
Score affineGlobalScore(const Sequence &a, const Sequence &b,
                        const ScoreMatrix &costs,
                        const AffineGapCosts &gaps);

/** The 3-layer affine edit graph, ready to race. */
struct AffineEditGraph {
    graph::Dag dag;
    graph::NodeId source = graph::kNoNode; ///< M(0,0)
    graph::NodeId sink = graph::kNoNode;   ///< collector over M/Ix/Iy(n,m)
    size_t rows = 0;
    size_t cols = 0;

    /** Layers of the lattice. */
    enum Layer { M = 0, Ix = 1, Iy = 2 };

    /** Node id of (layer, i, j). */
    graph::NodeId
    node(Layer layer, size_t i, size_t j) const
    {
        return static_cast<graph::NodeId>(
            (static_cast<size_t>(layer) * (rows + 1) + i) * (cols + 1) +
            j);
    }
};

/**
 * Build the affine edit graph of (a, b).
 *
 * Requirements for race-readiness (checked): all finite pair weights
 * >= 1, open >= 1, extend >= 1.  Forbidden pairs (kScoreInfinity)
 * become missing M-edges.  Zero-weight collector edges (plain wires
 * in hardware) merge the three terminal states into the single sink,
 * so the raced sink arrival equals affineGlobalScore() exactly.
 */
AffineEditGraph makeAffineEditGraph(const Sequence &a,
                                    const Sequence &b,
                                    const ScoreMatrix &costs,
                                    const AffineGapCosts &gaps);

} // namespace racelogic::bio

#endif // RACELOGIC_BIO_AFFINE_H
