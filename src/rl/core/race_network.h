/**
 * @file
 * Compiling a weighted DAG into a race and running it.
 *
 * This is the paper's Section 3 construction: "all nodes are replaced
 * with OR/AND gates while edges [are replaced] with corresponding
 * delays", and the shortest/longest path is read off as the
 * propagation time from the root node(s) to the output node(s).
 *
 * Two execution backends are provided:
 *
 *  - raceDag(): the race's outcome on the DAG itself.  A node's
 *    firing time is the MIN (OR gate) or MAX (AND gate) of its
 *    in-edge arrivals, so one push sweep in topological order fixes
 *    every node before its out-edges are pushed -- O(V + E) for any
 *    weights, no clock loop and no event queue.  Per-node firing
 *    times (the "wavefront"), event counts and the horizon equal
 *    what the hardware's clock-by-clock race produces;
 *    raceDagEventDriven() is the heap-scheduled discrete-event
 *    reference it is tested against (tests/core_wavefront_test.cc).
 *
 *  - compileRaceCircuit(): an actual gate-level netlist (OR/AND
 *    gates + DFF delay chains) runnable on circuit::CompiledSim (the
 *    engine's gate-level backend) or the reference circuit::SyncSim.
 *    This is the synthesizable artifact; the behavioral backend and
 *    the DP oracle validate it.
 */

#ifndef RACELOGIC_CORE_RACE_NETWORK_H
#define RACELOGIC_CORE_RACE_NETWORK_H

#include <vector>

#include "rl/circuit/netlist.h"
#include "rl/core/temporal.h"
#include "rl/graph/dag.h"
#include "rl/sim/tick.h"

namespace racelogic::core {

/** Gate family the nodes become (paper Fig. 3b vs 3c). */
enum class RaceType {
    Or,  ///< first arrival wins: min / shortest path
    And, ///< last arrival wins: max / longest path
};

/** Outcome of a DAG race (event-driven, or a lattice sweep). */
struct RaceOutcome {
    /** Per-node firing time ("never" where the signal can't reach). */
    std::vector<TemporalValue> firing;

    /** Events processed by the simulation. */
    uint64_t events = 0;

    /** Latest firing time among fired nodes (total race duration). */
    sim::Tick horizon = 0;

    /**
     * True iff a CancelToken stopped a lattice sweep
     * (rl/core/lattice_sweep.h); then no other field is defined.
     * raceDag() takes no token and never sets it.
     */
    bool cancelled = false;

    TemporalValue
    at(graph::NodeId node) const
    {
        return firing[node];
    }
};

/**
 * Race-readiness bound on edit weights (2^16), checked on outside
 * input: matrices at validation (api/validate.h) and pangenome plans
 * (pangraph::checkCompilable), and the wire protocol's cap.  It
 * bounds the DFF-chain length a gate-level fabric synthesizes per
 * edge; raceDag() itself races any weight.
 */
constexpr graph::Weight kMaxRaceWeight = 1 << 16;

/**
 * Race over `dag` injecting a rising edge at every node in `sources`
 * at tick 0: one push sweep in topological order (Kahn's countdown).
 *
 * Requirements checked: the graph is acyclic and every edge weight
 * is >= 0 (Race Logic cannot realize negative delays; Section 5).
 * For RaceType::And the hardware fires a node only after *all*
 * in-edges have fired, so any node with an in-edge that cannot fire
 * stays at never(); callers comparing against a longest-path DP
 * should ensure all predecessors are reachable (see
 * andRaceMatchesDp()).  A source fires at tick 0 whatever else
 * reaches it (the injected edge dominates).
 *
 * `events` counts the arrivals the race simulates (one per out-edge
 * of a fired node that lands by the horizon), and `horizon` is the
 * latest firing time -- both as raceDagEventDriven() reports them.
 *
 * @param horizon  Section 6 early termination: arrivals later than
 *                 this tick never happen, so nodes whose signal
 *                 would arrive past the horizon stay at never().
 *                 Default races to full drain.
 */
RaceOutcome raceDag(const graph::Dag &dag,
                    const std::vector<graph::NodeId> &sources,
                    RaceType type,
                    sim::Tick horizon = sim::kTickInfinity);

/**
 * The heap-scheduled reference kernel: one sim::EventQueue callback
 * per edge arrival, in time order as the hardware clocks them.  Same
 * semantics (and same outcome, event counts included) as raceDag();
 * kept as the equivalence reference for it.
 */
RaceOutcome raceDagEventDriven(const graph::Dag &dag,
                               const std::vector<graph::NodeId> &sources,
                               RaceType type,
                               sim::Tick horizon = sim::kTickInfinity);

/**
 * True iff an AND-type race over this graph/source set computes the
 * same values as the longest-path DP at every node: that is, every
 * node is either unreachable or has all of its predecessors
 * reachable.  (OR-type races always match the shortest-path DP.)
 */
bool andRaceMatchesDp(const graph::Dag &dag,
                      const std::vector<graph::NodeId> &sources);

/** A DAG compiled to gates, with the net bindings needed to run it. */
struct RaceCircuit {
    circuit::Netlist netlist;

    /** Primary-input net of each source node (in `sources` order). */
    std::vector<circuit::NetId> sourceInputs;

    /** Net carrying each DAG node's firing signal. */
    std::vector<circuit::NetId> nodeNets;
};

/**
 * Compile `dag` into a synchronous race circuit (Fig. 3b/3c): each
 * non-source node becomes one OR/AND gate, each weight-w edge a
 * w-deep DFF chain (weight 0 = plain wire).
 *
 * fatal() on negative weights or cyclic graphs.  Run by driving
 * sourceInputs high at cycle 0 and stepping a gate-level simulator
 * (circuit::CompiledSim::runUntil) until the sink's nodeNets entry
 * rises; the cycle number is the path score.
 */
RaceCircuit compileRaceCircuit(const graph::Dag &dag,
                               const std::vector<graph::NodeId> &sources,
                               RaceType type);

} // namespace racelogic::core

#endif // RACELOGIC_CORE_RACE_NETWORK_H
