// Engineering-change deltas over a Network: the edit vocabulary of the
// incremental pipeline. A NetDelta is an ordered list of operations —
// add/remove/rewire/refunction/retarget — applied atomically by
// Network::apply_delta, which advances the network one version and returns
// the directly edited nodes. The ECO pipeline expands those to their dirty
// cones and re-derives only what they reach.
#pragma once

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "netlist/network.hpp"
#include "util/status.hpp"

namespace lily {

/// One ECO edit. Fanins must respect the network's id-order invariant
/// (fanin id < node id) so the edited network stays topologically sorted in
/// creation order — the property every downstream pass relies on.
struct DeltaOp {
    struct AddNode {
        std::string name;  // empty = auto-generated
        std::vector<NodeId> fanins;
        Sop function;
    };
    /// Replace the function of `node` over its existing fanins.
    struct Refunction {
        NodeId node = kNullNode;
        Sop function;
    };
    /// Replace both fanins and function of `node`. Every new fanin must
    /// have a smaller id than `node`.
    struct Rewire {
        NodeId node = kNullNode;
        std::vector<NodeId> fanins;
        Sop function;
    };
    /// Point primary output `po_index` at a different driver.
    struct RetargetOutput {
        std::size_t po_index = 0;
        NodeId driver = kNullNode;
    };
    /// Mark a fanout-free, non-PO-driving logic node dead. Ids stay stable
    /// (the slot is retained, skipped by decomposition and sweeps).
    struct RemoveNode {
        NodeId node = kNullNode;
    };

    std::variant<AddNode, Refunction, Rewire, RetargetOutput, RemoveNode> op;
};

struct NetDelta {
    std::vector<DeltaOp> ops;
    /// Sentinel: invalidate everything. The batch flow is the degenerate
    /// case `delta = everything` — the pipeline re-runs every stage from
    /// scratch, bit-identical to the non-incremental entry points.
    bool rebuild_everything = false;

    static NetDelta full_rebuild() {
        NetDelta d;
        d.rebuild_everything = true;
        return d;
    }
    bool empty() const { return ops.empty() && !rebuild_everything; }
};

/// A random but always-valid delta for tests and benches: refunctions and
/// rewires over existing nodes, adds that retarget a primary output onto
/// the new logic, and removals of dangling nodes. Deterministic for a seed;
/// never touches primary inputs and never creates constant functions.
NetDelta random_delta(const Network& net, std::size_t n_edits, std::uint64_t seed);

/// A random delta restricted to *local* targets: nodes whose transitive
/// fanout holds at most max(4, n/64) nodes. Changing a node's function
/// logically changes its entire transitive fanout, so a uniform random_delta
/// edit near the inputs legitimately dirties most of the design — the
/// incremental pipeline then does (almost) batch work. Real engineering
/// change orders are late-stage local fixes; this generator models them so
/// ECO benchmarks measure the dirty-cone machinery rather than the workload's
/// cascade. Falls back to random_delta when no node qualifies.
NetDelta local_delta(const Network& net, std::size_t n_edits, std::uint64_t seed);

}  // namespace lily
