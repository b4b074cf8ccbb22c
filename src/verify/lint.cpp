#include "verify/lint.hpp"

#include <algorithm>
#include <map>
#include <unordered_map>
#include <vector>

#include "verify/aig.hpp"

namespace lily {

namespace {

/// Iterative Tarjan SCC over the live fanin edges. Returns true when any
/// cycle (SCC of size > 1, or a self-loop) was reported — the downstream
/// constant pass is skipped then, because AIG lowering of a cyclic graph
/// reads garbage.
bool report_cycles(const Network& net, CheckReport& report) {
    const std::size_t n = net.node_count();
    constexpr std::uint32_t kUnvisited = static_cast<std::uint32_t>(-1);
    std::vector<std::uint32_t> index(n, kUnvisited);
    std::vector<std::uint32_t> lowlink(n, 0);
    std::vector<bool> on_stack(n, false);
    std::vector<NodeId> stack;
    std::uint32_t next_index = 0;
    bool found = false;

    struct Frame {
        NodeId v;
        std::size_t edge;
    };
    std::vector<Frame> frames;

    for (NodeId root = 0; root < n; ++root) {
        if (index[root] != kUnvisited || net.node(root).dead) continue;
        frames.push_back({root, 0});
        while (!frames.empty()) {
            Frame& f = frames.back();
            const Node& node = net.node(f.v);
            if (f.edge == 0) {
                index[f.v] = lowlink[f.v] = next_index++;
                stack.push_back(f.v);
                on_stack[f.v] = true;
            }
            bool descended = false;
            while (f.edge < node.fanins.size()) {
                const NodeId w = node.fanins[f.edge++];
                if (w >= n || net.node(w).dead) continue;  // reported elsewhere
                if (w == f.v) {
                    report.error(CheckStage::Verify, f.v,
                                 "combinational self-loop on node '" + node.name + "'");
                    found = true;
                    continue;
                }
                if (index[w] == kUnvisited) {
                    frames.push_back({w, 0});
                    descended = true;
                    break;
                }
                if (on_stack[w]) lowlink[f.v] = std::min(lowlink[f.v], index[w]);
            }
            if (descended) continue;
            if (lowlink[f.v] == index[f.v]) {
                std::vector<NodeId> scc;
                for (;;) {
                    const NodeId w = stack.back();
                    stack.pop_back();
                    on_stack[w] = false;
                    scc.push_back(w);
                    if (w == f.v) break;
                }
                if (scc.size() > 1) {
                    std::string msg = "combinational cycle through " +
                                      std::to_string(scc.size()) + " nodes:";
                    std::sort(scc.begin(), scc.end());
                    for (std::size_t i = 0; i < scc.size() && i < 6; ++i) {
                        msg += " '" + net.node(scc[i]).name + "'";
                    }
                    if (scc.size() > 6) msg += " ...";
                    report.error(CheckStage::Verify, scc.front(), msg);
                    found = true;
                }
            }
            const NodeId v = f.v;
            frames.pop_back();
            if (!frames.empty()) {
                lowlink[frames.back().v] = std::min(lowlink[frames.back().v], lowlink[v]);
            }
        }
    }
    return found;
}

}  // namespace

CheckReport lint_network(const Network& net) {
    CheckReport report;
    const std::size_t n = net.node_count();

    // Drivers and fanins must exist and be alive; PO drivers carry the
    // is_po_driver flag.
    bool structure_ok = true;
    std::vector<bool> drives_po(n, false);
    for (const PrimaryOutput& po : net.outputs()) {
        if (po.driver == kNullNode || po.driver >= n) {
            report.error(CheckStage::Verify, kNoCheckNode,
                         "output '" + po.name + "' has no driver node");
            structure_ok = false;
        } else if (net.node(po.driver).dead) {
            report.error(CheckStage::Verify, po.driver,
                         "output '" + po.name + "' is driven by dead node '" +
                             net.node(po.driver).name + "'");
            structure_ok = false;
        } else {
            drives_po[po.driver] = true;
            if (!net.node(po.driver).is_po_driver) {
                report.error(CheckStage::Verify, po.driver,
                             "node '" + net.node(po.driver).name + "' drives output '" +
                                 po.name + "' but its is_po_driver flag is unset");
            }
        }
    }
    // Edge multiplicities per (driver, sink): fanin-list count vs fanout-list
    // count. Every edge is stored on both endpoints, so they must agree.
    std::map<std::pair<NodeId, NodeId>, std::pair<std::size_t, std::size_t>> edges;
    for (NodeId id = 0; id < n; ++id) {
        const Node& node = net.node(id);
        if (node.dead) continue;
        if (node.name.empty()) report.error(CheckStage::Verify, id, "node has an empty name");
        if (node.is_po_driver && !drives_po[id]) {
            report.warning(CheckStage::Verify, id,
                           "node '" + node.name + "' has is_po_driver set but drives no output");
        }
        if (node.kind == NodeKind::PrimaryInput && !node.fanins.empty()) {
            report.error(CheckStage::Verify, id,
                         "primary input '" + node.name + "' has fanins");
            structure_ok = false;
        }
        if (node.function.max_fanin_index() > node.fanins.size()) {
            report.error(CheckStage::Verify, id,
                         "node '" + node.name + "': SOP references fanin slot " +
                             std::to_string(node.function.max_fanin_index() - 1) +
                             " but node has " + std::to_string(node.fanins.size()) +
                             " fanins");
            structure_ok = false;
        }
        for (const NodeId f : node.fanins) {
            if (f >= n) {
                report.error(CheckStage::Verify, id,
                             "node '" + node.name + "' reads out-of-range fanin " +
                                 std::to_string(f));
                structure_ok = false;
            } else if (net.node(f).dead) {
                report.error(CheckStage::Verify, id,
                             "node '" + node.name + "' reads dead node '" +
                                 net.node(f).name + "'");
                structure_ok = false;
            } else {
                ++edges[{f, id}].first;
                // Ids are a topological order (self-loops are reported as
                // cycles below).
                if (f > id) {
                    report.error(CheckStage::Verify, id,
                                 "node '" + node.name + "' reads fanin '" +
                                     net.node(f).name +
                                     "' that is not earlier in id order (cycle)");
                    structure_ok = false;
                }
            }
        }
        for (const NodeId fo : node.fanouts) {
            if (fo >= n) {
                report.error(CheckStage::Verify, id,
                             "node '" + node.name + "' lists out-of-range fanout " +
                                 std::to_string(fo));
            } else {
                ++edges[{id, fo}].second;
            }
        }
    }
    for (const auto& [edge, count] : edges) {
        if (count.first != count.second) {
            report.error(CheckStage::Verify, edge.second,
                         "fanin/fanout asymmetry from node " + std::to_string(edge.first) +
                             ": " + std::to_string(count.first) + " fanin edge(s) vs " +
                             std::to_string(count.second) + " fanout edge(s)");
        }
    }

    // Multi-driver nets: two live nodes carrying one name, or one PO name
    // listed twice.
    std::unordered_map<std::string, NodeId> name_owner;
    for (NodeId id = 0; id < n; ++id) {
        const Node& node = net.node(id);
        if (node.dead || node.name.empty()) continue;
        const auto [it, inserted] = name_owner.emplace(node.name, id);
        if (!inserted) {
            report.error(CheckStage::Verify, id,
                         "net '" + node.name + "' is driven by nodes " +
                             std::to_string(it->second) + " and " + std::to_string(id));
        }
    }
    std::unordered_map<std::string, std::size_t> po_seen;
    for (const PrimaryOutput& po : net.outputs()) {
        if (++po_seen[po.name] == 2) {
            report.error(CheckStage::Verify, kNoCheckNode,
                         "output name '" + po.name + "' is declared more than once");
        }
    }

    const bool cyclic = report_cycles(net, report);

    // Backward reachability from the POs over live fanin edges: anything
    // unreached computes nothing observable.
    std::vector<bool> reaches_po(n, false);
    std::vector<NodeId> worklist;
    for (const PrimaryOutput& po : net.outputs()) {
        if (po.driver != kNullNode && po.driver < n && !net.node(po.driver).dead &&
            !reaches_po[po.driver]) {
            reaches_po[po.driver] = true;
            worklist.push_back(po.driver);
        }
    }
    while (!worklist.empty()) {
        const NodeId v = worklist.back();
        worklist.pop_back();
        for (const NodeId f : net.node(v).fanins) {
            if (f < n && !net.node(f).dead && !reaches_po[f]) {
                reaches_po[f] = true;
                worklist.push_back(f);
            }
        }
    }
    for (NodeId id = 0; id < n; ++id) {
        const Node& node = net.node(id);
        if (node.dead || reaches_po[id]) continue;
        if (node.kind == NodeKind::PrimaryInput) {
            report.warning(CheckStage::Verify, id,
                           "floating input '" + node.name + "' reaches no output");
        } else {
            report.warning(CheckStage::Verify, id,
                           "dead cone: node '" + node.name + "' reaches no output");
        }
    }

    // Constant-mergeable logic: AIG lowering (structural hashing + constant
    // propagation) collapses the node's function to 0/1 even though it has
    // fanins. Meaningless on cyclic or structurally broken graphs.
    if (structure_ok && !cyclic) {
        Aig aig;
        std::vector<AigLit> pi_lits(net.inputs().size());
        for (AigLit& l : pi_lits) l = aig_lit(aig.add_input(), false);
        const std::vector<AigLit> lit = lower_network(net, aig, pi_lits);
        for (NodeId id = 0; id < n; ++id) {
            const Node& node = net.node(id);
            if (node.dead || node.kind != NodeKind::Logic || node.fanins.empty()) continue;
            if (lit[id] == kAigFalse || lit[id] == kAigTrue) {
                report.warning(CheckStage::Verify, id,
                               "node '" + node.name + "' computes constant " +
                                   (lit[id] == kAigTrue ? "1" : "0") +
                                   " and can be merged");
            }
        }
    }

    return report;
}

}  // namespace lily
