// Network::apply_delta — atomic application of ECO edit lists — and the
// random_delta generator used by the ECO tests and benches. Edits mutate a
// scratch copy of the network so a delta either applies in full (one version
// bump) or leaves the network untouched.
#include "netlist/delta.hpp"

#include <algorithm>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>

#include "util/rng.hpp"

namespace lily {

namespace {

Status delta_error(const std::string& msg) {
    return Status(StatusCode::InvariantViolation, "apply_delta: " + msg);
}

/// Remove one occurrence of `fanout` from `list` (fanout edges carry
/// multiplicity, so only one edge per fanin instance may be detached).
bool detach_one(std::vector<NodeId>& list, NodeId fanout) {
    const auto it = std::find(list.begin(), list.end(), fanout);
    if (it == list.end()) return false;
    list.erase(it);
    return true;
}

}  // namespace

StatusOr<AppliedDelta> Network::apply_delta(const NetDelta& delta) {
    if (delta.ops.empty() && !delta.rebuild_everything) {
        return AppliedDelta{version(), {}};
    }

    Network tmp = *this;
    std::vector<NodeId> touched;

    auto alive_logic = [&tmp](NodeId v) {
        return v < tmp.nodes_.size() && tmp.nodes_[v].kind == NodeKind::Logic &&
               !tmp.nodes_[v].dead;
    };
    auto alive = [&tmp](NodeId v) { return v < tmp.nodes_.size() && !tmp.nodes_[v].dead; };

    for (const DeltaOp& d : delta.ops) {
        if (const auto* add = std::get_if<DeltaOp::AddNode>(&d.op)) {
            for (NodeId f : add->fanins) {
                if (!alive(f)) return delta_error("AddNode fanin missing or dead");
            }
            NodeId id = kNullNode;
            try {
                id = tmp.add_node(add->name, add->fanins, add->function);
            } catch (const std::exception& e) {
                return delta_error(e.what());
            }
            touched.push_back(id);
        } else if (const auto* ref = std::get_if<DeltaOp::Refunction>(&d.op)) {
            if (!alive_logic(ref->node)) return delta_error("Refunction target missing or dead");
            Node& n = tmp.nodes_[ref->node];
            if (ref->function.max_fanin_index() > n.fanins.size()) {
                return delta_error("Refunction SOP references missing fanin at " + n.name);
            }
            n.function = ref->function;
            touched.push_back(ref->node);
        } else if (const auto* rw = std::get_if<DeltaOp::Rewire>(&d.op)) {
            if (!alive_logic(rw->node)) return delta_error("Rewire target missing or dead");
            Node& n = tmp.nodes_[rw->node];
            if (rw->fanins.size() > 64) return delta_error("Rewire fanin exceeds 64");
            if (rw->function.max_fanin_index() > rw->fanins.size()) {
                return delta_error("Rewire SOP references missing fanin at " + n.name);
            }
            for (NodeId f : rw->fanins) {
                if (!alive(f)) return delta_error("Rewire fanin missing or dead");
                if (f >= rw->node) {
                    return delta_error("Rewire fanin " + tmp.nodes_[f].name +
                                       " not earlier than " + n.name + " (id order)");
                }
            }
            for (NodeId f : n.fanins) {
                if (!detach_one(tmp.nodes_[f].fanouts, rw->node)) {
                    return delta_error("fanin/fanout asymmetry while rewiring " + n.name);
                }
            }
            n.fanins = rw->fanins;
            n.function = rw->function;
            for (NodeId f : n.fanins) tmp.nodes_[f].fanouts.push_back(rw->node);
            touched.push_back(rw->node);
        } else if (const auto* rt = std::get_if<DeltaOp::RetargetOutput>(&d.op)) {
            if (rt->po_index >= tmp.outputs_.size()) return delta_error("RetargetOutput index");
            if (!alive(rt->driver)) return delta_error("RetargetOutput driver missing or dead");
            const NodeId old = tmp.outputs_[rt->po_index].driver;
            tmp.outputs_[rt->po_index].driver = rt->driver;
            tmp.nodes_[rt->driver].is_po_driver = true;
            bool still_po = false;
            for (const PrimaryOutput& po : tmp.outputs_) still_po |= (po.driver == old);
            tmp.nodes_[old].is_po_driver = still_po;
            touched.push_back(old);
            touched.push_back(rt->driver);
        } else if (const auto* rm = std::get_if<DeltaOp::RemoveNode>(&d.op)) {
            if (!alive_logic(rm->node)) return delta_error("RemoveNode target missing or dead");
            Node& n = tmp.nodes_[rm->node];
            if (!n.fanouts.empty()) return delta_error("RemoveNode target " + n.name +
                                                       " still has fanouts");
            if (n.is_po_driver) return delta_error("RemoveNode target " + n.name +
                                                   " drives a primary output");
            for (NodeId f : n.fanins) {
                if (!detach_one(tmp.nodes_[f].fanouts, rm->node)) {
                    return delta_error("fanin/fanout asymmetry while removing " + n.name);
                }
            }
            n.fanins.clear();
            n.function = Sop{};
            n.dead = true;
            touched.push_back(rm->node);
        }
    }

    try {
        tmp.check();
    } catch (const std::exception& e) {
        return delta_error(std::string("post-check failed: ") + e.what());
    }

    std::sort(touched.begin(), touched.end());
    touched.erase(std::unique(touched.begin(), touched.end()), touched.end());
    const Version v = tmp.version_.bump();
    // Rewire/remove edits mutate adjacency without going through allocate();
    // one unconditional bump marks every frozen topology view stale.
    tmp.struct_version_.bump();
    *this = std::move(tmp);
    return AppliedDelta{v, std::move(touched)};
}

namespace {

/// A non-constant random function over k >= 1 fanins.
Sop random_function(Rng& rng, std::size_t k) {
    const unsigned n = static_cast<unsigned>(k);
    if (n == 1) return rng.next_bool() ? Sop::identity() : Sop::inverter();
    // xor_n expands to 2^(n-1) cubes and refuses more than 10 inputs; a
    // wider node takes the nand/nor of the same draw instead.
    const std::uint64_t pick = rng.next_below(6);
    switch (n > 10 && pick >= 4 ? pick - 2 : pick) {
        case 0: return Sop::and_n(n);
        case 1: return Sop::or_n(n);
        case 2: return Sop::nand_n(n);
        case 3: return Sop::nor_n(n);
        case 4: return Sop::xor_n(n);
        default: return Sop::xnor_n(n);
    }
}

}  // namespace

NetDelta random_delta(const Network& net, std::size_t n_edits, std::uint64_t seed) {
    NetDelta delta;
    Rng rng(seed);

    // Simulated post-delta state: node count grows with adds, `fanin_count`
    // tracks arity for refunction targets, `blocked` marks nodes removed (or
    // about to gain fanout, making them unsafe to remove).
    NodeId n_nodes = static_cast<NodeId>(net.node_count());
    std::unordered_set<NodeId> removed;
    std::unordered_set<NodeId> gained_fanout;
    std::vector<std::pair<NodeId, std::size_t>> targets;  // (id, fanin count)
    std::vector<NodeId> dangling;
    for (NodeId v = 0; v < n_nodes; ++v) {
        const Node& n = net.node(v);
        if (n.kind != NodeKind::Logic || n.dead) continue;
        if (!n.fanins.empty()) targets.emplace_back(v, n.fanins.size());
        if (n.fanouts.empty() && !n.is_po_driver) dangling.push_back(v);
    }
    auto usable = [&](NodeId v) {
        return !removed.contains(v) && (v >= net.node_count() || !net.node(v).dead);
    };
    auto pick_fanins = [&](NodeId below, std::size_t want) {
        std::vector<NodeId> out;
        for (std::size_t attempt = 0; attempt < 16 * want && out.size() < want; ++attempt) {
            const NodeId f = static_cast<NodeId>(rng.next_below(below));
            if (!usable(f)) continue;
            if (std::find(out.begin(), out.end(), f) != out.end()) continue;
            out.push_back(f);
        }
        return out;
    };

    for (std::size_t e = 0; e < n_edits; ++e) {
        std::uint64_t kind = rng.next_below(10);
        if (targets.empty()) kind = 5;  // nothing to edit in place: add
        if (kind < 3) {
            // Refunction an existing target over its current fanin count.
            for (std::size_t attempt = 0; attempt < 32; ++attempt) {
                const auto& [v, k] = targets[rng.next_below(targets.size())];
                if (!usable(v)) continue;
                DeltaOp op;
                op.op = DeltaOp::Refunction{v, random_function(rng, k)};
                delta.ops.push_back(std::move(op));
                break;
            }
        } else if (kind < 7) {
            // Rewire: new fanins strictly below the target, new function.
            for (std::size_t attempt = 0; attempt < 32; ++attempt) {
                auto& [v, k] = targets[rng.next_below(targets.size())];
                if (!usable(v) || v == 0) continue;
                const std::size_t want = 1 + rng.next_below(std::min<std::uint64_t>(3, v));
                std::vector<NodeId> fanins = pick_fanins(v, want);
                if (fanins.empty()) continue;
                for (NodeId f : fanins) gained_fanout.insert(f);
                // A later refunction of v must not reference fanins it lost
                // here (one over fewer fanins than v has is still valid).
                k = std::min(k, fanins.size());
                DeltaOp op;
                op.op = DeltaOp::Rewire{v, fanins, random_function(rng, fanins.size())};
                delta.ops.push_back(std::move(op));
                break;
            }
        } else if (kind < 9 || net.outputs().empty()) {
            // Add a node over random existing signals; retarget a PO onto it
            // when the circuit has outputs (otherwise it rides as new logic
            // feeding nothing, which a later rewire may pick up).
            const std::size_t want = 2 + rng.next_below(2);
            std::vector<NodeId> fanins = pick_fanins(n_nodes, want);
            if (fanins.empty()) continue;
            for (NodeId f : fanins) gained_fanout.insert(f);
            DeltaOp add;
            add.op = DeltaOp::AddNode{{}, fanins, random_function(rng, fanins.size())};
            delta.ops.push_back(std::move(add));
            const NodeId id = n_nodes++;
            targets.emplace_back(id, fanins.size());
            if (!net.outputs().empty()) {
                DeltaOp rt;
                rt.op = DeltaOp::RetargetOutput{rng.next_below(net.outputs().size()), id};
                delta.ops.push_back(std::move(rt));
                gained_fanout.insert(id);  // PO-driving: not removable
            }
        } else {
            // Remove a dangling node nothing in this delta has referenced.
            bool done = false;
            for (std::size_t attempt = 0; attempt < 8 && !dangling.empty(); ++attempt) {
                const std::size_t slot = rng.next_below(dangling.size());
                const NodeId v = dangling[slot];
                if (!removed.contains(v) && !gained_fanout.contains(v)) {
                    DeltaOp op;
                    op.op = DeltaOp::RemoveNode{v};
                    delta.ops.push_back(std::move(op));
                    removed.insert(v);
                    done = true;
                    break;
                }
            }
            if (!done && !targets.empty()) {
                // No removable candidate: fall back to a refunction so the
                // delta still carries `n_edits` edits.
                const auto& [v, k] = targets[rng.next_below(targets.size())];
                if (usable(v)) {
                    DeltaOp op;
                    op.op = DeltaOp::Refunction{v, random_function(rng, k)};
                    delta.ops.push_back(std::move(op));
                }
            }
        }
    }
    return delta;
}

NetDelta local_delta(const Network& net, std::size_t n_edits, std::uint64_t seed) {
    NetDelta delta;
    Rng rng(seed);
    const NodeId n_nodes = static_cast<NodeId>(net.node_count());

    // A node qualifies as a local edit target when changing its signal
    // disturbs at most `bound` downstream nodes (transitive fanout, counted
    // with an early cutoff).
    const std::size_t bound = std::max<std::size_t>(4, net.node_count() / 64);
    // Fanout walks over the frozen CSR view, with epoch-stamped marks reused
    // across the candidate scan (the old per-candidate unordered_set made
    // this the hottest allocation site of delta generation).
    const NetworkTopology& topo = net.topology();
    std::vector<std::uint32_t> tfo_mark(net.node_count(), 0);
    std::uint32_t tfo_epoch = 0;
    std::vector<NodeId> tfo_stack;
    auto tfo_within_bound = [&](NodeId root) {
        ++tfo_epoch;
        tfo_stack.clear();
        tfo_stack.push_back(root);
        tfo_mark[root] = tfo_epoch;
        std::size_t seen = 1;
        while (!tfo_stack.empty()) {
            const NodeId v = tfo_stack.back();
            tfo_stack.pop_back();
            for (NodeId f : topo.fanouts_of(v)) {
                if (tfo_mark[f] != tfo_epoch) {
                    tfo_mark[f] = tfo_epoch;
                    if (++seen > bound + 1) return false;
                    tfo_stack.push_back(f);
                }
            }
        }
        return true;
    };

    // Ids are creation order, so high-id logic sits late in the circuit with
    // shallow fanout cones; scan backwards until enough targets are found.
    std::vector<std::pair<NodeId, std::size_t>> targets;  // (id, fanin count)
    const std::size_t want_targets = std::max<std::size_t>(32, 8 * n_edits);
    for (NodeId v = n_nodes; v-- > 0 && targets.size() < want_targets;) {
        const Node& n = net.node(v);
        if (n.kind != NodeKind::Logic || n.dead || n.fanins.empty()) continue;
        if (tfo_within_bound(v)) targets.emplace_back(v, n.fanins.size());
    }
    if (targets.empty()) return random_delta(net, n_edits, seed);

    auto alive = [&net, n_nodes](NodeId v) { return v < n_nodes && !net.node(v).dead; };
    // Nearby earlier signals for rewires and patch nodes: staying close to
    // the target keeps the edit's wiring local too.
    auto pick_fanins_near = [&](NodeId below, std::size_t want) {
        std::vector<NodeId> out;
        const NodeId window = static_cast<NodeId>(std::min<std::uint64_t>(below, 64));
        for (std::size_t attempt = 0; attempt < 16 * want && out.size() < want; ++attempt) {
            const NodeId f = below - 1 - static_cast<NodeId>(rng.next_below(window));
            if (!alive(f)) continue;
            if (std::find(out.begin(), out.end(), f) != out.end()) continue;
            out.push_back(f);
        }
        return out;
    };

    // Current fanin count per target — a Rewire changes it, and a later
    // Refunction of the same node must match the post-rewire arity.
    std::unordered_map<NodeId, std::size_t> arity;
    for (const auto& [v, k] : targets) arity[v] = k;

    NodeId next_id = n_nodes;  // id the next AddNode will receive
    for (std::size_t e = 0; e < n_edits; ++e) {
        const std::uint64_t kind = rng.next_below(10);
        if (kind < 5) {
            // Refunction a local target over its current fanin count.
            const NodeId v = targets[rng.next_below(targets.size())].first;
            DeltaOp op;
            op.op = DeltaOp::Refunction{v, random_function(rng, arity[v])};
            delta.ops.push_back(std::move(op));
        } else if (kind < 8 || net.outputs().empty()) {
            // Rewire a local target onto nearby earlier signals.
            const NodeId v = targets[rng.next_below(targets.size())].first;
            if (v == 0) continue;
            const std::size_t want = 1 + rng.next_below(std::min<std::uint64_t>(3, v));
            std::vector<NodeId> fanins = pick_fanins_near(v, want);
            if (fanins.empty()) continue;
            DeltaOp op;
            op.op = DeltaOp::Rewire{v, fanins, random_function(rng, fanins.size())};
            delta.ops.push_back(std::move(op));
            arity[v] = fanins.size();
        } else {
            // Patch node: new logic over late signals, retargeting one
            // primary output onto it. The new node's fanout is exactly that
            // output, so the disturbance cannot cascade.
            std::vector<NodeId> fanins = pick_fanins_near(n_nodes, 2 + rng.next_below(2));
            if (fanins.empty()) continue;
            DeltaOp add;
            add.op = DeltaOp::AddNode{{}, fanins, random_function(rng, fanins.size())};
            delta.ops.push_back(std::move(add));
            DeltaOp rt;
            rt.op = DeltaOp::RetargetOutput{rng.next_below(net.outputs().size()), next_id++};
            delta.ops.push_back(std::move(rt));
        }
    }
    return delta;
}

}  // namespace lily
