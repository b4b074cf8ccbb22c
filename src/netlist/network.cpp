#include "netlist/network.hpp"

#include <algorithm>
#include <stdexcept>

namespace lily {

NodeId Network::allocate(Node n) {
    if (n.name.empty()) n.name = fresh_name(n.kind == NodeKind::PrimaryInput ? "pi" : "n");
    if (by_name_.contains(n.name)) {
        throw std::invalid_argument("Network: duplicate node name '" + n.name + "'");
    }
    const NodeId id = static_cast<NodeId>(nodes_.size());
    by_name_.emplace(n.name, id);
    nodes_.push_back(std::move(n));
    struct_version_.bump();  // adjacency changed: frozen topology views are stale
    return id;
}

const NetworkTopology& Network::topology() const {
    if (topo_ == nullptr || topo_->built_from != struct_version_.value()) {
        auto t = std::make_shared<NetworkTopology>();
        t->built_from = struct_version_.value();
        const std::size_t n = nodes_.size();
        t->fanins = Csr<NodeId>::counted(
            n, [&](std::size_t v) { return nodes_[v].fanins.size(); },
            [&](auto&& emit) {
                for (NodeId v = 0; v < n; ++v) {
                    for (const NodeId f : nodes_[v].fanins) emit(v, f);
                }
            });
        t->fanouts = Csr<NodeId>::counted(
            n, [&](std::size_t v) { return nodes_[v].fanouts.size(); },
            [&](auto&& emit) {
                for (NodeId v = 0; v < n; ++v) {
                    for (const NodeId f : nodes_[v].fanouts) emit(v, f);
                }
            });
        topo_ = std::move(t);
    }
    return *topo_;
}

std::string Network::fresh_name(const char* prefix) {
    for (;;) {
        std::string candidate = std::string(prefix) + "_" + std::to_string(next_auto_++);
        if (!by_name_.contains(candidate)) return candidate;
    }
}

NodeId Network::add_input(std::string name) {
    Node n;
    n.kind = NodeKind::PrimaryInput;
    n.name = std::move(name);
    const NodeId id = allocate(std::move(n));
    inputs_.push_back(id);
    return id;
}

NodeId Network::add_node(std::string name, std::vector<NodeId> fanins, Sop function) {
    if (fanins.size() > 64) throw std::invalid_argument("Network: node fanin exceeds 64");
    if (function.max_fanin_index() > fanins.size()) {
        throw std::invalid_argument("Network: SOP references missing fanin");
    }
    for (NodeId f : fanins) {
        if (f >= nodes_.size()) throw std::invalid_argument("Network: fanin does not exist");
    }
    Node n;
    n.kind = NodeKind::Logic;
    n.name = std::move(name);
    n.fanins = std::move(fanins);
    n.function = std::move(function);
    const NodeId id = allocate(std::move(n));
    for (NodeId f : nodes_[id].fanins) nodes_[f].fanouts.push_back(id);
    return id;
}

void Network::add_output(std::string name, NodeId driver) {
    if (driver >= nodes_.size()) throw std::invalid_argument("Network: PO driver does not exist");
    outputs_.push_back({std::move(name), driver});
    nodes_[driver].is_po_driver = true;
}

NodeId Network::make_not(NodeId a, std::string name) {
    return add_node(std::move(name), {a}, Sop::inverter());
}

NodeId Network::make_buf(NodeId a, std::string name) {
    return add_node(std::move(name), {a}, Sop::identity());
}

namespace {
std::vector<NodeId> to_vec(std::span<const NodeId> ins) { return {ins.begin(), ins.end()}; }
}  // namespace

NodeId Network::make_and(std::span<const NodeId> ins, std::string name) {
    return add_node(std::move(name), to_vec(ins), Sop::and_n(static_cast<unsigned>(ins.size())));
}

NodeId Network::make_or(std::span<const NodeId> ins, std::string name) {
    return add_node(std::move(name), to_vec(ins), Sop::or_n(static_cast<unsigned>(ins.size())));
}

NodeId Network::make_nand(std::span<const NodeId> ins, std::string name) {
    return add_node(std::move(name), to_vec(ins), Sop::nand_n(static_cast<unsigned>(ins.size())));
}

NodeId Network::make_nor(std::span<const NodeId> ins, std::string name) {
    return add_node(std::move(name), to_vec(ins), Sop::nor_n(static_cast<unsigned>(ins.size())));
}

NodeId Network::make_xor(std::span<const NodeId> ins, std::string name) {
    return add_node(std::move(name), to_vec(ins), Sop::xor_n(static_cast<unsigned>(ins.size())));
}

NodeId Network::make_xnor(std::span<const NodeId> ins, std::string name) {
    return add_node(std::move(name), to_vec(ins), Sop::xnor_n(static_cast<unsigned>(ins.size())));
}

NodeId Network::make_mux(NodeId sel, NodeId when0, NodeId when1, std::string name) {
    // fanins: [sel, when0, when1]; f = !sel*when0 + sel*when1
    Sop s;
    Cube c0;
    c0.care = 0b011;
    c0.polarity = 0b010;
    Cube c1;
    c1.care = 0b101;
    c1.polarity = 0b101;
    s.cubes = {c0, c1};
    return add_node(std::move(name), {sel, when0, when1}, std::move(s));
}

NodeId Network::make_const(bool value, std::string name) {
    return add_node(std::move(name), {}, Sop::constant(value));
}

std::optional<NodeId> Network::find_node(std::string_view name) const {
    const auto it = by_name_.find(std::string(name));
    if (it == by_name_.end()) return std::nullopt;
    return it->second;
}

std::vector<NodeId> Network::transitive_fanin(NodeId root) const {
    const NetworkTopology& t = topology();
    std::vector<bool> in_tfi(nodes_.size(), false);
    std::vector<NodeId> stack{root};
    in_tfi[root] = true;
    std::vector<NodeId> out{root};
    while (!stack.empty()) {
        const NodeId v = stack.back();
        stack.pop_back();
        for (NodeId f : t.fanins_of(v)) {
            if (!in_tfi[f]) {
                in_tfi[f] = true;
                stack.push_back(f);
                out.push_back(f);
            }
        }
    }
    std::sort(out.begin(), out.end());  // creation order is topological
    return out;
}

std::vector<NodeId> Network::logic_nodes() const {
    std::vector<NodeId> out;
    for (NodeId i = 0; i < nodes_.size(); ++i) {
        if (nodes_[i].kind == NodeKind::Logic && !nodes_[i].dead) out.push_back(i);
    }
    return out;
}

std::size_t Network::logic_node_count() const {
    return static_cast<std::size_t>(
        std::count_if(nodes_.begin(), nodes_.end(),
                      [](const Node& n) { return n.kind == NodeKind::Logic && !n.dead; }));
}

std::size_t Network::literal_count() const {
    std::size_t n = 0;
    for (const Node& node : nodes_) {
        if (node.kind == NodeKind::Logic && !node.dead) n += node.function.literal_count();
    }
    return n;
}

std::size_t Network::max_fanin() const {
    std::size_t n = 0;
    for (const Node& node : nodes_) n = std::max(n, node.fanins.size());
    return n;
}

std::size_t Network::depth() const {
    std::vector<std::size_t> level(nodes_.size(), 0);
    std::size_t deepest = 0;
    for (NodeId i = 0; i < nodes_.size(); ++i) {
        const Node& n = nodes_[i];
        if (n.kind != NodeKind::Logic || n.dead) continue;
        std::size_t lv = 0;
        for (NodeId f : n.fanins) lv = std::max(lv, level[f]);
        level[i] = lv + 1;
        deepest = std::max(deepest, level[i]);
    }
    return deepest;
}

std::size_t Network::sweep() {
    std::vector<bool> live(nodes_.size(), false);
    std::vector<NodeId> stack;
    for (const PrimaryOutput& po : outputs_) {
        if (!live[po.driver]) {
            live[po.driver] = true;
            stack.push_back(po.driver);
        }
    }
    while (!stack.empty()) {
        const NodeId v = stack.back();
        stack.pop_back();
        for (NodeId f : nodes_[v].fanins) {
            if (!live[f]) {
                live[f] = true;
                stack.push_back(f);
            }
        }
    }
    // Primary inputs are always kept: the interface of the circuit is fixed.
    for (NodeId pi : inputs_) live[pi] = true;

    const std::size_t removed =
        nodes_.size() - static_cast<std::size_t>(std::count(live.begin(), live.end(), true));
    if (removed == 0) return 0;

    std::vector<NodeId> remap(nodes_.size(), kNullNode);
    std::vector<Node> kept;
    kept.reserve(nodes_.size() - removed);
    for (NodeId i = 0; i < nodes_.size(); ++i) {
        if (!live[i]) continue;
        remap[i] = static_cast<NodeId>(kept.size());
        kept.push_back(std::move(nodes_[i]));
    }

    for (Node& n : kept) {
        for (NodeId& f : n.fanins) f = remap[f];
        n.fanouts.clear();
    }
    for (NodeId i = 0; i < kept.size(); ++i) {
        for (NodeId f : kept[i].fanins) kept[f].fanouts.push_back(i);
    }
    nodes_ = std::move(kept);
    for (NodeId& pi : inputs_) pi = remap[pi];
    for (PrimaryOutput& po : outputs_) po.driver = remap[po.driver];
    by_name_.clear();
    for (NodeId i = 0; i < nodes_.size(); ++i) by_name_.emplace(nodes_[i].name, i);
    struct_version_.bump();  // ids and adjacency both changed
    return removed;
}

void Network::check() const {
    for (NodeId i = 0; i < nodes_.size(); ++i) {
        const Node& n = nodes_[i];
        if (n.dead) {
            if (!n.fanins.empty() || !n.fanouts.empty() || n.is_po_driver) {
                throw std::logic_error("Network::check: dead node still connected: " + n.name);
            }
            continue;
        }
        for (NodeId f : n.fanins) {
            if (nodes_[f].dead) {
                throw std::logic_error("Network::check: fanin of " + n.name + " is dead");
            }
            if (f >= i) throw std::logic_error("Network::check: fanin not earlier in order");
            const auto& fo = nodes_[f].fanouts;
            if (std::count(fo.begin(), fo.end(), i) !=
                std::count(n.fanins.begin(), n.fanins.end(), f)) {
                throw std::logic_error("Network::check: fanin/fanout asymmetry at " + n.name);
            }
        }
        if (n.kind == NodeKind::PrimaryInput && !n.fanins.empty()) {
            throw std::logic_error("Network::check: primary input with fanins");
        }
        if (n.kind == NodeKind::Logic && n.function.max_fanin_index() > n.fanins.size()) {
            throw std::logic_error("Network::check: SOP references missing fanin at " + n.name);
        }
    }
    for (const PrimaryOutput& po : outputs_) {
        if (po.driver >= nodes_.size()) throw std::logic_error("Network::check: dangling PO");
        if (nodes_[po.driver].dead) {
            throw std::logic_error("Network::check: PO " + po.name + " driven by dead node");
        }
    }
}

}  // namespace lily
