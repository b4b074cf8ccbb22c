#include "verify/aig.hpp"

#include <bit>
#include <stdexcept>
#include <utility>

namespace lily {

namespace {

/// 64-bit mix of the two fanin literals for the strash table.
std::uint64_t strash_hash(AigLit f0, AigLit f1) {
    std::uint64_t h = (static_cast<std::uint64_t>(f0) << 32) | f1;
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdULL;
    h ^= h >> 33;
    h *= 0xc4ceb9fe1a85ec53ULL;
    h ^= h >> 33;
    return h;
}

}  // namespace

Aig::Aig() {
    nodes_.push_back({});  // node 0: constant false
    strash_.assign(1024, 0);
}

std::uint32_t Aig::add_input() {
    const std::uint32_t id = static_cast<std::uint32_t>(nodes_.size());
    AigNode n;
    n.f0 = static_cast<AigLit>(inputs_.size());
    n.f1 = kInputMark;
    nodes_.push_back(n);
    inputs_.push_back(id);
    return id;
}

void Aig::strash_grow() {
    std::vector<std::uint32_t> old = std::move(strash_);
    strash_.assign(old.size() * 2, 0);
    for (const std::uint32_t node : old) {
        if (node == 0) continue;
        const AigNode& n = nodes_[node];
        std::size_t slot = strash_hash(n.f0, n.f1) & (strash_.size() - 1);
        while (strash_[slot] != 0) slot = (slot + 1) & (strash_.size() - 1);
        strash_[slot] = node;
    }
}

std::uint32_t Aig::strash_find_or_add(AigLit f0, AigLit f1) {
    if (strash_used_ * 2 >= strash_.size()) strash_grow();
    std::size_t slot = strash_hash(f0, f1) & (strash_.size() - 1);
    while (strash_[slot] != 0) {
        const AigNode& n = nodes_[strash_[slot]];
        if (n.f0 == f0 && n.f1 == f1) return strash_[slot];
        slot = (slot + 1) & (strash_.size() - 1);
    }
    const std::uint32_t id = static_cast<std::uint32_t>(nodes_.size());
    nodes_.push_back({f0, f1});
    strash_[slot] = id;
    ++strash_used_;
    return id;
}

AigLit Aig::make_and(AigLit a, AigLit b) {
    if (a > b) std::swap(a, b);  // canonical fanin order
    if (a == kAigFalse) return kAigFalse;
    if (a == kAigTrue) return b;
    if (a == b) return a;
    if (aig_not(a) == b) return kAigFalse;
    return aig_lit(strash_find_or_add(a, b), false);
}

AigLit Aig::make_and(std::span<const AigLit> lits) {
    AigLit acc = kAigTrue;
    for (const AigLit l : lits) acc = make_and(acc, l);
    return acc;
}

AigLit Aig::make_or(std::span<const AigLit> lits) {
    AigLit acc = kAigFalse;
    for (const AigLit l : lits) acc = make_or(acc, l);
    return acc;
}

void Aig::simulate(std::span<const std::uint64_t> input_words,
                   std::span<std::uint64_t> value) const {
    if (input_words.size() != inputs_.size() || value.size() != nodes_.size()) {
        throw std::invalid_argument("Aig::simulate: wrong number of input or value words");
    }
    value[0] = 0;
    for (std::uint32_t id = 1; id < nodes_.size(); ++id) {
        const AigNode& n = nodes_[id];
        if (n.f1 == kInputMark) {
            value[id] = input_words[n.f0];
            continue;
        }
        const std::uint64_t w0 = value[aig_node(n.f0)] ^ (aig_sign(n.f0) ? ~0ULL : 0);
        const std::uint64_t w1 = value[aig_node(n.f1)] ^ (aig_sign(n.f1) ? ~0ULL : 0);
        value[id] = w0 & w1;
    }
}

std::vector<AigLit> lower_network(const Network& net, Aig& aig,
                                  std::span<const AigLit> pi_lits) {
    if (pi_lits.size() != net.inputs().size()) {
        throw std::invalid_argument("lower_network: wrong number of PI literals");
    }
    std::vector<AigLit> lit(net.node_count(), kAigFalse);
    for (std::size_t i = 0; i < net.inputs().size(); ++i) lit[net.inputs()[i]] = pi_lits[i];

    std::vector<AigLit> cube_lits;
    std::vector<AigLit> and_lits;
    for (NodeId id = 0; id < net.node_count(); ++id) {
        const Node& n = net.node(id);
        if (n.kind != NodeKind::Logic || n.dead) continue;
        cube_lits.clear();
        for (const Cube& c : n.function.cubes) {
            and_lits.clear();
            std::uint64_t care = c.care;
            while (care != 0) {
                const unsigned i = static_cast<unsigned>(std::countr_zero(care));
                care &= care - 1;
                const AigLit f = lit[n.fanins[i]];
                and_lits.push_back(((c.polarity >> i) & 1) ? f : aig_not(f));
            }
            cube_lits.push_back(aig.make_and(and_lits));
        }
        const AigLit acc = aig.make_or(cube_lits);
        lit[id] = n.function.complement ? aig_not(acc) : acc;
    }
    return lit;
}

}  // namespace lily
