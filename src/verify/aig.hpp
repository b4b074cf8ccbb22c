// And-Inverter Graph: the canonical structure both sides of an equivalence
// check are lowered into before SAT. Nodes are 2-input ANDs; complementation
// rides on the edge (literal bit 0), so inverters are free. Construction
// runs structural hashing (one node per distinct (fanin0, fanin1) pair) and
// constant/trivial-rule propagation (x&0=0, x&1=x, x&x=x, x&!x=0), which
// means a large share of the "different-looking" logic two netlists carry
// collapses onto shared nodes before any SAT call is made.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "netlist/network.hpp"
#include "util/status.hpp"

namespace lily {

/// An AIG literal: node index << 1 | complement bit. Node 0 is the constant
/// false, so literal 0 is "false" and literal 1 is "true".
using AigLit = std::uint32_t;
inline constexpr AigLit kAigFalse = 0;
inline constexpr AigLit kAigTrue = 1;

inline AigLit aig_lit(std::uint32_t node, bool complement) {
    return (node << 1) | static_cast<AigLit>(complement);
}
inline std::uint32_t aig_node(AigLit lit) { return lit >> 1; }
inline bool aig_sign(AigLit lit) { return (lit & 1) != 0; }
inline AigLit aig_not(AigLit lit) { return lit ^ 1; }

class Aig {
public:
    Aig();

    /// Total nodes including the constant and the inputs.
    std::size_t node_count() const { return nodes_.size(); }
    std::size_t input_count() const { return inputs_.size(); }
    /// AND nodes only (the interesting size metric).
    std::size_t and_count() const { return nodes_.size() - 1 - inputs_.size(); }

    std::uint32_t add_input();
    std::span<const std::uint32_t> inputs() const { return inputs_; }

    bool is_const(std::uint32_t node) const { return node == 0; }
    bool is_input(std::uint32_t node) const { return nodes_[node].f1 == kInputMark; }
    bool is_and(std::uint32_t node) const { return node != 0 && !is_input(node); }
    /// Fanin literals of an AND node.
    AigLit fanin0(std::uint32_t node) const { return nodes_[node].f0; }
    AigLit fanin1(std::uint32_t node) const { return nodes_[node].f1; }

    // ---- construction (all return hashed, simplified literals) ----------
    AigLit make_and(AigLit a, AigLit b);
    AigLit make_or(AigLit a, AigLit b) { return aig_not(make_and(aig_not(a), aig_not(b))); }
    AigLit make_xor(AigLit a, AigLit b) {
        return make_or(make_and(a, aig_not(b)), make_and(aig_not(a), b));
    }
    AigLit make_and(std::span<const AigLit> lits);
    AigLit make_or(std::span<const AigLit> lits);

    /// 64 parallel patterns into the caller's node_count() words: word i is
    /// the value of node i, bit k = pattern k. `input_words` are by input
    /// position. Repeated simulation (counterexample resimulation) reuses
    /// one buffer and allocates nothing.
    void simulate(std::span<const std::uint64_t> input_words,
                  std::span<std::uint64_t> value) const;

private:
    // f1 == kInputMark marks an input node; f0 then holds its position.
    static constexpr AigLit kInputMark = static_cast<AigLit>(-1);
    struct AigNode {
        AigLit f0 = 0;
        AigLit f1 = 0;
    };

    std::vector<AigNode> nodes_;
    std::vector<std::uint32_t> inputs_;
    std::vector<std::uint32_t> strash_;  // open-addressed map (f0,f1) -> node
    std::size_t strash_used_ = 0;

    std::uint32_t strash_find_or_add(AigLit f0, AigLit f1);
    void strash_grow();
};

/// Lower a Network into `aig`, node by node in topological order. `pi_lits`
/// supplies the literal carrying each of the network's primary inputs (by
/// PI position) — passing the same literals for two networks is how a miter
/// shares its input space. Returns the literal of every network node (dead
/// nodes get kAigFalse). SOP evaluation order matches simulate_block
/// exactly: cube = AND of cared literals, node = OR of cubes, optionally
/// complemented.
std::vector<AigLit> lower_network(const Network& net, Aig& aig,
                                  std::span<const AigLit> pi_lits);

}  // namespace lily
