// Pattern graphs: each library gate is represented by one or more trees of
// the base functions (2-input NAND and inverter), exactly as in DAGON/MIS.
// Patterns are "leaf-DAGs": internal structure is a tree, but the same
// input variable may label several leaves (e.g. XOR written as a*!b+!a*b).
// The generator enumerates the distinct NAND2/INV decompositions of a gate
// equation up to per-node child commutativity (the matcher tries both child
// orders, so mirror-image shapes are redundant and deduplicated).
//
// Enumeration. An n-ary AND/OR block is split into two order-preserving
// sub-blocks in every way that keeps its first kid on the left, each side
// decomposed recursively, and the cross product NANDed. Every block met is
// a subset of one expression node's kids, so block results are memoized by
// (expression node, kid bitmask) and expression results by (node, phase):
// each sub-block is enumerated once, which bounds a 10-input gate to tens
// of milliseconds. Trees are hash-consed nodes in one arena (keyed by kind
// and child ids); only trees that survive a deduplication are interned.
//
// Order contract (the goldens depend on it). Each candidate list is
// deduplicated by a key: the tree's shape (leaves anonymized, NAND children
// in a canonical order), then its leaf variables renamed in order of first
// appearance along a walk that visits the smaller child first. Keys compare
// as the serializations "I(x)", "N(lo,hi)", "v<n>" would as strings, but
// are computed structurally, once per candidate. The first-enumerated tree
// of each key represents it, survivors are ordered by key and cut at
// `max_patterns` (a cross product stops after 8x that many trees, each
// later split still adding its first pair), and the final list is stably
// sorted by (internal_size, depth). tests/pattern_oracle.cpp keeps the
// original string-keyed enumerator, and Pattern.MatchesOracle checks that
// both emit identical node lists.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "library/expr.hpp"
#include "netlist/sop.hpp"

namespace lily {

enum class PatternKind : std::uint8_t { Input, Inv, Nand2 };

struct PatternNode {
    PatternKind kind = PatternKind::Input;
    std::int32_t child0 = -1;
    std::int32_t child1 = -1;
    unsigned var = 0;  // for Input
};

/// One NAND2/INV decomposition of a gate function. Nodes are stored in
/// topological order (children before parents); `root` is the last node.
struct PatternGraph {
    std::vector<PatternNode> nodes;
    std::int32_t root = -1;
    unsigned n_vars = 0;

    /// Number of internal (Inv/Nand2) nodes.
    std::size_t internal_size() const;
    /// Longest input-to-root path in base gates.
    std::size_t depth() const;
    /// Exact function over n_vars inputs (for validation).
    TruthTable truth_table() const;
    /// Canonical serialization, invariant under NAND child swaps.
    std::string canonical() const;
};

/// Enumerate NAND2/INV decompositions of `expr` (positive phase), capped at
/// `max_patterns` deduplicated results. Deterministic. Constant expressions
/// yield no patterns.
std::vector<PatternGraph> generate_patterns(const ExprPtr& expr, unsigned n_vars,
                                            std::size_t max_patterns = 64);

}  // namespace lily
