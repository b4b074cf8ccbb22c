// Logic cones, maximal-tree partitioning, and the paper's cone-ordering
// heuristic (Section 3.5).
//
// MIS-style mapping processes one logic cone (a primary output plus its
// transitive fanin) at a time, allowing covers to cross tree boundaries by
// duplicating logic. DAGON-style mapping instead partitions the subject
// graph into maximal fanout-free trees and maps each optimally.
//
// The cone ordering minimizes references from mapped cones into not-yet-
// mapped logic: build the exit-line matrix E where E[i][j] counts lines
// leaving cone i into cone j, then repeatedly emit the cone with minimum
// remaining row sum.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "subject/subject_graph.hpp"
#include "util/csr.hpp"

namespace lily {

/// The logic cones K_i (one per primary-output driver, each the driver plus
/// its transitive fanin) as one linear-size structure instead of a member
/// list per cone, which costs n x cones ids when cones overlap heavily:
///
///  * roots: the cone roots, i.e. the output drivers deduplicated in output
///    order (outputs sharing a driver share a cone);
///  * membership bitsets: ceil(cones/64) words per node, bit i set iff the
///    node lies in cone i;
///  * first-cone buckets: for a processing order of the cones, bucket k
///    lists (in id = topological order) the nodes whose first containing
///    cone in that order is order[k]. Every node some cone reaches is in
///    exactly one bucket.
///
/// Walking the buckets in order visits each node once, in the cone that a
/// cone-at-a-time walk would solve it in, and in the same relative order.
struct ConePartition {
    std::vector<SubjectId> roots;
    std::size_t words = 0;              // bitset words per node
    std::vector<std::uint64_t> member;  // node v's bitset at [v * words, (v + 1) * words)
    Csr<SubjectId> buckets;             // buckets.neighbors(k) = bucket k

    std::size_t size() const { return roots.size(); }
    std::span<const std::uint64_t> bits(SubjectId v) const {
        return {member.data() + v * words, words};
    }
    bool contains(std::size_t cone, SubjectId v) const {
        return (bits(v)[cone / 64] >> (cone % 64)) & 1;
    }

    /// (Re)build the buckets for `order`, a permutation of cone indices, with
    /// an O(edges) reverse min-propagation of each node's first cone rank.
    void assign_buckets(const SubjectGraph& g, std::span<const std::size_t> order);
};

/// Roots and membership bitsets from one reverse-topological OR sweep (a
/// node belongs to every cone its fanouts belong to); buckets follow the
/// identity order.
ConePartition partition_cones(const SubjectGraph& g);

/// E[i][j] = number of lines from a node of cone i to a node of cone j that
/// is outside cone i ("exit lines", Section 3.5). Diagonal is zero.
std::vector<std::vector<unsigned>> exit_line_matrix(const SubjectGraph& g,
                                                    const ConePartition& cones);

/// Greedy min-row-sum ordering of the cones (the paper's procedure).
/// Returns a permutation of cone indices.
std::vector<std::size_t> order_cones(const SubjectGraph& g, const ConePartition& cones);

/// Total forward references of an ordering: sum over consecutive prefixes of
/// exit lines from processed cones into unprocessed ones (the objective the
/// greedy ordering minimizes). Used to compare orderings.
std::size_t ordering_cost(const std::vector<std::vector<unsigned>>& matrix,
                          const std::vector<std::size_t>& order);

/// Maximal-tree partition (DAGON). A node roots a tree iff it drives a
/// primary output, has multiple fanouts, or has none. Every tree lists its
/// member nodes in topological order (root last); leaves of the tree are
/// fanins that belong to other trees or are graph inputs.
struct TreePartition {
    std::vector<std::vector<SubjectId>> trees;
    std::vector<std::size_t> tree_of;  // node id -> tree index (inputs: npos)
    static constexpr std::size_t npos = static_cast<std::size_t>(-1);
};

TreePartition partition_trees(const SubjectGraph& g);

}  // namespace lily
