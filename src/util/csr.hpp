// Flat adjacency (CSR) for the hot-path graph kernels.
//
// The pointer-based graph types (Network, SubjectGraph) keep one
// std::vector per node for adjacency — ideal for incremental construction,
// hostile to the inner loops that walk millions of edges: every list is a
// separate heap block, so a traversal is a pointer chase with no spatial
// locality and the allocator shows up in every profile. The flow therefore
// freezes each hot graph into a Csr view once per epoch (see the Version
// machinery in util/version.hpp): two flat arrays, `offsets` (n+1 entries)
// and `targets`, with node i's neighbors at targets[offsets[i]..offsets[i+1]).
// Frozen views are immutable; mutation invalidates them by version bump and
// the next consumer rebuilds.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace lily {

/// Compressed sparse row adjacency over nodes [0, n). Id is the node/edge
/// id type (SubjectId, NodeId, ...). Build with CsrBuilder or the two-pass
/// counting constructor below; immutable afterwards.
template <typename Id>
class Csr {
public:
    Csr() = default;

    /// Two-pass build from an edge enumerator: `degrees(i)` returns node
    /// i's out-degree, `fill(emit)` calls emit(src, dst) once per edge in
    /// any order. Edges land in per-source slots, preserving emission
    /// order within each source.
    template <typename DegreeFn, typename FillFn>
    static Csr counted(std::size_t n, DegreeFn&& degrees, FillFn&& fill) {
        Csr c;
        c.offsets_.assign(n + 1, 0);
        for (std::size_t i = 0; i < n; ++i) {
            c.offsets_[i + 1] = c.offsets_[i] + degrees(i);
        }
        c.targets_.resize(c.offsets_[n]);
        std::vector<std::uint32_t> cursor(n, 0);
        fill([&](std::size_t src, Id dst) {
            c.targets_[c.offsets_[src] + cursor[src]++] = dst;
        });
        return c;
    }

    std::size_t node_count() const { return offsets_.empty() ? 0 : offsets_.size() - 1; }
    std::size_t edge_count() const { return targets_.size(); }
    bool empty() const { return offsets_.empty(); }

    std::span<const Id> neighbors(std::size_t i) const {
        assert(i + 1 < offsets_.size());
        return {targets_.data() + offsets_[i], targets_.data() + offsets_[i + 1]};
    }
    std::uint32_t degree(std::size_t i) const { return offsets_[i + 1] - offsets_[i]; }

private:
    // 32-bit offsets: the hot graphs stay well under 4G edges, and halving
    // the offset table is most of the point of flattening.
    std::vector<std::uint32_t> offsets_;  // n + 1 entries (empty when unbuilt)
    std::vector<Id> targets_;
};

}  // namespace lily
