#include "subject/cones.hpp"

#include <algorithm>
#include <bit>
#include <limits>

namespace lily {

ConePartition partition_cones(const SubjectGraph& g) {
    ConePartition p;
    std::vector<bool> seen_root(g.size(), false);
    for (const SubjectOutput& po : g.outputs()) {
        if (seen_root[po.driver]) continue;  // outputs sharing a driver share a cone
        seen_root[po.driver] = true;
        p.roots.push_back(po.driver);
    }
    p.words = (p.roots.size() + 63) / 64;
    p.member.assign(g.size() * p.words, 0);
    for (std::size_t i = 0; i < p.roots.size(); ++i) {
        p.member[p.roots[i] * p.words + i / 64] |= std::uint64_t{1} << (i % 64);
    }
    // Ids are topological, so every fanout of v is final before v is reached.
    const SubjectTopology& t = g.topology();
    if (p.words > 0) {
        for (SubjectId v = static_cast<SubjectId>(g.size()); v-- > 0;) {
            std::uint64_t* mv = p.member.data() + v * p.words;
            for (const SubjectId f : t.fanouts_of(v)) {
                const std::uint64_t* mf = p.member.data() + f * p.words;
                for (std::size_t w = 0; w < p.words; ++w) mv[w] |= mf[w];
            }
        }
    }
    std::vector<std::size_t> identity(p.roots.size());
    for (std::size_t i = 0; i < identity.size(); ++i) identity[i] = i;
    p.assign_buckets(g, identity);
    return p;
}

void ConePartition::assign_buckets(const SubjectGraph& g, std::span<const std::size_t> order) {
    constexpr std::size_t kNone = static_cast<std::size_t>(-1);
    // first[v] = lowest processing rank among the cones containing v: seeded
    // at the roots, then pulled down from the fanouts in reverse id order.
    std::vector<std::size_t> first(g.size(), kNone);
    for (std::size_t k = 0; k < order.size(); ++k) first[roots[order[k]]] = k;
    const SubjectTopology& t = g.topology();
    for (SubjectId v = static_cast<SubjectId>(g.size()); v-- > 0;) {
        for (const SubjectId f : t.fanouts_of(v)) first[v] = std::min(first[v], first[f]);
    }
    // Counting sort by rank; the id-order fill keeps every bucket sorted.
    std::vector<std::uint32_t> size(order.size(), 0);
    for (const std::size_t k : first) {
        if (k != kNone) ++size[k];
    }
    buckets = Csr<SubjectId>::counted(
        order.size(), [&](std::size_t k) { return size[k]; },
        [&](auto emit) {
            for (SubjectId v = 0; v < g.size(); ++v) {
                if (first[v] != kNone) emit(first[v], v);
            }
        });
}

std::vector<std::vector<unsigned>> exit_line_matrix(const SubjectGraph& g,
                                                    const ConePartition& cones) {
    const std::size_t nc = cones.size();
    std::vector<std::vector<unsigned>> m(nc, std::vector<unsigned>(nc, 0));
    if (nc == 0) return m;
    const SubjectTopology& t = g.topology();
    for (SubjectId u = 0; u < g.size(); ++u) {
        const std::span<const std::uint64_t> mu = cones.bits(u);
        for (const SubjectId v : t.fanouts_of(u)) {
            const std::span<const std::uint64_t> mv = cones.bits(v);
            // Line u -> v exits every cone holding u but not v, into every
            // cone holding v (never the exited cone itself).
            for (std::size_t wi = 0; wi < cones.words; ++wi) {
                for (std::uint64_t x = mu[wi] & ~mv[wi]; x != 0; x &= x - 1) {
                    std::vector<unsigned>& row = m[wi * 64 + std::countr_zero(x)];
                    for (std::size_t wj = 0; wj < cones.words; ++wj) {
                        for (std::uint64_t y = mv[wj]; y != 0; y &= y - 1) {
                            ++row[wj * 64 + std::countr_zero(y)];
                        }
                    }
                }
            }
        }
    }
    return m;
}

namespace {

std::vector<std::size_t> greedy_min_row_sum(const std::vector<std::vector<unsigned>>& m) {
    // Row sums over the cones not yet emitted, kept up to date by subtracting
    // each emitted cone's column: O(nc^2) in total.
    const std::size_t nc = m.size();
    std::vector<std::uint64_t> row_sum(nc, 0);
    for (std::size_t i = 0; i < nc; ++i) {
        for (const unsigned e : m[i]) row_sum[i] += e;
    }
    std::vector<bool> done(nc, false);
    std::vector<std::size_t> order;
    order.reserve(nc);
    for (std::size_t step = 0; step < nc; ++step) {
        std::size_t best = nc;
        std::uint64_t best_sum = std::numeric_limits<std::uint64_t>::max();
        for (std::size_t i = 0; i < nc; ++i) {
            if (!done[i] && row_sum[i] < best_sum) {
                best_sum = row_sum[i];
                best = i;
            }
        }
        done[best] = true;
        order.push_back(best);
        for (std::size_t i = 0; i < nc; ++i) row_sum[i] -= m[i][best];
    }
    return order;
}

/// Adjacent-swap hill climbing: swapping neighbours a,b changes the cost by
/// E[b][a] - E[a][b], so swap while E[a][b] > E[b][a]. Each swap strictly
/// lowers the (integer) cost, so this terminates.
void improve_by_adjacent_swaps(const std::vector<std::vector<unsigned>>& m,
                               std::vector<std::size_t>& order) {
    bool changed = true;
    while (changed) {
        changed = false;
        for (std::size_t k = 0; k + 1 < order.size(); ++k) {
            const std::size_t a = order[k];
            const std::size_t b = order[k + 1];
            if (m[a][b] > m[b][a]) {
                std::swap(order[k], order[k + 1]);
                changed = true;
            }
        }
    }
}

}  // namespace

std::vector<std::size_t> order_cones(const SubjectGraph& g, const ConePartition& cones) {
    // The paper's greedy min-row-sum pass is a heuristic (its optimality
    // claim does not hold in general); we additionally compare against the
    // identity ordering and polish with adjacent swaps, so the result is
    // never worse than processing cones in declaration order.
    const auto m = exit_line_matrix(g, cones);
    std::vector<std::size_t> greedy = greedy_min_row_sum(m);
    std::vector<std::size_t> identity(cones.size());
    for (std::size_t i = 0; i < cones.size(); ++i) identity[i] = i;
    std::vector<std::size_t> order =
        ordering_cost(m, greedy) <= ordering_cost(m, identity) ? std::move(greedy)
                                                               : std::move(identity);
    improve_by_adjacent_swaps(m, order);
    return order;
}

std::size_t ordering_cost(const std::vector<std::vector<unsigned>>& matrix,
                          const std::vector<std::size_t>& order) {
    std::size_t cost = 0;
    for (std::size_t a = 0; a < order.size(); ++a) {
        for (std::size_t b = a + 1; b < order.size(); ++b) {
            cost += matrix[order[a]][order[b]];
        }
    }
    return cost;
}

TreePartition partition_trees(const SubjectGraph& g) {
    TreePartition part;
    part.tree_of.assign(g.size(), TreePartition::npos);

    const SubjectTopology& t = g.topology();
    const auto is_root = [&](SubjectId v) {
        if (t.kind[v] == SubjectKind::Input) return false;
        return g.drives_output(v) || t.fanouts_of(v).size() != 1;
    };

    // Assign each gate node to the tree of its unique fanout chain root.
    // Process in reverse topological order so the root is known first.
    std::vector<std::size_t> root_tree(g.size(), TreePartition::npos);
    for (SubjectId v = static_cast<SubjectId>(g.size()); v-- > 0;) {
        if (t.kind[v] == SubjectKind::Input) continue;
        if (is_root(v)) {
            root_tree[v] = part.trees.size();
            part.trees.emplace_back();
            part.tree_of[v] = root_tree[v];
        } else {
            part.tree_of[v] = part.tree_of[t.fanouts_of(v)[0]];
        }
    }
    // Collect members in topological (id) order, root last within each tree.
    for (SubjectId v = 0; v < g.size(); ++v) {
        if (part.tree_of[v] != TreePartition::npos) part.trees[part.tree_of[v]].push_back(v);
    }
    return part;
}

}  // namespace lily
