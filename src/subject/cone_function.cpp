#include "subject/cone_function.hpp"

#include <algorithm>

namespace lily {

namespace {

constexpr std::uint64_t kVarWord[6] = {
    0xAAAAAAAAAAAAAAAAull, 0xCCCCCCCCCCCCCCCCull, 0xF0F0F0F0F0F0F0F0ull,
    0xFF00FF00FF00FF00ull, 0xFFFF0000FFFF0000ull, 0xFFFFFFFF00000000ull,
};

constexpr std::uint32_t kPending = static_cast<std::uint32_t>(-2);

}  // namespace

ConeFunction::Outcome ConeFunction::evaluate(const SubjectGraph& g, SubjectId root,
                                             std::span<const SubjectId> pins,
                                             std::size_t max_nodes,
                                             bool complement_inv_leaves) {
    leaves_.clear();
    var_of_pin_.clear();
    pin_mask_.clear();
    complements_.clear();
    nodes_.clear();
    if (pins.size() > 64 || root >= g.size()) return Outcome::Open;
    if (stamp_.size() < g.size()) {
        stamp_.resize(g.size(), 0);
        slot_.resize(g.size(), 0);
    }
    if (++epoch_ == 0) {  // wrapped: forget every stale mark
        std::fill(stamp_.begin(), stamp_.end(), 0);
        epoch_ = 1;
    }

    for (std::size_t i = 0; i < pins.size(); ++i) {
        const SubjectId p = pins[i];
        if (p >= g.size()) return Outcome::Open;
        std::uint32_t var = slot_of(p);
        if (var == kUnmarked) {
            var = static_cast<std::uint32_t>(leaves_.size());
            mark(p, var);
            leaves_.push_back(p);
            pin_mask_.push_back(0);
        }
        var_of_pin_.push_back(var);
        pin_mask_[var] |= std::uint64_t{1} << i;
    }
    if (complement_inv_leaves) {
        for (unsigned k = 0; k < n_vars(); ++k) {
            const SubjectNode& leaf = g.node(leaves_[k]);
            if (leaf.kind != SubjectKind::Inv || slot_of(leaf.fanin0) != kUnmarked) continue;
            mark(leaf.fanin0, static_cast<std::uint32_t>(n_vars() + complements_.size()));
            complements_.push_back({leaf.fanin0, k});
        }
    }

    // Closure walk: every node reached from the root above the cut.
    if (slot_of(root) == kUnmarked) {
        stack_.assign(1, root);
        mark(root, kPending);
        while (!stack_.empty()) {
            const SubjectId s = stack_.back();
            stack_.pop_back();
            const SubjectNode& node = g.node(s);
            if (node.kind == SubjectKind::Input) return Outcome::Open;
            for (unsigned k = 0; k < node.fanin_count(); ++k) {
                const SubjectId f = node.fanin(k);
                if (slot_of(f) != kUnmarked) continue;
                mark(f, kPending);
                stack_.push_back(f);
            }
            nodes_.push_back(s);
            if (nodes_.size() > max_nodes) return Outcome::Open;
        }
    }
    std::sort(nodes_.begin(), nodes_.end());
    if (n_vars() > kMaxVars) return Outcome::Wide;

    // Exact tables, one slot per leaf, complement and internal node.
    const std::uint32_t first_internal = n_vars() + static_cast<std::uint32_t>(complements_.size());
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
        slot_[nodes_[i]] = first_internal + static_cast<std::uint32_t>(i);
    }
    words_ = n_vars() <= 6 ? 1 : std::size_t{1} << (n_vars() - 6);
    arena_.resize((first_internal + nodes_.size()) * words_);
    const auto table_at = [&](std::uint32_t slot) { return arena_.data() + slot * words_; };
    for (unsigned v = 0; v < n_vars(); ++v) {
        std::uint64_t* t = table_at(v);
        for (std::size_t w = 0; w < words_; ++w) {
            t[w] = v < 6 ? kVarWord[v] : (((w >> (v - 6)) & 1) ? ~std::uint64_t{0} : 0);
        }
    }
    for (std::size_t c = 0; c < complements_.size(); ++c) {
        std::uint64_t* t = table_at(n_vars() + static_cast<std::uint32_t>(c));
        const std::uint64_t* a = table_at(complements_[c].var);
        for (std::size_t w = 0; w < words_; ++w) t[w] = ~a[w];
    }
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
        const SubjectNode& node = g.node(nodes_[i]);
        std::uint64_t* t = table_at(first_internal + static_cast<std::uint32_t>(i));
        const std::uint64_t* a = table_at(slot_[node.fanin0]);
        if (node.kind == SubjectKind::Inv) {
            for (std::size_t w = 0; w < words_; ++w) t[w] = ~a[w];
        } else {
            const std::uint64_t* b = table_at(slot_[node.fanin1]);
            for (std::size_t w = 0; w < words_; ++w) t[w] = ~(a[w] & b[w]);
        }
    }
    root_slot_ = slot_[root];
    return Outcome::Exact;
}

TruthTable ConeFunction::table() const {
    TruthTable t(n_vars());
    const std::uint64_t* r = root_table();
    for (std::size_t m = 0; m < t.n_minterms(); ++m) t.set(m, (r[m >> 6] >> (m & 63)) & 1);
    return t;
}

}  // namespace lily
