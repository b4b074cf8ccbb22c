// Reference pattern enumerator for tests: the original string-keyed,
// shared_ptr-tree generator, kept verbatim so Pattern.MatchesOracle can
// check that the production enumerator in src/library/pattern.cpp emits the
// same pattern list, node for node. Not linked into the library. It is
// exponential in block width (about 0.3 s for an 8-input NAND, a minute
// for 10 inputs), so tests keep its cases small.
#include "pattern_oracle.hpp"

#include <algorithm>
#include <map>
#include <memory>
#include <stdexcept>

namespace lily::oracle {

namespace {

/// Build-time tree node (shared so common subtrees are reused during
/// enumeration; flattened into PatternGraph at the end).
struct PTree {
    PatternKind kind;
    unsigned var = 0;
    std::shared_ptr<const PTree> a;
    std::shared_ptr<const PTree> b;
};
using PTreePtr = std::shared_ptr<const PTree>;

PTreePtr leaf(unsigned var) {
    auto t = std::make_shared<PTree>();
    t->kind = PatternKind::Input;
    t->var = var;
    return t;
}

PTreePtr inv(PTreePtr a) {
    // Cancel double inverters: patterns never need INV(INV(x)).
    if (a->kind == PatternKind::Inv) return a->a;
    auto t = std::make_shared<PTree>();
    t->kind = PatternKind::Inv;
    t->a = std::move(a);
    return t;
}

PTreePtr nand2(PTreePtr a, PTreePtr b) {
    auto t = std::make_shared<PTree>();
    t->kind = PatternKind::Nand2;
    t->a = std::move(a);
    t->b = std::move(b);
    return t;
}

/// Shape string: leaves anonymized. Two patterns with the same shape and
/// the same variable-repetition structure match exactly the same subject
/// trees, so they are redundant for the mapper.
std::string shape(const PTree& t) {
    switch (t.kind) {
        case PatternKind::Input:
            return "v";
        case PatternKind::Inv:
            return "I(" + shape(*t.a) + ")";
        case PatternKind::Nand2: {
            std::string ca = shape(*t.a);
            std::string cb = shape(*t.b);
            if (cb < ca) std::swap(ca, cb);
            return "N(" + ca + "," + cb + ")";
        }
    }
    return "?";
}

/// Exact serialization with original variable ids (used only to order
/// shape-tied children deterministically).
std::string exact(const PTree& t) {
    switch (t.kind) {
        case PatternKind::Input: {
            std::string v = "v";
            v += std::to_string(t.var);
            return v;
        }
        case PatternKind::Inv:
            return "I(" + exact(*t.a) + ")";
        case PatternKind::Nand2: {
            std::string ca = exact(*t.a);
            std::string cb = exact(*t.b);
            if (cb < ca) std::swap(ca, cb);
            return "N(" + ca + "," + cb + ")";
        }
    }
    return "?";
}

/// Rename variables in first-appearance order along the shape-sorted
/// traversal, so patterns that differ only by a variable permutation get
/// the same key (the matcher binds variables freely, and pin timing is
/// uniform per gate, so such patterns are interchangeable).
void renamed_walk(const PTree& t, std::map<unsigned, unsigned>& rename, std::string& out) {
    switch (t.kind) {
        case PatternKind::Input: {
            const auto [it, fresh] = rename.emplace(t.var, static_cast<unsigned>(rename.size()));
            (void)fresh;
            out += "v";
            out += std::to_string(it->second);
            break;
        }
        case PatternKind::Inv:
            out += "I(";
            renamed_walk(*t.a, rename, out);
            out += ")";
            break;
        case PatternKind::Nand2: {
            const PTree* first = t.a.get();
            const PTree* second = t.b.get();
            const std::string sa = shape(*first);
            const std::string sb = shape(*second);
            if (sb < sa || (sa == sb && exact(*second) < exact(*first))) std::swap(first, second);
            out += "N(";
            renamed_walk(*first, rename, out);
            out += ",";
            renamed_walk(*second, rename, out);
            out += ")";
            break;
        }
    }
}

std::string canon(const PTree& t) {
    std::map<unsigned, unsigned> rename;
    std::string out = shape(t);
    out += "|";
    renamed_walk(t, rename, out);
    return out;
}

void dedupe(std::vector<PTreePtr>& v, std::size_t cap) {
    std::map<std::string, PTreePtr> seen;
    for (auto& t : v) seen.emplace(canon(*t), t);
    v.clear();
    for (auto& [key, t] : seen) {
        v.push_back(std::move(t));
        if (v.size() >= cap) break;
    }
}

class Generator {
public:
    Generator(std::size_t cap) : cap_(cap) {}

    /// All decompositions of `e` producing the given phase of its function.
    std::vector<PTreePtr> variants(const ExprPtr& e, bool positive) {
        const auto key = std::make_pair(e.get(), positive);
        if (const auto it = memo_.find(key); it != memo_.end()) return it->second;
        std::vector<PTreePtr> out;
        switch (e->kind) {
            case ExprKind::Var:
                out.push_back(positive ? leaf(e->var) : inv(leaf(e->var)));
                break;
            case ExprKind::Not:
                out = variants(e->kids[0], !positive);
                break;
            case ExprKind::And:
                out = positive ? and_pos(e->kids) : and_neg(e->kids);
                break;
            case ExprKind::Or:
                out = positive ? or_pos(e->kids) : or_neg(e->kids);
                break;
            case ExprKind::Const0:
            case ExprKind::Const1:
                break;  // no structural pattern for constants
        }
        dedupe(out, cap_);
        memo_.emplace(key, out);
        return out;
    }

private:
    using Block = std::vector<ExprPtr>;

    std::vector<PTreePtr> and_pos(const Block& kids) {
        std::vector<PTreePtr> out;
        for (auto& t : and_neg(kids)) out.push_back(inv(t));
        return out;
    }

    // NAND of the block: split into two sub-blocks, AND each, NAND results.
    std::vector<PTreePtr> and_neg(const Block& kids) {
        if (kids.size() == 1) return variants(kids[0], false);
        std::vector<PTreePtr> out;
        for_each_split(kids, [&](const Block& s1, const Block& s2) {
            const auto lhs = block_and_pos(s1);
            const auto rhs = block_and_pos(s2);
            for (const auto& a : lhs) {
                for (const auto& b : rhs) {
                    out.push_back(nand2(a, b));
                    if (out.size() >= cap_ * 8) return;
                }
            }
        });
        return out;
    }

    std::vector<PTreePtr> block_and_pos(const Block& kids) {
        if (kids.size() == 1) return variants(kids[0], true);
        std::vector<PTreePtr> out;
        for (auto& t : and_neg(kids)) out.push_back(inv(t));
        dedupe(out, cap_);
        return out;
    }

    // OR of the block: OR(S1, S2) = NAND(!OR(S1), !OR(S2)).
    std::vector<PTreePtr> or_pos(const Block& kids) {
        if (kids.size() == 1) return variants(kids[0], true);
        std::vector<PTreePtr> out;
        for_each_split(kids, [&](const Block& s1, const Block& s2) {
            const auto lhs = block_or_neg(s1);
            const auto rhs = block_or_neg(s2);
            for (const auto& a : lhs) {
                for (const auto& b : rhs) {
                    out.push_back(nand2(a, b));
                    if (out.size() >= cap_ * 8) return;
                }
            }
        });
        return out;
    }

    std::vector<PTreePtr> or_neg(const Block& kids) {
        if (kids.size() == 1) return variants(kids[0], false);
        std::vector<PTreePtr> out;
        for (auto& t : or_pos(kids)) out.push_back(inv(t));
        dedupe(out, cap_);
        return out;
    }

    std::vector<PTreePtr> block_or_neg(const Block& kids) {
        std::vector<PTreePtr> out = or_neg(kids);
        dedupe(out, cap_);
        return out;
    }

    /// Every split of the block into two non-empty sub-blocks, up to swap
    /// (element 0 stays in the first block).
    template <typename Fn>
    void for_each_split(const Block& kids, Fn&& fn) {
        const std::size_t k = kids.size();
        if (k > 12) throw std::invalid_argument("pattern generation: gate fanin too large");
        for (std::uint32_t mask = 1; mask < (1u << (k - 1)); ++mask) {
            // mask bit i says kids[i+1] goes to block 2; kids[0] is block 1.
            Block s1{kids[0]};
            Block s2;
            for (std::size_t i = 1; i < k; ++i) {
                if ((mask >> (i - 1)) & 1) {
                    s2.push_back(kids[i]);
                } else {
                    s1.push_back(kids[i]);
                }
            }
            fn(s1, s2);
        }
    }

    std::size_t cap_;
    std::map<std::pair<const Expr*, bool>, std::vector<PTreePtr>> memo_;
};

void flatten(const PTree& t, PatternGraph& g, std::int32_t& out_index) {
    std::int32_t c0 = -1;
    std::int32_t c1 = -1;
    if (t.a) flatten(*t.a, g, c0);
    if (t.b) flatten(*t.b, g, c1);
    PatternNode n;
    n.kind = t.kind;
    n.child0 = c0;
    n.child1 = c1;
    n.var = t.var;
    out_index = static_cast<std::int32_t>(g.nodes.size());
    g.nodes.push_back(n);
}

}  // namespace

std::vector<PatternGraph> oracle_generate_patterns(const ExprPtr& expr, unsigned n_vars,
                                                   std::size_t max_patterns) {
    Generator gen(max_patterns);
    auto trees = gen.variants(expr, true);
    // A buffer-like equation (O=a) decomposes to a bare leaf, which is not a
    // coverable structure; represent it as a double inverter, the classic
    // buffer pattern.
    for (auto& t : trees) {
        if (t->kind == PatternKind::Input) {
            auto first = std::make_shared<PTree>();
            first->kind = PatternKind::Inv;
            first->a = t;
            auto second = std::make_shared<PTree>();
            second->kind = PatternKind::Inv;
            second->a = first;
            t = second;
        }
    }
    std::vector<PatternGraph> out;
    out.reserve(trees.size());
    for (const auto& t : trees) {
        PatternGraph g;
        g.n_vars = n_vars;
        flatten(*t, g, g.root);
        out.push_back(std::move(g));
        if (out.size() >= max_patterns) break;
    }
    // Prefer small/shallow patterns first: stable cost ordering for ties.
    std::stable_sort(out.begin(), out.end(), [](const PatternGraph& a, const PatternGraph& b) {
        return a.internal_size() != b.internal_size() ? a.internal_size() < b.internal_size()
                                                      : a.depth() < b.depth();
    });
    return out;
}

}  // namespace lily::oracle
