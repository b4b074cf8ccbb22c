#include "library/pattern.hpp"

#include <algorithm>
#include <bit>
#include <charconv>
#include <span>
#include <stdexcept>
#include <string_view>
#include <tuple>

namespace lily {

namespace {

using Id = std::uint32_t;
inline constexpr Id kNone = static_cast<Id>(-1);

/// A run of ids in a Generator pool.
struct Span {
    Id begin = kNone;  // kNone: not computed yet
    Id size = 0;
};

/// Position of a node kind in the key order: keys serialize Inv as "I(..)",
/// Nand2 as "N(..,..)" and inputs as "v<n>", and 'I' < 'N' < 'v'.
int kind_rank(PatternKind k) {
    switch (k) {
        case PatternKind::Inv:
            return 0;
        case PatternKind::Nand2:
            return 1;
        case PatternKind::Input:
            break;
    }
    return 2;
}

/// Keys spell numbers in decimal, so they order as digit strings (10 < 2).
bool decimal_less(unsigned a, unsigned b) {
    if (a < 10 && b < 10) return a < b;
    char da[16];
    char db[16];
    const char* ea = std::to_chars(da, da + sizeof da, a).ptr;
    const char* eb = std::to_chars(db, db + sizeof db, b).ptr;
    return std::string_view(da, static_cast<std::size_t>(ea - da)) <
           std::string_view(db, static_cast<std::size_t>(eb - db));
}

std::uint64_t pack(PatternKind kind, Id x, Id y) {
    return (static_cast<std::uint64_t>(kind) << 62) | (static_cast<std::uint64_t>(x) << 31) | y;
}

/// Open-addressing map from packed keys to dense ids (hash-consing).
class InternTable {
public:
    /// The id stored under `key`; stores and returns `fresh` if there is none.
    Id find_or_add(std::uint64_t key, Id fresh) {
        if (2 * (used_ + 1) > slots_.size()) grow();
        const std::size_t mask = slots_.size() - 1;
        for (std::size_t i = hash(key) & mask;; i = (i + 1) & mask) {
            Slot& s = slots_[i];
            if (s.id == kNone) {
                s = {key, fresh};
                ++used_;
                return fresh;
            }
            if (s.key == key) return s.id;
        }
    }

private:
    struct Slot {
        std::uint64_t key = 0;
        Id id = kNone;
    };

    static std::size_t hash(std::uint64_t k) {
        k ^= k >> 33;
        k *= 0xff51afd7ed558ccdULL;
        k ^= k >> 33;
        return static_cast<std::size_t>(k);
    }

    void grow() {
        std::vector<Slot> old = std::move(slots_);
        slots_.assign(old.empty() ? 64 : 2 * old.size(), Slot{});
        used_ = 0;
        for (const Slot& s : old) {
            if (s.id != kNone) find_or_add(s.key, s.id);
        }
    }

    std::vector<Slot> slots_;
    std::size_t used_ = 0;
};

/// Trees up to NAND child swaps, hash-consed: two trees get the same class
/// id exactly when their swap-invariant serializations are equal, and
/// `less` orders classes as those serializations compare as strings
/// ("I(x)", "N(lo,hi)" with lo <= hi, "v<var>"). Keeping every input's
/// var at 0 gives the shape classes; keeping the real vars, the exact ones.
class ClassTable {
public:
    Id make(PatternKind kind, unsigned var, Id x = 0, Id y = 0) {
        if (kind == PatternKind::Nand2 && less(y, x)) std::swap(x, y);
        const Id fresh = static_cast<Id>(classes_.size());
        const Id id =
            index_.find_or_add(pack(kind, kind == PatternKind::Input ? var : x, y), fresh);
        if (id == fresh) classes_.push_back({kind, var, x, y});
        return id;
    }

    bool less(Id p, Id q) const {
        while (p != q) {
            const Class& a = classes_[p];
            const Class& b = classes_[q];
            if (a.kind != b.kind) return kind_rank(a.kind) < kind_rank(b.kind);
            if (a.kind == PatternKind::Input) return decimal_less(a.var, b.var);
            // Serializations are prefix-free, so the first differing child
            // decides.
            const bool lo_differs = a.lo != b.lo;
            p = lo_differs ? a.lo : a.hi;
            q = lo_differs ? b.lo : b.hi;
        }
        return false;
    }

private:
    struct Class {
        PatternKind kind;
        unsigned var;
        Id lo;  // the only child of an Inv
        Id hi;
    };
    std::vector<Class> classes_;
    InternTable index_;
};

/// Hash-consed pattern tree node. `a`/`b` keep construction order (that is
/// what flattening emits); the class ids, `b_first` and the leaf list carry
/// the key.
struct Node {
    PatternKind kind = PatternKind::Input;
    bool b_first = false;  // the key walk visits b before a
    unsigned var = 0;      // for Input
    Id a = kNone;
    Id b = kNone;
    Id shape = 0;  // class with leaves anonymized
    Id exact = 0;  // class with the real vars
    Id leaves = 0;
    Id leaf_vars = 0;  // offset of the leaf vars in key-walk order
    Id size = 0;       // tree nodes once flattened (shared subtrees repeat)
};

/// A tree in a candidate list, not yet interned: node `a` (b == kNone) or
/// NAND2(a, b), under an inverter when `inv` is set.
struct Candidate {
    Id a;
    Id b = kNone;
    bool inv = false;
};

/// Enumerates the NAND2/INV decompositions of one expression. Each pattern
/// set is a list of node ids, deduplicated by key and cut at `cap`:
///
///  * Memo. An n-ary AND/OR is decomposed by splitting its kids into two
///    order-preserving sub-blocks, recursively, so every block met is a
///    subset of one Expr's kids. Block results are memoized per
///    (Expr, kid bitmask) and expression results per (Expr, phase).
///  * Interning. Nodes are hash-consed by (kind, children) into one arena,
///    as are their shape and exact classes. Only trees that survive a
///    deduplication become nodes; the others live as Candidates.
///  * Keys. A tree's key is its shape class, then its leaf variables
///    renamed by first appearance along a walk that visits the smaller
///    child (by shape, then exact class) first. Each node stores its walk's
///    leaf vars, so a candidate's key is one pass over its two children's
///    lists; shapes compare through ClassTable::less.
class Generator {
public:
    Generator(const Expr& root, std::size_t cap) : cap_(cap) {
        root_ = index_expr(root);
        rename_.assign(max_var_ + 1, kNone);
    }

    /// Deduplicated decompositions of the whole expression, positive phase.
    std::span<const Id> patterns() { return view(variants(root_, true)); }

    const Node& node(Id t) const { return nodes_[t]; }

    /// Node `kind(a, b)` without double-inverter cancellation.
    Id make(PatternKind kind, unsigned var, Id a = kNone, Id b = kNone) {
        const Id fresh = static_cast<Id>(nodes_.size());
        const Id id = index_.find_or_add(
            pack(kind, kind == PatternKind::Input ? var : a, kind == PatternKind::Nand2 ? b : 0),
            fresh);
        if (id != fresh) return id;
        Node n;
        n.kind = kind;
        n.a = a;
        n.b = b;
        switch (kind) {
            case PatternKind::Input:
                n.var = var;
                n.shape = shapes_.make(kind, 0);
                n.exact = exacts_.make(kind, var);
                n.leaves = 1;
                n.leaf_vars = static_cast<Id>(leaf_vars_.size());
                leaf_vars_.push_back(var);
                n.size = 1;
                break;
            case PatternKind::Inv: {
                const Node& x = nodes_[a];
                n.shape = shapes_.make(kind, 0, x.shape);
                n.exact = exacts_.make(kind, 0, x.exact);
                n.leaves = x.leaves;
                n.leaf_vars = x.leaf_vars;
                n.size = x.size + 1;
                break;
            }
            case PatternKind::Nand2: {
                const Node& x = nodes_[a];
                const Node& y = nodes_[b];
                n.shape = shapes_.make(kind, 0, x.shape, y.shape);
                n.exact = exacts_.make(kind, 0, x.exact, y.exact);
                n.b_first = visits_b_first(x, y);
                n.leaves = x.leaves + y.leaves;
                n.leaf_vars = static_cast<Id>(leaf_vars_.size());
                append_leaf_vars(n.b_first ? y : x);
                append_leaf_vars(n.b_first ? x : y);
                n.size = x.size + y.size + 1;
                break;
            }
        }
        nodes_.push_back(n);
        return id;
    }

private:
    /// One Expr occurrence: its kids and memo slots.
    struct ENode {
        const Expr* expr = nullptr;
        Id first_kid = 0;  // into kids_
        Id n_kids = 0;
        Id block_base = 0;  // into blocks_, 2^n_kids slots for And/Or
        Span memo[2];       // variants by phase (0 negative, 1 positive)
    };

    /// A deduplication survivor: its candidate and key.
    struct Keyed {
        Candidate cand;
        Id shape;
        Id seq;  // offset of the renamed leaf sequence in seq_
        Id leaves;
        std::uint64_t hash;
    };

    Id index_expr(const Expr& e) {
        const Id id = static_cast<Id>(enodes_.size());
        ENode& fresh = enodes_.emplace_back();
        fresh.expr = &e;
        const Id k = static_cast<Id>(e.kids.size());
        if ((e.kind == ExprKind::And || e.kind == ExprKind::Or) && k > 12) {
            throw std::invalid_argument("pattern generation: gate fanin too large");
        }
        if (e.kind == ExprKind::Var) max_var_ = std::max(max_var_, e.var);
        const Id first = static_cast<Id>(kids_.size());
        kids_.resize(first + k);
        for (Id i = 0; i < k; ++i) {
            const Id kid = index_expr(*e.kids[i]);
            kids_[first + i] = kid;
        }
        ENode& en = enodes_[id];
        en.first_kid = first;
        en.n_kids = k;
        if (e.kind == ExprKind::And || e.kind == ExprKind::Or) {
            en.block_base = static_cast<Id>(blocks_.size());
            blocks_.resize(blocks_.size() + (std::size_t{1} << k));
        }
        return id;
    }

    std::span<const Id> view(Span s) const { return {pool_.data() + s.begin, s.size}; }

    bool visits_b_first(const Node& x, const Node& y) const {
        return shapes_.less(y.shape, x.shape) ||
               (x.shape == y.shape && exacts_.less(y.exact, x.exact));
    }

    void append_leaf_vars(const Node& n) {
        for (Id i = 0; i < n.leaves; ++i) {
            const unsigned v = leaf_vars_[n.leaf_vars + i];
            leaf_vars_.push_back(v);
        }
    }

    Id inv(Id t) {
        // Cancel double inverters: patterns never need INV(INV(x)).
        if (nodes_[t].kind == PatternKind::Inv) return nodes_[t].a;
        return make(PatternKind::Inv, 0, t);
    }

    /// All decompositions of expression `e` producing the given phase.
    Span variants(Id e, bool positive) {
        if (enodes_[e].memo[positive].begin != kNone) return enodes_[e].memo[positive];
        const Expr& ex = *enodes_[e].expr;
        const Id full = (Id{1} << enodes_[e].n_kids) - 1;
        Span out{static_cast<Id>(pool_.size()), 0};
        switch (ex.kind) {
            case ExprKind::Var: {
                const Id leaf = make(PatternKind::Input, ex.var);
                pool_.push_back(positive ? leaf : inv(leaf));
                out.size = 1;
                break;
            }
            case ExprKind::Not:
                out = variants(kids_[enodes_[e].first_kid], !positive);
                break;
            case ExprKind::And:
                // AND = INV(NAND of the block); NAND = the block's split NANDs.
                combine(e, full);
                if (positive) invert_scratch();
                out = dedupe();
                break;
            case ExprKind::Or:
                // OR = the block's split NANDs; NOR = INV(OR), except that a
                // single kid's NOR is its own negative phase.
                if (!positive && enodes_[e].n_kids == 1) {
                    out = variants(kids_[enodes_[e].first_kid], false);
                    break;
                }
                combine(e, full);
                if (!positive) invert_scratch();
                out = dedupe();
                break;
            case ExprKind::Const0:
            case ExprKind::Const1:
                break;  // no structural pattern for constants
        }
        enodes_[e].memo[positive] = out;
        return out;
    }

    /// Deduplicated operand list for one side of a split of And/Or `e`'s
    /// kid subset `mask`: AND of the sub-block (for an And) or NOR of it
    /// (for an Or), either way a NAND input.
    Span side(Id e, Id mask) {
        const bool is_and = enodes_[e].expr->kind == ExprKind::And;
        if (std::has_single_bit(mask)) {
            return variants(kids_[enodes_[e].first_kid + std::countr_zero(mask)], is_and);
        }
        Span& memo = blocks_[enodes_[e].block_base + mask];
        if (memo.begin == kNone) {
            combine(e, mask);
            invert_scratch();
            memo = dedupe();
        }
        return memo;
    }

    /// Candidates into scratch_ for the NAND (And `e`) or OR (Or `e`) of kid
    /// subset `mask`: NAND(side(s1), side(s2)) for every split, the cross
    /// product cut after cap*8 trees (each later split still adds its first
    /// pair). A single kid yields its own variants.
    void combine(Id e, Id mask) {
        const ENode& en = enodes_[e];
        const bool is_and = en.expr->kind == ExprKind::And;
        if (std::has_single_bit(mask)) {
            const Span s = variants(kids_[en.first_kid + std::countr_zero(mask)], !is_and);
            scratch_.clear();
            for (const Id t : view(s)) scratch_.push_back({t});
            return;
        }
        // Memoize every operand first, so the cross products below do not
        // recurse while scratch_ fills.
        for_each_split(mask, [&](Id s1, Id s2) {
            side(e, s1);
            side(e, s2);
        });
        scratch_.clear();
        const std::size_t limit = cap_ * 8;
        for_each_split(mask, [&](Id s1, Id s2) {
            const std::span<const Id> lhs = view(side(e, s1));
            const std::span<const Id> rhs = view(side(e, s2));
            for (const Id a : lhs) {
                for (const Id b : rhs) {
                    scratch_.push_back({a, b});
                    if (scratch_.size() >= limit) return;
                }
            }
        });
    }

    /// Every split of subset `mask` into two non-empty sub-blocks, up to
    /// swap: the lowest kid stays in the first block, and split m sends the
    /// (i+1)-th remaining kid to the second block when bit i of m is set.
    template <typename Fn>
    void for_each_split(Id mask, Fn&& fn) {
        Id bits[12];
        Id k = 0;
        for (Id m = mask; m != 0; m &= m - 1) bits[k++] = Id{1} << std::countr_zero(m);
        if (k < 2) return;
        for (Id m = 1; m < (Id{1} << (k - 1)); ++m) {
            Id s1 = bits[0];
            Id s2 = 0;
            for (Id i = 1; i < k; ++i) {
                if ((m >> (i - 1)) & 1) {
                    s2 |= bits[i];
                } else {
                    s1 |= bits[i];
                }
            }
            fn(s1, s2);
        }
    }

    /// Put every (fresh) candidate in scratch_ under an inverter.
    void invert_scratch() {
        for (Candidate& c : scratch_) {
            if (c.b == kNone && nodes_[c.a].kind == PatternKind::Inv) {
                c.a = nodes_[c.a].a;  // INV(INV(x)) = x
            } else {
                c.inv = true;
            }
        }
    }

    /// Keep the first-listed tree of each key in scratch_, order the
    /// survivors by key, and intern at most `cap` (at least one) of them
    /// into the pool.
    Span dedupe() {
        std::size_t slots = 16;
        while (slots < 2 * scratch_.size()) slots *= 2;
        seen_.assign(slots, kNone);
        kept_.clear();
        seq_.clear();
        for (const Candidate& c : scratch_) {
            Keyed k = key_of(c);
            std::size_t i = static_cast<std::size_t>(k.hash) & (slots - 1);
            bool duplicate = false;
            for (; seen_[i] != kNone; i = (i + 1) & (slots - 1)) {
                const Keyed& o = kept_[seen_[i]];
                if (o.hash == k.hash && key_compare(o, k) == 0) {
                    duplicate = true;
                    break;
                }
            }
            if (duplicate) {
                seq_.resize(k.seq);
                continue;
            }
            seen_[i] = static_cast<Id>(kept_.size());
            kept_.push_back(k);
        }
        std::sort(kept_.begin(), kept_.end(),
                  [&](const Keyed& x, const Keyed& y) { return key_compare(x, y) < 0; });
        Span out{static_cast<Id>(pool_.size()), 0};
        for (const Keyed& k : kept_) {
            Id t = k.cand.b == kNone ? k.cand.a : make(PatternKind::Nand2, 0, k.cand.a, k.cand.b);
            if (k.cand.inv) t = make(PatternKind::Inv, 0, t);
            pool_.push_back(t);
            if (++out.size >= cap_) break;
        }
        return out;
    }

    /// The key of candidate `c`; its renamed leaf sequence is appended to seq_.
    Keyed key_of(const Candidate& c) {
        Keyed k{c, 0, static_cast<Id>(seq_.size()), 0, 0};
        if (c.b == kNone) {
            const Node& n = nodes_[c.a];
            k.shape = n.shape;
            rename_leaves(n);
        } else {
            const Node& x = nodes_[c.a];
            const Node& y = nodes_[c.b];
            k.shape = shapes_.make(PatternKind::Nand2, 0, x.shape, y.shape);
            const bool b_first = visits_b_first(x, y);
            rename_leaves(b_first ? y : x);
            rename_leaves(b_first ? x : y);
        }
        if (c.inv) k.shape = shapes_.make(PatternKind::Inv, 0, k.shape);
        for (const unsigned v : seen_vars_) rename_[v] = kNone;
        seen_vars_.clear();
        k.leaves = static_cast<Id>(seq_.size()) - k.seq;
        std::uint64_t h = 0xcbf29ce484222325ULL ^ k.shape;
        for (Id i = k.seq; i < seq_.size(); ++i) h = (h ^ seq_[i]) * 0x100000001b3ULL;
        k.hash = h ^ (h >> 29);
        return k;
    }

    /// Append n's leaf vars to seq_, renamed by first appearance (renaming
    /// carries over from earlier calls for the same key).
    void rename_leaves(const Node& n) {
        for (Id i = 0; i < n.leaves; ++i) {
            const unsigned v = leaf_vars_[n.leaf_vars + i];
            if (rename_[v] == kNone) {
                rename_[v] = static_cast<Id>(seen_vars_.size());
                seen_vars_.push_back(v);
            }
            seq_.push_back(rename_[v]);
        }
    }

    /// Three-way key comparison: shape, then renamed leaf sequence.
    int key_compare(const Keyed& x, const Keyed& y) const {
        if (x.shape != y.shape) return shapes_.less(x.shape, y.shape) ? -1 : 1;
        // Equal shapes have equal leaf counts.
        for (Id i = 0; i < x.leaves; ++i) {
            const Id u = seq_[x.seq + i];
            const Id v = seq_[y.seq + i];
            if (u != v) return decimal_less(u, v) ? -1 : 1;
        }
        return 0;
    }

    std::size_t cap_;
    Id root_ = 0;
    unsigned max_var_ = 0;
    std::vector<ENode> enodes_;
    std::vector<Id> kids_;
    std::vector<Span> blocks_;
    std::vector<Node> nodes_;
    std::vector<unsigned> leaf_vars_;
    InternTable index_;
    ClassTable shapes_;
    ClassTable exacts_;
    std::vector<Id> pool_;
    std::vector<Candidate> scratch_;
    // dedupe() state
    std::vector<Id> seen_;  // open-addressing set of kept_ indices
    std::vector<Keyed> kept_;
    std::vector<Id> seq_;
    std::vector<Id> rename_;  // var -> renamed id during one key_of
    std::vector<unsigned> seen_vars_;
};

void flatten(const Generator& gen, Id t, PatternGraph& g, std::int32_t& out_index) {
    const Node& n = gen.node(t);
    PatternNode p;
    p.kind = n.kind;
    p.var = n.var;
    if (n.a != kNone) flatten(gen, n.a, g, p.child0);
    if (n.b != kNone) flatten(gen, n.b, g, p.child1);
    out_index = static_cast<std::int32_t>(g.nodes.size());
    g.nodes.push_back(p);
}

}  // namespace

std::size_t PatternGraph::internal_size() const {
    std::size_t n = 0;
    for (const auto& node : nodes) {
        if (node.kind != PatternKind::Input) ++n;
    }
    return n;
}

std::size_t PatternGraph::depth() const {
    std::vector<std::size_t> d(nodes.size(), 0);
    for (std::size_t i = 0; i < nodes.size(); ++i) {
        const auto& n = nodes[i];
        if (n.kind == PatternKind::Input) continue;
        std::size_t m = 0;
        if (n.child0 >= 0) m = std::max(m, d[static_cast<std::size_t>(n.child0)]);
        if (n.child1 >= 0) m = std::max(m, d[static_cast<std::size_t>(n.child1)]);
        d[i] = m + 1;
    }
    return root >= 0 ? d[static_cast<std::size_t>(root)] : 0;
}

TruthTable PatternGraph::truth_table() const {
    std::vector<TruthTable> val(nodes.size());
    for (std::size_t i = 0; i < nodes.size(); ++i) {
        const auto& n = nodes[i];
        switch (n.kind) {
            case PatternKind::Input:
                val[i] = TruthTable::variable(n.var, n_vars);
                break;
            case PatternKind::Inv:
                val[i] = ~val[static_cast<std::size_t>(n.child0)];
                break;
            case PatternKind::Nand2:
                val[i] = ~(val[static_cast<std::size_t>(n.child0)] &
                           val[static_cast<std::size_t>(n.child1)]);
                break;
        }
    }
    return root >= 0 ? val[static_cast<std::size_t>(root)] : TruthTable(n_vars);
}

std::string PatternGraph::canonical() const {
    std::vector<std::string> s(nodes.size());
    for (std::size_t i = 0; i < nodes.size(); ++i) {
        const auto& n = nodes[i];
        switch (n.kind) {
            case PatternKind::Input:
                s[i] = "v";
                s[i] += std::to_string(n.var);
                break;
            case PatternKind::Inv:
                s[i] = "I(";
                s[i] += s[static_cast<std::size_t>(n.child0)];
                s[i] += ")";
                break;
            case PatternKind::Nand2: {
                std::string a = s[static_cast<std::size_t>(n.child0)];
                std::string b = s[static_cast<std::size_t>(n.child1)];
                if (b < a) std::swap(a, b);
                s[i] = "N(";
                s[i] += a;
                s[i] += ",";
                s[i] += b;
                s[i] += ")";
                break;
            }
        }
    }
    return root >= 0 ? s[static_cast<std::size_t>(root)] : "";
}

std::vector<PatternGraph> generate_patterns(const ExprPtr& expr, unsigned n_vars,
                                            std::size_t max_patterns) {
    Generator gen(*expr, max_patterns);
    const std::span<const Id> trees = gen.patterns();
    std::vector<PatternGraph> out;
    out.reserve(trees.size());
    for (Id t : trees) {
        // A buffer-like equation (O=a) decomposes to a bare leaf, which is
        // not a coverable structure; represent it as a double inverter, the
        // classic buffer pattern.
        if (gen.node(t).kind == PatternKind::Input) {
            t = gen.make(PatternKind::Inv, 0, gen.make(PatternKind::Inv, 0, t));
        }
        PatternGraph g;
        g.n_vars = n_vars;
        g.nodes.reserve(gen.node(t).size);
        flatten(gen, t, g, g.root);
        out.push_back(std::move(g));
        if (out.size() >= max_patterns) break;
    }
    // Prefer small/shallow patterns first: stable cost ordering for ties.
    std::vector<std::tuple<std::size_t, std::size_t, std::size_t>> order;  // size, depth, index
    order.reserve(out.size());
    for (std::size_t i = 0; i < out.size(); ++i) {
        order.emplace_back(out[i].internal_size(), out[i].depth(), i);
    }
    std::sort(order.begin(), order.end());
    std::vector<PatternGraph> sorted;
    sorted.reserve(out.size());
    for (const auto& [size, depth, i] : order) sorted.push_back(std::move(out[i]));
    return sorted;
}

}  // namespace lily
