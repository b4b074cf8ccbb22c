// The exact function of a subject-graph cone over bound leaves — the one
// place the pin-aliasing rule lives. A cover claims that the cone below a
// subject node, cut at a list of bound leaves ("pins"), computes a known
// function of those pins: a library gate bound by a match or a mapped
// instance, or a source node's SOP bound to its fanins' signals by the
// decomposition. Both the match checker and the mapping certificate check
// such claims through ConeFunction.
//
// Pin aliasing: pins bound to the same subject node are electrically tied,
// so the cone is evaluated over the *distinct* leaves and pin i reads
// variable var_of_pin(i). A claimed function is compared under that
// identification, i.e. only on pin assignments where tied pins agree.
//
// The walk from the root stops at leaves; it must not reach a subject Input
// that is not a leaf (the cut must close). With `complement_inv_leaves`,
// the fanin of an Inv leaf also reads as that leaf's complement, so a cut
// may close through a leaf's own cone (decompositions built with
// inverter-pair cancellation fold NOT(leaf) onto the leaf's fanin).
//
// Storage is reused across evaluations: node marks are epoch-stamped and
// the word arena keeps its capacity, so a sweep over a whole netlist does
// not allocate per cone once the buffers have grown.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "netlist/sop.hpp"
#include "subject/subject_graph.hpp"

namespace lily {

class ConeFunction {
public:
    /// Widest exact truth table (distinct leaves), as for TruthTable.
    static constexpr unsigned kMaxVars = 16;

    enum class Outcome : std::uint8_t {
        Exact,  // closed, table computed: equals()/table() are valid
        Wide,   // closed, more than kMaxVars distinct leaves: nodes() only
        Open,   // the walk left the cut, met an id past the graph, or
                // exceeded max_nodes
    };

    /// Walk and evaluate the cone of `root` cut at `pins` (at most 64).
    Outcome evaluate(const SubjectGraph& g, SubjectId root, std::span<const SubjectId> pins,
                     std::size_t max_nodes = static_cast<std::size_t>(-1),
                     bool complement_inv_leaves = false);

    /// Distinct leaves; leaf k is variable k.
    unsigned n_vars() const { return static_cast<unsigned>(leaves_.size()); }
    std::span<const SubjectId> leaves() const { return leaves_; }
    std::span<const unsigned> var_of_pin() const { return var_of_pin_; }
    /// Complemented leaves (complement_inv_leaves): node and the variable
    /// whose complement it reads.
    struct Complement {
        SubjectId node;
        unsigned var;
    };
    std::span<const Complement> complements() const { return complements_; }
    /// Internal cone nodes, ascending (= topological) ids, root last unless
    /// the root itself is a leaf.
    std::span<const SubjectId> nodes() const { return nodes_; }

    /// After Exact: does the cone equal `f` on every assignment of the
    /// distinct leaves? `f` receives the pin-level assignment (bit i = value
    /// of pin i, tied pins equal) and returns the claimed output.
    template <typename F>
    bool equals(F&& f) const {
        const std::uint64_t* t = root_table();
        const std::size_t minterms = std::size_t{1} << n_vars();
        for (std::size_t m = 0; m < minterms; ++m) {
            std::uint64_t pins = 0;
            for (unsigned v = 0; v < n_vars(); ++v) {
                if ((m >> v) & 1) pins |= pin_mask_[v];
            }
            if (static_cast<bool>((t[m >> 6] >> (m & 63)) & 1) != static_cast<bool>(f(pins))) {
                return false;
            }
        }
        return true;
    }

    /// After Exact: the cone's table over the distinct leaves, and the
    /// claimed function `f` folded the same way (for diagnostics).
    TruthTable table() const;
    template <typename F>
    TruthTable realized(F&& f) const {
        TruthTable t(n_vars());
        for (std::size_t m = 0; m < t.n_minterms(); ++m) {
            std::uint64_t pins = 0;
            for (unsigned v = 0; v < n_vars(); ++v) {
                if ((m >> v) & 1) pins |= pin_mask_[v];
            }
            t.set(m, static_cast<bool>(f(pins)));
        }
        return t;
    }

private:
    const std::uint64_t* root_table() const { return arena_.data() + root_slot_ * words_; }
    // Returns the mark slot of `s` for this epoch, or kUnmarked.
    static constexpr std::uint32_t kUnmarked = static_cast<std::uint32_t>(-1);
    std::uint32_t slot_of(SubjectId s) const {
        return s < stamp_.size() && stamp_[s] == epoch_ ? slot_[s] : kUnmarked;
    }
    void mark(SubjectId s, std::uint32_t slot) {
        stamp_[s] = epoch_;
        slot_[s] = slot;
    }

    std::uint32_t epoch_ = 0;
    std::vector<std::uint32_t> stamp_;  // per subject node: epoch of last mark
    std::vector<std::uint32_t> slot_;   // per subject node: table slot
    std::vector<SubjectId> leaves_;
    std::vector<unsigned> var_of_pin_;
    std::vector<std::uint64_t> pin_mask_;  // per variable: pins tied to it
    std::vector<Complement> complements_;
    std::vector<SubjectId> nodes_;
    std::vector<SubjectId> stack_;
    std::vector<std::uint64_t> arena_;  // words_ words per slot
    std::size_t words_ = 1;
    std::size_t root_slot_ = 0;
};

}  // namespace lily
