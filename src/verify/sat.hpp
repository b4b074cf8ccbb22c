// A small self-contained CDCL SAT solver: two-watched-literal propagation,
// first-UIP conflict learning with non-chronological backjumping, VSIDS
// branching (indexed max-heap with exponential decay), saved phases and
// Luby restarts. No external dependencies and no clause database reduction
// — the CEC engine starts every query from a logically fresh solver (one
// cone pair each, capped by a conflict budget), so learned clauses never
// pile up far.
//
// Storage is built for that reuse: clauses live in one flat literal arena,
// and reset() returns the solver to exactly its freshly constructed state
// while keeping every buffer's capacity (arena, watch lists, per-variable
// arrays, heap, scratch). A reset solver searches exactly as a new one
// would — same CNF, same variable order, same VSIDS start — so a sweep of
// thousands of small queries runs without per-query heap allocation once
// the buffers have grown to the largest query.
//
// The public literal convention is DIMACS: variables are 1-based ints, a
// negative literal is the complement. solve() can be budgeted; exhausting
// the budget returns Unknown, never a wrong verdict.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace lily {

enum class SatResult : std::uint8_t { Sat, Unsat, Unknown };

const char* to_string(SatResult r);

struct SatStats {
    std::uint64_t decisions = 0;
    std::uint64_t propagations = 0;
    std::uint64_t conflicts = 0;
    std::uint64_t restarts = 0;
    std::uint64_t learned = 0;
};

class SatSolver {
public:
    /// New 1-based variable, initially unassigned with saved phase false.
    int new_var();
    int n_vars() const { return static_cast<int>(n_vars_); }

    /// Forget every variable and clause and zero the stats: afterwards the
    /// solver behaves exactly like a newly constructed one, but keeps the
    /// capacity of all its buffers.
    void reset();

    /// Add a clause of DIMACS literals. Duplicate literals are merged and
    /// tautologies dropped. Adding the empty clause (or a unit that
    /// contradicts an existing unit) makes the instance trivially UNSAT.
    /// May follow a solve(): the solver first backtracks to level 0, so a
    /// previous model never counts as a fact (the model is lost).
    void add_clause(std::span<const int> lits);
    void add_clause(std::initializer_list<int> lits) {
        add_clause(std::span<const int>(lits.begin(), lits.size()));
    }

    /// Solve the instance. `conflict_budget` of 0 is unlimited; a positive
    /// budget bounds the number of conflicts before Unknown is returned.
    SatResult solve(std::uint64_t conflict_budget = 0);

    /// Model value of a variable after Sat (false when never assigned).
    bool model_value(int var) const;

    const SatStats& stats() const { return stats_; }

private:
    // Internal literal encoding: 2*var + sign, vars 0-based.
    using Lit = std::uint32_t;
    static constexpr Lit kLitUndef = static_cast<Lit>(-1);
    static Lit lit_of(int dimacs) {
        const std::uint32_t v = static_cast<std::uint32_t>(dimacs > 0 ? dimacs : -dimacs) - 1;
        return (v << 1) | static_cast<Lit>(dimacs < 0);
    }
    static std::uint32_t var_of(Lit l) { return l >> 1; }
    static Lit negate(Lit l) { return l ^ 1; }

    static constexpr std::int32_t kNoReason = -1;
    static constexpr std::int8_t kFalse = 0;
    static constexpr std::int8_t kTrue = 1;
    static constexpr std::int8_t kUndef = -1;

    bool enqueue(Lit l, std::int32_t reason);
    std::int32_t propagate();  // returns conflicting clause index or kNoReason
    void analyze(std::int32_t conflict, std::uint32_t& backtrack);  // into learnt_
    void backtrack_to(std::uint32_t level);
    Lit pick_branch();
    void bump(std::uint32_t var);
    void decay() { var_inc_ /= 0.95; }
    void rescale();

    // indexed max-heap on activity
    void heap_insert(std::uint32_t var);
    void heap_sift_up(std::size_t i);
    void heap_sift_down(std::size_t i);
    std::uint32_t heap_pop();

    std::int8_t value(Lit l) const {
        const std::int8_t a = assigns_[var_of(l)];
        return a == kUndef ? kUndef : static_cast<std::int8_t>(a ^ static_cast<std::int8_t>(l & 1));
    }

    // Clause ci is arena_[clause_start_[ci] .. clause_start_[ci + 1]).
    std::span<Lit> clause(std::int32_t ci) {
        return {arena_.data() + clause_start_[ci], arena_.data() + clause_start_[ci + 1]};
    }
    // Store a clause of >= 2 literals, watch lits[0] and lits[1]; returns
    // its index.
    std::int32_t push_clause(std::span<const Lit> lits);

    std::size_t n_vars_ = 0;
    std::vector<Lit> arena_;                      // all clause literals
    std::vector<std::uint32_t> clause_start_{0};  // n_clauses + 1 offsets
    // Per literal; sized to the largest instance seen. Lists past 2*n_vars_
    // are always empty, so reset() only clears the live ones.
    std::vector<std::vector<std::int32_t>> watches_;
    std::vector<std::int8_t> assigns_;                // per var
    std::vector<std::int8_t> phase_;                  // saved polarity per var
    std::vector<std::uint32_t> level_;                // per var
    std::vector<std::int32_t> reason_;                // per var
    std::vector<Lit> trail_;
    std::vector<std::uint32_t> trail_lim_;
    std::size_t qhead_ = 0;

    std::vector<double> activity_;
    double var_inc_ = 1.0;
    std::vector<std::uint32_t> heap_;       // activity-ordered var heap
    std::vector<std::int32_t> heap_index_;  // var -> heap slot, -1 when absent

    std::vector<bool> seen_;     // scratch for analyze()
    std::vector<Lit> learnt_;    // scratch for analyze()/solve()
    std::vector<Lit> add_buf_;   // scratch for add_clause()
    bool unsat_ = false;         // trivially false at level 0
    SatStats stats_;
};

}  // namespace lily
