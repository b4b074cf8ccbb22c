#include "verify/sat.hpp"

#include <algorithm>

namespace lily {

const char* to_string(SatResult r) {
    switch (r) {
        case SatResult::Sat: return "sat";
        case SatResult::Unsat: return "unsat";
        case SatResult::Unknown: return "unknown";
    }
    return "?";
}

namespace {

/// Luby restart sequence: 1 1 2 1 1 2 4 1 1 2 1 1 2 4 8 ...
std::uint64_t luby(std::uint64_t i) {
    std::uint64_t k = 1;
    while ((1ULL << k) - 1 < i + 1) ++k;
    while ((1ULL << k) - 1 != i + 1) {
        i -= (1ULL << (k - 1)) - 1;
        k = 1;
        while ((1ULL << k) - 1 < i + 1) ++k;
    }
    return 1ULL << (k - 1);
}

constexpr std::uint64_t kRestartBase = 100;

}  // namespace

void SatSolver::reset() {
    for (std::size_t l = 0; l < 2 * n_vars_; ++l) watches_[l].clear();
    n_vars_ = 0;
    arena_.clear();
    clause_start_.resize(1);
    assigns_.clear();
    phase_.clear();
    level_.clear();
    reason_.clear();
    trail_.clear();
    trail_lim_.clear();
    qhead_ = 0;
    activity_.clear();
    var_inc_ = 1.0;
    heap_.clear();
    heap_index_.clear();
    seen_.clear();
    unsat_ = false;
    stats_ = SatStats{};
}

int SatSolver::new_var() {
    const std::uint32_t v = static_cast<std::uint32_t>(n_vars_++);
    if (watches_.size() < 2 * n_vars_) watches_.resize(2 * n_vars_);
    assigns_.push_back(kUndef);
    phase_.push_back(kFalse);
    level_.push_back(0);
    reason_.push_back(kNoReason);
    activity_.push_back(0.0);
    heap_index_.push_back(-1);
    seen_.push_back(false);
    heap_insert(v);
    return static_cast<int>(v) + 1;
}

// ---- activity heap -----------------------------------------------------

void SatSolver::heap_insert(std::uint32_t var) {
    if (heap_index_[var] >= 0) return;
    heap_index_[var] = static_cast<std::int32_t>(heap_.size());
    heap_.push_back(var);
    heap_sift_up(heap_.size() - 1);
}

void SatSolver::heap_sift_up(std::size_t i) {
    while (i > 0) {
        const std::size_t parent = (i - 1) / 2;
        if (activity_[heap_[parent]] >= activity_[heap_[i]]) break;
        std::swap(heap_[parent], heap_[i]);
        heap_index_[heap_[parent]] = static_cast<std::int32_t>(parent);
        heap_index_[heap_[i]] = static_cast<std::int32_t>(i);
        i = parent;
    }
}

void SatSolver::heap_sift_down(std::size_t i) {
    for (;;) {
        const std::size_t l = 2 * i + 1;
        const std::size_t r = 2 * i + 2;
        std::size_t best = i;
        if (l < heap_.size() && activity_[heap_[l]] > activity_[heap_[best]]) best = l;
        if (r < heap_.size() && activity_[heap_[r]] > activity_[heap_[best]]) best = r;
        if (best == i) break;
        std::swap(heap_[best], heap_[i]);
        heap_index_[heap_[best]] = static_cast<std::int32_t>(best);
        heap_index_[heap_[i]] = static_cast<std::int32_t>(i);
        i = best;
    }
}

std::uint32_t SatSolver::heap_pop() {
    const std::uint32_t top = heap_[0];
    heap_index_[top] = -1;
    heap_[0] = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) {
        heap_index_[heap_[0]] = 0;
        heap_sift_down(0);
    }
    return top;
}

void SatSolver::bump(std::uint32_t var) {
    activity_[var] += var_inc_;
    if (activity_[var] > 1e100) rescale();
    if (heap_index_[var] >= 0) heap_sift_up(static_cast<std::size_t>(heap_index_[var]));
}

void SatSolver::rescale() {
    for (double& a : activity_) a *= 1e-100;
    var_inc_ *= 1e-100;
}

// ---- clause management -------------------------------------------------

std::int32_t SatSolver::push_clause(std::span<const Lit> lits) {
    const std::int32_t ci = static_cast<std::int32_t>(clause_start_.size()) - 1;
    arena_.insert(arena_.end(), lits.begin(), lits.end());
    clause_start_.push_back(static_cast<std::uint32_t>(arena_.size()));
    watches_[lits[0]].push_back(ci);
    watches_[lits[1]].push_back(ci);
    return ci;
}

void SatSolver::add_clause(std::span<const int> lits) {
    if (unsat_) return;
    // Simplify against root facts only: after a solve() the trail still
    // holds that call's decisions (the model), which are not facts.
    backtrack_to(0);
    std::vector<Lit>& c = add_buf_;
    c.clear();
    for (const int dl : lits) c.push_back(lit_of(dl));
    std::sort(c.begin(), c.end());
    c.erase(std::unique(c.begin(), c.end()), c.end());
    for (std::size_t i = 0; i + 1 < c.size(); ++i) {
        if (negate(c[i]) == c[i + 1]) return;  // tautology: l and !l
    }
    std::size_t kept = 0;
    for (const Lit l : c) {
        const std::int8_t v = value(l);
        if (v == kTrue) return;  // already satisfied forever
        if (v == kUndef) c[kept++] = l;
    }
    c.resize(kept);
    if (c.empty()) {
        unsat_ = true;
        return;
    }
    if (c.size() == 1) {
        if (!enqueue(c[0], kNoReason)) unsat_ = true;
        return;
    }
    push_clause(c);
}

// ---- search ------------------------------------------------------------

bool SatSolver::enqueue(Lit l, std::int32_t reason) {
    const std::int8_t v = value(l);
    if (v != kUndef) return v == kTrue;
    const std::uint32_t var = var_of(l);
    assigns_[var] = static_cast<std::int8_t>((l & 1) == 0);
    level_[var] = static_cast<std::uint32_t>(trail_lim_.size());
    reason_[var] = reason;
    trail_.push_back(l);
    return true;
}

std::int32_t SatSolver::propagate() {
    while (qhead_ < trail_.size()) {
        const Lit p = trail_[qhead_++];
        ++stats_.propagations;
        const Lit fl = negate(p);  // literal that just became false
        std::vector<std::int32_t>& ws = watches_[fl];
        std::size_t keep = 0;
        for (std::size_t wi = 0; wi < ws.size(); ++wi) {
            const std::int32_t ci = ws[wi];
            const std::span<Lit> c = clause(ci);
            if (c[0] == fl) std::swap(c[0], c[1]);
            // c[1] == fl now; if the other watch is true the clause rests.
            if (value(c[0]) == kTrue) {
                ws[keep++] = ci;
                continue;
            }
            bool moved = false;
            for (std::size_t k = 2; k < c.size(); ++k) {
                if (value(c[k]) != kFalse) {
                    std::swap(c[1], c[k]);
                    watches_[c[1]].push_back(ci);
                    moved = true;
                    break;
                }
            }
            if (moved) continue;
            // Unit or conflicting.
            ws[keep++] = ci;
            if (value(c[0]) == kFalse) {
                for (++wi; wi < ws.size(); ++wi) ws[keep++] = ws[wi];
                ws.resize(keep);
                qhead_ = trail_.size();
                return ci;
            }
            enqueue(c[0], ci);
        }
        ws.resize(keep);
    }
    return kNoReason;
}

void SatSolver::analyze(std::int32_t conflict, std::uint32_t& backtrack) {
    std::vector<Lit>& learnt = learnt_;
    learnt.clear();
    learnt.push_back(kLitUndef);  // slot for the asserting literal
    const std::uint32_t current = static_cast<std::uint32_t>(trail_lim_.size());
    std::size_t counter = 0;
    Lit p = kLitUndef;
    std::size_t index = trail_.size();

    std::int32_t reason = conflict;
    do {
        for (const Lit q : clause(reason)) {
            if (p != kLitUndef && q == p) continue;
            const std::uint32_t v = var_of(q);
            if (!seen_[v] && level_[v] > 0) {
                seen_[v] = true;
                bump(v);
                if (level_[v] == current) {
                    ++counter;
                } else {
                    learnt.push_back(q);
                }
            }
        }
        while (!seen_[var_of(trail_[index - 1])]) --index;
        p = trail_[--index];
        seen_[var_of(p)] = false;
        --counter;
        if (counter > 0) reason = reason_[var_of(p)];
    } while (counter > 0);
    learnt[0] = negate(p);

    // Backtrack to the second-highest decision level in the clause, placing
    // a literal of that level in the watch slot. Flags are cleared before
    // the swap: clearing after would skip the literal moved into slot 1,
    // and a leaked seen_ flag poisons the trail walk of the next analyze.
    backtrack = 0;
    std::size_t deepest = 1;
    for (std::size_t i = 1; i < learnt.size(); ++i) {
        seen_[var_of(learnt[i])] = false;
        if (level_[var_of(learnt[i])] > backtrack) {
            backtrack = level_[var_of(learnt[i])];
            deepest = i;
        }
    }
    if (learnt.size() > 1) std::swap(learnt[1], learnt[deepest]);
}

void SatSolver::backtrack_to(std::uint32_t level) {
    if (trail_lim_.size() <= level) return;
    const std::uint32_t bound = trail_lim_[level];
    for (std::size_t i = trail_.size(); i > bound; --i) {
        const Lit l = trail_[i - 1];
        const std::uint32_t v = var_of(l);
        phase_[v] = assigns_[v];
        assigns_[v] = kUndef;
        reason_[v] = kNoReason;
        heap_insert(v);
    }
    trail_.resize(bound);
    trail_lim_.resize(level);
    qhead_ = bound;
}

SatSolver::Lit SatSolver::pick_branch() {
    while (!heap_.empty()) {
        const std::uint32_t v = heap_pop();
        if (assigns_[v] == kUndef) {
            return (v << 1) | static_cast<Lit>(phase_[v] == kFalse);
        }
    }
    return kLitUndef;
}

SatResult SatSolver::solve(std::uint64_t conflict_budget) {
    if (unsat_) return SatResult::Unsat;
    backtrack_to(0);  // a repeated solve() starts from the root facts
    const std::uint64_t start_conflicts = stats_.conflicts;
    std::uint64_t restart_budget = kRestartBase * luby(stats_.restarts);
    std::uint64_t restart_conflicts = 0;

    for (;;) {
        const std::int32_t conflict = propagate();
        if (conflict != kNoReason) {
            ++stats_.conflicts;
            ++restart_conflicts;
            if (trail_lim_.empty()) {
                unsat_ = true;
                return SatResult::Unsat;
            }
            if (conflict_budget != 0 &&
                stats_.conflicts - start_conflicts >= conflict_budget) {
                backtrack_to(0);
                return SatResult::Unknown;
            }
            std::uint32_t back_level = 0;
            analyze(conflict, back_level);
            backtrack_to(back_level);
            if (learnt_.size() == 1) {
                enqueue(learnt_[0], kNoReason);
            } else {
                const std::int32_t ci = push_clause(learnt_);
                ++stats_.learned;
                enqueue(learnt_[0], ci);
            }
            decay();
            continue;
        }
        if (restart_conflicts >= restart_budget) {
            ++stats_.restarts;
            restart_conflicts = 0;
            restart_budget = kRestartBase * luby(stats_.restarts);
            backtrack_to(0);
            continue;
        }
        const Lit next = pick_branch();
        if (next == kLitUndef) return SatResult::Sat;  // full assignment
        ++stats_.decisions;
        trail_lim_.push_back(static_cast<std::uint32_t>(trail_.size()));
        enqueue(next, kNoReason);
    }
}

bool SatSolver::model_value(int var) const {
    const std::uint32_t v = static_cast<std::uint32_t>(var) - 1;
    return v < assigns_.size() && assigns_[v] == kTrue;
}

}  // namespace lily
