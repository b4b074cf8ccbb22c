// Sparse symmetric positive-definite linear algebra for quadratic placement.
// GORDIAN-style global placement minimizes sum_e w_e (x_i - x_j)^2 with some
// nodes (pads) fixed, which reduces to solving A x = b where A is the
// weighted graph Laplacian restricted to movable nodes. A is symmetric
// positive definite whenever every connected component touches a fixed node,
// so a (Jacobi-preconditioned) conjugate gradient solver is the right tool.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "util/budget.hpp"

namespace lily {

/// Row-compressed symmetric sparse matrix built from coordinate triplets.
/// Both (i,j) and (j,i) entries must be added by the builder; duplicates are
/// summed. Only the pattern actually added is stored.
class SparseMatrix {
public:
    /// Incremental builder: accumulate coordinate entries, then freeze.
    class Builder {
    public:
        explicit Builder(std::size_t n) : n_(n) {}

        /// Add v to entry (i, j). Defined inline: assembly pushes hundreds
        /// of thousands of triplets per build, so the push must not cost a
        /// call.
        void add(std::size_t i, std::size_t j, double v) {
            assert(i < n_ && j < n_);
            triplets_.push_back({static_cast<std::uint32_t>(i), static_cast<std::uint32_t>(j), v});
        }

        /// Add v to (i,i), (j,j) and -v to (i,j), (j,i): one spring of
        /// weight v between nodes i and j (the Laplacian stamp).
        void add_spring(std::size_t i, std::size_t j, double v) {
            add(i, i, v);
            add(j, j, v);
            add(i, j, -v);
            add(j, i, -v);
        }

        /// Add v to the diagonal entry (i,i): a spring to a fixed location.
        void add_anchor(std::size_t i, double v) { add(i, i, v); }

        /// Reserve a refreshable anchor slot on diagonal i (at most one per
        /// row). The built matrix records exactly where this triplet lands
        /// in the duplicate-merge summation order, so set_anchor can later
        /// swap in a new weight and refold the diagonal bit-identically to
        /// a full rebuild with that weight.
        void add_anchor_slot(std::size_t i) {
            assert(i < n_);
            triplets_.push_back({static_cast<std::uint32_t>(i), static_cast<std::uint32_t>(i), 0.0,
                                 /*anchor_slot=*/true});
        }

        SparseMatrix build() &&;

    private:
        friend class SparseMatrix;
        // 24 bytes, not 32: narrow row/col indices keep the sort (the
        // hottest part of assembly) streaming 25% less data. The sort's
        // comparison sequence — and with it the unstable permutation that
        // fixes the duplicate fold order — depends only on the compared
        // keys, so shrinking the element changes nothing downstream.
        struct Triplet {
            std::uint32_t row;
            std::uint32_t col;
            double value;
            bool anchor_slot = false;
        };
        std::size_t n_;
        std::vector<Triplet> triplets_;
    };

    /// Empty 0x0 matrix; assign from Builder::build() to populate.
    SparseMatrix() = default;

    std::size_t size() const { return n_; }

    /// Stored (merged) entries — the per-iteration SpMV work, and the figure
    /// the kernel microbenchmarks normalize by.
    std::size_t nonzeros() const { return val_.size(); }

    /// y = A x. Each row is an ascending left-fold of its stored entries.
    void multiply(std::span<const double> x, std::span<double> y) const;

    /// y = A x, returning the ascending left-fold of x[i] * y[i] — exactly
    /// dot(x, y) after multiply() (identical multiplies, identical add
    /// order; the build targets baseline x86-64, so no FMA contraction can
    /// merge them), without re-reading x and y.
    double multiply_dot_fold(std::span<const double> x, std::span<double> y) const;

    /// CG setup pass: r = b - A x, returning the ascending left-fold of
    /// r[i] * r[i] — the same bits as multiply() followed by the residual
    /// and dot passes.
    double multiply_residual_fold(std::span<const double> x, std::span<const double> b,
                                  std::span<double> r) const;

    /// multiply_dot_fold for two vectors in one sweep, two rows at a time:
    /// the val_/col_ stream — the bandwidth that bounds the solver — is
    /// fetched once for both, and the four row accumulators are independent
    /// dependency chains. Each side folds its own rows in ascending order,
    /// so y1/fold1 (and y2/fold2) are bit-for-bit what two separate
    /// multiply_dot_fold calls produce.
    void multiply_dot_fold2(std::span<const double> x1, std::span<double> y1,
                            std::span<const double> x2, std::span<double> y2, double& fold1,
                            double& fold2) const;

    double diagonal(std::size_t i) const { return diag_[i]; }
    std::span<const double> diagonals() const { return diag_; }

    /// True when row i has an explicit (i, i) entry — required before
    /// set_diagonal. Reserve the slot with add_anchor(i, 0.0) at build time.
    bool has_diagonal_entry(std::size_t i) const { return diag_pos_[i] != kNoEntry; }

    /// Overwrite the (i, i) entry with `value` wholesale. Note this does
    /// NOT reproduce a rebuild's rounding when the diagonal has multiple
    /// contributions — use an anchor slot + set_anchor for that.
    void set_diagonal(std::size_t i, double value);

    /// True when add_anchor_slot(i) reserved a refreshable slot on row i.
    bool has_anchor_slot(std::size_t i) const { return anchor_slot_[i] != 0; }

    /// Set the anchor-slot weight on diagonal i to `w` and refold the
    /// (i, i) entry. This is the incremental update the placer's per-round
    /// Laplacian hoist relies on: between partitioning rounds only the
    /// anchor weights change, so the connectivity triplets are built and
    /// sorted once. Because std::sort is unstable, the slot's triplet can
    /// land anywhere among the duplicates summed into (i, i); build()
    /// records the fold prefix before the slot and the values after it, so
    /// the refreshed sum is bit-identical to re-assembling every triplet
    /// with the new weight.
    void set_anchor(std::size_t i, double w);

private:
    static constexpr std::uint32_t kNoEntry = static_cast<std::uint32_t>(-1);

    // Index arrays are uint32, not size_t: the SpMV inner loop is bound by
    // the val_/col_ stream bandwidth (the x gather stays L2-resident), so
    // halving the index bytes is a direct throughput win that touches no
    // floating-point value or summation order. 2^32 entries is far beyond
    // any placement Laplacian this solver sees.
    std::size_t n_ = 0;
    std::vector<std::uint32_t> row_start_;  // n_ + 1 entries
    std::vector<std::uint32_t> col_;
    std::vector<double> val_;
    std::vector<double> diag_;
    std::vector<std::uint32_t> diag_pos_;   // index into val_, kNoEntry if absent
    // Anchor-slot refold data (see set_anchor): the left-fold of the
    // duplicate values summed into (i, i) before the slot's triplet, and
    // the values after it in summation order (CSR layout).
    std::vector<char> anchor_slot_;
    std::vector<double> anchor_prefix_;
    std::vector<std::uint32_t> anchor_tail_start_;  // n_ + 1 entries
    std::vector<double> anchor_tail_vals_;
};

/// Result of a conjugate-gradient solve.
struct CgResult {
    std::size_t iterations = 0;
    double residual_norm = 0.0;  // ||b - A x|| at exit
    bool converged = false;
    bool budget_exhausted = false;  // the StageBudget fired before convergence
};

/// Reusable CG solve vectors (residual, preconditioned residual, search
/// direction and A*p). The placer calls CG once per axis per partitioning
/// round; keeping one workspace per axis across rounds makes the
/// steady-state solve allocation-free.
struct CgWorkspace {
    std::vector<double> r, z, p, ap;
};

/// Jacobi-preconditioned conjugate gradient. `x` carries the initial guess
/// in and the solution out. Stops when ||r|| <= tol * max(1, ||b||), after
/// max_iters iterations, or — best-effort, with the partial iterate left in
/// `x` — when the optional `budget` exhausts.
///
/// The scalar reductions CG steers by are ascending left-folds accumulated
/// inside the sweeps that produce their terms: the same values in the same
/// order as a standalone dot product, without the extra vector reads.
CgResult conjugate_gradient(const SparseMatrix& a, std::span<const double> b,
                            std::span<double> x, CgWorkspace& ws, double tol = 1e-10,
                            std::size_t max_iters = 10'000, StageBudget* budget = nullptr);

/// Convenience overload with a throwaway workspace (one-shot callers).
CgResult conjugate_gradient(const SparseMatrix& a, std::span<const double> b,
                            std::span<double> x, double tol = 1e-10,
                            std::size_t max_iters = 10'000, StageBudget* budget = nullptr);

/// Two conjugate-gradient solves against the same matrix, run in lockstep —
/// the placer's x/y axis solves share their Laplacian. While both sides are
/// active every phase sweeps both axes at once: one dual-RHS SpMV
/// (multiply_dot_fold2), one x/r/z update loop carrying all four folds, and
/// one search-direction update. The two solves stay numerically
/// independent: every per-axis scalar, iterate and stopping decision is
/// computed exactly as in conjugate_gradient, so each returned solution is
/// bit-identical to solving the axes one after the other. When one side
/// converges (or fails) first, the other continues alone on the single-axis
/// kernels. A shared budget is ticked once per still-active side per
/// iteration — the same total consumption as two sequential solves,
/// interleaved. ws1 and ws2 must be distinct workspaces.
std::pair<CgResult, CgResult> conjugate_gradient_pair(
    const SparseMatrix& a, std::span<const double> b1, std::span<double> x1, CgWorkspace& ws1,
    std::span<const double> b2, std::span<double> x2, CgWorkspace& ws2, double tol = 1e-10,
    std::size_t max_iters = 10'000, StageBudget* budget = nullptr);

}  // namespace lily
