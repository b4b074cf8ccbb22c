// Sparse symmetric positive-definite linear algebra for quadratic placement.
// GORDIAN-style global placement minimizes sum_e w_e (x_i - x_j)^2 with some
// nodes (pads) fixed, which reduces to solving A x = b where A is the
// weighted graph Laplacian restricted to movable nodes. A is symmetric
// positive definite whenever every connected component touches a fixed node,
// so a (Jacobi-preconditioned) conjugate gradient solver is the right tool.
//
// The placer solves both coordinate axes against one Laplacian, so every
// vector here is a *lane vector*: the x-axis and y-axis values of row i sit
// side by side at [2i] and [2i + 1], and both axes ride through each kernel
// as the two lanes of one 16-byte register. An n-row lane vector holds
// 2 * (n + 1) doubles; the trailing pair is the sentinel slot the matrix
// padding points at, and must hold +0.0 in any vector the matrix
// multiplies (CgWorkspace::resize and the solver keep it so).
#pragma once

#include <array>
#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "util/budget.hpp"

namespace lily {

/// Per-lane results of a two-lane kernel: [0] for lane 0, [1] for lane 1.
using LanePair = std::array<double, 2>;

/// Doubles in an n-row lane vector (n row pairs plus the sentinel pair).
constexpr std::size_t lane_vector_size(std::size_t n) { return 2 * (n + 1); }

/// Symmetric sparse matrix built from coordinate triplets, stored in one
/// sliced-ELL (SELL-C-sigma) layout. Both (i,j) and (j,i) entries must be
/// added by the builder; duplicates are summed. Only the pattern actually
/// added is stored.
///
/// Layout: inside each window of kWindowRows consecutive rows, rows are
/// ordered by length, longest first; each run of kSliceRows rows in that
/// order forms a slice, stored column-major (entry j of the slice's rows is
/// kSliceRows consecutive values) and padded to its longest row. A pad
/// entry is value -0.0 at the sentinel column n, whose lane-vector slot
/// holds +0.0: every padded product is -0.0, which leaves any sum exactly
/// as it was. Each row still adds its own products in ascending column
/// order, and every fold over rows runs in ascending row order (a window's
/// rows are folded after its slices), so each lane's bits are those of a
/// plain row-by-row loop.
class SparseMatrix {
public:
    static constexpr std::size_t kSliceRows = 8;     // C: rows per slice
    static constexpr std::size_t kWindowRows = 256;  // sigma: rows per sorting window

    /// Incremental builder: accumulate coordinate entries, then freeze.
    class Builder {
    public:
        explicit Builder(std::size_t n) : n_(n) {}

        /// Add v to entry (i, j). Defined inline: assembly pushes hundreds
        /// of thousands of entries per build, so the push must not cost a
        /// call.
        void add(std::size_t i, std::size_t j, double v) {
            assert(i < n_ && j < n_);
            assert(std::bit_cast<std::uint64_t>(v) != kSlotMarker);
            entries_.push_back({key(i, j), v});
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
        /// row). The built matrix records exactly where this entry lands
        /// in the duplicate-merge summation order, so set_anchor can later
        /// swap in a new weight and refold the diagonal bit-identically to
        /// a full rebuild with that weight.
        void add_anchor_slot(std::size_t i) {
            assert(i < n_);
            entries_.push_back({key(i, i), std::bit_cast<double>(kSlotMarker)});
        }

        SparseMatrix build() &&;

    private:
        friend class SparseMatrix;
        // 16 bytes: a packed (row << 32 | col) key and the value. The sort
        // compares keys alone, which orders exactly as a (row, col)
        // comparator does — the same comparison outcomes, so std::sort
        // applies the same (unstable) permutation and with it the same
        // duplicate fold order.
        struct Entry {
            std::uint64_t key;
            double value;
        };
        // An anchor slot's value: a signaling NaN, which no arithmetic
        // produces, so it cannot be mistaken for a real entry. It folds in
        // as 0.0.
        static constexpr std::uint64_t kSlotMarker = 0x7FF4'0000'0A4C'4F75ULL;
        static std::uint64_t key(std::size_t i, std::size_t j) {
            return (static_cast<std::uint64_t>(i) << 32) | static_cast<std::uint32_t>(j);
        }
        std::size_t n_;
        std::vector<Entry> entries_;
    };

    /// Empty 0x0 matrix; assign from Builder::build() to populate.
    SparseMatrix() = default;

    std::size_t size() const { return n_; }

    /// Stored (merged) entries, padding excluded — the per-iteration SpMV
    /// work, and the figure the kernel microbenchmarks normalize by.
    std::size_t nonzeros() const { return nonzeros_; }
    /// Stored entries including slice padding.
    std::size_t padded_entries() const { return val_.size(); }

    /// Two-lane y = A x over lane vectors (lane_vector_size(n) doubles each;
    /// x's sentinel pair must be +0.0, y's is scratch). Returns each lane's
    /// ascending left-fold of x[i] * y[i] — exactly a dot product after the
    /// multiply, without re-reading x and y.
    LanePair multiply_fold(std::span<const double> x, std::span<double> y) const;

    /// Two-lane CG setup pass: r = b - A x, returning each lane's ascending
    /// left-fold of r[i] * r[i]. Lane vectors as for multiply_fold.
    LanePair residual_fold(std::span<const double> x, std::span<const double> b,
                           std::span<double> r) const;

    /// y = A x for one plain n-vector (a convenience for tests and tools:
    /// it packs x into lane 0 and allocates).
    void multiply(std::span<const double> x, std::span<double> y) const;

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
    /// (i, i) entry in its slice slot. This is the incremental update the
    /// placer's per-round Laplacian hoist relies on: between partitioning
    /// rounds only the anchor weights change, so the connectivity entries
    /// are built and sorted once. Because std::sort is unstable, the slot's
    /// entry can land anywhere among the duplicates summed into (i, i);
    /// build() records the fold prefix before the slot and the values after
    /// it, so the refreshed sum is bit-identical to re-assembling every
    /// entry with the new weight.
    void set_anchor(std::size_t i, double w);

private:
    static constexpr std::uint32_t kNoEntry = static_cast<std::uint32_t>(-1);

    /// The slice sweep both two-lane kernels share: y's row pairs get A x,
    /// and `fold(row_begin, row_end)` runs after each window's slices.
    template <typename Fold>
    void sweep(const double* x, double* y, Fold&& fold) const;

    // Index arrays are uint32: 2^32 entries is far beyond any placement
    // Laplacian this solver sees, and narrow indices halve the index bytes
    // the SpMV streams.
    std::size_t n_ = 0;
    std::size_t nonzeros_ = 0;
    std::vector<std::uint32_t> slice_start_;  // entry offset per slice, +1 sentinel
    std::vector<std::uint32_t> slice_row_;    // kSliceRows rows per slice; n_ = padding row
    std::vector<std::uint32_t> col_;          // column-major within each slice
    std::vector<double> val_;
    std::vector<double> diag_;
    std::vector<std::uint32_t> diag_pos_;     // index into val_, kNoEntry if absent
    // Anchor-slot refold data (see set_anchor): the left-fold of the
    // duplicate values summed into (i, i) before the slot's entry, and the
    // values after it in summation order (row-offset layout).
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

/// The lane vectors of a two-lane CG solve: the caller's right-hand side b
/// and iterate x (initial guess in, solution out) plus the residual,
/// preconditioned residual, search direction and A*p. The placer keeps one
/// workspace per netlist and writes b and x straight into it, so the
/// steady-state solve neither packs nor allocates.
struct CgWorkspace {
    std::vector<double> x, b, r, z, p, ap;

    /// Size every vector for an n-row system (lane_vector_size(n) doubles;
    /// new elements are +0.0, capacity is kept).
    void resize(std::size_t n);
};

/// Two Jacobi-preconditioned conjugate-gradient solves against the same
/// matrix, run in lockstep as the two lanes of ws (the placer's x and y
/// axes). Each lane stops when ||r|| <= tol * max(1, ||b||), when p.Ap <= 0
/// (the matrix is not SPD along p), after max_iters iterations, or —
/// best-effort, with the partial iterate left in ws.x — when the optional
/// `budget` exhausts. A shared budget is ticked once per still-active lane
/// per iteration — the same total as two sequential solves, interleaved.
///
/// Every kernel runs both lanes, and each lane's add, multiply and divide
/// is the scalar IEEE operation, so each lane's iterate, iteration count,
/// residual and flags are bit-identical to a standalone scalar solve; the
/// scalar reductions CG steers by are ascending left-folds accumulated
/// inside the sweeps that produce their terms. A lane that stops first is
/// frozen while the other runs on: its r, z, p and Ap are zeroed and its
/// step lengths set to alpha = -0.0 and beta = +0.0, so for a finite matrix
/// its x gains exactly -0.0 per iteration (no bit changes) and its r, z, p
/// and Ap stay +0.0 (no denormals, no NaNs).
std::pair<CgResult, CgResult> conjugate_gradient_pair(const SparseMatrix& a, CgWorkspace& ws,
                                                      double tol = 1e-10,
                                                      std::size_t max_iters = 10'000,
                                                      StageBudget* budget = nullptr);

/// One plain solve as lane 0 of conjugate_gradient_pair, lane 1 holding the
/// zero system (converged at setup, so it costs no budget ticks). `x`
/// carries the initial guess in and the solution out. Packs into `ws`.
CgResult conjugate_gradient(const SparseMatrix& a, std::span<const double> b,
                            std::span<double> x, CgWorkspace& ws, double tol = 1e-10,
                            std::size_t max_iters = 10'000, StageBudget* budget = nullptr);

/// Convenience overload with a throwaway workspace (one-shot callers).
CgResult conjugate_gradient(const SparseMatrix& a, std::span<const double> b,
                            std::span<double> x, double tol = 1e-10,
                            std::size_t max_iters = 10'000, StageBudget* budget = nullptr);

}  // namespace lily
