#include "util/sparse.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace lily {

SparseMatrix SparseMatrix::Builder::build() && {
    std::sort(triplets_.begin(), triplets_.end(), [](const Triplet& a, const Triplet& b) {
        return a.row != b.row ? a.row < b.row : a.col < b.col;
    });

    SparseMatrix m;
    m.n_ = n_;
    m.row_start_.assign(n_ + 1, 0);
    m.diag_.assign(n_, 0.0);
    m.diag_pos_.assign(n_, kNoEntry);
    m.anchor_slot_.assign(n_, 0);
    m.anchor_prefix_.assign(n_, 0.0);
    m.anchor_tail_start_.assign(n_ + 1, 0);
    // Merge duplicates while copying into CSR form. The fold order within
    // each (row, col) group is whatever permutation the (unstable) sort
    // produced; set_anchor must replay exactly that order, so record the
    // pre-slot fold and the post-slot values as we go.
    for (std::size_t k = 0; k < triplets_.size();) {
        const std::uint32_t row = triplets_[k].row;
        const std::uint32_t col = triplets_[k].col;
        double sum = 0.0;
        bool slot_seen = false;
        while (k < triplets_.size() && triplets_[k].row == row && triplets_[k].col == col) {
            if (row == col) {
                if (triplets_[k].anchor_slot) {
                    assert(!slot_seen && "at most one anchor slot per row");
                    slot_seen = true;
                    m.anchor_slot_[row] = 1;
                    m.anchor_prefix_[row] = sum;
                } else if (slot_seen) {
                    m.anchor_tail_vals_.push_back(triplets_[k].value);
                }
            }
            sum += triplets_[k].value;
            ++k;
        }
        if (row == col) {
            m.diag_[row] = sum;
            m.diag_pos_[row] = static_cast<std::uint32_t>(m.val_.size());
            m.anchor_tail_start_[row + 1] = static_cast<std::uint32_t>(m.anchor_tail_vals_.size());
        }
        m.col_.push_back(col);
        m.val_.push_back(sum);
        ++m.row_start_[row + 1];
    }
    // anchor_tail_start_ was only written at diagonal groups; make it a
    // proper running offset for every row.
    for (std::size_t r = 0; r < n_; ++r) {
        m.anchor_tail_start_[r + 1] =
            std::max(m.anchor_tail_start_[r + 1], m.anchor_tail_start_[r]);
    }
    for (std::size_t r = 0; r < n_; ++r) m.row_start_[r + 1] += m.row_start_[r];
    return m;
}

void SparseMatrix::set_diagonal(std::size_t i, double value) {
    assert(i < n_ && diag_pos_[i] != kNoEntry);
    val_[diag_pos_[i]] = value;
    diag_[i] = value;
}

void SparseMatrix::set_anchor(std::size_t i, double w) {
    assert(i < n_ && anchor_slot_[i] != 0 && diag_pos_[i] != kNoEntry);
    double s = anchor_prefix_[i] + w;
    for (std::size_t k = anchor_tail_start_[i]; k < anchor_tail_start_[i + 1]; ++k) {
        s += anchor_tail_vals_[k];
    }
    val_[diag_pos_[i]] = s;
    diag_[i] = s;
}

namespace {

double dot(std::span<const double> a, std::span<const double> b) {
    double s = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i) s += a[i] * b[i];
    return s;
}

}  // namespace

// The SpMV kernels hoist the array bases into locals and walk the entry
// index k straight through the rows (row_start_[r + 1] is the ke row r
// stops at). Per-row accumulation is an ascending left-fold, so every
// result bit matches the naive loop.
void SparseMatrix::multiply(std::span<const double> x, std::span<double> y) const {
    assert(x.size() == n_ && y.size() == n_);
    const std::uint32_t* const rs = row_start_.data();
    const std::uint32_t* const cols = col_.data();
    const double* const vals = val_.data();
    std::uint32_t k = 0;
    for (std::size_t r = 0; r < n_; ++r) {
        const std::uint32_t ke = rs[r + 1];
        double acc = 0.0;
        for (; k < ke; ++k) acc += vals[k] * x[cols[k]];
        y[r] = acc;
    }
}

double SparseMatrix::multiply_dot_fold(std::span<const double> x, std::span<double> y) const {
    assert(x.size() == n_ && y.size() == n_);
    const std::uint32_t* const rs = row_start_.data();
    const std::uint32_t* const cols = col_.data();
    const double* const vals = val_.data();
    const double* const xp = x.data();
    double* const yp = y.data();
    double s = 0.0;
    std::uint32_t k = 0;
    for (std::size_t r = 0; r < n_; ++r) {
        const std::uint32_t ke = rs[r + 1];
        double acc = 0.0;
        for (; k < ke; ++k) acc += vals[k] * xp[cols[k]];
        yp[r] = acc;
        s += xp[r] * acc;
    }
    return s;
}

void SparseMatrix::multiply_dot_fold2(std::span<const double> x1, std::span<double> y1,
                                      std::span<const double> x2, std::span<double> y2,
                                      double& fold1, double& fold2) const {
    assert(x1.size() == n_ && y1.size() == n_ && x2.size() == n_ && y2.size() == n_);
    const std::uint32_t* const rs = row_start_.data();
    const std::uint32_t* const cols = col_.data();
    const double* const vals = val_.data();
    const double* const xp1 = x1.data();
    const double* const xp2 = x2.data();
    double* const yp1 = y1.data();
    double* const yp2 = y2.data();
    double s1 = 0.0;
    double s2 = 0.0;
    // One row's tail: entries [k, ke) into the row's two accumulators.
    const auto tail = [&](std::uint32_t k, std::uint32_t ke, double& a1, double& a2) {
        for (; k < ke; ++k) {
            const double v = vals[k];
            const std::uint32_t c = cols[k];
            a1 += v * xp1[c];
            a2 += v * xp2[c];
        }
    };
    std::size_t r = 0;
    for (; r + 1 < n_; r += 2) {
        // Rows r and r+1 advance together over their common length, then
        // each finishes alone; every accumulator still adds its own row's
        // products in ascending entry order.
        const std::uint32_t k0 = rs[r];
        const std::uint32_t k1 = rs[r + 1];
        const std::uint32_t k2 = rs[r + 2];
        const std::uint32_t common = std::min(k1 - k0, k2 - k1);
        double a1 = 0.0, a2 = 0.0, b1 = 0.0, b2 = 0.0;
        for (std::uint32_t t = 0; t < common; ++t) {
            const double va = vals[k0 + t];
            const std::uint32_t ca = cols[k0 + t];
            const double vb = vals[k1 + t];
            const std::uint32_t cb = cols[k1 + t];
            a1 += va * xp1[ca];
            a2 += va * xp2[ca];
            b1 += vb * xp1[cb];
            b2 += vb * xp2[cb];
        }
        tail(k0 + common, k1, a1, a2);
        tail(k1 + common, k2, b1, b2);
        yp1[r] = a1;
        yp2[r] = a2;
        yp1[r + 1] = b1;
        yp2[r + 1] = b2;
        s1 += xp1[r] * a1;
        s1 += xp1[r + 1] * b1;
        s2 += xp2[r] * a2;
        s2 += xp2[r + 1] * b2;
    }
    if (r < n_) {
        double a1 = 0.0, a2 = 0.0;
        tail(rs[r], rs[r + 1], a1, a2);
        yp1[r] = a1;
        yp2[r] = a2;
        s1 += xp1[r] * a1;
        s2 += xp2[r] * a2;
    }
    fold1 = s1;
    fold2 = s2;
}

double SparseMatrix::multiply_residual_fold(std::span<const double> x, std::span<const double> b,
                                            std::span<double> r) const {
    assert(x.size() == n_ && b.size() == n_ && r.size() == n_);
    const std::uint32_t* const rs = row_start_.data();
    const std::uint32_t* const cols = col_.data();
    const double* const vals = val_.data();
    const double* const xp = x.data();
    const double* const bp = b.data();
    double* const rp = r.data();
    double s = 0.0;
    std::uint32_t k = 0;
    for (std::size_t row = 0; row < n_; ++row) {
        const std::uint32_t ke = rs[row + 1];
        double acc = 0.0;
        for (; k < ke; ++k) acc += vals[k] * xp[cols[k]];
        const double res = bp[row] - acc;
        rp[row] = res;
        s += res * res;
    }
    return s;
}

namespace {

/// One side of a CG solve: the caller's b and x, the workspace vectors, and
/// the scalars the iteration steers by. conjugate_gradient drives one axis;
/// conjugate_gradient_pair drives two in lockstep through the same phases,
/// sweeping both axes in each loop while both are active.
struct CgAxis {
    std::span<const double> b;
    std::span<double> x;
    std::span<double> r, z, p, ap;
    double stop = 0.0;
    double rz = 0.0;
    double alpha = 0.0;
    double beta = 0.0;
    double r_sq = 0.0;
    double rz_next = 0.0;
    CgResult res;
    bool active = true;

    CgAxis(std::span<const double> b_in, std::span<double> x_in, CgWorkspace& ws, std::size_t n)
        : b(b_in), x(x_in) {
        // resize(), not assign(): every element is written before it is
        // read, and a warmed workspace must not reallocate.
        ws.r.resize(n);
        ws.z.resize(n);
        ws.p.resize(n);
        ws.ap.resize(n);
        r = ws.r;
        z = ws.z;
        p = ws.p;
        ap = ws.ap;
    }
};

/// Jacobi preconditioner: z = D^-1 r (identity on rows without a positive
/// diagonal).
inline double jacobi(double r, double d) { return d > 0.0 ? r / d : r; }

/// Setup: r = b - A x, the stopping threshold, z = D^-1 r with its fold
/// rz = r.z, and p = z. Marks the axis converged (inactive) when the
/// initial guess already meets the tolerance.
void cg_setup(const SparseMatrix& a, CgAxis& ax, double tol) {
    const std::size_t n = a.size();
    const double* const diag = a.diagonals().data();
    const double r_sq0 = a.multiply_residual_fold(ax.x, ax.b, ax.r);
    const double b_norm = std::sqrt(dot(ax.b, ax.b));
    ax.stop = tol * std::max(1.0, b_norm);
    double s = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        ax.z[i] = jacobi(ax.r[i], diag[i]);
        s += ax.r[i] * ax.z[i];
    }
    ax.rz = s;
    for (std::size_t i = 0; i < n; ++i) ax.p[i] = ax.z[i];
    ax.res.residual_norm = std::sqrt(r_sq0);
    if (ax.res.residual_norm <= ax.stop) {
        ax.res.converged = true;
        ax.active = false;
    }
}

/// The bail-out test on p.Ap, then alpha. Returns false (axis inactive)
/// when the matrix is not SPD along p.
bool cg_alpha(CgAxis& ax, double p_ap) {
    if (p_ap <= 0.0) {
        ax.active = false;
        return false;
    }
    ax.alpha = ax.rz / p_ap;
    return true;
}

/// x += alpha p, r -= alpha Ap, folding r.r, and the next Jacobi
/// application z = D^-1 r folding r.z, in one sweep. On the converging
/// iteration z and its fold are dead values, so the fusion changes no
/// observable bit.
void cg_update(CgAxis& ax, const double* diag, std::size_t n) {
    double s = 0.0;
    double srz = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        ax.x[i] += ax.alpha * ax.p[i];
        ax.r[i] -= ax.alpha * ax.ap[i];
        s += ax.r[i] * ax.r[i];
        ax.z[i] = jacobi(ax.r[i], diag[i]);
        srz += ax.r[i] * ax.z[i];
    }
    ax.r_sq = s;
    ax.rz_next = srz;
}

/// cg_update for both axes in one loop; each axis's elementwise ops and
/// fold order are exactly cg_update's.
void cg_update2(CgAxis& u, CgAxis& v, const double* diag, std::size_t n) {
    double su = 0.0, srzu = 0.0, sv = 0.0, srzv = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        const double d = diag[i];
        u.x[i] += u.alpha * u.p[i];
        u.r[i] -= u.alpha * u.ap[i];
        su += u.r[i] * u.r[i];
        u.z[i] = jacobi(u.r[i], d);
        srzu += u.r[i] * u.z[i];
        v.x[i] += v.alpha * v.p[i];
        v.r[i] -= v.alpha * v.ap[i];
        sv += v.r[i] * v.r[i];
        v.z[i] = jacobi(v.r[i], d);
        srzv += v.r[i] * v.z[i];
    }
    u.r_sq = su;
    u.rz_next = srzu;
    v.r_sq = sv;
    v.rz_next = srzv;
}

/// After an update: record the iteration, stop on convergence, otherwise
/// derive beta and roll rz forward. Returns true while the axis continues.
bool cg_advance(CgAxis& ax, std::size_t it) {
    ax.res.iterations = it + 1;
    ax.res.residual_norm = std::sqrt(ax.r_sq);
    if (ax.res.residual_norm <= ax.stop) {
        ax.res.converged = true;
        ax.active = false;
        return false;
    }
    ax.beta = ax.rz_next / ax.rz;
    ax.rz = ax.rz_next;
    return true;
}

void cg_direction(CgAxis& ax, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) ax.p[i] = ax.z[i] + ax.beta * ax.p[i];
}

void cg_direction2(CgAxis& u, CgAxis& v, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
        u.p[i] = u.z[i] + u.beta * u.p[i];
        v.p[i] = v.z[i] + v.beta * v.p[i];
    }
}

}  // namespace

CgResult conjugate_gradient(const SparseMatrix& a, std::span<const double> b,
                            std::span<double> x, CgWorkspace& ws, double tol,
                            std::size_t max_iters, StageBudget* budget) {
    const std::size_t n = a.size();
    assert(b.size() == n && x.size() == n);
    const double* const diag = a.diagonals().data();
    CgAxis ax(b, x, ws, n);
    cg_setup(a, ax, tol);
    for (std::size_t it = 0; ax.active && it < max_iters; ++it) {
        if (budget != nullptr && !budget->tick()) {
            // Out of budget: hand back the current (partial) iterate.
            ax.res.budget_exhausted = true;
            break;
        }
        if (!cg_alpha(ax, a.multiply_dot_fold(ax.p, ax.ap))) break;
        cg_update(ax, diag, n);
        if (cg_advance(ax, it)) cg_direction(ax, n);
    }
    return ax.res;
}

CgResult conjugate_gradient(const SparseMatrix& a, std::span<const double> b,
                            std::span<double> x, double tol, std::size_t max_iters,
                            StageBudget* budget) {
    CgWorkspace ws;
    return conjugate_gradient(a, b, x, ws, tol, max_iters, budget);
}

std::pair<CgResult, CgResult> conjugate_gradient_pair(
    const SparseMatrix& a, std::span<const double> b1, std::span<double> x1, CgWorkspace& ws1,
    std::span<const double> b2, std::span<double> x2, CgWorkspace& ws2, double tol,
    std::size_t max_iters, StageBudget* budget) {
    const std::size_t n = a.size();
    assert(b1.size() == n && x1.size() == n && b2.size() == n && x2.size() == n);
    assert(&ws1 != &ws2);
    const double* const diag = a.diagonals().data();
    CgAxis ax1(b1, x1, ws1, n);
    CgAxis ax2(b2, x2, ws2, n);
    cg_setup(a, ax1, tol);
    cg_setup(a, ax2, tol);

    for (std::size_t it = 0; (ax1.active || ax2.active) && it < max_iters; ++it) {
        if (budget != nullptr) {
            if (ax1.active && !budget->tick()) {
                ax1.res.budget_exhausted = true;
                ax1.active = false;
            }
            if (ax2.active && !budget->tick()) {
                ax2.res.budget_exhausted = true;
                ax2.active = false;
            }
            if (!ax1.active && !ax2.active) break;
        }
        // Phase 1: p.Ap (one sweep for both axes when both are active).
        double pap1 = 0.0;
        double pap2 = 0.0;
        if (ax1.active && ax2.active) {
            a.multiply_dot_fold2(ax1.p, ax1.ap, ax2.p, ax2.ap, pap1, pap2);
        } else if (ax1.active) {
            pap1 = a.multiply_dot_fold(ax1.p, ax1.ap);
        } else {
            pap2 = a.multiply_dot_fold(ax2.p, ax2.ap);
        }
        // Phase 2: the iterate/residual/preconditioner update.
        const bool u1 = ax1.active && cg_alpha(ax1, pap1);
        const bool u2 = ax2.active && cg_alpha(ax2, pap2);
        if (u1 && u2) {
            cg_update2(ax1, ax2, diag, n);
        } else if (u1) {
            cg_update(ax1, diag, n);
        } else if (u2) {
            cg_update(ax2, diag, n);
        }
        // Phase 3: convergence, then the search-direction update.
        const bool c1 = u1 && cg_advance(ax1, it);
        const bool c2 = u2 && cg_advance(ax2, it);
        if (c1 && c2) {
            cg_direction2(ax1, ax2, n);
        } else if (c1) {
            cg_direction(ax1, n);
        } else if (c2) {
            cg_direction(ax2, n);
        }
    }
    return {ax1.res, ax2.res};
}

}  // namespace lily
