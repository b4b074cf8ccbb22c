#include "util/sparse.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>
#include <numeric>

namespace lily {

namespace {

// Two doubles as one 16-byte vector: lane 0 and lane 1 of a lane vector.
// Each operator is the scalar IEEE operation applied per lane (the build
// disables mul+add contraction, see src/util/CMakeLists.txt), so a lane's
// bits never depend on the other lane.
using V2 = double __attribute__((vector_size(16)));

inline V2 load2(const double* p) {
    V2 v;
    std::memcpy(&v, p, sizeof v);
    return v;
}

inline void store2(double* p, V2 v) { std::memcpy(p, &v, sizeof v); }

inline V2 splat(double d) { return V2{d, d}; }

inline LanePair lanes(V2 v) { return {v[0], v[1]}; }

/// Jacobi preconditioner for both lanes of row i: z = r / d, one division
/// for the pair (identity on rows without a positive diagonal).
inline V2 jacobi(V2 r, double d) { return d > 0.0 ? r / splat(d) : r; }

}  // namespace

SparseMatrix SparseMatrix::Builder::build() && {
    std::sort(entries_.begin(), entries_.end(),
              [](const Entry& a, const Entry& b) { return a.key < b.key; });

    SparseMatrix m;
    m.n_ = n_;
    m.diag_.assign(n_, 0.0);
    m.diag_pos_.assign(n_, kNoEntry);
    m.anchor_slot_.assign(n_, 0);
    m.anchor_prefix_.assign(n_, 0.0);
    m.anchor_tail_start_.assign(n_ + 1, 0);
    // Merge duplicates in place: entries_[0, merged) become the distinct
    // entries in (row, col) order. The fold order within each group is
    // whatever permutation the (unstable) sort produced; set_anchor must
    // replay exactly that order, so record the pre-slot fold and the
    // post-slot values as we go.
    std::vector<std::uint32_t> row_len(n_, 0);
    std::size_t merged = 0;
    for (std::size_t k = 0; k < entries_.size();) {
        const std::uint64_t key = entries_[k].key;
        const auto row = static_cast<std::uint32_t>(key >> 32);
        const bool on_diag = row == static_cast<std::uint32_t>(key);
        double sum = 0.0;
        bool slot_seen = false;
        for (; k < entries_.size() && entries_[k].key == key; ++k) {
            double v = entries_[k].value;
            if (on_diag) {
                if (std::bit_cast<std::uint64_t>(v) == kSlotMarker) {
                    assert(!slot_seen && "at most one anchor slot per row");
                    slot_seen = true;
                    v = 0.0;
                    m.anchor_slot_[row] = 1;
                    m.anchor_prefix_[row] = sum;
                } else if (slot_seen) {
                    m.anchor_tail_vals_.push_back(v);
                }
            }
            sum += v;
        }
        if (on_diag) {
            m.diag_[row] = sum;
            m.anchor_tail_start_[row + 1] = static_cast<std::uint32_t>(m.anchor_tail_vals_.size());
        }
        entries_[merged++] = {key, sum};
        ++row_len[row];
    }
    m.nonzeros_ = merged;
    // anchor_tail_start_ was only written at diagonal groups; make it a
    // proper running offset for every row.
    for (std::size_t r = 0; r < n_; ++r) {
        m.anchor_tail_start_[r + 1] =
            std::max(m.anchor_tail_start_[r + 1], m.anchor_tail_start_[r]);
    }
    std::vector<std::uint32_t> row_start(n_ + 1, 0);
    for (std::size_t r = 0; r < n_; ++r) row_start[r + 1] = row_start[r] + row_len[r];

    // Slice order: each window's rows by length, longest first (stable, so
    // equal lengths keep ascending row order); padding rows past n_ fill
    // the last slice.
    const std::size_t n_slices = (n_ + kSliceRows - 1) / kSliceRows;
    m.slice_row_.assign(n_slices * kSliceRows, static_cast<std::uint32_t>(n_));
    std::iota(m.slice_row_.begin(), m.slice_row_.begin() + static_cast<std::ptrdiff_t>(n_), 0u);
    for (std::size_t w = 0; w < n_; w += kWindowRows) {
        const auto first = m.slice_row_.begin() + static_cast<std::ptrdiff_t>(w);
        const auto last = first + static_cast<std::ptrdiff_t>(std::min(kWindowRows, n_ - w));
        std::stable_sort(first, last, [&](std::uint32_t a, std::uint32_t b) {
            return row_len[a] > row_len[b];
        });
    }
    const auto len_of = [&](std::uint32_t row) { return row < n_ ? row_len[row] : 0u; };
    m.slice_start_.assign(n_slices + 1, 0);
    for (std::size_t s = 0; s < n_slices; ++s) {
        const std::uint32_t width = len_of(m.slice_row_[s * kSliceRows]);  // longest row first
        m.slice_start_[s + 1] = m.slice_start_[s] + width * std::uint32_t{kSliceRows};
    }
    m.col_.assign(m.slice_start_[n_slices], static_cast<std::uint32_t>(n_));
    m.val_.assign(m.slice_start_[n_slices], -0.0);
    for (std::size_t s = 0; s < n_slices; ++s) {
        for (std::size_t l = 0; l < kSliceRows; ++l) {
            const std::uint32_t row = m.slice_row_[s * kSliceRows + l];
            for (std::uint32_t j = 0; j < len_of(row); ++j) {
                const Entry& e = entries_[row_start[row] + j];
                const std::size_t at = m.slice_start_[s] + j * kSliceRows + l;
                m.col_[at] = static_cast<std::uint32_t>(e.key);
                m.val_[at] = e.value;
                if (m.col_[at] == row) m.diag_pos_[row] = static_cast<std::uint32_t>(at);
            }
        }
    }
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

// One slice is kSliceRows independent two-lane accumulators. Entry j of
// every row in the slice is one load of kSliceRows values and columns; each
// value is broadcast once and multiplies both lanes of its column's pair,
// fetched with one 16-byte load. Accumulators start at +0.0 and add their
// row's products in ascending column order, then pad products (-0.0), so
// each lane's row sum is the scalar left-fold.
template <typename Fold>
void SparseMatrix::sweep(const double* x, double* y, Fold&& fold) const {
    constexpr std::size_t kSlicesPerWindow = kWindowRows / kSliceRows;
    const std::size_t n_slices = slice_row_.size() / kSliceRows;
    const std::uint32_t* const start = slice_start_.data();
    const std::uint32_t* const rows = slice_row_.data();
    for (std::size_t s0 = 0; s0 < n_slices; s0 += kSlicesPerWindow) {
        const std::size_t s1 = std::min(n_slices, s0 + kSlicesPerWindow);
        for (std::size_t s = s0; s < s1; ++s) {
            const std::uint32_t* cols = col_.data() + start[s];
            const double* vals = val_.data() + start[s];
            const std::uint32_t* const end = col_.data() + start[s + 1];
            V2 acc[kSliceRows] = {};
            for (; cols != end; cols += kSliceRows, vals += kSliceRows) {
#pragma GCC unroll 8
                for (std::size_t l = 0; l < kSliceRows; ++l) {
                    acc[l] += splat(vals[l]) * load2(x + 2 * std::size_t{cols[l]});
                }
            }
            const std::uint32_t* const slice_rows = rows + s * kSliceRows;
#pragma GCC unroll 8
            for (std::size_t l = 0; l < kSliceRows; ++l) {
                store2(y + 2 * std::size_t{slice_rows[l]}, acc[l]);
            }
        }
        fold(s0 * kSliceRows, std::min(n_, s1 * kSliceRows));
    }
}

LanePair SparseMatrix::multiply_fold(std::span<const double> x, std::span<double> y) const {
    assert(x.size() == lane_vector_size(n_) && y.size() == lane_vector_size(n_));
    assert(x[2 * n_] == 0.0 && x[2 * n_ + 1] == 0.0);
    const double* const xp = x.data();
    double* const yp = y.data();
    V2 s = {};
    sweep(xp, yp, [&](std::size_t r0, std::size_t r1) {
        for (std::size_t r = r0; r < r1; ++r) s += load2(xp + 2 * r) * load2(yp + 2 * r);
    });
    return lanes(s);
}

LanePair SparseMatrix::residual_fold(std::span<const double> x, std::span<const double> b,
                                     std::span<double> r) const {
    assert(x.size() == lane_vector_size(n_) && r.size() == lane_vector_size(n_));
    assert(b.size() >= 2 * n_);
    assert(x[2 * n_] == 0.0 && x[2 * n_ + 1] == 0.0);
    const double* const bp = b.data();
    double* const rp = r.data();
    V2 s = {};
    sweep(x.data(), rp, [&](std::size_t r0, std::size_t r1) {
        for (std::size_t i = r0; i < r1; ++i) {
            const V2 res = load2(bp + 2 * i) - load2(rp + 2 * i);
            store2(rp + 2 * i, res);
            s += res * res;
        }
    });
    return lanes(s);
}

void SparseMatrix::multiply(std::span<const double> x, std::span<double> y) const {
    assert(x.size() == n_ && y.size() == n_);
    std::vector<double> xs(lane_vector_size(n_), 0.0);
    std::vector<double> ys(lane_vector_size(n_));
    for (std::size_t i = 0; i < n_; ++i) xs[2 * i] = x[i];
    sweep(xs.data(), ys.data(), [](std::size_t, std::size_t) {});
    for (std::size_t i = 0; i < n_; ++i) y[i] = ys[2 * i];
}

void CgWorkspace::resize(std::size_t n) {
    const std::size_t len = lane_vector_size(n);
    for (std::vector<double>* v : {&x, &b, &r, &z, &p, &ap}) v->resize(len);
}

namespace {

/// One lane's scalar state: the stopping threshold, the r.z it steers by
/// and its result so far.
struct CgLane {
    double stop = 0.0;
    double rz = 0.0;
    CgResult res;
    bool active = true;
};

/// Stop lane k and freeze it for the iterations the other lane still runs:
/// its r, z, p and Ap become +0.0, and with alpha = -0.0 and beta = +0.0
/// every later sweep leaves x unchanged (x + -0.0 * +0.0 == x, bit for bit)
/// and r, z, p and Ap at +0.0 (see conjugate_gradient_pair).
void freeze(CgLane& lane, std::size_t k, CgWorkspace& ws, std::size_t n, V2& alpha, V2& beta) {
    lane.active = false;
    for (std::size_t i = 0; i < n; ++i) {
        ws.r[2 * i + k] = 0.0;
        ws.z[2 * i + k] = 0.0;
        ws.p[2 * i + k] = 0.0;
        ws.ap[2 * i + k] = 0.0;
    }
    alpha[k] = -0.0;
    beta[k] = 0.0;
}

}  // namespace

std::pair<CgResult, CgResult> conjugate_gradient_pair(const SparseMatrix& a, CgWorkspace& ws,
                                                      double tol, std::size_t max_iters,
                                                      StageBudget* budget) {
    const std::size_t n = a.size();
    [[maybe_unused]] const std::size_t len = lane_vector_size(n);
    assert(ws.x.size() == len && ws.b.size() == len && ws.r.size() == len &&
           ws.z.size() == len && ws.p.size() == len && ws.ap.size() == len);
    double* const x = ws.x.data();
    double* const r = ws.r.data();
    double* const z = ws.z.data();
    double* const p = ws.p.data();
    const double* const ap = ws.ap.data();
    const double* const diag = a.diagonals().data();
    x[2 * n] = x[2 * n + 1] = 0.0;  // the sentinel pairs the padding reads
    p[2 * n] = p[2 * n + 1] = 0.0;

    // Setup: r = b - A x, then one sweep folding b.b for the stopping
    // thresholds, z = D^-1 r folding r.z, and p = z.
    const LanePair r_sq0 = a.residual_fold(ws.x, ws.b, ws.r);
    V2 bb = {};
    V2 rz = {};
    for (std::size_t i = 0; i < n; ++i) {
        const V2 bi = load2(ws.b.data() + 2 * i);
        bb += bi * bi;
        const V2 ri = load2(r + 2 * i);
        const V2 zi = jacobi(ri, diag[i]);
        store2(z + 2 * i, zi);
        store2(p + 2 * i, zi);
        rz += ri * zi;
    }
    CgLane lane[2];
    V2 alpha = {};
    V2 beta = {};
    for (std::size_t k = 0; k < 2; ++k) {
        lane[k].stop = tol * std::max(1.0, std::sqrt(bb[k]));
        lane[k].rz = rz[k];
        lane[k].res.residual_norm = std::sqrt(r_sq0[k]);
        if (lane[k].res.residual_norm <= lane[k].stop) {
            lane[k].res.converged = true;
            freeze(lane[k], k, ws, n, alpha, beta);
        }
    }
    const auto any_active = [&] { return lane[0].active || lane[1].active; };

    for (std::size_t it = 0; any_active() && it < max_iters; ++it) {
        if (budget != nullptr) {
            for (std::size_t k = 0; k < 2; ++k) {
                if (lane[k].active && !budget->tick()) {
                    // Out of budget: hand back the current (partial) iterate.
                    lane[k].res.budget_exhausted = true;
                    freeze(lane[k], k, ws, n, alpha, beta);
                }
            }
            if (!any_active()) break;
        }
        // p.Ap, then the bail-out test on it and alpha.
        const LanePair p_ap = a.multiply_fold(ws.p, ws.ap);
        for (std::size_t k = 0; k < 2; ++k) {
            if (!lane[k].active) continue;
            if (p_ap[k] <= 0.0) {
                freeze(lane[k], k, ws, n, alpha, beta);
            } else {
                alpha[k] = lane[k].rz / p_ap[k];
            }
        }
        if (!any_active()) break;
        // r -= alpha Ap folding r.r, and the next Jacobi application
        // z = D^-1 r folding r.z, in one sweep. On the converging iteration
        // z and its fold are dead values, so the fusion changes no
        // observable bit.
        V2 rr = {};
        V2 rz_next = {};
        for (std::size_t i = 0; i < n; ++i) {
            const V2 ri = load2(r + 2 * i) - alpha * load2(ap + 2 * i);
            store2(r + 2 * i, ri);
            rr += ri * ri;
            const V2 zi = jacobi(ri, diag[i]);
            store2(z + 2 * i, zi);
            rz_next += ri * zi;
        }
        // Convergence, then beta (a converging lane's next p is dead).
        bool converged[2] = {false, false};
        for (std::size_t k = 0; k < 2; ++k) {
            if (!lane[k].active) continue;
            lane[k].res.iterations = it + 1;
            lane[k].res.residual_norm = std::sqrt(rr[k]);
            if (lane[k].res.residual_norm <= lane[k].stop) {
                converged[k] = true;
                beta[k] = 0.0;
            } else {
                beta[k] = rz_next[k] / lane[k].rz;
                lane[k].rz = rz_next[k];
            }
        }
        // x += alpha p and the search direction p = z + beta p in one
        // sweep, sharing the load of the old p. Neither reads the other's
        // output, so each lane's x and p are those of two separate loops.
        for (std::size_t i = 0; i < n; ++i) {
            const V2 pi = load2(p + 2 * i);
            store2(x + 2 * i, load2(x + 2 * i) + alpha * pi);
            store2(p + 2 * i, load2(z + 2 * i) + beta * pi);
        }
        for (std::size_t k = 0; k < 2; ++k) {
            if (!converged[k]) continue;
            lane[k].res.converged = true;
            freeze(lane[k], k, ws, n, alpha, beta);
        }
    }
    return {lane[0].res, lane[1].res};
}

CgResult conjugate_gradient(const SparseMatrix& a, std::span<const double> b,
                            std::span<double> x, CgWorkspace& ws, double tol,
                            std::size_t max_iters, StageBudget* budget) {
    const std::size_t n = a.size();
    assert(b.size() == n && x.size() == n);
    ws.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
        ws.b[2 * i] = b[i];
        ws.b[2 * i + 1] = 0.0;
        ws.x[2 * i] = x[i];
        ws.x[2 * i + 1] = 0.0;
    }
    const CgResult res = conjugate_gradient_pair(a, ws, tol, max_iters, budget).first;
    for (std::size_t i = 0; i < n; ++i) x[i] = ws.x[2 * i];
    return res;
}

CgResult conjugate_gradient(const SparseMatrix& a, std::span<const double> b,
                            std::span<double> x, double tol, std::size_t max_iters,
                            StageBudget* budget) {
    CgWorkspace ws;
    return conjugate_gradient(a, b, x, ws, tol, max_iters, budget);
}

}  // namespace lily
