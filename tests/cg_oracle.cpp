// Reference copy of the placement solver as it ran before the thread pool
// left the placement kernels: SparseMatrix assembly and the
// Jacobi-preconditioned conjugate_gradient / conjugate_gradient_pair,
// verbatim on the path a 1-thread pool took. On that path every
// parallel_for ran inline over [0, n) and every *_fold kernel took its
// serial branch, so those are written out here as plain loops and the
// write-products-then-fold branches are omitted. Tests hold the production
// solver to this copy bit for bit.
#include "cg_oracle.hpp"

#include <algorithm>
#include <cmath>

namespace lily::oracle {

OracleMatrix OracleMatrix::Builder::build() && {
    std::sort(triplets_.begin(), triplets_.end(), [](const Triplet& a, const Triplet& b) {
        return a.row != b.row ? a.row < b.row : a.col < b.col;
    });

    OracleMatrix m;
    m.n_ = n_;
    m.row_start_.assign(n_ + 1, 0);
    m.diag_.assign(n_, 0.0);
    m.diag_pos_.assign(n_, kNoEntry);
    m.anchor_slot_.assign(n_, 0);
    m.anchor_prefix_.assign(n_, 0.0);
    m.anchor_tail_start_.assign(n_ + 1, 0);
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
    for (std::size_t r = 0; r < n_; ++r) {
        m.anchor_tail_start_[r + 1] =
            std::max(m.anchor_tail_start_[r + 1], m.anchor_tail_start_[r]);
    }
    for (std::size_t r = 0; r < n_; ++r) m.row_start_[r + 1] += m.row_start_[r];
    return m;
}

void OracleMatrix::set_anchor(std::size_t i, double w) {
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

double OracleMatrix::multiply_dot_fold(std::span<const double> x, std::span<double> y,
                                       std::span<double> /*xy*/) const {
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

void OracleMatrix::multiply_dot_fold2(std::span<const double> x1, std::span<double> y1,
                                      std::span<double> /*xy1*/, std::span<const double> x2,
                                      std::span<double> y2, std::span<double> /*xy2*/,
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
    std::uint32_t k = 0;
    for (std::size_t r = 0; r < n_; ++r) {
        const std::uint32_t ke = rs[r + 1];
        double a1 = 0.0;
        double a2 = 0.0;
        for (; k < ke; ++k) {
            const double v = vals[k];
            const std::uint32_t c = cols[k];
            a1 += v * xp1[c];
            a2 += v * xp2[c];
        }
        yp1[r] = a1;
        s1 += xp1[r] * a1;
        yp2[r] = a2;
        s2 += xp2[r] * a2;
    }
    fold1 = s1;
    fold2 = s2;
}

double OracleMatrix::multiply_residual_fold(std::span<const double> x, std::span<const double> b,
                                            std::span<double> r, std::span<double> /*rr*/) const {
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

CgResult oracle_conjugate_gradient(const OracleMatrix& a, std::span<const double> b,
                                   std::span<double> x, OracleCgWorkspace& ws, double tol,
                                   std::size_t max_iters, StageBudget* budget) {
    const std::size_t n = a.size();
    assert(b.size() == n && x.size() == n);

    ws.r.resize(n);
    ws.z.resize(n);
    ws.p.resize(n);
    ws.ap.resize(n);
    ws.prod.resize(n);
    std::span<double> r(ws.r), z(ws.z), p(ws.p), ap(ws.ap), prod(ws.prod);

    const double r_sq0 = a.multiply_residual_fold(x, b, r, prod);

    const double b_norm = std::sqrt(dot(b, b));
    const double stop = tol * std::max(1.0, b_norm);

    auto precondition_rz = [&]() -> double {
        double s = 0.0;
        for (std::size_t i = 0; i < n; ++i) {
            const double d = a.diagonal(i);
            z[i] = d > 0.0 ? r[i] / d : r[i];
            s += r[i] * z[i];
        }
        return s;
    };

    double rz = precondition_rz();
    for (std::size_t i = 0; i < n; ++i) p[i] = z[i];

    CgResult result;
    result.residual_norm = std::sqrt(r_sq0);
    if (result.residual_norm <= stop) {
        result.converged = true;
        return result;
    }

    for (std::size_t it = 0; it < max_iters; ++it) {
        if (budget != nullptr && !budget->tick()) {
            result.budget_exhausted = true;
            return result;
        }
        const double p_ap = a.multiply_dot_fold(p, ap, prod);
        if (p_ap <= 0.0) break;
        const double alpha = rz / p_ap;
        double r_sq;
        double rz_next = 0.0;
        {
            double s = 0.0;
            double srz = 0.0;
            for (std::size_t i = 0; i < n; ++i) {
                x[i] += alpha * p[i];
                r[i] -= alpha * ap[i];
                s += r[i] * r[i];
                const double d = a.diagonal(i);
                z[i] = d > 0.0 ? r[i] / d : r[i];
                srz += r[i] * z[i];
            }
            r_sq = s;
            rz_next = srz;
        }
        result.iterations = it + 1;
        result.residual_norm = std::sqrt(r_sq);
        if (result.residual_norm <= stop) {
            result.converged = true;
            return result;
        }
        const double beta = rz_next / rz;
        rz = rz_next;
        for (std::size_t i = 0; i < n; ++i) p[i] = z[i] + beta * p[i];
    }
    return result;
}

namespace {

struct PairAxis {
    std::span<const double> b;
    std::span<double> x;
    std::span<double> r, z, p, ap, prod;
    double stop = 0.0;
    double rz = 0.0;
    CgResult res;
    bool active = true;
};

}  // namespace

std::pair<CgResult, CgResult> oracle_conjugate_gradient_pair(
    const OracleMatrix& a, std::span<const double> b1, std::span<double> x1,
    OracleCgWorkspace& ws1, std::span<const double> b2, std::span<double> x2,
    OracleCgWorkspace& ws2, double tol, std::size_t max_iters, StageBudget* budget) {
    const std::size_t n = a.size();
    assert(b1.size() == n && x1.size() == n && b2.size() == n && x2.size() == n);

    PairAxis ax1{b1, x1, {}, {}, {}, {}, {}, 0.0, 0.0, {}, true};
    PairAxis ax2{b2, x2, {}, {}, {}, {}, {}, 0.0, 0.0, {}, true};
    const auto bind = [&](PairAxis& ax, OracleCgWorkspace& ws) {
        ws.r.resize(n);
        ws.z.resize(n);
        ws.p.resize(n);
        ws.ap.resize(n);
        ws.prod.resize(n);
        ax.r = ws.r;
        ax.z = ws.z;
        ax.p = ws.p;
        ax.ap = ws.ap;
        ax.prod = ws.prod;
    };
    bind(ax1, ws1);
    bind(ax2, ws2);

    const auto precondition_rz = [&](PairAxis& ax) -> double {
        double s = 0.0;
        for (std::size_t i = 0; i < n; ++i) {
            const double d = a.diagonal(i);
            ax.z[i] = d > 0.0 ? ax.r[i] / d : ax.r[i];
            s += ax.r[i] * ax.z[i];
        }
        return s;
    };

    const auto setup = [&](PairAxis& ax) {
        const double r_sq0 = a.multiply_residual_fold(ax.x, ax.b, ax.r, ax.prod);
        const double b_norm = std::sqrt(dot(ax.b, ax.b));
        ax.stop = tol * std::max(1.0, b_norm);
        ax.rz = precondition_rz(ax);
        for (std::size_t i = 0; i < n; ++i) ax.p[i] = ax.z[i];
        ax.res.residual_norm = std::sqrt(r_sq0);
        if (ax.res.residual_norm <= ax.stop) {
            ax.res.converged = true;
            ax.active = false;
        }
    };
    setup(ax1);
    setup(ax2);

    const auto step = [&](PairAxis& ax, double p_ap, std::size_t it) {
        if (!ax.active) return;
        if (p_ap <= 0.0) {
            ax.active = false;
            return;
        }
        const double alpha = ax.rz / p_ap;
        double r_sq;
        double rz_next = 0.0;
        {
            double s = 0.0;
            double srz = 0.0;
            for (std::size_t i = 0; i < n; ++i) {
                ax.x[i] += alpha * ax.p[i];
                ax.r[i] -= alpha * ax.ap[i];
                s += ax.r[i] * ax.r[i];
                const double d = a.diagonal(i);
                ax.z[i] = d > 0.0 ? ax.r[i] / d : ax.r[i];
                srz += ax.r[i] * ax.z[i];
            }
            r_sq = s;
            rz_next = srz;
        }
        ax.res.iterations = it + 1;
        ax.res.residual_norm = std::sqrt(r_sq);
        if (ax.res.residual_norm <= ax.stop) {
            ax.res.converged = true;
            ax.active = false;
            return;
        }
        const double beta = rz_next / ax.rz;
        ax.rz = rz_next;
        for (std::size_t i = 0; i < n; ++i) ax.p[i] = ax.z[i] + beta * ax.p[i];
    };

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
        double pap1 = 0.0;
        double pap2 = 0.0;
        if (ax1.active && ax2.active) {
            a.multiply_dot_fold2(ax1.p, ax1.ap, ax1.prod, ax2.p, ax2.ap, ax2.prod, pap1, pap2);
        } else if (ax1.active) {
            pap1 = a.multiply_dot_fold(ax1.p, ax1.ap, ax1.prod);
        } else {
            pap2 = a.multiply_dot_fold(ax2.p, ax2.ap, ax2.prod);
        }
        step(ax1, pap1, it);
        step(ax2, pap2, it);
    }
    return {ax1.res, ax2.res};
}

}  // namespace lily::oracle
