// Reference sparse matrix and conjugate-gradient solvers (tests only); see
// cg_oracle.cpp.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "util/budget.hpp"
#include "util/sparse.hpp"

namespace lily::oracle {

/// The placement Laplacian as the thread-pool-era solver stored it: the
/// same triplet assembly, sort, duplicate fold and anchor-slot refold as
/// lily::SparseMatrix, with the single-thread SpMV kernels.
class OracleMatrix {
public:
    class Builder {
    public:
        explicit Builder(std::size_t n) : n_(n) {}

        void add(std::size_t i, std::size_t j, double v) {
            assert(i < n_ && j < n_);
            triplets_.push_back({static_cast<std::uint32_t>(i), static_cast<std::uint32_t>(j), v});
        }
        void add_spring(std::size_t i, std::size_t j, double v) {
            add(i, i, v);
            add(j, j, v);
            add(i, j, -v);
            add(j, i, -v);
        }
        void add_anchor(std::size_t i, double v) { add(i, i, v); }
        void add_anchor_slot(std::size_t i) {
            assert(i < n_);
            triplets_.push_back({static_cast<std::uint32_t>(i), static_cast<std::uint32_t>(i), 0.0,
                                 /*anchor_slot=*/true});
        }

        OracleMatrix build() &&;

    private:
        struct Triplet {
            std::uint32_t row;
            std::uint32_t col;
            double value;
            bool anchor_slot = false;
        };
        std::size_t n_;
        std::vector<Triplet> triplets_;
    };

    std::size_t size() const { return n_; }
    double diagonal(std::size_t i) const { return diag_[i]; }
    void set_anchor(std::size_t i, double w);

    double multiply_dot_fold(std::span<const double> x, std::span<double> y,
                             std::span<double> xy) const;
    double multiply_residual_fold(std::span<const double> x, std::span<const double> b,
                                  std::span<double> r, std::span<double> rr) const;
    void multiply_dot_fold2(std::span<const double> x1, std::span<double> y1,
                            std::span<double> xy1, std::span<const double> x2,
                            std::span<double> y2, std::span<double> xy2, double& fold1,
                            double& fold2) const;

private:
    static constexpr std::uint32_t kNoEntry = static_cast<std::uint32_t>(-1);
    std::size_t n_ = 0;
    std::vector<std::uint32_t> row_start_;
    std::vector<std::uint32_t> col_;
    std::vector<double> val_;
    std::vector<double> diag_;
    std::vector<std::uint32_t> diag_pos_;
    std::vector<char> anchor_slot_;
    std::vector<double> anchor_prefix_;
    std::vector<std::uint32_t> anchor_tail_start_;
    std::vector<double> anchor_tail_vals_;
};

struct OracleCgWorkspace {
    std::vector<double> r, z, p, ap, prod;
};

/// Same contracts as lily::conjugate_gradient / conjugate_gradient_pair.
CgResult oracle_conjugate_gradient(const OracleMatrix& a, std::span<const double> b,
                                   std::span<double> x, OracleCgWorkspace& ws, double tol,
                                   std::size_t max_iters, StageBudget* budget = nullptr);

std::pair<CgResult, CgResult> oracle_conjugate_gradient_pair(
    const OracleMatrix& a, std::span<const double> b1, std::span<double> x1,
    OracleCgWorkspace& ws1, std::span<const double> b2, std::span<double> x2,
    OracleCgWorkspace& ws2, double tol, std::size_t max_iters, StageBudget* budget = nullptr);

}  // namespace lily::oracle
