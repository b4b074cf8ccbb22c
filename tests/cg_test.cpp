// The placement solver against its reference copy (cg_oracle.*): random SPD
// Laplacians, solved by conjugate_gradient and conjugate_gradient_pair,
// must reproduce the reference's iterates bit for bit — solution vectors,
// iteration counts, residual norms, flags and budget consumption — across
// sizes, early-converging axes, the p.Ap bail-out, the iteration cap and a
// budget that runs out mid-solve.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <random>
#include <string>
#include <tuple>
#include <vector>

#include "cg_oracle.hpp"
#include "util/sparse.hpp"

using namespace lily;
using lily::oracle::OracleCgWorkspace;
using lily::oracle::OracleMatrix;

namespace {

/// A random weighted graph Laplacian with anchor slots on every row and a
/// few plain anchors: the shape of the placer's system. Emitted through a
/// template so both matrix types see the identical triplet sequence.
struct LaplacianSpec {
    std::size_t n = 0;
    struct Spring {
        std::size_t i, j;
        double w;
    };
    std::vector<Spring> springs;
    std::vector<std::pair<std::size_t, double>> anchors;
    std::vector<double> slot_weights;  // set_anchor weight per row
    std::vector<std::pair<std::size_t, double>> raw;  // extra add(i, i, v) terms

    template <typename B>
    void emit(B& b) const {
        for (const Spring& s : springs) b.add_spring(s.i, s.j, s.w);
        for (const auto& [i, w] : anchors) b.add_anchor(i, w);
        for (const auto& [i, v] : raw) b.add(i, i, v);
        for (std::size_t i = 0; i < n; ++i) b.add_anchor_slot(i);
    }

    template <typename M, typename B>
    M build() const {
        B b(n);
        emit(b);
        M m = std::move(b).build();
        for (std::size_t i = 0; i < n; ++i) m.set_anchor(i, slot_weights[i]);
        return m;
    }
};

LaplacianSpec random_laplacian(std::size_t n, std::uint32_t seed) {
    std::mt19937 rng(seed);
    std::uniform_real_distribution<double> weight(0.05, 2.0);
    LaplacianSpec spec;
    spec.n = n;
    for (std::size_t i = 1; i < n; ++i) {
        // A random tree keeps the graph connected; chords add fill.
        spec.springs.push_back({i, rng() % i, weight(rng)});
        if (i >= 3 && rng() % 2 == 0) spec.springs.push_back({i, rng() % (i - 1), weight(rng)});
    }
    for (std::size_t i = 0; i < n; ++i) {
        if (rng() % 5 == 0) spec.anchors.push_back({i, weight(rng)});
    }
    spec.slot_weights.resize(n);
    for (double& w : spec.slot_weights) w = 1e-3 * weight(rng);
    return spec;
}

std::vector<double> random_vector(std::size_t n, std::uint32_t seed, double scale = 10.0) {
    std::mt19937 rng(seed);
    std::uniform_real_distribution<double> d(-scale, scale);
    std::vector<double> v(n);
    for (double& e : v) e = d(rng);
    return v;
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
    if (a.size() != b.size()) return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (std::bit_cast<std::uint64_t>(a[i]) != std::bit_cast<std::uint64_t>(b[i])) return false;
    }
    return true;
}

void expect_same(const CgResult& got, const CgResult& want, const char* what) {
    EXPECT_EQ(got.iterations, want.iterations) << what;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.residual_norm),
              std::bit_cast<std::uint64_t>(want.residual_norm))
        << what << ": " << got.residual_norm << " vs " << want.residual_norm;
    EXPECT_EQ(got.converged, want.converged) << what;
    EXPECT_EQ(got.budget_exhausted, want.budget_exhausted) << what;
}

struct SingleRun {
    CgResult res;
    std::vector<double> x;
    std::size_t ticks = 0;
};

struct PairRun {
    CgResult r1, r2;
    std::vector<double> x1, x2;
    std::size_t ticks = 0;
};

/// Solve once with the production solver and once with the reference, with
/// identical inputs and (when `budget_iters` > 0) identical fresh budgets.
struct Case {
    LaplacianSpec spec;
    std::vector<double> b1, b2, x1, x2;
    double tol = 1e-10;
    std::size_t max_iters = 10'000;
    std::size_t budget_iters = 0;

    SingleRun single_new() const {
        const SparseMatrix a = spec.build<SparseMatrix, SparseMatrix::Builder>();
        StageBudget budget = StageBudget::iterations(budget_iters);
        SingleRun out{{}, x1, 0};
        CgWorkspace ws;
        out.res = conjugate_gradient(a, b1, out.x, ws, tol, max_iters,
                                     budget_iters > 0 ? &budget : nullptr);
        out.ticks = budget.ticks_used();
        return out;
    }
    SingleRun single_oracle() const {
        const OracleMatrix a = spec.build<OracleMatrix, OracleMatrix::Builder>();
        StageBudget budget = StageBudget::iterations(budget_iters);
        SingleRun out{{}, x1, 0};
        OracleCgWorkspace ws;
        out.res = oracle::oracle_conjugate_gradient(a, b1, out.x, ws, tol, max_iters,
                                                    budget_iters > 0 ? &budget : nullptr);
        out.ticks = budget.ticks_used();
        return out;
    }
    PairRun pair_new() const {
        const SparseMatrix a = spec.build<SparseMatrix, SparseMatrix::Builder>();
        StageBudget budget = StageBudget::iterations(budget_iters);
        PairRun out{{}, {}, x1, x2, 0};
        CgWorkspace w1, w2;
        std::tie(out.r1, out.r2) =
            conjugate_gradient_pair(a, b1, out.x1, w1, b2, out.x2, w2, tol, max_iters,
                                    budget_iters > 0 ? &budget : nullptr);
        out.ticks = budget.ticks_used();
        return out;
    }
    PairRun pair_oracle() const {
        const OracleMatrix a = spec.build<OracleMatrix, OracleMatrix::Builder>();
        StageBudget budget = StageBudget::iterations(budget_iters);
        PairRun out{{}, {}, x1, x2, 0};
        OracleCgWorkspace w1, w2;
        std::tie(out.r1, out.r2) = oracle::oracle_conjugate_gradient_pair(
            a, b1, out.x1, w1, b2, out.x2, w2, tol, max_iters,
            budget_iters > 0 ? &budget : nullptr);
        out.ticks = budget.ticks_used();
        return out;
    }

    /// Asserts bit identity for both solvers; returns the pair results.
    PairRun check() const {
        const SingleRun s = single_new();
        const SingleRun so = single_oracle();
        expect_same(s.res, so.res, "single");
        EXPECT_TRUE(same_bits(s.x, so.x)) << "single solution";
        EXPECT_EQ(s.ticks, so.ticks) << "single budget ticks";

        PairRun p = pair_new();
        const PairRun po = pair_oracle();
        expect_same(p.r1, po.r1, "pair axis 1");
        expect_same(p.r2, po.r2, "pair axis 2");
        EXPECT_TRUE(same_bits(p.x1, po.x1)) << "pair solution 1";
        EXPECT_TRUE(same_bits(p.x2, po.x2)) << "pair solution 2";
        EXPECT_EQ(p.ticks, po.ticks) << "pair budget ticks";
        return p;
    }
};

Case random_case(std::size_t n, std::uint32_t seed) {
    Case c;
    c.spec = random_laplacian(n, seed);
    c.b1 = random_vector(n, seed * 7 + 1);
    c.b2 = random_vector(n, seed * 7 + 2, 1000.0);
    c.x1 = random_vector(n, seed * 7 + 3, 0.1);
    c.x2 = std::vector<double>(n, 0.5);
    return c;
}

}  // namespace

TEST(CgOracle, RandomLaplaciansOddAndEvenSizes) {
    for (const std::size_t n : {0u, 1u, 2u, 3u, 8u, 17u, 64u, 101u, 500u, 1001u}) {
        for (std::uint32_t seed = 1; seed <= 3; ++seed) {
            SCOPED_TRACE("n=" + std::to_string(n) + " seed=" + std::to_string(seed));
            const PairRun p = random_case(n, seed).check();
            if (n >= 2) {
                EXPECT_TRUE(p.r1.converged);
                EXPECT_TRUE(p.r2.converged);
            }
        }
    }
}

TEST(CgOracle, OneAxisConvergesFirst) {
    // Axis 2 starts at the exact solution of a zero right-hand side, so it
    // converges in setup and axis 1 runs alone from the first iteration.
    Case c = random_case(257, 11);
    c.b2.assign(257, 0.0);
    c.x2.assign(257, 0.0);
    PairRun p = c.check();
    EXPECT_EQ(p.r2.iterations, 0u);
    EXPECT_GT(p.r1.iterations, 0u);

    // Different right-hand sides and tolerances make the axes finish on
    // different iterations, in both orders.
    for (std::uint32_t seed = 20; seed < 26; ++seed) {
        Case d = random_case(300 + seed, seed);
        for (double& v : d.b2) v *= 1e-6;
        d.x2 = d.b2;
        d.tol = 1e-7;
        p = d.check();
        EXPECT_TRUE(p.r1.converged && p.r2.converged);
    }
    bool saw_split = false;
    for (std::uint32_t seed = 30; seed < 40 && !saw_split; ++seed) {
        Case d = random_case(200, seed);
        p = d.check();
        saw_split = p.r1.iterations != p.r2.iterations;
    }
    EXPECT_TRUE(saw_split) << "no case had the axes finish on different iterations";
}

TEST(CgOracle, NonSpdDirectionBailsOut) {
    // diag(1, -1) plus slots: e1 is a positive direction, e2 a negative one.
    Case c;
    c.spec.n = 2;
    c.spec.raw = {{0, 1.0}, {1, -1.0}};
    c.spec.slot_weights = {0.0, 0.0};
    c.b1 = {1.0, 0.0};
    c.b2 = {0.0, 1.0};
    c.x1 = {0.0, 0.0};
    c.x2 = {0.0, 0.0};
    const PairRun p = c.check();
    EXPECT_TRUE(p.r1.converged);
    EXPECT_FALSE(p.r2.converged);
    EXPECT_EQ(p.r2.iterations, 0u);

    // Both axes bail out on an indefinite random matrix.
    Case d = random_case(40, 5);
    d.spec.raw = {{3, -500.0}, {17, -500.0}};
    const PairRun q = d.check();
    EXPECT_FALSE(q.r1.converged);
    EXPECT_FALSE(q.r2.converged);
}

TEST(CgOracle, IterationCapStopsBothAxes) {
    Case c = random_case(400, 9);
    c.tol = 1e-300;
    c.max_iters = 3;
    const PairRun p = c.check();
    EXPECT_EQ(p.r1.iterations, 3u);
    EXPECT_EQ(p.r2.iterations, 3u);
    EXPECT_FALSE(p.r1.converged);
}

TEST(CgOracle, BudgetExhaustsMidSolve) {
    for (const std::size_t budget : {1u, 2u, 5u, 6u, 17u}) {
        SCOPED_TRACE("budget=" + std::to_string(budget));
        Case c = random_case(333, 4);
        c.budget_iters = budget;
        const PairRun p = c.check();
        EXPECT_TRUE(p.r1.budget_exhausted || p.r2.budget_exhausted);
    }
    // A budget that outlasts one axis but not the other.
    Case c = random_case(333, 4);
    for (double& v : c.b2) v *= 1e-9;
    c.x2.assign(333, 0.0);
    c.tol = 1e-6;
    c.budget_iters = 60;
    c.check();
}

TEST(CgOracle, FusedKernelsMatchUnfusedFolds) {
    // multiply_dot_fold2 walks two rows at a time; odd and even sizes
    // exercise the single-row tail.
    for (const std::size_t n : {1u, 2u, 5u, 6u, 99u}) {
        const LaplacianSpec spec = random_laplacian(n, static_cast<std::uint32_t>(n));
        const SparseMatrix a = spec.build<SparseMatrix, SparseMatrix::Builder>();
        const std::vector<double> x1 = random_vector(n, 3), x2 = random_vector(n, 4);
        std::vector<double> y1(n), y2(n), s1(n), s2(n);
        double f1 = 0.0, f2 = 0.0;
        a.multiply_dot_fold2(x1, y1, x2, y2, f1, f2);
        const double g1 = a.multiply_dot_fold(x1, s1);
        const double g2 = a.multiply_dot_fold(x2, s2);
        EXPECT_TRUE(same_bits(y1, s1));
        EXPECT_TRUE(same_bits(y2, s2));
        EXPECT_EQ(std::bit_cast<std::uint64_t>(f1), std::bit_cast<std::uint64_t>(g1));
        EXPECT_EQ(std::bit_cast<std::uint64_t>(f2), std::bit_cast<std::uint64_t>(g2));
        std::vector<double> y(n);
        a.multiply(x1, y);
        EXPECT_TRUE(same_bits(y, s1));
    }
}
