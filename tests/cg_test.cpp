// The placement solver against its reference copy (cg_oracle.*): random SPD
// Laplacians, solved by conjugate_gradient (one lane) and
// conjugate_gradient_pair (two lanes), must reproduce the reference's
// iterates bit for bit — solution vectors, iteration counts, residual norms,
// flags and budget consumption — across sizes on both sides of the
// sliced-ELL slice and window boundaries, early-converging axes, the p.Ap
// bail-out, the iteration cap and a budget that runs out mid-solve. The
// two-lane SpMV is held to the reference's row-by-row CSR kernel on mixed
// row lengths and on -0.0, infinite and NaN inputs, where the slice padding
// must stay an exact no-op.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
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

/// Bit identity, except that any two NaNs match: which NaN payload an
/// operation propagates depends on operand order, which the compiler may
/// commute. A finite or infinite result must match exactly.
bool same_value(double a, double b) {
    if (std::isnan(a) || std::isnan(b)) return std::isnan(a) && std::isnan(b);
    return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// Interleave two n-vectors into a lane vector (sentinel pair +0.0).
std::vector<double> pack(const std::vector<double>& l0, const std::vector<double>& l1) {
    std::vector<double> v(lane_vector_size(l0.size()), 0.0);
    for (std::size_t i = 0; i < l0.size(); ++i) {
        v[2 * i] = l0[i];
        v[2 * i + 1] = l1[i];
    }
    return v;
}

std::vector<double> lane(const std::vector<double>& v, std::size_t k, std::size_t n) {
    std::vector<double> out(n);
    for (std::size_t i = 0; i < n; ++i) out[i] = v[2 * i + k];
    return out;
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
        CgWorkspace ws;
        ws.resize(spec.n);
        ws.b = pack(b1, b2);
        ws.x = pack(x1, x2);
        std::tie(out.r1, out.r2) = conjugate_gradient_pair(
            a, ws, tol, max_iters, budget_iters > 0 ? &budget : nullptr);
        out.x1 = lane(ws.x, 0, spec.n);
        out.x2 = lane(ws.x, 1, spec.n);
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

/// Both lanes of multiply_fold against the reference's row-by-row kernel:
/// every y entry and both folds bit for bit (NaNs match NaNs).
void expect_spmv_matches(const LaplacianSpec& spec, const std::vector<double>& x1,
                         const std::vector<double>& x2) {
    const std::size_t n = spec.n;
    const SparseMatrix a = spec.build<SparseMatrix, SparseMatrix::Builder>();
    const OracleMatrix o = spec.build<OracleMatrix, OracleMatrix::Builder>();
    std::vector<double> y(lane_vector_size(n));
    const LanePair f = a.multiply_fold(pack(x1, x2), y);
    std::vector<double> s1(n), s2(n), scratch(n);
    const double g1 = o.multiply_dot_fold(x1, s1, scratch);
    const double g2 = o.multiply_dot_fold(x2, s2, scratch);
    for (std::size_t i = 0; i < n; ++i) {
        ASSERT_TRUE(same_value(y[2 * i], s1[i]))
            << "row " << i << ": " << y[2 * i] << " vs " << s1[i];
        ASSERT_TRUE(same_value(y[2 * i + 1], s2[i]))
            << "row " << i << ": " << y[2 * i + 1] << " vs " << s2[i];
    }
    EXPECT_TRUE(same_value(f[0], g1)) << f[0] << " vs " << g1;
    EXPECT_TRUE(same_value(f[1], g2)) << f[1] << " vs " << g2;
}

TEST(CgOracle, FusedKernelsMatchUnfusedFolds) {
    // The two-lane SpMV with its fold against the reference kernel run once
    // per lane, and the one-vector multiply against lane 0.
    for (const std::size_t n : {1u, 2u, 5u, 6u, 99u, 300u}) {
        SCOPED_TRACE("n=" + std::to_string(n));
        const LaplacianSpec spec = random_laplacian(n, static_cast<std::uint32_t>(n));
        const std::vector<double> x1 = random_vector(n, 3), x2 = random_vector(n, 4);
        expect_spmv_matches(spec, x1, x2);
        const SparseMatrix a = spec.build<SparseMatrix, SparseMatrix::Builder>();
        std::vector<double> y(n), y2(lane_vector_size(n));
        a.multiply(x1, y);
        a.multiply_fold(pack(x1, x2), y2);
        EXPECT_TRUE(same_bits(y, lane(y2, 0, n)));
    }
}

/// A non-symmetric pattern with prescribed row lengths (the SpMV needs no
/// symmetry): row i holds its anchor slot plus lens[i] - 1 distinct random
/// off-diagonal columns.
struct RowPattern {
    std::size_t n = 0;
    std::vector<std::pair<std::size_t, std::size_t>> entries;

    RowPattern(std::size_t rows, const std::vector<std::size_t>& lens, std::uint32_t seed)
        : n(rows) {
        std::mt19937 rng(seed);
        for (std::size_t i = 0; i < n; ++i) {
            std::vector<char> used(n, 0);
            used[i] = 1;
            for (std::size_t k = 1; k < lens[i]; ++k) {
                std::size_t j = rng() % n;
                while (used[j]) j = (j + 1) % n;
                used[j] = 1;
                entries.push_back({i, j});
            }
        }
    }

    template <typename M, typename B>
    M build() const {
        B b(n);
        for (const auto& [i, j] : entries) {
            b.add(i, j, 0.25 + 0.001 * static_cast<double>(i + 3 * j));
        }
        for (std::size_t i = 0; i < n; ++i) b.add_anchor_slot(i);
        M m = std::move(b).build();
        for (std::size_t i = 0; i < n; ++i) m.set_anchor(i, 1.5);
        return m;
    }
};

TEST(CgOracle, MixedRowLengthsInOneWindow) {
    // Row lengths 1..25 interleaved within each window, so the length sort
    // groups them and most slices pad their shorter rows; then a Laplacian
    // with hub rows for the solver.
    for (const std::size_t n : {40u, 256u, 600u}) {
        SCOPED_TRACE("n=" + std::to_string(n));
        std::vector<std::size_t> lens(n);
        for (std::size_t i = 0; i < n; ++i) lens[i] = 1 + (i * 7) % 25;
        const RowPattern pattern(n, lens, static_cast<std::uint32_t>(n));
        const SparseMatrix a = pattern.build<SparseMatrix, SparseMatrix::Builder>();
        const OracleMatrix o = pattern.build<OracleMatrix, OracleMatrix::Builder>();
        EXPECT_GT(a.padded_entries(), a.nonzeros());
        const std::vector<double> x1 = random_vector(n, 5), x2 = random_vector(n, 6, 1e3);
        std::vector<double> y(lane_vector_size(n)), s1(n), s2(n), scratch(n);
        const LanePair f = a.multiply_fold(pack(x1, x2), y);
        const double g1 = o.multiply_dot_fold(x1, s1, scratch);
        const double g2 = o.multiply_dot_fold(x2, s2, scratch);
        EXPECT_TRUE(same_bits(lane(y, 0, n), s1));
        EXPECT_TRUE(same_bits(lane(y, 1, n), s2));
        EXPECT_EQ(std::bit_cast<std::uint64_t>(f[0]), std::bit_cast<std::uint64_t>(g1));
        EXPECT_EQ(std::bit_cast<std::uint64_t>(f[1]), std::bit_cast<std::uint64_t>(g2));

        Case c = random_case(n, static_cast<std::uint32_t>(n) + 7);
        for (std::size_t i = 0; i < n; ++i) {
            const std::size_t hub = (i / 32) * 32;
            if (hub != i && i % 32 < 24) c.spec.springs.push_back({hub, i, 0.3});
        }
        c.check();
    }
}

TEST(CgOracle, SliceAndWindowBoundaries) {
    // Sizes on both sides of the slice (8 rows) and window (256 rows)
    // boundaries, where the last slice carries padding rows.
    for (const std::size_t n : {0u, 1u, 7u, 8u, 9u, 255u, 256u, 257u, 1001u}) {
        SCOPED_TRACE("n=" + std::to_string(n));
        random_case(n, static_cast<std::uint32_t>(n) + 100).check();
        const LaplacianSpec spec = random_laplacian(n, static_cast<std::uint32_t>(n) + 200);
        expect_spmv_matches(spec, random_vector(n, 7), random_vector(n, 8, 1e-3));
    }
}

TEST(CgOracle, PaddingIsExactNoOpOnSpecialValues) {
    // -0.0, +-inf and NaN in the multiplied vector: a pad entry reading any
    // real row's slot would turn finite sums into NaN or flip -0.0 signs.
    const double inf = std::numeric_limits<double>::infinity();
    const double nan = std::numeric_limits<double>::quiet_NaN();
    for (const std::size_t n : {9u, 257u}) {
        SCOPED_TRACE("n=" + std::to_string(n));
        const LaplacianSpec spec = random_laplacian(n, 77);
        expect_spmv_matches(spec, std::vector<double>(n, -0.0), std::vector<double>(n, 0.0));
        std::vector<double> x1 = random_vector(n, 9), x2 = random_vector(n, 10);
        x1[n - 1] = inf;
        x1[n / 2] = -0.0;
        x2[0] = nan;
        x2[n / 3] = -inf;
        expect_spmv_matches(spec, x1, x2);
        for (std::size_t i = 0; i < n; i += 3) x1[i] = i % 2 ? inf : -inf;
        expect_spmv_matches(spec, x1, std::vector<double>(n, nan));
    }
}

TEST(CgOracle, SetAnchorAfterBuildEqualsRebuild) {
    // The refreshed anchor lands in the diagonal's slice slot: matrix,
    // diagonal and products equal a build that added the weights directly.
    for (const std::size_t n : {3u, 255u, 700u}) {
        SCOPED_TRACE("n=" + std::to_string(n));
        const LaplacianSpec spec = random_laplacian(n, 31);
        SparseMatrix::Builder rebuilt_b(n);
        for (const auto& sp : spec.springs) rebuilt_b.add_spring(sp.i, sp.j, sp.w);
        for (const auto& [i, w] : spec.anchors) rebuilt_b.add_anchor(i, w);
        for (std::size_t i = 0; i < n; ++i) rebuilt_b.add_anchor(i, spec.slot_weights[i]);
        const SparseMatrix rebuilt = std::move(rebuilt_b).build();
        SparseMatrix refreshed = spec.build<SparseMatrix, SparseMatrix::Builder>();
        for (std::size_t i = 0; i < n; ++i) refreshed.set_anchor(i, 7.0);  // stale weight first
        for (std::size_t i = 0; i < n; ++i) refreshed.set_anchor(i, spec.slot_weights[i]);
        for (std::size_t i = 0; i < n; ++i) {
            ASSERT_EQ(std::bit_cast<std::uint64_t>(refreshed.diagonal(i)),
                      std::bit_cast<std::uint64_t>(rebuilt.diagonal(i)));
        }
        const std::vector<double> x = pack(random_vector(n, 1), random_vector(n, 2));
        std::vector<double> y1(x.size()), y2(x.size());
        const LanePair f1 = refreshed.multiply_fold(x, y1);
        const LanePair f2 = rebuilt.multiply_fold(x, y2);
        EXPECT_TRUE(same_bits(std::vector<double>(y1.begin(), y1.end() - 2),
                              std::vector<double>(y2.begin(), y2.end() - 2)));
        EXPECT_EQ(std::bit_cast<std::uint64_t>(f1[0]), std::bit_cast<std::uint64_t>(f2[0]));
        EXPECT_EQ(std::bit_cast<std::uint64_t>(f1[1]), std::bit_cast<std::uint64_t>(f2[1]));
    }
}

TEST(CgOracle, FrozenLaneStaysExactWithoutDenormals) {
    // Lane 1 has b = 0 and an initial guess of signed zeros: it converges
    // at setup and stays frozen while lane 0 runs hundreds of iterations.
    // Its x must come back bit for bit (-0.0 included), and its r, z, p and
    // Ap must stay exactly +0.0 — no denormal, no NaN.
    const std::size_t n = 600;
    LaplacianSpec spec;
    spec.n = n;
    for (std::size_t i = 1; i < n; ++i) spec.springs.push_back({i - 1, i, i % 3 ? 1.0 : 0.01});
    spec.slot_weights.assign(n, 1e-6);
    const SparseMatrix a = spec.build<SparseMatrix, SparseMatrix::Builder>();
    std::vector<double> b1 = random_vector(n, 12), x2(n);
    for (std::size_t i = 0; i < n; ++i) x2[i] = i % 2 ? -0.0 : 0.0;
    CgWorkspace ws;
    ws.resize(n);
    ws.b = pack(b1, std::vector<double>(n, 0.0));
    ws.x = pack(std::vector<double>(n, 0.0), x2);
    const auto [r1, r2] = conjugate_gradient_pair(a, ws, 1e-12, 5000);
    EXPECT_GT(r1.iterations, 200u);
    EXPECT_EQ(r2.iterations, 0u);
    EXPECT_TRUE(r2.converged);
    EXPECT_TRUE(same_bits(lane(ws.x, 1, n), x2));
    for (const std::vector<double>* v : {&ws.r, &ws.z, &ws.p, &ws.ap}) {
        for (std::size_t i = 0; i < n; ++i) {
            ASSERT_EQ(std::bit_cast<std::uint64_t>((*v)[2 * i + 1]), 0u) << "row " << i;
        }
    }
    // Lane 0 matches the reference's scalar solve of the same system.
    const OracleMatrix o = spec.build<OracleMatrix, OracleMatrix::Builder>();
    std::vector<double> xo(n, 0.0);
    OracleCgWorkspace ows;
    const CgResult ro = oracle::oracle_conjugate_gradient(o, b1, xo, ows, 1e-12, 5000);
    expect_same(r1, ro, "lane 0");
    EXPECT_TRUE(same_bits(lane(ws.x, 0, n), xo));

    // A lane that freezes mid-solve (a tiny right-hand side converges in a
    // few iterations) matches the reference bit for bit and also stays at
    // +0.0 for the rest of the run.
    Case c;
    c.spec = spec;
    c.b1 = b1;
    c.b2 = b1;
    for (double& v : c.b2) v *= 3e-14;
    c.x1.assign(n, 0.0);
    c.x2.assign(n, 0.0);
    c.tol = 1e-12;
    const PairRun p = c.check();
    EXPECT_GT(p.r2.iterations, 0u);
    EXPECT_LT(p.r2.iterations + 100, p.r1.iterations);
    ws.b = pack(c.b1, c.b2);
    ws.x = pack(c.x1, c.x2);
    conjugate_gradient_pair(a, ws, c.tol, c.max_iters);
    for (const std::vector<double>* v : {&ws.r, &ws.z, &ws.p, &ws.ap}) {
        for (std::size_t i = 0; i < n; ++i) {
            ASSERT_EQ(std::bit_cast<std::uint64_t>((*v)[2 * i + 1]), 0u) << "row " << i;
        }
    }
}
