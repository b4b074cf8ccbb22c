#include <gtest/gtest.h>

#include <array>
#include <cmath>

#include "util/geometry.hpp"
#include "util/rng.hpp"
#include "util/sparse.hpp"
#include "util/text.hpp"

namespace lily {
namespace {

// ---------------------------------------------------------------- geometry

TEST(Geometry, ManhattanAndEuclidean) {
    const Point a{0, 0};
    const Point b{3, 4};
    EXPECT_DOUBLE_EQ(manhattan(a, b), 7.0);
    EXPECT_DOUBLE_EQ(euclidean(a, b), 5.0);
    EXPECT_DOUBLE_EQ(euclidean_sq(a, b), 25.0);
}

TEST(Geometry, EmptyRectIsEmpty) {
    const Rect r;
    EXPECT_TRUE(r.empty());
    EXPECT_DOUBLE_EQ(r.half_perimeter(), 0.0);
    EXPECT_DOUBLE_EQ(r.area(), 0.0);
    EXPECT_FALSE(r.contains({0, 0}));
}

TEST(Geometry, ExpandBuildsBoundingBox) {
    Rect r;
    r.expand({1, 5});
    EXPECT_FALSE(r.empty());
    EXPECT_DOUBLE_EQ(r.half_perimeter(), 0.0);
    r.expand({4, 1});
    EXPECT_DOUBLE_EQ(r.width(), 3.0);
    EXPECT_DOUBLE_EQ(r.height(), 4.0);
    EXPECT_EQ(r.center(), (Point{2.5, 3.0}));
    EXPECT_TRUE(r.contains({2, 2}));
    EXPECT_FALSE(r.contains({0, 2}));
}

TEST(Geometry, ExpandRectMergesBoxes) {
    Rect a({0, 0}, {1, 1});
    const Rect b({5, 5}, {6, 7});
    a.expand(b);
    EXPECT_DOUBLE_EQ(a.width(), 6.0);
    EXPECT_DOUBLE_EQ(a.height(), 7.0);
    Rect empty;
    a.expand(empty);  // no-op
    EXPECT_DOUBLE_EQ(a.width(), 6.0);
}

TEST(Geometry, BoundingBoxAndHpwl) {
    const std::array<Point, 3> pts{Point{0, 0}, Point{2, 5}, Point{1, 1}};
    const Rect bb = bounding_box(pts);
    EXPECT_DOUBLE_EQ(bb.width(), 2.0);
    EXPECT_DOUBLE_EQ(bb.height(), 5.0);
    EXPECT_DOUBLE_EQ(half_perimeter_wirelength(pts), 7.0);
}

TEST(Geometry, ManhattanToRect) {
    const Rect r({1, 1}, {3, 2});
    EXPECT_DOUBLE_EQ(manhattan_to_rect({2, 1.5}, r), 0.0);  // inside
    EXPECT_DOUBLE_EQ(manhattan_to_rect({0, 1.5}, r), 1.0);  // left
    EXPECT_DOUBLE_EQ(manhattan_to_rect({4, 3}, r), 2.0);    // corner
    EXPECT_DOUBLE_EQ(manhattan_to_rect({2, 0}, r), 1.0);    // below
}

TEST(Geometry, CenterOfMass) {
    const std::array<Point, 2> pts{Point{0, 0}, Point{2, 4}};
    EXPECT_EQ(center_of_mass(pts), (Point{1, 2}));
    const std::array<double, 2> w{3.0, 1.0};
    EXPECT_EQ(center_of_mass(pts, w), (Point{0.5, 1.0}));
    const std::array<double, 2> zero{0.0, 0.0};
    EXPECT_EQ(center_of_mass(pts, zero), (Point{1, 2}));  // fallback
}

TEST(Geometry, MedianCoordinate) {
    EXPECT_DOUBLE_EQ(median_coordinate({5.0}), 5.0);
    EXPECT_DOUBLE_EQ(median_coordinate({3.0, 1.0, 2.0}), 2.0);
    EXPECT_DOUBLE_EQ(median_coordinate({1.0, 9.0}), 5.0);
    EXPECT_DOUBLE_EQ(median_coordinate({}), 0.0);
}

TEST(Geometry, ManhattanMedianOfRectsMinimizesSum) {
    const std::array<Rect, 3> rects{Rect({0, 0}, {1, 1}), Rect({4, 4}, {5, 5}),
                                    Rect({4, 0}, {5, 1})};
    const Point p = manhattan_median_of_rects(rects);
    const auto cost = [&](const Point& q) {
        double s = 0;
        for (const Rect& r : rects) s += manhattan_to_rect(q, r);
        return s;
    };
    const double at_median = cost(p);
    // Probe a grid; nothing should beat the median.
    for (double x = -1; x <= 6; x += 0.5) {
        for (double y = -1; y <= 6; y += 0.5) {
            EXPECT_GE(cost({x, y}) + 1e-12, at_median);
        }
    }
}

// --------------------------------------------------------------------- rng

TEST(Rng, DeterministicForSeed) {
    Rng a(42), b(42), c(43);
    EXPECT_EQ(a.next_u64(), b.next_u64());
    EXPECT_NE(a.next_u64(), c.next_u64());
}

TEST(Rng, NextBelowInRangeAndCoversValues) {
    Rng rng(7);
    std::array<int, 10> hits{};
    for (int i = 0; i < 1000; ++i) {
        const auto v = rng.next_below(10);
        ASSERT_LT(v, 10u);
        ++hits[v];
    }
    for (int h : hits) EXPECT_GT(h, 0);
}

TEST(Rng, DoublesInUnitInterval) {
    Rng rng(1);
    for (int i = 0; i < 1000; ++i) {
        const double d = rng.next_double();
        EXPECT_GE(d, 0.0);
        EXPECT_LT(d, 1.0);
    }
    for (int i = 0; i < 100; ++i) {
        const double d = rng.next_double(2.0, 3.0);
        EXPECT_GE(d, 2.0);
        EXPECT_LT(d, 3.0);
    }
}

// ------------------------------------------------------------------ sparse

TEST(Sparse, MultiplyMatchesDense) {
    SparseMatrix::Builder b(3);
    b.add(0, 0, 2.0);
    b.add(1, 1, 3.0);
    b.add(2, 2, 4.0);
    b.add(0, 1, -1.0);
    b.add(1, 0, -1.0);
    b.add(0, 0, 1.0);  // duplicate merges
    const SparseMatrix m = std::move(b).build();
    const std::array<double, 3> x{1.0, 2.0, 3.0};
    std::array<double, 3> y{};
    m.multiply(x, y);
    EXPECT_DOUBLE_EQ(y[0], 3.0 * 1 - 1.0 * 2);
    EXPECT_DOUBLE_EQ(y[1], -1.0 * 1 + 3.0 * 2);
    EXPECT_DOUBLE_EQ(y[2], 4.0 * 3);
    EXPECT_DOUBLE_EQ(m.diagonal(0), 3.0);
}

TEST(Sparse, CgSolvesSpdSystem) {
    // Laplacian of a path 0-1-2 with anchors at both ends: strictly SPD.
    SparseMatrix::Builder b(3);
    b.add_spring(0, 1, 1.0);
    b.add_spring(1, 2, 1.0);
    b.add_anchor(0, 1.0);
    b.add_anchor(2, 1.0);
    const SparseMatrix a = std::move(b).build();
    // Right-hand side: anchor 0 at position 0, anchor 2 at position 3.
    std::array<double, 3> rhs{0.0, 0.0, 3.0};
    std::array<double, 3> x{};
    const CgResult r = conjugate_gradient(a, rhs, x);
    EXPECT_TRUE(r.converged);
    EXPECT_LT(r.residual_norm, 1e-8);
    // Solution of the spring chain: x = (0.6, 1.2, 2.1)? Verify via residual
    // instead of hand algebra: A x == rhs.
    std::array<double, 3> ax{};
    a.multiply(x, ax);
    for (int i = 0; i < 3; ++i) EXPECT_NEAR(ax[i], rhs[i], 1e-8);
}

TEST(Sparse, CgLargeChainConverges) {
    constexpr std::size_t n = 500;
    SparseMatrix::Builder b(n);
    for (std::size_t i = 0; i + 1 < n; ++i) b.add_spring(i, i + 1, 1.0);
    b.add_anchor(0, 2.0);
    b.add_anchor(n - 1, 2.0);
    const SparseMatrix a = std::move(b).build();
    std::vector<double> rhs(n, 0.0);
    rhs[n - 1] = 2.0 * 100.0;  // far pad at 100
    std::vector<double> x(n, 0.0);
    const CgResult r = conjugate_gradient(a, rhs, x);
    EXPECT_TRUE(r.converged);
    // Monotone interpolation between the pads.
    for (std::size_t i = 0; i + 1 < n; ++i) EXPECT_LE(x[i], x[i + 1] + 1e-9);
}

// -------------------------------------------------------------------- text

TEST(Text, Trim) {
    EXPECT_EQ(trim("  hi \t\r\n"), "hi");
    EXPECT_EQ(trim(""), "");
    EXPECT_EQ(trim(" \t "), "");
    EXPECT_EQ(trim("x"), "x");
}

TEST(Text, SplitWs) {
    const auto t = split_ws("  a\tbb  c ");
    ASSERT_EQ(t.size(), 3u);
    EXPECT_EQ(t[0], "a");
    EXPECT_EQ(t[1], "bb");
    EXPECT_EQ(t[2], "c");
    EXPECT_TRUE(split_ws("   ").empty());
}

TEST(Text, SplitChar) {
    const auto t = split_char("a,,b", ',');
    ASSERT_EQ(t.size(), 3u);
    EXPECT_EQ(t[0], "a");
    EXPECT_EQ(t[1], "");
    EXPECT_EQ(t[2], "b");
}

TEST(Text, ParseDouble) {
    EXPECT_DOUBLE_EQ(parse_double("2.5", "test"), 2.5);
    EXPECT_DOUBLE_EQ(parse_double("-1e3", "test"), -1000.0);
    EXPECT_THROW(parse_double("abc", "test"), std::invalid_argument);
    EXPECT_THROW(parse_double("1.5x", "test"), std::invalid_argument);
}

TEST(Text, ParseU32IsStrict) {
    std::uint32_t v = 7;
    for (const char* bad : {"", "-1", " 5", "12x", "4294967296", "+5", "5 "}) {
        EXPECT_FALSE(parse_u32(bad, v)) << "'" << bad << "'";
        EXPECT_EQ(v, 7u) << "'" << bad << "' must leave the output untouched";
    }
    ASSERT_TRUE(parse_u32("0", v));
    EXPECT_EQ(v, 0u);
    ASSERT_TRUE(parse_u32("4294967295", v));
    EXPECT_EQ(v, 4294967295u);
}

TEST(Text, FormatFixed) {
    EXPECT_EQ(format_fixed(1.23456, 2), "1.23");
    EXPECT_EQ(format_fixed(2.0, 0), "2");
}

}  // namespace
}  // namespace lily
