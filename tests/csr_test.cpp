// Tests for the flat-adjacency (CSR) machinery and the rewritten CG kernel:
//  * Csr builder unit behaviour;
//  * property tests that the frozen Network/SubjectGraph topology views
//    agree edge-for-edge with the pointer-based adjacency, across random
//    ECO deltas (staleness is the bug class: a view that survives a
//    mutation it should not);
//  * CG solver: Jacobi-preconditioned and (diagonally pre-scaled, i.e.
//    effectively unpreconditioned) solves reach the same fixed point; a
//    warm workspace is allocation-free and bit-identical to a cold one;
//    thread count does not change a single output bit.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "circuits/benchmarks.hpp"
#include "netlist/delta.hpp"
#include "netlist/network.hpp"
#include "subject/decompose.hpp"
#include "subject/subject_graph.hpp"
#include "util/alloc_stats.hpp"
#include "util/csr.hpp"
#include "util/parallel.hpp"
#include "util/sparse.hpp"

namespace lily {
namespace {

// ---- Csr units --------------------------------------------------------

TEST(Csr, CountedBuildPreservesPerSourceOrder) {
    // 0 -> {2, 1}, 1 -> {}, 2 -> {0}
    const std::vector<std::pair<std::size_t, int>> edges = {{0, 2}, {0, 1}, {2, 0}};
    const auto c = Csr<int>::counted(
        3,
        [&](std::size_t i) {
            std::uint32_t d = 0;
            for (const auto& [s, t] : edges) d += (s == i) ? 1 : 0;
            return d;
        },
        [&](auto emit) {
            for (const auto& [s, t] : edges) emit(s, t);
        });
    EXPECT_EQ(c.node_count(), 3u);
    EXPECT_EQ(c.edge_count(), 3u);
    ASSERT_EQ(c.degree(0), 2u);
    EXPECT_EQ(c.neighbors(0)[0], 2);
    EXPECT_EQ(c.neighbors(0)[1], 1);
    EXPECT_TRUE(c.neighbors(1).empty());
    ASSERT_EQ(c.degree(2), 1u);
    EXPECT_EQ(c.neighbors(2)[0], 0);
}

TEST(Csr, EmptyGraph) {
    const auto c = Csr<int>::counted(
        0, [](std::size_t) { return 0u; }, [](auto) {});
    EXPECT_EQ(c.node_count(), 0u);
    EXPECT_EQ(c.edge_count(), 0u);
}

// ---- Topology-view property tests --------------------------------------

std::vector<NodeId> sorted(std::span<const NodeId> s) {
    std::vector<NodeId> v(s.begin(), s.end());
    std::sort(v.begin(), v.end());
    return v;
}

/// The frozen view must agree edge-for-edge with the pointer adjacency.
/// Fanins are order-sensitive (SOP literals index them); fanouts are a set.
void expect_topology_matches(const Network& net) {
    const NetworkTopology& t = net.topology();
    ASSERT_EQ(t.size(), net.node_count());
    for (NodeId v = 0; v < net.node_count(); ++v) {
        const Node& n = net.node(v);
        const std::span<const NodeId> fi = t.fanins_of(v);
        ASSERT_EQ(fi.size(), n.fanins.size()) << "node " << v;
        for (std::size_t i = 0; i < fi.size(); ++i) {
            EXPECT_EQ(fi[i], n.fanins[i]) << "node " << v << " fanin " << i;
        }
        EXPECT_EQ(sorted(t.fanouts_of(v)), sorted(n.fanouts)) << "node " << v;
    }
}

TEST(NetworkTopology, AgreesWithPointerAdjacencyAcrossRandomDeltas) {
    Network net = make_control_logic(24, 12, 150, 0xC5A1, "csr_prop");
    expect_topology_matches(net);
    for (std::uint64_t round = 0; round < 8; ++round) {
        const NetDelta delta = random_delta(net, 5, 0x1000 + round);
        const StatusOr<AppliedDelta> applied = net.apply_delta(delta);
        ASSERT_TRUE(applied.is_ok()) << applied.status().to_string();
        // The delta mutated adjacency; a stale frozen view here is exactly
        // the bug this test exists to catch.
        expect_topology_matches(net);
    }
}

TEST(NetworkTopology, RebuildOnlyWhenStructureChanges) {
    Network net = make_control_logic(8, 4, 40, 0xBEE, "csr_vers");
    const Version v0 = net.struct_version();
    const NetworkTopology* t0 = &net.topology();
    // Repeated reads of an unchanged graph return the same frozen view.
    EXPECT_EQ(t0, &net.topology());
    EXPECT_EQ(net.struct_version(), v0);
    const NetDelta delta = random_delta(net, 2, 99);
    ASSERT_TRUE(net.apply_delta(delta).is_ok());
    EXPECT_NE(net.struct_version(), v0);
    expect_topology_matches(net);
}

TEST(SubjectTopology, AgreesWithPointerAdjacency) {
    const Network net = make_control_logic(24, 12, 200, 0x5AB2, "csr_subj");
    const DecomposeResult dec = decompose(net);
    const SubjectGraph& g = dec.graph;
    const SubjectTopology& t = g.topology();
    ASSERT_EQ(t.size(), g.size());
    for (SubjectId v = 0; v < g.size(); ++v) {
        const SubjectNode& n = g.node(v);
        EXPECT_EQ(t.kind[v], n.kind);
        EXPECT_EQ(t.fanin0[v], n.fanin0);
        EXPECT_EQ(t.fanin1[v], n.fanin1);
        const std::span<const SubjectId> fo = t.fanouts_of(v);
        ASSERT_EQ(fo.size(), n.fanouts.size()) << "node " << v;
        std::vector<SubjectId> a(fo.begin(), fo.end());
        std::vector<SubjectId> b(n.fanouts.begin(), n.fanouts.end());
        std::sort(a.begin(), a.end());
        std::sort(b.begin(), b.end());
        EXPECT_EQ(a, b) << "node " << v;
    }
}

TEST(SubjectTopology, InvalidatedByAppendedNodes) {
    SubjectGraph g("grow");
    const SubjectId a = g.add_input("a", 0);
    const SubjectId b = g.add_input("b", 1);
    const SubjectId n1 = g.add_nand(a, b);
    g.add_output("o", n1);
    const SubjectTopology& t1 = g.topology();
    EXPECT_EQ(t1.size(), 3u);
    EXPECT_EQ(t1.fanouts_of(a).size(), 1u);
    // Appending (the ECO path) must invalidate the frozen view.
    const SubjectId n2 = g.add_nand(n1, a);
    g.add_output("o2", n2);
    const SubjectTopology& t2 = g.topology();
    EXPECT_EQ(t2.size(), 4u);
    EXPECT_EQ(t2.fanouts_of(a).size(), 2u);
    EXPECT_EQ(t2.fanouts_of(n1).size(), 1u);
    EXPECT_EQ(t2.fanouts_of(n1)[0], n2);
}

// ---- CG solver ---------------------------------------------------------

/// Anchored 1-D chain Laplacian with spring weights w[i] between i and i+1
/// and an anchor at both ends: SPD, condition number grows with n.
SparseMatrix make_chain(const std::vector<double>& w) {
    const std::size_t n = w.size() + 1;
    SparseMatrix::Builder b(n);
    for (std::size_t i = 0; i + 1 < n; ++i) b.add_spring(i, i + 1, w[i]);
    b.add_anchor(0, 1.0);
    b.add_anchor(n - 1, 1.0);
    return std::move(b).build();
}

std::vector<double> chain_weights(std::size_t springs) {
    std::vector<double> w(springs);
    for (std::size_t i = 0; i < springs; ++i) {
        // Wildly varying stiffness: the case Jacobi preconditioning exists
        // for.
        w[i] = (i % 3 == 0) ? 100.0 : (i % 3 == 1 ? 1.0 : 0.01);
    }
    return w;
}

TEST(ConjugateGradient, PreconditionedAndPrescaledAgreeOnFixedPoint) {
    // The solver always applies Jacobi preconditioning. Solving the
    // symmetrically pre-scaled system D^-1/2 A D^-1/2 y = D^-1/2 b instead
    // makes that preconditioner the identity — i.e. an unpreconditioned CG
    // on the original problem. Both must converge to the same fixed point
    // x = D^-1/2 y (up to the solve tolerance).
    const std::vector<double> w = chain_weights(63);
    const SparseMatrix a = make_chain(w);
    const std::size_t n = a.size();
    std::vector<double> b(n);
    for (std::size_t i = 0; i < n; ++i) b[i] = std::sin(0.37 * static_cast<double>(i));

    std::vector<double> x(n, 0.0);
    const CgResult direct = conjugate_gradient(a, b, x, 1e-12, 100'000);
    ASSERT_TRUE(direct.converged);

    std::vector<double> dinv_sqrt(n);
    for (std::size_t i = 0; i < n; ++i) dinv_sqrt[i] = 1.0 / std::sqrt(a.diagonal(i));
    SparseMatrix::Builder sb(n);
    for (std::size_t i = 0; i + 1 < n; ++i) {
        const double off = -w[i] * dinv_sqrt[i] * dinv_sqrt[i + 1];
        sb.add(i, i + 1, off);
        sb.add(i + 1, i, off);
    }
    for (std::size_t i = 0; i < n; ++i) sb.add(i, i, 1.0);  // scaled diagonal
    const SparseMatrix a_scaled = std::move(sb).build();
    std::vector<double> b_scaled(n), y(n, 0.0);
    for (std::size_t i = 0; i < n; ++i) b_scaled[i] = b[i] * dinv_sqrt[i];
    const CgResult scaled = conjugate_gradient(a_scaled, b_scaled, y, 1e-12, 100'000);
    ASSERT_TRUE(scaled.converged);

    for (std::size_t i = 0; i < n; ++i) {
        EXPECT_NEAR(x[i], y[i] * dinv_sqrt[i], 1e-7) << "component " << i;
    }
}

TEST(ConjugateGradient, JacobiConvergesNoSlowerOnIllScaledSystem) {
    // On the badly scaled chain, the identity-diagonal (pre-scaled) solve
    // is the unpreconditioned iteration count; the Jacobi solve must not
    // need more iterations than twice that (in practice it needs far
    // fewer — this guards against the preconditioner being dropped).
    const std::vector<double> w = chain_weights(127);
    const SparseMatrix a = make_chain(w);
    const std::size_t n = a.size();
    std::vector<double> b(n, 1.0), x(n, 0.0);
    const CgResult jacobi = conjugate_gradient(a, b, x, 1e-10, 100'000);
    ASSERT_TRUE(jacobi.converged);
    EXPECT_LE(jacobi.iterations, 4 * n);
}

TEST(ConjugateGradient, WarmWorkspaceIsAllocationFreeAndBitIdentical) {
    const std::vector<double> w = chain_weights(255);
    const SparseMatrix a = make_chain(w);
    const std::size_t n = a.size();
    std::vector<double> b(n);
    for (std::size_t i = 0; i < n; ++i) b[i] = std::cos(0.11 * static_cast<double>(i));

    std::vector<double> x_cold(n, 0.0);
    const CgResult cold = conjugate_gradient(a, b, x_cold, 1e-11, 100'000);
    ASSERT_TRUE(cold.converged);

    CgWorkspace ws;
    std::vector<double> x_warmup(n, 0.0);
    conjugate_gradient(a, b, x_warmup, ws, 1e-11, 100'000);
    std::vector<double> x_warm(n, 0.0);
    const AllocStats before = alloc_stats_snapshot();
    const CgResult warm = conjugate_gradient(a, b, x_warm, ws, 1e-11, 100'000);
    const AllocStats after = alloc_stats_snapshot();
    ASSERT_TRUE(warm.converged);
    EXPECT_EQ(after.count, before.count) << "warm CG solve allocated";
    EXPECT_EQ(warm.iterations, cold.iterations);
    for (std::size_t i = 0; i < n; ++i) {
        // Bit identity, not tolerance: workspace reuse must not change the
        // arithmetic.
        EXPECT_EQ(x_cold[i], x_warm[i]) << "component " << i;
    }
}

TEST(ConjugateGradient, ThreadCountDoesNotChangeASingleBit) {
    const std::vector<double> w = chain_weights(511);
    const SparseMatrix a = make_chain(w);
    const std::size_t n = a.size();
    std::vector<double> b(n);
    for (std::size_t i = 0; i < n; ++i) b[i] = std::sin(0.53 * static_cast<double>(i));

    ThreadPool::global().resize(1);
    std::vector<double> x1(n, 0.0);
    const CgResult r1 = conjugate_gradient(a, b, x1, 1e-11, 100'000);
    ThreadPool::global().resize(8);
    std::vector<double> x8(n, 0.0);
    const CgResult r8 = conjugate_gradient(a, b, x8, 1e-11, 100'000);
    ThreadPool::global().resize(1);
    ASSERT_TRUE(r1.converged);
    ASSERT_TRUE(r8.converged);
    EXPECT_EQ(r1.iterations, r8.iterations);
    EXPECT_EQ(r1.residual_norm, r8.residual_norm);
    for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(x1[i], x8[i]) << "component " << i;
    }
}

TEST(ConjugateGradient, LockstepPairMatchesSequentialSolvesBitForBit) {
    // The placer solves x and y against the same Laplacian; the pair solver
    // shares the matrix stream but must reproduce each sequential solve's
    // exact bits — at any thread count, including sides that converge at
    // different iteration counts (the rhs below are unrelated, so they do).
    const std::vector<double> w = chain_weights(511);
    const SparseMatrix a = make_chain(w);
    const std::size_t n = a.size();
    std::vector<double> b1(n), b2(n);
    for (std::size_t i = 0; i < n; ++i) {
        b1[i] = std::sin(0.53 * static_cast<double>(i));
        b2[i] = std::cos(1.7 * static_cast<double>(i)) * 3.0;
    }

    for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
        ThreadPool::global().resize(threads);
        std::vector<double> xs1(n, 0.0), xs2(n, 0.0);
        const CgResult s1 = conjugate_gradient(a, b1, xs1, 1e-11, 100'000);
        const CgResult s2 = conjugate_gradient(a, b2, xs2, 1e-11, 100'000);

        CgWorkspace ws;
        ws.resize(n);
        for (std::size_t i = 0; i < n; ++i) {
            ws.b[2 * i] = b1[i];
            ws.b[2 * i + 1] = b2[i];
        }
        const auto [p1, p2] = conjugate_gradient_pair(a, ws, 1e-11, 100'000);
        std::vector<double> xp1(n), xp2(n);
        for (std::size_t i = 0; i < n; ++i) {
            xp1[i] = ws.x[2 * i];
            xp2[i] = ws.x[2 * i + 1];
        }

        ASSERT_TRUE(p1.converged);
        ASSERT_TRUE(p2.converged);
        EXPECT_EQ(p1.iterations, s1.iterations);
        EXPECT_EQ(p2.iterations, s2.iterations);
        EXPECT_EQ(p1.residual_norm, s1.residual_norm);
        EXPECT_EQ(p2.residual_norm, s2.residual_norm);
        for (std::size_t i = 0; i < n; ++i) {
            EXPECT_EQ(xs1[i], xp1[i]) << "axis 1 component " << i << " threads " << threads;
            EXPECT_EQ(xs2[i], xp2[i]) << "axis 2 component " << i << " threads " << threads;
        }
    }
    ThreadPool::global().resize(1);
}

}  // namespace
}  // namespace lily
