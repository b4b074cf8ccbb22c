#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>

#include "library/standard_cells.hpp"
#include "map/base_mapper.hpp"
#include "place/netlist_adapters.hpp"
#include "place/placement.hpp"
#include "subject/decompose.hpp"
#include "util/rng.hpp"

namespace lily {
namespace {

/// Chain of cells between two pads at the left/right region edges.
PlacementNetlist chain_netlist(std::size_t n) {
    PlacementNetlist nl;
    nl.n_cells = n;
    nl.cell_area.assign(n, 1.0);
    nl.pad_positions = {{-10.0, 0.0}, {10.0, 0.0}};
    {
        PlacementNetlist::Net first;
        first.pads = {0};
        first.cells = {0};
        nl.nets.push_back(first);
    }
    for (std::size_t i = 0; i + 1 < n; ++i) {
        PlacementNetlist::Net net;
        net.cells = {i, i + 1};
        nl.nets.push_back(net);
    }
    {
        PlacementNetlist::Net last;
        last.pads = {1};
        last.cells = {n - 1};
        nl.nets.push_back(last);
    }
    return nl;
}

Network random_network(std::uint64_t seed, unsigned n_pi = 10, unsigned n_gates = 120) {
    Rng rng(seed);
    Network net("rand" + std::to_string(seed));
    std::vector<NodeId> pool;
    for (unsigned i = 0; i < n_pi; ++i) pool.push_back(net.add_input("pi" + std::to_string(i)));
    for (unsigned i = 0; i < n_gates; ++i) {
        std::vector<NodeId> ins;
        for (unsigned j = 0; j < 2 + rng.next_below(3); ++j) {
            ins.push_back(pool[rng.next_below(pool.size())]);
        }
        std::sort(ins.begin(), ins.end());
        ins.erase(std::unique(ins.begin(), ins.end()), ins.end());
        pool.push_back(rng.next_bool() ? net.make_and(ins) : net.make_xor(ins));
    }
    for (unsigned i = 0; i < 6; ++i) net.add_output("po" + std::to_string(i),
                                                    pool[pool.size() - 1 - i]);
    net.sweep();
    return net;
}

// ------------------------------------------------------------ quadratic QP

TEST(Quadratic, ChainInterpolatesBetweenPads) {
    const PlacementNetlist nl = chain_netlist(3);
    const Rect region({-10, -10}, {10, 10});
    const GlobalPlacement gp = place_quadratic(nl, region);
    // Analytic solution of the 3-cell chain between pads at x = -10, 10:
    // equally spaced interior points -10 + 20*k/4, k = 1..3.
    EXPECT_NEAR(gp.positions[0].x, -5.0, 0.05);
    EXPECT_NEAR(gp.positions[1].x, 0.0, 0.05);
    EXPECT_NEAR(gp.positions[2].x, 5.0, 0.05);
    for (const Point& p : gp.positions) EXPECT_NEAR(p.y, 0.0, 0.05);
}

TEST(Quadratic, DisconnectedCellFallsToRegionCenter) {
    PlacementNetlist nl = chain_netlist(2);
    nl.n_cells = 3;  // cell 2 has no nets
    nl.cell_area.push_back(1.0);
    const Rect region({-10, -10}, {10, 10});
    const GlobalPlacement gp = place_quadratic(nl, region);
    EXPECT_NEAR(gp.positions[2].x, region.center().x, 1e-6);
    EXPECT_NEAR(gp.positions[2].y, region.center().y, 1e-6);
}

TEST(Quadratic, SolutionIsQuadraticMinimum) {
    // Perturbing any cell of the solved placement must not lower the
    // quadratic objective (first-order optimality, up to anchor epsilon).
    const Network net = random_network(7, 8, 60);
    const DecomposeResult r = decompose(net);
    SubjectPlacementView view = make_placement_view(r.graph);
    const Rect region = make_region(view.netlist.total_cell_area());
    view.netlist.pad_positions = uniform_pad_ring(view.netlist.pad_positions.size(), region);
    const GlobalPlacement gp = place_quadratic(view.netlist, region);
    const double base = quadratic_objective(view.netlist, gp.positions);
    Rng rng(3);
    for (int trial = 0; trial < 50; ++trial) {
        auto perturbed = gp.positions;
        const std::size_t c = rng.next_below(perturbed.size());
        perturbed[c].x += rng.next_double(-1.0, 1.0);
        perturbed[c].y += rng.next_double(-1.0, 1.0);
        EXPECT_GE(quadratic_objective(view.netlist, perturbed) + 1e-6, base);
    }
}

// -------------------------------------------------------- global placement

TEST(GlobalPlace, AllCellsInsideRegion) {
    const Network net = random_network(11);
    const DecomposeResult r = decompose(net);
    SubjectPlacementView view = make_placement_view(r.graph);
    const Rect region = make_region(view.netlist.total_cell_area());
    view.netlist.pad_positions = uniform_pad_ring(view.netlist.pad_positions.size(), region);
    const GlobalPlacement gp = place_global(view.netlist, region);
    for (const Point& p : gp.positions) EXPECT_TRUE(region.contains(p));
    EXPECT_GT(gp.partition_levels, 0u);
}

TEST(GlobalPlace, BalancedAcrossQuadrants) {
    // The paper requires a *balanced* global placement: no grossly over- or
    // under-subscribed subregions (Section 3.1).
    const Network net = random_network(12, 12, 200);
    const DecomposeResult r = decompose(net);
    SubjectPlacementView view = make_placement_view(r.graph);
    const Rect region = make_region(view.netlist.total_cell_area());
    view.netlist.pad_positions = uniform_pad_ring(view.netlist.pad_positions.size(), region);
    const GlobalPlacement gp = place_global(view.netlist, region);

    const Point c = region.center();
    double quad_area[4] = {0, 0, 0, 0};
    for (std::size_t i = 0; i < gp.positions.size(); ++i) {
        const int q = (gp.positions[i].x >= c.x ? 1 : 0) + (gp.positions[i].y >= c.y ? 2 : 0);
        quad_area[q] += view.netlist.cell_area[i];
    }
    const double total = view.netlist.total_cell_area();
    for (const double qa : quad_area) {
        EXPECT_GT(qa, total * 0.10);  // nothing starved
        EXPECT_LT(qa, total * 0.45);  // nothing hoarding
    }
}

TEST(GlobalPlace, SpreadsBeyondQuadraticClump) {
    const Network net = random_network(13, 10, 150);
    const DecomposeResult r = decompose(net);
    SubjectPlacementView view = make_placement_view(r.graph);
    const Rect region = make_region(view.netlist.total_cell_area());
    view.netlist.pad_positions = uniform_pad_ring(view.netlist.pad_positions.size(), region);
    const GlobalPlacement qp = place_quadratic(view.netlist, region);
    const GlobalPlacement gp = place_global(view.netlist, region);
    // Partitioned placement occupies a larger bounding box than the pure
    // quadratic solution (which famously clumps toward the center).
    const Rect bb_qp = bounding_box(qp.positions);
    const Rect bb_gp = bounding_box(gp.positions);
    EXPECT_GT(bb_gp.area(), bb_qp.area() * 0.9);
    EXPECT_GT(bb_gp.area(), region.area() * 0.3);
}

TEST(GlobalPlace, DeterministicAcrossRuns) {
    const Network net = random_network(14);
    const DecomposeResult r = decompose(net);
    SubjectPlacementView view = make_placement_view(r.graph);
    const Rect region = make_region(view.netlist.total_cell_area());
    view.netlist.pad_positions = uniform_pad_ring(view.netlist.pad_positions.size(), region);
    const GlobalPlacement a = place_global(view.netlist, region);
    const GlobalPlacement b = place_global(view.netlist, region);
    ASSERT_EQ(a.positions.size(), b.positions.size());
    for (std::size_t i = 0; i < a.positions.size(); ++i) {
        EXPECT_DOUBLE_EQ(a.positions[i].x, b.positions[i].x);
        EXPECT_DOUBLE_EQ(a.positions[i].y, b.positions[i].y);
    }
}

// -------------------------------------------------------------------- pads

TEST(Pads, UniformRingOnBoundary) {
    const Rect region({0, 0}, {10, 6});
    const auto ring = uniform_pad_ring(8, region);
    ASSERT_EQ(ring.size(), 8u);
    for (const Point& p : ring) {
        const bool on_x_edge = std::abs(p.x - 0.0) < 1e-9 || std::abs(p.x - 10.0) < 1e-9;
        const bool on_y_edge = std::abs(p.y - 0.0) < 1e-9 || std::abs(p.y - 6.0) < 1e-9;
        EXPECT_TRUE(on_x_edge || on_y_edge) << p.x << "," << p.y;
    }
    // Distinct slots.
    for (std::size_t i = 0; i < ring.size(); ++i) {
        for (std::size_t j = i + 1; j < ring.size(); ++j) {
            EXPECT_GT(manhattan(ring[i], ring[j]), 1e-9);
        }
    }
}

TEST(Pads, ConnectivityDrivenBeatsArbitraryOrder) {
    // Two separate chains: pads of the same chain should end up near each
    // other, giving lower HPWL than the index-order ring.
    const Network net = random_network(15, 12, 150);
    const DecomposeResult r = decompose(net);
    SubjectPlacementView view = make_placement_view(r.graph);
    const Rect region = make_region(view.netlist.total_cell_area());
    const auto smart = place_pads(view.netlist, region);

    PlacementNetlist with_smart = view.netlist;
    with_smart.pad_positions = smart;
    PlacementNetlist with_ring = view.netlist;
    with_ring.pad_positions = uniform_pad_ring(smart.size(), region);

    const GlobalPlacement gp_smart = place_global(with_smart, region);
    const GlobalPlacement gp_ring = place_global(with_ring, region);
    EXPECT_LE(total_hpwl(with_smart, gp_smart.positions),
              total_hpwl(with_ring, gp_ring.positions) * 1.10);
}

TEST(Pads, AllOnBoundaryAndDistinct) {
    const Network net = random_network(16);
    const DecomposeResult r = decompose(net);
    const SubjectPlacementView view = make_placement_view(r.graph);
    const Rect region = make_region(view.netlist.total_cell_area());
    const auto pads = place_pads(view.netlist, region);
    ASSERT_EQ(pads.size(), view.netlist.pad_positions.size());
    for (std::size_t i = 0; i < pads.size(); ++i) {
        const Point& p = pads[i];
        const bool on_edge = std::abs(p.x - region.ll.x) < 1e-9 ||
                             std::abs(p.x - region.ur.x) < 1e-9 ||
                             std::abs(p.y - region.ll.y) < 1e-9 ||
                             std::abs(p.y - region.ur.y) < 1e-9;
        EXPECT_TRUE(on_edge);
        for (std::size_t j = i + 1; j < pads.size(); ++j) {
            EXPECT_GT(manhattan(pads[i], pads[j]), 1e-9);
        }
    }
}

// -------------------------------------------------------------------- rows

TEST(Rows, LegalizationAssignsRowsWithoutOverlap) {
    const Network net = random_network(17, 10, 150);
    const DecomposeResult r = decompose(net);
    SubjectPlacementView view = make_placement_view(r.graph);
    const Rect region = make_region(view.netlist.total_cell_area());
    view.netlist.pad_positions = uniform_pad_ring(view.netlist.pad_positions.size(), region);
    const GlobalPlacement gp = place_global(view.netlist, region);
    const DetailedPlacement dp = legalize_rows(view.netlist, gp);

    ASSERT_EQ(dp.positions.size(), view.netlist.n_cells);
    EXPECT_GT(dp.n_rows, 1u);
    // Same-row cells must not overlap horizontally.
    for (std::size_t i = 0; i < dp.positions.size(); ++i) {
        for (std::size_t j = i + 1; j < dp.positions.size(); ++j) {
            if (dp.row_of[i] != dp.row_of[j]) continue;
            const double wi = view.netlist.cell_area[i] / dp.row_height;
            const double wj = view.netlist.cell_area[j] / dp.row_height;
            EXPECT_GE(std::abs(dp.positions[i].x - dp.positions[j].x) + 1e-9,
                      (wi + wj) / 2.0);
        }
    }
    // Rows are distinct y coordinates.
    for (std::size_t i = 0; i < dp.positions.size(); ++i) {
        EXPECT_TRUE(region.contains(dp.positions[i]));
    }
}

TEST(Rows, LegalizationPreservesNeighborhoods) {
    // Detailed placement should not blow up wirelength versus the global
    // placement (factor bounded; it usually shrinks x-spread only mildly).
    const Network net = random_network(18, 10, 120);
    const DecomposeResult r = decompose(net);
    SubjectPlacementView view = make_placement_view(r.graph);
    const Rect region = make_region(view.netlist.total_cell_area());
    view.netlist.pad_positions = uniform_pad_ring(view.netlist.pad_positions.size(), region);
    const GlobalPlacement gp = place_global(view.netlist, region);
    const DetailedPlacement dp = legalize_rows(view.netlist, gp);
    const double hp_global = total_hpwl(view.netlist, gp.positions);
    const double hp_detail = total_hpwl(view.netlist, dp.positions);
    EXPECT_LT(hp_detail, hp_global * 2.0);
}

TEST(Rows, BadUtilizationRejected) {
    const PlacementNetlist nl = chain_netlist(2);
    GlobalPlacement gp;
    gp.region = Rect({-10, -10}, {10, 10});
    gp.positions = {{0, 0}, {1, 1}};
    EXPECT_THROW(legalize_rows(nl, gp, 1.0, 0.0), std::invalid_argument);
    EXPECT_THROW(legalize_rows(nl, gp, 1.0, 1.5), std::invalid_argument);
}

// ---------------------------------------------------------------- adapters

TEST(Place, InvalidOptionsRejectedBeforeSolving) {
    // max_cells_per_region == 0 once split a one-cell region forever; every
    // placer entry point now rejects it, and the other degenerate knobs,
    // up front.
    const PlacementNetlist nl = chain_netlist(3);
    const Rect region({-10, -5}, {10, 5});
    const auto rejects = [&](GlobalPlacementOptions o) {
        EXPECT_THROW(place_global(nl, region, o), std::invalid_argument);
        EXPECT_THROW(place_quadratic(nl, region, o), std::invalid_argument);
        QuadraticPlacer placer(nl);
        EXPECT_THROW(placer.place_global(nl.pad_positions, region, o), std::invalid_argument);
    };
    GlobalPlacementOptions o;
    o.max_cells_per_region = 0;
    rejects(o);
    for (const double bad : {0.0, -1.0, std::nan(""), std::numeric_limits<double>::infinity()}) {
        o = {};
        o.anchor_weight = bad;
        rejects(o);
        o = {};
        o.cg_tolerance = bad;
        rejects(o);
    }
    o = {};
    o.cg_max_iters = 0;
    rejects(o);
    // The smallest legal region size still terminates.
    o = {};
    o.max_cells_per_region = 1;
    EXPECT_EQ(place_global(nl, region, o).positions.size(), 3u);
}

TEST(Place, PlacerRejectsWrongPadCount) {
    const PlacementNetlist nl = chain_netlist(3);
    QuadraticPlacer placer(nl);
    const std::vector<Point> one_pad(1);
    EXPECT_THROW(placer.place_global(one_pad, Rect({-10, -5}, {10, 5})), std::invalid_argument);
}

TEST(Adapters, SubjectViewShapesMatch) {
    const Network net = random_network(19);
    const DecomposeResult r = decompose(net);
    const SubjectPlacementView view = make_placement_view(r.graph);
    EXPECT_EQ(view.netlist.n_cells, r.graph.gate_count());
    EXPECT_EQ(view.netlist.pad_positions.size(),
              r.graph.inputs().size() + r.graph.outputs().size());
    // cell_of / subject_of are inverse maps.
    for (std::size_t c = 0; c < view.subject_of.size(); ++c) {
        EXPECT_EQ(view.cell_of[view.subject_of[c]], c);
    }
}

TEST(Adapters, MappedViewUsesGateAreas) {
    const Network net = random_network(20);
    const DecomposeResult r = decompose(net);
    const Library lib = load_msu_big();
    const MapResult res = BaseMapper(lib).map(r.graph);
    const MappedPlacementView view = make_placement_view(res.netlist, lib);
    EXPECT_EQ(view.netlist.n_cells, res.netlist.gate_count());
    double area = 0.0;
    for (const double a : view.netlist.cell_area) area += a;
    EXPECT_NEAR(area, res.total_area, 1e-9);
    view.netlist.check();
}

TEST(Adapters, NetCountsReasonable) {
    const Network net = random_network(22);
    const DecomposeResult r = decompose(net);
    const SubjectPlacementView view = make_placement_view(r.graph);
    // Every multi-fanout or PO-driving signal yields one net.
    EXPECT_GT(view.netlist.nets.size(), 0u);
    for (const auto& n : view.netlist.nets) EXPECT_GE(n.pin_count(), 2u);
}

TEST(Adapters, RegionScalesWithArea) {
    const Rect small = make_region(100.0);
    const Rect large = make_region(400.0);
    EXPECT_NEAR(large.width() / small.width(), 2.0, 1e-9);
    EXPECT_NEAR(small.center().x, 0.0, 1e-12);
}

}  // namespace
}  // namespace lily
