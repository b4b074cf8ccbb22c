// The quadratic placer and pad placement against their reference copy
// (place_oracle.*): pads and cell positions must match bit for bit on every
// Table 1 circuit's three placed netlists — the subject view the Lily
// mapper places, the baseline mapped view and the Lily seed-anchored view
// the back ends place — and on hand-built edge cases. The netlists are
// built exactly as the flows build them, and each is placed the way the
// flows place it: one QuadraticPlacer serving the pad placement and the
// global placement.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "circuits/benchmarks.hpp"
#include "flow/stage.hpp"
#include "library/standard_cells.hpp"
#include "lily/lily_mapper.hpp"
#include "map/base_mapper.hpp"
#include "place/netlist_adapters.hpp"
#include "place/placement.hpp"
#include "place_oracle.hpp"
#include "subject/decompose.hpp"

using namespace lily;

namespace {

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

void expect_same_points(const std::vector<Point>& got, const std::vector<Point>& want,
                        const std::string& what) {
    ASSERT_EQ(got.size(), want.size()) << what;
    for (std::size_t i = 0; i < got.size(); ++i) {
        ASSERT_EQ(bits(got[i].x), bits(want[i].x)) << what << " [" << i << "].x";
        ASSERT_EQ(bits(got[i].y), bits(want[i].y)) << what << " [" << i << "].y";
    }
}

void expect_same_placement(const GlobalPlacement& got, const GlobalPlacement& want,
                           const std::string& what) {
    expect_same_points(got.positions, want.positions, what + " positions");
    EXPECT_EQ(got.partition_levels, want.partition_levels) << what;
    EXPECT_EQ(got.budget_exhausted, want.budget_exhausted) << what;
}

/// Pads then cells through one placer, against the reference's two calls;
/// also the free functions, which build a placer each.
void check_pads_and_global(PlacementNetlist nl, const Rect& region, const std::string& what) {
    const std::vector<Point> want_pads = oracle::oracle_place_pads(nl, region);
    expect_same_points(place_pads(nl, region), want_pads, what + " place_pads");
    QuadraticPlacer placer(nl);
    const std::vector<Point> pads = placer.place_pads(region);
    expect_same_points(pads, want_pads, what + " placer pads");

    nl.pad_positions = want_pads;
    const GlobalPlacement want = oracle::oracle_place_global(nl, region);
    expect_same_placement(placer.place_global(pads, region), want, what + " placer global");
    expect_same_placement(place_global(nl, region), want, what + " place_global");
    expect_same_placement(place_quadratic(nl, region), oracle::oracle_place_quadratic(nl, region),
                          what + " place_quadratic");
}

/// run_backend_stages' seed-anchored netlist: the mapped view with the
/// pads rescaled from the mapper's region and two 2-pin nets per cell to a
/// virtual pad at its seed position.
PlacementNetlist seed_anchored(PlacementNetlist nl, const LilyResult& res, const Rect& region) {
    const Rect& from = res.inchoate_placement.region;
    for (std::size_t i = 0; i < res.pad_positions.size(); ++i) {
        nl.pad_positions[i] = rescale_point(res.pad_positions[i], from, region);
    }
    for (std::size_t c = 0; c < nl.n_cells; ++c) {
        const std::size_t pad = nl.pad_positions.size();
        nl.pad_positions.push_back(rescale_point(res.instance_positions[c], from, region));
        for (int dup = 0; dup < 2; ++dup) {
            PlacementNetlist::Net net;
            net.cells = {c};
            net.pads = {pad};
            nl.nets.push_back(net);
        }
    }
    return nl;
}

}  // namespace

TEST(PlaceOracle, TableOneViewsMatch) {
    const Library lib = load_msu_big();
    const FlowOptions flow;
    for (const Benchmark& b : paper_suite()) {
        SCOPED_TRACE(b.name);
        const DecomposeResult dec = decompose(b.network);

        // The subject view the Lily mapper places before mapping.
        const SubjectPlacementView subject = make_placement_view(dec.graph);
        check_pads_and_global(subject.netlist, make_region(subject.netlist.total_cell_area()),
                              b.name + " subject");

        // The baseline back end's mapped view.
        const MapResult base = BaseMapper(lib).map(dec.graph);
        const MappedPlacementView base_view = make_placement_view(base.netlist, lib);
        check_pads_and_global(base_view.netlist,
                              make_region(base_view.netlist.total_cell_area(),
                                          flow.placement_utilization),
                              b.name + " baseline");

        // The Lily back end's seed-anchored view: pads given, cells placed.
        const LilyResult lily =
            LilyMapper(lib).map_checked(dec.graph, LilyOptions{}).take_or_raise();
        const MappedPlacementView lily_view = make_placement_view(lily.netlist, lib);
        const Rect region =
            make_region(lily_view.netlist.total_cell_area(), flow.placement_utilization);
        const PlacementNetlist anchored = seed_anchored(lily_view.netlist, lily, region);
        QuadraticPlacer placer(anchored);
        expect_same_placement(placer.place_global(anchored.pad_positions, region),
                              oracle::oracle_place_global(anchored, region),
                              b.name + " seed-anchored");
    }
}

TEST(PlaceOracle, PadEdgeCasesMatch) {
    // Pad 0 sits twice on one net (that net counts once toward its center
    // of mass), pad 1 is on no net, pads 2 and 3 share a pads-only net,
    // and pad 4 shares nets with cells.
    PlacementNetlist nl;
    nl.n_cells = 5;
    nl.cell_area = {1.0, 2.0, 1.0, 0.5, 1.5};
    nl.pad_positions.assign(5, Point{});
    const auto net = [&](std::vector<std::size_t> cells, std::vector<std::size_t> pads) {
        PlacementNetlist::Net n;
        n.cells = std::move(cells);
        n.pads = std::move(pads);
        nl.nets.push_back(n);
    };
    net({0, 1}, {0, 0});
    net({1, 2, 3}, {});
    net({}, {2, 3});
    net({3, 4}, {4});
    net({4}, {4, 0});
    net({2}, {});
    const Rect region({0, 0}, {10, 6});
    check_pads_and_global(nl, region, "edge cases");

    // Zero cells: pads are placed, and the cell placement is empty.
    PlacementNetlist empty;
    empty.pad_positions.assign(3, Point{});
    PlacementNetlist::Net pads_only;
    pads_only.pads = {0, 2};
    empty.nets.push_back(pads_only);
    check_pads_and_global(empty, region, "zero cells");

    // No pads at all.
    PlacementNetlist padless;
    padless.n_cells = 2;
    padless.cell_area = {1.0, 1.0};
    PlacementNetlist::Net link;
    link.cells = {0, 1};
    padless.nets.push_back(link);
    check_pads_and_global(padless, region, "no pads");
}

TEST(PlaceOracle, OnePlacerPerNetlist) {
    const Benchmark b = paper_suite(0.25).front();
    const DecomposeResult dec = decompose(b.network);
    const SubjectPlacementView view = make_placement_view(dec.graph);
    const Rect region = make_region(view.netlist.total_cell_area());
    const QpCounters before = qp_counters();
    QuadraticPlacer placer(view.netlist);
    const std::vector<Point> pads = placer.place_pads(region);
    const GlobalPlacement gp = placer.place_global(pads, region);
    const QpCounters after = qp_counters();
    EXPECT_EQ(after.assemblies - before.assemblies, 1u);
    EXPECT_GT(after.cg_iterations, before.cg_iterations);
    EXPECT_GT(gp.partition_levels, 0u);
}
