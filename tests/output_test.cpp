#include <gtest/gtest.h>

#include "circuits/benchmarks.hpp"
#include "netlist/simulate.hpp"
#include "place/netlist_adapters.hpp"
#include "subject/decompose.hpp"

namespace lily {
namespace {

// ------------------------------------------------------------ improve_rows

TEST(ImproveRows, NeverIncreasesHpwl) {
    const Network net = make_control_logic(12, 8, 150, 0xAB, "ir");
    const DecomposeResult sub = decompose(net);
    SubjectPlacementView view = make_placement_view(sub.graph);
    const Rect region = make_region(view.netlist.total_cell_area());
    view.netlist.pad_positions = uniform_pad_ring(view.netlist.pad_positions.size(), region);
    const GlobalPlacement gp = place_global(view.netlist, region);
    DetailedPlacement dp = legalize_rows(view.netlist, gp);
    const double before = total_hpwl(view.netlist, dp.positions);
    const std::size_t swaps = improve_rows(view.netlist, dp);
    const double after = total_hpwl(view.netlist, dp.positions);
    EXPECT_LE(after, before + 1e-9);
    if (swaps > 0) {
        EXPECT_LT(after, before);
    }
    // Rows still non-overlapping.
    for (std::size_t i = 0; i < dp.positions.size(); ++i) {
        for (std::size_t j = i + 1; j < dp.positions.size(); ++j) {
            if (dp.row_of[i] != dp.row_of[j]) continue;
            const double wi = view.netlist.cell_area[i] / dp.row_height;
            const double wj = view.netlist.cell_area[j] / dp.row_height;
            EXPECT_GE(std::abs(dp.positions[i].x - dp.positions[j].x) + 1e-9, (wi + wj) / 2.0);
        }
    }
}

TEST(ImproveRows, IdempotentAtFixpoint) {
    const Network net = make_control_logic(10, 6, 80, 0xCD, "ir2");
    const DecomposeResult sub = decompose(net);
    SubjectPlacementView view = make_placement_view(sub.graph);
    const Rect region = make_region(view.netlist.total_cell_area());
    view.netlist.pad_positions = uniform_pad_ring(view.netlist.pad_positions.size(), region);
    const GlobalPlacement gp = place_global(view.netlist, region);
    DetailedPlacement dp = legalize_rows(view.netlist, gp);
    improve_rows(view.netlist, dp, 16);
    EXPECT_EQ(improve_rows(view.netlist, dp, 16), 0u);
}

// ---------------------------------------------------------------- flat PLA

TEST(FlatPla, MatchesTreePlaFunction) {
    // Same seed/parameters: the flat and tree-shaped PLAs compute the same
    // functions (same RNG draw schedule by construction).
    const Network tree = make_pla(12, 8, 30, 0x99, "p");
    const Network flat = make_pla_flat(12, 8, 30, 0x99, "p");
    EXPECT_TRUE(equivalent_random(tree, flat, 16, 21));
    // Flat: one logic node per output.
    EXPECT_EQ(flat.logic_node_count(), flat.outputs().size());
    EXPECT_THROW(make_pla_flat(65, 4, 10, 1, "x"), std::invalid_argument);
}

}  // namespace
}  // namespace lily
