// Exhaustive correctness sweep: every Boolean function of 3 variables is
// built as a network, decomposed, mapped by both mappers, and checked
// bit-exactly against its truth table. This covers every NPN class the
// matcher and the decomposition can encounter at this arity.
#include <gtest/gtest.h>

#include "library/standard_cells.hpp"
#include "lily/lily_mapper.hpp"
#include "map/base_mapper.hpp"
#include "netlist/simulate.hpp"
#include "subject/decompose.hpp"

namespace lily {
namespace {

/// Network computing the 3-input function with the given truth table.
Network function_network(unsigned tt) {
    Network net("f" + std::to_string(tt));
    std::vector<NodeId> ins;
    for (unsigned i = 0; i < 3; ++i) ins.push_back(net.add_input("x" + std::to_string(i)));
    Sop sop;
    for (unsigned m = 0; m < 8; ++m) {
        if ((tt >> m) & 1) sop.cubes.push_back({0b111, m});
    }
    net.add_output("f", net.add_node("f", ins, std::move(sop)));
    return net;
}

/// Truth table of the mapped network's single output, by exhaustive
/// simulation.
unsigned simulate_tt(const Network& net) {
    std::array<std::uint64_t, 3> ins{};
    for (unsigned m = 0; m < 8; ++m) {
        for (unsigned i = 0; i < 3; ++i) {
            if ((m >> i) & 1) ins[i] |= std::uint64_t{1} << m;
        }
    }
    const auto v = simulate_block(net, ins);
    return static_cast<unsigned>(v[net.outputs()[0].driver] & 0xFF);
}

class AllFunctions : public ::testing::TestWithParam<int> {};

TEST_P(AllFunctions, MapBitExact) {
    // Each shard covers 32 functions; constants are skipped (the mapper's
    // scope excludes them, as does the paper's).
    const Library big = load_msu_big();
    const Library tiny = load_msu_tiny();
    const unsigned lo = static_cast<unsigned>(GetParam()) * 32;
    for (unsigned tt = lo; tt < lo + 32; ++tt) {
        if (tt == 0x00 || tt == 0xFF) continue;
        const Network net = function_network(tt);
        ASSERT_EQ(simulate_tt(net), tt);
        const DecomposeResult sub = decompose(net);
        ASSERT_EQ(simulate_tt(sub.graph.to_network()), tt) << "decompose " << tt;

        const MapResult base = BaseMapper(tiny).map(sub.graph);
        EXPECT_EQ(simulate_tt(base.netlist.to_network(tiny)), tt) << "base/tiny " << tt;

        const LilyResult lily = LilyMapper(big).map_checked(sub.graph).take_or_raise();
        EXPECT_EQ(simulate_tt(lily.netlist.to_network(big)), tt) << "lily/big " << tt;
    }
}

INSTANTIATE_TEST_SUITE_P(Shards, AllFunctions, ::testing::Range(0, 8));

}  // namespace
}  // namespace lily
