#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "library/standard_cells.hpp"
#include "map/base_mapper.hpp"
#include "netlist/simulate.hpp"
#include "subject/decompose.hpp"
#include "util/rng.hpp"

namespace lily {
namespace {

Network full_adder() {
    Network n("fa");
    const NodeId a = n.add_input("a");
    const NodeId b = n.add_input("b");
    const NodeId cin = n.add_input("cin");
    const NodeId axb = n.make_xor2(a, b);
    const NodeId sum = n.make_xor2(axb, cin);
    const NodeId ab = n.make_and2(a, b);
    const NodeId c_axb = n.make_and2(axb, cin);
    const NodeId cout = n.make_or2(ab, c_axb);
    n.add_output("sum", sum);
    n.add_output("cout", cout);
    return n;
}

Network random_network(std::uint64_t seed, unsigned n_pi = 8, unsigned n_gates = 50) {
    Rng rng(seed);
    Network net("rand" + std::to_string(seed));
    std::vector<NodeId> pool;
    for (unsigned i = 0; i < n_pi; ++i) pool.push_back(net.add_input("pi" + std::to_string(i)));
    for (unsigned i = 0; i < n_gates; ++i) {
        const unsigned k = 2 + static_cast<unsigned>(rng.next_below(3));
        std::vector<NodeId> ins;
        for (unsigned j = 0; j < k; ++j) ins.push_back(pool[rng.next_below(pool.size())]);
        std::sort(ins.begin(), ins.end());
        ins.erase(std::unique(ins.begin(), ins.end()), ins.end());
        NodeId g;
        switch (rng.next_below(5)) {
            case 0: g = net.make_and(ins); break;
            case 1: g = net.make_or(ins); break;
            case 2: g = net.make_nand(ins); break;
            case 3: g = net.make_nor(ins); break;
            default: g = net.make_xor(ins); break;
        }
        pool.push_back(g);
    }
    for (unsigned i = 0; i < 4; ++i) net.add_output("po" + std::to_string(i),
                                                    pool[pool.size() - 1 - i]);
    net.sweep();
    return net;
}

struct MapCase {
    MapObjective objective;
    CoverMode mode;
};

class BaseMapperParam : public ::testing::TestWithParam<MapCase> {};

TEST_P(BaseMapperParam, FullAdderMapsEquivalent) {
    const Network net = full_adder();
    const DecomposeResult r = decompose(net);
    const Library lib = load_msu_big();
    BaseMapper mapper(lib);
    BaseMapperOptions opts;
    opts.objective = GetParam().objective;
    opts.mode = GetParam().mode;
    const MapResult res = mapper.map(r.graph, opts);
    res.netlist.check(lib);
    EXPECT_GT(res.netlist.gate_count(), 0u);
    EXPECT_TRUE(equivalent_random(net, res.netlist.to_network(lib), 16, 99));
}

TEST_P(BaseMapperParam, RandomNetworksMapEquivalent) {
    const Library lib = load_msu_big();
    BaseMapper mapper(lib);
    for (std::uint64_t seed = 50; seed < 56; ++seed) {
        const Network net = random_network(seed);
        const DecomposeResult r = decompose(net);
        BaseMapperOptions opts;
        opts.objective = GetParam().objective;
        opts.mode = GetParam().mode;
        const MapResult res = mapper.map(r.graph, opts);
        res.netlist.check(lib);
        EXPECT_TRUE(equivalent_random(net, res.netlist.to_network(lib), 8, seed)) << seed;
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllModes, BaseMapperParam,
    ::testing::Values(MapCase{MapObjective::Area, CoverMode::Trees},
                      MapCase{MapObjective::Area, CoverMode::Cones},
                      MapCase{MapObjective::Delay, CoverMode::Trees},
                      MapCase{MapObjective::Delay, CoverMode::Cones}),
    [](const ::testing::TestParamInfo<MapCase>& info) {
        std::string s = info.param.objective == MapObjective::Area ? "Area" : "Delay";
        s += info.param.mode == CoverMode::Trees ? "Trees" : "Cones";
        return s;
    });

TEST(BaseMapper, AreaModeBeatsNaiveCoverOnAnd4) {
    // AND of 4 inputs: naive per-node cover = 3 nand2 + 3 inv (area 9.0 in
    // msu_big); the and4 gate costs 5.0, so area DP must find area <= 5.0.
    Network net("and4");
    std::vector<NodeId> ins;
    for (int i = 0; i < 4; ++i) ins.push_back(net.add_input("i" + std::to_string(i)));
    net.add_output("f", net.make_and(ins));
    const DecomposeResult r = decompose(net);
    const Library lib = load_msu_big();
    const MapResult res = BaseMapper(lib).map(r.graph);
    EXPECT_LE(res.total_area, lib.gate(*lib.find("and4")).area + 1e-9);
    EXPECT_EQ(res.netlist.gate_count(), 1u);
}

TEST(BaseMapper, TinyLibraryUsesMoreGatesThanBig) {
    const Network net = random_network(60, 10, 80);
    const DecomposeResult r = decompose(net);
    const Library tiny = load_msu_tiny();
    const Library big = load_msu_big();
    const MapResult res_t = BaseMapper(tiny).map(r.graph);
    const MapResult res_b = BaseMapper(big).map(r.graph);
    // The big library can absorb more logic per gate.
    EXPECT_LE(res_b.netlist.gate_count(), res_t.netlist.gate_count());
    // msu_big is a superset of msu_tiny, so the DP cost with the big
    // library dominates node-by-node. (Extracted area can still be larger
    // because big gates bury multi-fanout nodes and force duplication —
    // exactly the routing-complexity trade-off the paper discusses.)
    for (SubjectId v = 0; v < r.graph.size(); ++v) {
        EXPECT_LE(res_b.solution[v].cost, res_t.solution[v].cost + 1e-9) << v;
    }
}

TEST(BaseMapper, DelayModeNoSlowerThanAreaMode) {
    const Library lib = load_msu_big();
    BaseMapper mapper(lib);
    for (std::uint64_t seed = 70; seed < 74; ++seed) {
        const Network net = random_network(seed, 8, 60);
        const DecomposeResult r = decompose(net);
        BaseMapperOptions area_opts;
        BaseMapperOptions delay_opts;
        delay_opts.objective = MapObjective::Delay;
        const MapResult res_d = mapper.map(r.graph, delay_opts);
        // Evaluate the area-mode result's arrival per the same node-cost
        // definition by re-running DP? Instead check internal consistency:
        // the delay-mode worst arrival is positive and finite.
        EXPECT_GT(res_d.worst_arrival, 0.0);
        EXPECT_LT(res_d.worst_arrival, 1e6);
        // And delay-mode area is >= area-mode area (it trades area away).
        const MapResult res_a = mapper.map(r.graph, area_opts);
        EXPECT_GE(res_d.total_area + 1e-9, res_a.total_area);
    }
}

TEST(BaseMapper, TreeModeNeverDuplicatesLogic) {
    const Library lib = load_msu_big();
    for (std::uint64_t seed = 80; seed < 84; ++seed) {
        const Network net = random_network(seed);
        const DecomposeResult r = decompose(net);
        BaseMapperOptions opts;
        opts.mode = CoverMode::Trees;
        const MapResult res = BaseMapper(lib).map(r.graph, opts);
        // No subject node may be absorbed by two different instances.
        std::vector<int> absorbed(r.graph.size(), 0);
        for (const GateInstance& inst : res.netlist.gates) {
            for (SubjectId w : inst.absorbed) ++absorbed[w];
        }
        for (SubjectId v = 0; v < r.graph.size(); ++v) EXPECT_LE(absorbed[v], 1) << v;
    }
}

TEST(BaseMapper, ConesCanBeatTreesOnArea) {
    // Cone mode's search space strictly contains tree mode's, so its cost
    // is never worse on the DP objective.
    const Library lib = load_msu_big();
    for (std::uint64_t seed = 90; seed < 95; ++seed) {
        const Network net = random_network(seed);
        const DecomposeResult r = decompose(net);
        BaseMapperOptions tree_opts;
        tree_opts.mode = CoverMode::Trees;
        BaseMapperOptions cone_opts;
        cone_opts.mode = CoverMode::Cones;
        const MapResult rt = BaseMapper(lib).map(r.graph, tree_opts);
        const MapResult rc = BaseMapper(lib).map(r.graph, cone_opts);
        // Compare DP costs at PO drivers (the real objective); extracted
        // area can differ because of sharing effects.
        double cost_t = 0, cost_c = 0;
        for (const SubjectOutput& po : r.graph.outputs()) {
            cost_t += rt.solution[po.driver].cost;
            cost_c += rc.solution[po.driver].cost;
        }
        EXPECT_LE(cost_c, cost_t + 1e-9) << seed;
    }
}

TEST(BaseMapper, SolutionCoversEveryGateNode) {
    const Network net = random_network(100);
    const DecomposeResult r = decompose(net);
    const Library lib = load_msu_tiny();
    const MapResult res = BaseMapper(lib).map(r.graph);
    for (SubjectId v = 0; v < r.graph.size(); ++v) {
        if (r.graph.node(v).kind == SubjectKind::Input) continue;
        EXPECT_TRUE(res.solution[v].has_match) << v;
        EXPECT_EQ(res.solution[v].match.root(), v);
    }
}

TEST(MappedNetlist, ChecksCatchCorruption) {
    const Network net = full_adder();
    const DecomposeResult r = decompose(net);
    const Library lib = load_msu_big();
    MapResult res = BaseMapper(lib).map(r.graph);
    MappedNetlist broken = res.netlist;
    ASSERT_FALSE(broken.gates.empty());
    broken.gates[0].inputs.push_back(broken.gates[0].inputs[0]);  // pin mismatch
    EXPECT_THROW(broken.check(lib), std::logic_error);
    MappedNetlist dangling = res.netlist;
    dangling.outputs.push_back({"ghost", static_cast<SubjectId>(123456)});
    EXPECT_THROW(dangling.check(lib), std::logic_error);
}

TEST(MappedNetlist, CheckRejectsNullDriver) {
    const Network net = full_adder();
    const DecomposeResult r = decompose(net);
    const Library lib = load_msu_big();
    const MapResult res = BaseMapper(lib).map(r.graph);
    ASSERT_FALSE(res.netlist.gates.empty());
    // An extra instance whose inputs are all driven but which drives the
    // null id: nothing else about it is wrong.
    MappedNetlist nulled = res.netlist;
    nulled.gates.push_back(nulled.gates.front());
    nulled.gates.back().driver = kNullSubject;
    nulled.bump_version();
    try {
        nulled.check(lib);
        ADD_FAILURE() << "an instance driving kNullSubject passed the check";
    } catch (const std::logic_error& e) {
        EXPECT_NE(std::string(e.what()).find("null"), std::string::npos) << e.what();
    }
    MappedNetlist null_input = res.netlist;
    null_input.subject_inputs.front() = kNullSubject;
    EXPECT_THROW(null_input.check(lib), std::logic_error);
}

TEST(MappedNetlist, CheckSizesNoTableFromIds) {
    // Ids at the top of the SubjectId range: a consistent netlist over them
    // passes, and a pin or output on an id nothing defines throws — neither
    // sizes a table from an id (that would ask for gigabytes).
    const Network net = full_adder();
    const DecomposeResult r = decompose(net);
    const Library lib = load_msu_big();
    const MapResult res = BaseMapper(lib).map(r.graph);
    MappedNetlist far = res.netlist;
    const auto shift = [](SubjectId s) { return kNullSubject - 1 - s; };
    for (SubjectId& s : far.subject_inputs) s = shift(s);
    for (GateInstance& g : far.gates) {
        g.driver = shift(g.driver);
        for (SubjectId& in : g.inputs) in = shift(in);
    }
    for (MappedOutput& po : far.outputs) po.driver = shift(po.driver);
    far.bump_version();
    EXPECT_NO_THROW(far.check(lib));

    MappedNetlist undriven = far;
    undriven.gates.back().inputs.front() = kNullSubject - 1000000;
    undriven.bump_version();
    EXPECT_THROW(undriven.check(lib), std::logic_error);
    MappedNetlist dangling = far;
    dangling.outputs.push_back({"ghost", kNullSubject - 1000001});
    EXPECT_THROW(dangling.check(lib), std::logic_error);
    MappedNetlist twice = far;
    twice.gates.push_back(twice.gates.back());  // same driver again
    twice.bump_version();
    EXPECT_THROW(twice.check(lib), std::logic_error);
}

TEST(MappedNetlist, InstanceDrivingLookup) {
    const Network net = full_adder();
    const DecomposeResult r = decompose(net);
    const Library lib = load_msu_big();
    const MapResult res = BaseMapper(lib).map(r.graph);
    for (std::size_t i = 0; i < res.netlist.gates.size(); ++i) {
        EXPECT_EQ(res.netlist.instance_driving(res.netlist.gates[i].driver), i);
    }
    for (SubjectId in : res.netlist.subject_inputs) {
        EXPECT_EQ(res.netlist.instance_driving(in), MappedNetlist::npos);
    }
}

TEST(MappedNetlist, PoDrivenByInputSurvivesMapping) {
    Network net("wire");
    const NodeId a = net.add_input("a");
    const NodeId b = net.add_input("b");
    net.add_output("f", net.make_and2(a, b));
    net.add_output("copy_a", a);  // PO straight from a PI
    const DecomposeResult r = decompose(net);
    const Library lib = load_msu_tiny();
    const MapResult res = BaseMapper(lib).map(r.graph);
    res.netlist.check(lib);
    EXPECT_TRUE(equivalent_random(net, res.netlist.to_network(lib), 8, 5));
}

}  // namespace
}  // namespace lily
