#include <gtest/gtest.h>

#include <chrono>

#include "circuits/benchmarks.hpp"
#include "library/standard_cells.hpp"
#include "lily/lily_mapper.hpp"
#include "netlist/simulate.hpp"
#include "place/netlist_adapters.hpp"
#include "place/placement.hpp"
#include "subject/decompose.hpp"
#include "util/parallel.hpp"
#include "util/trace.hpp"

namespace lily {
namespace {

struct LilyCase {
    MapObjective objective;
    PositionUpdate update;
    WireModel wire;
};

class LilyParam : public ::testing::TestWithParam<LilyCase> {};

TEST_P(LilyParam, MapsBenchmarksEquivalent) {
    const Library lib = load_msu_big();
    LilyMapper mapper(lib);
    LilyOptions opts;
    opts.objective = GetParam().objective;
    opts.update = GetParam().update;
    opts.wire_model = GetParam().wire;
    for (const char* name : {"b9", "misex1", "C880"}) {
        const auto suite = paper_suite(0.25);
        const auto it = std::find_if(suite.begin(), suite.end(),
                                     [&](const Benchmark& b) { return b.name == name; });
        ASSERT_NE(it, suite.end());
        const Network& net = it->network;
        const DecomposeResult r = decompose(net);
        const LilyResult res = mapper.map_checked(r.graph, opts).take_or_raise();
        res.netlist.check(lib);
        EXPECT_TRUE(equivalent_random(net, res.netlist.to_network(lib), 8, 17)) << name;
        EXPECT_EQ(res.instance_positions.size(), res.netlist.gate_count());
    }
}

INSTANTIATE_TEST_SUITE_P(
    Modes, LilyParam,
    ::testing::Values(
        LilyCase{MapObjective::Area, PositionUpdate::CMofFans, WireModel::SteinerHpwl},
        LilyCase{MapObjective::Area, PositionUpdate::CMofMerged, WireModel::SteinerHpwl},
        LilyCase{MapObjective::Area, PositionUpdate::CMofFans, WireModel::SpanningTree},
        LilyCase{MapObjective::Delay, PositionUpdate::CMofFans, WireModel::SteinerHpwl},
        LilyCase{MapObjective::Delay, PositionUpdate::CMofMerged, WireModel::SpanningTree}),
    [](const ::testing::TestParamInfo<LilyCase>& info) {
        std::string s = info.param.objective == MapObjective::Area ? "Area" : "Delay";
        s += info.param.update == PositionUpdate::CMofFans ? "Fans" : "Merged";
        s += info.param.wire == WireModel::SteinerHpwl ? "Hpwl" : "Mst";
        return s;
    });

Network small_circuit() {
    return make_priority_controller(8);
}

TEST(Lily, LifeCycleEndsInHawksAndDoves) {
    const Library lib = load_msu_big();
    const Network net = small_circuit();
    const DecomposeResult r = decompose(net);
    const LilyResult res = LilyMapper(lib).map_checked(r.graph).take_or_raise();
    // Every subject gate node reachable from a PO is Hawk or Dove; inputs
    // stay Egg (they are never "processed").
    std::vector<bool> live(r.graph.size(), false);
    std::vector<SubjectId> stack;
    for (const SubjectOutput& po : r.graph.outputs()) {
        stack.push_back(po.driver);
        live[po.driver] = true;
    }
    while (!stack.empty()) {
        const SubjectId v = stack.back();
        stack.pop_back();
        const SubjectNode& n = r.graph.node(v);
        for (unsigned k = 0; k < n.fanin_count(); ++k) {
            if (!live[n.fanin(k)]) {
                live[n.fanin(k)] = true;
                stack.push_back(n.fanin(k));
            }
        }
    }
    for (SubjectId v = 0; v < r.graph.size(); ++v) {
        if (!live[v] || r.graph.node(v).kind == SubjectKind::Input) continue;
        EXPECT_TRUE(res.final_state[v] == LifeState::Hawk ||
                    res.final_state[v] == LifeState::Dove)
            << v;
    }
    // Every emitted instance's driver is a hawk.
    for (const GateInstance& inst : res.netlist.gates) {
        EXPECT_EQ(res.final_state[inst.driver], LifeState::Hawk);
    }
}

TEST(Lily, ConeOrderIsPermutation) {
    const Library lib = load_msu_big();
    const Network net = small_circuit();
    const DecomposeResult r = decompose(net);
    const LilyResult res = LilyMapper(lib).map_checked(r.graph).take_or_raise();
    auto order = res.cone_order;
    std::sort(order.begin(), order.end());
    for (std::size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
}

TEST(Lily, ZeroWireWeightMatchesBaselineArea) {
    // With the wire term disabled, Lily's area DP reduces to the baseline
    // cone-mode DP, so total area must match (ties may pick different but
    // equal-area gates).
    const Library lib = load_msu_big();
    const Network net = small_circuit();
    const DecomposeResult r = decompose(net);
    LilyOptions lily_opts;
    lily_opts.wire_weight = 0.0;
    const LilyResult lres = LilyMapper(lib).map_checked(r.graph, lily_opts).take_or_raise();
    const MapResult bres = BaseMapper(lib).map(r.graph);
    EXPECT_NEAR(lres.total_area, bres.total_area, 1e-6);
}

TEST(Lily, WireAwareMappingReducesEstimatedWire) {
    // Charging for wire must not increase Lily's own wire estimate.
    const Library lib = load_msu_big();
    const Network net = make_control_logic(16, 8, 120, 0x77, "wtest");
    const DecomposeResult r = decompose(net);
    LilyOptions no_wire;
    no_wire.wire_weight = 0.0;
    LilyOptions with_wire;
    with_wire.wire_weight = 2.0;
    const LilyResult r0 = LilyMapper(lib).map_checked(r.graph, no_wire).take_or_raise();
    const LilyResult r1 = LilyMapper(lib).map_checked(r.graph, with_wire).take_or_raise();
    EXPECT_LE(r1.estimated_wirelength, r0.estimated_wirelength * 1.02);
}

TEST(Lily, InstancePositionsInsideRegion) {
    const Library lib = load_msu_big();
    const Network net = small_circuit();
    const DecomposeResult r = decompose(net);
    const LilyResult res = LilyMapper(lib).map_checked(r.graph).take_or_raise();
    // mapPositions stay within (a small margin of) the placement region.
    Rect grown = res.inchoate_placement.region;
    const double margin = grown.half_perimeter() * 0.25;
    grown.ll.x -= margin;
    grown.ll.y -= margin;
    grown.ur.x += margin;
    grown.ur.y += margin;
    for (const Point& p : res.instance_positions) EXPECT_TRUE(grown.contains(p));
}

TEST(Lily, ExternalPadPositionsRespected) {
    const Library lib = load_msu_big();
    const Network net = small_circuit();
    const DecomposeResult r = decompose(net);
    const SubjectPlacementView view = make_placement_view(r.graph);
    const Rect region = make_region(view.netlist.total_cell_area());
    const auto pads = uniform_pad_ring(view.netlist.pad_positions.size(), region);
    const LilyResult res = LilyMapper(lib).map_checked(r.graph, {}, pads).take_or_raise();
    ASSERT_EQ(res.pad_positions.size(), pads.size());
    for (std::size_t i = 0; i < pads.size(); ++i) {
        EXPECT_EQ(res.pad_positions[i], pads[i]);
    }
    const StatusOr<LilyResult> wrong =
        LilyMapper(lib).map_checked(r.graph, {}, std::vector<Point>{{0, 0}});
    ASSERT_FALSE(wrong.is_ok());
    EXPECT_EQ(wrong.status().code(), StatusCode::InvariantViolation) << wrong.status().to_string();
}

TEST(Lily, PeriodicReplacementRunsAndStaysEquivalent) {
    const Library lib = load_msu_big();
    const Network net = small_circuit();
    const DecomposeResult r = decompose(net);
    LilyOptions opts;
    opts.replace_every_n_cones = 2;
    const LilyResult res = LilyMapper(lib).map_checked(r.graph, opts).take_or_raise();
    EXPECT_GT(res.replacements, 0u);
    EXPECT_TRUE(equivalent_random(net, res.netlist.to_network(lib), 8, 23));
}

TEST(Lily, ConeOrderingToggleBothEquivalent) {
    const Library lib = load_msu_big();
    const Network net = make_control_logic(14, 10, 100, 0x55, "ctest");
    const DecomposeResult r = decompose(net);
    LilyOptions ordered;
    ordered.order_cones = true;
    LilyOptions unordered;
    unordered.order_cones = false;
    const LilyResult a = LilyMapper(lib).map_checked(r.graph, ordered).take_or_raise();
    const LilyResult b = LilyMapper(lib).map_checked(r.graph, unordered).take_or_raise();
    EXPECT_TRUE(equivalent_random(net, a.netlist.to_network(lib), 8, 29));
    EXPECT_TRUE(equivalent_random(net, b.netlist.to_network(lib), 8, 29));
}

TEST(Lily, DelayModeArrivalPositiveAndConsistent) {
    const Library lib = load_msu_big();
    const Network net = make_alu(6, false);
    const DecomposeResult r = decompose(net);
    LilyOptions opts;
    opts.objective = MapObjective::Delay;
    const LilyResult res = LilyMapper(lib).map_checked(r.graph, opts).take_or_raise();
    EXPECT_GT(res.worst_arrival, 0.0);
    EXPECT_LT(res.worst_arrival, 1e4);
    // Block arrival consistency: for every hawk, the stored output arrival
    // must be >= every block arrival (R*C >= 0).
    for (const GateInstance& inst : res.netlist.gates) {
        const LilyNodeSolution& s = res.solution[inst.driver];
        for (const RiseFallPair& b : s.block) {
            // out = max_i(b_i + R_i * C_L) with R_i, C_L >= 0.
            EXPECT_GE(s.worst_arrival() + 1e-9, b.worst());
        }
    }
}

TEST(Lily, DeterministicAcrossRuns) {
    const Library lib = load_msu_big();
    const Network net = small_circuit();
    const DecomposeResult r = decompose(net);
    const LilyResult a = LilyMapper(lib).map_checked(r.graph).take_or_raise();
    const LilyResult b = LilyMapper(lib).map_checked(r.graph).take_or_raise();
    ASSERT_EQ(a.netlist.gate_count(), b.netlist.gate_count());
    for (std::size_t i = 0; i < a.netlist.gates.size(); ++i) {
        EXPECT_EQ(a.netlist.gates[i].gate, b.netlist.gates[i].gate);
        EXPECT_EQ(a.netlist.gates[i].driver, b.netlist.gates[i].driver);
    }
    EXPECT_DOUBLE_EQ(a.estimated_wirelength, b.estimated_wirelength);
}

void expect_same_cover(const LilyResult& a, const LilyResult& b) {
    ASSERT_EQ(a.netlist.gate_count(), b.netlist.gate_count());
    for (std::size_t i = 0; i < a.netlist.gates.size(); ++i) {
        EXPECT_EQ(a.netlist.gates[i].gate, b.netlist.gates[i].gate) << i;
        EXPECT_EQ(a.netlist.gates[i].driver, b.netlist.gates[i].driver) << i;
        EXPECT_EQ(a.netlist.gates[i].inputs, b.netlist.gates[i].inputs) << i;
        EXPECT_EQ(a.netlist.gates[i].absorbed, b.netlist.gates[i].absorbed) << i;
    }
    EXPECT_EQ(a.instance_positions, b.instance_positions);
}

TEST(Lily, SameMappingAtOneAndEightThreads) {
    const Library lib = load_msu_big();
    const Network net = make_control_logic(14, 10, 100, 0x55, "ctest");
    const DecomposeResult r = decompose(net);
    for (const MapObjective objective : {MapObjective::Area, MapObjective::Delay}) {
        LilyOptions opts;
        opts.objective = objective;
        ThreadPool& pool = ThreadPool::global();
        const std::size_t saved = pool.size();
        pool.resize(1);
        const LilyResult one = LilyMapper(lib).map_checked(r.graph, opts).take_or_raise();
        pool.resize(8);
        const LilyResult eight = LilyMapper(lib).map_checked(r.graph, opts).take_or_raise();
        pool.resize(saved);
        EXPECT_EQ(one.cone_order, eight.cone_order);
        expect_same_cover(one, eight);
        EXPECT_EQ(one.estimated_wirelength, eight.estimated_wirelength);  // bit-identical
    }
}

TEST(Lily, NoOpRemapReusesEveryNode) {
    const Library lib = load_msu_big();
    const Network net = make_control_logic(14, 10, 100, 0x56, "ctest");
    const DecomposeResult r = decompose(net);
    const LilyMapper mapper(lib);
    const LilyResult full = mapper.map_checked(r.graph).take_or_raise();
    std::size_t solved = 0;
    for (SubjectId v = 0; v < r.graph.size(); ++v) {
        if (r.graph.node(v).kind != SubjectKind::Input && full.solution[v].has_match) ++solved;
    }
    const StatusOr<LilyResult> again =
        mapper.remap_checked(r.graph, full, r.graph.size());
    ASSERT_TRUE(again.is_ok()) << again.status().to_string();
    EXPECT_EQ(again.value().remapped_nodes, 0u);
    EXPECT_EQ(again.value().reused_nodes, solved);
    EXPECT_TRUE(again.value().cone_order.empty());  // no cone is dirty
    expect_same_cover(full, again.value());
    EXPECT_EQ(full.estimated_wirelength, again.value().estimated_wirelength);
}

TEST(Lily, PhaseTimesFitInsideTheCall) {
    const Library lib = load_msu_big();
    const Network net = make_control_logic(14, 10, 100, 0x57, "ctest");
    const DecomposeResult r = decompose(net);
    LilyOptions opts;
    opts.replace_every_n_cones = 2;
    // Trace the call as a flow would: a span around it on the active sink.
    struct ActiveSink {
        explicit ActiveSink(TraceSink* s) { t_active_sink = s; }
        ~ActiveSink() { t_active_sink = nullptr; }
    };
    TraceSink sink;
    LilyResult res;
    {
        const ActiveSink active(&sink);
        const auto t0 = TraceSink::Clock::now();
        const std::size_t call = sink.begin_span("mapping", t0);
        res = LilyMapper(lib).map_checked(r.graph, opts).take_or_raise();
        sink.end_span(call, std::chrono::duration<double, std::milli>(
                                TraceSink::Clock::now() - t0).count());
    }

    const std::vector<TraceSpan> spans = sink.spans();
    std::vector<std::string> phases;
    std::size_t replaces = 0;
    const TraceSpan* dp = nullptr;
    double prev_end = spans[0].start_ms;
    const auto end = [](const TraceSpan& s) { return s.start_ms + s.elapsed_ms; };
    for (const TraceSpan& s : spans) {
        EXPECT_TRUE(s.closed) << s.name;
        if (s.depth == 2) {
            phases.push_back(s.name);
            // Phases tile the call in order, inside it and without overlap.
            EXPECT_GE(s.start_ms, prev_end) << s.name;
            EXPECT_LE(end(s), end(spans[0])) << s.name;
            prev_end = end(s);
            if (s.name == "dp") dp = &s;
        } else if (s.depth == 3) {
            EXPECT_EQ(s.name, "replace");
            ASSERT_NE(dp, nullptr);
            EXPECT_GE(s.start_ms, dp->start_ms);
            EXPECT_LE(end(s), end(*dp));
            ++replaces;
        }
    }
    EXPECT_EQ(phases, (std::vector<std::string>{"placement-view", "assemble", "pads",
                                                "inchoate-place", "cone-order", "dp",
                                                "extract"}));
    EXPECT_GT(res.replacements, 0u);
    EXPECT_EQ(replaces, res.replacements);
}

TEST(Lily, BudgetReachesThePadSeedSolve) {
    const Library lib = load_msu_big();
    const Network net = make_control_logic(16, 8, 120, 0x77, "btest");
    const DecomposeResult r = decompose(net);
    const SubjectPlacementView view = make_placement_view(r.graph);
    const Rect region = make_region(view.netlist.total_cell_area());
    QuadraticPlacer placer(view.netlist);
    const std::vector<Point> free_pads = placer.place_pads(region);

    // A budget that never fires leaves the pads exactly as unbudgeted.
    StageBudget unlimited;
    EXPECT_EQ(placer.place_pads(region, &unlimited), free_pads);

    // A small iteration budget stops the seed solve at its cap: one
    // failing tick per axis at most past the last granted one.
    StageBudget budget = StageBudget::iterations(5);
    const std::vector<Point> starved = placer.place_pads(region, &budget);
    EXPECT_NE(starved, free_pads);  // placed from a partial seed
    EXPECT_TRUE(budget.exhausted());
    EXPECT_LE(budget.ticks_used(), 6u);

    // The mapper hands its budget to the pad placement (its pads are the
    // starved ones), and reports the exhaustion.
    LilyOptions opts;
    StageBudget map_budget = StageBudget::iterations(5);
    opts.budget = &map_budget;
    const StatusOr<LilyResult> res = LilyMapper(lib).map_checked(r.graph, opts);
    ASSERT_TRUE(res.is_ok()) << res.status().to_string();
    EXPECT_EQ(res.value().pad_positions, starved);
    EXPECT_TRUE(res.value().budget_exhausted);
}

}  // namespace
}  // namespace lily
