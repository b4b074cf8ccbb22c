#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <string>

#include "circuits/benchmarks.hpp"
#include "flow/pipeline.hpp"
#include "library/standard_cells.hpp"
#include "map/base_mapper.hpp"
#include "netlist/delta.hpp"
#include "place/netlist_adapters.hpp"
#include "place/placement.hpp"
#include "sta/timing.hpp"
#include "subject/decompose.hpp"
#include "timing_oracle.hpp"
#include "util/rng.hpp"

namespace lily {
namespace {

struct Placed {
    Library lib = load_msu_big();
    MappedNetlist netlist;
    MappedPlacementView view;
    std::vector<Point> positions;
};

Placed map_and_place(const Network& net) {
    Placed out;
    const DecomposeResult r = decompose(net);
    const MapResult res = BaseMapper(out.lib).map(r.graph);
    out.netlist = res.netlist;
    out.view = make_placement_view(out.netlist, out.lib);
    const Rect region = make_region(out.view.netlist.total_cell_area());
    out.view.netlist.pad_positions =
        uniform_pad_ring(out.view.netlist.pad_positions.size(), region);
    const GlobalPlacement gp = place_global(out.view.netlist, region);
    out.positions = gp.positions;
    return out;
}

// ------------------------------------------------------------- net extents

TEST(NetExtents, SteinerSplitsAxes) {
    const std::array<Point, 2> pins{Point{0, 0}, Point{4, 3}};
    const NetExtents e = net_extents(pins, WireModel::SteinerHpwl);
    EXPECT_DOUBLE_EQ(e.x, 4.0);
    EXPECT_DOUBLE_EQ(e.y, 3.0);
}

TEST(NetExtents, SpanningTreeSumsEdges) {
    const std::array<Point, 3> pins{Point{0, 0}, Point{10, 0}, Point{10, 5}};
    const NetExtents e = net_extents(pins, WireModel::SpanningTree);
    EXPECT_DOUBLE_EQ(e.x, 10.0);
    EXPECT_DOUBLE_EQ(e.y, 5.0);
}

TEST(NetExtents, DegenerateNetZero) {
    const std::array<Point, 1> one{Point{2, 2}};
    const NetExtents e = net_extents(one, WireModel::SteinerHpwl);
    EXPECT_DOUBLE_EQ(e.x, 0.0);
    EXPECT_DOUBLE_EQ(e.y, 0.0);
}

// ------------------------------------------------------------------ timing

TEST(Timing, SingleInverterHandComputed) {
    Network net("inv");
    const NodeId a = net.add_input("a");
    net.add_output("f", net.make_not(a));
    Placed p = map_and_place(net);
    ASSERT_EQ(p.netlist.gate_count(), 1u);
    TimingOptions opts;
    opts.cap_per_unit_h = 0.0;  // isolate the gate model
    opts.cap_per_unit_v = 0.0;
    const TimingReport rep = analyze_timing(p.netlist, p.lib, p.view, p.positions, opts);
    const Gate& g = p.lib.gate(p.netlist.gates[0].gate);
    // Load = one output pad.
    EXPECT_NEAR(rep.load[0], opts.po_pad_load, 1e-12);
    const double want_rise = g.pin(0).rise_block + g.pin(0).rise_fanout * opts.po_pad_load;
    const double want_fall = g.pin(0).fall_block + g.pin(0).fall_fanout * opts.po_pad_load;
    EXPECT_NEAR(rep.arrival[0].rise, want_rise, 1e-12);
    EXPECT_NEAR(rep.arrival[0].fall, want_fall, 1e-12);
    EXPECT_NEAR(rep.critical_delay, std::max(want_rise, want_fall), 1e-12);
    EXPECT_EQ(rep.critical_output, "f");
    EXPECT_EQ(rep.critical_path.size(), 1u);
}

TEST(Timing, ChainArrivalAccumulates) {
    // NAND chain (inverter chains cancel structurally in the subject graph).
    Network net("chain");
    NodeId s = net.add_input("a");
    const NodeId b = net.add_input("b");
    for (int i = 0; i < 6; ++i) s = net.make_nand(std::array{s, b});
    net.add_output("f", s);
    Placed p = map_and_place(net);
    const TimingReport rep = analyze_timing(p.netlist, p.lib, p.view, p.positions);
    // Strictly increasing along the chain.
    double prev = 0.0;
    for (std::size_t i : rep.critical_path) {
        EXPECT_GT(rep.arrival[i].worst(), prev);
        prev = rep.arrival[i].worst();
    }
    EXPECT_GE(rep.critical_path.size(), 1u);
    EXPECT_NEAR(prev, rep.critical_delay, 1e-12);
}

TEST(Timing, WireCapacitanceIncreasesDelay) {
    Rng rng(12);
    Network net("w");
    std::vector<NodeId> pool;
    for (int i = 0; i < 8; ++i) pool.push_back(net.add_input("i" + std::to_string(i)));
    for (int i = 0; i < 60; ++i) {
        const NodeId a = pool[rng.next_below(pool.size())];
        const NodeId b = pool[rng.next_below(pool.size())];
        pool.push_back(a == b ? net.make_not(a) : net.make_and2(a, b));
    }
    for (int i = 0; i < 4; ++i) net.add_output("o" + std::to_string(i),
                                               pool[pool.size() - 1 - i]);
    net.sweep();
    Placed p = map_and_place(net);
    TimingOptions no_wire;
    no_wire.cap_per_unit_h = 0.0;
    no_wire.cap_per_unit_v = 0.0;
    TimingOptions with_wire;  // defaults have nonzero c_h/c_v
    const TimingReport r0 = analyze_timing(p.netlist, p.lib, p.view, p.positions, no_wire);
    const TimingReport r1 = analyze_timing(p.netlist, p.lib, p.view, p.positions, with_wire);
    EXPECT_GT(r1.critical_delay, r0.critical_delay);
    for (std::size_t i = 0; i < p.netlist.gate_count(); ++i) {
        EXPECT_GE(r1.load[i] + 1e-12, r0.load[i]);
    }
}

TEST(Timing, InputArrivalShiftsEverything) {
    Network net("shift");
    const NodeId a = net.add_input("a");
    const NodeId b = net.add_input("b");
    net.add_output("f", net.make_and2(a, b));
    Placed p = map_and_place(net);
    TimingOptions base;
    TimingOptions shifted;
    shifted.input_arrival = 5.0;
    const TimingReport r0 = analyze_timing(p.netlist, p.lib, p.view, p.positions, base);
    const TimingReport r1 = analyze_timing(p.netlist, p.lib, p.view, p.positions, shifted);
    EXPECT_NEAR(r1.critical_delay - r0.critical_delay, 5.0, 1e-9);
}

TEST(Timing, InvPhaseSwapsRiseFall) {
    // Two stacked inverting stages: with INV pins the output rise comes
    // from the input fall; check the rise/fall bookkeeping stays sane.
    Network net("ph");
    NodeId s = net.add_input("a");
    const NodeId b = net.add_input("b");
    s = net.make_nand(std::array{s, b});
    s = net.make_nand(std::array{s, b});
    net.add_output("f", s);
    Placed p = map_and_place(net);
    TimingOptions opts;
    opts.cap_per_unit_h = 0.0;
    opts.cap_per_unit_v = 0.0;
    const TimingReport rep = analyze_timing(p.netlist, p.lib, p.view, p.positions, opts);
    // Both instances exist (inverter pair is not collapsed by mapping:
    // buf1 may replace them — accept either shape, just require a sane
    // positive critical delay).
    EXPECT_GT(rep.critical_delay, 0.0);
    EXPECT_LT(rep.critical_delay, 10.0);
}

TEST(Timing, CriticalPathIsConnected) {
    Rng rng(13);
    Network net("cp");
    std::vector<NodeId> pool;
    for (int i = 0; i < 6; ++i) pool.push_back(net.add_input("i" + std::to_string(i)));
    for (int i = 0; i < 40; ++i) {
        const NodeId a = pool[rng.next_below(pool.size())];
        const NodeId b = pool[rng.next_below(pool.size())];
        pool.push_back(a == b ? net.make_not(a) : net.make_xor2(a, b));
    }
    net.add_output("o", pool.back());
    net.sweep();
    Placed p = map_and_place(net);
    const TimingReport rep = analyze_timing(p.netlist, p.lib, p.view, p.positions);
    ASSERT_FALSE(rep.critical_path.empty());
    // Consecutive path elements are driver/sink pairs.
    for (std::size_t k = 0; k + 1 < rep.critical_path.size(); ++k) {
        const GateInstance& sink = p.netlist.gates[rep.critical_path[k + 1]];
        const SubjectId driver_sig = p.netlist.gates[rep.critical_path[k]].driver;
        EXPECT_NE(std::find(sink.inputs.begin(), sink.inputs.end(), driver_sig),
                  sink.inputs.end());
    }
    // Path ends at the critical output's driver.
    const GateInstance& last = p.netlist.gates[rep.critical_path.back()];
    bool drives_po = false;
    for (const MappedOutput& po : p.netlist.outputs) {
        if (po.driver == last.driver && po.name == rep.critical_output) drives_po = true;
    }
    EXPECT_TRUE(drives_po);
}

TEST(Timing, SpanningTreeModelNoLessLoadThanHpwl) {
    Rng rng(14);
    Network net("wm");
    std::vector<NodeId> pool;
    for (int i = 0; i < 8; ++i) pool.push_back(net.add_input("i" + std::to_string(i)));
    for (int i = 0; i < 50; ++i) {
        const NodeId a = pool[rng.next_below(pool.size())];
        const NodeId b = pool[rng.next_below(pool.size())];
        pool.push_back(a == b ? net.make_not(a) : net.make_or2(a, b));
    }
    for (int i = 0; i < 3; ++i) net.add_output("o" + std::to_string(i),
                                               pool[pool.size() - 1 - i]);
    net.sweep();
    Placed p = map_and_place(net);
    TimingOptions hp;
    hp.wire_model = WireModel::SteinerHpwl;
    TimingOptions st;
    st.wire_model = WireModel::SpanningTree;
    const TimingReport r_hp = analyze_timing(p.netlist, p.lib, p.view, p.positions, hp);
    const TimingReport r_st = analyze_timing(p.netlist, p.lib, p.view, p.positions, st);
    // Both models give positive finite delays of the same magnitude.
    EXPECT_GT(r_hp.critical_delay, 0.0);
    EXPECT_GT(r_st.critical_delay, 0.0);
    EXPECT_LT(r_hp.critical_delay / r_st.critical_delay, 3.0);
    EXPECT_GT(r_hp.critical_delay / r_st.critical_delay, 1.0 / 3.0);
}

// ------------------------------------------------------------------- slack

TEST(Slack, CriticalPathHasZeroSlackAtOwnDelay) {
    Rng rng(15);
    Network net("sl");
    std::vector<NodeId> pool;
    for (int i = 0; i < 8; ++i) pool.push_back(net.add_input("i" + std::to_string(i)));
    for (int i = 0; i < 60; ++i) {
        const NodeId a = pool[rng.next_below(pool.size())];
        const NodeId b = pool[rng.next_below(pool.size())];
        pool.push_back(a == b ? net.make_not(a) : net.make_and2(a, b));
    }
    for (int i = 0; i < 4; ++i) net.add_output("o" + std::to_string(i),
                                               pool[pool.size() - 1 - i]);
    net.sweep();
    Placed p = map_and_place(net);
    const TimingReport rep = analyze_timing(p.netlist, p.lib, p.view, p.positions);
    const SlackReport slack = analyze_slack(p.netlist, p.lib, rep);
    ASSERT_EQ(slack.slack.size(), p.netlist.gate_count());
    EXPECT_NEAR(slack.required_time, rep.critical_delay, 1e-12);
    // The critical output driver has (near) zero slack; the backward pass
    // uses worst-case stages, so allow a small phase-asymmetry tolerance.
    ASSERT_FALSE(rep.critical_path.empty());
    EXPECT_NEAR(slack.slack[rep.critical_path.back()], 0.0, 1e-9);
    EXPECT_GE(slack.worst_slack, -0.05 * rep.critical_delay);
    // Slack never exceeds the target (everything is constrained).
    for (const double s2 : slack.slack) EXPECT_LE(s2, slack.required_time + 1e-9);
}

TEST(Slack, TighterRequirementCreatesViolations) {
    Network net("sl2");
    NodeId s = net.add_input("a");
    const NodeId b = net.add_input("b");
    for (int i = 0; i < 8; ++i) s = net.make_nand(std::array{s, b});
    net.add_output("f", s);
    Placed p = map_and_place(net);
    const TimingReport rep = analyze_timing(p.netlist, p.lib, p.view, p.positions);
    const SlackReport at_delay = analyze_slack(p.netlist, p.lib, rep);
    EXPECT_EQ(at_delay.violations, 0u);
    const SlackReport tight = analyze_slack(p.netlist, p.lib, rep, rep.critical_delay / 2.0);
    EXPECT_GT(tight.violations, 0u);
    EXPECT_LT(tight.worst_slack, 0.0);
    const SlackReport loose = analyze_slack(p.netlist, p.lib, rep, rep.critical_delay * 2.0);
    EXPECT_EQ(loose.violations, 0u);
    EXPECT_GT(loose.worst_slack, 0.0);
}

// ------------------------------------------------ hash-map reference oracle

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

void expect_same_view(const MappedPlacementView& got, const MappedPlacementView& want,
                      const std::string& what) {
    EXPECT_EQ(got.cell_of_instance, want.cell_of_instance) << what;
    EXPECT_EQ(got.n_input_pads, want.n_input_pads) << what;
    EXPECT_EQ(got.netlist.n_cells, want.netlist.n_cells) << what;
    EXPECT_EQ(got.netlist.pad_positions.size(), want.netlist.pad_positions.size()) << what;
    ASSERT_EQ(got.netlist.cell_area.size(), want.netlist.cell_area.size()) << what;
    for (std::size_t c = 0; c < got.netlist.cell_area.size(); ++c) {
        ASSERT_EQ(bits(got.netlist.cell_area[c]), bits(want.netlist.cell_area[c])) << what;
    }
    ASSERT_EQ(got.netlist.nets.size(), want.netlist.nets.size()) << what;
    for (std::size_t e = 0; e < got.netlist.nets.size(); ++e) {
        ASSERT_EQ(got.netlist.nets[e].cells, want.netlist.nets[e].cells) << what << " net " << e;
        ASSERT_EQ(got.netlist.nets[e].pads, want.netlist.nets[e].pads) << what << " net " << e;
    }
}

void expect_same_timing(const TimingReport& got, const TimingReport& want,
                        const std::string& what) {
    ASSERT_EQ(got.arrival.size(), want.arrival.size()) << what;
    ASSERT_EQ(got.load.size(), want.load.size()) << what;
    for (std::size_t i = 0; i < got.arrival.size(); ++i) {
        ASSERT_EQ(bits(got.arrival[i].rise), bits(want.arrival[i].rise)) << what << " " << i;
        ASSERT_EQ(bits(got.arrival[i].fall), bits(want.arrival[i].fall)) << what << " " << i;
        ASSERT_EQ(bits(got.load[i]), bits(want.load[i])) << what << " " << i;
    }
    EXPECT_EQ(bits(got.critical_delay), bits(want.critical_delay)) << what;
    EXPECT_EQ(got.critical_output, want.critical_output) << what;
    EXPECT_EQ(got.critical_path, want.critical_path) << what;
}

/// The view and the STA of one placed netlist against the oracle, under
/// both wire models.
void expect_matches_oracle(const MappedNetlist& m, const Library& lib,
                           std::span<const Point> positions, std::span<const Point> pads,
                           const std::string& what) {
    MappedPlacementView view = make_placement_view(m, lib);
    MappedPlacementView want = oracle::oracle_placement_view(m, lib);
    expect_same_view(view, want, what);
    ASSERT_EQ(pads.size(), view.netlist.pad_positions.size()) << what;
    view.netlist.pad_positions.assign(pads.begin(), pads.end());
    for (const WireModel model : {WireModel::SteinerHpwl, WireModel::SpanningTree}) {
        TimingOptions opts;
        opts.wire_model = model;
        opts.input_arrival = 0.25;
        expect_same_timing(analyze_timing(m, lib, view, positions, opts),
                           oracle::oracle_analyze_timing(m, lib, view, positions, opts),
                           what + (model == WireModel::SteinerHpwl ? " steiner" : " mst"));
    }
}

FlowOptions oracle_flow_options() {
    FlowOptions opts;
    opts.check = CheckLevel::Off;
    opts.verify = VerifyLevel::Off;
    return opts;
}

TEST(TimingOracle, Table1SuiteMatches) {
    const Library lib = load_msu_big();
    for (const Benchmark& b : paper_suite(0.25)) {
        for (const bool lily : {false, true}) {
            const FlowResult res =
                (lily ? run_lily_flow_checked(b.network, lib, oracle_flow_options())
                      : run_baseline_flow_checked(b.network, lib, oracle_flow_options()))
                    .take_or_raise();
            expect_matches_oracle(res.netlist, lib, res.final_positions, res.pad_positions,
                                  b.name + (lily ? " lily" : " baseline"));
        }
    }
}

TEST(TimingOracle, EcoChainMatches) {
    const Library lib = load_msu_big();
    const Network net = make_control_logic(32, 16, 300, 0x57A0, "sta_oracle");
    StatusOr<PipelineState> built = build_pipeline(net, lib, oracle_flow_options());
    ASSERT_TRUE(built.is_ok()) << built.status().to_string();
    PipelineState state = std::move(built).value();
    for (std::uint64_t edit = 0; edit < 6; ++edit) {
        const StatusOr<EcoStats> eco =
            run_eco_flow_checked(state, local_delta(state.net, 3, 0x57A1 + edit));
        ASSERT_TRUE(eco.is_ok()) << eco.status().to_string();
        expect_matches_oracle(state.flow.netlist, lib, state.flow.final_positions,
                              state.flow.pad_positions, "edit " + std::to_string(edit));
    }
}

TEST(TimingOracle, UndrivenAndFarIdsMatch) {
    // Ids near the top of the SubjectId range index no table: a consistent
    // netlist over them times exactly like the original, and a pin fed by
    // an id nothing defines stays undriven (arrival 0), as before.
    Rng rng(16);
    Network net("far");
    std::vector<NodeId> pool;
    for (int i = 0; i < 6; ++i) pool.push_back(net.add_input("i" + std::to_string(i)));
    for (int i = 0; i < 40; ++i) {
        const NodeId a = pool[rng.next_below(pool.size())];
        const NodeId b = pool[rng.next_below(pool.size())];
        pool.push_back(a == b ? net.make_not(a) : net.make_nand(std::array{a, b}));
    }
    for (int i = 0; i < 3; ++i) net.add_output("o" + std::to_string(i), pool[pool.size() - 1 - i]);
    net.sweep();
    Placed p = map_and_place(net);
    const auto far = [](SubjectId s) { return kNullSubject - 1 - s; };
    MappedNetlist shifted = p.netlist;
    for (SubjectId& s : shifted.subject_inputs) s = far(s);
    for (GateInstance& g : shifted.gates) {
        g.driver = far(g.driver);
        for (SubjectId& in : g.inputs) in = far(in);
    }
    for (MappedOutput& po : shifted.outputs) po.driver = far(po.driver);
    shifted.bump_version();
    shifted.check(p.lib);
    expect_matches_oracle(shifted, p.lib, p.positions, p.view.netlist.pad_positions, "far ids");

    ASSERT_FALSE(shifted.gates.empty());
    shifted.gates.back().inputs[0] = kNullSubject - 2 * 1024 * 1024;  // undefined
    shifted.bump_version();
    EXPECT_THROW(shifted.check(p.lib), std::logic_error);
    expect_matches_oracle(shifted, p.lib, p.positions, p.view.netlist.pad_positions,
                          "undriven pin");
}

}  // namespace
}  // namespace lily
