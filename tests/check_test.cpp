// The checkers must stay quiet on healthy pipelines and loud on corrupted
// ones: each test deliberately breaks one invariant (a cycle, an off-chip
// cell, a functionally wrong cover...) and asserts the matching checker
// reports the right CheckIssue.
#include <gtest/gtest.h>

#include <array>

#include "check/mapped_checker.hpp"
#include "check/match_checker.hpp"
#include "check/placement_checker.hpp"
#include "check/subject_checker.hpp"
#include "circuits/benchmarks.hpp"
#include "flow/flow.hpp"
#include "library/standard_cells.hpp"
#include "map/base_mapper.hpp"
#include "place/netlist_adapters.hpp"
#include "subject/decompose.hpp"

namespace lily {
namespace {

bool has_error(const CheckReport& rep, CheckStage stage, std::string_view needle) {
    for (const CheckIssue& i : rep.issues()) {
        if (i.severity == CheckSeverity::Error && i.stage == stage &&
            i.message.find(needle) != std::string::npos) {
            return true;
        }
    }
    return false;
}

Network small_net() {
    Network net("small");
    const NodeId a = net.add_input("a");
    const NodeId b = net.add_input("b");
    const NodeId c = net.add_input("c");
    const NodeId ab = net.make_and2(a, b);
    const NodeId y = net.make_xor2(ab, c);
    net.add_output("y", y);
    return net;
}

// ---- CheckReport ------------------------------------------------------

TEST(CheckReport, CountsAndThrow) {
    CheckReport rep;
    EXPECT_TRUE(rep.empty());
    EXPECT_NO_THROW(rep.throw_if_errors("ctx"));
    rep.warning(CheckStage::Network, 3, "just a smell");
    EXPECT_FALSE(rep.has_errors());
    EXPECT_NO_THROW(rep.throw_if_errors("ctx"));
    rep.error(CheckStage::Placement, 7, "off chip");
    EXPECT_EQ(rep.error_count(), 1u);
    EXPECT_EQ(rep.warning_count(), 1u);
    EXPECT_TRUE(rep.mentions("off chip"));
    EXPECT_THROW(rep.throw_if_errors("ctx"), std::logic_error);
    const std::string text = rep.to_string();
    EXPECT_NE(text.find("error [placement] node 7: off chip"), std::string::npos);
    EXPECT_NE(text.find("warning [network] node 3: just a smell"), std::string::npos);
}

TEST(CheckLevelParse, TextAndEnvFallback) {
    EXPECT_EQ(parse_check_level("off"), CheckLevel::Off);
    EXPECT_EQ(parse_check_level("Light"), CheckLevel::Light);
    EXPECT_EQ(parse_check_level("PARANOID"), CheckLevel::Paranoid);
    EXPECT_EQ(parse_check_level("bogus", CheckLevel::Light), CheckLevel::Light);
}

// ---- SubjectChecker ---------------------------------------------------

TEST(SubjectChecker, CleanDecompositionPassesParanoid) {
    const Network net = make_symmetric9();
    const DecomposeResult sub = decompose(net);
    const CheckReport rep = SubjectChecker{}.check_against_source(sub.graph, net);
    EXPECT_FALSE(rep.has_errors()) << rep.to_string();
}

TEST(SubjectChecker, DetectsWrongDecomposition) {
    // Source computes AND(a, b); the "decomposition" computes NAND(a, b).
    Network net("src");
    const NodeId a = net.add_input("a");
    const NodeId b = net.add_input("b");
    net.add_output("y", net.make_and2(a, b));

    SubjectGraph g("wrong");
    const SubjectId sa = g.add_input("a", a);
    const SubjectId sb = g.add_input("b", b);
    g.add_output("y", g.add_nand(sa, sb));
    EXPECT_FALSE(SubjectChecker{}.check(g).has_errors());
    EXPECT_TRUE(has_error(SubjectChecker{}.check_against_source(g, net), CheckStage::Subject,
                          "not equivalent"));
}

TEST(SubjectChecker, DetectsBrokenFanoutEdge) {
    SubjectGraph g("broken");
    const SubjectId a = g.add_input("a", 0);
    const SubjectId b = g.add_input("b", 1);
    const SubjectId n = g.add_nand(a, b);
    g.add_output("y", n);
    // Corrupt: drop a's record of feeding n (tests need mutable access the
    // API deliberately withholds).
    const_cast<SubjectNode&>(g.node(a)).fanouts.clear();
    const CheckReport rep = SubjectChecker{}.check(g);
    EXPECT_TRUE(has_error(rep, CheckStage::Subject, "missing fanout edge"));
}

// ---- MatchChecker -----------------------------------------------------

struct MatchFixture {
    Library lib = load_msu_big();
    SubjectGraph g{"m"};
    SubjectId a = g.add_input("a", 0);
    SubjectId b = g.add_input("b", 1);
    SubjectId nand_ab = g.add_nand(a, b);
    SubjectId and_ab = g.add_inv(nand_ab);  // AND(a,b) as NAND+INV

    GateId find(const char* name) const {
        const auto id = lib.find(name);
        EXPECT_TRUE(id.has_value()) << name;
        return *id;
    }
};

TEST(MatchChecker, EveryGeneratedMatchVerifies) {
    MatchFixture f;
    f.g.add_output("y", f.and_ab);
    const CheckReport rep = MatchChecker(f.lib).check_all(f.g);
    EXPECT_TRUE(rep.empty()) << rep.to_string();
}

TEST(MatchChecker, DetectsWrongFunctionCover) {
    MatchFixture f;
    // Claim the NAND cone is an AND gate: structurally legal (same shape as
    // the and2 pattern minus the output inverter) but functionally wrong.
    Match m;
    m.gate = f.find("and2");
    m.pattern_index = 0;
    m.inputs = {f.a, f.b};
    m.covered = {f.nand_ab};
    EXPECT_FALSE(MatchChecker(f.lib).check(f.g, m).has_errors());
    EXPECT_TRUE(has_error(MatchChecker(f.lib).check_function(f.g, m), CheckStage::Match,
                          "not functionally equivalent"));
}

TEST(MatchChecker, DetectsUnclosedCover) {
    MatchFixture f;
    // and2 rooted at the INV but claiming only one input: the NAND's other
    // fanin is neither covered nor bound.
    Match m;
    m.gate = f.find("and2");
    m.pattern_index = 0;
    m.inputs = {f.a, f.a};
    m.covered = {f.nand_ab, f.and_ab};
    EXPECT_TRUE(
        has_error(MatchChecker(f.lib).check(f.g, m), CheckStage::Match, "not closed"));
}

TEST(MatchChecker, DetectsPinCountMismatch) {
    MatchFixture f;
    Match m;
    m.gate = f.find("inv1");
    m.pattern_index = 0;
    m.inputs = {f.a, f.b};  // inverter has one pin
    m.covered = {f.nand_ab};
    EXPECT_TRUE(has_error(MatchChecker(f.lib).check(f.g, m), CheckStage::Match, "pins"));
}

TEST(MatchChecker, DetectsInputCoveredOverlap) {
    MatchFixture f;
    Match m;
    m.gate = f.find("inv1");
    m.pattern_index = 0;
    m.inputs = {f.nand_ab};
    m.covered = {f.nand_ab};  // same node bound and covered: a loop
    EXPECT_TRUE(has_error(MatchChecker(f.lib).check(f.g, m), CheckStage::Match,
                          "both a bound input and covered"));
}

// ---- PlacementChecker -------------------------------------------------

struct PlacementFixture {
    PlacementNetlist nl;
    Rect region{{-10.0, -10.0}, {10.0, 10.0}};

    PlacementFixture() {
        nl.n_cells = 4;
        nl.cell_area = {1.0, 1.0, 2.0, 2.0};
        nl.pad_positions = {{-10.0, 0.0}, {10.0, 0.0}};
        PlacementNetlist::Net net;
        net.cells = {0, 1, 2, 3};
        net.pads = {0, 1};
        nl.nets.push_back(net);
    }
};

TEST(PlacementChecker, CleanGlobalAndDetailedPass) {
    PlacementFixture f;
    const GlobalPlacement gp = place_global(f.nl, f.region);
    const DetailedPlacement dp = legalize_rows(f.nl, gp);
    const PlacementChecker checker;
    EXPECT_FALSE(checker.check_global(f.nl, gp).has_errors());
    EXPECT_FALSE(checker.check_detailed(f.nl, dp).has_errors());
    EXPECT_FALSE(checker.check_pads(place_pads(f.nl, f.region), f.region).has_errors());
}

TEST(PlacementChecker, DetectsOutOfRegionPosition) {
    PlacementFixture f;
    GlobalPlacement gp = place_global(f.nl, f.region);
    gp.positions[2] = {1e6, -3.0};
    EXPECT_TRUE(has_error(PlacementChecker{}.check_global(f.nl, gp), CheckStage::Placement,
                          "outside region"));
}

TEST(PlacementChecker, DetectsNonFinitePosition) {
    PlacementFixture f;
    GlobalPlacement gp = place_global(f.nl, f.region);
    gp.positions[0].x = std::numeric_limits<double>::quiet_NaN();
    EXPECT_TRUE(has_error(PlacementChecker{}.check_global(f.nl, gp), CheckStage::Placement,
                          "not finite"));
}

TEST(PlacementChecker, DetectsRowMisalignment) {
    PlacementFixture f;
    const GlobalPlacement gp = place_global(f.nl, f.region);
    DetailedPlacement dp = legalize_rows(f.nl, gp);
    dp.positions[1].y += dp.region.height() / 3.0;  // knock the cell off its row
    EXPECT_TRUE(has_error(PlacementChecker{}.check_detailed(f.nl, dp), CheckStage::Placement,
                          "not aligned to row"));
    dp = legalize_rows(f.nl, gp);
    dp.row_of[0] = 99;
    EXPECT_TRUE(has_error(PlacementChecker{}.check_detailed(f.nl, dp), CheckStage::Placement,
                          "out of range"));
}

TEST(PlacementChecker, DetectsPadOffBoundary) {
    PlacementFixture f;
    std::vector<Point> pads = place_pads(f.nl, f.region);
    pads[0] = f.region.center();
    EXPECT_TRUE(has_error(PlacementChecker{}.check_pads(pads, f.region), CheckStage::Placement,
                          "not on the region boundary"));
}

TEST(PlacementChecker, DetectsBadNetIndices) {
    PlacementFixture f;
    f.nl.nets[0].cells.push_back(17);
    EXPECT_TRUE(has_error(PlacementChecker{}.check_netlist(f.nl), CheckStage::Placement,
                          "references cell"));
}

// ---- MappedChecker ----------------------------------------------------

struct MappedFixture {
    Library lib = load_msu_big();
    Network net = small_net();
    DecomposeResult sub = decompose(net);
    MapResult mapped = BaseMapper(lib).map(sub.graph);
};

TEST(MappedChecker, CleanMappingPassesParanoid) {
    MappedFixture f;
    const CheckReport rep = MappedChecker(f.lib).check_against(f.mapped.netlist, f.net);
    EXPECT_FALSE(rep.has_errors()) << rep.to_string();
}

TEST(MappedChecker, DetectsWrongFunctionCover) {
    MappedFixture f;
    // Swap one instance's gate for a same-arity gate with a different truth
    // table: structure stays legal, the function changes.
    bool swapped = false;
    for (GateInstance& inst : f.mapped.netlist.gates) {
        const Gate& current = f.lib.gate(inst.gate);
        for (GateId g = 0; g < f.lib.size() && !swapped; ++g) {
            if (g != inst.gate && f.lib.gate(g).n_inputs() == current.n_inputs() &&
                !(f.lib.gate(g).function == current.function)) {
                inst.gate = g;
                swapped = true;
            }
        }
        if (swapped) break;
    }
    ASSERT_TRUE(swapped);
    const MappedChecker checker(f.lib);
    EXPECT_FALSE(checker.check(f.mapped.netlist).has_errors());  // structure still fine
    EXPECT_TRUE(has_error(checker.check_against(f.mapped.netlist, f.net), CheckStage::Mapped,
                          "not equivalent"));
}

TEST(MappedChecker, DetectsDoubleDriverAndUndrivenPin) {
    MappedFixture f;
    MappedNetlist broken = f.mapped.netlist;
    broken.gates.push_back(broken.gates.back());
    EXPECT_TRUE(
        has_error(MappedChecker(f.lib).check(broken), CheckStage::Mapped, "driven twice"));

    broken = f.mapped.netlist;
    broken.gates.back().inputs[0] = 4095;  // no such signal
    EXPECT_TRUE(has_error(MappedChecker(f.lib).check(broken), CheckStage::Mapped,
                          "neither a subject input nor driven"));
}

TEST(MappedChecker, TimingMonotonicityAndLoads) {
    MappedFixture f;
    MappedPlacementView view = make_placement_view(f.mapped.netlist, f.lib);
    const Rect region = make_region(view.netlist.total_cell_area());
    view.netlist.pad_positions = place_pads(view.netlist, region);
    const GlobalPlacement gp = place_global(view.netlist, region);
    TimingReport timing = analyze_timing(f.mapped.netlist, f.lib, view, gp.positions);

    const MappedChecker checker(f.lib);
    EXPECT_FALSE(checker.check_timing(f.mapped.netlist, timing).has_errors());

    TimingReport negative = timing;
    negative.arrival.back() = {-1.0, -1.0};
    EXPECT_TRUE(has_error(checker.check_timing(f.mapped.netlist, negative), CheckStage::Mapped,
                          "negative arrival"));

    // Zeroing a sink's arrival while its driver keeps a later one breaks
    // monotonicity (only when some instance feeds another one).
    bool has_internal_edge = false;
    TimingReport frozen = timing;
    for (std::size_t i = 0; i < f.mapped.netlist.gates.size() && !has_internal_edge; ++i) {
        for (const SubjectId in : f.mapped.netlist.gates[i].inputs) {
            const std::size_t src = f.mapped.netlist.instance_driving(in);
            if (src != MappedNetlist::npos && frozen.arrival[src].worst() > 0.0) {
                frozen.arrival[i] = {0.0, 0.0};
                has_internal_edge = true;
                break;
            }
        }
    }
    ASSERT_TRUE(has_internal_edge);
    EXPECT_TRUE(has_error(checker.check_timing(f.mapped.netlist, frozen), CheckStage::Mapped,
                          "monotonicity"));

    TimingReport light_load = timing;
    light_load.load.assign(light_load.load.size(), 0.0);
    EXPECT_TRUE(has_error(checker.check_timing(f.mapped.netlist, light_load),
                          CheckStage::Mapped, "below the connected pin capacitance"));
}

// ---- Flow integration -------------------------------------------------

TEST(FlowCheck, ParanoidPipelinesStayQuiet) {
    const Library lib = load_msu_big();
    const Network net = make_priority_controller(8);
    FlowOptions opts;
    opts.check = CheckLevel::Paranoid;
    EXPECT_NO_THROW(run_baseline_flow(net, lib, opts));
    EXPECT_NO_THROW(run_lily_flow(net, lib, opts));
    opts.objective = MapObjective::Delay;
    EXPECT_NO_THROW(run_baseline_flow(net, lib, opts));
    EXPECT_NO_THROW(run_lily_flow(net, lib, opts));
}

}  // namespace
}  // namespace lily
