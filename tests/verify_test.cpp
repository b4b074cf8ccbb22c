// The formal equivalence engine: SAT core, AIG lowering, SAT-sweeping CEC,
// interface alignment, netlist lint, and the flow's verify stage.
#include <gtest/gtest.h>

#include <array>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <vector>

#include "check/mapped_checker.hpp"
#include "flow/flow.hpp"
#include "flow/pipeline.hpp"
#include "library/standard_cells.hpp"
#include "map/base_mapper.hpp"
#include "netlist/blif.hpp"
#include "netlist/delta.hpp"
#include "netlist/interface.hpp"
#include "netlist/simulate.hpp"
#include "subject/decompose.hpp"
#include "util/fault.hpp"
#include "util/rng.hpp"
#include "verify/aig.hpp"
#include "verify/cec.hpp"
#include "verify/lint.hpp"
#include "verify/sat.hpp"

namespace lily {
namespace {

class FaultGuard {
public:
    explicit FaultGuard(std::string spec) { set_fault_spec(std::move(spec)); }
    ~FaultGuard() { set_fault_spec(""); }
};

std::vector<std::string> example_circuits() {
    std::vector<std::string> paths;
    const std::string dir = std::string(LILY_SOURCE_DIR) + "/examples/circuits";
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
        if (entry.path().extension() == ".blif") paths.push_back(entry.path().string());
    }
    std::sort(paths.begin(), paths.end());
    return paths;
}

// ------------------------------------------------------------------- SAT

TEST(Sat, EmptyInstanceIsSat) {
    SatSolver s;
    EXPECT_EQ(s.solve(), SatResult::Sat);
}

TEST(Sat, SingleUnitClause) {
    SatSolver s;
    const int x = s.new_var();
    s.add_clause({x});
    ASSERT_EQ(s.solve(), SatResult::Sat);
    EXPECT_TRUE(s.model_value(x));
}

TEST(Sat, ContradictingUnitsAreUnsat) {
    SatSolver s;
    const int x = s.new_var();
    s.add_clause({x});
    s.add_clause({-x});
    EXPECT_EQ(s.solve(), SatResult::Unsat);
}

TEST(Sat, UnitPropagationChainNeedsNoDecisions) {
    // x1, and x_i -> x_{i+1}: everything is forced at the root level.
    SatSolver s;
    std::vector<int> v;
    for (int i = 0; i < 12; ++i) v.push_back(s.new_var());
    for (int i = 0; i + 1 < 12; ++i) s.add_clause({-v[i], v[i + 1]});
    s.add_clause({v[0]});
    ASSERT_EQ(s.solve(), SatResult::Sat);
    for (const int x : v) EXPECT_TRUE(s.model_value(x));
    EXPECT_EQ(s.stats().decisions, 0u);
}

TEST(Sat, ConflictLearningProvesSmallUnsat) {
    // (x1|x2)(x1|!x2)(!x1|x3)(!x1|!x3): forcing x1 both ways dead-ends.
    SatSolver s;
    const int x1 = s.new_var();
    const int x2 = s.new_var();
    const int x3 = s.new_var();
    s.add_clause({x1, x2});
    s.add_clause({x1, -x2});
    s.add_clause({-x1, x3});
    s.add_clause({-x1, -x3});
    EXPECT_EQ(s.solve(), SatResult::Unsat);
    EXPECT_GE(s.stats().conflicts, 1u);
}

/// 4 pigeons into 3 holes: the classic resolution-hard UNSAT family.
void build_pigeonhole(SatSolver& s, int pigeons, int holes, std::vector<std::vector<int>>& p) {
    p.assign(pigeons, std::vector<int>(holes));
    for (int i = 0; i < pigeons; ++i) {
        for (int j = 0; j < holes; ++j) p[i][j] = s.new_var();
    }
    for (int i = 0; i < pigeons; ++i) s.add_clause(p[i]);
    for (int j = 0; j < holes; ++j) {
        for (int i = 0; i < pigeons; ++i) {
            for (int k = i + 1; k < pigeons; ++k) s.add_clause({-p[i][j], -p[k][j]});
        }
    }
}

TEST(Sat, PigeonholeFourIntoThreeIsUnsat) {
    SatSolver s;
    std::vector<std::vector<int>> p;
    build_pigeonhole(s, 4, 3, p);
    EXPECT_EQ(s.solve(), SatResult::Unsat);
    EXPECT_GE(s.stats().conflicts, 2u);
}

TEST(Sat, PigeonholeThreeIntoThreeModelIsAMatching) {
    SatSolver s;
    std::vector<std::vector<int>> p;
    build_pigeonhole(s, 3, 3, p);
    ASSERT_EQ(s.solve(), SatResult::Sat);
    // The model must place every pigeon and never share a hole.
    std::array<int, 3> hole_of = {-1, -1, -1};
    for (int i = 0; i < 3; ++i) {
        int placed = 0;
        for (int j = 0; j < 3; ++j) {
            if (s.model_value(p[i][j])) {
                ++placed;
                EXPECT_EQ(hole_of[j], -1) << "hole " << j << " shared";
                hole_of[j] = i;
            }
        }
        EXPECT_GE(placed, 1);
    }
}

TEST(Sat, PigeonholeSixIntoFiveSurvivesManyAnalyzeRounds) {
    // Regression: conflict analysis once leaked a seen_ flag through the
    // literal swapped into the learnt clause's watch slot, which corrupted
    // the trail walk of a *later* analyze on instances with enough
    // conflicts. PH(6,5) drives thousands of analyze rounds.
    SatSolver s;
    std::vector<std::vector<int>> p;
    build_pigeonhole(s, 6, 5, p);
    EXPECT_EQ(s.solve(), SatResult::Unsat);
    EXPECT_GE(s.stats().learned, 10u);
}

TEST(Sat, RandomThreeSatAgreesWithBruteForce) {
    // 12-variable random 3-SAT at varying densities, cross-checked against
    // exhaustive enumeration. Exercises learning, restarts and phase saving
    // on both satisfiable and unsatisfiable instances.
    Rng rng(0x3A7);
    const int n = 12;
    for (int round = 0; round < 40; ++round) {
        const int n_clauses = 30 + static_cast<int>(rng.next_u64() % 40);
        std::vector<std::array<int, 3>> cnf;
        for (int c = 0; c < n_clauses; ++c) {
            std::array<int, 3> cl;
            for (int k = 0; k < 3; ++k) {
                const int v = 1 + static_cast<int>(rng.next_u64() % n);
                cl[k] = (rng.next_u64() & 1) != 0 ? v : -v;
            }
            cnf.push_back(cl);
        }
        bool brute_sat = false;
        for (std::uint32_t m = 0; m < (1u << n) && !brute_sat; ++m) {
            bool all = true;
            for (const auto& cl : cnf) {
                bool any = false;
                for (const int l : cl) {
                    const bool val = (m >> (std::abs(l) - 1)) & 1;
                    if (l > 0 ? val : !val) any = true;
                }
                if (!any) { all = false; break; }
            }
            brute_sat = all;
        }
        SatSolver s;
        for (int v = 0; v < n; ++v) s.new_var();
        for (const auto& cl : cnf) s.add_clause({cl[0], cl[1], cl[2]});
        const SatResult res = s.solve();
        ASSERT_EQ(res, brute_sat ? SatResult::Sat : SatResult::Unsat) << "round " << round;
        if (res == SatResult::Sat) {
            for (const auto& cl : cnf) {
                bool any = false;
                for (const int l : cl) {
                    if (l > 0 ? s.model_value(l) : !s.model_value(-l)) any = true;
                }
                EXPECT_TRUE(any) << "round " << round << ": model violates a clause";
            }
        }
    }
}

TEST(Sat, ConflictBudgetReturnsUnknown) {
    SatSolver s;
    std::vector<std::vector<int>> p;
    build_pigeonhole(s, 5, 4, p);
    EXPECT_EQ(s.solve(1), SatResult::Unknown);
}

// ------------------------------------------------------------------- AIG

TEST(Aig, TrivialRulesAndStructuralHashing) {
    Aig aig;
    const AigLit x = aig_lit(aig.add_input(), false);
    const AigLit y = aig_lit(aig.add_input(), false);
    EXPECT_EQ(aig.make_and(x, kAigFalse), kAigFalse);
    EXPECT_EQ(aig.make_and(x, kAigTrue), x);
    EXPECT_EQ(aig.make_and(x, x), x);
    EXPECT_EQ(aig.make_and(x, aig_not(x)), kAigFalse);
    const AigLit a1 = aig.make_and(x, y);
    const AigLit a2 = aig.make_and(y, x);  // canonical order: same node
    EXPECT_EQ(a1, a2);
    EXPECT_EQ(aig.and_count(), 1u);
}

TEST(Aig, SimulateXor) {
    Aig aig;
    const AigLit x = aig_lit(aig.add_input(), false);
    const AigLit y = aig_lit(aig.add_input(), false);
    const AigLit z = aig.make_xor(x, y);
    const std::array<std::uint64_t, 2> words = {0b1100u, 0b1010u};
    const std::vector<std::uint64_t> value = aig.simulate(words);
    const std::uint64_t got =
        value[aig_node(z)] ^ (aig_sign(z) ? ~0ULL : 0ULL);
    EXPECT_EQ(got & 0xFu, 0b0110u);
}

/// Property: lowering a network into an AIG preserves its simulation
/// semantics on every example circuit.
TEST(Aig, LowerNetworkMatchesSimulateBlockOnExamples) {
    for (const std::string& path : example_circuits()) {
        SCOPED_TRACE(path);
        const Network net = read_blif_file(path);
        Aig aig;
        std::vector<AigLit> pi_lits(net.inputs().size());
        for (AigLit& l : pi_lits) l = aig_lit(aig.add_input(), false);
        const std::vector<AigLit> lit = lower_network(net, aig, pi_lits);

        Rng rng(0xA16);
        for (int block = 0; block < 4; ++block) {
            std::vector<std::uint64_t> words(net.inputs().size());
            for (std::uint64_t& w : words) w = rng.next_u64();
            const std::vector<std::uint64_t> aig_val = aig.simulate(words);
            const std::vector<std::uint64_t> net_val = simulate_block(net, words);
            for (const PrimaryOutput& po : net.outputs()) {
                const AigLit l = lit[po.driver];
                const std::uint64_t got =
                    aig_val[aig_node(l)] ^ (aig_sign(l) ? ~0ULL : 0ULL);
                EXPECT_EQ(got, net_val[po.driver]) << "PO " << po.name;
            }
        }
    }
}

// ------------------------------------------------- interface alignment

Network two_input_and(const std::string& pi0, const std::string& pi1) {
    Network net("and2");
    const NodeId a = net.add_input(pi0);
    const NodeId b = net.add_input(pi1);
    net.add_output("f", net.make_and2(a, b));
    return net;
}

TEST(AlignInterfaces, PermutedPisAlignByName) {
    const Network a = two_input_and("x", "y");
    const Network b = two_input_and("y", "x");
    const StatusOr<InterfaceAlignment> align = align_interfaces(a, b);
    ASSERT_TRUE(align.is_ok());
    EXPECT_EQ(align.value().pi_of_b[0], 1u);
    EXPECT_EQ(align.value().pi_of_b[1], 0u);
    const StatusOr<bool> eq = equivalent_random_checked(a, b, 4, 7);
    ASSERT_TRUE(eq.is_ok());
    EXPECT_TRUE(eq.value());  // AND commutes
}

TEST(AlignInterfaces, NameSetMismatchIsLoud) {
    const Network a = two_input_and("x", "y");
    const Network b = two_input_and("x", "z");
    const StatusOr<InterfaceAlignment> align = align_interfaces(a, b);
    ASSERT_FALSE(align.is_ok());
    EXPECT_EQ(align.status().code(), StatusCode::InvariantViolation);

    const StatusOr<bool> eq = equivalent_random_checked(a, b, 4, 7);
    EXPECT_FALSE(eq.is_ok());
    // The historical bool API must not silently report "not equivalent".
    EXPECT_THROW(equivalent_random(a, b, 4, 7), std::logic_error);
}

TEST(AlignInterfaces, CountMismatchIsLoud) {
    const Network a = two_input_and("x", "y");
    Network b("bigger");
    const NodeId x = b.add_input("x");
    const NodeId y = b.add_input("y");
    b.add_input("z");
    b.add_output("f", b.make_and2(x, y));
    EXPECT_FALSE(align_interfaces(a, b).is_ok());
}

// ------------------------------------------------------------------- CEC

TEST(Cec, ProvesMappedExamplesEquivalent) {
    const Library lib = load_msu_big();
    for (const std::string& path : example_circuits()) {
        SCOPED_TRACE(path);
        const Network net = read_blif_file(path);
        const MapResult mapped = BaseMapper(lib).map(decompose(net).graph);
        const StatusOr<CecResult> cec =
            check_equivalence(net, mapped.netlist.to_network(lib));
        ASSERT_TRUE(cec.is_ok()) << cec.status().to_string();
        EXPECT_EQ(cec.value().verdict, CecVerdict::Proven);
        EXPECT_FALSE(cec.value().cex.has_value());
    }
}

TEST(Cec, SweepingMergesNodes) {
    const Library lib = load_msu_big();
    const Network net =
        read_blif_file(std::string(LILY_SOURCE_DIR) + "/examples/circuits/parity8.blif");
    const MapResult mapped = BaseMapper(lib).map(decompose(net).graph);
    const StatusOr<CecResult> cec = check_equivalence(net, mapped.netlist.to_network(lib));
    ASSERT_TRUE(cec.is_ok());
    EXPECT_EQ(cec.value().verdict, CecVerdict::Proven);
    EXPECT_GT(cec.value().stats.merged_nodes, 0u);
    EXPECT_GT(cec.value().stats.sat_unsat, 0u);
}

TEST(Cec, RefutesFlippedGateWithReplayableCounterexample) {
    const Library lib = load_msu_big();
    const Network net =
        read_blif_file(std::string(LILY_SOURCE_DIR) + "/examples/circuits/full_adder.blif");
    MapResult mapped = BaseMapper(lib).map(decompose(net).graph);
    ASSERT_TRUE(inject_wrong_cover(mapped.netlist, lib));
    const Network impl = mapped.netlist.to_network(lib);

    const StatusOr<CecResult> cec_or = check_equivalence(net, impl);
    ASSERT_TRUE(cec_or.is_ok()) << cec_or.status().to_string();
    const CecResult& cec = cec_or.value();
    ASSERT_EQ(cec.verdict, CecVerdict::Refuted);
    ASSERT_TRUE(cec.cex.has_value());
    ASSERT_FALSE(cec.cex->mismatches.empty());

    // Replay the counterexample ourselves: the engine's diff must hold
    // under an independent simulate_block run on both circuits.
    const InterfaceAlignment align = align_interfaces(net, impl).value();
    std::vector<std::uint64_t> ins_a(net.inputs().size());
    for (std::size_t i = 0; i < ins_a.size(); ++i) {
        ins_a[i] = cec.cex->pi_values[i] ? ~0ULL : 0ULL;
    }
    std::vector<std::uint64_t> ins_b(impl.inputs().size());
    for (std::size_t i = 0; i < ins_b.size(); ++i) ins_b[i] = ins_a[align.pi_of_b[i]];
    const std::vector<std::uint64_t> va = simulate_block(net, ins_a);
    const std::vector<std::uint64_t> vb = simulate_block(impl, ins_b);
    for (const Counterexample::Mismatch& m : cec.cex->mismatches) {
        std::size_t j = 0;
        while (impl.outputs()[j].name != m.po_name) ++j;
        const bool bit_a = (va[net.outputs()[align.po_of_b[j]].driver] & 1) != 0;
        const bool bit_b = (vb[impl.outputs()[j].driver] & 1) != 0;
        EXPECT_EQ(bit_a, m.value_a);
        EXPECT_EQ(bit_b, m.value_b);
        EXPECT_NE(bit_a, bit_b);
    }
}

TEST(Cec, TinyOutputBudgetIsInconclusiveNeverWrong) {
    // Two equivalent but structurally different parity trees: a proof needs
    // real search, so a one-conflict budget cannot finish — and must come
    // back Inconclusive, not Refuted.
    const unsigned n = 10;
    Network chain("chain");
    Network tree("tree");
    std::vector<NodeId> ci, ti;
    for (unsigned i = 0; i < n; ++i) {
        ci.push_back(chain.add_input("x" + std::to_string(i)));
        ti.push_back(tree.add_input("x" + std::to_string(i)));
    }
    NodeId acc = ci[0];
    for (unsigned i = 1; i < n; ++i) acc = chain.make_xor2(acc, ci[i]);
    chain.add_output("p", acc);
    while (ti.size() > 1) {
        std::vector<NodeId> next;
        for (std::size_t i = 0; i + 1 < ti.size(); i += 2) {
            next.push_back(tree.make_xor2(ti[i], ti[i + 1]));
        }
        if (ti.size() % 2 != 0) next.push_back(ti.back());
        ti = next;
    }
    tree.add_output("p", ti[0]);

    CecOptions opts;
    opts.sweep = false;
    opts.output_conflict_budget = 1;
    const StatusOr<CecResult> budgeted = check_equivalence(chain, tree, opts);
    ASSERT_TRUE(budgeted.is_ok());
    EXPECT_EQ(budgeted.value().verdict, CecVerdict::Inconclusive);
    EXPECT_FALSE(budgeted.value().note.empty());

    const StatusOr<CecResult> full = check_equivalence(chain, tree);
    ASSERT_TRUE(full.is_ok());
    EXPECT_EQ(full.value().verdict, CecVerdict::Proven);
}

// ------------------------------------------------------------------ lint

TEST(Lint, CleanExamplesHaveNoFindings) {
    for (const std::string& path : example_circuits()) {
        SCOPED_TRACE(path);
        const CheckReport rep = lint_network(read_blif_file(path));
        EXPECT_TRUE(rep.empty()) << rep.to_string();
    }
}

TEST(Lint, FlagsCombinationalCycle) {
    Network net("cyc");
    const NodeId x = net.add_input("x");
    const NodeId n1 = net.make_and2(x, x);
    const NodeId n2 = net.make_and2(n1, x);
    net.add_output("f", n2);
    net.node(n1).fanins[1] = n2;  // forward edge: n1 -> n2 -> n1
    const CheckReport rep = lint_network(net);
    EXPECT_TRUE(rep.has_errors());
    EXPECT_TRUE(rep.mentions("cycle")) << rep.to_string();
}

TEST(Lint, FlagsSelfLoop) {
    Network net("self");
    const NodeId x = net.add_input("x");
    const NodeId n1 = net.make_and2(x, x);
    net.add_output("f", n1);
    net.node(n1).fanins[0] = n1;
    const CheckReport rep = lint_network(net);
    EXPECT_TRUE(rep.has_errors());
    EXPECT_TRUE(rep.mentions("self-loop")) << rep.to_string();
}

TEST(Lint, FlagsFloatingInputAndDeadCone) {
    Network net("float");
    const NodeId x = net.add_input("x");
    const NodeId y = net.add_input("y");
    net.add_input("unused");
    net.add_output("f", net.make_and2(x, y));
    net.make_or2(x, y);  // drives nothing
    const CheckReport rep = lint_network(net);
    EXPECT_FALSE(rep.has_errors());
    EXPECT_TRUE(rep.mentions("floating input")) << rep.to_string();
    EXPECT_TRUE(rep.mentions("dead cone")) << rep.to_string();
}

TEST(Lint, FlagsConstantMergeableLogic) {
    Network net("const0");
    const NodeId x = net.add_input("x");
    const NodeId inv = net.make_not(x);
    net.add_output("f", net.make_and2(x, inv));  // x & !x == 0
    const CheckReport rep = lint_network(net);
    EXPECT_TRUE(rep.mentions("constant 0")) << rep.to_string();
}

TEST(Lint, FlagsDuplicateOutputName) {
    Network net("dup");
    const NodeId x = net.add_input("x");
    const NodeId n = net.make_and2(x, x);
    net.add_output("f", n);
    net.add_output("f", n);
    const CheckReport rep = lint_network(net);
    EXPECT_TRUE(rep.has_errors());
    EXPECT_TRUE(rep.mentions("declared more than once")) << rep.to_string();
}

TEST(Lint, FlagsDeadFaninAndDeadPoDriver) {
    Network net("deadf");
    const NodeId x = net.add_input("x");
    const NodeId y = net.add_input("y");
    const NodeId a = net.make_and2(x, y);
    const NodeId b = net.make_or2(a, x);
    net.add_output("f", b);
    net.node(a).dead = true;
    const CheckReport rep = lint_network(net);
    EXPECT_TRUE(rep.has_errors());
    EXPECT_TRUE(rep.mentions("reads dead node")) << rep.to_string();
}

// The structural checks: each case breaks one invariant of a small
// healthy network in place.

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

bool has_error(const CheckReport& rep, std::string_view needle) {
    for (const CheckIssue& i : rep.issues()) {
        if (i.severity == CheckSeverity::Error && i.stage == CheckStage::Verify &&
            i.message.find(needle) != std::string::npos) {
            return true;
        }
    }
    return false;
}

TEST(LintStructure, CleanNetworkHasNoIssues) {
    const CheckReport rep = lint_network(small_net());
    EXPECT_FALSE(rep.has_errors());
    EXPECT_EQ(rep.warning_count(), 0u);
}

TEST(LintStructure, DetectsCycle) {
    Network net = small_net();
    // Point an early logic node's fanin at the last node: a back edge that
    // breaks the id-order invariant standing in for acyclicity.
    const NodeId last = static_cast<NodeId>(net.node_count() - 1);
    const NodeId early = net.logic_nodes().front();
    net.node(early).fanins.push_back(last);
    EXPECT_TRUE(has_error(lint_network(net), "cycle"));
}

TEST(LintStructure, DetectsSelfLoop) {
    Network net = small_net();
    const NodeId early = net.logic_nodes().front();
    net.node(early).fanins.push_back(early);
    EXPECT_TRUE(has_error(lint_network(net), "self-loop"));
}

TEST(LintStructure, DetectsFanoutAsymmetry) {
    Network net = small_net();
    const NodeId y = net.logic_nodes().back();
    net.node(net.node(y).fanins.front()).fanouts.clear();  // drop the back edge
    EXPECT_TRUE(has_error(lint_network(net), "asymmetry"));
}

TEST(LintStructure, WarnsOnDanglingNode) {
    Network net = small_net();
    const NodeId inv = net.make_not(net.inputs().front(), "unused_inv");
    const CheckReport rep = lint_network(net);
    EXPECT_FALSE(rep.has_errors());
    ASSERT_EQ(rep.warning_count(), 1u) << rep.to_string();
    EXPECT_EQ(rep.issues().front().node, inv);
    EXPECT_TRUE(rep.mentions("dead cone")) << rep.to_string();
}

TEST(LintStructure, DetectsDuplicateNames) {
    Network net = small_net();
    net.node(net.logic_nodes().front()).name = "a";  // collides with the PI
    EXPECT_TRUE(has_error(lint_network(net), "'a' is driven by nodes"));
}

TEST(LintStructure, DetectsSopOutOfBounds) {
    Network net = small_net();
    Node& y = net.node(net.logic_nodes().back());
    y.function.cubes.push_back(Cube::literal(13, true));  // node has 2 fanins
    EXPECT_TRUE(has_error(lint_network(net), "SOP references"));
}

// ------------------------------------------------- flow integration

FlowOptions prove_options() {
    FlowOptions opts;
    opts.verify = VerifyLevel::Prove;
    return opts;
}

TEST(FlowVerify, LilyFlowProvesMappedNetlist) {
    const Library lib = load_msu_big();
    const Network net =
        read_blif_file(std::string(LILY_SOURCE_DIR) + "/examples/circuits/full_adder.blif");
    const StatusOr<FlowResult> out = run_lily_flow_checked(net, lib, prove_options());
    ASSERT_TRUE(out.is_ok()) << out.status().to_string();
    const StageDiagnostics* vd = out.value().diagnostics.find("verify");
    ASSERT_NE(vd, nullptr);
    EXPECT_EQ(vd->state, StageState::Ok);
    EXPECT_NE(vd->note.find("proven"), std::string::npos) << vd->note;
}

TEST(FlowVerify, SimLevelRecordsSimulationOnly) {
    const Library lib = load_msu_big();
    const Network net =
        read_blif_file(std::string(LILY_SOURCE_DIR) + "/examples/circuits/mux4.blif");
    FlowOptions opts;
    opts.verify = VerifyLevel::Sim;
    const StatusOr<FlowResult> out = run_lily_flow_checked(net, lib, opts);
    ASSERT_TRUE(out.is_ok()) << out.status().to_string();
    const StageDiagnostics* vd = out.value().diagnostics.find("verify");
    ASSERT_NE(vd, nullptr);
    EXPECT_EQ(vd->state, StageState::Ok);
    EXPECT_NE(vd->note.find("simulation only"), std::string::npos) << vd->note;
}

TEST(FlowVerify, MiscompareFaultFailsTheFlowWithCounterexample) {
    FaultGuard fault("verify:miscompare");
    const Library lib = load_msu_big();
    const Network net =
        read_blif_file(std::string(LILY_SOURCE_DIR) + "/examples/circuits/full_adder.blif");
    const StatusOr<FlowResult> out = run_lily_flow_checked(net, lib, prove_options());
    ASSERT_FALSE(out.is_ok());
    EXPECT_EQ(out.status().code(), StatusCode::InvariantViolation);
    EXPECT_NE(out.status().to_string().find("counterexample"), std::string::npos)
        << out.status().to_string();
}

TEST(FlowVerify, EcoFlowProvesEditedNetlist) {
    const Library lib = load_msu_big();
    const Network net =
        read_blif_file(std::string(LILY_SOURCE_DIR) + "/examples/circuits/parity8.blif");
    StatusOr<PipelineState> built = build_pipeline(net, lib, prove_options());
    ASSERT_TRUE(built.is_ok()) << built.status().to_string();
    PipelineState state = std::move(built).value();

    const NetDelta delta = local_delta(state.net, 2, 0xEC0);
    const StatusOr<EcoStats> eco = run_eco_flow_checked(state, delta);
    ASSERT_TRUE(eco.is_ok()) << eco.status().to_string();
    const StageDiagnostics* vd = eco.value().diagnostics.find("verify");
    ASSERT_NE(vd, nullptr);
    EXPECT_TRUE(vd->state == StageState::Ok || vd->state == StageState::Degraded);
}

}  // namespace
}  // namespace lily
