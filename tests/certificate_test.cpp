// The mapping certificate: agreement with the SAT-sweeping oracle on clean
// mappings, declines on corrupted ones (which the verify stage must still
// refute with a replayed counterexample), and declines that the verify
// stage's fallback proves.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "check/mapped_checker.hpp"
#include "circuits/benchmarks.hpp"
#include "flow/pipeline.hpp"
#include "flow/stage.hpp"
#include "library/standard_cells.hpp"
#include "lily/lily_mapper.hpp"
#include "map/base_mapper.hpp"
#include "netlist/blif.hpp"
#include "netlist/delta.hpp"
#include "subject/cone_function.hpp"
#include "subject/decompose.hpp"
#include "verify/cec.hpp"
#include "verify/certificate.hpp"

namespace lily {
namespace {

constexpr std::uint64_t kBudget = 200000;

std::vector<std::string> example_circuits() {
    std::vector<std::string> paths;
    const std::string dir = std::string(LILY_SOURCE_DIR) + "/examples/circuits";
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
        if (entry.path().extension() == ".blif") paths.push_back(entry.path().string());
    }
    std::sort(paths.begin(), paths.end());
    return paths;
}

CecVerdict oracle(const Network& net, const Library& lib, const MappedNetlist& m) {
    const StatusOr<CecResult> cec = check_equivalence(net, m.to_network(lib));
    EXPECT_TRUE(cec.is_ok()) << cec.status().to_string();
    return cec.is_ok() ? cec.value().verdict : CecVerdict::Inconclusive;
}

/// The certificate proves a clean mapping, and the oracle agrees.
void expect_agreement(const Network& net, const DecomposeResult& sub, const Library& lib,
                      const MappedNetlist& m, const std::string& what) {
    const CertificateResult cert = check_certificate(net, sub, lib, m, kBudget);
    EXPECT_TRUE(cert.proven) << what << ": " << cert.decline;
    EXPECT_EQ(cert.stats.gate_obligations, m.gate_count()) << what;
    EXPECT_EQ(oracle(net, lib, m), CecVerdict::Proven) << what;
}

MappedNetlist base_map(const Library& lib, const DecomposeResult& sub) {
    return BaseMapper(lib).map(sub.graph).netlist;
}

MappedNetlist lily_map(const Library& lib, const DecomposeResult& sub) {
    StatusOr<LilyResult> res = LilyMapper(lib).map_checked(sub.graph, LilyOptions{});
    EXPECT_TRUE(res.is_ok()) << res.status().to_string();
    return res.is_ok() ? res.value().netlist : MappedNetlist{};
}

struct StageRun {
    Status status;
    std::string note;
};

/// The flow's verify stage at Prove on a caller-built mapping.
StageRun verify_at_prove(const Network& net, const DecomposeResult& sub, const Library& lib,
                         const MappedNetlist& m) {
    FlowOptions opts;
    opts.verify = VerifyLevel::Prove;
    FlowDiagnostics diag;
    FlowContext ctx(flow_label::kLily, opts, diag);
    StageRun run{run_verify_stage(ctx, net, sub, lib, m), ""};
    if (const StageDiagnostics* vd = diag.find("verify")) run.note = vd->note;
    return run;
}

// ------------------------------------------------------------ agreement

TEST(Certificate, AgreesWithOracleOnExamplesWithBothLibraries) {
    for (const Library& lib : {load_msu_tiny(), load_msu_big()}) {
        for (const std::string& path : example_circuits()) {
            const Network net = read_blif_file(path);
            const DecomposeResult sub = decompose(net);
            expect_agreement(net, sub, lib, base_map(lib, sub), path + " baseline");
            expect_agreement(net, sub, lib, lily_map(lib, sub), path + " lily");
        }
    }
}

TEST(Certificate, AgreesWithOracleOnTable1SuiteBaselineAndLily) {
    const Library lib = load_msu_big();
    for (const Benchmark& b : paper_suite(0.25)) {
        const DecomposeResult sub = decompose(b.network);
        expect_agreement(b.network, sub, lib, base_map(lib, sub), b.name + " baseline");
        expect_agreement(b.network, sub, lib, lily_map(lib, sub), b.name + " lily");
    }
}

TEST(Certificate, ProvesEcoSplicedNetlistThroughTheStage) {
    const Library lib = load_msu_big();
    const Network net =
        read_blif_file(std::string(LILY_SOURCE_DIR) + "/examples/circuits/parity8.blif");
    FlowOptions opts;
    opts.verify = VerifyLevel::Prove;
    StatusOr<PipelineState> built = build_pipeline(net, lib, opts);
    ASSERT_TRUE(built.is_ok()) << built.status().to_string();
    PipelineState state = std::move(built).value();
    for (std::uint64_t seed : {0xEC0u, 0xEC1u}) {
        const StatusOr<EcoStats> eco = run_eco_flow_checked(state, local_delta(state.net, 2, seed));
        ASSERT_TRUE(eco.is_ok()) << eco.status().to_string();
        const StageDiagnostics* vd = eco.value().diagnostics.find("verify");
        ASSERT_NE(vd, nullptr);
        EXPECT_EQ(vd->state, StageState::Ok);
        EXPECT_EQ(vd->note.rfind("proven by the mapping certificate", 0), 0u) << vd->note;
        expect_agreement(state.net, state.subject, lib, state.flow.netlist, "eco");
    }
}

TEST(Certificate, WideSopNodesTakeTheLocalSatPath) {
    const Library lib = load_msu_big();
    const Network net =
        read_blif_file(std::string(LILY_SOURCE_DIR) + "/tests/data/wide/wide_sop.blif");
    ASSERT_GE(net.max_fanin(), 20u);
    const DecomposeResult sub = decompose(net);
    const MappedNetlist m = base_map(lib, sub);
    const CertificateResult cert = check_certificate(net, sub, lib, m, kBudget);
    EXPECT_TRUE(cert.proven) << cert.decline;
    EXPECT_EQ(cert.stats.sat_calls, 2u);
    EXPECT_EQ(oracle(net, lib, m), CecVerdict::Proven);

    // A wrong wide node is declined by its local miter, never proven.
    Network wrong = net;
    Node& f = wrong.node(*wrong.find_node("f"));
    f.function.cubes.pop_back();
    const CertificateResult bad = check_certificate(wrong, sub, lib, m, kBudget);
    EXPECT_FALSE(bad.proven);
    EXPECT_NE(bad.decline.find("free leaves"), std::string::npos) << bad.decline;
}

TEST(Certificate, CancelledInverterPairsAgreeWithOracle) {
    DecomposeOptions cancel;
    cancel.cancel_inverter_pairs = true;
    const Library lib = load_msu_big();
    for (const std::string& path : example_circuits()) {
        const Network net = read_blif_file(path);
        const DecomposeResult sub = decompose(net, cancel);
        expect_agreement(net, sub, lib, base_map(lib, sub), path + " cancel");
    }
    for (const Benchmark& b : paper_suite(0.25)) {
        const DecomposeResult sub = decompose(b.network, cancel);
        expect_agreement(b.network, sub, lib, base_map(lib, sub), b.name + " cancel");
    }

    // NOT(g) folds onto the fanin of g's signal, below the cut {g, c}: the
    // cut closes only by reading that fanin as NOT(g).
    Network net("fold");
    const NodeId a = net.add_input("a");
    const NodeId b = net.add_input("b");
    const NodeId c = net.add_input("c");
    const NodeId g = net.make_and2(a, b);
    Sop not_g_and_c;
    not_g_and_c.cubes = {Cube{0b11, 0b10}};
    const NodeId y = net.add_node("y", {g, c}, not_g_and_c);
    net.add_output("y", y);
    net.add_output("ng", net.make_not(g));
    net.add_output("g", g);
    const DecomposeResult sub = decompose(net, cancel);
    const std::vector<SubjectId> cut{sub.signal_of[g], sub.signal_of[c]};
    ConeFunction cone;
    EXPECT_EQ(cone.evaluate(sub.graph, sub.signal_of[y], cut), ConeFunction::Outcome::Open);
    EXPECT_EQ(cone.evaluate(sub.graph, sub.signal_of[y], cut, 64, true),
              ConeFunction::Outcome::Exact);
    expect_agreement(net, sub, lib, base_map(lib, sub), "fold");
}

TEST(ConeFunction, TiedPinsShareOneVariable) {
    SubjectGraph g;
    const SubjectId a = g.add_input("a", 0);
    const SubjectId b = g.add_input("b", 1);
    const SubjectId n = g.add_nand(a, b);
    ConeFunction cone;
    const std::vector<SubjectId> pins{a, b, a};
    ASSERT_EQ(cone.evaluate(g, n, pins), ConeFunction::Outcome::Exact);
    EXPECT_EQ(cone.n_vars(), 2u);
    EXPECT_EQ(cone.var_of_pin()[2], 0u);
    // NAND3 with pins 0 and 2 tied equals NAND(a, b).
    EXPECT_TRUE(cone.equals([](std::uint64_t p) { return p != 0b111; }));
    EXPECT_FALSE(cone.equals([](std::uint64_t p) { return p != 0b011; }));
    const std::vector<SubjectId> cut_short{a};
    EXPECT_EQ(cone.evaluate(g, n, cut_short), ConeFunction::Outcome::Open);
}

// ------------------------------------------- corruptions: declined, refuted

struct Fixture {
    Library lib = load_msu_big();
    Network net = read_blif_file(std::string(LILY_SOURCE_DIR) + "/examples/circuits/mux4.blif");
    DecomposeResult sub = decompose(net);
    MappedNetlist mapped = base_map(lib, sub);
};

/// The first mutation (k = 0, 1, ...) the oracle refutes; nullopt when
/// none does.
std::optional<MappedNetlist> first_refuted(
    const Fixture& f, const std::function<bool(MappedNetlist&, std::size_t)>& mutate) {
    for (std::size_t k = 0; k < 4096; ++k) {
        MappedNetlist m = f.mapped;
        if (!mutate(m, k)) continue;
        m.bump_version();
        const StatusOr<CecResult> cec = check_equivalence(f.net, m.to_network(f.lib));
        if (cec.is_ok() && cec.value().verdict == CecVerdict::Refuted) return m;
    }
    return std::nullopt;
}

void expect_declined_and_refuted(const Fixture& f, const MappedNetlist& m,
                                 const std::string& reason) {
    const CertificateResult cert = check_certificate(f.net, f.sub, f.lib, m, kBudget);
    EXPECT_FALSE(cert.proven);
    EXPECT_NE(cert.decline.find(reason), std::string::npos) << cert.decline;
    const StageRun run = verify_at_prove(f.net, f.sub, f.lib, m);
    EXPECT_EQ(run.status.code(), StatusCode::InvariantViolation) << run.status.to_string();
    EXPECT_NE(run.status.to_string().find("counterexample"), std::string::npos)
        << run.status.to_string();
}

TEST(CertificateDeclines, SwappedGate) {
    const Fixture f;
    MappedNetlist m = f.mapped;
    ASSERT_TRUE(inject_wrong_cover(m, f.lib));
    expect_declined_and_refuted(f, m, "gate function differs");
}

TEST(CertificateDeclines, RewiredPin) {
    const Fixture f;
    const std::optional<MappedNetlist> m = first_refuted(f, [](MappedNetlist& m, std::size_t k) {
        const std::size_t pis = m.subject_inputs.size();
        const std::size_t i = k / (4 * pis), pin = k / pis % 4, pi = k % pis;
        if (i >= m.gates.size() || pin >= m.gates[i].inputs.size()) return false;
        if (m.gates[i].inputs[pin] == m.subject_inputs[pi]) return false;
        m.gates[i].inputs[pin] = m.subject_inputs[pi];
        return true;
    });
    ASSERT_TRUE(m.has_value());
    expect_declined_and_refuted(f, *m, "instance");
}

TEST(CertificateDeclines, DuplicateDriver) {
    const Fixture f;
    // Instance j claims instance i's driver; j's readers follow it there.
    const std::optional<MappedNetlist> m = first_refuted(f, [](MappedNetlist& m, std::size_t k) {
        const std::size_t n = m.gates.size();
        const std::size_t i = k / n, j = k % n;
        if (i >= j || j >= n) return false;
        const SubjectId from = m.gates[j].driver, to = m.gates[i].driver;
        m.gates[j].driver = to;
        for (std::size_t r = j + 1; r < n; ++r) {
            std::replace(m.gates[r].inputs.begin(), m.gates[r].inputs.end(), from, to);
        }
        for (MappedOutput& o : m.outputs) {
            if (o.driver == from) o.driver = to;
        }
        return true;
    });
    ASSERT_TRUE(m.has_value());
    expect_declined_and_refuted(f, *m, "driven twice");
}

TEST(CertificateDeclines, PoBoundToTheWrongDriver) {
    const Fixture f;
    const std::optional<MappedNetlist> m = first_refuted(f, [](MappedNetlist& m, std::size_t k) {
        std::vector<SubjectId> signals = m.subject_inputs;
        for (const GateInstance& g : m.gates) signals.push_back(g.driver);
        const std::size_t o = k / signals.size(), s = k % signals.size();
        if (o >= m.outputs.size() || m.outputs[o].driver == signals[s]) return false;
        m.outputs[o].driver = signals[s];
        return true;
    });
    ASSERT_TRUE(m.has_value());
    expect_declined_and_refuted(f, *m, "is driven by");
}

TEST(CertificateDeclines, RenamedPi) {
    const Fixture f;
    // Two PIs trade names: the interface still aligns, the wiring does not.
    const std::optional<MappedNetlist> m = first_refuted(f, [](MappedNetlist& m, std::size_t k) {
        const std::size_t n = m.subject_input_names.size();
        const std::size_t a = k / n, b = k % n;
        if (a >= b || b >= n) return false;
        std::swap(m.subject_input_names[a], m.subject_input_names[b]);
        return true;
    });
    ASSERT_TRUE(m.has_value());
    expect_declined_and_refuted(f, *m, "under its name");
}

// ---------------------------------------------- declined, proven by fallback

TEST(CertificateFallback, FanoutBuffersDeclineThenProve) {
    const Library lib = load_msu_big();
    Network net("hub");  // one AND driving eight XOR sinks
    const NodeId hub = net.make_and2(net.add_input("a"), net.add_input("b"));
    for (unsigned i = 0; i < 8; ++i) {
        const NodeId x = net.add_input("x" + std::to_string(i));
        net.add_output("o" + std::to_string(i), net.make_xor2(hub, x));
    }
    const DecomposeResult sub = decompose(net);
    MappedNetlist m = base_map(lib, sub);
    // Buffer one XOR sink off the hub: the buffer's driver is a fresh id
    // past the subject graph, inserted right after the hub's instance so
    // the netlist stays in topological order.
    const auto buf = lib.find("buf1");
    ASSERT_TRUE(buf.has_value());
    const auto driven = [&](SubjectId in) {
        return m.instance_driving(in) != MappedNetlist::npos;
    };
    const auto sink = std::find_if(m.gates.begin(), m.gates.end(), [&](const GateInstance& g) {
        return std::any_of(g.inputs.begin(), g.inputs.end(), driven);
    });
    ASSERT_NE(sink, m.gates.end());
    SubjectId& pin = *std::find_if(sink->inputs.begin(), sink->inputs.end(), driven);
    const SubjectId hub_signal = pin;
    const SubjectId buffered = static_cast<SubjectId>(sub.graph.size());
    pin = buffered;
    const std::size_t hub_at = m.instance_driving(hub_signal);
    m.gates.insert(m.gates.begin() + static_cast<std::ptrdiff_t>(hub_at) + 1,
                   GateInstance{*buf, buffered, {hub_signal}, {}});
    m.bump_version();

    const CertificateResult cert = check_certificate(net, sub, lib, m, kBudget);
    EXPECT_FALSE(cert.proven);
    EXPECT_NE(cert.decline.find("past the subject graph"), std::string::npos) << cert.decline;
    const StageRun run = verify_at_prove(net, sub, lib, m);
    EXPECT_TRUE(run.status.is_ok()) << run.status.to_string();
    EXPECT_EQ(run.note.rfind("proven equivalent by SAT sweeping", 0), 0u) << run.note;
    EXPECT_NE(run.note.find("certificate declined"), std::string::npos) << run.note;
}

TEST(CertificateFallback, UnclosableCutDeclinesThenProves) {
    const Library lib = load_msu_big();
    Network net("reroute");
    const NodeId a = net.add_input("a");
    const NodeId b = net.add_input("b");
    const NodeId g = net.make_and2(a, b);
    const NodeId v = net.make_buf(g);
    net.add_output("v", v);
    net.add_output("g", g);
    DecomposeResult sub = decompose(net);
    const MappedNetlist m = base_map(lib, sub);

    // Re-derive v's signal as AND(NOT NOT a, b) from the PIs, below its
    // cut {signal_of[g]}: the same function, but no cut at g can close it.
    SubjectGraph& sg = sub.graph;
    const SubjectId na = sg.add_inv(sg.add_inv(sub.signal_of[a]));
    sub.signal_of[v] = sg.add_inv(sg.add_nand(na, sub.signal_of[b]));

    const CertificateResult cert = check_certificate(net, sub, lib, m, kBudget);
    EXPECT_FALSE(cert.proven);
    EXPECT_NE(cert.decline.find("does not close"), std::string::npos) << cert.decline;
    const StageRun run = verify_at_prove(net, sub, lib, m);
    EXPECT_TRUE(run.status.is_ok()) << run.status.to_string();
    EXPECT_EQ(run.note.rfind("proven equivalent by SAT sweeping", 0), 0u) << run.note;
}

}  // namespace
}  // namespace lily
