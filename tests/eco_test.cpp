// Incremental (ECO) pipeline tests: randomized delta sequences must keep
// the incrementally maintained mapping sim-equivalent to a from-scratch
// flow, the degenerate `delta = everything` must reproduce the batch flow
// bit for bit (at 1 and 8 threads), and the eco:stale-epoch fault must
// surface as InvariantViolation through the PipelineChecker gate.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "circuits/benchmarks.hpp"
#include "flow/pipeline.hpp"
#include "library/standard_cells.hpp"
#include "netlist/blif.hpp"
#include "netlist/delta.hpp"
#include "netlist/simulate.hpp"
#include "util/fault.hpp"
#include "util/parallel.hpp"

namespace lily {
namespace {

/// Restores the (process-global) fault spec when a test exits, so a failing
/// assertion cannot leak a fault into later tests.
class FaultGuard {
public:
    explicit FaultGuard(std::string spec) { set_fault_spec(std::move(spec)); }
    ~FaultGuard() { set_fault_spec(""); }
};

// ------------------------------------------------ randomized delta streams

TEST(Eco, RandomDeltaSequencesStayEquivalent) {
    const Library lib = load_msu_big();
    std::vector<std::pair<std::string, Network>> seeds;
    seeds.emplace_back("symmetric9", make_symmetric9());
    seeds.emplace_back("priority", make_priority_controller(10));
    seeds.emplace_back("ecc", make_ecc_checker(16, false));
    seeds.emplace_back("alu", make_alu(4, false));
    seeds.emplace_back("control", make_control_logic(12, 6, 80, 7, "eco"));

    FlowOptions opts;
    opts.check = CheckLevel::Light;
    for (auto& [name, net] : seeds) {
        StatusOr<PipelineState> built = build_pipeline(net, lib, opts);
        ASSERT_TRUE(built.is_ok()) << name << ": " << built.status().to_string();
        PipelineState state = std::move(built).value();

        for (std::uint64_t step = 0; step < 3; ++step) {
            const NetDelta delta = random_delta(state.net, 3, 0x515D + 17 * step);
            StatusOr<EcoStats> eco = run_eco_flow_checked(state, delta);
            ASSERT_TRUE(eco.is_ok())
                << name << " step " << step << ": " << eco.status().to_string();
            EXPECT_EQ(eco.value().version, state.net.version());
            // The maintained mapping must compute the edited network.
            EXPECT_TRUE(equivalent_random(state.net, state.flow.netlist.to_network(lib), 8,
                                          11 + step))
                << name << " step " << step;
        }

        // ...and agree with a from-scratch flow of the final edited circuit.
        const FlowResult scratch = run_lily_flow_checked(state.net, lib, opts).take_or_raise();
        EXPECT_TRUE(equivalent_random(scratch.netlist.to_network(lib),
                                      state.flow.netlist.to_network(lib), 8, 99))
            << name;
    }
}

// ------------------------------------------- delta = everything bit-identity

void expect_full_rebuild_matches_batch(std::size_t threads) {
    const Library lib = load_msu_big();
    const Network net = make_control_logic(16, 8, 150, 0xEC0, "eco-det");
    FlowOptions opts;
    opts.threads = threads;

    StatusOr<PipelineState> built = build_pipeline(net, lib, opts);
    ASSERT_TRUE(built.is_ok()) << built.status().to_string();
    PipelineState state = std::move(built).value();

    // Dirty the incremental state with a real edit first, so the full
    // rebuild must discard every cached artifact, not just start fresh.
    StatusOr<EcoStats> warm = run_eco_flow_checked(state, random_delta(state.net, 2, 5));
    ASSERT_TRUE(warm.is_ok()) << warm.status().to_string();

    StatusOr<EcoStats> full = run_eco_flow_checked(state, NetDelta::full_rebuild());
    ASSERT_TRUE(full.is_ok()) << full.status().to_string();
    EXPECT_TRUE(full.value().full_reflow);

    const FlowResult batch = run_lily_flow_checked(state.net, lib, opts).take_or_raise();
    const FlowResult& eco = state.flow;
    EXPECT_EQ(eco.metrics.gate_count, batch.metrics.gate_count);
    EXPECT_EQ(eco.metrics.cell_area, batch.metrics.cell_area);
    EXPECT_EQ(eco.metrics.chip_area, batch.metrics.chip_area);
    EXPECT_EQ(eco.metrics.wirelength, batch.metrics.wirelength);
    EXPECT_EQ(eco.metrics.critical_delay, batch.metrics.critical_delay);
    EXPECT_EQ(eco.metrics.max_congestion, batch.metrics.max_congestion);
    ASSERT_EQ(eco.final_positions.size(), batch.final_positions.size());
    for (std::size_t i = 0; i < eco.final_positions.size(); ++i) {
        ASSERT_EQ(eco.final_positions[i].x, batch.final_positions[i].x) << "instance " << i;
        ASSERT_EQ(eco.final_positions[i].y, batch.final_positions[i].y) << "instance " << i;
    }
    ASSERT_EQ(eco.pad_positions.size(), batch.pad_positions.size());
    for (std::size_t i = 0; i < eco.pad_positions.size(); ++i) {
        ASSERT_EQ(eco.pad_positions[i].x, batch.pad_positions[i].x);
        ASSERT_EQ(eco.pad_positions[i].y, batch.pad_positions[i].y);
    }
    ThreadPool::global().resize(0);
}

TEST(Eco, DeltasOverWideNodesApply) {
    // wide_sop's two nodes have 20 fanins each: a refunction of one must
    // stay within what an SOP can expand (xor_n stops at 10 inputs).
    const Network net =
        read_blif_file_checked(std::string(LILY_SOURCE_DIR) + "/tests/data/wide/wide_sop.blif")
            .take_or_raise();
    ASSERT_GE(net.max_fanin(), 20u);
    for (std::uint64_t seed = 0; seed < 16; ++seed) {
        for (const bool local : {false, true}) {
            Network edited = net;
            const NetDelta delta =
                local ? local_delta(edited, 3, seed) : random_delta(edited, 3, seed);
            const auto applied = edited.apply_delta(delta);
            EXPECT_TRUE(applied.is_ok()) << "seed " << seed << (local ? " local" : " random")
                                         << ": " << applied.status().to_string();
        }
    }
}

TEST(Eco, FullRebuildBitIdenticalToBatch1Thread) { expect_full_rebuild_matches_batch(1); }

TEST(Eco, FullRebuildBitIdenticalToBatch8Threads) { expect_full_rebuild_matches_batch(8); }

// ----------------------------------------------------- reuse bookkeeping

TEST(Eco, SmallEditReusesMostArtifacts) {
    const Library lib = load_msu_big();
    const Network net = make_control_logic(24, 12, 300, 0xBEE5, "eco-reuse");
    StatusOr<PipelineState> built = build_pipeline(net, lib);
    ASSERT_TRUE(built.is_ok()) << built.status().to_string();
    PipelineState state = std::move(built).value();

    // local_delta keeps the edit's transitive fanout bounded — the shape of
    // a real ECO fix, and the case the reuse machinery is built for. (A
    // uniform random edit near the inputs legitimately dirties most of the
    // design, where reuse ratios approach zero by construction.)
    StatusOr<EcoStats> eco = run_eco_flow_checked(state, local_delta(state.net, 2, 9));
    ASSERT_TRUE(eco.is_ok()) << eco.status().to_string();
    const EcoStats& s = eco.value();
    EXPECT_FALSE(s.full_reflow);
    EXPECT_GT(s.reused_nodes, s.remapped_nodes) << "a 2-edit delta should re-solve a minority";
    EXPECT_LT(s.placed_cells, s.total_cells);
    EXPECT_GT(s.subject_nodes_after, 0u);
    EXPECT_GE(s.subject_nodes_after, s.subject_nodes_before);
    EXPECT_EQ(s.version, state.net.version());
    // The maintained artifacts still compute the edited circuit.
    EXPECT_TRUE(equivalent_random(state.net, state.flow.netlist.to_network(lib), 8, 21));
}

TEST(Eco, EmptyDeltaIsNoOp) {
    const Library lib = load_msu_big();
    const Network net = make_priority_controller(8);
    StatusOr<PipelineState> built = build_pipeline(net, lib);
    ASSERT_TRUE(built.is_ok()) << built.status().to_string();
    PipelineState state = std::move(built).value();
    const Version before = state.net.version();

    StatusOr<EcoStats> eco = run_eco_flow_checked(state, NetDelta{});
    ASSERT_TRUE(eco.is_ok()) << eco.status().to_string();
    EXPECT_EQ(state.net.version(), before);
    EXPECT_EQ(eco.value().version, before);
    EXPECT_FALSE(eco.value().full_reflow);
    EXPECT_EQ(eco.value().remapped_nodes, 0u);
}

// ------------------------------------------------------- staleness gating

TEST(Eco, StaleEpochFaultSurfacesInvariantViolation) {
    const Library lib = load_msu_big();
    const Network net = make_priority_controller(8);
    StatusOr<PipelineState> built = build_pipeline(net, lib);
    ASSERT_TRUE(built.is_ok()) << built.status().to_string();
    PipelineState state = std::move(built).value();

    FaultGuard fault("eco:stale-epoch");
    StatusOr<EcoStats> eco = run_eco_flow_checked(state, random_delta(state.net, 2, 3));
    ASSERT_FALSE(eco.is_ok());
    EXPECT_EQ(eco.status().code(), StatusCode::InvariantViolation);
    const std::string msg = eco.status().to_string();
    EXPECT_NE(msg.find("stale"), std::string::npos) << msg;
}

TEST(Eco, UnbuiltStateRejected) {
    PipelineState state;  // never built
    StatusOr<EcoStats> eco = run_eco_flow_checked(state, NetDelta::full_rebuild());
    ASSERT_FALSE(eco.is_ok());
    EXPECT_EQ(eco.status().code(), StatusCode::InvariantViolation);
}

// PipelineChecker unit coverage: the three lineage violations.
TEST(PipelineCheckerUnit, FlagsNeverBuiltStaleAndFuture) {
    const PipelineChecker checker;
    const std::vector<StageVersionRecord> ok{{"subject", 3, 3}, {"mapping", 3, 3}};
    EXPECT_FALSE(checker.check(ok).has_errors());

    const std::vector<StageVersionRecord> never{{"mapping", kNeverBuilt, 2}};
    CheckReport rep = checker.check(never);
    EXPECT_TRUE(rep.has_errors());
    EXPECT_TRUE(rep.mentions("never built"));

    const std::vector<StageVersionRecord> behind{{"mapping", 2, 5}};
    rep = checker.check(behind);
    EXPECT_TRUE(rep.has_errors());
    EXPECT_TRUE(rep.mentions("stale"));

    const std::vector<StageVersionRecord> ahead{{"backend", 7, 5}};
    rep = checker.check(ahead);
    EXPECT_TRUE(rep.has_errors());
    EXPECT_TRUE(rep.mentions("corrupted"));
}

}  // namespace
}  // namespace lily
