// Unit suite for the pass-manager layer (flow/stage.hpp): the stage
// descriptor table, budget derivation, recovery-rung gating, fault probes,
// trace-span nesting, and elapsed-ms accumulation across re-entered
// scopes. The bit-identity side of the refactor lives in golden_test.cpp;
// this file pins the executor's *mechanics*.
#include <gtest/gtest.h>

#include <chrono>
#include <fstream>
#include <set>
#include <sstream>
#include <string>

#include "circuits/benchmarks.hpp"
#include "flow/job.hpp"
#include "flow/stage.hpp"
#include "netlist/blif.hpp"
#include "util/fault.hpp"

namespace lily {
namespace {

FlowOptions quiet_options() {
    FlowOptions opts;
    opts.check = CheckLevel::Off;
    opts.verify = VerifyLevel::Off;
    return opts;
}

// ---- Descriptor table ---------------------------------------------------

TEST(StageTable, NamesAreUniqueAndNonEmpty) {
    std::set<std::string> seen;
    for (const StageDescriptor& d : stage_table()) {
        ASSERT_NE(d.name, nullptr);
        EXPECT_NE(std::string(d.name), "");
        EXPECT_TRUE(seen.insert(d.name).second) << "duplicate stage name " << d.name;
    }
    EXPECT_EQ(seen.size(), kStageCount);
}

TEST(StageTable, NameLookupRoundTrips) {
    for (const StageDescriptor& d : stage_table()) {
        const auto id = stage_id_from_name(d.name);
        ASSERT_TRUE(id.has_value()) << d.name;
        EXPECT_EQ(*id, d.id);
        EXPECT_STREQ(stage_name(d.id), d.name);
    }
    EXPECT_FALSE(stage_id_from_name("no-such-stage").has_value());
    EXPECT_FALSE(stage_id_from_name("").has_value());
}

TEST(StageTable, DescriptorIndexMatchesId) {
    for (std::size_t i = 0; i < kStageCount; ++i) {
        EXPECT_EQ(static_cast<std::size_t>(stage_table()[i].id), i)
            << "table order must match enum order for O(1) lookup";
    }
}

TEST(StageTable, RecoveryRungsDeclaredInFiringOrder) {
    // The ladder is data: mapping's only rung is the baseline fallback,
    // routing degrades to HPWL metrics, verify falls back to simulation,
    // the adaptive schedule retries with rescaled wire weights, and every
    // ECO stage may escalate to a full reflow.
    const StageDescriptor& mapping = stage_descriptor(StageId::Mapping);
    ASSERT_EQ(mapping.n_rungs, 1u);
    EXPECT_STREQ(mapping.rungs[0], "baseline-fallback");

    const StageDescriptor& routing = stage_descriptor(StageId::Routing);
    ASSERT_EQ(routing.n_rungs, 1u);
    EXPECT_STREQ(routing.rungs[0], "hpwl-metrics");

    const StageDescriptor& verify = stage_descriptor(StageId::Verify);
    ASSERT_EQ(verify.n_rungs, 1u);
    EXPECT_STREQ(verify.rungs[0], "sim-fallback");

    const StageDescriptor& adaptive = stage_descriptor(StageId::Adaptive);
    ASSERT_EQ(adaptive.n_rungs, 1u);
    EXPECT_STREQ(adaptive.rungs[0], "wire-weight-retry");

    for (const StageId id : {StageId::Eco, StageId::EcoSubject, StageId::EcoMapping,
                             StageId::EcoPlacement, StageId::EcoRouting, StageId::EcoTiming}) {
        const StageDescriptor& d = stage_descriptor(id);
        ASSERT_EQ(d.n_rungs, 1u) << d.name;
        EXPECT_STREQ(d.rungs[0], "full-reflow") << d.name;
    }
}

// ---- Budget derivation --------------------------------------------------

TEST(FlowContextBudget, StageKeySelectsTheMatchingBudgetField) {
    FlowOptions opts = quiet_options();
    opts.budget.mapping_ms = 50.0;
    FlowDiagnostics diag;
    FlowContext ctx("test", opts, diag);
    EXPECT_TRUE(ctx.stage_budget(StageId::Mapping).limited());
    // Stages with BudgetKey::None stay unlimited when the flow has no
    // total budget, whatever the per-stage fields say.
    EXPECT_FALSE(ctx.stage_budget(StageId::Decompose).limited());
    EXPECT_FALSE(ctx.stage_budget(StageId::Timing).limited());
}

TEST(FlowContextBudget, StageBudgetIntersectsWithWholeFlowTotal) {
    FlowOptions opts = quiet_options();
    opts.budget.total_ms = 30.0;
    opts.budget.mapping_ms = 100000.0;  // far looser than the total
    FlowDiagnostics diag;
    FlowContext ctx("test", opts, diag);
    ASSERT_NE(ctx.total(), nullptr);
    StageBudget derived = ctx.stage_budget(StageId::Mapping);
    EXPECT_TRUE(derived.limited());
    // The derived deadline is clamped by the whole-flow remainder, never
    // the loose per-stage figure.
    EXPECT_LE(derived.remaining_ms(), 30.0 + 1.0);
    // Unbudgeted stages inherit the total as their only bound.
    EXPECT_TRUE(ctx.stage_budget(StageId::Decompose).limited());
}

TEST(FlowContextBudget, UnlimitedFlowHasNullTotal) {
    FlowOptions opts = quiet_options();
    FlowDiagnostics diag;
    FlowContext ctx("test", opts, diag);
    EXPECT_EQ(ctx.total(), nullptr);
}

// ---- Rung gating --------------------------------------------------------

TEST(FlowContextRungs, PolicyGatesDeclaredRungs) {
    FlowOptions opts = quiet_options();
    opts.recovery.allow_baseline_fallback = false;
    opts.recovery.allow_hpwl_metrics = false;
    FlowDiagnostics diag;
    {
        FlowContext ctx("test", opts, diag);
        EXPECT_FALSE(ctx.rung_enabled(StageId::Mapping, "baseline-fallback"));
        EXPECT_FALSE(ctx.rung_enabled(StageId::Routing, "hpwl-metrics"));
        // Correctness rungs are unconditional.
        EXPECT_TRUE(ctx.rung_enabled(StageId::Verify, "sim-fallback"));
        EXPECT_TRUE(ctx.rung_enabled(StageId::Eco, "full-reflow"));
    }
    opts.recovery.allow_baseline_fallback = true;
    opts.recovery.allow_hpwl_metrics = true;
    {
        FlowContext ctx("test", opts, diag);
        EXPECT_TRUE(ctx.rung_enabled(StageId::Mapping, "baseline-fallback"));
        EXPECT_TRUE(ctx.rung_enabled(StageId::Routing, "hpwl-metrics"));
    }
}

TEST(FlowContextRungs, UndeclaredRungsNeverFire) {
    FlowOptions opts = quiet_options();
    opts.recovery.allow_baseline_fallback = true;  // policy says yes...
    FlowDiagnostics diag;
    FlowContext ctx("test", opts, diag);
    // ...but the descriptor table does not declare the rung on these
    // stages, so it can never fire there.
    EXPECT_FALSE(ctx.rung_enabled(StageId::Routing, "baseline-fallback"));
    EXPECT_FALSE(ctx.rung_enabled(StageId::Decompose, "baseline-fallback"));
    EXPECT_FALSE(ctx.rung_enabled(StageId::Mapping, "no-such-rung"));
}

TEST(FlowContextRungs, RetryRungFollowsMaxRetries) {
    FlowOptions opts = quiet_options();
    opts.recovery.max_retries = 0;
    FlowDiagnostics diag;
    {
        FlowContext ctx("test", opts, diag);
        EXPECT_FALSE(ctx.rung_enabled(StageId::Adaptive, "wire-weight-retry"));
    }
    opts.recovery.max_retries = 2;
    {
        FlowContext ctx("test", opts, diag);
        EXPECT_TRUE(ctx.rung_enabled(StageId::Adaptive, "wire-weight-retry"));
    }
}

// ---- Fault probes -------------------------------------------------------

TEST(FlowContextFaults, ProbesFireOnlyForTheMappedRegistryStage) {
    set_fault_spec("matcher:no-match");
    FlowOptions opts = quiet_options();
    FlowDiagnostics diag;
    {
        FlowContext ctx("test", opts, diag);
        EXPECT_TRUE(ctx.fault(StageId::Mapping, "no-match"));
        EXPECT_FALSE(ctx.fault(StageId::Mapping, "some-other-kind"));
        EXPECT_FALSE(ctx.fault(StageId::Routing, "no-match"));
        // Stages with no fault_stage mapping never probe true.
        EXPECT_FALSE(ctx.fault(StageId::Decompose, "no-match"));
        EXPECT_FALSE(ctx.fault(StageId::Timing, "no-match"));
    }
    set_fault_spec("");
    {
        FlowContext ctx("test", opts, diag);
        EXPECT_FALSE(ctx.fault(StageId::Mapping, "no-match"));
    }
}

TEST(FlowContextFaults, EcoStagesShareTheEcoRegistryName) {
    set_fault_spec("eco:stale-epoch");
    FlowOptions opts = quiet_options();
    FlowDiagnostics diag;
    FlowContext ctx("test", opts, diag);
    EXPECT_TRUE(ctx.fault(StageId::Eco, "stale-epoch"));
    EXPECT_TRUE(ctx.fault(StageId::EcoMapping, "stale-epoch"));
    EXPECT_FALSE(ctx.fault(StageId::Mapping, "stale-epoch"));
    set_fault_spec("");
}

// ---- Scope mechanics: diagnostics, traces, accumulation -----------------

TEST(StageScope, RecordsStateNoteAndRetries) {
    FlowOptions opts = quiet_options();
    FlowDiagnostics diag;
    FlowContext ctx("test", opts, diag);
    StageExecutor exec(ctx);
    exec.run(StageId::Decompose, [&](StageScope& s) { s.ok(); });
    exec.run(StageId::Mapping, [&](StageScope& s) {
        ++s.diag().retries;
        s.recovered("fell back");
    });
    EXPECT_EQ(diag.stage("decompose").state, StageState::Ok);
    const StageDiagnostics& mapping = diag.stage("mapping");
    EXPECT_EQ(mapping.state, StageState::Recovered);
    EXPECT_EQ(mapping.note, "fell back");
    EXPECT_EQ(mapping.retries, 1u);
    EXPECT_TRUE(diag.degraded());
}

TEST(StageScope, EmptyNotePreservesExistingNote) {
    // The lily fallback path depends on this: Failed after Recovered must
    // keep the rung's note, not blank it.
    FlowOptions opts = quiet_options();
    FlowDiagnostics diag;
    FlowContext ctx("test", opts, diag);
    StageExecutor exec(ctx);
    exec.run(StageId::Mapping, [&](StageScope& s) {
        s.recovered("rung note");
        s.failed();
    });
    EXPECT_EQ(diag.stage("mapping").state, StageState::Failed);
    EXPECT_EQ(diag.stage("mapping").note, "rung note");
}

TEST(StageScope, TraceSpansNestWithDepthAndClose) {
    TraceSink sink;
    FlowOptions opts = quiet_options();
    opts.trace = &sink;
    FlowDiagnostics diag;
    {
        FlowContext ctx("test-flow", opts, diag);
        StageExecutor exec(ctx);
        exec.run(StageId::Mapping, [&](StageScope&) {
            exec.run(StageId::Placement, [&](StageScope& inner) { inner.ok(); });
        });
        exec.run(StageId::Routing, [&](StageScope& s) { s.ok(); });
    }
    EXPECT_TRUE(sink.all_closed());
    const auto flows = sink.flows();
    ASSERT_EQ(flows.size(), 1u);
    EXPECT_EQ(flows[0].name, "test-flow");
    const auto spans = sink.spans();
    ASSERT_EQ(spans.size(), 3u);
    EXPECT_EQ(spans[0].name, "mapping");
    EXPECT_EQ(spans[0].depth, 1);
    EXPECT_EQ(spans[1].name, "placement");
    EXPECT_EQ(spans[1].depth, 2);  // opened inside the mapping scope
    EXPECT_EQ(spans[2].name, "routing");
    EXPECT_EQ(spans[2].depth, 1);
    for (const TraceSpan& s : spans) {
        EXPECT_TRUE(s.closed) << s.name;
        EXPECT_EQ(s.flow_id, flows[0].id);
        EXPECT_TRUE(stage_id_from_name(s.name).has_value()) << s.name;
    }
}

TEST(StageScope, ElapsedAccumulatesAcrossReenteredScopes) {
    TraceSink sink;
    FlowOptions opts = quiet_options();
    opts.trace = &sink;
    FlowDiagnostics diag;
    {
        FlowContext ctx("test-flow", opts, diag);
        StageExecutor exec(ctx);
        const auto busy_wait = [] {
            const auto until =
                StageBudget::Clock::now() + std::chrono::milliseconds(2);
            while (StageBudget::Clock::now() < until) {
            }
        };
        exec.run(StageId::Mapping, [&](StageScope& s) {
            busy_wait();
            s.ok();
        });
        exec.run(StageId::Mapping, [&](StageScope& s) {
            busy_wait();
            s.ok();
        });
    }
    // One diagnostics entry accumulated both attempts...
    const StageDiagnostics& mapping = diag.stage("mapping");
    EXPECT_GE(mapping.elapsed_ms, 4.0 * 0.9);
    // ...and the two spans carry the exact increments: their sum equals the
    // accumulated figure bit-for-bit (same dt fed both sides).
    const auto spans = sink.spans();
    ASSERT_EQ(spans.size(), 2u);
    EXPECT_EQ(spans[0].elapsed_ms + spans[1].elapsed_ms, mapping.elapsed_ms);
}

TEST(StageScope, BudgetReferenceIsStableWithinTheScope) {
    FlowOptions opts = quiet_options();
    opts.budget.mapping_ms = 25.0;
    FlowDiagnostics diag;
    FlowContext ctx("test", opts, diag);
    StageExecutor exec(ctx);
    exec.run(StageId::Mapping, [&](StageScope& s) {
        StageBudget* first = &s.budget();
        StageBudget* second = &s.budget();
        EXPECT_EQ(first, second);  // derived once, stable for kernels
        EXPECT_TRUE(first->limited());
        s.ok();
    });
}

TEST(TraceSinkTest, JsonlDumpCoversAllRecordTypes) {
    TraceSink sink;
    const std::uint64_t flow = sink.begin_flow("f");
    const std::size_t span = sink.begin_span("mapping");
    sink.end_span(span, 1.5, "ok", 0, "");
    sink.counter("nodes", 42.0);
    sink.end_flow(flow);
    EXPECT_TRUE(sink.all_closed());
    const std::string jsonl = sink.to_jsonl();
    EXPECT_NE(jsonl.find("\"type\":\"flow\""), std::string::npos);
    EXPECT_NE(jsonl.find("\"type\":\"span\""), std::string::npos);
    EXPECT_NE(jsonl.find("\"type\":\"counter\""), std::string::npos);
    EXPECT_NE(jsonl.find("\"name\":\"mapping\""), std::string::npos);
}

TEST(TraceSinkTest, UnclosedSpanIsDetected) {
    TraceSink sink;
    sink.begin_flow("f");
    sink.begin_span("mapping");
    EXPECT_FALSE(sink.all_closed());
}

// ---- Executor end-to-end: served jobs carry per-stage timings -----------

std::string msu_tiny_genlib_text() {
    std::ifstream in(std::string(LILY_SOURCE_DIR) + "/lib/msu_tiny.genlib",
                     std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

TEST(JobStageTimes, OutcomeListsEveryExecutedStage) {
    JobSpec spec;
    spec.name = "stage-times";
    spec.blif = write_blif(make_alu(3, false));
    spec.genlib = msu_tiny_genlib_text();
    ASSERT_FALSE(spec.genlib.empty());
    spec.options.kind = FlowKind::Lily;
    const JobOutcome out = run_flow_job(spec);
    ASSERT_EQ(out.state, JobState::Ok) << out.status_message;
    ASSERT_FALSE(out.stage_times.empty());
    std::set<std::string> names;
    for (const StageTime& st : out.stage_times) {
        EXPECT_GE(st.elapsed_ms, 0.0);
        // Every reported name comes from the shared stage table.
        EXPECT_TRUE(stage_id_from_name(st.name).has_value()) << st.name;
        names.insert(st.name);
    }
    // The job's own parse stages and the flow's core stages all show up.
    for (const char* expected : {"parse-blif", "parse-genlib", "decompose", "mapping",
                                 "placement", "routing", "timing"}) {
        EXPECT_TRUE(names.count(expected)) << "missing stage " << expected;
    }
    // Timing telemetry must never leak into the pinned report document.
    EXPECT_EQ(out.report_json.find("stage_times"), std::string::npos);
}

TEST(JobStageTimes, ParseFailureStillReportsParseStage) {
    JobSpec spec;
    spec.name = "bad";
    spec.blif = "this is not a blif file\n";
    spec.genlib = msu_tiny_genlib_text();
    const JobOutcome out = run_flow_job(spec);
    ASSERT_EQ(out.state, JobState::Error);
    bool saw_parse = false;
    for (const StageTime& st : out.stage_times) saw_parse = saw_parse || st.name == "parse-blif";
    EXPECT_TRUE(saw_parse);
}

}  // namespace
}  // namespace lily
