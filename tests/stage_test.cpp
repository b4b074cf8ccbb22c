// Unit suite for the stage layer (flow/stage.hpp): the stage names,
// trace-span nesting (stages, phases, nested flows), and elapsed-ms
// accumulation across re-entered scopes.
// The bit-identity side lives in golden_test.cpp; this file pins the
// scope's *mechanics*.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "circuits/benchmarks.hpp"
#include "flow/job.hpp"
#include "flow/stage.hpp"
#include "netlist/blif.hpp"
#include "util/alloc_stats.hpp"

namespace lily {
namespace {

FlowOptions quiet_options() {
    FlowOptions opts;
    opts.check = CheckLevel::Off;
    opts.verify = VerifyLevel::Off;
    return opts;
}

// ---- Stage names --------------------------------------------------------

TEST(StageTable, NamesAreUniqueAndNonEmpty) {
    std::set<std::string> seen;
    for (std::size_t i = 0; i < kStageCount; ++i) {
        const char* name = stage_name(static_cast<StageId>(i));
        ASSERT_NE(name, nullptr);
        EXPECT_NE(std::string(name), "");
        EXPECT_TRUE(seen.insert(name).second) << "duplicate stage name " << name;
    }
    EXPECT_EQ(seen.size(), kStageCount);
}

TEST(StageTable, NamesArePinned) {
    // Traces, reports, served stage_times and scripts/check_trace.py all
    // read these strings back, so each StageId keeps its name byte for byte.
    EXPECT_STREQ(stage_name(StageId::ParseGenlib), "parse-genlib");
    EXPECT_STREQ(stage_name(StageId::ParseBlif), "parse-blif");
    EXPECT_STREQ(stage_name(StageId::Decompose), "decompose");
    EXPECT_STREQ(stage_name(StageId::Mapping), "mapping");
    EXPECT_STREQ(stage_name(StageId::Placement), "placement");
    EXPECT_STREQ(stage_name(StageId::Routing), "routing");
    EXPECT_STREQ(stage_name(StageId::Timing), "timing");
    EXPECT_STREQ(stage_name(StageId::Checks), "checks");
    EXPECT_STREQ(stage_name(StageId::Verify), "verify");
    EXPECT_STREQ(stage_name(StageId::Adaptive), "adaptive");
    EXPECT_STREQ(stage_name(StageId::Eco), "eco");
    EXPECT_STREQ(stage_name(StageId::EcoSubject), "eco-subject");
    EXPECT_STREQ(stage_name(StageId::EcoMapping), "eco-mapping");
    EXPECT_STREQ(stage_name(StageId::EcoPlacement), "eco-placement");
    EXPECT_STREQ(stage_name(StageId::EcoRouting), "eco-routing");
    EXPECT_STREQ(stage_name(StageId::EcoTiming), "eco-timing");
}

bool is_stage_name(const std::string& name) {
    for (std::size_t i = 0; i < kStageCount; ++i) {
        if (name == stage_name(static_cast<StageId>(i))) return true;
    }
    return false;
}

// ---- Whole-flow budget --------------------------------------------------

TEST(FlowContextBudget, UnlimitedFlowHasNullTotal) {
    FlowOptions opts = quiet_options();
    opts.budget.total_ms = 0.0;
    FlowDiagnostics diag;
    FlowContext ctx("test", opts, diag);
    EXPECT_EQ(ctx.total(), nullptr);
}

TEST(FlowContextBudget, LimitedFlowExposesItsTotal) {
    FlowOptions opts = quiet_options();
    opts.budget.total_ms = 30.0;
    FlowDiagnostics diag;
    FlowContext ctx("test", opts, diag);
    ASSERT_NE(ctx.total(), nullptr);
    EXPECT_TRUE(ctx.total()->limited());
    EXPECT_LE(ctx.total()->remaining_ms(), 30.0 + 1.0);
}

// ---- Scope mechanics: diagnostics, traces, accumulation -----------------

TEST(StageScope, RecordsStateNoteAndRetries) {
    FlowOptions opts = quiet_options();
    FlowDiagnostics diag;
    FlowContext ctx("test", opts, diag);
    run_stage(ctx, StageId::Decompose, [&](StageScope& s) { s.ok(); });
    run_stage(ctx, StageId::Mapping, [&](StageScope& s) {
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
    run_stage(ctx, StageId::Mapping, [&](StageScope& s) {
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
        run_stage(ctx, StageId::Mapping, [&](StageScope&) {
            run_stage(ctx, StageId::Placement, [&](StageScope& inner) { inner.ok(); });
        });
        run_stage(ctx, StageId::Routing, [&](StageScope& s) { s.ok(); });
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
        EXPECT_TRUE(is_stage_name(s.name)) << s.name;
    }
}

TEST(StageScope, ElapsedAccumulatesAcrossReenteredScopes) {
    TraceSink sink;
    FlowOptions opts = quiet_options();
    opts.trace = &sink;
    FlowDiagnostics diag;
    {
        FlowContext ctx("test-flow", opts, diag);
        const auto busy_wait = [] {
            const auto until =
                StageBudget::Clock::now() + std::chrono::milliseconds(2);
            while (StageBudget::Clock::now() < until) {
            }
        };
        run_stage(ctx, StageId::Mapping, [&](StageScope& s) {
            busy_wait();
            s.ok();
        });
        run_stage(ctx, StageId::Mapping, [&](StageScope& s) {
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

TEST(TraceSinkTest, JsonlDumpCoversAllRecordTypes) {
    TraceSink sink;
    const std::uint64_t flow = sink.begin_flow("f");
    const std::size_t span = sink.begin_span("mapping", TraceSink::Clock::now());
    sink.counter(span, "nodes", 42.0);
    sink.end_span(span, 1.5, "ok", 0, "");
    sink.end_flow(flow);
    EXPECT_TRUE(sink.all_closed());
    const std::string jsonl = sink.to_jsonl();
    EXPECT_NE(jsonl.find("\"type\":\"flow\""), std::string::npos);
    EXPECT_NE(jsonl.find("\"type\":\"span\""), std::string::npos);
    EXPECT_NE(jsonl.find("\"name\":\"mapping\""), std::string::npos);
    // Counters live inside their span record, after the span's own ones
    // come the memory counters end_span stamps.
    EXPECT_NE(jsonl.find("\"counters\":{\"nodes\":42,\"alloc_count\":"), std::string::npos)
        << jsonl;
    EXPECT_NE(jsonl.find("\"rss_peak_kb\":"), std::string::npos);
    EXPECT_EQ(std::count(jsonl.begin(), jsonl.end(), '\n'), 2);  // one flow, one span
}

TEST(TraceSinkTest, UnclosedSpanIsDetected) {
    TraceSink sink;
    sink.begin_flow("f");
    sink.begin_span("mapping", TraceSink::Clock::now());
    EXPECT_FALSE(sink.all_closed());
}

TEST(TracePhase, UntracedPhaseAllocatesNothing) {
    ASSERT_EQ(t_active_sink, nullptr);
    const AllocStats before = alloc_stats_snapshot();
    { const TracePhase phase("dp"); }
    EXPECT_EQ(alloc_stats_snapshot().count, before.count);
}

TEST(TracePhase, PhasesAreChildSpansOfTheOpenStage) {
    TraceSink sink;
    FlowOptions opts = quiet_options();
    opts.trace = &sink;
    FlowDiagnostics diag;
    {
        FlowContext ctx("test-flow", opts, diag);
        EXPECT_EQ(t_active_sink, &sink);
        run_stage(ctx, StageId::Mapping, [&](StageScope& s) {
            {
                const TracePhase dp("dp");
                const TracePhase round("replace");
            }
            const TracePhase extract("extract");
            s.counter("qp_assemblies", 1.0);
            s.ok();
        });
    }
    EXPECT_EQ(t_active_sink, nullptr);  // restored when the context closed
    { const TracePhase outside("dp"); }  // no active sink: records nothing
    EXPECT_TRUE(sink.all_closed());
    const auto spans = sink.spans();
    ASSERT_EQ(spans.size(), 4u);
    EXPECT_EQ(spans[0].name, "mapping");
    EXPECT_EQ(spans[1].name, "dp");
    EXPECT_EQ(spans[1].depth, 2);
    EXPECT_EQ(spans[2].name, "replace");
    EXPECT_EQ(spans[2].depth, 3);
    EXPECT_EQ(spans[3].name, "extract");
    EXPECT_EQ(spans[3].depth, 2);
    const auto end = [](const TraceSpan& s) { return s.start_ms + s.elapsed_ms; };
    for (std::size_t i = 1; i < spans.size(); ++i) {
        const TraceSpan& parent = spans[i].depth == 3 ? spans[1] : spans[0];
        EXPECT_GE(spans[i].start_ms, parent.start_ms) << spans[i].name;
        EXPECT_LE(end(spans[i]), end(parent)) << spans[i].name;
    }
    EXPECT_LE(end(spans[1]), spans[3].start_ms);  // siblings do not overlap
    // The stage counter sits on the stage span, unprefixed.
    ASSERT_FALSE(spans[0].counters.empty());
    EXPECT_EQ(spans[0].counters[0].first, "qp_assemblies");
    for (const TraceSpan& s : spans) {
        ASSERT_GE(s.counters.size(), 3u) << s.name;
        EXPECT_EQ(s.counters.back().first, "rss_peak_kb") << s.name;
    }
}

TEST(TraceSinkTest, FromFilesFlowDumpsOneTreeUnderLilyTrace) {
    // run_flow_from_files calls run_lily_flow_checked: under LILY_TRACE the
    // inner flow traces into the outer one's sink, and only the outer
    // context dumps, in one append.
    const std::string path = ::testing::TempDir() + "stage_test_nested.trace";
    std::remove(path.c_str());
    ASSERT_EQ(setenv("LILY_TRACE", path.c_str(), 1), 0);
    const std::string src = LILY_SOURCE_DIR;
    const StatusOr<FlowResult> first =
        run_flow_from_files(src + "/examples/circuits/full_adder.blif",
                            src + "/lib/msu_tiny.genlib", quiet_options(), FlowKind::Lily);
    const StatusOr<FlowResult> second =
        run_flow_from_files(src + "/examples/circuits/full_adder.blif",
                            src + "/lib/msu_tiny.genlib", quiet_options(), FlowKind::Lily);
    unsetenv("LILY_TRACE");
    ASSERT_TRUE(first.is_ok()) << first.status().to_string();
    ASSERT_TRUE(second.is_ok()) << second.status().to_string();

    std::ifstream in(path);
    std::vector<std::string> lines;
    for (std::string line; std::getline(in, line);) lines.push_back(line);
    std::remove(path.c_str());
    // Two appends, each: the outer and the inner flow record, then spans.
    const auto is_flow = [](const std::string& l) {
        return l.find("\"type\":\"flow\"") != std::string::npos;
    };
    std::vector<std::size_t> flow_lines;
    for (std::size_t i = 0; i < lines.size(); ++i)
        if (is_flow(lines[i])) flow_lines.push_back(i);
    ASSERT_EQ(flow_lines.size(), 4u);
    EXPECT_EQ(flow_lines[0], 0u);
    EXPECT_EQ(flow_lines[1], 1u);
    EXPECT_EQ(flow_lines[3], flow_lines[2] + 1);
    EXPECT_NE(lines[0].find(flow_label::kFromFiles), std::string::npos);
    EXPECT_NE(lines[1].find(flow_label::kLily), std::string::npos);
    std::set<std::string> ids;
    for (const std::size_t i : flow_lines) {
        const std::size_t at = lines[i].find("\"id\":");
        ASSERT_NE(at, std::string::npos);
        ids.insert(lines[i].substr(at, lines[i].find(',', at) - at));
    }
    EXPECT_EQ(ids.size(), 4u);  // ids are unique within the process
    const std::string outer_id = lines[0].substr(lines[0].find("\"id\":") + 5);
    EXPECT_NE(lines[1].find("\"parent\":" + outer_id.substr(0, outer_id.find(','))),
              std::string::npos);
}

// ---- End to end: served jobs carry per-stage timings --------------------

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
        // Every reported name is a stage_name().
        EXPECT_TRUE(is_stage_name(st.name)) << st.name;
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
