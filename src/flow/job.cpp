#include "flow/job.hpp"

#include <chrono>
#include <exception>

#include "flow/report.hpp"
#include "flow/stage.hpp"
#include "library/library.hpp"
#include "netlist/blif.hpp"
#include "util/crash.hpp"

namespace lily {

const char* to_string(JobTier tier) {
    return tier == JobTier::Full ? "full" : "degraded";
}

const char* to_string(JobState state) {
    switch (state) {
        case JobState::Queued: return "queued";
        case JobState::Running: return "running";
        case JobState::Ok: return "ok";
        case JobState::Degraded: return "degraded";
        case JobState::Error: return "error";
    }
    return "?";
}

namespace {

JobOutcome error_outcome(const JobSpec& spec, const Status& status, double elapsed_ms) {
    JobOutcome out;
    out.state = JobState::Error;
    out.status_code = status.code();
    out.status_message = status.message();
    out.tier = spec.tier;
    out.elapsed_ms = elapsed_ms;
    out.report_json = flow_report_json(status, nullptr, nullptr);
    return out;
}

FlowOptions options_for(const JobSpec& spec) {
    FlowOptions opts;
    opts.objective = spec.options.objective;
    opts.check = spec.options.check;
    opts.verify = spec.options.verify;
    opts.budget.total_ms = spec.options.budget_ms;
    if (spec.tier == JobTier::Degraded) {
        // The retry tier starts where the adaptive schedule ends: wire-blind
        // Lily mapping. A job whose full-effort run crashed the worker gets
        // the cheapest viable path, not a second identical crash.
        opts.lily.wire_weight = 0.0;
    }
    return opts;
}

/// Flatten executed stages into the outcome's timing list (NotRun entries
/// are placeholders from scopes whose flow errored out elsewhere — skip).
void append_stage_times(const FlowDiagnostics& diag, std::vector<StageTime>& out) {
    for (const StageDiagnostics& s : diag.stages) {
        if (s.state == StageState::NotRun) continue;
        out.push_back(StageTime{s.name, s.elapsed_ms});
    }
}

}  // namespace

JobOutcome run_flow_job(const JobSpec& spec) {
    const auto t0 = StageBudget::Clock::now();
    const auto elapsed = [&] {
        return std::chrono::duration<double, std::milli>(StageBudget::Clock::now() - t0)
            .count();
    };

    // The job's own context covers the parse stages; the nested checked
    // flow runs under its own. Both contribute to stage_times.
    const FlowOptions opts = options_for(spec);
    FlowDiagnostics job_diag;
    FlowContext ctx(flow_label::kJob, opts, job_diag);
    const auto fail = [&](const Status& status) {
        JobOutcome out =
            error_outcome(spec, Status(status).with_context("job " + spec.name), elapsed());
        append_stage_times(job_diag, out.stage_times);
        return out;
    };
    const auto parse_stage = [&](StageId id, auto parse) {
        return run_stage(ctx, id, [&](StageScope& s) {
            auto parsed = parse();
            if (parsed.is_ok()) {
                s.ok();
            } else {
                s.failed(parsed.status().message());
            }
            return parsed;
        });
    };

    crash_set_stage("parse");
    const StatusOr<Network> net =
        parse_stage(StageId::ParseBlif, [&] { return read_blif_checked(spec.blif); });
    if (!net.is_ok()) return fail(net.status());
    // Every served library is named "genlib", so served bytes depend on the
    // library text alone.
    const StatusOr<Library> lib = parse_stage(
        StageId::ParseGenlib, [&] { return read_genlib_checked(spec.genlib, "genlib"); });
    if (!lib.is_ok()) return fail(lib.status());
    const Network& network = net.value();
    const Library& library = lib.value();

    crash_set_stage("flow");
    StatusOr<FlowResult> flow = [&]() -> StatusOr<FlowResult> {
        try {
            return run_flow_checked(spec.options.kind, network, library, opts);
        } catch (const std::exception& e) {
            // The checked entry points reserve exceptions for invariant
            // violations (CheckLevel); a serving job folds those into the
            // Status taxonomy rather than unwinding out of the worker.
            return Status(StatusCode::InvariantViolation, e.what());
        }
    }();
    crash_set_stage("result");
    if (!flow.is_ok()) return fail(flow.status());

    const FlowResult& result = flow.value();
    JobOutcome out;
    out.tier = spec.tier;
    out.metrics = result.metrics;
    out.state = (spec.tier == JobTier::Degraded || result.diagnostics.degraded())
                    ? JobState::Degraded
                    : JobState::Ok;
    out.status_code = StatusCode::Ok;
    out.elapsed_ms = elapsed();
    out.report_json =
        flow_report_json(Status::ok(), &result.diagnostics, &result.metrics);
    out.mapped_blif = write_blif(result.netlist.to_network(library, spec.name));
    append_stage_times(job_diag, out.stage_times);
    append_stage_times(result.diagnostics, out.stage_times);
    return out;
}

}  // namespace lily
