// The serving layer's unit of work: a self-contained mapping job (BLIF
// text + genlib text + a serializable subset of FlowOptions) and its
// terminal outcome. run_flow_job is the job-entry shim over the checked
// flow entry points — it is what a warm pooled worker executes per
// dispatched job, and what the bench harness runs in-process to prove
// served results are bit-identical to direct invocation. Every job parses
// its own circuit and library: both parses are a few percent of a job.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "flow/flow.hpp"

namespace lily {

/// Effort tier. A job crashed or killed at Full is retried once at
/// Degraded, which maps with wire weight 0 (where the adaptive schedule
/// ends) so the retry takes the cheapest viable path through the flow.
enum class JobTier : std::uint8_t { Full = 0, Degraded = 1 };

const char* to_string(JobTier tier);

/// The wire/spool-serializable subset of FlowOptions. Everything not listed
/// here keeps its FlowOptions default inside the worker; in particular a
/// job always runs on one thread.
struct JobFlowOptions {
    FlowKind kind = FlowKind::Lily;
    MapObjective objective = MapObjective::Area;
    CheckLevel check = CheckLevel::Off;
    VerifyLevel verify = VerifyLevel::Off;
    double budget_ms = 0.0;  // whole-flow wall budget; 0 = unlimited
};

struct JobSpec {
    std::string name;     // client-chosen label, for logs and spool audit
    std::string blif;     // circuit text (not a path: workers are sandboxed)
    std::string genlib;   // library text
    JobFlowOptions options;
    /// Fault spec installed in the worker before the flow runs (chaos
    /// harness / tests). Empty = no injection.
    std::string fault_spec;
    JobTier tier = JobTier::Full;
};

/// Job lifecycle. Queued/Running live in the server and its spool journal;
/// Ok/Degraded/Error are the terminal verdicts clients receive.
enum class JobState : std::uint8_t {
    Queued = 0,
    Running = 1,
    Ok = 2,
    Degraded = 3,
    Error = 4,
};

const char* to_string(JobState state);

inline bool job_state_terminal(JobState s) {
    return s == JobState::Ok || s == JobState::Degraded || s == JobState::Error;
}

/// One executed stage's wall time, as stamped by its StageScope. The
/// job's own parse stages come first (from the job context), then the
/// selected flow's stages in execution order. The server aggregates these
/// into per-stage latency percentiles (Stats "stage_timings").
struct StageTime {
    std::string name;
    double elapsed_ms = 0.0;
};

/// Terminal result of one job execution. `report_json` is the shared
/// machine-readable report (flow/report.hpp) the CLI's --json mode also
/// emits; `mapped_blif` is the mapped netlist serialized through
/// write_blif(to_network()), the artifact the bit-identity gate compares.
struct JobOutcome {
    JobState state = JobState::Error;
    StatusCode status_code = StatusCode::Internal;
    std::string status_message;
    std::uint32_t retries = 0;      // filled by the server, not the worker
    JobTier tier = JobTier::Full;   // tier the terminal attempt ran at
    std::string crash_info;         // supervisor/crash-reporter note, if any
    double elapsed_ms = 0.0;
    /// 1-based job index on the worker that ran the attempt (0 = not run
    /// by a pooled worker). Lets tests prove recycle-after-N really caps
    /// worker lifetimes.
    std::uint32_t worker_job_seq = 0;
    /// Per-stage wall times for every stage this attempt executed (parse
    /// stages included, NotRun stages omitted). Timing telemetry only:
    /// deliberately kept out of report_json, whose bytes are pinned by the
    /// bit-identity gate.
    std::vector<StageTime> stage_times;
    FlowMetrics metrics;
    std::string report_json;
    std::string mapped_blif;
};

/// Execute a job in the current process: parse the embedded circuit and
/// library, apply the options (a Degraded tier maps wire-blind), run the
/// selected checked flow, and fold the result into a terminal JobOutcome.
/// Never throws: parse failures and flow errors
/// come back as state=Error with the Status taxonomy preserved.
JobOutcome run_flow_job(const JobSpec& spec);

}  // namespace lily
