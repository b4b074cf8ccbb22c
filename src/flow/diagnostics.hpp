// Per-stage outcome bookkeeping for the fault-tolerant flow engine.
//
// Every run_*_flow_checked entry point fills a FlowDiagnostics as it climbs
// through the pipeline: which stages ran, how long they took, whether a
// stage had to give up refinement (budget), retry (adaptive wire weights)
// or hand over to a fallback (the graceful-degradation ladder). The record
// rides on FlowResult so callers — and the lily_lint CLI — can tell
// a clean run from a degraded one without parsing logs.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

namespace lily {

enum class StageState : std::uint8_t {
    NotRun,     // stage never reached (earlier failure, or not part of this flow)
    Ok,         // completed normally
    Degraded,   // completed, but with reduced quality (budget fired, skipped work)
    Recovered,  // the stage failed and a fallback produced its result instead
    Failed,     // the stage failed and no rung of the ladder could recover it
};

const char* to_string(StageState state);

struct StageDiagnostics {
    std::string name;
    StageState state = StageState::NotRun;
    double elapsed_ms = 0.0;
    std::size_t retries = 0;  // adaptive re-runs, rip-up passes re-entered, ...
    std::string note;         // what happened / which degradation rung fired
};

struct FlowDiagnostics {
    std::vector<StageDiagnostics> stages;

    /// Find-or-add by stage name (stages keep first-touch order).
    StageDiagnostics& stage(std::string_view name);
    const StageDiagnostics* find(std::string_view name) const;

    /// Any stage that is not plain Ok/NotRun.
    bool degraded() const;

    /// One line per stage: "mapping: recovered (12.3ms) — wire-blind
    /// baseline fallback after ConvergenceFailure".
    std::string to_string() const;
};

}  // namespace lily
