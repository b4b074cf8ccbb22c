// The stage layer shared by every flow entry point (batch baseline, batch
// Lily, ECO, served jobs, file loads): stage names, the per-flow context
// and the scope that times one stage.
//
//   FlowDiagnostics diag;
//   FlowContext ctx(flow_label::kLily, opts, diag);
//   LILY_RETURN_IF_ERROR(run_stage(ctx, StageId::Decompose, [&](StageScope& s) {
//       ...;          // kernel calls
//       s.ok();       // terminal StageState + note
//       return Status::ok();
//   }));
//
// stage_name() is the single source of the names FlowDiagnostics, traces,
// reports and scripts/check_trace.py use. A StageScope accumulates (never
// overwrites) the stage's elapsed_ms on exit and mirrors the exact same
// increment into the trace span it opened, so per-stage trace sums and
// FlowDiagnostics agree bit-for-bit. The FlowContext owns the whole-flow
// budget, the CheckLevel gate and the trace sink (FlowOptions::trace, the
// calling flow's sink, or a file sink when LILY_TRACE is set). Kernels poll
// the caller's own budget (LilyOptions::budget,
// GlobalPlacementOptions::budget, RouterOptions::budget) when one is set,
// and the whole-flow budget otherwise.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "check/mapped_checker.hpp"
#include "check/match_checker.hpp"
#include "flow/flow.hpp"
#include "util/trace.hpp"

namespace lily {

/// Canonical entry-point labels: the flow names used for trace records and
/// Status context strings ("run_lily_flow_checked: decompose").
/// scripts/check_trace.py keeps the same set.
namespace flow_label {
inline constexpr const char* kBaseline = "run_baseline_flow_checked";
inline constexpr const char* kLily = "run_lily_flow_checked";
inline constexpr const char* kBackend = "run_backend_checked";
inline constexpr const char* kEco = "run_eco_flow_checked";
inline constexpr const char* kFromFiles = "run_flow_from_files";
inline constexpr const char* kJob = "run_flow_job";
}  // namespace flow_label

/// Every stage any flow entry point executes.
enum class StageId : std::uint8_t {
    ParseGenlib,
    ParseBlif,
    Decompose,
    Mapping,
    Placement,
    Routing,
    Timing,
    Checks,
    Verify,
    Adaptive,
    Eco,
    EcoSubject,
    EcoMapping,
    EcoPlacement,
    EcoRouting,
    EcoTiming,
};

inline constexpr std::size_t kStageCount = static_cast<std::size_t>(StageId::EcoTiming) + 1;

/// The stage's canonical diagnostics/trace/report name ("mapping").
const char* stage_name(StageId id);

// ---- Shared helpers ---------------------------------------------------

double ms_since(StageBudget::Clock::time_point t0);

/// Cover mode applied to both mappers: the explicit option, or the classic
/// per-objective choice (Trees for area, Cones for delay).
CoverMode effective_cover(const FlowOptions& opts);

/// Map a boundary point of `from` onto the boundary of `to` (both centered
/// axis-aligned rectangles) by scaling each axis independently.
Point rescale_point(const Point& p, const Rect& from, const Rect& to);

/// Fold the checkers' throwing interface into the Status channel: they
/// signal corrupted pipeline state with std::logic_error.
template <typename F>
Status guarded_check(F&& body) {
    try {
        body();
    } catch (const std::exception& e) {
        return Status(StatusCode::InvariantViolation, e.what());
    }
    return Status::ok();
}

/// Per-flow execution context: options, diagnostics, the whole-flow budget,
/// check gating and the trace sink. One per entry-point invocation; stages
/// run against it through StageScope. The sink is FlowOptions::trace, else
/// the thread's active sink (the calling flow's), else a LILY_TRACE file
/// sink the context owns. Construction opens the trace flow record and makes
/// the sink the thread's active sink, where TracePhase finds it; destruction
/// restores the previous active sink, closes the record and, for an owned
/// sink, appends the JSON-lines dump to the file.
class FlowContext {
public:
    FlowContext(const char* flow_label, const FlowOptions& opts, FlowDiagnostics& diag);
    ~FlowContext();
    FlowContext(const FlowContext&) = delete;
    FlowContext& operator=(const FlowContext&) = delete;

    const char* label() const { return label_; }
    const FlowOptions& opts() const { return opts_; }
    FlowDiagnostics& diag() { return diag_; }

    /// Whole-flow wall-clock budget; nullptr when unlimited. Kernels
    /// without a budget of their own poll this one.
    StageBudget* total() { return limited_ ? &total_ : nullptr; }

    /// True unless FlowOptions::check is Off.
    bool checks_enabled() const;

    /// Status context string "label: what".
    std::string context(std::string_view what) const;

    TraceSink* trace() { return sink_; }

private:
    const char* label_;
    const FlowOptions& opts_;
    FlowDiagnostics& diag_;
    StageBudget total_;
    bool limited_ = false;
    TraceSink* outer_sink_;  // the thread's active sink before this context
    TraceSink* sink_ = nullptr;
    std::unique_ptr<TraceSink> owned_sink_;  // LILY_TRACE file sink
    std::string owned_path_;
    std::uint64_t flow_id_ = 0;
};

/// RAII execution of one stage: opens the trace span and the diagnostics
/// entry on entry; on exit accumulates elapsed_ms (+=, never =, so a
/// re-entered stage keeps earlier attempts' time) and closes the span with
/// the identical increment plus the terminal state/retries/note.
class StageScope {
public:
    StageScope(FlowContext& ctx, StageId id);
    ~StageScope();
    StageScope(const StageScope&) = delete;
    StageScope& operator=(const StageScope&) = delete;

    /// The stage's diagnostics entry (find-or-add; re-fetched per call
    /// because a nested scope's first touch appends to the stage vector and
    /// may move the entries).
    StageDiagnostics& diag() { return ctx_.diag().stage(stage_name(id_)); }

    /// Terminal-state helpers. An empty note leaves the existing note
    /// untouched (e.g. Failed after Recovered keeps the rung's note).
    void ok(std::string note = "");
    void ok_if_unset();  // NotRun -> Ok, anything else untouched
    void degraded(std::string note);
    void recovered(std::string note);
    void failed(std::string note = "");

    /// Trace counter `name` on this stage's span (no-op when the flow is
    /// untraced).
    void counter(std::string_view name, double value);

private:
    void set_state(StageState state, std::string note);

    FlowContext& ctx_;
    StageId id_;
    StageBudget::Clock::time_point t0_;
    std::size_t span_ = 0;
};

/// Run body(scope) under a StageScope for `id`. The body's return value
/// passes through, so Status-returning stages compose with
/// LILY_RETURN_IF_ERROR.
template <typename F>
auto run_stage(FlowContext& ctx, StageId id, F&& body) {
    StageScope scope(ctx, id);
    return std::forward<F>(body)(scope);
}

/// The verify stage shared by the batch and ECO entry points: check that
/// `mapped` (through its library cell functions) computes the same function
/// as `source`, honoring FlowOptions::verify (Off is a no-op). `sub` is the
/// decomposition `mapped` covers. At Prove the mapping's certificate
/// (check_certificate) is tried first; when it declines, the stage proves by
/// SAT sweeping (check_equivalence). Outcomes land in the context's
/// diagnostics under stage "verify": Ok on a proof or clean simulation,
/// Degraded when a proof was inconclusive and the simulation fallback found
/// no miscompare. A disagreement returns InvariantViolation carrying the
/// counterexample (replayed through simulate_block). The verify:miscompare
/// fault probe flips one gate function first, so tests can prove the
/// refutation path stays live.
Status run_verify_stage(FlowContext& ctx, const Network& source, const DecomposeResult& sub,
                        const Library& lib, const MappedNetlist& mapped);

/// The routing stages' trace counters: connections, mazed (maze searches
/// run), maze_expanded (heap entries they popped), overflow and kept (0 on
/// the batch stage). One full set per routing span.
void route_counters(StageScope& s, const RouteResult& routed);

/// CheckLevel::Light over a subject graph; Ok when checks are off.
Status check_subject(const FlowContext& ctx, const SubjectGraph& g, std::string_view what);

/// CheckLevel::Light over a fresh mapping: every chosen match is a legal
/// cover computing its cone's function (exact truth tables), and the mapped
/// netlist is well formed. Ok when checks are off.
template <typename Solution>
Status check_mapping(const FlowContext& ctx, const Library& lib, const SubjectGraph& g,
                     const std::vector<Solution>& solution, const MappedNetlist& mapped,
                     std::string_view what) {
    if (!ctx.checks_enabled()) return Status::ok();
    return guarded_check([&] {
        const MatchChecker match_checker(lib);
        CheckReport rep;
        for (const Solution& s : solution) {
            if (s.has_match) rep.merge(match_checker.check_function(g, s.match));
        }
        rep.merge(MappedChecker(lib).check(mapped));
        rep.throw_if_errors(ctx.context(what));
    });
}

}  // namespace lily
