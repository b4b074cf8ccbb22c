// The pass-manager layer: one stage-execution substrate shared by every
// flow entry point (batch baseline, batch Lily, adaptive, ECO, served
// jobs, file loads).
//
// Each pipeline stage is registered in kStageTable as data: its canonical
// name (the single source of truth for FlowDiagnostics, traces, reports
// and the grep-based CI gates), the CheckStage family that guards it, the
// FlowBudget field that bounds it, the fault-registry stage its probes
// fire under, and the recovery rungs the graceful-degradation ladder may
// climb when it fails. The entry points then *execute* stages through
// StageExecutor/StageScope instead of hand-rolling budget derivation,
// elapsed-ms stamping, CheckLevel gating and fault probes four separate
// times:
//
//   FlowDiagnostics diag;
//   FlowContext ctx(flow_label::kLily, opts, diag);
//   StageExecutor exec(ctx);
//   LILY_RETURN_IF_ERROR(exec.run(StageId::Decompose, [&](StageScope& s) {
//       ...;          // kernel calls; s.budget() for the derived budget
//       s.ok();       // terminal StageState + note
//       return Status::ok();
//   }));
//
// A StageScope accumulates (never overwrites) the stage's elapsed_ms on
// exit and mirrors the exact same increment into the trace span it opened,
// so per-stage trace sums and FlowDiagnostics agree bit-for-bit. The
// FlowContext owns the whole-flow budget, the CheckLevel gate and the
// trace sink (FlowOptions::trace, or a file sink when LILY_TRACE is set).
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "flow/flow.hpp"
#include "util/alloc_stats.hpp"
#include "util/trace.hpp"

namespace lily {

/// Canonical entry-point labels: the flow names used for trace records and
/// Status context strings ("run_lily_flow: decompose").
namespace flow_label {
inline constexpr const char* kBaseline = "run_baseline_flow";
inline constexpr const char* kLily = "run_lily_flow";
inline constexpr const char* kAdaptive = "run_lily_flow_adaptive";
inline constexpr const char* kBackend = "run_backend";
inline constexpr const char* kEco = "run_eco_flow";
inline constexpr const char* kFromFiles = "run_flow_from_files";
inline constexpr const char* kJob = "run_flow_job";
}  // namespace flow_label

/// Every stage any flow entry point executes. Values index kStageTable.
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

inline constexpr std::size_t kStageCount = 16;

/// Which FlowBudget field bounds a stage (None = unbudgeted).
enum class BudgetKey : std::uint8_t { None, Mapping, Placement, Routing };

/// One registered pass: everything the executor needs, declared as data.
struct StageDescriptor {
    StageId id;
    const char* name;        // canonical diagnostics/trace/report name
    CheckStage check_stage;  // checker family guarding the stage
    BudgetKey budget_key;    // FlowBudget field intersected with the total
    const char* fault_stage; // fault-registry stage name ("" = no probes)
    /// Recovery rungs this stage may climb, in firing order. Names are
    /// matched by FlowContext::rung_enabled against RecoveryPolicy.
    const char* const* rungs;
    std::size_t n_rungs;
};

const std::array<StageDescriptor, kStageCount>& stage_table();
const StageDescriptor& stage_descriptor(StageId id);
const char* stage_name(StageId id);
/// Reverse lookup; nullopt for names not in the table.
std::optional<StageId> stage_id_from_name(std::string_view name);

// ---- Shared helpers (deduplicated from flow.cpp / pipeline.cpp) --------

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
/// check gating, fault probes and the trace sink. One per entry-point
/// invocation; stages run against it through StageExecutor. Construction
/// sizes the worker pool and opens the trace flow record; destruction
/// closes the record and, for a LILY_TRACE-owned sink, appends the
/// JSON-lines dump to the file.
class FlowContext {
public:
    FlowContext(const char* flow_label, const FlowOptions& opts, FlowDiagnostics& diag);
    ~FlowContext();
    FlowContext(const FlowContext&) = delete;
    FlowContext& operator=(const FlowContext&) = delete;

    const char* label() const { return label_; }
    const FlowOptions& opts() const { return opts_; }
    FlowDiagnostics& diag() { return diag_; }

    /// Whole-flow wall-clock budget; nullptr when unlimited.
    StageBudget* total() { return limited_ ? &total_ : nullptr; }

    /// Derive a stage's budget from its descriptor's budget key, intersected
    /// with what remains of the whole flow's budget — the deduplicated
    /// derive_stage_budget.
    StageBudget stage_budget(StageId id);

    CheckLevel check() const;
    bool checks_enabled() const;

    /// Fault probe for `kind` against the stage's registry name; always
    /// false for stages with no fault_stage.
    bool fault(StageId id, std::string_view kind) const;

    /// True when the named recovery rung is declared on the stage *and*
    /// enabled by RecoveryPolicy. Unknown names are false, so a rung the
    /// descriptor table doesn't declare can never fire.
    bool rung_enabled(StageId id, std::string_view rung) const;

    /// Status context string "label: what".
    std::string context(std::string_view what) const;

    TraceSink* trace() { return sink_; }

private:
    const char* label_;
    const FlowOptions& opts_;
    FlowDiagnostics& diag_;
    StageBudget total_;
    bool limited_ = false;
    TraceSink* sink_ = nullptr;
    std::unique_ptr<TraceSink> owned_sink_;  // LILY_TRACE file sink
    std::string owned_path_;
    std::uint64_t flow_id_ = 0;
};

/// RAII execution of one stage: opens the trace span and the diagnostics
/// entry on entry; on exit accumulates elapsed_ms (+=, never =, so retry
/// rungs inside the scope keep earlier attempts' time) and closes the span
/// with the identical increment plus the terminal state/retries/note.
class StageScope {
public:
    StageScope(FlowContext& ctx, StageId id);
    ~StageScope();
    StageScope(const StageScope&) = delete;
    StageScope& operator=(const StageScope&) = delete;

    FlowContext& ctx() { return ctx_; }
    StageId id() const { return id_; }
    const StageDescriptor& descriptor() const { return stage_descriptor(id_); }

    /// The stage's diagnostics entry (find-or-add; re-fetched per call so a
    /// concurrent stage insertion can never dangle the reference).
    StageDiagnostics& diag() { return ctx_.diag().stage(stage_name(id_)); }

    /// The stage budget, derived once on first use; the reference stays
    /// valid for the scope's lifetime so kernels may hold the pointer.
    StageBudget& budget();

    bool fault(std::string_view kind) const { return ctx_.fault(id_, kind); }
    bool rung(std::string_view name) const { return ctx_.rung_enabled(id_, name); }

    /// Terminal-state helpers. An empty note leaves the existing note
    /// untouched (e.g. Failed after Recovered keeps the rung's note).
    void ok(std::string note = "");
    void ok_if_unset();  // NotRun -> Ok, anything else untouched
    void degraded(std::string note);
    void recovered(std::string note);
    void failed(std::string note = "");

    double elapsed_ms() const { return ms_since(t0_); }

    /// Trace counter "<stage>.<name>" (no-op when the flow is untraced).
    void counter(std::string_view name, double value);

private:
    void set_state(StageState state, std::string note);

    FlowContext& ctx_;
    StageId id_;
    StageBudget::Clock::time_point t0_;
    StageBudget budget_;
    bool budget_derived_ = false;
    std::size_t span_ = static_cast<std::size_t>(-1);
    bool traced_ = false;
    AllocStats alloc0_;  // heap counters at entry, for the exit delta
};

/// The pass manager's run primitive: body(scope) under a StageScope. The
/// body's return value passes through, so Status-returning stages compose
/// with LILY_RETURN_IF_ERROR.
class StageExecutor {
public:
    explicit StageExecutor(FlowContext& ctx) : ctx_(ctx) {}

    template <typename F>
    auto run(StageId id, F&& body) {
        StageScope scope(ctx_, id);
        return std::forward<F>(body)(scope);
    }

    FlowContext& context() { return ctx_; }

private:
    FlowContext& ctx_;
};

/// The verify stage shared by the batch and ECO entry points: check that
/// `mapped` (through its library cell functions) computes the same function
/// as `source`, honoring FlowOptions::verify (Off is a no-op). Outcomes
/// land in the context's diagnostics under stage "verify": Ok on a proof or
/// clean simulation, Degraded when a proof was inconclusive and the
/// simulation fallback found no miscompare. A disagreement returns
/// InvariantViolation carrying the counterexample (replayed through
/// simulate_block). The verify:miscompare fault probe flips one gate
/// function first, so tests can prove the refutation path stays live.
Status run_verify_stage(FlowContext& ctx, const Network& source, const Library& lib,
                        const MappedNetlist& mapped);

}  // namespace lily
