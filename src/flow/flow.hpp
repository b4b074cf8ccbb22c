// End-to-end experimental pipelines, mirroring Section 5 of the paper:
//
//  Pipeline 1 (baseline / "MIS2.1"):
//    read optimized circuit -> MIS-style mapping -> assign I/O pads ->
//    global+detailed placement -> global routing -> metrics.
//
//  Pipeline 2 (Lily):
//    read optimized circuit -> assign I/O pads -> balanced global placement
//    of the inchoate network -> Lily mapping (placement-coupled) ->
//    global+detailed placement -> global routing -> metrics.
//
// Both pipelines share the identical back end (pad placer, placer,
// legalizer, router, chip-area model, timing), as the paper requires for a
// fair comparison.
#pragma once

#include <optional>
#include <string>

#include "check/check.hpp"
#include "flow/diagnostics.hpp"
#include "lily/lily_mapper.hpp"
#include "subject/decompose.hpp"
#include "map/base_mapper.hpp"
#include "route/chip_area.hpp"
#include "route/global_router.hpp"
#include "sta/timing.hpp"
#include "util/budget.hpp"
#include "util/status.hpp"
#include "verify/cec.hpp"

namespace lily {

class TraceSink;  // util/trace.hpp

/// Unit conventions for paper-style reporting: gate areas are in units of
/// 1000 um^2 (so 1 unit = 0.001 mm^2) and lengths in units of
/// sqrt(0.001 mm^2) ~ 0.0316 mm.
inline constexpr double kAreaUnitMm2 = 0.001;
inline constexpr double kLengthUnitMm = 0.0316227766;

/// Wall-clock budgets for the expensive stages, in milliseconds; 0 leaves a
/// dimension unlimited. `total_ms` caps the whole flow (per-stage budgets
/// are intersected with what remains of it) and defaults to LILY_BUDGET_MS
/// from the environment. Exhaustion never aborts the flow: stages hand back
/// best-effort partial results and FlowDiagnostics records the degradation.
struct FlowBudget {
    double total_ms = budget_ms_from_env();
    double placement_ms = 0.0;
    double mapping_ms = 0.0;
    double routing_ms = 0.0;

    bool unlimited() const {
        return total_ms <= 0.0 && placement_ms <= 0.0 && mapping_ms <= 0.0 && routing_ms <= 0.0;
    }
};

/// The graceful-degradation ladder's knobs (Section 5's "repeat the mapping
/// with reduced wire cost weight" generalized). Scales apply to
/// LilyOptions::wire_weight in order; the defaults reproduce the historical
/// adaptive schedule (weight/4, then 0).
struct RecoveryPolicy {
    std::size_t max_retries = 2;
    std::vector<double> wire_weight_scale = {0.25, 0.0};
    /// Rung: Lily mapping failure (placement divergence, matcher dead end)
    /// falls back to the wire-blind baseline mapper on the same subject
    /// graph instead of failing the flow.
    bool allow_baseline_fallback = true;
    /// Rung: routing budget exhaustion (or the router:overbudget fault)
    /// reports HPWL-estimated wirelength/chip-area instead of routed
    /// metrics, flagged in FlowDiagnostics.
    bool allow_hpwl_metrics = true;
};

struct FlowOptions {
    MapObjective objective = MapObjective::Area;
    /// Cover mode applied to BOTH mappers. Unset picks the classic choice
    /// per objective: Trees (no duplication) for area mapping, Cones (MIS
    /// logic duplication) for timing mapping — matching the tools the
    /// paper compared against.
    std::optional<CoverMode> cover;
    /// Subject-graph construction for BOTH pipelines (shape, INV-pair
    /// folding); defaults to the paper-era MIS-style decomposition.
    DecomposeOptions decompose;
    BaseMapperOptions base;      // baseline mapper knobs
    LilyOptions lily;            // Lily knobs
    RouterOptions router;
    ChipAreaOptions chip;
    TimingOptions timing;
    double placement_utilization = 0.5;
    /// Pipeline self-verification: every stage runs its invariant checkers
    /// and throws std::logic_error (with the full CheckReport) on a
    /// violation. Light = structural scans; Paranoid adds simulation
    /// equivalence and per-match cone verification. Defaults to the
    /// LILY_CHECK_LEVEL environment variable (off when unset), so test and
    /// CI runs can turn the whole pipeline paranoid without code changes.
    CheckLevel check = check_level_from_env();
    /// Post-mapping equivalence verification: compare the mapped netlist
    /// (through its library cell functions) against the source network.
    /// Sim = random simulation; Prove = SAT-sweeping CEC, falling back to
    /// the simulation verdict when a proof is inconclusive (recorded as a
    /// Degraded "verify" stage). A refuted/miscompared netlist fails the
    /// flow with InvariantViolation carrying the counterexample. Defaults
    /// to the LILY_VERIFY environment variable (off when unset).
    VerifyLevel verify = verify_level_from_env();
    /// Prover knobs (budgets, simulation blocks) for the verify stage.
    CecOptions cec;
    /// Per-stage wall-clock budgets (default: LILY_BUDGET_MS or unlimited).
    FlowBudget budget;
    /// Fallback/retry behavior when a stage fails or runs out of budget.
    RecoveryPolicy recovery;
    /// Worker threads for the parallel kernels (placement assembly, CG).
    /// 0 = LILY_THREADS from the environment, or the hardware concurrency
    /// when unset. All reductions are deterministic: results are
    /// bit-identical for every thread count.
    std::size_t threads = 0;
    /// Structured trace sink the StageExecutor emits spans/counters into
    /// (caller-owned; see util/trace.hpp). nullptr falls back to the
    /// LILY_TRACE environment variable: when that names a file, each flow
    /// appends its JSON-lines records there on completion. Tracing never
    /// alters results.
    TraceSink* trace = nullptr;
};

struct FlowMetrics {
    std::size_t gate_count = 0;
    double cell_area = 0.0;       // total instance area (units)
    double chip_area = 0.0;       // cell + routing area (units)
    double wirelength = 0.0;      // routed wirelength (length units)
    double critical_delay = 0.0;  // ns, with wire delays included
    double max_congestion = 0.0;

    double cell_area_mm2() const { return cell_area * kAreaUnitMm2; }
    double chip_area_mm2() const { return chip_area * kAreaUnitMm2; }
    double wirelength_mm() const { return wirelength * kLengthUnitMm; }
};

struct FlowResult {
    MappedNetlist netlist;
    FlowMetrics metrics;
    std::vector<Point> final_positions;  // detailed placement (per instance)
    std::vector<Point> pad_positions;    // I/O pads in the region frame
    Rect region;
    /// Per-stage outcome record: which stages ran, timings, retries, and
    /// which degradation rungs fired. diagnostics.degraded() distinguishes
    /// a clean run from a best-effort one.
    FlowDiagnostics diagnostics;
};

/// Pipeline 1: interconnect-blind mapping, layout afterwards (Status form).
StatusOr<FlowResult> run_baseline_flow_checked(const Network& net, const Library& lib,
                                               const FlowOptions& opts = {});

/// Pipeline 1, throwing wrapper.
FlowResult run_baseline_flow(const Network& net, const Library& lib,
                             const FlowOptions& opts = {});

/// Optional tap for the flow's intermediate artifacts. FlowResult carries
/// only what metrics reporting needs; the incremental (ECO) pipeline also
/// needs the subject graph, the mapper's DP state and the placed/routed
/// layout to seed its versioned stage cache from a batch run. When a
/// capture is passed, the flow moves those artifacts out on success —
/// behavior is otherwise unchanged, so a captured run is bit-identical to
/// an uncaptured one.
struct FlowCapture {
    DecomposeResult subject;
    LilyResult lily;  // empty when the run fell back to the baseline mapper
    bool used_baseline_fallback = false;
    DetailedPlacement detailed;  // row structure the ECO legalizer extends
    RouteResult routed;  // replayable plan route_incremental patches
};

/// Pipeline 2: layout-driven (Lily) mapping, with the graceful-degradation
/// ladder (Status form). A Lily mapping failure falls back to the wire-blind
/// baseline mapping; routing budget exhaustion falls back to HPWL metrics;
/// both are recorded in FlowResult::diagnostics. A non-OK return means no
/// rung of the ladder could produce a usable result. `capture`, when
/// non-null, receives the intermediate stage artifacts on success.
StatusOr<FlowResult> run_lily_flow_checked(const Network& net, const Library& lib,
                                           const FlowOptions& opts = {},
                                           FlowCapture* capture = nullptr);

/// Pipeline 2, throwing wrapper.
FlowResult run_lily_flow(const Network& net, const Library& lib, const FlowOptions& opts = {});

/// The paper's Section 5 remedy for circuits where the dynamic wire length
/// estimation misfires (their misex1): "repeat the mapping with reduced
/// wire cost weight to obtain better solutions". Runs the Lily pipeline,
/// compares its routed wirelength against `reference_wirelength` (pass the
/// baseline pipeline's result; 0 runs the baseline internally), and retries
/// with the wire weight quartered and then zeroed, keeping the best run.
/// The retry schedule comes from FlowOptions::recovery (max_retries,
/// wire_weight_scale); retries are recorded in the "adaptive" stage of the
/// winning run's diagnostics.
StatusOr<FlowResult> run_lily_flow_adaptive_checked(const Network& net, const Library& lib,
                                                    const FlowOptions& opts = {},
                                                    double reference_wirelength = 0.0);

/// Throwing wrapper for the adaptive pipeline.
FlowResult run_lily_flow_adaptive(const Network& net, const Library& lib,
                                  const FlowOptions& opts = {},
                                  double reference_wirelength = 0.0);

/// Pad positions expressed relative to the region they were assigned in, so
/// the back end can rescale them onto the (differently sized) mapped
/// region while keeping the boundary assignment.
struct PadsInRegion {
    std::vector<Point> positions;
    Rect region;
};

/// Shared back end: place (pads given or computed), legalize, route, time.
/// `seed_positions` (one per gate instance, in the pads' region frame)
/// anchors the global placement — this is how Lily's constructive
/// mapPositions carry through to detailed placement, per the paper's
/// integrated pipeline. The placer still balances and legalizes, so a poor
/// seed degrades gracefully.
FlowResult run_backend(const MappedNetlist& mapped, const Library& lib, const FlowOptions& opts,
                       std::optional<PadsInRegion> pads = std::nullopt,
                       std::optional<std::vector<Point>> seed_positions = std::nullopt);

/// Status form of run_backend (diagnostics carried on the result).
StatusOr<FlowResult> run_backend_checked(
    const MappedNetlist& mapped, const Library& lib, const FlowOptions& opts,
    std::optional<PadsInRegion> pads = std::nullopt,
    std::optional<std::vector<Point>> seed_positions = std::nullopt);

/// Which pipeline a file or served job drives. The values are the job wire
/// and spool byte (serve/protocol.cpp), so they must not change.
enum class FlowKind : std::uint8_t { Baseline = 0, Lily = 1, Adaptive = 2 };

/// Run the selected checked pipeline (the adaptive one against an internal
/// baseline reference).
StatusOr<FlowResult> run_flow_checked(FlowKind kind, const Network& net, const Library& lib,
                                      const FlowOptions& opts = {});

/// File-to-metrics convenience entry: parse the genlib library and the BLIF
/// netlist (both recorded as flow stages, including gates the library
/// loader skipped), validate, and run the selected pipeline. Parse errors
/// surface as StatusCode::ParseError with file/line context instead of
/// exceptions, so tools can report them and move on to the next input.
StatusOr<FlowResult> run_flow_from_files(const std::string& blif_path,
                                         const std::string& genlib_path,
                                         const FlowOptions& opts = {},
                                         FlowKind kind = FlowKind::Lily);

}  // namespace lily
