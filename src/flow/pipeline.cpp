#include "flow/pipeline.hpp"

#include <stdexcept>
#include <utility>

#include "check/mapped_checker.hpp"
#include "check/match_checker.hpp"
#include "check/placement_checker.hpp"
#include "check/subject_checker.hpp"
#include "flow/stage.hpp"
#include "place/netlist_adapters.hpp"

namespace lily {

namespace {

/// Run the batch flow with a capture and repopulate every stage artifact.
/// Used by build_pipeline and by every full-reflow rung of the ECO path, so
/// the degenerate `delta = everything` case is bit-identical to the batch
/// entry point by construction.
Status rebuild_from_batch(PipelineState& state) {
    FlowCapture cap;
    StatusOr<FlowResult> flow = run_lily_flow_checked(state.net, *state.lib, state.opts, &cap);
    if (!flow.is_ok()) {
        Status bad = flow.status();
        return bad.with_context("pipeline: batch rebuild");
    }
    state.flow = std::move(flow).value();
    state.subject = std::move(cap.subject);
    state.lily = std::move(cap.lily);
    state.used_baseline_fallback = cap.used_baseline_fallback;
    state.detailed = std::move(cap.detailed);
    state.routed = std::move(cap.routed);
    state.subject_size_at_map = state.subject.graph.size();
    const Version v = state.net.version();
    state.subject_built_from = v;
    state.mapping_built_from = v;
    state.backend_built_from = v;
    return Status::ok();
}

/// The full-reflow rung: rebuild everything from the batch flow and report
/// the reason in the diagnostics. `how` is Ok when the caller asked for the
/// rebuild (delta = everything) and Recovered when an incremental stage
/// could not proceed and the ladder caught it.
StatusOr<EcoStats> full_reflow(PipelineState& state, EcoStats stats, std::string reason,
                               StageState how) {
    LILY_RETURN_IF_ERROR(rebuild_from_batch(state));
    stats.full_reflow = true;
    stats.subject_nodes_after = state.subject.graph.size();
    stats.total_cells = state.flow.netlist.gate_count();
    stats.diagnostics = state.flow.diagnostics;
    StageDiagnostics& ed = stats.diagnostics.stage(stage_name(StageId::Eco));
    ed.state = how;
    ed.note = std::move(reason);
    return stats;
}

}  // namespace

StatusOr<PipelineState> build_pipeline(const Network& net, const Library& lib,
                                       const FlowOptions& opts) {
    PipelineState state;
    state.net = net;
    state.lib = &lib;
    state.opts = opts;
    LILY_RETURN_IF_ERROR(rebuild_from_batch(state));
    return state;
}

StatusOr<EcoStats> run_eco_flow_checked(PipelineState& state, const NetDelta& delta) {
    if (state.lib == nullptr || !state.built()) {
        return Status(StatusCode::InvariantViolation,
                      "run_eco_flow: pipeline state not built (call build_pipeline first)");
    }
    FlowDiagnostics diag;
    FlowContext ctx(flow_label::kEco, state.opts, diag);
    StageExecutor exec(ctx);

    // ---- Stale-artifact gate: every downstream artifact must reflect the
    // current network generation before the delta advances it. Runs
    // unconditionally (O(stages) scan); the eco:stale-epoch fault corrupts
    // a stamp to keep the rejection path tested.
    std::vector<StageVersionRecord> records{
        {"subject", state.subject_built_from, state.net.version()},
        {"mapping", state.mapping_built_from, state.net.version()},
        {"backend", state.backend_built_from, state.net.version()},
    };
    if (ctx.fault(StageId::Eco, "stale-epoch")) {
        records[1].built_from -= 1;  // mapping now trails the subject epoch
    }
    const CheckReport stale = PipelineChecker{}.check(records);
    if (stale.has_errors()) {
        return Status(StatusCode::InvariantViolation, stale.to_string())
            .with_context("run_eco_flow: stale stage artifacts");
    }

    EcoStats stats;
    if (delta.empty()) {
        stats.version = state.net.version();
        stats.total_cells = state.flow.netlist.gate_count();
        stats.reused_nodes = state.lily.reused_nodes + state.lily.remapped_nodes;
        StageDiagnostics& ed = stats.diagnostics.stage(stage_name(StageId::Eco));
        ed.state = StageState::Ok;
        ed.note = "empty delta; every artifact reused";
        return stats;
    }

    StatusOr<AppliedDelta> appliedOr = state.net.apply_delta(delta);
    if (!appliedOr.is_ok()) {
        Status bad = appliedOr.status();
        return bad.with_context("run_eco_flow: apply_delta");
    }
    const AppliedDelta applied = std::move(appliedOr).value();
    stats.version = applied.version;
    stats.touched_nodes = applied.touched.size();

    if (delta.rebuild_everything) {
        return full_reflow(state, std::move(stats), "full rebuild requested (delta = everything)",
                           StageState::Ok);
    }
    if (state.used_baseline_fallback) {
        return full_reflow(state, std::move(stats),
                           "prior mapping was a baseline fallback; no DP seed to remap from",
                           StageState::Recovered);
    }

    // ---- Subject stage: re-derive only the dirty source cones; structural
    // hashing folds unchanged logic back onto existing subject nodes. An
    // incremental failure climbs the full-reflow rung instead of erroring.
    std::optional<std::string> reflow_reason;
    IncrementalDecomposeStats dstats;
    exec.run(StageId::EcoSubject, [&](StageScope& s) {
        stats.subject_nodes_before = state.subject.graph.size();
        try {
            dstats = decompose_incremental(state.net, applied.touched, state.subject,
                                           state.opts.decompose);
        } catch (const std::exception& e) {
            reflow_reason = std::string("incremental decompose failed: ") + e.what();
            return;
        }
        stats.subject_dirty_sources = dstats.dirty_sources;
        stats.subject_nodes_after = dstats.nodes_after;
        state.subject_built_from = state.net.version();
        s.ok(std::to_string(dstats.dirty_sources) + " dirty source cone(s); " +
             std::to_string(dstats.nodes_after - dstats.nodes_before) +
             " subject node(s) appended, " + std::to_string(dstats.nodes_before) +
             " reused (reuse " +
             std::to_string(dstats.nodes_after == 0
                                ? 0.0
                                : static_cast<double>(dstats.nodes_before) /
                                      static_cast<double>(dstats.nodes_after)) +
             ")");
    });
    if (reflow_reason.has_value()) {
        return full_reflow(state, std::move(stats), std::move(*reflow_reason),
                           StageState::Recovered);
    }
    if (ctx.checks_enabled()) {
        LILY_RETURN_IF_ERROR(guarded_check([&] {
            const SubjectChecker checker;
            (ctx.check() == CheckLevel::Paranoid
                 ? checker.check_against_source(state.subject.graph, state.net)
                 : checker.check(state.subject.graph))
                .throw_if_errors("run_eco_flow: incremental decompose");
        }));
    }

    // ---- Mapping stage: cone-scoped DP over the dirty cones only.
    LilyResult res;
    exec.run(StageId::EcoMapping, [&](StageScope& s) {
        LilyOptions lily = state.opts.lily;
        lily.objective = state.opts.objective;
        lily.cover = effective_cover(state.opts);
        const LilyRemapSeed seed{&state.lily, state.subject_size_at_map};
        StatusOr<LilyResult> remapped =
            LilyMapper(*state.lib).remap_checked(state.subject.graph, seed, lily);
        if (!remapped.is_ok()) {
            reflow_reason = "cone-scoped remap failed (" + remapped.status().to_string() +
                            "); fell back to full reflow";
            return;
        }
        res = std::move(remapped).value();
        stats.remapped_nodes = res.remapped_nodes;
        stats.reused_nodes = res.reused_nodes;
        const std::string note = std::to_string(res.remapped_nodes) + " node(s) re-solved, " +
                                 std::to_string(res.reused_nodes) +
                                 " DP solution(s) reused (reuse " +
                                 std::to_string(stats.map_reuse_ratio()) + ")";
        if (res.budget_exhausted) {
            s.degraded(note);
        } else {
            s.ok(note);
        }
    });
    if (reflow_reason.has_value()) {
        return full_reflow(state, std::move(stats), std::move(*reflow_reason),
                           StageState::Recovered);
    }
    if (ctx.checks_enabled()) {
        LILY_RETURN_IF_ERROR(guarded_check([&] {
            if (ctx.check() == CheckLevel::Paranoid) {
                const MatchChecker mc(*state.lib);
                CheckReport rep;
                for (const LilyNodeSolution& s : res.solution) {
                    if (s.has_match) rep.merge(mc.check_function(state.subject.graph, s.match));
                }
                rep.throw_if_errors("run_eco_flow: remap matches");
            }
            const MappedChecker mc(*state.lib);
            (ctx.check() == CheckLevel::Paranoid ? mc.check_against(res.netlist, state.net)
                                                 : mc.check(res.netlist))
                .throw_if_errors("run_eco_flow: remap");
        }));
    }

    // ---- Backend: keep the floorplan (region and pad ring) and re-solve
    // only the cells whose instance changed; everything else is anchored.
    MappedPlacementView view = make_placement_view(res.netlist, *state.lib);
    const Rect region = state.flow.region;

    // An ECO preserves the floorplan; if the edit grew the circuit past the
    // region's capacity (10% slack over the configured utilization), only a
    // full reflow — which re-sizes the region — gives an honest layout.
    const double region_area = region.width() * region.height();
    if (view.netlist.total_cell_area() >
        region_area * state.opts.placement_utilization * 1.10) {
        return full_reflow(state, std::move(stats),
                           "edit grew cell area past the region capacity; re-floorplanned",
                           StageState::Recovered);
    }
    if (view.netlist.pad_positions.size() != state.flow.pad_positions.size()) {
        return full_reflow(state, std::move(stats),
                           "pad interface changed across the delta; re-floorplanned",
                           StageState::Recovered);
    }
    view.netlist.pad_positions = state.flow.pad_positions;

    // Instance correspondence across netlist generations is keyed by the
    // driving subject node (ids are stable under the append-only subject
    // rebuild): same driver + same gate + same input profile = same cell,
    // frozen at its prior legalized position. Everything else is dirty and
    // seeded from the remap's constructive position.
    const MappedNetlist& prior = state.flow.netlist;
    std::vector<Point> positions(view.netlist.n_cells);
    std::vector<std::size_t> prior_of(view.netlist.n_cells, MappedNetlist::npos);
    std::vector<std::size_t> dirty;
    for (std::size_t i = 0; i < res.netlist.gates.size(); ++i) {
        const GateInstance& inst = res.netlist.gates[i];
        const std::size_t j = prior.instance_driving(inst.driver);
        const bool clean = j != MappedNetlist::npos && prior.gates[j].gate == inst.gate &&
                           prior.gates[j].inputs == inst.inputs;
        if (clean) {
            prior_of[i] = j;
            positions[i] = state.flow.final_positions[j];
        } else {
            dirty.push_back(i);
            positions[i] =
                rescale_point(res.instance_positions[i], res.inchoate_placement.region, region);
        }
    }

    DetailedPlacement detailed;
    RouteResult routed;
    exec.run(StageId::EcoPlacement, [&](StageScope& s) {
        // Incremental HPWL bookkeeping: measure once on the seeded
        // positions, then re-measure only the nets the local re-solve
        // touched.
        HpwlCache hpwl = build_hpwl_cache(view.netlist, positions);
        const double hpwl_seeded = hpwl.total;

        const IncrementalPlacement placed = place_incremental(
            view.netlist, region, positions, dirty, state.opts.lily.placement);
        const std::size_t nets_patched = update_hpwl(view.netlist, positions, dirty, hpwl);
        stats.placed_cells = placed.solved_cells;
        stats.total_cells = view.netlist.n_cells;

        // Incremental legalization: clean cells stay pinned in their prior
        // rows (prior row geometry captured from the batch run); only the
        // rows that receive a dirty cell are re-packed. The intra-row polish
        // pass is skipped on purpose — it would shuffle clean rows and
        // destroy the position equality the timing splice keys on. Two cases
        // take the full legalize+polish path instead: an unusable prior row
        // structure, and a mostly-dirty netlist (over half the cells
        // changed) — there pinning the few clean survivors just jams dirty
        // cells into overfull rows, and the congested placement costs more
        // in routing than the polish pass saves.
        IncrementalLegalization legal;
        const DetailedPlacement& pdp = state.detailed;
        const bool mostly_dirty = dirty.size() * 2 > view.netlist.n_cells;
        if (!mostly_dirty && pdp.n_rows > 0 && pdp.row_of.size() == prior.gates.size()) {
            detailed.region = region;
            detailed.row_height = pdp.row_height;
            detailed.n_rows = pdp.n_rows;
            detailed.positions = positions;
            detailed.row_of.assign(view.netlist.n_cells, 0);
            for (std::size_t i = 0; i < view.netlist.n_cells; ++i) {
                if (prior_of[i] != MappedNetlist::npos) {
                    detailed.row_of[i] = pdp.row_of[prior_of[i]];
                }
            }
            legal = legalize_rows_incremental(view.netlist, dirty, detailed);
        } else {
            GlobalPlacement global;
            global.positions = positions;
            global.region = region;
            detailed = legalize_rows(view.netlist, global);
            improve_rows(view.netlist, detailed);
            legal.repacked_rows = detailed.n_rows;
            legal.moved_cells = view.netlist.n_cells;
        }
        s.ok(std::to_string(placed.solved_cells) + " of " +
             std::to_string(view.netlist.n_cells) + " cell(s) re-solved locally (" +
             std::to_string(placed.cg_iterations) + " CG iterations); " +
             std::to_string(legal.repacked_rows) + " of " + std::to_string(detailed.n_rows) +
             " row(s) re-packed; HPWL " + std::to_string(hpwl_seeded) + " -> " +
             std::to_string(hpwl.total) + " re-measuring " + std::to_string(nets_patched) +
             " of " + std::to_string(view.netlist.nets.size()) + " nets");
    });

    // Incremental routing: connections whose endpoints did not move keep
    // their prior routes (clean nets reproduce identical MST connections, so
    // the diff is pure geometry); vanished routes are subtracted from the
    // congestion map and new connections routed against the patched map.
    exec.run(StageId::EcoRouting, [&](StageScope& s) {
        routed = route_incremental(view.netlist, detailed.positions, region, state.routed,
                                   state.opts.router);
        s.ok(std::to_string(routed.kept_connections) + " connection(s) kept, " +
             std::to_string(routed.rerouted_connections) + " re-routed");
    });
    const ChipAreaEstimate chip =
        estimate_chip_area(view.netlist.total_cell_area(), routed, state.opts.chip);

    // ---- Timing: the batch STA pass over the updated netlist.
    TimingReport timing;
    exec.run(StageId::EcoTiming, [&](StageScope& s) {
        timing = analyze_timing(res.netlist, *state.lib, view, detailed.positions,
                                state.opts.timing);
        s.ok_if_unset();
    });

    if (ctx.checks_enabled()) {
        LILY_RETURN_IF_ERROR(guarded_check([&] {
            const MappedChecker mapped_checker(*state.lib);
            const PlacementChecker placement_checker;
            CheckReport rep = mapped_checker.check(res.netlist);
            rep.merge(placement_checker.check_detailed(view.netlist, detailed));
            rep.merge(mapped_checker.check_timing(res.netlist, timing));
            rep.throw_if_errors("run_eco_flow: backend");
        }));
    }

    // ---- Verify stage: the incrementally maintained netlist must match
    // the *edited* network — proven (not just simulated) at VerifyLevel
    // Prove, so an ECO splice bug cannot hide behind a lucky vector set.
    LILY_RETURN_IF_ERROR(run_verify_stage(ctx, state.net, *state.lib, res.netlist));

    // ---- Commit: artifacts and version stamps advance together so the
    // PipelineChecker sees a consistent generation on the next delta.
    FlowResult out;
    out.netlist = res.netlist;
    out.region = region;
    out.final_positions = detailed.positions;
    out.pad_positions = view.netlist.pad_positions;
    out.metrics.gate_count = res.netlist.gate_count();
    out.metrics.cell_area = chip.cell_area;
    out.metrics.chip_area = chip.chip_area;
    out.metrics.wirelength = routed.total_wirelength;
    out.metrics.critical_delay = timing.critical_delay;
    out.metrics.max_congestion = routed.max_congestion;
    out.diagnostics = diag;
    state.flow = std::move(out);
    state.lily = std::move(res);
    state.detailed = std::move(detailed);
    state.routed = routed;
    state.subject_size_at_map = state.subject.graph.size();
    const Version v = state.net.version();
    state.mapping_built_from = v;
    state.backend_built_from = v;

    stats.diagnostics = std::move(diag);
    return stats;
}

}  // namespace lily
