#include "flow/flow.hpp"

#include <stdexcept>
#include <utility>

#include "flow/stage.hpp"

#include "check/mapped_checker.hpp"
#include "check/match_checker.hpp"
#include "check/placement_checker.hpp"
#include "check/subject_checker.hpp"
#include "netlist/blif.hpp"
#include "netlist/simulate.hpp"
#include "subject/decompose.hpp"

namespace lily {

namespace {

// ---- CheckLevel wiring: per-stage self-verification --------------------

void verify_subject(CheckLevel level, const SubjectGraph& g, const Network& source,
                    const char* context) {
    if (level == CheckLevel::Off) return;
    const SubjectChecker checker;
    (level == CheckLevel::Paranoid ? checker.check_against_source(g, source)
                                   : checker.check(g))
        .throw_if_errors(context);
}

/// Paranoid only: every match a mapper chose must be a legal cover that
/// computes its cone's function.
template <typename Solution>
void verify_chosen_matches(CheckLevel level, const Library& lib, const SubjectGraph& g,
                           const std::vector<Solution>& solution, const char* context) {
    if (level != CheckLevel::Paranoid) return;
    const MatchChecker checker(lib);
    CheckReport rep;
    for (const Solution& s : solution) {
        if (s.has_match) rep.merge(checker.check_function(g, s.match));
    }
    rep.throw_if_errors(context);
}

void verify_mapped(CheckLevel level, const Library& lib, const MappedNetlist& m,
                   const Network& source, const char* context) {
    if (level == CheckLevel::Off) return;
    const MappedChecker checker(lib);
    (level == CheckLevel::Paranoid ? checker.check_against(m, source) : checker.check(m))
        .throw_if_errors(context);
}

/// The stages every pipeline shares once a mapped netlist exists:
/// placement, routing (with the HPWL rung of the degradation ladder),
/// timing and the mapped/placement checkers — executed through the
/// caller's pass manager so diagnostics, budgets and trace spans land in
/// the caller's context. The context's diagnostics are moved onto the
/// result. `capture` (nullable) receives the backend artifacts for the ECO
/// pipeline's seed.
StatusOr<FlowResult> run_backend_stages(StageExecutor& exec, const MappedNetlist& mapped,
                                        const Library& lib, std::optional<PadsInRegion> pads,
                                        std::optional<std::vector<Point>> seed_positions,
                                        FlowCapture* capture = nullptr) {
    FlowContext& ctx = exec.context();
    const FlowOptions& opts = ctx.opts();
    FlowResult out;
    out.netlist = mapped;

    MappedPlacementView view = make_placement_view(mapped, lib);
    const Rect region = make_region(view.netlist.total_cell_area(), opts.placement_utilization);
    out.region = region;

    const Rect seed_region = pads.has_value() ? pads->region : region;
    if (pads.has_value()) {
        if (pads->positions.size() != view.netlist.pad_positions.size()) {
            return Status(StatusCode::InvariantViolation, "run_backend: pad count mismatch");
        }
        for (std::size_t i = 0; i < pads->positions.size(); ++i) {
            view.netlist.pad_positions[i] =
                rescale_point(pads->positions[i], pads->region, region);
        }
    } else {
        view.netlist.pad_positions = place_pads(view.netlist, region);
    }

    // Anchor the placement to the seed (Lily's constructive mapPositions):
    // parallel 2-pin nets to virtual pads keep the mapper's spatial intent
    // while the partitioning pass restores balance.
    PlacementNetlist placed_netlist = view.netlist;
    if (seed_positions.has_value()) {
        if (seed_positions->size() != placed_netlist.n_cells) {
            return Status(StatusCode::InvariantViolation,
                          "run_backend: seed position count mismatch");
        }
        for (std::size_t c = 0; c < placed_netlist.n_cells; ++c) {
            const std::size_t pad = placed_netlist.pad_positions.size();
            placed_netlist.pad_positions.push_back(
                rescale_point((*seed_positions)[c], seed_region, region));
            for (int dup = 0; dup < 2; ++dup) {
                PlacementNetlist::Net net;
                net.cells = {c};
                net.pads = {pad};
                placed_netlist.nets.push_back(net);
            }
        }
    }

    // ---- Placement stage (budgeted: exhaustion keeps the coarser result).
    GlobalPlacement global;
    DetailedPlacement detailed;
    exec.run(StageId::Placement, [&](StageScope& s) {
        StageBudget& place_budget = s.budget();
        GlobalPlacementOptions place_opts = opts.lily.placement;
        if (place_opts.budget == nullptr && place_budget.limited()) {
            place_opts.budget = &place_budget;
        }
        global = place_global(placed_netlist, region, place_opts);
        detailed = legalize_rows(view.netlist, global);
        improve_rows(view.netlist, detailed);
        if (global.budget_exhausted) {
            s.degraded("placement budget exhausted; kept best-effort positions (" +
                       place_budget.describe() + ")");
        } else {
            s.ok_if_unset();
        }
    });
    out.final_positions = detailed.positions;
    out.pad_positions = view.netlist.pad_positions;
    if (capture != nullptr) capture->detailed = detailed;

    // ---- Routing stage, with the HPWL rung of the ladder: an injected
    // router:overbudget fault or a flow budget already spent means routed
    // metrics are unobtainable; estimate wirelength from the placement
    // instead of aborting (flagged Degraded).
    RouteResult routed;
    exec.run(StageId::Routing, [&](StageScope& s) {
        StageBudget& route_budget = s.budget();
        RouterOptions router_opts = opts.router;
        if (router_opts.budget == nullptr && route_budget.limited()) {
            router_opts.budget = &route_budget;
        }
        bool hpwl_rung = false;
        std::string rung_reason;
        if (s.rung("hpwl-metrics")) {
            if (s.fault("overbudget")) {
                hpwl_rung = true;
                rung_reason = "injected fault router:overbudget";
            } else if (ctx.total() != nullptr && ctx.total()->exhausted()) {
                hpwl_rung = true;
                rung_reason =
                    "flow budget exhausted before routing (" + ctx.total()->describe() + ")";
            }
        }
        if (hpwl_rung) {
            routed.total_wirelength = total_hpwl(view.netlist, detailed.positions);
            s.degraded(rung_reason +
                       "; wirelength/chip-area are HPWL estimates, congestion unknown");
            return;
        }
        routed = route_global(view.netlist, detailed.positions, region, router_opts);
        if (routed.budget_exhausted) {
            s.degraded("routing budget exhausted; refinement passes skipped (" +
                       route_budget.describe() + ")");
        } else {
            s.ok_if_unset();
        }
    });

    const ChipAreaEstimate chip =
        estimate_chip_area(view.netlist.total_cell_area(), routed, opts.chip);
    if (capture != nullptr) capture->routed = routed;

    TimingReport timing;
    exec.run(StageId::Timing, [&](StageScope& s) {
        timing = analyze_timing(mapped, lib, view, detailed.positions, opts.timing);
        s.ok_if_unset();
    });

    if (ctx.checks_enabled()) {
        Status checked = exec.run(StageId::Checks, [&](StageScope& s) -> Status {
            LILY_RETURN_IF_ERROR(guarded_check([&] {
                const MappedChecker mapped_checker(lib);
                const PlacementChecker placement_checker;
                CheckReport rep = mapped_checker.check(mapped);
                rep.merge(placement_checker.check_global(placed_netlist, global));
                rep.merge(placement_checker.check_detailed(view.netlist, detailed));
                if (!pads.has_value()) {
                    // Caller-supplied pad rings are a geometry contract of
                    // their own: they may sit on the boundary of a
                    // *different* region (e.g. a fixed ring reused across
                    // two mappings), so after rescaling they need not land
                    // on this region's boundary. Only the ring this back
                    // end placed itself must satisfy the boundary
                    // invariant.
                    rep.merge(
                        placement_checker.check_pads(view.netlist.pad_positions, region));
                }
                rep.merge(mapped_checker.check_timing(mapped, timing));
                rep.throw_if_errors("run_backend");
            }));
            s.ok_if_unset();
            return Status::ok();
        });
        LILY_RETURN_IF_ERROR(checked);
    }

    out.metrics.gate_count = mapped.gate_count();
    out.metrics.cell_area = chip.cell_area;
    out.metrics.chip_area = chip.chip_area;
    out.metrics.wirelength = routed.total_wirelength;
    out.metrics.critical_delay = timing.critical_delay;
    out.metrics.max_congestion = routed.max_congestion;
    out.diagnostics = std::move(ctx.diag());
    return out;
}

/// The decompose pass shared by both batch pipelines.
Status run_decompose_stage(StageExecutor& exec, const Network& net,
                           std::optional<DecomposeResult>& sub) {
    FlowContext& ctx = exec.context();
    Status decomposed = exec.run(StageId::Decompose, [&](StageScope& s) -> Status {
        try {
            sub = decompose(net, ctx.opts().decompose);
        } catch (const std::exception& e) {
            return Status(StatusCode::Unsupported, e.what())
                .with_context(ctx.context("decompose"));
        }
        s.ok();
        return Status::ok();
    });
    LILY_RETURN_IF_ERROR(decomposed);
    return guarded_check([&] {
        verify_subject(ctx.check(), sub->graph, net, ctx.context("decompose").c_str());
    });
}

}  // namespace

Status run_verify_stage(FlowContext& ctx, const Network& source, const Library& lib,
                        const MappedNetlist& mapped) {
    if (ctx.opts().verify == VerifyLevel::Off) return Status::ok();
    const FlowOptions& opts = ctx.opts();
    const std::string verify_ctx = ctx.context("verify");
    StageExecutor exec(ctx);
    return exec.run(StageId::Verify, [&](StageScope& s) -> Status {
        // Expand the mapped netlist into a Boolean network through its
        // library cell functions; the verify:miscompare probe flips one gate
        // first so the refutation path can be exercised deterministically.
        std::optional<Network> impl;
        try {
            if (s.fault("miscompare")) {
                MappedNetlist corrupted = mapped;
                if (!inject_wrong_cover(corrupted, lib)) {
                    s.failed("verify:miscompare probe found no same-arity gate pair");
                    return Status(StatusCode::InvariantViolation,
                                  verify_ctx + ": miscompare probe could not corrupt the "
                                               "netlist (library too small)");
                }
                impl = corrupted.to_network(lib);
            } else {
                impl = mapped.to_network(lib);
            }
        } catch (const std::exception& e) {
            s.failed(e.what());
            return Status(StatusCode::InvariantViolation, e.what()).with_context(verify_ctx);
        }

        // Sim rung: random-vector comparison only.
        const auto simulate_verdict = [&]() -> StatusOr<bool> {
            return equivalent_random_checked(source, *impl, opts.cec.sim_blocks,
                                             opts.cec.seed);
        };
        if (opts.verify == VerifyLevel::Sim) {
            StatusOr<bool> eq = simulate_verdict();
            if (!eq.is_ok()) {
                s.failed(eq.status().to_string());
                Status bad = eq.status();
                return bad.with_context(verify_ctx);
            }
            if (!eq.value()) {
                s.failed("random simulation found a miscompare");
                return Status(StatusCode::InvariantViolation,
                              verify_ctx + ": mapped netlist miscompares with the source "
                                           "network under random simulation");
            }
            s.ok("equivalent on " + std::to_string(opts.cec.sim_blocks) +
                 " random blocks (simulation only)");
            return Status::ok();
        }

        // Prove rung: SAT-sweeping CEC.
        StatusOr<CecResult> cec_or = check_equivalence(source, *impl, opts.cec);
        if (!cec_or.is_ok()) {
            s.failed(cec_or.status().to_string());
            Status bad = cec_or.status();
            return bad.with_context(verify_ctx);
        }
        const CecResult& cec = cec_or.value();
        switch (cec.verdict) {
            case CecVerdict::Proven:
                s.ok("proven equivalent (" + std::to_string(cec.stats.sat_calls) +
                     " SAT call(s), " + std::to_string(cec.stats.merged_nodes) + " of " +
                     std::to_string(cec.stats.aig_and_nodes) + " AIG nodes merged)");
                return Status::ok();
            case CecVerdict::Refuted:
                s.failed(cec.cex->to_string());
                return Status(StatusCode::InvariantViolation,
                              verify_ctx +
                                  ": mapped netlist is NOT equivalent to the source "
                                  "network; " +
                                  cec.cex->to_string());
            case CecVerdict::Inconclusive:
                break;
        }

        // Degradation rung: the proof ran out of budget; fall back to the
        // random-simulation verdict and record the reduced confidence.
        StatusOr<bool> eq = simulate_verdict();
        if (!eq.is_ok()) {
            s.failed(eq.status().to_string());
            Status bad = eq.status();
            return bad.with_context(verify_ctx);
        }
        if (!eq.value()) {
            s.failed("proof inconclusive and simulation found a miscompare");
            return Status(StatusCode::InvariantViolation,
                          verify_ctx + ": proof inconclusive (" + cec.note +
                              ") and random simulation found a miscompare");
        }
        s.degraded("proof inconclusive (" + cec.note +
                   "); fell back to the random-simulation verdict: no miscompare on " +
                   std::to_string(opts.cec.sim_blocks) + " blocks");
        return Status::ok();
    });
}

StatusOr<FlowResult> run_backend_checked(const MappedNetlist& mapped, const Library& lib,
                                         const FlowOptions& opts,
                                         std::optional<PadsInRegion> pads,
                                         std::optional<std::vector<Point>> seed_positions) {
    FlowDiagnostics diag;
    FlowContext ctx(flow_label::kBackend, opts, diag);
    StageExecutor exec(ctx);
    return run_backend_stages(exec, mapped, lib, std::move(pads), std::move(seed_positions));
}

FlowResult run_backend(const MappedNetlist& mapped, const Library& lib, const FlowOptions& opts,
                       std::optional<PadsInRegion> pads,
                       std::optional<std::vector<Point>> seed_positions) {
    return run_backend_checked(mapped, lib, opts, std::move(pads), std::move(seed_positions))
        .take_or_raise();
}

StatusOr<FlowResult> run_baseline_flow_checked(const Network& net, const Library& lib,
                                               const FlowOptions& opts) {
    // Pipeline 1: map first (interconnect-blind), lay out afterwards. The
    // mapper cannot see pad locations — exactly the paper's remark that the
    // standard MIS pipeline "cannot make use of the location of pads".
    FlowDiagnostics diag;
    FlowContext ctx(flow_label::kBaseline, opts, diag);
    StageExecutor exec(ctx);

    std::optional<DecomposeResult> sub;
    LILY_RETURN_IF_ERROR(run_decompose_stage(exec, net, sub));

    std::optional<MapResult> res;
    Status mapped = exec.run(StageId::Mapping, [&](StageScope& s) -> Status {
        BaseMapperOptions base = opts.base;
        base.objective = opts.objective;
        base.mode = effective_cover(opts);
        try {
            res = BaseMapper(lib).map(sub->graph, base);
        } catch (const std::exception& e) {
            s.failed();
            return Status(StatusCode::Unsupported, e.what())
                .with_context(ctx.context("mapping"));
        }
        s.ok();
        return Status::ok();
    });
    LILY_RETURN_IF_ERROR(mapped);
    LILY_RETURN_IF_ERROR(guarded_check([&] {
        verify_chosen_matches(opts.check, lib, sub->graph, res->solution,
                              "run_baseline_flow: matches");
        verify_mapped(opts.check, lib, res->netlist, net, "run_baseline_flow: mapping");
    }));
    LILY_RETURN_IF_ERROR(run_verify_stage(ctx, net, lib, res->netlist));
    return run_backend_stages(exec, res->netlist, lib, std::nullopt, std::nullopt);
}

FlowResult run_baseline_flow(const Network& net, const Library& lib, const FlowOptions& opts) {
    return run_baseline_flow_checked(net, lib, opts).take_or_raise();
}

StatusOr<FlowResult> run_lily_flow_checked(const Network& net, const Library& lib,
                                           const FlowOptions& opts, FlowCapture* capture) {
    // Pipeline 2: pads first, then placement-coupled mapping.
    FlowDiagnostics diag;
    FlowContext ctx(flow_label::kLily, opts, diag);
    StageExecutor exec(ctx);

    std::optional<DecomposeResult> sub;
    LILY_RETURN_IF_ERROR(run_decompose_stage(exec, net, sub));

    // ---- Mapping stage, with the baseline-fallback rung of the ladder:
    // when the layout-driven mapping cannot finish (placement divergence,
    // matcher dead end), fall back to the wire-blind baseline mapping of
    // the same subject graph — the flow still delivers a correct netlist,
    // just without layout-driven covers, and the diagnostics say so.
    StatusOr<LilyResult> mapped = Status(StatusCode::Internal, "mapping stage never ran");
    std::optional<MapResult> fallback;
    Status map_status = exec.run(StageId::Mapping, [&](StageScope& s) -> Status {
        LilyOptions lily = opts.lily;
        lily.objective = opts.objective;
        lily.cover = effective_cover(opts);
        StageBudget& map_budget = s.budget();
        if (lily.budget == nullptr && map_budget.limited()) lily.budget = &map_budget;
        LilyMapper mapper(lib);
        mapped = mapper.map_checked(sub->graph, lily);
        if (!mapped.is_ok()) {
            if (!s.rung("baseline-fallback")) {
                s.failed();
                Status bad = mapped.status();
                return bad.with_context(ctx.context("mapping"));
            }
            s.recovered(mapped.status().to_string() +
                        "; fell back to wire-blind baseline mapping");
            ++s.diag().retries;
            BaseMapperOptions base = opts.base;
            base.objective = opts.objective;
            base.mode = effective_cover(opts);
            try {
                fallback = BaseMapper(lib).map(sub->graph, base);
            } catch (const std::exception& e) {
                s.failed();
                return Status(StatusCode::Unsupported, e.what())
                    .with_context(ctx.context("baseline fallback"));
            }
            return Status::ok();
        }
        const LilyResult& res = mapped.value();
        s.counter("inchoate_place_ms", res.timing.inchoate_place_ms);
        s.counter("cone_order_ms", res.timing.cone_order_ms);
        s.counter("dp_ms", res.timing.dp_ms);
        s.counter("replace_ms", res.timing.replace_ms);
        if (res.budget_exhausted) {
            s.degraded("mapping budget exhausted; " + std::to_string(res.degraded_nodes) +
                       " nodes covered with base gates only (" + map_budget.describe() + ")");
        } else {
            s.ok();
        }
        return Status::ok();
    });
    LILY_RETURN_IF_ERROR(map_status);

    if (fallback.has_value()) {
        LILY_RETURN_IF_ERROR(guarded_check([&] {
            verify_chosen_matches(opts.check, lib, sub->graph, fallback->solution,
                                  "run_lily_flow: fallback matches");
            verify_mapped(opts.check, lib, fallback->netlist, net,
                          "run_lily_flow: fallback mapping");
        }));
        LILY_RETURN_IF_ERROR(run_verify_stage(ctx, net, lib, fallback->netlist));
        StatusOr<FlowResult> out = run_backend_stages(exec, fallback->netlist, lib,
                                                      std::nullopt, std::nullopt, capture);
        if (out.is_ok() && capture != nullptr) {
            capture->subject = std::move(*sub);
            capture->lily = LilyResult{};
            capture->used_baseline_fallback = true;
        }
        return out;
    }

    const LilyResult& res = mapped.value();
    LILY_RETURN_IF_ERROR(guarded_check([&] {
        verify_chosen_matches(opts.check, lib, sub->graph, res.solution,
                              "run_lily_flow: matches");
        verify_mapped(opts.check, lib, res.netlist, net, "run_lily_flow: mapping");
        if (opts.check != CheckLevel::Off) {
            // The inchoate placement every wire estimate was drawn from, and
            // the pre-mapping pad ring the back end will reuse.
            const PlacementChecker placement_checker;
            CheckReport rep =
                placement_checker.check_positions(res.inchoate_placement.positions,
                                                  res.inchoate_placement.positions.size(),
                                                  res.inchoate_placement.region);
            rep.merge(placement_checker.check_pads(res.pad_positions,
                                                   res.inchoate_placement.region));
            rep.throw_if_errors("run_lily_flow: inchoate placement");
        }
    }));

    LILY_RETURN_IF_ERROR(run_verify_stage(ctx, net, lib, res.netlist));

    // Reuse the pre-mapping pad assignment for the back end; the pad ring
    // was chosen on the inchoate region, so pass that region for rescaling.
    PadsInRegion pads{res.pad_positions, res.inchoate_placement.region};
    StatusOr<FlowResult> out = run_backend_stages(exec, res.netlist, lib, std::move(pads),
                                                  res.instance_positions, capture);
    if (out.is_ok() && capture != nullptr) {
        capture->subject = std::move(*sub);
        capture->lily = std::move(mapped).value();
        capture->used_baseline_fallback = false;
    }
    return out;
}

FlowResult run_lily_flow(const Network& net, const Library& lib, const FlowOptions& opts) {
    return run_lily_flow_checked(net, lib, opts).take_or_raise();
}

StatusOr<FlowResult> run_lily_flow_adaptive_checked(const Network& net, const Library& lib,
                                                    const FlowOptions& opts,
                                                    double reference_wirelength) {
    LILY_ASSIGN_OR_RETURN(FlowResult best, run_lily_flow_checked(net, lib, opts));
    double reference = reference_wirelength;
    if (reference <= 0.0) {
        LILY_ASSIGN_OR_RETURN(FlowResult base, run_baseline_flow_checked(net, lib, opts));
        reference = base.metrics.wirelength;
    }
    if (best.metrics.wirelength <= reference) return best;

    // Section 5 remedy, generalized by RecoveryPolicy (the descriptor
    // table's wire-weight-retry rung): re-run with the wire weight scaled
    // down, keeping the best attempt.
    FlowOptions retry = opts;
    const std::size_t tries =
        std::min(opts.recovery.max_retries, opts.recovery.wire_weight_scale.size());
    std::size_t attempted = 0;
    for (std::size_t i = 0; i < tries; ++i) {
        retry.lily.wire_weight = opts.lily.wire_weight * opts.recovery.wire_weight_scale[i];
        StatusOr<FlowResult> attempt = run_lily_flow_checked(net, lib, retry);
        if (!attempt.is_ok()) continue;  // retries are best-effort; keep what we have
        ++attempted;
        if (attempt.value().metrics.wirelength < best.metrics.wirelength) {
            best = std::move(attempt).value();
        }
        if (best.metrics.wirelength <= reference) break;
    }
    if (attempted > 0) {
        StageDiagnostics& ad = best.diagnostics.stage(stage_name(StageId::Adaptive));
        ad.state = StageState::Degraded;
        ad.retries = attempted;
        ad.note = "wirelength above reference; re-mapped with reduced wire weights";
    }
    return best;
}

FlowResult run_lily_flow_adaptive(const Network& net, const Library& lib,
                                  const FlowOptions& opts, double reference_wirelength) {
    return run_lily_flow_adaptive_checked(net, lib, opts, reference_wirelength).take_or_raise();
}

StatusOr<FlowResult> run_flow_checked(FlowKind kind, const Network& net, const Library& lib,
                                      const FlowOptions& opts) {
    switch (kind) {
        case FlowKind::Baseline:
            return run_baseline_flow_checked(net, lib, opts);
        case FlowKind::Adaptive:
            return run_lily_flow_adaptive_checked(net, lib, opts);
        case FlowKind::Lily:
            break;
    }
    return run_lily_flow_checked(net, lib, opts);
}

StatusOr<FlowResult> run_flow_from_files(const std::string& blif_path,
                                         const std::string& genlib_path,
                                         const FlowOptions& opts, FlowKind kind) {
    FlowDiagnostics diag;
    FlowContext ctx(flow_label::kFromFiles, opts, diag);
    StageExecutor exec(ctx);

    std::optional<StatusOr<Library>> lib;
    Status genlib_parsed = exec.run(StageId::ParseGenlib, [&](StageScope& s) -> Status {
        lib.emplace(read_genlib_file_checked(genlib_path));
        if (!lib->is_ok()) {
            s.failed(lib->status().to_string());
            Status bad = lib->status();
            return bad.with_context(flow_label::kFromFiles);
        }
        const auto& skipped = lib->value().skipped_gates();
        if (!skipped.empty()) {
            std::string note = std::to_string(skipped.size()) + " gate(s) skipped:";
            for (const Library::SkippedGate& g : skipped) {
                note += " " + g.name + " (" + g.reason + ")";
            }
            s.degraded(std::move(note));
        } else {
            s.ok();
        }
        return Status::ok();
    });
    LILY_RETURN_IF_ERROR(genlib_parsed);
    LILY_RETURN_IF_ERROR(guarded_check([&] { lib->value().validate(); })
                             .with_context("run_flow_from_files: library validation"));

    std::optional<StatusOr<Network>> net;
    Status blif_parsed = exec.run(StageId::ParseBlif, [&](StageScope& s) -> Status {
        net.emplace(read_blif_file_checked(blif_path));
        if (!net->is_ok()) {
            s.failed(net->status().to_string());
            Status bad = net->status();
            return bad.with_context(flow_label::kFromFiles);
        }
        s.ok();
        return Status::ok();
    });
    LILY_RETURN_IF_ERROR(blif_parsed);

    StatusOr<FlowResult> result = run_flow_checked(kind, net->value(), lib->value(), opts);
    if (!result.is_ok()) {
        Status bad = result.status();
        return bad.with_context(flow_label::kFromFiles);
    }
    FlowResult out = std::move(result).value();
    // Prepend the parse stages so the record reads in pipeline order.
    for (StageDiagnostics& s : out.diagnostics.stages) diag.stages.push_back(std::move(s));
    out.diagnostics = std::move(diag);
    return out;
}

}  // namespace lily
