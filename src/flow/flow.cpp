#include "flow/flow.hpp"

#include <stdexcept>
#include <utility>

#include "flow/stage.hpp"

#include "check/mapped_checker.hpp"
#include "check/placement_checker.hpp"
#include "netlist/blif.hpp"
#include "netlist/simulate.hpp"
#include "subject/decompose.hpp"
#include "util/fault.hpp"
#include "verify/certificate.hpp"

namespace lily {

namespace {

/// Section 5's remedy schedule for run_lily_flow_adaptive_checked: the wire
/// weight scales each retry applies, in order (weight/4, then wire-blind).
constexpr double kRetryWireWeightScales[] = {0.25, 0.0};

/// The stages every pipeline shares once a mapped netlist exists:
/// placement, routing (with the HPWL-metrics fallback), timing and the
/// mapped/placement checkers — run in the caller's context so diagnostics,
/// budgets and trace spans land there. The context's diagnostics are moved
/// onto the result. `capture` (nullable) receives the backend artifacts for
/// the ECO pipeline's seed.
StatusOr<FlowResult> run_backend_stages(FlowContext& ctx, const MappedNetlist& mapped,
                                        const Library& lib, std::optional<PadsInRegion> pads,
                                        std::optional<std::vector<Point>> seed_positions,
                                        FlowCapture* capture = nullptr) {
    const FlowOptions& opts = ctx.opts();
    FlowResult out;
    out.netlist = mapped;

    MappedPlacementView view = make_placement_view(mapped, lib);
    const Rect region = make_region(view.netlist.total_cell_area(), opts.placement_utilization);
    out.region = region;

    // One QuadraticPlacer per placed netlist. Without seed anchors the view
    // itself is placed, so the placer that picks the pads also places the
    // cells; with them, the anchored copy gets its own.
    const Rect seed_region = pads.has_value() ? pads->region : region;
    QpCounters qp0 = qp_span_start();
    std::optional<PlacementNetlist> anchored;  // outlives the placer that reads it
    std::optional<QuadraticPlacer> placer;
    if (pads.has_value()) {
        if (pads->positions.size() != view.netlist.pad_positions.size()) {
            return Status(StatusCode::InvariantViolation, ctx.context("pad count mismatch"));
        }
        for (std::size_t i = 0; i < pads->positions.size(); ++i) {
            view.netlist.pad_positions[i] =
                rescale_point(pads->positions[i], pads->region, region);
        }
    } else {
        placer.emplace(view.netlist);
        view.netlist.pad_positions = placer->place_pads(region, ctx.total());
    }

    // Anchor the placement to the seed (Lily's constructive mapPositions):
    // parallel 2-pin nets to virtual pads keep the mapper's spatial intent
    // while the partitioning pass restores balance.
    if (seed_positions.has_value()) {
        if (seed_positions->size() != view.netlist.n_cells) {
            return Status(StatusCode::InvariantViolation,
                          ctx.context("seed position count mismatch"));
        }
        anchored.emplace(view.netlist);
        for (std::size_t c = 0; c < anchored->n_cells; ++c) {
            const std::size_t pad = anchored->pad_positions.size();
            anchored->pad_positions.push_back(
                rescale_point((*seed_positions)[c], seed_region, region));
            for (int dup = 0; dup < 2; ++dup) {
                PlacementNetlist::Net net;
                net.cells = {c};
                net.pads = {pad};
                anchored->nets.push_back(net);
            }
        }
        // The placement span counts the netlist it places.
        placer.reset();
        qp0 = qp_span_start();
    }
    const PlacementNetlist& placed_netlist = anchored.has_value() ? *anchored : view.netlist;
    if (!placer.has_value()) placer.emplace(placed_netlist);

    // ---- Placement stage (budgeted: exhaustion keeps the coarser result).
    GlobalPlacement global;
    DetailedPlacement detailed;
    run_stage(ctx, StageId::Placement, [&](StageScope& s) {
        GlobalPlacementOptions place_opts = opts.lily.placement;
        if (place_opts.budget == nullptr) place_opts.budget = ctx.total();
        global = placer->place_global(placed_netlist.pad_positions, region, place_opts);
        const QpCounters qp = qp_counters();
        s.counter("qp_assemblies", static_cast<double>(qp.assemblies - qp0.assemblies));
        s.counter("cg_iterations", static_cast<double>(qp.cg_iterations - qp0.cg_iterations));
        s.counter("cg_residual", qp.cg_residual);
        detailed = legalize_rows(view.netlist, global);
        improve_rows(view.netlist, detailed);
        if (global.budget_exhausted) {
            s.degraded("placement budget exhausted; kept best-effort positions (" +
                       place_opts.budget->describe() + ")");
        } else {
            s.ok_if_unset();
        }
    });
    out.final_positions = detailed.positions;
    out.pad_positions = view.netlist.pad_positions;
    if (capture != nullptr) capture->detailed = detailed;

    // ---- Routing stage, with the HPWL-metrics fallback: an injected
    // router:overbudget fault or a flow budget already spent means routed
    // metrics are unobtainable; estimate wirelength from the placement
    // instead of aborting (flagged Degraded).
    RouteResult routed;
    run_stage(ctx, StageId::Routing, [&](StageScope& s) {
        RouterOptions router_opts = opts.router;
        if (router_opts.budget == nullptr) router_opts.budget = ctx.total();
        std::string hpwl_reason;
        if (fault_enabled("router", "overbudget")) {
            hpwl_reason = "injected fault router:overbudget";
        } else if (ctx.total() != nullptr && ctx.total()->exhausted()) {
            hpwl_reason = "flow budget exhausted before routing (" + ctx.total()->describe() + ")";
        }
        if (!hpwl_reason.empty()) {
            routed.total_wirelength = total_hpwl(view.netlist, detailed.positions);
            s.degraded(hpwl_reason +
                       "; wirelength/chip-area are HPWL estimates, congestion unknown");
        } else {
            routed = route_global(view.netlist, detailed.positions, region, router_opts);
            if (routed.budget_exhausted) {
                s.degraded("routing budget exhausted; refinement passes skipped (" +
                           router_opts.budget->describe() + ")");
            } else {
                s.ok_if_unset();
            }
        }
        route_counters(s, routed);
    });

    const ChipAreaEstimate chip =
        estimate_chip_area(view.netlist.total_cell_area(), routed, opts.chip);
    out.metrics.wirelength = routed.total_wirelength;
    out.metrics.max_congestion = routed.max_congestion;
    if (capture != nullptr) capture->routed = std::move(routed);

    TimingReport timing;
    run_stage(ctx, StageId::Timing, [&](StageScope& s) {
        timing = analyze_timing(mapped, lib, view, detailed.positions, opts.timing);
        s.ok_if_unset();
    });

    if (ctx.checks_enabled()) {
        Status checked = run_stage(ctx, StageId::Checks, [&](StageScope& s) -> Status {
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
                rep.throw_if_errors(ctx.context("backend"));
            }));
            s.ok_if_unset();
            return Status::ok();
        });
        LILY_RETURN_IF_ERROR(checked);
    }

    out.metrics.gate_count = mapped.gate_count();
    out.metrics.cell_area = chip.cell_area;
    out.metrics.chip_area = chip.chip_area;
    out.metrics.critical_delay = timing.critical_delay;
    out.diagnostics = std::move(ctx.diag());
    return out;
}

/// The decompose pass shared by both batch pipelines.
Status run_decompose_stage(FlowContext& ctx, const Network& net,
                           std::optional<DecomposeResult>& sub) {
    Status decomposed = run_stage(ctx, StageId::Decompose, [&](StageScope& s) -> Status {
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
    return check_subject(ctx, sub->graph, "decompose");
}

}  // namespace

Status run_verify_stage(FlowContext& ctx, const Network& source, const DecomposeResult& sub,
                        const Library& lib, const MappedNetlist& mapped) {
    if (ctx.opts().verify == VerifyLevel::Off) return Status::ok();
    const FlowOptions& opts = ctx.opts();
    const std::string verify_ctx = ctx.context("verify");
    return run_stage(ctx, StageId::Verify, [&](StageScope& s) -> Status {
        // The verify:miscompare probe flips one gate first so the refutation
        // path can be exercised deterministically.
        std::optional<MappedNetlist> corrupted;
        if (fault_enabled("verify", "miscompare")) {
            corrupted = mapped;
            if (!inject_wrong_cover(*corrupted, lib)) {
                s.failed("verify:miscompare probe found no same-arity gate pair");
                return Status(StatusCode::InvariantViolation,
                              verify_ctx + ": miscompare probe could not corrupt the "
                                           "netlist (library too small)");
            }
        }
        const MappedNetlist& checked = corrupted.has_value() ? *corrupted : mapped;

        // Prove rung, first path: the mapping's own certificate. It proves
        // or declines; a decline falls through to SAT sweeping, which
        // proves, refutes with a replayed counterexample, or is inconclusive.
        // Both paths stamp the same counter set on the span.
        CertificateResult cert;
        const auto prover_counters = [&](std::size_t sat_calls, std::uint64_t conflicts,
                                         std::size_t merged_nodes, std::size_t cex_pruned) {
            s.counter("sat_calls", static_cast<double>(sat_calls));
            s.counter("conflicts", static_cast<double>(conflicts));
            s.counter("merged_nodes", static_cast<double>(merged_nodes));
            s.counter("cex_pruned", static_cast<double>(cex_pruned));
            s.counter("obligations", static_cast<double>(cert.stats.obligations()));
            s.counter("fallback", cert.proven ? 0.0 : 1.0);
        };
        if (opts.verify == VerifyLevel::Prove) {
            cert = check_certificate(source, sub, lib, checked, opts.cec.output_conflict_budget);
            if (cert.proven) {
                prover_counters(cert.stats.sat_calls, cert.stats.conflicts, 0, 0);
                s.ok("proven by the mapping certificate (" +
                     std::to_string(cert.stats.obligations()) + " local obligations, " +
                     std::to_string(cert.stats.sat_calls) + " local SAT call(s))");
                return Status::ok();
            }
        }

        // Expand the mapped netlist into a Boolean network through its
        // library cell functions.
        std::optional<Network> impl;
        try {
            impl = checked.to_network(lib);
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

        // Prove rung, fallback path: SAT-sweeping CEC.
        StatusOr<CecResult> cec_or = check_equivalence(source, *impl, opts.cec);
        if (!cec_or.is_ok()) {
            s.failed(cec_or.status().to_string());
            Status bad = cec_or.status();
            return bad.with_context(verify_ctx);
        }
        const CecResult& cec = cec_or.value();
        prover_counters(cec.stats.sat_calls, cec.stats.conflicts, cec.stats.merged_nodes,
                        cec.stats.cex_pruned);
        const std::string declined = "certificate declined: " + cert.decline;
        switch (cec.verdict) {
            case CecVerdict::Proven:
                s.ok("proven equivalent by SAT sweeping (" + declined + "; " +
                     std::to_string(cec.stats.sat_calls) + " SAT call(s), " +
                     std::to_string(cec.stats.merged_nodes) + " of " +
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
        s.degraded("proof inconclusive (" + declined + "; " + cec.note +
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
    return run_backend_stages(ctx, mapped, lib, std::move(pads), std::move(seed_positions));
}

StatusOr<FlowResult> run_baseline_flow_checked(const Network& net, const Library& lib,
                                               const FlowOptions& opts) {
    // Pipeline 1: map first (interconnect-blind), lay out afterwards. The
    // mapper cannot see pad locations — exactly the paper's remark that the
    // standard MIS pipeline "cannot make use of the location of pads".
    FlowDiagnostics diag;
    FlowContext ctx(flow_label::kBaseline, opts, diag);

    std::optional<DecomposeResult> sub;
    LILY_RETURN_IF_ERROR(run_decompose_stage(ctx, net, sub));

    std::optional<MapResult> res;
    Status mapped = run_stage(ctx, StageId::Mapping, [&](StageScope& s) -> Status {
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
    LILY_RETURN_IF_ERROR(check_mapping(ctx, lib, sub->graph, res->solution, res->netlist,
                                       "mapping"));
    LILY_RETURN_IF_ERROR(run_verify_stage(ctx, net, *sub, lib, res->netlist));
    return run_backend_stages(ctx, res->netlist, lib, std::nullopt, std::nullopt);
}

StatusOr<FlowResult> run_lily_flow_checked(const Network& net, const Library& lib,
                                           const FlowOptions& opts, FlowCapture* capture) {
    // Pipeline 2: pads first, then placement-coupled mapping.
    FlowDiagnostics diag;
    FlowContext ctx(flow_label::kLily, opts, diag);

    std::optional<DecomposeResult> sub;
    LILY_RETURN_IF_ERROR(run_decompose_stage(ctx, net, sub));

    // ---- Mapping stage, with the baseline fallback: when the layout-driven
    // mapping cannot finish (placement divergence, matcher dead end), fall
    // back to the wire-blind baseline mapping of the same subject graph —
    // the flow still delivers a correct netlist, just without layout-driven
    // covers, and the diagnostics say so.
    StatusOr<LilyResult> mapped = Status(StatusCode::Internal, "mapping stage never ran");
    std::optional<MapResult> fallback;
    Status map_status = run_stage(ctx, StageId::Mapping, [&](StageScope& s) -> Status {
        LilyOptions lily = opts.lily;
        lily.objective = opts.objective;
        lily.cover = effective_cover(opts);
        if (lily.budget == nullptr) lily.budget = ctx.total();
        LilyMapper mapper(lib);
        const QpCounters qp0 = qp_span_start();
        mapped = mapper.map_checked(sub->graph, lily);
        const QpCounters qp = qp_counters();
        if (!mapped.is_ok()) {
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
        s.counter("qp_assemblies", static_cast<double>(qp.assemblies - qp0.assemblies));
        s.counter("cg_iterations", static_cast<double>(qp.cg_iterations - qp0.cg_iterations));
        s.counter("cg_residual", qp.cg_residual);
        if (res.budget_exhausted) {
            // The DP polls lily.budget; without one, only the inchoate
            // placement's own budget can have run out.
            const StageBudget* polled =
                lily.budget != nullptr ? lily.budget : lily.placement.budget;
            s.degraded("mapping budget exhausted; " + std::to_string(res.degraded_nodes) +
                       " nodes covered with base gates only (" + polled->describe() + ")");
        } else {
            s.ok();
        }
        return Status::ok();
    });
    LILY_RETURN_IF_ERROR(map_status);

    if (fallback.has_value()) {
        LILY_RETURN_IF_ERROR(check_mapping(ctx, lib, sub->graph, fallback->solution,
                                           fallback->netlist, "fallback mapping"));
        LILY_RETURN_IF_ERROR(run_verify_stage(ctx, net, *sub, lib, fallback->netlist));
        StatusOr<FlowResult> out = run_backend_stages(ctx, fallback->netlist, lib,
                                                      std::nullopt, std::nullopt, capture);
        if (out.is_ok() && capture != nullptr) {
            capture->subject = std::move(*sub);
            capture->lily = LilyResult{};
            capture->used_baseline_fallback = true;
        }
        return out;
    }

    const LilyResult& res = mapped.value();
    LILY_RETURN_IF_ERROR(check_mapping(ctx, lib, sub->graph, res.solution, res.netlist,
                                       "mapping"));
    if (ctx.checks_enabled()) {
        LILY_RETURN_IF_ERROR(guarded_check([&] {
            // The inchoate placement every wire estimate was drawn from, and
            // the pre-mapping pad ring the back end will reuse.
            const PlacementChecker placement_checker;
            CheckReport rep =
                placement_checker.check_positions(res.inchoate_placement.positions,
                                                  res.inchoate_placement.positions.size(),
                                                  res.inchoate_placement.region);
            rep.merge(placement_checker.check_pads(res.pad_positions,
                                                   res.inchoate_placement.region));
            rep.throw_if_errors(ctx.context("inchoate placement"));
        }));
    }

    LILY_RETURN_IF_ERROR(run_verify_stage(ctx, net, *sub, lib, res.netlist));

    // Reuse the pre-mapping pad assignment for the back end; the pad ring
    // was chosen on the inchoate region, so pass that region for rescaling.
    PadsInRegion pads{res.pad_positions, res.inchoate_placement.region};
    StatusOr<FlowResult> out = run_backend_stages(ctx, res.netlist, lib, std::move(pads),
                                                  res.instance_positions, capture);
    if (out.is_ok() && capture != nullptr) {
        capture->subject = std::move(*sub);
        capture->lily = std::move(mapped).value();
        capture->used_baseline_fallback = false;
    }
    return out;
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

    // Section 5 remedy: re-run with the wire weight scaled down, keeping the
    // best attempt.
    FlowOptions retry = opts;
    std::size_t attempted = 0;
    for (const double scale : kRetryWireWeightScales) {
        retry.lily.wire_weight = opts.lily.wire_weight * scale;
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

    std::optional<StatusOr<Library>> lib;
    Status genlib_parsed = run_stage(ctx, StageId::ParseGenlib, [&](StageScope& s) -> Status {
        lib.emplace(read_genlib_file_checked(genlib_path));
        if (!lib->is_ok()) {
            s.failed(lib->status().to_string());
            Status bad = lib->status();
            return bad.with_context(flow_label::kFromFiles);
        }
        const Library& parsed = lib->value();
        const auto& skipped = parsed.skipped_gates();
        std::size_t patterns = 0;
        for (const Gate& g : parsed.gates()) patterns += g.patterns.size();
        s.counter("gates", static_cast<double>(parsed.size()));
        s.counter("patterns", static_cast<double>(patterns));
        s.counter("skipped", static_cast<double>(skipped.size()));
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
    Status blif_parsed = run_stage(ctx, StageId::ParseBlif, [&](StageScope& s) -> Status {
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
