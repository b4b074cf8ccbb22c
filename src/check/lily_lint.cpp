// lily_lint: run every pipeline invariant checker over a BLIF circuit and a
// genlib library, printing structured diagnostics and exit-coding on
// errors. The tool drives the whole pipeline itself (decompose -> match ->
// map -> place -> time) so each stage's invariants are audited even when
// the flow-level CheckLevel knob is off.
//
//   lily_lint [options] <circuit.blif> <library.genlib>
//     --level=light|paranoid   light = structural checks only (default:
//                              paranoid, adds simulation equivalence and
//                              per-match cone verification)
//     --prove                  formal mode: map the circuit and prove the
//                              mapped netlist equivalent to the source with
//                              the SAT-sweeping CEC engine. Exit 0 only on
//                              a complete proof. With
//                              --inject=verify:miscompare the expectation
//                              inverts: one gate function is flipped and
//                              the run passes exactly when the engine
//                              refutes it with a replayable counterexample.
//     --lint-netlist           static netlist lint: run the src/verify/
//                              lint passes (cycles, undriven/multi-driven
//                              nets, floating inputs, dead cones, constant
//                              logic) over the BLIF alone; the library
//                              argument is optional. A parse failure counts
//                              as a finding.
//     --inject=<kind>          deliberately corrupt one stage to prove the
//                              checkers catch it: cycle, offchip, badpad,
//                              wrong-cover, dup-drive. A kind of the form
//                              stage:kind (e.g. placement:diverge) is a
//                              recovery-ladder fault instead: it is fed to
//                              the fault-injection registry and implies
//                              --flow, proving the flow *survives* it.
//     --flow[=lily|baseline|adaptive]
//                              run the checked flow engine end to end and
//                              print its FlowDiagnostics instead of the
//                              per-stage checker audit. Exit 0 even when
//                              the run is degraded (the diagnostics say
//                              so); non-zero only when no rung of the
//                              recovery ladder produced a result.
//     --eco=<n-edits>          ECO smoke mode: build the incremental
//                              pipeline, apply a random local delta of
//                              n edits, and audit the maintained artifacts
//                              (reuse ratios, version stamps, simulation
//                              equivalence). With --inject=eco:stale-epoch
//                              the run passes when the corrupted version
//                              stamp is rejected with InvariantViolation.
//     --budget-ms=<n>          whole-flow wall-clock budget (flow mode)
//     --max-match-nodes=<n>    bound the per-node match audit (0 = all)
//     --quiet                  suppress per-issue lines, print summary only
//
// Exit codes: 0 = clean (warnings allowed), 1 = invariant errors found or
// unrecoverable flow failure, 2 = usage or input error.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "check/check.hpp"
#include "check/mapped_checker.hpp"
#include "flow/pipeline.hpp"
#include "netlist/simulate.hpp"
#include "check/match_checker.hpp"
#include "check/placement_checker.hpp"
#include "check/subject_checker.hpp"
#include "flow/flow.hpp"
#include "flow/report.hpp"
#include "map/base_mapper.hpp"
#include "util/io.hpp"
#include "netlist/blif.hpp"
#include "place/netlist_adapters.hpp"
#include "subject/decompose.hpp"
#include "util/fault.hpp"
#include "verify/cec.hpp"
#include "verify/lint.hpp"

namespace {

using namespace lily;

struct LintArgs {
    std::string blif_path;
    std::string genlib_path;
    CheckLevel level = CheckLevel::Paranoid;
    std::string inject = "none";
    std::size_t max_match_nodes = 0;
    bool quiet = false;
    bool flow_mode = false;
    FlowKind flow_kind = FlowKind::Lily;
    double budget_ms = 0.0;
    bool eco_mode = false;
    std::size_t eco_edits = 0;
    bool prove_mode = false;
    bool netlist_lint_mode = false;
    bool json = false;
};

void usage(std::FILE* to) {
    std::fputs(
        "usage: lily_lint [--level=light|paranoid] [--inject=kind] "
        "[--flow[=lily|baseline|adaptive]] [--prove] [--lint-netlist] [--eco=N] "
        "[--budget-ms=N] [--max-match-nodes=N] [--quiet] [--json] "
        "<circuit.blif> [<library.genlib>]\n"
        "  inject kinds: cycle offchip badpad wrong-cover dup-drive\n"
        "  fault specs (imply --flow): parser:skip-gate placement:diverge "
        "matcher:no-match router:overbudget\n"
        "  fault specs (imply --eco): eco:stale-epoch\n"
        "  fault specs (imply --prove): verify:miscompare\n",
        to);
}

bool parse_args(int argc, char** argv, LintArgs& out) {
    std::vector<std::string> positional;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.rfind("--level=", 0) == 0) {
            const std::string level = arg.substr(8);
            if (level != "light" && level != "paranoid") {
                std::fprintf(stderr, "lily_lint: unknown level '%s'\n", level.c_str());
                return false;
            }
            out.level = parse_check_level(level, CheckLevel::Paranoid);
        } else if (arg.rfind("--inject=", 0) == 0) {
            out.inject = arg.substr(9);
            if (out.inject.find(':') != std::string::npos) {
                // stage:kind specs are recovery-ladder faults, handled by the
                // flow engine's injection registry rather than local
                // corruption; they only make sense in flow mode.
                static const char* kFaults[] = {"parser:skip-gate", "placement:diverge",
                                                "matcher:no-match", "router:overbudget",
                                                "eco:stale-epoch", "verify:miscompare"};
                bool known = false;
                for (const char* f : kFaults) known = known || out.inject == f;
                if (!known) {
                    std::fprintf(stderr, "lily_lint: unknown fault spec '%s'\n",
                                 out.inject.c_str());
                    return false;
                }
                set_fault_spec(out.inject);
                if (out.inject == "eco:stale-epoch") {
                    // This probe only fires inside run_eco_flow_checked.
                    out.eco_mode = true;
                    if (out.eco_edits == 0) out.eco_edits = 2;
                } else if (out.inject == "verify:miscompare") {
                    // Handled locally by the prove mode (the flipped gate
                    // must be refuted with a counterexample).
                    out.prove_mode = true;
                } else {
                    out.flow_mode = true;
                }
            } else {
                static const char* kKinds[] = {"cycle", "offchip", "badpad", "wrong-cover",
                                               "dup-drive"};
                bool known = false;
                for (const char* kind : kKinds) known = known || out.inject == kind;
                if (!known) {
                    std::fprintf(stderr, "lily_lint: unknown inject kind '%s'\n",
                                 out.inject.c_str());
                    return false;
                }
            }
        } else if (arg == "--prove") {
            out.prove_mode = true;
        } else if (arg == "--lint-netlist") {
            out.netlist_lint_mode = true;
        } else if (arg == "--flow" || arg.rfind("--flow=", 0) == 0) {
            out.flow_mode = true;
            if (arg.size() > 6) {
                const std::string kind = arg.substr(7);
                if (kind == "lily") {
                    out.flow_kind = FlowKind::Lily;
                } else if (kind == "baseline") {
                    out.flow_kind = FlowKind::Baseline;
                } else if (kind == "adaptive") {
                    out.flow_kind = FlowKind::Adaptive;
                } else {
                    std::fprintf(stderr, "lily_lint: unknown flow kind '%s'\n", kind.c_str());
                    return false;
                }
            }
        } else if (arg.rfind("--eco=", 0) == 0) {
            out.eco_mode = true;
            out.eco_edits = static_cast<std::size_t>(std::stoull(arg.substr(6)));
            if (out.eco_edits == 0) {
                std::fprintf(stderr, "lily_lint: --eco needs at least one edit\n");
                return false;
            }
        } else if (arg.rfind("--budget-ms=", 0) == 0) {
            out.budget_ms = std::stod(arg.substr(12));
        } else if (arg.rfind("--max-match-nodes=", 0) == 0) {
            out.max_match_nodes = static_cast<std::size_t>(std::stoull(arg.substr(18)));
        } else if (arg == "--json") {
            // Machine-readable report on stdout (flow/report.hpp — the same
            // document the serving daemon attaches to per-job verdicts).
            out.json = true;
            out.quiet = true;
        } else if (arg == "--quiet") {
            out.quiet = true;
        } else if (arg == "--help" || arg == "-h") {
            usage(stdout);
            std::exit(0);
        } else if (arg.rfind("--", 0) == 0) {
            std::fprintf(stderr, "lily_lint: unknown option '%s'\n", arg.c_str());
            return false;
        } else {
            positional.push_back(arg);
        }
    }
    // Netlist lint reads only the BLIF; every other mode needs the library.
    if (out.netlist_lint_mode ? (positional.empty() || positional.size() > 2)
                              : positional.size() != 2) {
        return false;
    }
    out.blif_path = positional[0];
    if (positional.size() == 2) out.genlib_path = positional[1];
    return true;
}

/// Read the circuit and the library from disk and validate the library.
/// Returns true when both loaded; otherwise prints the parse or validation
/// error, and the caller exits 2.
bool load_inputs(const LintArgs& args, Network& net, Library& lib) {
    StatusOr<Network> parsed_net = read_blif_file_checked(args.blif_path);
    if (!parsed_net.is_ok()) {
        std::fprintf(stderr, "lily_lint: %s\n", parsed_net.status().to_string().c_str());
        return false;
    }
    StatusOr<Library> parsed_lib = read_genlib_file_checked(args.genlib_path);
    if (!parsed_lib.is_ok()) {
        std::fprintf(stderr, "lily_lint: %s\n", parsed_lib.status().to_string().c_str());
        return false;
    }
    net = std::move(parsed_net).value();
    lib = std::move(parsed_lib).value();
    try {
        lib.validate();
    } catch (const std::exception& e) {
        std::fprintf(stderr, "lily_lint: %s\n", e.what());
        return false;
    }
    return true;
}

/// Prove mode: map the circuit with the baseline mapper and prove the
/// mapped netlist equivalent to the source via SAT-sweeping CEC. With the
/// verify:miscompare fault the expectation inverts — one gate function is
/// flipped and the run passes exactly when the engine refutes it with a
/// counterexample (whose mismatches check_equivalence already confirmed by
/// replaying the model through simulate_block).
int run_prove_mode(const LintArgs& args) {
    Network net("lint");
    Library lib;
    if (!load_inputs(args, net, lib)) return 2;

    const bool expect_refuted = args.inject == "verify:miscompare";
    std::optional<Network> impl;
    try {
        const DecomposeResult sub = decompose(net);
        MapResult mapped = BaseMapper(lib).map(sub.graph);
        if (expect_refuted && !inject_wrong_cover(mapped.netlist, lib)) {
            std::fprintf(stderr, "lily_lint: library too small to inject verify:miscompare\n");
            return 2;
        }
        impl = mapped.netlist.to_network(lib);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "lily_lint: pipeline failed: %s\n", e.what());
        return 2;
    }

    const StatusOr<CecResult> cec_or = check_equivalence(net, *impl);
    if (!cec_or.is_ok()) {
        std::fprintf(stderr, "lily_lint: prove failed: %s\n",
                     cec_or.status().to_string().c_str());
        return 1;
    }
    const CecResult& cec = cec_or.value();
    if (!args.quiet) {
        std::printf("prove: %s (aig-ands=%zu merged=%zu sat-calls=%zu conflicts=%llu)\n",
                    to_string(cec.verdict), cec.stats.aig_and_nodes, cec.stats.merged_nodes,
                    cec.stats.sat_calls,
                    static_cast<unsigned long long>(cec.stats.conflicts));
        if (cec.cex.has_value()) std::printf("prove: %s\n", cec.cex->to_string().c_str());
        if (!cec.note.empty()) std::printf("prove: %s\n", cec.note.c_str());
    }
    if (expect_refuted) {
        if (cec.verdict == CecVerdict::Refuted) {
            std::printf("prove: injected miscompare refuted as expected\n");
            return 0;
        }
        std::fprintf(stderr,
                     "lily_lint: verify:miscompare fault was NOT refuted (prover gap)\n");
        return 1;
    }
    return cec.verdict == CecVerdict::Proven ? 0 : 1;
}

/// Netlist lint mode: the static src/verify/ lint passes over the BLIF
/// alone. A parse failure is itself a finding (malformed netlists are
/// exactly what lint exists to flag), so it exits 1, not 2.
int run_netlist_lint_mode(const LintArgs& args) {
    const StatusOr<Network> net = read_blif_file_checked(args.blif_path);
    if (!net.is_ok()) {
        if (args.json) {
            std::fputs(flow_report_json(net.status(), nullptr, nullptr).c_str(), stdout);
            std::fputc('\n', stdout);
            return 1;
        }
        if (!args.quiet) std::printf("error [verify]: %s\n", net.status().to_string().c_str());
        std::printf("TOTAL      1 error(s), 0 warning(s)\n");
        return 1;
    }
    const CheckReport rep = lint_network(net.value());
    if (args.json) {
        std::fputs(flow_report_json(Status::ok(), nullptr, nullptr, &rep).c_str(), stdout);
        std::fputc('\n', stdout);
        return rep.has_errors() ? 1 : 0;
    }
    if (!args.quiet && !rep.empty()) std::fputs(rep.to_string().c_str(), stdout);
    std::printf("TOTAL      %zu error(s), %zu warning(s)\n", rep.error_count(),
                rep.warning_count());
    return rep.has_errors() ? 1 : 0;
}

/// Flow mode: drive the fault-tolerant flow engine end to end and report
/// its FlowDiagnostics. Degraded-but-complete runs exit 0 — that is the
/// engine keeping its promise — while an unrecoverable failure exits 1 and
/// a parse/usage error exits 2.
int run_flow_mode(const LintArgs& args) {
    FlowOptions opts;
    opts.check = args.level;
    opts.budget.total_ms = args.budget_ms;
    // One sink for the whole run: the executor's spans land here, feed the
    // --json report's "trace" block, and are dumped as JSON-lines when
    // LILY_TRACE names a file (the sink takes precedence over the env var
    // inside the flow, so the dump happens exactly once, here).
    TraceSink sink;
    opts.trace = &sink;
    const StatusOr<FlowResult> result =
        run_flow_from_files(args.blif_path, args.genlib_path, opts, args.flow_kind);
    const std::string trace_path = trace_path_from_env();
    if (!trace_path.empty()) {
        const Status dumped = sink.append_to_file(trace_path);
        if (!dumped.is_ok()) {
            std::fprintf(stderr, "lily_lint: trace dump failed: %s\n",
                         dumped.to_string().c_str());
        }
    }
    if (!result.is_ok()) {
        if (args.json) {
            std::fputs(flow_report_json(result.status(), nullptr, nullptr, nullptr, &sink)
                           .c_str(),
                       stdout);
            std::fputc('\n', stdout);
        }
        std::fprintf(stderr, "lily_lint: flow failed: %s\n",
                     result.status().to_string().c_str());
        return result.status().code() == StatusCode::ParseError ? 2 : 1;
    }
    const FlowResult& flow = result.value();
    if (args.json) {
        std::fputs(flow_report_json(Status::ok(), &flow.diagnostics, &flow.metrics, nullptr,
                                    &sink)
                       .c_str(),
                   stdout);
        std::fputc('\n', stdout);
        return 0;
    }
    if (!args.quiet) std::fputs(flow.diagnostics.to_string().c_str(), stdout);
    std::printf("metrics: gates=%zu chip-area=%.3f wirelength=%.3f delay=%.3f\n",
                flow.metrics.gate_count, flow.metrics.chip_area, flow.metrics.wirelength,
                flow.metrics.critical_delay);
    std::printf("flow: %s\n", flow.diagnostics.degraded() ? "degraded" : "clean");
    return 0;
}

/// ECO smoke mode: build the incremental pipeline from the input circuit,
/// apply one random local delta, and audit the maintained artifacts. With
/// the eco:stale-epoch fault injected the expected outcome inverts: the
/// corrupted version stamp must be rejected with InvariantViolation.
int run_eco_mode(const LintArgs& args) {
    Network net("lint");
    Library lib;
    if (!load_inputs(args, net, lib)) return 2;

    StatusOr<PipelineState> built = build_pipeline(net, lib);
    if (!built.is_ok()) {
        std::fprintf(stderr, "lily_lint: build_pipeline failed: %s\n",
                     built.status().to_string().c_str());
        return 1;
    }
    PipelineState state = std::move(built).value();
    const NetDelta delta = local_delta(state.net, args.eco_edits, 0xEC0);
    const StatusOr<EcoStats> eco = run_eco_flow_checked(state, delta);

    if (args.inject == "eco:stale-epoch") {
        if (!eco.is_ok() && eco.status().code() == StatusCode::InvariantViolation) {
            std::printf("eco: stale version stamp rejected as expected (%s)\n",
                        eco.status().to_string().c_str());
            return 0;
        }
        std::fprintf(stderr,
                     "lily_lint: eco:stale-epoch fault was NOT rejected (checker gap)\n");
        return 1;
    }
    if (!eco.is_ok()) {
        std::fprintf(stderr, "lily_lint: eco flow failed: %s\n",
                     eco.status().to_string().c_str());
        return 1;
    }
    const EcoStats& s = eco.value();
    if (!args.quiet) std::fputs(s.diagnostics.to_string().c_str(), stdout);
    std::printf("eco: %zu edit(s), reuse map %.2f place %.2f%s\n", args.eco_edits,
                s.map_reuse_ratio(), s.place_reuse_ratio(), s.full_reflow ? " (full reflow)" : "");
    const bool equivalent =
        equivalent_random(state.net, state.flow.netlist.to_network(lib), 8, 0xEC0);
    std::printf("eco: maintained netlist %s the edited circuit\n",
                equivalent ? "matches" : "DOES NOT match");
    return equivalent ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
    // Writing a report into a closed pipe (head, a dead pager, a dropped
    // client) must surface as a short write, not SIGPIPE death.
    ignore_sigpipe();
    LintArgs args;
    if (!parse_args(argc, argv, args)) {
        usage(stderr);
        return 2;
    }
    if (args.netlist_lint_mode) return run_netlist_lint_mode(args);
    if (args.prove_mode) return run_prove_mode(args);
    if (args.eco_mode) return run_eco_mode(args);
    if (args.flow_mode) return run_flow_mode(args);
    const bool paranoid = args.level == CheckLevel::Paranoid;

    Network net("lint");
    Library lib;
    if (!load_inputs(args, net, lib)) return 2;

    CheckReport all;
    const auto run_stage = [&](const char* stage, CheckReport rep) {
        if (!args.quiet && !rep.empty()) std::fputs(rep.to_string().c_str(), stdout);
        if (!args.quiet) {
            std::printf("%-10s %zu error(s), %zu warning(s)\n", stage, rep.error_count(),
                        rep.warning_count());
        }
        all.merge(rep);
    };

    try {
        // Stage 1: the source network.
        if (args.inject == "cycle" && net.logic_node_count() > 0) {
            // A fanin edge pointing forward in the topological order — the
            // id-order invariant that stands in for acyclicity.
            const NodeId last = static_cast<NodeId>(net.node_count() - 1);
            for (const NodeId id : net.logic_nodes()) {
                if (id < last) {
                    net.node(id).fanins.push_back(last);
                    break;
                }
            }
        }
        run_stage("network", lint_network(net));

        // Stage 2: decomposition into the subject graph.
        const DecomposeResult sub = decompose(net);
        SubjectChecker subject_checker;
        run_stage("subject", paranoid ? subject_checker.check_against_source(sub.graph, net)
                                      : subject_checker.check(sub.graph));

        // Stage 3: pattern matches at every node.
        run_stage("match",
                  MatchChecker(lib).check_all(sub.graph, args.max_match_nodes, paranoid));

        // Stage 4: technology mapping.
        MapResult mapped = BaseMapper(lib).map(sub.graph);
        if (args.inject == "wrong-cover" && !inject_wrong_cover(mapped.netlist, lib)) {
            std::fprintf(stderr, "lily_lint: library too small to inject wrong-cover\n");
            return 2;
        }
        if (args.inject == "dup-drive" && !mapped.netlist.gates.empty()) {
            mapped.netlist.gates.push_back(mapped.netlist.gates.back());
        }
        MappedChecker mapped_checker(lib);
        run_stage("mapped", paranoid ? mapped_checker.check_against(mapped.netlist, net)
                                     : mapped_checker.check(mapped.netlist));
        if (all.has_errors() && (args.inject == "dup-drive" || args.inject == "cycle")) {
            // The remaining stages would operate on the corrupted data;
            // report and stop (mirrors the flow, which throws here).
            std::printf("TOTAL      %zu error(s), %zu warning(s)\n", all.error_count(),
                        all.warning_count());
            return 1;
        }

        // Stage 5: placement and timing over the mapped netlist.
        MappedPlacementView view = make_placement_view(mapped.netlist, lib);
        const Rect region = make_region(view.netlist.total_cell_area());
        view.netlist.pad_positions = place_pads(view.netlist, region);
        PlacementNetlist& pnl = view.netlist;
        if (args.inject == "badpad" && !pnl.pad_positions.empty()) {
            pnl.pad_positions[0] = region.center();  // off the boundary ring
        }
        const GlobalPlacement global = place_global(pnl, region);
        DetailedPlacement detailed = legalize_rows(pnl, global);
        improve_rows(pnl, detailed);
        if (args.inject == "offchip" && !detailed.positions.empty()) {
            detailed.positions[0] = {region.ur.x * 1e6 + 10.0, region.ur.y * 1e6 + 10.0};
        }
        PlacementChecker placement_checker;
        CheckReport placement = placement_checker.check_global(pnl, global);
        placement.merge(placement_checker.check_detailed(pnl, detailed));
        placement.merge(placement_checker.check_pads(pnl.pad_positions, region));
        run_stage("placement", placement);

        const TimingReport timing =
            analyze_timing(mapped.netlist, lib, view, detailed.positions);
        run_stage("timing", mapped_checker.check_timing(mapped.netlist, timing));
    } catch (const std::exception& e) {
        std::fprintf(stderr, "lily_lint: pipeline failed: %s\n", e.what());
        return 2;
    }

    if (args.json) {
        std::fputs(flow_report_json(Status::ok(), nullptr, nullptr, &all).c_str(), stdout);
        std::fputc('\n', stdout);
        return all.has_errors() ? 1 : 0;
    }
    std::printf("TOTAL      %zu error(s), %zu warning(s)\n", all.error_count(),
                all.warning_count());
    return all.has_errors() ? 1 : 0;
}
