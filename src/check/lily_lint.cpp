// lily_lint: run the checked flow engine over a BLIF circuit and a genlib
// library and print its diagnostics. Every mode runs the flow with
// CheckLevel::Light (each stage's local invariant checkers) and at least the
// simulation rung of the verify stage; LILY_VERIFY=prove makes the verify
// stage prove the mapped netlist equivalent to its source. The audit is the
// flow's own: lily_lint checks what run_flow_from_files produces, not a
// copy of the pipeline.
//
//   lily_lint [options] <circuit.blif> <library.genlib>
//     --flow=lily|baseline|adaptive
//                              the pipeline to run (default lily). Prints
//                              the FlowDiagnostics, a metrics line and
//                              "flow: clean" or "flow: degraded"; both exit
//                              0. Non-zero only when no rung of the
//                              recovery ladder produced a verified result.
//     --inject=<stage:kind>    feed a fault to the fault-injection registry
//                              to prove the flow *survives* it:
//                              parser:skip-gate, placement:diverge,
//                              matcher:no-match, router:overbudget (each
//                              degrades the run). verify:miscompare runs
//                              the flow at VerifyLevel::Prove and passes
//                              exactly when the verify stage rejects the
//                              flipped gate with a counterexample.
//                              eco:stale-epoch implies --eco=2 and passes
//                              exactly when the ECO flow rejects the
//                              corrupted version stamp.
//     --lint-netlist           static netlist lint: run the src/verify/
//                              lint passes (cycles, undriven/multi-driven
//                              nets, floating inputs, dead cones, constant
//                              logic) over the BLIF alone; the library
//                              argument is optional. A parse failure counts
//                              as a finding.
//     --eco=<n-edits>          ECO smoke mode: build the incremental
//                              pipeline, apply a random local delta of
//                              n edits (1 to 1000), and report the reuse
//                              ratios; the ECO flow itself checks the
//                              maintained artifacts (Light checks, version
//                              stamps, verify stage as in flow mode). With
//                              --json the report and LILY_TRACE cover the
//                              ECO run alone.
//     --budget-ms=<n>          whole-flow wall-clock budget in whole ms for
//                              the flow, or for the ECO build and the ECO
//                              run each (0 = none; default LILY_BUDGET_MS)
//     --quiet                  suppress per-stage lines, print summary only
//     --json                   machine-readable report on stdout
//
// Exit codes: 0 = the flow completed (clean or degraded), 1 = lint errors
// or an unrecoverable flow failure, 2 = usage or input error.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "check/check.hpp"
#include "flow/flow.hpp"
#include "flow/pipeline.hpp"
#include "flow/report.hpp"
#include "netlist/blif.hpp"
#include "util/fault.hpp"
#include "util/io.hpp"
#include "util/text.hpp"
#include "verify/lint.hpp"

namespace {

using namespace lily;

struct LintArgs {
    std::string blif_path;
    std::string genlib_path;
    std::string inject = "none";
    bool quiet = false;
    FlowKind flow_kind = FlowKind::Lily;
    /// --budget-ms; unset leaves FlowBudget's default (LILY_BUDGET_MS).
    std::optional<double> budget_ms;
    bool eco_mode = false;
    std::size_t eco_edits = 0;
    bool netlist_lint_mode = false;
    bool json = false;
};

/// Upper bound on --eco. The smoke check needs a few edits; the cap keeps a
/// mistyped count from sizing the delta generator's target scan (8 per edit)
/// without bound.
constexpr std::uint32_t kMaxEcoEdits = 1000;

void usage(std::FILE* to) {
    std::fputs(
        "usage: lily_lint [--flow=lily|baseline|adaptive] [--inject=stage:kind] "
        "[--lint-netlist] [--eco=N] [--budget-ms=N] [--quiet] [--json] "
        "<circuit.blif> [<library.genlib>]\n"
        "  fault specs: parser:skip-gate placement:diverge matcher:no-match "
        "router:overbudget verify:miscompare\n"
        "  fault specs (imply --eco): eco:stale-epoch\n",
        to);
}

bool parse_args(int argc, char** argv, LintArgs& out) {
    std::vector<std::string> positional;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.rfind("--inject=", 0) == 0) {
            // Faults for the flow engine's injection registry: the run must
            // survive them (or, for verify:miscompare and eco:stale-epoch,
            // reject the corruption).
            out.inject = arg.substr(9);
            static const char* kFaults[] = {"parser:skip-gate", "placement:diverge",
                                            "matcher:no-match", "router:overbudget",
                                            "eco:stale-epoch", "verify:miscompare"};
            bool known = false;
            for (const char* f : kFaults) known = known || out.inject == f;
            if (!known) {
                std::fprintf(stderr, "lily_lint: unknown fault spec '%s'\n", out.inject.c_str());
                return false;
            }
            set_fault_spec(out.inject);
            if (out.inject == "eco:stale-epoch") {
                // This probe only fires inside run_eco_flow_checked.
                out.eco_mode = true;
                if (out.eco_edits == 0) out.eco_edits = 2;
            }
        } else if (arg == "--lint-netlist") {
            out.netlist_lint_mode = true;
        } else if (arg.rfind("--flow=", 0) == 0) {
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
        } else if (arg.rfind("--eco=", 0) == 0) {
            out.eco_mode = true;
            std::uint32_t edits = 0;
            if (!parse_u32(std::string_view(arg).substr(6), edits) || edits == 0 ||
                edits > kMaxEcoEdits) {
                std::fprintf(stderr, "lily_lint: --eco needs 1 to %u edits, got '%s'\n",
                             kMaxEcoEdits, arg.c_str() + 6);
                return false;
            }
            out.eco_edits = edits;
        } else if (arg.rfind("--budget-ms=", 0) == 0) {
            std::uint32_t ms = 0;
            if (!parse_u32(std::string_view(arg).substr(12), ms)) {
                std::fprintf(stderr, "lily_lint: --budget-ms needs whole milliseconds, got '%s'\n",
                             arg.c_str() + 12);
                return false;
            }
            out.budget_ms = ms;
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

/// Flow and ECO mode options: the Light local checks, at least the
/// simulation rung of the verify stage (LILY_VERIFY=prove raises it) and
/// the --budget-ms whole-flow budget when one was given.
FlowOptions checked_options(const LintArgs& args) {
    FlowOptions opts;
    opts.check = CheckLevel::Light;
    opts.verify = std::max(opts.verify, VerifyLevel::Sim);
    if (args.budget_ms.has_value()) opts.budget.total_ms = *args.budget_ms;
    return opts;
}

/// The inverted check of a fault probe that corrupts an artifact: the run
/// passes exactly when the flow rejected it with InvariantViolation whose
/// message carries `evidence`.
int expect_rejected(const Status& status, const std::string& fault, std::string_view evidence) {
    const std::string text = status.to_string();
    if (status.code() == StatusCode::InvariantViolation &&
        text.find(evidence) != std::string::npos) {
        std::printf("%s: rejected as expected (%s)\n", fault.c_str(), text.c_str());
        return 0;
    }
    std::fprintf(stderr, "lily_lint: %s fault was NOT rejected (%s)\n", fault.c_str(),
                 text.c_str());
    return 1;
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

/// Append `sink` to the file LILY_TRACE names, if any.
void dump_trace(const TraceSink& sink) {
    const std::string path = trace_path_from_env();
    if (path.empty()) return;
    const Status dumped = sink.append_to_file(path);
    if (!dumped.is_ok()) {
        std::fprintf(stderr, "lily_lint: trace dump failed: %s\n", dumped.to_string().c_str());
    }
}

/// Flow mode: drive the fault-tolerant flow engine end to end and report
/// its FlowDiagnostics. Degraded-but-complete runs exit 0 — that is the
/// engine keeping its promise — while an unrecoverable failure exits 1 and
/// a parse/usage error exits 2. Under verify:miscompare the expectation
/// inverts: the proving verify stage must reject the run.
int run_flow_mode(const LintArgs& args) {
    FlowOptions opts = checked_options(args);
    const bool expect_refuted = args.inject == "verify:miscompare";
    if (expect_refuted) opts.verify = VerifyLevel::Prove;
    // One sink for the whole run: the stages' spans land here, feed the
    // --json report's "trace" block, and are dumped as JSON-lines when
    // LILY_TRACE names a file (the sink takes precedence over the env var
    // inside the flow, so the dump happens exactly once, here).
    TraceSink sink;
    opts.trace = &sink;
    const StatusOr<FlowResult> result =
        run_flow_from_files(args.blif_path, args.genlib_path, opts, args.flow_kind);
    dump_trace(sink);
    if (expect_refuted) return expect_rejected(result.status(), args.inject, "counterexample");
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
/// apply one random local delta, and let the ECO flow's own checks and
/// verify stage audit the maintained artifacts. With
/// the eco:stale-epoch fault injected the expected outcome inverts: the
/// corrupted version stamp must be rejected with InvariantViolation.
int run_eco_mode(const LintArgs& args) {
    Network net("lint");
    Library lib;
    if (!load_inputs(args, net, lib)) return 2;

    // The build and the ECO run trace into separate sinks, so the --json
    // report and the LILY_TRACE dump (from `sink`) cover the ECO run alone;
    // a sink on the options also keeps the flows from dumping LILY_TRACE
    // themselves.
    TraceSink build_sink, sink;
    FlowOptions opts = checked_options(args);
    opts.trace = &build_sink;
    StatusOr<PipelineState> built = build_pipeline(net, lib, opts);
    if (!built.is_ok()) {
        std::fprintf(stderr, "lily_lint: build_pipeline failed: %s\n",
                     built.status().to_string().c_str());
        return 1;
    }
    PipelineState state = std::move(built).value();
    state.opts.trace = &sink;
    const NetDelta delta = local_delta(state.net, args.eco_edits, 0xEC0);
    const StatusOr<EcoStats> eco = run_eco_flow_checked(state, delta);
    dump_trace(sink);

    if (args.inject == "eco:stale-epoch") {
        return expect_rejected(eco.status(), args.inject, "stale stage artifacts");
    }
    if (!eco.is_ok()) {
        std::fprintf(stderr, "lily_lint: eco flow failed: %s\n",
                     eco.status().to_string().c_str());
        return 1;
    }
    const EcoStats& s = eco.value();
    if (args.json) {
        std::fputs(flow_report_json(Status::ok(), &s.diagnostics, &state.flow.metrics, nullptr,
                                    &sink)
                       .c_str(),
                   stdout);
        std::fputc('\n', stdout);
        return 0;
    }
    if (!args.quiet) std::fputs(s.diagnostics.to_string().c_str(), stdout);
    std::printf("eco: %zu edit(s), reuse map %.2f place %.2f%s\n", args.eco_edits,
                s.map_reuse_ratio(), s.place_reuse_ratio(), s.full_reflow ? " (full reflow)" : "");
    std::printf("eco: maintained netlist verified against the edited circuit (%s)\n",
                to_string(state.opts.verify));
    return 0;
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
    if (args.eco_mode) return run_eco_mode(args);
    return run_flow_mode(args);
}
