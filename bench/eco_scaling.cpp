// ECO scaling harness: how does incremental re-derivation pay off as the
// edit size grows?
//
// Builds one pipeline state for a synthetic control-logic workload, then
// sweeps edit sizes (a fraction of the source nodes per delta). For each
// size it times the incremental ECO application against a from-scratch
// batch flow of the same edited network, records the per-stage reuse
// ratios, the QoR deltas and a random-simulation equivalence verdict, and
// emits BENCH_eco.json.
//
// Exit is non-zero when any mapped result fails the equivalence check, or —
// with --gate=S — when an edit of at most 1% of the nodes fails to reach an
// S-fold speedup over the full reflow (the CI regression gate).
//
// Usage:
//   eco_scaling [--out=BENCH_eco.json] [--quick] [--gate=SPEEDUP]
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "bench/common.hpp"
#include "circuits/benchmarks.hpp"
#include "flow/pipeline.hpp"
#include "library/standard_cells.hpp"
#include "netlist/simulate.hpp"

using namespace lily;

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
    return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

std::string json_num(double v) {
    if (!std::isfinite(v)) return "null";
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.6g", v);
    return buf;
}

struct SweepRow {
    const char* model = "local";  // "local" = bounded-fanout ECO targets
    std::size_t edits = 0;
    double fraction = 0.0;
    double eco_ms = 0.0;
    double full_ms = 0.0;
    double speedup = 0.0;
    bool full_reflow_fallback = false;
    double map_reuse = 0.0;
    double place_reuse = 0.0;
    double cell_area_ratio = 0.0;       // incremental / batch
    double wirelength_ratio = 0.0;
    double critical_delay_ratio = 0.0;
    bool equivalent = false;
};

double ratio(double a, double b) { return b > 0.0 ? a / b : 0.0; }

}  // namespace

int main(int argc, char** argv) {
    std::string out_path = "BENCH_eco.json";
    bool quick = false;
    double gate_speedup = 0.0;   // 0 = no speedup gate
    std::size_t repeats = 2;     // best-of-N timing
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.rfind("--out=", 0) == 0) {
            out_path = arg.substr(6);
        } else if (arg == "--quick") {
            quick = true;
        } else if (arg.rfind("--gate=", 0) == 0) {
            gate_speedup = std::stod(arg.substr(7));
        } else if (arg.rfind("--repeats=", 0) == 0) {
            repeats = std::max<std::size_t>(1, std::stoull(arg.substr(10)));
        } else {
            std::fprintf(stderr,
                         "usage: eco_scaling [--out=FILE] [--quick] [--gate=SPEEDUP] "
                         "[--repeats=N]\n");
            return 2;
        }
    }

    const Library lib = load_msu_big();
    const unsigned gates = quick ? 300 : 1200;
    const std::string name = quick ? "control_300" : "control_1200";
    const Network net =
        make_control_logic(gates / 8 + 8, gates / 16 + 4, gates, 0x5EED, "eco");

    FlowOptions opts;
    std::fprintf(stderr, "%s: building pipeline state (batch flow)...\n", name.c_str());
    const Clock::time_point tb = Clock::now();
    StatusOr<PipelineState> built = build_pipeline(net, lib, opts);
    const double build_ms = ms_since(tb);
    if (!built.is_ok()) {
        std::fprintf(stderr, "build_pipeline failed: %s\n", built.status().to_string().c_str());
        return 1;
    }
    const PipelineState base = std::move(built).value();
    const std::size_t n_nodes = base.net.node_count();
    std::fprintf(stderr, "%s: %zu source nodes, batch flow %.1f ms\n", name.c_str(), n_nodes,
                 build_ms);

    // The gated sweep uses local_delta — edits whose targets have bounded
    // transitive fanout, the realistic ECO shape. A trailing uniform
    // random_delta row is reported (not gated) to show the cascade honestly:
    // a uniform edit near the inputs logically changes most of the design,
    // so incremental re-derivation legitimately approaches batch cost there.
    struct SweepPoint {
        double fraction;
        const char* model;
    };
    const std::vector<SweepPoint> sweep_points = {
        {0.002, "local"}, {0.01, "local"}, {0.05, "local"}, {0.2, "local"}, {0.01, "uniform"}};
    std::vector<SweepRow> rows;
    bool all_equivalent = true;
    bool gate_failed = false;
    bench::RatioTracker area_qor;

    for (std::size_t f = 0; f < sweep_points.size(); ++f) {
        SweepRow row;
        row.model = sweep_points[f].model;
        row.fraction = sweep_points[f].fraction;
        row.edits = std::max<std::size_t>(
            1, static_cast<std::size_t>(std::llround(row.fraction * double(n_nodes))));

        const bool uniform = std::string(row.model) == "uniform";
        const NetDelta delta = uniform ? random_delta(base.net, row.edits, 0xD17A + 31 * f)
                                       : local_delta(base.net, row.edits, 0xD17A + 31 * f);

        // Best-of-N wall times: both sides are deterministic for a fixed
        // delta, so repeats differ only by scheduler/allocator noise — the
        // minimum is the honest cost of each path.
        PipelineState state;  // the maintained state after the delta (last rep)
        StatusOr<EcoStats> eco = Status(StatusCode::Internal, "not yet run");
        row.eco_ms = std::numeric_limits<double>::max();
        for (std::size_t rep = 0; rep < repeats; ++rep) {
            PipelineState fresh = base;  // deep copy: each rep starts from the seed state
            const Clock::time_point t0 = Clock::now();
            eco = run_eco_flow_checked(fresh, delta);
            row.eco_ms = std::min(row.eco_ms, ms_since(t0));
            if (!eco.is_ok()) break;
            state = std::move(fresh);
        }
        if (!eco.is_ok()) {
            std::fprintf(stderr, "eco (%zu edits) failed: %s\n", row.edits,
                         eco.status().to_string().c_str());
            return 1;
        }
        const EcoStats& s = eco.value();
        row.full_reflow_fallback = s.full_reflow;
        row.map_reuse = s.map_reuse_ratio();
        row.place_reuse = s.place_reuse_ratio();

        // Reference: a from-scratch batch flow of the same edited network.
        StatusOr<FlowResult> full = Status(StatusCode::Internal, "not yet run");
        row.full_ms = std::numeric_limits<double>::max();
        for (std::size_t rep = 0; rep < repeats; ++rep) {
            const Clock::time_point t0 = Clock::now();
            full = run_lily_flow_checked(state.net, lib, opts);
            row.full_ms = std::min(row.full_ms, ms_since(t0));
            if (!full.is_ok()) break;
        }
        if (!full.is_ok()) {
            std::fprintf(stderr, "batch reference (%zu edits) failed: %s\n", row.edits,
                         full.status().to_string().c_str());
            return 1;
        }
        row.speedup = row.eco_ms > 0.0 ? row.full_ms / row.eco_ms : 0.0;

        const FlowMetrics& mi = state.flow.metrics;
        const FlowMetrics& mb = full.value().metrics;
        row.cell_area_ratio = ratio(mi.cell_area, mb.cell_area);
        row.wirelength_ratio = ratio(mi.wirelength, mb.wirelength);
        row.critical_delay_ratio = ratio(mi.critical_delay, mb.critical_delay);
        area_qor.add(mi.cell_area, mb.cell_area);

        row.equivalent =
            equivalent_random(state.net, state.flow.netlist.to_network(lib), 8, 7) &&
            equivalent_random(state.net, full.value().netlist.to_network(lib), 8, 7);
        all_equivalent = all_equivalent && row.equivalent;

        std::fprintf(stderr,
                     "%s edits=%zu (%.1f%%): eco %.1f ms vs full %.1f ms -> %.1fx; "
                     "reuse map %.2f place %.2f; area ratio %.4f; "
                     "equivalent=%s%s\n",
                     row.model, row.edits, 100.0 * row.fraction, row.eco_ms, row.full_ms,
                     row.speedup, row.map_reuse, row.place_reuse,
                     row.cell_area_ratio, row.equivalent ? "yes" : "NO",
                     row.full_reflow_fallback ? " (fell back to full reflow)" : "");

        if (gate_speedup > 0.0 && !uniform && row.fraction <= 0.01 &&
            row.speedup < gate_speedup) {
            std::fprintf(stderr,
                         "GATE: %zu-edit delta (%.1f%% of nodes) reached only %.2fx "
                         "(< %.1fx required)\n",
                         row.edits, 100.0 * row.fraction, row.speedup, gate_speedup);
            gate_failed = true;
        }
        rows.push_back(row);
    }

    std::ostringstream os;
    os << "{\n";
    os << "  \"workload\": \"" << name << "\",\n";
    os << "  \"source_nodes\": " << n_nodes << ",\n";
    os << "  \"batch_build_ms\": " << json_num(build_ms) << ",\n";
    os << "  \"all_equivalent\": " << (all_equivalent ? "true" : "false") << ",\n";
    os << "  \"geomean_cell_area_ratio\": " << json_num(area_qor.geomean()) << ",\n";
    os << "  \"sweep\": [\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const SweepRow& r = rows[i];
        os << "  {\n";
        os << "    \"edit_model\": \"" << r.model << "\",\n";
        os << "    \"edits\": " << r.edits << ",\n";
        os << "    \"fraction\": " << json_num(r.fraction) << ",\n";
        os << "    \"eco_ms\": " << json_num(r.eco_ms) << ",\n";
        os << "    \"full_reflow_ms\": " << json_num(r.full_ms) << ",\n";
        os << "    \"speedup\": " << json_num(r.speedup) << ",\n";
        os << "    \"full_reflow_fallback\": " << (r.full_reflow_fallback ? "true" : "false")
           << ",\n";
        os << "    \"reuse\": {\"mapping\": " << json_num(r.map_reuse)
           << ", \"placement\": " << json_num(r.place_reuse) << "},\n";
        os << "    \"qor\": {\"cell_area_ratio\": " << json_num(r.cell_area_ratio)
           << ", \"wirelength_ratio\": " << json_num(r.wirelength_ratio)
           << ", \"critical_delay_ratio\": " << json_num(r.critical_delay_ratio) << "},\n";
        os << "    \"equivalent\": " << (r.equivalent ? "true" : "false") << "\n";
        os << "  }" << (i + 1 < rows.size() ? "," : "") << "\n";
    }
    os << "  ]\n";
    os << "}\n";

    std::ofstream f(out_path);
    f << os.str();
    f.close();
    std::fprintf(stderr, "wrote %s\n", out_path.c_str());

    if (!all_equivalent) {
        std::fprintf(stderr, "FAIL: an ECO result is not equivalent to its source network\n");
        return 1;
    }
    if (gate_failed) {
        std::fprintf(stderr, "FAIL: small-edit speedup below the --gate threshold\n");
        return 1;
    }
    return 0;
}
