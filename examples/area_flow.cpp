// Area-driven end-to-end comparison on one benchmark circuit: runs both of
// the paper's pipelines (Section 5) and prints the Table-1-style metrics —
// instance area, final chip area and routed interconnect length.
//
//   ./area_flow [benchmark-name]     (default: C880; see --list)
#include <cstdio>
#include <cstring>

#include "circuits/benchmarks.hpp"
#include "flow/flow.hpp"
#include "library/standard_cells.hpp"

using namespace lily;

int main(int argc, char** argv) {
    const auto suite = paper_suite(1.0);
    std::string which = argc > 1 ? argv[1] : "C880";
    if (which == "--list") {
        for (const Benchmark& b : suite) std::printf("%s\n", b.name.c_str());
        return 0;
    }
    const auto it = std::find_if(suite.begin(), suite.end(),
                                 [&](const Benchmark& b) { return b.name == which; });
    if (it == suite.end()) {
        std::fprintf(stderr, "unknown benchmark '%s' (try --list)\n", which.c_str());
        return 1;
    }
    const Network& net = it->network;
    const Library lib = load_msu_big();

    std::printf("benchmark %s: %zu PIs, %zu POs, %zu nodes\n", which.c_str(),
                net.inputs().size(), net.outputs().size(), net.logic_node_count());

    const FlowResult base = run_baseline_flow_checked(net, lib).take_or_raise();
    const FlowResult lily = run_lily_flow_checked(net, lib).take_or_raise();

    const auto row = [](const char* name, const FlowMetrics& m) {
        std::printf("%-10s %6zu gates  cell %8.3f mm^2  chip %8.3f mm^2  wire %9.1f mm  "
                    "congestion %.2f\n",
                    name, m.gate_count, m.cell_area_mm2(), m.chip_area_mm2(), m.wirelength_mm(),
                    m.max_congestion);
    };
    row("baseline", base.metrics);
    row("lily", lily.metrics);
    std::printf("lily vs baseline: chip %+.1f%%, wire %+.1f%%\n",
                (lily.metrics.chip_area / base.metrics.chip_area - 1.0) * 100.0,
                (lily.metrics.wirelength / base.metrics.wirelength - 1.0) * 100.0);
    return 0;
}
