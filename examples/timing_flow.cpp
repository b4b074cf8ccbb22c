// Timing-driven end-to-end comparison (Table 2 style): maps an ALU in delay
// mode with both pipelines, then reports the longest path delay (wire
// delays included) and walks the critical path of the Lily result.
//
//   ./timing_flow [width]            (default: 16-bit ALU, width 1..1024)
#include <charconv>
#include <cstdio>
#include <cstring>

#include "circuits/benchmarks.hpp"
#include "flow/flow.hpp"
#include "library/standard_cells.hpp"
#include "sta/timing.hpp"

using namespace lily;

int main(int argc, char** argv) {
    unsigned width = 16;
    if (argc > 1) {
        // Digits only: from_chars takes no sign or space into an unsigned,
        // and the whole argument must parse.
        const char* last = argv[1] + std::strlen(argv[1]);
        const auto [end, ec] = std::from_chars(argv[1], last, width);
        if (argc > 2 || ec != std::errc() || end != last || width < 1 || width > 1024) {
            std::fprintf(stderr, "usage: %s [width]   (ALU width, 1..1024; default 16)\n",
                         argv[0]);
            return 2;
        }
    }
    const Network net = make_alu(width, true);
    const Library lib = load_msu_big();
    std::printf("%u-bit ALU: %zu nodes, depth %zu\n", width, net.logic_node_count(),
                net.depth());

    FlowOptions opts;
    opts.objective = MapObjective::Delay;
    const FlowResult base = run_baseline_flow_checked(net, lib, opts).take_or_raise();
    const FlowResult lily = run_lily_flow_checked(net, lib, opts).take_or_raise();

    std::printf("baseline: %4zu gates, cell %7.3f mm^2, delay %7.2f ns\n",
                base.metrics.gate_count, base.metrics.cell_area_mm2(),
                base.metrics.critical_delay);
    std::printf("lily:     %4zu gates, cell %7.3f mm^2, delay %7.2f ns  (%+.1f%%)\n",
                lily.metrics.gate_count, lily.metrics.cell_area_mm2(),
                lily.metrics.critical_delay,
                (lily.metrics.critical_delay / base.metrics.critical_delay - 1.0) * 100.0);

    // Re-run timing on the Lily result to show the critical path.
    MappedPlacementView view = make_placement_view(lily.netlist, lib);
    view.netlist.pad_positions = lily.pad_positions;  // the flow's pad ring
    TimingOptions topts;
    const TimingReport rep =
        analyze_timing(lily.netlist, lib, view, lily.final_positions, topts);
    const SlackReport slack = analyze_slack(lily.netlist, lib, rep);
    std::printf("\nslack at target %.2f ns: worst %.3f ns, %zu violations\n",
                slack.required_time, slack.worst_slack, slack.violations);
    std::printf("critical path to '%s' (%.2f ns):\n", rep.critical_output.c_str(),
                rep.critical_delay);
    for (const std::size_t i : rep.critical_path) {
        const GateInstance& inst = lily.netlist.gates[i];
        std::printf("  %-8s arrival %7.2f ns  load %5.3f pF  at (%.1f, %.1f)\n",
                    lib.gate(inst.gate).name.c_str(), rep.arrival[i].worst(), rep.load[i],
                    lily.final_positions[i].x, lily.final_positions[i].y);
    }
    return 0;
}
