// Section 3.2 remark: the CM-of-Fans update can unbalance the evolving
// placement; re-running the global placement on the partially mapped
// network every few cones restores balance. This ablation compares never
// re-placing with re-placing every 4 cones.
#include <cstdio>

#include "bench/common.hpp"
#include "circuits/benchmarks.hpp"
#include "flow/flow.hpp"
#include "library/standard_cells.hpp"

using namespace lily;

int main() {
    const Library lib = load_msu_big();
    const auto suite = paper_suite(0.5);

    std::printf("Periodic re-placement ablation (area mode, CM-of-Fans)\n");
    std::printf("%-8s | %10s %10s | %10s %10s | %7s\n", "Ex.", "none chip", "none wire",
                "re4 chip", "re4 wire", "wire%");
    bench::print_rule(70);

    bench::RatioTracker wire;
    for (const Benchmark& b : suite) {
        if (b.network.logic_node_count() > 500) continue;  // re-placement is the costly knob
        FlowOptions none;
        none.lily.replace_every_n_cones = 0;
        FlowOptions re4;
        re4.lily.replace_every_n_cones = 4;
        const FlowResult f0 = run_lily_flow_checked(b.network, lib, none).take_or_raise();
        const FlowResult f4 = run_lily_flow_checked(b.network, lib, re4).take_or_raise();
        wire.add(f4.metrics.wirelength, f0.metrics.wirelength);
        std::printf("%-8s | %10.1f %10.1f | %10.1f %10.1f | %+6.1f%%\n", b.name.c_str(),
                    f0.metrics.chip_area, f0.metrics.wirelength, f4.metrics.chip_area,
                    f4.metrics.wirelength,
                    (f4.metrics.wirelength / f0.metrics.wirelength - 1.0) * 100.0);
    }
    bench::print_rule(70);
    std::printf("geomean re-place/none wire: %+.1f%%\n", wire.percent());
    return 0;
}
