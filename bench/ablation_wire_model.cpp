// Section 3.4 design choice: Steiner-ratio-corrected half perimeter vs
// rectilinear spanning tree as the per-net wire estimator inside the
// mapper's cost function.
#include <cstdio>

#include "bench/common.hpp"
#include "circuits/benchmarks.hpp"
#include "flow/flow.hpp"
#include "library/standard_cells.hpp"

using namespace lily;

int main() {
    const Library lib = load_msu_big();
    const auto suite = paper_suite(0.5);

    std::printf("Wire-model ablation: Steiner-HPWL vs spanning tree (area mode)\n");
    std::printf("%-8s | %10s %10s | %10s %10s | %7s\n", "Ex.", "HP chip", "HP wire",
                "MST chip", "MST wire", "wire%");
    bench::print_rule(70);

    bench::RatioTracker wire;
    for (const Benchmark& b : suite) {
        if (b.network.logic_node_count() > 800) continue;
        FlowOptions hp;
        hp.lily.wire_model = WireModel::SteinerHpwl;
        FlowOptions mst;
        mst.lily.wire_model = WireModel::SpanningTree;
        const FlowResult fh = run_lily_flow_checked(b.network, lib, hp).take_or_raise();
        const FlowResult fm = run_lily_flow_checked(b.network, lib, mst).take_or_raise();
        wire.add(fm.metrics.wirelength, fh.metrics.wirelength);
        std::printf("%-8s | %10.1f %10.1f | %10.1f %10.1f | %+6.1f%%\n", b.name.c_str(),
                    fh.metrics.chip_area, fh.metrics.wirelength, fm.metrics.chip_area,
                    fm.metrics.wirelength,
                    (fm.metrics.wirelength / fh.metrics.wirelength - 1.0) * 100.0);
    }
    bench::print_rule(70);
    std::printf("geomean MST / Steiner-HPWL wire: %+.1f%%\n", wire.percent());
    return 0;
}
