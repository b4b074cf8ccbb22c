// Section 3.5 design choice: processing logic cones in the exit-line
// minimizing order vs primary output declaration order. Also reports the
// ordering objective itself (forward references into unmapped cones).
#include <cstdio>

#include "bench/common.hpp"
#include "circuits/benchmarks.hpp"
#include "flow/flow.hpp"
#include "library/standard_cells.hpp"
#include "subject/cones.hpp"
#include "subject/decompose.hpp"

using namespace lily;

int main() {
    const Library lib = load_msu_big();
    const auto suite = paper_suite(0.5);

    std::printf("Cone-ordering ablation (area mode)\n");
    std::printf("%-8s | %8s %8s | %10s %10s | %7s\n", "Ex.", "fwd id", "fwd ord",
                "id wire", "ord wire", "wire%");
    bench::print_rule(66);

    bench::RatioTracker wire;
    for (const Benchmark& b : suite) {
        if (b.network.logic_node_count() > 800) continue;
        const DecomposeResult sub = decompose(b.network);
        const ConePartition cones = partition_cones(sub.graph);
        const auto matrix = exit_line_matrix(sub.graph, cones);
        std::vector<std::size_t> identity(cones.size());
        for (std::size_t i = 0; i < identity.size(); ++i) identity[i] = i;
        const auto ordered = order_cones(sub.graph, cones);
        const std::size_t fwd_id = ordering_cost(matrix, identity);
        const std::size_t fwd_ord = ordering_cost(matrix, ordered);

        FlowOptions with;
        with.lily.order_cones = true;
        FlowOptions without;
        without.lily.order_cones = false;
        const FlowResult f_with = run_lily_flow(b.network, lib, with);
        const FlowResult f_without = run_lily_flow(b.network, lib, without);
        wire.add(f_with.metrics.wirelength, f_without.metrics.wirelength);
        std::printf("%-8s | %8zu %8zu | %10.1f %10.1f | %+6.1f%%\n", b.name.c_str(), fwd_id,
                    fwd_ord, f_without.metrics.wirelength, f_with.metrics.wirelength,
                    (f_with.metrics.wirelength / f_without.metrics.wirelength - 1.0) * 100.0);
    }
    bench::print_rule(66);
    std::printf("geomean ordered/unordered wire: %+.1f%% (forward references never rise)\n",
                wire.percent());
    return 0;
}
