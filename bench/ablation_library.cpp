// Section 5, opening discussion: tiny (<=3-input) vs big (<=6-input)
// library, traditional vs layout-driven mapping. The paper's claim: the
// big library shrinks active cell area but raises routing complexity, so
// its final chip area can be as large as the tiny library's; Lily with the
// big library beats both traditional flows on chip area and wire length.
#include <cstdio>

#include "bench/common.hpp"
#include "circuits/benchmarks.hpp"
#include "flow/flow.hpp"
#include "library/standard_cells.hpp"

using namespace lily;

int main() {
    const Library tiny = load_msu_tiny();
    const Library big = load_msu_big();
    const auto suite = paper_suite(0.5);

    std::printf("Library ablation: chip area / wirelength by flow and library\n");
    std::printf("%-8s | %9s %9s | %9s %9s | %9s %9s\n", "Ex.", "tiny chip", "tiny wire",
                "big chip", "big wire", "Lily chip", "Lily wire");
    bench::print_rule(72);

    bench::RatioTracker lily_vs_tiny, lily_vs_big;
    for (const Benchmark& b : suite) {
        if (b.network.logic_node_count() > 800) continue;
        const FlowResult f_tiny = run_baseline_flow_checked(b.network, tiny).take_or_raise();
        const FlowResult f_big = run_baseline_flow_checked(b.network, big).take_or_raise();
        const FlowResult f_lily = run_lily_flow_checked(b.network, big).take_or_raise();
        lily_vs_tiny.add(f_lily.metrics.chip_area, f_tiny.metrics.chip_area);
        lily_vs_big.add(f_lily.metrics.chip_area, f_big.metrics.chip_area);
        std::printf("%-8s | %9.1f %9.1f | %9.1f %9.1f | %9.1f %9.1f\n", b.name.c_str(),
                    f_tiny.metrics.chip_area, f_tiny.metrics.wirelength, f_big.metrics.chip_area,
                    f_big.metrics.wirelength, f_lily.metrics.chip_area,
                    f_lily.metrics.wirelength);
    }
    bench::print_rule(72);
    std::printf("geomean Lily(big) chip vs traditional: tiny %+.1f%%, big %+.1f%%\n",
                lily_vs_tiny.percent(), lily_vs_big.percent());
    std::printf("(paper: A_hat < min(A_tiny, A_big), W_hat < min(W_tiny, W_big))\n");
    return 0;
}
