// Subject-graph construction ablation: the paper-era (MIS-style) NAND2/INV
// decomposition retains inverter pairs around complemented sub-expressions;
// a modern construction folds INV(INV(x)) = x during structural hashing.
// Folding shrinks BOTH flows' absolute results dramatically — and narrows
// Lily's relative advantage, because leaner subject graphs leave the
// mapper fewer interconnect-relevant choices. The reproduction tables use
// the period-accurate construction; this bench quantifies the difference.
#include <cstdio>

#include "bench/common.hpp"
#include "circuits/benchmarks.hpp"
#include "flow/flow.hpp"
#include "library/standard_cells.hpp"

using namespace lily;

int main() {
    const Library lib = load_msu_big();
    const auto suite = paper_suite(0.5);

    std::printf("Subject-graph cleanup ablation (area mode, INV-pair folding)\n");
    std::printf("%-8s | %9s %9s %7s | %9s %9s %7s\n", "Ex.", "MIS chip", "Lily chip",
                "Lily%", "MIS chip", "Lily chip", "Lily%");
    std::printf("%-8s | %27s | %27s\n", "", "paper-era subject graph", "folded INV pairs");
    bench::print_rule(70);

    bench::RatioTracker kept_gap, folded_gap, absolute;
    for (const Benchmark& b : suite) {
        if (b.network.logic_node_count() > 800) continue;
        FlowOptions kept;  // default: cancel_inverter_pairs = false
        FlowOptions folded;
        folded.decompose.cancel_inverter_pairs = true;
        const FlowResult kb = run_baseline_flow_checked(b.network, lib, kept).take_or_raise();
        const FlowResult kl = run_lily_flow_checked(b.network, lib, kept).take_or_raise();
        const FlowResult fb = run_baseline_flow_checked(b.network, lib, folded).take_or_raise();
        const FlowResult fl = run_lily_flow_checked(b.network, lib, folded).take_or_raise();
        kept_gap.add(kl.metrics.chip_area, kb.metrics.chip_area);
        folded_gap.add(fl.metrics.chip_area, fb.metrics.chip_area);
        absolute.add(fb.metrics.chip_area, kb.metrics.chip_area);
        std::printf("%-8s | %9.1f %9.1f %+6.1f%% | %9.1f %9.1f %+6.1f%%\n", b.name.c_str(),
                    kb.metrics.chip_area, kl.metrics.chip_area,
                    (kl.metrics.chip_area / kb.metrics.chip_area - 1.0) * 100.0,
                    fb.metrics.chip_area, fl.metrics.chip_area,
                    (fl.metrics.chip_area / fb.metrics.chip_area - 1.0) * 100.0);
    }
    bench::print_rule(70);
    std::printf("geomean Lily-vs-MIS chip gap: paper-era %+.1f%%, folded %+.1f%%\n",
                kept_gap.percent(), folded_gap.percent());
    std::printf("geomean absolute baseline-chip change from folding: %+.1f%%\n",
                absolute.percent());
    std::printf("finding: folding improves every absolute number but shrinks the\n"
                "relative layout-driven advantage the paper measures.\n");
    return 0;
}
