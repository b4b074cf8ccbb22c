// Seeded inputs of the flow benchmark. Seed 0 gives the committed circuits
// (paper_suite and fixed-seed control logic); any other seed gives seeded
// variants of them, so every workload's inputs come from --seed alone.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "bench_util.hpp"
#include "circuits/benchmarks.hpp"
#include "netlist/delta.hpp"

namespace perfbench {

using lily::Benchmark;
using lily::DeltaOp;
using lily::NetDelta;
using lily::Network;

/// Share of a circuit's logic nodes a nonzero seed rewrites.
inline constexpr double kRewriteFraction = 0.01;

/// The seeded variant of a committed circuit. Seed 0 returns `net`
/// unchanged. Any other seed draws a local_delta over 1% of the logic nodes
/// (targets with a small transitive fanout) and applies only its refunction
/// edits, about half of them: those nodes get new functions over their
/// existing fanins. The wiring stays, so every seed yields a different
/// circuit of the same size and shape, and runs under different seeds do
/// comparable work.
inline Network seeded_variant(Network net, std::uint64_t base, std::uint64_t seed) {
    if (seed == 0) return net;
    const double nodes = static_cast<double>(net.logic_node_count());
    const std::size_t edits =
        std::max<std::size_t>(1, static_cast<std::size_t>(std::llround(kRewriteFraction * nodes)));
    NetDelta rewrite;
    for (DeltaOp& op : lily::local_delta(net, edits, mix_seed(base, seed)).ops) {
        // A refunction sized for a rewire we drop must fit the node's
        // current fanins exactly.
        const auto* re = std::get_if<DeltaOp::Refunction>(&op.op);
        if (re != nullptr && re->function.max_fanin_index() == net.node(re->node).fanins.size()) {
            rewrite.ops.push_back(std::move(op));
        }
    }
    if (!net.apply_delta(rewrite).is_ok()) {
        throw std::runtime_error("seeded rewrite does not apply");
    }
    return net;
}

/// The paper_suite members built by random generators (control logic and
/// PLA blocks), with the generator seed paper_suite gives each. The
/// self-test checks that every name is a member of paper_suite.
inline const std::map<std::string, std::uint64_t>& seeded_members() {
    static const std::map<std::string, std::uint64_t> members = {
        {"apex6", 0xA6}, {"apex7", 0xA7}, {"b9", 0xB9},     {"apex3", 0xA3},
        {"duke2", 0xD2}, {"e64", 0xE6},   {"misex1", 0x31}, {"misex3", 0x33}};
    return members;
}

/// The Table 1 suite at `scale`, its seeded members replaced by their
/// seeded variants; seed 0 reproduces paper_suite(scale) exactly.
inline std::vector<Benchmark> seeded_suite(double scale, std::uint64_t seed) {
    std::vector<Benchmark> suite = lily::paper_suite(scale);
    for (Benchmark& b : suite) {
        const auto it = seeded_members().find(b.name);
        if (it != seeded_members().end()) {
            b.network = seeded_variant(std::move(b.network), it->second, seed);
        }
    }
    return suite;
}

/// large_area's circuit: ~6400-gate control logic.
inline Network large_area_circuit(std::uint64_t seed) {
    constexpr unsigned kGates = 6400;
    constexpr std::uint64_t kBase = 0x1A96E;
    return seeded_variant(
        lily::make_control_logic(kGates / 8 + 8, kGates / 16 + 4, kGates, kBase, "large_area"),
        kBase, seed);
}

/// eco_stream's circuit: ~1200-gate control logic (eco_scaling's shape).
inline Network eco_stream_circuit(std::uint64_t seed) {
    constexpr unsigned kGates = 1200;
    constexpr std::uint64_t kBase = 0x5EED;
    return seeded_variant(
        lily::make_control_logic(kGates / 8 + 8, kGates / 16 + 4, kGates, kBase, "eco_stream"),
        kBase, seed);
}

}  // namespace perfbench
