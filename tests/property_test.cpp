// Cross-module property tests: the invariants DESIGN.md commits to,
// exercised over seeded random instances with TEST_P sweeps.
#include <gtest/gtest.h>

#include <fstream>

#include "circuits/benchmarks.hpp"
#include "flow/flow.hpp"
#include "library/standard_cells.hpp"
#include "lily/lily_mapper.hpp"
#include "map/base_mapper.hpp"
#include "match/matcher.hpp"
#include "netlist/blif.hpp"
#include "netlist/simulate.hpp"
#include "subject/decompose.hpp"
#include "util/rng.hpp"

namespace lily {
namespace {

Network random_network(std::uint64_t seed, unsigned n_pi = 8, unsigned n_gates = 60) {
    return make_control_logic(n_pi, 4, n_gates, seed, "prop" + std::to_string(seed));
}

// ---------------------------------------------------------------- matcher

/// THE matcher soundness property: for every match, the subject logic it
/// covers computes exactly the gate function of the bound inputs.
class MatcherSoundness : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MatcherSoundness, EveryMatchComputesGateFunction) {
    const Network net = random_network(GetParam());
    const DecomposeResult r = decompose(net);
    const SubjectGraph& g = r.graph;
    // Both bundled libraries: msu_tiny (13 gates) and msu_big (39 gates)
    // carry different pattern sets.
    const Library libs[] = {load_msu_tiny(), load_msu_big()};
    for (const Library& lib : libs) {
        SCOPED_TRACE(&lib == &libs[0] ? "msu_tiny" : "msu_big");
        const Matcher matcher(lib);
        for (SubjectId v = 0; v < g.size(); ++v) {
            if (g.node(v).kind == SubjectKind::Input) continue;
            const std::vector<Match> matches = matcher.matches_at(g, v);
            EXPECT_FALSE(matches.empty()) << "no match at subject node " << v;
            for (const Match& m : matches) {
                const Gate& gate = lib.gate(m.gate);
                // Distinct leaf signals get distinct variables.
                std::vector<SubjectId> distinct;
                std::vector<unsigned> pin_var(m.inputs.size());
                for (std::size_t k = 0; k < m.inputs.size(); ++k) {
                    auto it = std::find(distinct.begin(), distinct.end(), m.inputs[k]);
                    if (it == distinct.end()) {
                        pin_var[k] = static_cast<unsigned>(distinct.size());
                        distinct.push_back(m.inputs[k]);
                    } else {
                        pin_var[k] = static_cast<unsigned>(it - distinct.begin());
                    }
                }
                const unsigned n = static_cast<unsigned>(distinct.size());
                ASSERT_LE(n, 8u);

                // Evaluate the covered subject logic over the distinct leaves.
                std::unordered_map<SubjectId, TruthTable> val;
                for (unsigned i = 0; i < n; ++i) {
                    val.emplace(distinct[i], TruthTable::variable(i, n));
                }
                for (const SubjectId w : m.covered) {  // ascending = topological
                    const SubjectNode& node = g.node(w);
                    if (node.kind == SubjectKind::Inv) {
                        val.insert_or_assign(w, ~val.at(node.fanin0));
                    } else {
                        val.insert_or_assign(w, ~(val.at(node.fanin0) & val.at(node.fanin1)));
                    }
                }

                // Gate function with pins identified per the binding.
                TruthTable want(n);
                for (std::size_t minterm = 0; minterm < want.n_minterms(); ++minterm) {
                    std::uint64_t pins = 0;
                    for (std::size_t k = 0; k < m.inputs.size(); ++k) {
                        if ((minterm >> pin_var[k]) & 1) pins |= std::uint64_t{1} << k;
                    }
                    if (gate.function.get(pins)) want.set(minterm, true);
                }
                ASSERT_EQ(val.at(v), want)
                    << "gate " << gate.name << " at subject node " << v;
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MatcherSoundness, ::testing::Values(101, 102, 103, 104));

// ------------------------------------------------------------ end to end

/// Full-pipeline equivalence across the whole (scaled) paper suite, both
/// pipelines, both objectives.
class SuiteEquivalence : public ::testing::TestWithParam<MapObjective> {};

TEST_P(SuiteEquivalence, BothPipelinesPreserveFunction) {
    const Library lib = load_msu_big();
    FlowOptions opts;
    opts.objective = GetParam();
    for (const Benchmark& b : paper_suite(0.2)) {
        const FlowResult base = run_baseline_flow_checked(b.network, lib, opts).take_or_raise();
        const FlowResult lily = run_lily_flow_checked(b.network, lib, opts).take_or_raise();
        EXPECT_TRUE(equivalent_random(b.network, base.netlist.to_network(lib), 4, 7)) << b.name;
        EXPECT_TRUE(equivalent_random(b.network, lily.netlist.to_network(lib), 4, 7)) << b.name;
    }
}

INSTANTIATE_TEST_SUITE_P(Objectives, SuiteEquivalence,
                         ::testing::Values(MapObjective::Area, MapObjective::Delay),
                         [](const ::testing::TestParamInfo<MapObjective>& info) {
                             return info.param == MapObjective::Area ? "Area" : "Delay";
                         });

/// Cross matrix: decomposition shape x mapper x library, all equivalent.
struct MatrixCase {
    TreeShape shape;
    bool lily;
    bool big_lib;
};

class CrossMatrix : public ::testing::TestWithParam<MatrixCase> {};

TEST_P(CrossMatrix, MappedEquivalent) {
    const MatrixCase c = GetParam();
    const Library lib = c.big_lib ? load_msu_big() : load_msu_tiny();
    for (std::uint64_t seed = 200; seed < 204; ++seed) {
        const Network net = random_network(seed, 8, 50);
        DecomposeOptions dopts;
        dopts.shape = c.shape;
        if (c.shape == TreeShape::Proximity) {
            Rng rng(seed);
            dopts.source_positions.resize(net.node_count());
            for (auto& pt : dopts.source_positions) {
                pt = {rng.next_double(0, 50), rng.next_double(0, 50)};
            }
        }
        const DecomposeResult sub = decompose(net, dopts);
        MappedNetlist mapped;
        if (c.lily) {
            mapped = LilyMapper(lib).map_checked(sub.graph).take_or_raise().netlist;
        } else {
            mapped = BaseMapper(lib).map(sub.graph).netlist;
        }
        mapped.check(lib);
        EXPECT_TRUE(equivalent_random(net, mapped.to_network(lib), 4, seed)) << seed;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, CrossMatrix,
    ::testing::Values(MatrixCase{TreeShape::Balanced, false, true},
                      MatrixCase{TreeShape::Balanced, true, false},
                      MatrixCase{TreeShape::LeftDeep, false, false},
                      MatrixCase{TreeShape::LeftDeep, true, true},
                      MatrixCase{TreeShape::Proximity, true, true},
                      MatrixCase{TreeShape::Proximity, false, true}),
    [](const ::testing::TestParamInfo<MatrixCase>& info) {
        std::string s2 = info.param.shape == TreeShape::Balanced    ? "Balanced"
                         : info.param.shape == TreeShape::LeftDeep ? "LeftDeep"
                                                                   : "Proximity";
        s2 += info.param.lily ? "Lily" : "Base";
        s2 += info.param.big_lib ? "Big" : "Tiny";
        return s2;
    });

TEST(FlowProperties, Deterministic) {
    const Library lib = load_msu_big();
    const Network net = make_priority_controller(10);
    const FlowResult a = run_lily_flow_checked(net, lib).take_or_raise();
    const FlowResult b = run_lily_flow_checked(net, lib).take_or_raise();
    EXPECT_EQ(a.metrics.gate_count, b.metrics.gate_count);
    EXPECT_DOUBLE_EQ(a.metrics.wirelength, b.metrics.wirelength);
    EXPECT_DOUBLE_EQ(a.metrics.critical_delay, b.metrics.critical_delay);
}

TEST(FlowProperties, AdaptiveNeverWorseThanPlain) {
    const Library lib = load_msu_big();
    for (const Benchmark& b : paper_suite(0.25)) {
        if (b.network.logic_node_count() > 250) continue;
        const FlowResult base = run_baseline_flow_checked(b.network, lib).take_or_raise();
        const FlowResult plain = run_lily_flow_checked(b.network, lib).take_or_raise();
        const FlowResult tuned =
            run_lily_flow_adaptive_checked(b.network, lib, {}, base.metrics.wirelength)
                .take_or_raise();
        EXPECT_LE(tuned.metrics.wirelength, plain.metrics.wirelength + 1e-9) << b.name;
        EXPECT_TRUE(equivalent_random(b.network, tuned.netlist.to_network(lib), 4, 3))
            << b.name;
    }
}

TEST(FlowProperties, MetricsAreConsistent) {
    const Library lib = load_msu_big();
    const Network net = make_alu(6, false);
    for (const auto& res : {run_baseline_flow_checked(net, lib).take_or_raise(),
                            run_lily_flow_checked(net, lib).take_or_raise()}) {
        EXPECT_GT(res.metrics.gate_count, 0u);
        EXPECT_GT(res.metrics.cell_area, 0.0);
        EXPECT_GE(res.metrics.chip_area, res.metrics.cell_area);
        EXPECT_GT(res.metrics.wirelength, 0.0);
        EXPECT_EQ(res.final_positions.size(), res.metrics.gate_count);
        // Rows can exceed nominal capacity by at most one cell, so allow a
        // one-cell margin around the region.
        Rect grown = res.region;
        const double margin = res.region.width() * 0.05;
        grown.ll.x -= margin;
        grown.ll.y -= margin;
        grown.ur.x += margin;
        grown.ur.y += margin;
        for (const Point& p : res.final_positions) EXPECT_TRUE(grown.contains(p));
    }
}

// -------------------------------------------------------- library on disk

TEST(LibraryFiles, BundledGenlibFilesMatchEmbedded) {
    // lib/*.genlib are generated from the embedded strings; parsing them
    // must produce identical libraries (guards against drift).
    for (const auto& [path, embedded] :
         {std::pair<const char*, std::string_view>{"msu_tiny.genlib", msu_tiny_genlib()},
          {"msu_big.genlib", msu_big_genlib()}}) {
        const std::string full = std::string(LILY_SOURCE_DIR) + "/lib/" + path;
        std::ifstream in(full);
        if (!in) GTEST_SKIP() << "library file not present: " << full;
        std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
        const Library from_file = read_genlib_checked(text, path).take_or_raise();
        const Library from_mem = read_genlib_checked(embedded, path).take_or_raise();
        ASSERT_EQ(from_file.size(), from_mem.size()) << path;
        for (GateId g = 0; g < from_file.size(); ++g) {
            EXPECT_EQ(from_file.gate(g).name, from_mem.gate(g).name);
            EXPECT_DOUBLE_EQ(from_file.gate(g).area, from_mem.gate(g).area);
            EXPECT_EQ(from_file.gate(g).function, from_mem.gate(g).function);
        }
    }
}

TEST(BlifFiles, DiskRoundTrip) {
    const Network net = make_priority_controller(9);
    const std::string path = ::testing::TempDir() + "/lily_roundtrip.blif";
    write_blif_file(net, path);
    const Network back = read_blif_file(path);
    EXPECT_TRUE(equivalent_random(net, back, 8, 13));
    EXPECT_THROW(read_blif_file(path + ".missing"), std::runtime_error);
}

TEST(BlifFiles, MappedNetlistRoundTrip) {
    // Map, dump as BLIF, re-read, re-map: the full downstream-user loop.
    const Library lib = load_msu_big();
    const Network net = make_alu(4, false);
    const DecomposeResult sub = decompose(net);
    const LilyResult res = LilyMapper(lib).map_checked(sub.graph).take_or_raise();
    const std::string path = ::testing::TempDir() + "/lily_mapped.blif";
    write_blif_file(res.netlist.to_network(lib, "mapped"), path);
    const Network back = read_blif_file(path);
    EXPECT_TRUE(equivalent_random(net, back, 8, 17));
    const DecomposeResult sub2 = decompose(back);
    const LilyResult res2 = LilyMapper(lib).map_checked(sub2.graph).take_or_raise();
    EXPECT_TRUE(equivalent_random(net, res2.netlist.to_network(lib), 8, 19));
}

}  // namespace
}  // namespace lily
