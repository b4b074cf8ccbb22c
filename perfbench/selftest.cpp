// Self-test of the benchmark's own measurement helpers (bench_util.hpp) and
// of the output check it relies on: the tail-percentile rule, the geomean,
// span self time, fail_ratio accounting with a deliberately failing item,
// seed derivation and the seeded inputs (inputs.hpp), and that a corrupted
// mapping is caught by the random-simulation comparison the benchmark
// applies to every item.
//
// Exit 0 when every check holds; otherwise prints each failure and exits 1.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "check/mapped_checker.hpp"
#include "circuits/benchmarks.hpp"
#include "inputs.hpp"
#include "library/standard_cells.hpp"
#include "map/base_mapper.hpp"
#include "netlist/blif.hpp"
#include "netlist/simulate.hpp"
#include "subject/decompose.hpp"

namespace {

int failures = 0;

void expect(bool cond, const char* what) {
    if (!cond) {
        std::printf("FAIL: %s\n", what);
        ++failures;
    }
}

bool near(double a, double b) { return std::fabs(a - b) <= 1e-9 * std::max(1.0, std::fabs(b)); }

void test_percentiles() {
    using perfbench::percentile;
    using perfbench::tail_percentile;
    expect(near(perfbench::median({3.0, 1.0, 2.0}), 2.0), "median of odd count");
    expect(near(perfbench::median({4.0, 1.0, 2.0, 3.0}), 2.5), "median of even count");
    expect(near(percentile({0.0, 10.0}, 90.0), 9.0), "linear interpolation");
    expect(std::isnan(perfbench::median({})), "median of nothing is NaN");
    // Highest percentile with at least ten samples beyond it.
    expect(!tail_percentile(0).has_value(), "no tail for 0 samples");
    expect(!tail_percentile(99).has_value(), "99 samples leave 9.9 beyond p90");
    expect(tail_percentile(100) == 90.0, "100 samples report p90");
    expect(tail_percentile(999) == 90.0, "999 samples leave 9.99 beyond p99");
    expect(tail_percentile(1000) == 99.0, "1000 samples report p99");
    expect(tail_percentile(10000) == 99.9, "10000 samples report p99.9");
}

void test_geomean() {
    expect(near(perfbench::geomean({2.0, 8.0}), 4.0), "geomean of 2 and 8");
    expect(near(perfbench::geomean({5.0}), 5.0), "geomean of one value");
    expect(std::isnan(perfbench::geomean({1.0, 0.0})), "zero QoR poisons the geomean");
    expect(std::isnan(perfbench::geomean({})), "geomean of nothing is NaN");
}

void test_self_time() {
    perfbench::SpanLog log;
    const auto span = [&](const char* name, std::int64_t a, std::int64_t b, std::size_t parent) {
        perfbench::Span s;
        s.name = name;
        s.start_ns = a * 1'000'000;
        s.end_ns = b * 1'000'000;
        s.parent = parent;
        return log.add(s);
    };
    const std::size_t root = span("pass", 0, 100, perfbench::Span::npos);
    const std::size_t item = span("item", 10, 90, root);
    span("subject.decompose", 10, 30, item);
    const std::size_t map = span("lily.map", 30, 80, item);
    span("lily.map", 40, 45, map);  // a nested call of the same layer
    const std::vector<double> self = log.self_ms();
    expect(near(self[root], 20.0), "root self = 100 - 80");
    expect(near(self[item], 10.0), "item self = 80 - 20 - 50");
    expect(near(self[map], 45.0), "map self = 50 - 5");
    double total = 0.0;
    for (const double s : self) total += s;
    expect(near(total, 100.0), "self times sum to the root duration");
    const auto by_name = log.self_ms_by_name();
    expect(near(by_name.at("lily.map"), 50.0), "self time summed per name");

    perfbench::SpanLog live;
    const std::size_t outer = live.begin("outer", 0);
    const std::size_t inner = live.begin("inner", 0);
    expect(live.spans()[inner].parent == outer, "begin nests under the open span");
    live.end(inner);
    live.end(outer);
    expect(live.all_closed(), "all spans closed");
}

void test_fail_ledger() {
    perfbench::FailLedger ledger;
    ledger.record(true, "a");
    ledger.record(false, "b", "deliberate failure");
    ledger.record(true, "c");
    ledger.record(true, "d");
    expect(ledger.attempted() == 4, "every item counted as attempted");
    expect(ledger.failed() == 1, "the failing item counted once");
    expect(near(ledger.fail_ratio(), 0.25), "fail_ratio = failed / attempted");
    expect(ledger.reasons().size() == 1 && ledger.reasons()[0] == "b: deliberate failure",
           "failure reason kept");
    expect(perfbench::FailLedger{}.fail_ratio() == 0.0, "empty ledger has ratio 0");
}

void test_seeds() {
    expect(perfbench::mix_seed(0xA6, 0) == 0xA6, "seed 0 keeps the committed seed");
    expect(perfbench::mix_seed(0xA6, 1) != perfbench::mix_seed(0xA6, 2), "seeds differ");
    expect(perfbench::mix_seed(0xA6, 7) == perfbench::mix_seed(0xA6, 7), "seeds are stable");
}

/// Seed 0 reproduces the committed circuits; other seeds give repeatable,
/// distinct variants of the same size.
void test_seeded_inputs() {
    using lily::write_blif;
    const std::vector<lily::Benchmark> committed = lily::paper_suite(0.25);
    const std::vector<lily::Benchmark> zero = perfbench::seeded_suite(0.25, 0);
    const std::vector<lily::Benchmark> three = perfbench::seeded_suite(0.25, 3);
    const std::vector<lily::Benchmark> again = perfbench::seeded_suite(0.25, 3);
    const std::vector<lily::Benchmark> four = perfbench::seeded_suite(0.25, 4);
    for (const auto& [name, base] : perfbench::seeded_members()) {
        const bool member = std::any_of(committed.begin(), committed.end(),
                                        [&](const lily::Benchmark& b) { return b.name == name; });
        expect(member, ("seeded member " + name + " is in paper_suite").c_str());
    }
    bool same0 = true, repeat = true, differs = false, sized = true;
    for (std::size_t i = 0; i < committed.size(); ++i) {
        const std::string ref = write_blif(committed[i].network);
        same0 = same0 && write_blif(zero[i].network) == ref;
        repeat = repeat && write_blif(three[i].network) == write_blif(again[i].network);
        const bool seeded = perfbench::seeded_members().count(committed[i].name) != 0;
        const bool changed = write_blif(three[i].network) != write_blif(four[i].network);
        // A small seeded member may draw no applicable edit; an unseeded
        // one must never change.
        expect(seeded || !changed,
               ("only seeded members follow the seed: " + committed[i].name).c_str());
        differs = differs || changed;
        const double n0 = static_cast<double>(committed[i].network.logic_node_count());
        const double n3 = static_cast<double>(three[i].network.logic_node_count());
        sized = sized && std::fabs(n3 - n0) <= 0.1 * n0 + 2.0;
    }
    expect(same0, "seed 0 reproduces paper_suite");
    expect(repeat, "a seed gives the same circuits every time");
    expect(differs, "two seeds give different circuits");
    expect(sized, "seeded variants keep the committed size");
    expect(write_blif(perfbench::eco_stream_circuit(5)) !=
               write_blif(perfbench::eco_stream_circuit(6)),
           "eco_stream circuit follows the seed");
}

/// The benchmark's output check must catch a wrong mapping: corrupt one
/// gate of a correct cover and expect the simulation comparison to fail.
void test_check_catches_wrong_cover() {
    using namespace lily;
    const Library lib = load_msu_big();
    const Network net = make_alu(4, false);
    const DecomposeResult sub = decompose(net);
    MapResult mapped = BaseMapper(lib).map(sub.graph);
    expect(equivalent_random(net, mapped.netlist.to_network(lib), 16, 0xC0FFEE),
           "a correct mapping passes the check");
    expect(inject_wrong_cover(mapped.netlist, lib), "corruption applied");
    expect(!equivalent_random(net, mapped.netlist.to_network(lib), 16, 0xC0FFEE),
           "a corrupted mapping fails the check");
}

}  // namespace

int main() {
    test_percentiles();
    test_geomean();
    test_self_time();
    test_fail_ledger();
    test_seeds();
    test_seeded_inputs();
    test_check_catches_wrong_cover();
    if (failures != 0) {
        std::printf("%d check(s) failed\n", failures);
        return 1;
    }
    std::printf("perfbench selftest: all checks passed\n");
    return 0;
}
