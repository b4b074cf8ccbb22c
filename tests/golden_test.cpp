// Bit-identity goldens for the StageExecutor refactor: every flow entry
// point's output (mapped BLIF + metrics) is pinned against a golden file
// generated before the pass-manager rewrite, at 1 and 8 threads. A diff
// here means the refactor changed a *result*, not just the orchestration.
//
// Regenerate (only when an intentional QoR change lands) with
//   LILY_UPDATE_GOLDENS=1 ./golden_test
// and commit the files under tests/data/golden/.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "circuits/benchmarks.hpp"
#include "flow/flow.hpp"
#include "flow/job.hpp"
#include "flow/pipeline.hpp"
#include "library/standard_cells.hpp"
#include "netlist/blif.hpp"
#include "netlist/delta.hpp"

namespace lily {
namespace {

std::string golden_dir() { return std::string(LILY_SOURCE_DIR) + "/tests/data/golden/"; }

bool update_mode() {
    const char* env = std::getenv("LILY_UPDATE_GOLDENS");
    return env != nullptr && *env != '\0' && std::string_view(env) != "0";
}

std::string format_metrics(const FlowMetrics& m) {
    char buf[256];
    std::snprintf(buf, sizeof(buf), "gates %zu\ncell_area %.17g\nchip_area %.17g\n"
                  "wirelength %.17g\ncritical_delay %.17g\nmax_congestion %.17g\n",
                  m.gate_count, m.cell_area, m.chip_area, m.wirelength, m.critical_delay,
                  m.max_congestion);
    return buf;
}

std::string render(const FlowMetrics& metrics, const std::string& blif) {
    return format_metrics(metrics) + "---blif---\n" + blif;
}

/// Compare against (or, in update mode, rewrite) tests/data/golden/<name>.
/// Missing goldens skip rather than fail so a fresh checkout without the
/// data still builds green; CI ships the files.
void check_golden(const std::string& name, const std::string& actual) {
    const std::string path = golden_dir() + name;
    if (update_mode()) {
        std::ofstream out(path, std::ios::binary);
        ASSERT_TRUE(out.good()) << "cannot write " << path;
        out << actual;
        return;
    }
    std::ifstream in(path, std::ios::binary);
    if (!in) GTEST_SKIP() << "golden missing: " << path << " (set LILY_UPDATE_GOLDENS=1)";
    std::ostringstream buf;
    buf << in.rdbuf();
    EXPECT_EQ(buf.str(), actual) << "output diverged from pre-refactor golden " << name;
}

FlowOptions options_with_threads(std::size_t threads) {
    FlowOptions opts;
    opts.check = CheckLevel::Off;
    opts.verify = VerifyLevel::Off;
    opts.budget.total_ms = 0.0;  // unlimited: budgets must not perturb goldens
    opts.threads = threads;
    return opts;
}

class GoldenFlow : public ::testing::TestWithParam<std::size_t> {};

TEST_P(GoldenFlow, BaselineBatch) {
    const Library lib = load_msu_big();
    const Network net = make_priority_controller(10);
    const FlowResult res =
        run_baseline_flow(net, lib, options_with_threads(GetParam()));
    check_golden("baseline_prio10.txt",
                 render(res.metrics, write_blif(res.netlist.to_network(lib, "golden"))));
}

TEST_P(GoldenFlow, LilyBatch) {
    const Library lib = load_msu_big();
    const Network net = make_priority_controller(10);
    const FlowResult res = run_lily_flow(net, lib, options_with_threads(GetParam()));
    check_golden("lily_prio10.txt",
                 render(res.metrics, write_blif(res.netlist.to_network(lib, "golden"))));
}

TEST_P(GoldenFlow, LilyBatchDelayObjective) {
    const Library lib = load_msu_big();
    const Network net = make_alu(5, false);
    FlowOptions opts = options_with_threads(GetParam());
    opts.objective = MapObjective::Delay;
    const FlowResult res = run_lily_flow(net, lib, opts);
    check_golden("lily_alu5_delay.txt",
                 render(res.metrics, write_blif(res.netlist.to_network(lib, "golden"))));
}

TEST_P(GoldenFlow, EcoAfterLocalDelta) {
    const Library lib = load_msu_big();
    const Network net = make_priority_controller(10);
    StatusOr<PipelineState> built =
        build_pipeline(net, lib, options_with_threads(GetParam()));
    ASSERT_TRUE(built.is_ok()) << built.status().to_string();
    PipelineState state = std::move(built).value();
    const NetDelta delta = local_delta(state.net, 3, 0xEC0);
    const StatusOr<EcoStats> eco = run_eco_flow_checked(state, delta);
    ASSERT_TRUE(eco.is_ok()) << eco.status().to_string();
    check_golden("eco_prio10_d3.txt",
                 render(state.flow.metrics,
                        write_blif(state.flow.netlist.to_network(lib, "golden"))));
}

TEST_P(GoldenFlow, ServedJob) {
    // The serving layer's unit of work, run in-process: what a warm worker
    // executes per dispatched job must keep producing these exact bytes.
    std::ifstream genlib_in(std::string(LILY_SOURCE_DIR) + "/lib/msu_tiny.genlib",
                            std::ios::binary);
    ASSERT_TRUE(genlib_in.good());
    std::ostringstream genlib_buf;
    genlib_buf << genlib_in.rdbuf();

    JobSpec spec;
    spec.name = "golden";
    spec.blif = write_blif(make_alu(4, false));
    spec.genlib = genlib_buf.str();
    spec.options.kind = FlowKind::Lily;
    spec.options.threads = static_cast<std::uint32_t>(GetParam());
    const JobOutcome out = run_flow_job(spec);
    ASSERT_EQ(out.state, JobState::Ok) << out.status_message;
    check_golden("job_alu4.txt", render(out.metrics, out.mapped_blif));
}

INSTANTIATE_TEST_SUITE_P(Threads, GoldenFlow, ::testing::Values(std::size_t{1},
                                                                std::size_t{8}),
                         [](const ::testing::TestParamInfo<std::size_t>& info) {
                             return "t" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace lily
