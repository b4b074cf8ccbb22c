// Serving-layer throughput bench: spawns real lily_serve daemons and
// measures, at 1/4/8 worker slots in BOTH pool modes,
//   * batch throughput (jobs/sec over a submitted-then-drained batch),
//   * closed-loop round-trip latency (p50/p99 over sequential map calls),
//   * shed rate under a 2x-capacity overload burst,
// and gates on bit-identity: every served mapped BLIF must equal the
// in-process run_flow_job output for the same spec byte for byte (the PR 3
// determinism guarantee extended across the process boundary).
//
// The two pool modes are an A/B of pool vs fork per job: `cold` runs the
// daemon with --recycle-after=1, retiring every worker after one job (a
// fork per job), while `warm` reuses its preforked workers. Every job
// parses its own inputs in both modes. The report carries both so the
// speedup is measured, not asserted.
//
//   serve_throughput [--out=BENCH_serve.json] [--quick]
//                    [--baseline=FILE] [--gate-ratio=R]
//
// With --baseline, the measured warm 8-worker jobs/s must be at least
// R (default 0.8) times the baseline file's warm_jobs_per_sec_8 —
// a regression gate that tolerates machine-to-machine noise.
//
// Exit 0 iff every served output was bit-identical, the overload burst
// shed at least one job at every slot count, and the baseline gate (when
// requested) passed.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "circuits/benchmarks.hpp"
#include "netlist/blif.hpp"
#include "serve/client.hpp"
#include "util/json.hpp"
#include "util/subprocess.hpp"

namespace {

using namespace lily;

double now_ms() {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double percentile(std::vector<double> values, double p) {
    if (values.empty()) return 0.0;
    std::sort(values.begin(), values.end());
    const double rank = p * static_cast<double>(values.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(rank);
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return values[lo] * (1.0 - frac) + values[hi] * frac;
}

struct SlotResult {
    std::string mode;  // "warm" or "cold"
    std::uint32_t workers = 0;
    std::uint32_t batch_jobs = 0;
    double batch_ms = 0.0;
    double jobs_per_sec = 0.0;
    double p50_ms = 0.0;
    double p99_ms = 0.0;
    std::uint32_t overload_submits = 0;
    std::uint32_t overload_shed = 0;
    double shed_rate = 0.0;
    bool bit_identical = false;
};

struct BenchInputs {
    std::vector<std::pair<std::string, std::string>> circuits;
    std::vector<std::string> reference;  // in-process mapped BLIF per circuit
    std::string genlib;
    std::uint32_t batch_n = 48;
    std::uint32_t latency_n = 24;
    std::uint32_t queue_cap = 16;
};

std::string read_genlib_text() {
    // The bench runs from anywhere; the library ships with the repo and the
    // binary embeds the source path at compile time via the circuits dep.
    std::ifstream in(std::string(LILY_SOURCE_DIR) + "/lib/msu_tiny.genlib",
                     std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

/// Minimal extraction of `"key": <number>` from a flat JSON file. Returns
/// false when the key is absent.
bool json_lookup(const std::string& text, const std::string& key, double& out) {
    const std::string needle = "\"" + key + "\"";
    const std::size_t at = text.find(needle);
    if (at == std::string::npos) return false;
    const std::size_t colon = text.find(':', at + needle.size());
    if (colon == std::string::npos) return false;
    out = std::strtod(text.c_str() + colon + 1, nullptr);
    return true;
}

/// Run the full measurement ladder against one daemon configuration.
/// Returns false on a transport-level failure (spawn, submit, wait).
bool measure(const BenchInputs& in, const std::string& dir, const std::string& mode,
             std::uint32_t workers, SlotResult& row) {
    const std::string tag = mode + "-" + std::to_string(workers);
    const std::string socket = dir + "/serve-" + tag + ".sock";
    const std::string spool = dir + "/spool-" + tag;
    std::vector<std::string> daemon_argv = {
        LILY_SERVE_BIN,
        "--socket=" + socket,
        "--spool=" + spool,
        "--workers=" + std::to_string(workers),
        "--queue-cap=" + std::to_string(in.queue_cap),
    };
    // A cold pool is a fresh worker for every job.
    if (mode == "cold") daemon_argv.push_back("--recycle-after=1");
    StatusOr<pid_t> spawned = spawn_process(daemon_argv, dir + "/server-" + tag + ".log");
    if (!spawned.is_ok()) {
        std::fprintf(stderr, "serve_throughput: spawn failed: %s\n",
                     spawned.status().to_string().c_str());
        return false;
    }
    const pid_t pid = spawned.value();
    ServeClient client(socket);
    for (int i = 0; i < 200 && !client.health().is_ok(); ++i) {
        std::this_thread::sleep_for(std::chrono::milliseconds(25));
    }

    row.mode = mode;
    row.workers = workers;
    row.batch_jobs = in.batch_n;
    row.bit_identical = true;

    // Phase 1: bit-identity gate (also warms the pool).
    for (std::size_t c = 0; c < in.circuits.size(); ++c) {
        JobSpec spec;
        spec.name = in.circuits[c].first;
        spec.blif = in.circuits[c].second;
        spec.genlib = in.genlib;
        const StatusOr<JobOutcome> served = client.map(spec);
        if (!served.is_ok() || served.value().mapped_blif != in.reference[c]) {
            row.bit_identical = false;
            std::fprintf(stderr,
                         "serve_throughput: served output for %s (%s, %u workers) is "
                         "NOT bit-identical to in-process flow\n",
                         in.circuits[c].first.c_str(), mode.c_str(), workers);
        }
    }

    // Phase 2: batch throughput — submit everything, then drain.
    const double batch_start = now_ms();
    std::vector<std::uint64_t> ids;
    for (std::uint32_t i = 0; i < in.batch_n; ++i) {
        JobSpec spec;
        spec.name = "batch-" + std::to_string(i);
        spec.blif = in.circuits[i % in.circuits.size()].second;
        spec.genlib = in.genlib;
        for (;;) {
            const StatusOr<SubmitReply> reply = client.submit(spec);
            if (!reply.is_ok()) {
                std::fprintf(stderr, "serve_throughput: submit failed: %s\n",
                             reply.status().to_string().c_str());
                return false;
            }
            if (reply.value().accepted) {
                ids.push_back(reply.value().job_id);
                break;
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(
                std::max<std::uint32_t>(reply.value().retry_after_ms, 5)));
        }
    }
    for (const std::uint64_t id : ids) {
        for (;;) {
            const StatusOr<ResultReply> reply = client.wait(id, 2000);
            if (!reply.is_ok()) {
                std::fprintf(stderr, "serve_throughput: wait failed: %s\n",
                             reply.status().to_string().c_str());
                return false;
            }
            if (reply.value().terminal) break;
        }
    }
    row.batch_ms = now_ms() - batch_start;
    row.jobs_per_sec = 1000.0 * in.batch_n / row.batch_ms;

    // Phase 3: closed-loop latency distribution.
    std::vector<double> latencies;
    for (std::uint32_t i = 0; i < in.latency_n; ++i) {
        JobSpec spec;
        spec.name = "lat-" + std::to_string(i);
        spec.blif = in.circuits[i % in.circuits.size()].second;
        spec.genlib = in.genlib;
        const double t0 = now_ms();
        const StatusOr<JobOutcome> outcome = client.map(spec);
        if (outcome.is_ok()) latencies.push_back(now_ms() - t0);
    }
    row.p50_ms = percentile(latencies, 0.50);
    row.p99_ms = percentile(latencies, 0.99);

    // Phase 4: 2x overload burst. A sequential submitter cannot outrun
    // many fast workers, so first wedge every slot with an injected
    // hang job; the burst then races only the queue, and submitting 2x
    // its capacity must shed (never hang, never crash).
    for (std::uint32_t i = 0; i < workers; ++i) {
        JobSpec spec;
        spec.name = "wedge-" + std::to_string(i);
        spec.blif = in.circuits[0].second;
        spec.genlib = in.genlib;
        spec.fault_spec = "serve:hang-sticky";
        (void)client.submit(spec);
    }
    for (int i = 0; i < 200; ++i) {
        const StatusOr<HealthReply> h = client.health();
        if (h.is_ok() && h.value().workers_busy == workers) break;
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    const std::uint32_t burst = 2 * in.queue_cap;
    for (std::uint32_t i = 0; i < burst; ++i) {
        JobSpec spec;
        spec.name = "burst-" + std::to_string(i);
        spec.blif = in.circuits[i % in.circuits.size()].second;
        spec.genlib = in.genlib;
        const StatusOr<SubmitReply> reply = client.submit(spec);
        if (!reply.is_ok()) break;
        ++row.overload_submits;
        if (!reply.value().accepted) ++row.overload_shed;
    }
    row.shed_rate = row.overload_submits == 0
                        ? 0.0
                        : static_cast<double>(row.overload_shed) / row.overload_submits;

    (void)client.shutdown(/*drain=*/false);
    stop_process(pid, 4000.0);

    std::fprintf(stderr,
                 "serve_throughput: %s %u workers: %.1f jobs/s, p50 %.1fms p99 %.1fms, "
                 "shed %u/%u (%.0f%%), bit-identical=%s\n",
                 mode.c_str(), workers, row.jobs_per_sec, row.p50_ms, row.p99_ms,
                 row.overload_shed, row.overload_submits, 100.0 * row.shed_rate,
                 row.bit_identical ? "yes" : "NO");
    return true;
}

}  // namespace

int main(int argc, char** argv) {
    std::string out_path = "BENCH_serve.json";
    std::string baseline_path;
    double gate_ratio = 0.8;
    bool quick = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.rfind("--out=", 0) == 0) {
            out_path = arg.substr(6);
        } else if (arg.rfind("--baseline=", 0) == 0) {
            baseline_path = arg.substr(11);
        } else if (arg.rfind("--gate-ratio=", 0) == 0) {
            gate_ratio = std::strtod(arg.c_str() + 13, nullptr);
        } else if (arg == "--quick") {
            quick = true;
        } else {
            std::fprintf(stderr, "serve_throughput: bad argument '%s'\n", arg.c_str());
            return 2;
        }
    }

    char tmpl[] = "/tmp/lily-bench-XXXXXX";
    if (::mkdtemp(tmpl) == nullptr) {
        std::perror("mkdtemp");
        return 2;
    }
    const std::string dir = tmpl;

    BenchInputs in;
    in.genlib = read_genlib_text();
    in.circuits = {
        {"alu4", write_blif(make_alu(4))},
        {"sym9", write_blif(make_symmetric9())},
        {"ctl", write_blif(make_control_logic(12, 6, 60, 7, "ctl"))},
    };
    in.batch_n = quick ? 12 : 48;
    in.latency_n = quick ? 8 : 24;
    in.queue_cap = 16;

    // Reference outputs computed once, in-process, per circuit.
    for (const auto& [name, blif] : in.circuits) {
        JobSpec spec;
        spec.name = name;
        spec.blif = blif;
        spec.genlib = in.genlib;
        in.reference.push_back(run_flow_job(spec).mapped_blif);
    }

    const std::vector<std::uint32_t> slot_counts = {1, 4, 8};
    std::vector<SlotResult> results;
    bool all_identical = true;
    bool all_shed = true;
    double warm8 = 0.0, cold8 = 0.0, warm8_p50 = 0.0;

    // Cold first so the warm numbers cannot ride any OS-level cache warmth
    // the cold pass created — if anything this biases against warm.
    for (const std::string mode : {"cold", "warm"}) {
        for (const std::uint32_t workers : slot_counts) {
            SlotResult row;
            if (!measure(in, dir, mode, workers, row)) return 1;
            all_identical = all_identical && row.bit_identical;
            all_shed = all_shed && row.overload_shed > 0;
            if (workers == 8 && mode == "warm") {
                warm8 = row.jobs_per_sec;
                warm8_p50 = row.p50_ms;
            }
            if (workers == 8 && mode == "cold") cold8 = row.jobs_per_sec;
            results.push_back(std::move(row));
        }
    }

    JsonWriter w;
    w.begin_object();
    w.key("bench");
    w.value("serve_throughput");
    w.kv("batch_jobs", static_cast<std::uint64_t>(in.batch_n));
    w.kv("queue_capacity", static_cast<std::uint64_t>(in.queue_cap));
    w.kv("all_bit_identical", all_identical);
    w.kv("warm_jobs_per_sec_8", warm8);
    w.kv("cold_jobs_per_sec_8", cold8);
    w.kv("warm_p50_ms_8", warm8_p50);
    w.kv("warm_over_cold_8", cold8 > 0.0 ? warm8 / cold8 : 0.0);
    w.key("slots");
    w.begin_array();
    for (const SlotResult& row : results) {
        w.begin_object();
        w.kv("mode", row.mode);
        w.kv("workers", static_cast<std::uint64_t>(row.workers));
        w.kv("jobs_per_sec", row.jobs_per_sec);
        w.kv("batch_ms", row.batch_ms);
        w.kv("p50_ms", row.p50_ms);
        w.kv("p99_ms", row.p99_ms);
        w.kv("overload_submits", static_cast<std::uint64_t>(row.overload_submits));
        w.kv("overload_shed", static_cast<std::uint64_t>(row.overload_shed));
        w.kv("shed_rate", row.shed_rate);
        w.kv("bit_identical", row.bit_identical);
        w.end_object();
    }
    w.end_array();
    w.end_object();

    std::ofstream out(out_path, std::ios::binary);
    out << w.str() << "\n";
    std::fprintf(stderr, "wrote %s (warm/cold at 8 workers: %.1f/%.1f jobs/s = %.2fx)\n",
                 out_path.c_str(), warm8, cold8, cold8 > 0.0 ? warm8 / cold8 : 0.0);

    const std::string cleanup = "rm -rf '" + dir + "'";
    if (std::system(cleanup.c_str()) != 0) {
        std::fprintf(stderr, "serve_throughput: cleanup failed for %s\n", dir.c_str());
    }
    if (!all_identical) {
        std::fprintf(stderr, "FAIL: served outputs diverged from the in-process flow\n");
        return 1;
    }
    if (!all_shed) {
        std::fprintf(stderr, "FAIL: overload burst was never shed (admission control gap)\n");
        return 1;
    }
    if (!baseline_path.empty()) {
        std::ifstream bf(baseline_path);
        if (!bf) {
            std::fprintf(stderr, "FAIL: cannot read baseline %s\n", baseline_path.c_str());
            return 1;
        }
        std::stringstream buf;
        buf << bf.rdbuf();
        double expected = 0.0;
        if (!json_lookup(buf.str(), "warm_jobs_per_sec_8", expected) || expected <= 0.0) {
            std::fprintf(stderr, "FAIL: baseline %s lacks warm_jobs_per_sec_8\n",
                         baseline_path.c_str());
            return 1;
        }
        const double ratio = warm8 / expected;
        std::fprintf(stderr, "baseline check: %.1f vs %.1f jobs/s recorded (%.0f%%)\n",
                     warm8, expected, ratio * 100.0);
        if (ratio < gate_ratio) {
            std::fprintf(stderr, "FAIL: warm throughput fell below %.0f%% of baseline\n",
                         gate_ratio * 100.0);
            return 1;
        }
    }
    return 0;
}
