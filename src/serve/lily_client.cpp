// lily_client: command-line client for the lily_serve daemon.
//
//   lily_client --socket=PATH <command> [options]
//
//   commands:
//     map <circuit.blif> <library.genlib>    submit and wait for the outcome;
//                                            prints the report JSON, writes
//                                            the mapped BLIF with --out=FILE
//     submit <circuit.blif> <library.genlib> submit only, print the job id
//     wait <job-id>                          wait for a submitted job
//     health                                 one-line daemon health summary
//     stats                                  daemon counters as JSON
//     shutdown [--drain]                     stop the daemon
//     load <circuit.blif> <library.genlib> --jobs=N [--no-wait]
//                                            closed-loop load run: submit and
//                                            wait N jobs, print a JSON summary
//                                            (jobs/s, p50/p99, shed rate)
//                                            machine-comparable with
//                                            bench/serve_throughput; --no-wait
//                                            fires the submits back-to-back
//                                            without waiting — the
//                                            admission-control smoke
//
//   job options (map / submit / load):
//     --flow=lily|baseline|adaptive  checked flow to run (default lily)
//     --objective=area|delay         mapping objective (default area)
//     --check=off|light              in-flow checker level (default off)
//     --verify=off|sim|prove         in-flow equivalence level (default off)
//     --budget-ms=N                  whole-flow wall budget, a finite
//                                    number >= 0 (default 0 = unlimited)
//     --inject=STAGE:KIND            fault spec installed in the worker
//     --timeout-ms=N                 client-side wait budget (default 120000)
//     --out=FILE                     write the mapped BLIF here (map only)
//
//   --jobs and --timeout-ms take a plain decimal in [0, 4294967295]; a
//   sign, whitespace, trailing text or overflow is a usage error.
//
// Exit codes: 0 = job Ok/Degraded (or command succeeded), 1 = job Error,
// shed rejection, or daemon unreachable, 2 = usage or input error.
#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "check/check.hpp"
#include "serve/client.hpp"
#include "util/io.hpp"
#include "util/json.hpp"
#include "util/text.hpp"

namespace {

using namespace lily;

void usage(std::FILE* to) {
    std::fputs(
        "usage: lily_client --socket=PATH <command> [options]\n"
        "  commands: map submit wait health stats shutdown load\n"
        "  job options: --flow=K --objective=K --check=K --verify=K --budget-ms=N\n"
        "               --inject=SPEC --timeout-ms=N --out=FILE --jobs=N --no-wait\n",
        to);
}

/// A whole-flow budget in ms: a finite, non-negative decimal.
bool parse_budget_ms(std::string_view text, double& out) {
    double v = 0.0;
    const auto [ptr, ec] = std::from_chars(text.data(), text.data() + text.size(), v);
    if (ec != std::errc{} || ptr != text.data() + text.size()) return false;
    if (!std::isfinite(v) || v < 0.0) return false;
    out = v;
    return true;
}

bool bad_value(const std::string& arg) {
    std::fprintf(stderr, "lily_client: bad value in '%s'\n", arg.c_str());
    return false;
}

bool read_file(const std::string& path, std::string& out) {
    std::ifstream in(path, std::ios::binary);
    if (!in) return false;
    std::ostringstream buf;
    buf << in.rdbuf();
    out = buf.str();
    return true;
}

struct ClientArgs {
    std::string socket_path;
    std::string command;
    std::vector<std::string> positional;
    JobFlowOptions options;
    std::string fault_spec;
    std::string out_path;
    std::uint32_t timeout_ms = 120000;
    std::uint32_t jobs = 1;
    bool no_wait = false;
    bool drain = false;
};

bool parse_args(int argc, char** argv, ClientArgs& out) {
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.rfind("--socket=", 0) == 0) {
            out.socket_path = arg.substr(9);
        } else if (arg.rfind("--flow=", 0) == 0) {
            const std::string kind = arg.substr(7);
            if (kind == "lily") {
                out.options.kind = FlowKind::Lily;
            } else if (kind == "baseline") {
                out.options.kind = FlowKind::Baseline;
            } else if (kind == "adaptive") {
                out.options.kind = FlowKind::Adaptive;
            } else {
                std::fprintf(stderr, "lily_client: unknown flow kind '%s'\n", kind.c_str());
                return false;
            }
        } else if (arg.rfind("--objective=", 0) == 0) {
            const std::string obj = arg.substr(12);
            if (obj == "area") {
                out.options.objective = MapObjective::Area;
            } else if (obj == "delay") {
                out.options.objective = MapObjective::Delay;
            } else {
                std::fprintf(stderr, "lily_client: unknown objective '%s'\n", obj.c_str());
                return false;
            }
        } else if (arg.rfind("--check=", 0) == 0) {
            const std::string level = arg.substr(8);
            if (level == "off") {
                out.options.check = CheckLevel::Off;
            } else if (level == "light") {
                out.options.check = CheckLevel::Light;
            } else {
                std::fprintf(stderr, "lily_client: unknown check level '%s'\n", level.c_str());
                return false;
            }
        } else if (arg.rfind("--verify=", 0) == 0) {
            const std::string level = arg.substr(9);
            if (level == "off") {
                out.options.verify = VerifyLevel::Off;
            } else if (level == "sim") {
                out.options.verify = VerifyLevel::Sim;
            } else if (level == "prove") {
                out.options.verify = VerifyLevel::Prove;
            } else {
                std::fprintf(stderr, "lily_client: unknown verify level '%s'\n", level.c_str());
                return false;
            }
        } else if (arg.rfind("--budget-ms=", 0) == 0) {
            if (!parse_budget_ms(arg.substr(12), out.options.budget_ms)) return bad_value(arg);
        } else if (arg.rfind("--inject=", 0) == 0) {
            out.fault_spec = arg.substr(9);
        } else if (arg.rfind("--timeout-ms=", 0) == 0) {
            if (!parse_u32(arg.substr(13), out.timeout_ms)) return bad_value(arg);
        } else if (arg.rfind("--out=", 0) == 0) {
            out.out_path = arg.substr(6);
        } else if (arg.rfind("--jobs=", 0) == 0) {
            if (!parse_u32(arg.substr(7), out.jobs)) return bad_value(arg);
        } else if (arg == "--no-wait") {
            out.no_wait = true;
        } else if (arg == "--drain") {
            out.drain = true;
        } else if (arg == "--help" || arg == "-h") {
            usage(stdout);
            std::exit(0);
        } else if (arg.rfind("--", 0) == 0) {
            std::fprintf(stderr, "lily_client: unknown option '%s'\n", arg.c_str());
            return false;
        } else if (out.command.empty()) {
            out.command = arg;
        } else {
            out.positional.push_back(arg);
        }
    }
    return !out.command.empty() && !out.socket_path.empty();
}

bool build_spec(const ClientArgs& args, JobSpec& spec) {
    if (args.positional.size() != 2) {
        std::fprintf(stderr, "lily_client: %s needs <circuit.blif> <library.genlib>\n",
                     args.command.c_str());
        return false;
    }
    if (!read_file(args.positional[0], spec.blif)) {
        std::fprintf(stderr, "lily_client: cannot read %s\n", args.positional[0].c_str());
        return false;
    }
    if (!read_file(args.positional[1], spec.genlib)) {
        std::fprintf(stderr, "lily_client: cannot read %s\n", args.positional[1].c_str());
        return false;
    }
    spec.name = args.positional[0];
    spec.options = args.options;
    spec.fault_spec = args.fault_spec;
    return true;
}

int print_outcome(const JobOutcome& outcome, const std::string& out_path) {
    std::fputs(outcome.report_json.empty() ? "{}" : outcome.report_json.c_str(), stdout);
    std::fputc('\n', stdout);
    std::fprintf(stderr, "lily_client: job %s (%s, tier %s, %u retries)\n",
                 to_string(outcome.state), to_string(outcome.status_code),
                 to_string(outcome.tier), outcome.retries);
    if (!outcome.crash_info.empty()) {
        std::fprintf(stderr, "lily_client: crash info: %s\n", outcome.crash_info.c_str());
    }
    if (!out_path.empty() && !outcome.mapped_blif.empty()) {
        std::ofstream out(out_path, std::ios::binary);
        out << outcome.mapped_blif;
        if (!out) {
            std::fprintf(stderr, "lily_client: cannot write %s\n", out_path.c_str());
            return 1;
        }
    }
    return outcome.state == JobState::Error ? 1 : 0;
}

int cmd_map(ServeClient& client, const ClientArgs& args) {
    JobSpec spec;
    if (!build_spec(args, spec)) return 2;
    const StatusOr<JobOutcome> outcome =
        client.map(spec, /*shed_retries=*/10, static_cast<double>(args.timeout_ms));
    if (!outcome.is_ok()) {
        std::fprintf(stderr, "lily_client: %s\n", outcome.status().to_string().c_str());
        return 1;
    }
    return print_outcome(outcome.value(), args.out_path);
}

int cmd_submit(ServeClient& client, const ClientArgs& args) {
    JobSpec spec;
    if (!build_spec(args, spec)) return 2;
    const StatusOr<SubmitReply> reply = client.submit(spec);
    if (!reply.is_ok()) {
        std::fprintf(stderr, "lily_client: %s\n", reply.status().to_string().c_str());
        return 1;
    }
    if (!reply.value().accepted) {
        std::fprintf(stderr, "lily_client: rejected: %s (retry after %ums)\n",
                     reply.value().message.c_str(), reply.value().retry_after_ms);
        return 1;
    }
    std::printf("%llu\n", static_cast<unsigned long long>(reply.value().job_id));
    return 0;
}

int cmd_wait(ServeClient& client, const ClientArgs& args) {
    if (args.positional.size() != 1) {
        std::fprintf(stderr, "lily_client: wait needs <job-id>\n");
        return 2;
    }
    const std::uint64_t job_id = std::strtoull(args.positional[0].c_str(), nullptr, 10);
    const StatusOr<ResultReply> reply = client.wait(job_id, args.timeout_ms);
    if (!reply.is_ok()) {
        std::fprintf(stderr, "lily_client: %s\n", reply.status().to_string().c_str());
        return 1;
    }
    const ResultReply& result = reply.value();
    if (!result.found) {
        std::fprintf(stderr, "lily_client: unknown job %llu\n",
                     static_cast<unsigned long long>(job_id));
        return 1;
    }
    if (!result.terminal) {
        std::fprintf(stderr, "lily_client: job still %s\n", to_string(result.state));
        return 1;
    }
    return print_outcome(result.outcome, args.out_path);
}

int cmd_health(ServeClient& client) {
    const StatusOr<HealthReply> reply = client.health();
    if (!reply.is_ok()) {
        std::fprintf(stderr, "lily_client: %s\n", reply.status().to_string().c_str());
        return 1;
    }
    const HealthReply& h = reply.value();
    std::printf(
        "health: %s uptime=%llums workers=%u/%u queue=%u/%u max-heartbeat-age=%llums "
        "recycled=%llu respawned=%llu\n",
        h.ok ? "ok" : "shutting-down", static_cast<unsigned long long>(h.uptime_ms),
        h.workers_busy, h.workers_total, h.queue_depth, h.queue_capacity,
        static_cast<unsigned long long>(h.max_heartbeat_age_ms),
        static_cast<unsigned long long>(h.workers_recycled),
        static_cast<unsigned long long>(h.workers_respawned));
    return h.ok ? 0 : 1;
}

double json_number_field(const std::string& obj, const std::string& key) {
    const std::string needle = "\"" + key + "\":";
    const std::size_t at = obj.find(needle);
    if (at == std::string::npos) return 0.0;
    return std::atof(obj.c_str() + at + needle.size());
}

/// Human summary of the Stats "stage_timings" block, scraped from the
/// compact JSON with a targeted scan (the CLI deliberately carries no JSON
/// parser). Printed on stderr so stdout stays pure machine-parseable JSON.
void print_stage_timings(const std::string& json) {
    const std::string key = "\"stage_timings\":{";
    const std::size_t block = json.find(key);
    if (block == std::string::npos) return;
    std::size_t pos = block + key.size();
    bool header = false;
    while (pos < json.size() && json[pos] == '"') {
        const std::size_t name_end = json.find('"', pos + 1);
        if (name_end == std::string::npos) return;
        const std::string name = json.substr(pos + 1, name_end - pos - 1);
        const std::size_t obj_end = json.find('}', name_end);
        if (obj_end == std::string::npos) return;
        const std::string obj = json.substr(name_end, obj_end - name_end);
        if (!header) {
            std::fprintf(stderr, "lily_client: %-16s %10s %12s %12s\n", "stage", "count",
                         "p50_ms", "p99_ms");
            header = true;
        }
        std::fprintf(stderr, "lily_client: %-16s %10llu %12.3f %12.3f\n", name.c_str(),
                     static_cast<unsigned long long>(json_number_field(obj, "count")),
                     json_number_field(obj, "p50_ms"), json_number_field(obj, "p99_ms"));
        pos = obj_end + 1;
        if (pos < json.size() && json[pos] == ',') ++pos;
    }
}

int cmd_stats(ServeClient& client) {
    const StatusOr<std::string> reply = client.stats();
    if (!reply.is_ok()) {
        std::fprintf(stderr, "lily_client: %s\n", reply.status().to_string().c_str());
        return 1;
    }
    std::fputs(reply.value().c_str(), stdout);
    std::fputc('\n', stdout);
    print_stage_timings(reply.value());
    return 0;
}

double percentile_ms(std::vector<double> sorted, double p) {
    if (sorted.empty()) return 0.0;
    const std::size_t idx = static_cast<std::size_t>(p * static_cast<double>(sorted.size() - 1));
    return sorted[idx];
}

/// Load run against a live daemon, printing a JSON summary on stdout that
/// is machine-comparable with bench/serve_throughput output (jobs/s,
/// p50/p99 latency, shed rate).
///
/// Default is closed-loop: each job is submitted and waited to a terminal
/// verdict before the next goes in, so per-job latency is a true
/// round-trip. A shed submit is counted and skipped, never retried — the
/// shed rate is part of the measurement. --no-wait instead fires all N
/// submits back-to-back without waiting: the admission-control smoke,
/// where the daemon under deliberate overload must reject (shed > 0), not
/// queue without bound and not hang the client.
int cmd_load(ServeClient& client, const ClientArgs& args) {
    JobSpec spec;
    if (!build_spec(args, spec)) return 2;
    std::uint32_t accepted = 0;
    std::uint32_t shed = 0;
    std::uint32_t ok = 0;
    std::uint32_t degraded = 0;
    std::uint32_t error = 0;
    std::vector<double> latencies_ms;
    const auto t0 = std::chrono::steady_clock::now();
    for (std::uint32_t i = 0; i < args.jobs; ++i) {
        const auto submit_at = std::chrono::steady_clock::now();
        const StatusOr<SubmitReply> reply = client.submit(spec);
        if (!reply.is_ok()) {
            std::fprintf(stderr, "lily_client: %s\n", reply.status().to_string().c_str());
            return 1;
        }
        if (!reply.value().accepted) {
            ++shed;
            continue;
        }
        ++accepted;
        if (args.no_wait) continue;
        const StatusOr<ResultReply> result =
            client.wait(reply.value().job_id, args.timeout_ms);
        if (!result.is_ok()) {
            std::fprintf(stderr, "lily_client: %s\n", result.status().to_string().c_str());
            return 1;
        }
        if (result.value().terminal) {
            switch (result.value().outcome.state) {
                case JobState::Ok: ++ok; break;
                case JobState::Degraded: ++degraded; break;
                default: ++error; break;
            }
        } else {
            ++error;  // timed out short of terminal: count it against the run
        }
        latencies_ms.push_back(std::chrono::duration<double, std::milli>(
                                   std::chrono::steady_clock::now() - submit_at)
                                   .count());
    }
    const double elapsed_ms =
        std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0)
            .count();
    std::sort(latencies_ms.begin(), latencies_ms.end());
    const double jobs_per_sec =
        (args.no_wait || elapsed_ms <= 0.0)
            ? 0.0
            : static_cast<double>(latencies_ms.size()) / (elapsed_ms / 1000.0);
    const double shed_rate =
        args.jobs == 0 ? 0.0 : static_cast<double>(shed) / static_cast<double>(args.jobs);

    JsonWriter w;
    w.begin_object();
    w.kv("command", "load");
    w.kv("mode", args.no_wait ? "burst" : "closed-loop");
    w.kv("jobs", static_cast<std::uint64_t>(args.jobs));
    w.kv("accepted", static_cast<std::uint64_t>(accepted));
    w.kv("shed", static_cast<std::uint64_t>(shed));
    w.kv("shed_rate", shed_rate);
    w.kv("completed_ok", static_cast<std::uint64_t>(ok));
    w.kv("completed_degraded", static_cast<std::uint64_t>(degraded));
    w.kv("completed_error", static_cast<std::uint64_t>(error));
    w.kv("elapsed_ms", elapsed_ms);
    w.kv("jobs_per_sec", jobs_per_sec);
    w.kv("p50_ms", percentile_ms(latencies_ms, 0.50));
    w.kv("p99_ms", percentile_ms(latencies_ms, 0.99));
    w.end_object();
    std::fputs(w.str().c_str(), stdout);
    std::fputc('\n', stdout);
    std::fprintf(stderr, "lily_client: load jobs=%u accepted=%u shed=%u\n", args.jobs,
                 accepted, shed);
    return 0;
}

}  // namespace

int main(int argc, char** argv) {
    // A daemon restart mid-transfer must fail a request, not kill the CLI.
    ignore_sigpipe();
    ClientArgs args;
    if (!parse_args(argc, argv, args)) {
        usage(stderr);
        return 2;
    }
    ServeClient client(args.socket_path);
    if (args.command == "map") return cmd_map(client, args);
    if (args.command == "submit") return cmd_submit(client, args);
    if (args.command == "wait") return cmd_wait(client, args);
    if (args.command == "health") return cmd_health(client);
    if (args.command == "stats") return cmd_stats(client);
    if (args.command == "load") return cmd_load(client, args);
    if (args.command == "shutdown") {
        const Status stopped = client.shutdown(args.drain);
        if (!stopped.is_ok()) {
            std::fprintf(stderr, "lily_client: %s\n", stopped.to_string().c_str());
            return 1;
        }
        return 0;
    }
    std::fprintf(stderr, "lily_client: unknown command '%s'\n", args.command.c_str());
    usage(stderr);
    return 2;
}
