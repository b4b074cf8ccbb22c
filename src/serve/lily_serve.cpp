// lily_serve: the crash-isolated mapping daemon. Listens on a unix-domain
// socket, runs every job in a warm preforked sandboxed worker (per-job
// wall-clock / RSS / heartbeat ceilings), journals every job state to a
// crash-safe spool, sheds load when the queue is full, and retries crashed
// jobs once at the degraded effort tier. A worker segfault, abort, OOM, or
// hang is a per-job verdict; the daemon respawns the worker and does not
// die.
//
//   lily_serve --socket=PATH --spool=DIR [options]
//     --workers=N          sandbox slots, 1..256 (default 4)
//     --queue-cap=N        admission-control queue bound, 1..65536 (default 16)
//     --recycle-after=N    retire a worker after N jobs (default 256,
//                          0 = never, 1 = fresh worker per job; bounds
//                          heap soak)
//     --wall-ms=N          per-job wall-clock ceiling (default 30000)
//     --rss-mb=N           per-job resident-set ceiling (default 1024)
//     --hb-timeout-ms=N    worker heartbeat-silence ceiling (default 2000)
//     --retries=N          crash retries per job, at degraded tier (default 1)
//     --backoff-ms=N       retry backoff unit (default 50)
//     --check-spool        audit the spool directory (CheckStage::Serve) and
//                          exit: 0 clean, 1 errors found
//     --verbose            per-event log lines on stderr
//
// Every N is a plain decimal in [0, 4294967295], narrower where given above;
// a sign, whitespace, trailing text, overflow or a value outside its range
// is a usage error.
//
// Exit codes: 0 = clean shutdown (or clean spool audit), 1 = startup
// failure or spool audit errors, 2 = usage error.
#include <cstdio>
#include <cstring>
#include <string>

#include "check/serve_checker.hpp"
#include "serve/server.hpp"
#include "util/io.hpp"
#include "util/text.hpp"

namespace {

using namespace lily;

void usage(std::FILE* to) {
    std::fputs(
        "usage: lily_serve --socket=PATH --spool=DIR [--workers=N] [--queue-cap=N]\n"
        "                  [--recycle-after=N]\n"
        "                  [--wall-ms=N] [--rss-mb=N] [--hb-timeout-ms=N]\n"
        "                  [--retries=N] [--backoff-ms=N] [--check-spool] [--verbose]\n",
        to);
}

}  // namespace

int main(int argc, char** argv) {
    ServeOptions options;
    bool check_spool_mode = false;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        std::uint32_t n = 0;
        if (arg.rfind("--socket=", 0) == 0) {
            options.socket_path = arg.substr(9);
        } else if (arg.rfind("--spool=", 0) == 0) {
            options.spool_dir = arg.substr(8);
        } else if (arg.rfind("--workers=", 0) == 0 && parse_u32(arg.substr(10), n) && n > 0 &&
                   n <= ServeOptions::kMaxWorkers) {
            options.workers = n;
        } else if (arg.rfind("--queue-cap=", 0) == 0 && parse_u32(arg.substr(12), n) &&
                   n > 0 && n <= ServeOptions::kMaxQueueCapacity) {
            options.queue_capacity = n;
        } else if (arg.rfind("--recycle-after=", 0) == 0 && parse_u32(arg.substr(16), n)) {
            options.recycle_after_jobs = n;
        } else if (arg.rfind("--wall-ms=", 0) == 0 && parse_u32(arg.substr(10), n)) {
            options.limits.wall_ms = static_cast<double>(n);
        } else if (arg.rfind("--rss-mb=", 0) == 0 && parse_u32(arg.substr(9), n)) {
            options.limits.rss_bytes = static_cast<std::size_t>(n) << 20;
        } else if (arg.rfind("--hb-timeout-ms=", 0) == 0 && parse_u32(arg.substr(16), n)) {
            options.limits.heartbeat_timeout_ms = static_cast<double>(n);
        } else if (arg.rfind("--retries=", 0) == 0 && parse_u32(arg.substr(10), n)) {
            options.max_retries = n;
        } else if (arg.rfind("--backoff-ms=", 0) == 0 && parse_u32(arg.substr(13), n)) {
            options.retry_backoff_ms = static_cast<double>(n);
        } else if (arg == "--check-spool") {
            check_spool_mode = true;
        } else if (arg == "--verbose") {
            options.verbose = true;
        } else if (arg == "--help" || arg == "-h") {
            usage(stdout);
            return 0;
        } else {
            std::fprintf(stderr, "lily_serve: bad argument '%s'\n", arg.c_str());
            usage(stderr);
            return 2;
        }
    }
    if (options.spool_dir.empty()) {
        std::fprintf(stderr, "lily_serve: --spool is required\n");
        usage(stderr);
        return 2;
    }

    if (check_spool_mode) {
        const CheckReport report = ServeChecker{}.check_spool(options.spool_dir);
        if (!report.empty()) std::fputs(report.to_string().c_str(), stdout);
        std::printf("serve      %zu error(s), %zu warning(s)\n", report.error_count(),
                    report.warning_count());
        return report.has_errors() ? 1 : 0;
    }
    if (options.socket_path.empty()) {
        std::fprintf(stderr, "lily_serve: --socket is required\n");
        usage(stderr);
        return 2;
    }

    ServeServer server(std::move(options));
    const Status ran = server.run();
    if (!ran.is_ok()) {
        std::fprintf(stderr, "lily_serve: %s\n", ran.to_string().c_str());
        return 1;
    }
    std::fputs(server.stats().to_json().c_str(), stdout);
    std::fputc('\n', stdout);
    return 0;
}
