// The lily_serve daemon core: a single-threaded supervisor loop that
// multiplexes a unix-domain listening socket, client connections, and a
// pool of warm forked worker processes.
//
// Design rules that keep the server crash-proof:
//  * The supervisor itself never parses a netlist, never maps, never
//    routes — all job work happens in forked workers. The only state a
//    pathological job can corrupt is its own process.
//  * The supervisor stays single-threaded, so fork() is always safe (no
//    other thread can hold a lock across the fork).
//  * Workers are forked warm at startup and dispatched jobs over
//    persistent pipes; each keeps a process-local ArtifactCache so
//    steady-state jobs skip fork and both parses. A dead worker (crash,
//    ceiling kill) is respawned; a worker that served recycle_after_jobs
//    is retired and replaced to bound memory soak (--recycle-after=1 is the
//    fork-per-job model).
//  * Every accepted job is journaled to the spool before the client hears
//    "accepted"; every state transition re-journals. Kill the server at
//    any instant and a restart resumes or fails over the journaled jobs.
//  * Admission control sheds load instead of queueing unboundedly: when
//    the queue is at capacity, Submit is rejected with a retry-after hint.
//  * A worker that crashes or is killed at full effort is retried once,
//    after a backoff, at the degraded tier (the recovery ladder's final
//    rung). A second failure is a terminal per-job error.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "serve/protocol.hpp"
#include "serve/spool.hpp"
#include "serve/worker.hpp"

namespace lily {

struct ServeOptions {
    std::string socket_path;
    std::string spool_dir;
    std::uint32_t workers = 4;
    std::uint32_t queue_capacity = 16;
    WorkerLimits limits;            // per-job ceilings
    std::uint32_t max_retries = 1;  // crash retries per job (degraded tier)
    double retry_backoff_ms = 50.0;
    /// Retire a worker after this many jobs (bounds cache/heap soak).
    /// 0 = never; 1 = a fresh worker, and a cold cache, for every job.
    std::uint32_t recycle_after_jobs = 256;
    bool verbose = false;           // per-event lines on stderr
};

struct ServeStats {
    std::uint64_t submitted = 0;
    std::uint64_t accepted = 0;
    std::uint64_t shed = 0;
    std::uint64_t completed_ok = 0;
    std::uint64_t completed_degraded = 0;
    std::uint64_t completed_error = 0;
    std::uint64_t worker_crashes = 0;
    std::uint64_t wall_kills = 0;
    std::uint64_t rss_kills = 0;
    std::uint64_t heartbeat_kills = 0;
    std::uint64_t retries = 0;
    std::uint64_t recovered_from_spool = 0;
    // Warm-pool accounting. Cache counters aggregate the CacheProbe
    // diagnostics of worker outcomes (exact: Skipped probes don't count).
    std::uint64_t cache_hits = 0;
    std::uint64_t cache_misses = 0;
    std::uint64_t workers_recycled = 0;   // planned retirements (recycle-after)
    std::uint64_t workers_respawned = 0;  // unplanned deaths replaced

    /// Per-stage latency aggregation, fed by the stage_times each terminal
    /// outcome carries (protocol v3). A bounded ring of recent samples per
    /// stage keeps memory flat while the all-time count keeps totals exact;
    /// p50/p99 are computed over the ring at Stats time.
    static constexpr std::size_t kStageSampleCap = 512;
    struct StageLatency {
        std::uint64_t count = 0;      // all-time executions of this stage
        std::vector<double> ring;     // most recent samples, at most the cap
        std::size_t next = 0;         // overwrite cursor once the ring is full
    };
    std::map<std::string, StageLatency> stage_latency;

    void record_stage_times(const std::vector<StageTime>& times);

    std::string to_json() const;
};

class ServeServer {
public:
    explicit ServeServer(ServeOptions options);
    ~ServeServer();

    ServeServer(const ServeServer&) = delete;
    ServeServer& operator=(const ServeServer&) = delete;

    /// Bind the socket, recover the spool, and run the supervisor loop
    /// until a Shutdown request or SIGTERM/SIGINT. Returns non-OK only for
    /// startup failures (bad socket path, unwritable spool); per-job
    /// failures never surface here.
    Status run();

    const ServeStats& stats() const { return stats_; }

private:
    struct Connection {
        int fd = -1;
        std::string in;    // unparsed request bytes
        std::string out;   // unwritten reply bytes
        bool closing = false;
        // A parked Wait request (reply deferred until terminal/timeout).
        bool waiting = false;
        std::uint64_t wait_job = 0;
        double wait_deadline_ms = 0.0;
    };

    struct Job {
        std::uint64_t id = 0;
        JobSpec spec;
        JobState state = JobState::Queued;
        std::uint32_t retries = 0;
        double not_before_ms = 0.0;  // retry backoff gate
        JobOutcome outcome;          // valid once terminal
    };

    struct Slot {
        std::unique_ptr<WorkerProcess> worker;
        std::uint64_t job_id = 0;  // 0 = idle
        double respawn_not_before_ms = 0.0;  // backoff against fork-fail spin
    };

    Status setup_listener();
    Status recover_spool();
    void loop_tick();
    void accept_clients();
    void service_connection(Connection& conn);
    void handle_frame(Connection& conn, const Frame& frame);
    void handle_submit(Connection& conn, const Frame& frame);
    void handle_wait(Connection& conn, const Frame& frame);
    void reply_result(Connection& conn, std::uint64_t job_id);
    /// Keep every slot holding a live warm worker (respawn with backoff).
    void ensure_workers();
    void dispatch_jobs();
    void poll_workers();
    /// Fold one completed outcome's cache probes into the exact counters.
    void account_cache(const JobOutcome& outcome);
    void finish_job(Job& job, JobOutcome outcome);
    void retry_or_fail(Job& job, const WorkerResult& result);
    void answer_waiters(std::uint64_t job_id);
    void journal(const Job& job);
    void send(Connection& conn, MsgKind kind, std::string payload);
    void log(const std::string& line) const;
    HealthReply health_snapshot() const;

    ServeOptions options_;
    Spool spool_;
    ServeStats stats_;
    int listen_fd_ = -1;
    std::vector<Connection> connections_;
    std::map<std::uint64_t, Job> jobs_;
    std::deque<std::uint64_t> queue_;
    std::vector<Slot> slots_;
    std::uint64_t next_job_id_ = 1;
    double start_ms_ = 0.0;
    bool shutting_down_ = false;
    bool drain_ = false;
};

}  // namespace lily
