// Process-sandboxed job execution: the robustness boundary of lily_serve.
//
// Workers are *warm*: forked once, they loop on a persistent dispatch pipe
// serving many jobs, so a steady-state job skips fork and sandbox setup;
// each job parses its own inputs. The child
// installs the signal-safe crash reporter, reads one CRC-framed JobSpec at
// a time from its dispatch pipe, heartbeats while (and only while) a job
// is running, executes run_flow_job, writes the JobOutcome back as one
// CRC-framed message on its result pipe, and goes back to blocking on the
// next dispatch. EOF on the dispatch pipe is the retirement signal: the
// worker _exits cleanly and the supervisor replaces it (recycle-after-N
// bounds heap soak).
//
// The parent — the daemon's single-threaded supervisor loop — polls the
// worker: it drains heartbeats and crash lines from the control pipe,
// samples the child's RSS from /proc, and SIGKILLs on any per-job ceiling
// breach (wall clock since dispatch, resident set, heartbeat silence).
// Ceilings are armed only while a job is in flight — an idle warm worker
// is legitimately silent. A worker segfault, abort, OOM, or wedge
// therefore becomes a classified per-job verdict; the serving process
// never dies, respawns the slot, and retries the in-flight job per the
// degraded-retry policy.
//
// Fault kinds probed in the child per dispatched job (stage "serve"):
//   segv / abort   crash immediately (crash reporter writes the report)
//   oom            allocate-and-touch until the RSS ceiling kills it
//   hang           spin (with heartbeats) until the wall ceiling kills it
//   wedge          go silent (no heartbeats) so the watchdog kills it
// Plain kinds fire only at JobTier::Full — the degraded retry survives
// them, modeling a pathological input that the cheap path can absorb.
// "-sticky" variants (e.g. "segv-sticky") fire at every tier and drive the
// job to a terminal error.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include <sys/types.h>

#include "flow/job.hpp"
#include "util/subprocess.hpp"

namespace lily {

/// Ceilings the supervisor enforces on one worker, per dispatched job.
/// Zero disables that dimension (tests and bring-up only; the daemon
/// always sets all three).
struct WorkerLimits {
    double wall_ms = 30000.0;          // SIGKILL after this much wall clock
    std::size_t rss_bytes = 1u << 30;  // SIGKILL when resident set exceeds
    double heartbeat_timeout_ms = 2000.0;  // SIGKILL after this much silence
};

/// Why a worker stopped (or how its last job ended).
enum class WorkerEnd : std::uint8_t {
    Completed,     // result frame received for the dispatched job
    Crashed,       // crash-reporter exit, raw fatal signal, or garbage exit
    WallKilled,    // supervisor SIGKILL: wall-clock ceiling
    RssKilled,     // supervisor SIGKILL: resident-set ceiling
    HeartbeatKilled,  // supervisor SIGKILL: heartbeat silence
    Retired,       // clean exit after the supervisor closed the dispatch pipe
};

const char* to_string(WorkerEnd end);

struct WorkerResult {
    WorkerEnd end = WorkerEnd::Crashed;
    JobOutcome outcome;      // valid when end == Completed
    std::string crash_info;  // crash-reporter line / kill reason / exit status
    double elapsed_ms = 0.0;            // job wall clock (dispatch -> terminal)
    std::size_t peak_rss_bytes = 0;     // peak during the job
    std::uint64_t heartbeats = 0;       // beats during the job
};

/// A warm forked worker being supervised. Non-blocking on the parent side:
/// the owner calls poll() from its event loop; completed jobs surface via
/// has_job_result()/take_job_result() while the worker stays alive for the
/// next dispatch, and a dead worker surfaces via done()/take_result(). The
/// read fds are O_NONBLOCK in the parent and safe to multiplex.
class WorkerProcess {
public:
    WorkerProcess() = default;
    WorkerProcess(const WorkerProcess&) = delete;
    WorkerProcess& operator=(const WorkerProcess&) = delete;
    ~WorkerProcess();

    /// Fork the warm worker (idle, no job). The caller must be effectively
    /// single-threaded at fork time (the daemon's supervisor loop is); the
    /// child never returns.
    Status start(const WorkerLimits& limits);

    /// Hand one job to an idle worker: writes a JobDispatch frame on the
    /// dispatch pipe and arms the per-job ceilings. Fails if the worker is
    /// busy or dead; a transport error (EPIPE from a just-died child) is
    /// returned for the caller to respawn — the frame either arrived whole
    /// or the worker is already doomed, so no job can half-run.
    Status dispatch(const JobSpec& spec);

    /// Ask the worker to exit after its current job (or immediately when
    /// idle) by closing the dispatch pipe. poll() reports the clean exit
    /// as WorkerEnd::Retired.
    void retire();

    /// Drive supervision one step: drain pipes, sample RSS, enforce
    /// per-job ceilings, reap. Returns true when something is ready:
    /// a completed job (has_job_result()) or worker death (done()).
    /// Cheap; call every loop tick.
    bool poll();

    bool running() const { return pid_ > 0 && !done_; }
    bool busy() const { return running() && busy_; }
    /// Dispatchable: alive, no job in flight, and not already asked to
    /// retire (a retiring worker drains to EOF and must not be picked).
    bool idle() const { return running() && !busy_ && !retiring_; }
    bool done() const { return done_; }
    /// A completed job is waiting to be collected (worker alive and idle).
    bool has_job_result() const { return has_job_result_; }
    WorkerResult take_job_result();
    pid_t pid() const { return pid_; }
    int result_fd() const { return result_pipe_.read_fd; }
    int control_fd() const { return control_pipe_.read_fd; }
    /// Jobs completed by this worker since start (recycle accounting).
    std::uint32_t jobs_completed() const { return jobs_completed_; }
    /// Milliseconds since the last heartbeat (or dispatch) of the current
    /// job — health reporting. Zero when idle.
    double heartbeat_age_ms() const;
    /// Terminal state of a dead worker (valid once done()).
    const WorkerResult& result() const { return result_; }
    WorkerResult take_result() { return std::move(result_); }

    /// SIGKILL the worker (idempotent). poll() still must run to reap.
    void kill_now(WorkerEnd reason, const std::string& why);

private:
    void finalize(const ExitStatus& exit_status);
    void drain_pipes();
    bool try_take_result_frame();

    pid_t pid_ = -1;
    Pipe dispatch_pipe_;  // parent -> child: JobDispatch frames; EOF = retire
    Pipe result_pipe_;    // child -> parent: one WorkerResult frame per job
    Pipe control_pipe_;   // child -> parent: heartbeat bytes + crash line
    WorkerLimits limits_;
    std::string result_buffer_;
    std::string crash_text_;
    std::uint32_t jobs_completed_ = 0;
    std::uint64_t job_heartbeats_ = 0;
    double job_start_ms_ = 0.0;  // steady-clock epoch, ms; set at dispatch
    double last_beat_ms_ = 0.0;
    std::size_t job_peak_rss_ = 0;
    bool busy_ = false;
    bool retiring_ = false;
    bool kill_sent_ = false;
    WorkerEnd kill_reason_ = WorkerEnd::Crashed;
    std::string kill_why_;
    bool done_ = false;
    bool has_job_result_ = false;
    WorkerResult job_result_;
    WorkerResult result_;
};

/// Blocking convenience used by tests: start a one-shot warm worker,
/// dispatch the job, poll until the job completes or the worker dies.
WorkerResult run_job_sandboxed(const JobSpec& spec, const WorkerLimits& limits);

/// The child-side body (exposed for the daemon binary): apply sandbox
/// setup, then loop — read a JobDispatch frame from `dispatch_fd`, probe
/// serve faults, run the job with run_flow_job, write the result frame to
/// `result_fd`, heartbeat on `control_fd` while busy.
/// Exits cleanly on dispatch-pipe EOF. Never returns.
[[noreturn]] void worker_pool_main(int dispatch_fd, int result_fd, int control_fd);

}  // namespace lily
