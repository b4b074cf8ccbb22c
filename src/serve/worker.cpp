#include "serve/worker.hpp"

#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <thread>
#include <vector>

#include <dirent.h>
#include <sys/prctl.h>
#include <unistd.h>

#include "serve/protocol.hpp"
#include "util/crash.hpp"
#include "util/fault.hpp"
#include "util/io.hpp"
#include "util/text.hpp"

namespace lily {

namespace {

constexpr char kHeartbeatByte = 0x01;
constexpr double kHeartbeatIntervalMs = 50.0;

double now_ms() {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/// Child-side isolation, run immediately after fork. Two duties:
///  * Die with the supervisor: an orphaned worker must never outlive a
///    SIGKILLed daemon (it would keep spinning, and worse, keep the
///    daemon's inherited listening socket alive so restarted daemons'
///    clients connect into a dead backlog and hang).
///  * Drop every inherited descriptor except stdio and our three pipes —
///    the worker must not hold the listener, any client connection, or a
///    sibling worker's pipe ends open (a sibling's dispatch write end held
///    here would defeat that sibling's EOF-retirement).
void isolate_child(pid_t parent, int keep_a, int keep_b, int keep_c) {
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    // The parent may have died between fork and prctl; the death signal
    // only fires for deaths after it is armed.
    if (::getppid() != parent) ::_exit(1);
    DIR* d = ::opendir("/proc/self/fd");
    if (d == nullptr) return;
    std::vector<int> doomed;
    while (const dirent* ent = ::readdir(d)) {
        if (ent->d_name[0] == '.') continue;
        const int fd = std::atoi(ent->d_name);
        if (fd > 2 && fd != keep_a && fd != keep_b && fd != keep_c && fd != ::dirfd(d)) {
            doomed.push_back(fd);
        }
    }
    ::closedir(d);
    for (const int fd : doomed) ::close(fd);
}

/// True when the serve-stage fault `kind` should fire for this job: plain
/// kinds only at full effort, "-sticky" kinds at every tier.
bool serve_fault(const JobSpec& spec, const char* kind) {
    if (fault_enabled("serve", std::string(kind) + "-sticky")) return true;
    return spec.tier == JobTier::Full && fault_enabled("serve", kind);
}

void write_beat(int control_fd) {
    const char beat = kHeartbeatByte;
    // Best-effort: a full pipe (parent briefly behind) drops the beat; the
    // next one lands. EINTR is the only retry-worthy failure here.
    while (::write(control_fd, &beat, 1) < 0 && errno == EINTR) {
    }
}

}  // namespace

const char* to_string(WorkerEnd end) {
    switch (end) {
        case WorkerEnd::Completed: return "completed";
        case WorkerEnd::Crashed: return "crashed";
        case WorkerEnd::WallKilled: return "wall-killed";
        case WorkerEnd::RssKilled: return "rss-killed";
        case WorkerEnd::HeartbeatKilled: return "heartbeat-killed";
        case WorkerEnd::Retired: return "retired";
    }
    return "?";
}

// ---- Child side -----------------------------------------------------------

void worker_pool_main(int dispatch_fd, int result_fd, int control_fd) {
    // The crash reporter writes to the control pipe, where the supervisor
    // reads heartbeats; a crash line and heartbeat bytes interleave safely
    // because the parent parses them bytewise.
    install_crash_reporter(control_fd, "");
    crash_set_stage("pool-idle");

    // One heartbeat thread for the worker's whole life, gated by `beating`:
    // a warm worker beats only while a job is in flight, so idle silence is
    // legitimate and per-job heartbeat windows stay crisp. Detached — the
    // worker leaves via _exit, never via return.
    static std::atomic<bool> beating{false};  // called once per worker process
    std::thread([control_fd] {
        for (;;) {
            if (beating.load(std::memory_order_relaxed)) write_beat(control_fd);
            std::this_thread::sleep_for(
                std::chrono::milliseconds(static_cast<int>(kHeartbeatIntervalMs)));
        }
    }).detach();

    std::uint32_t seq = 0;
    for (;;) {
        crash_set_stage("pool-idle");
        Frame frame;
        const Status got = read_frame(dispatch_fd, frame);
        if (!got.is_ok()) {
            // Clean EOF is the retirement signal; a truncated or corrupt
            // dispatch means the supervisor is dying or the pipe is hosed —
            // either way this worker is done.
            ::_exit(got.code() == StatusCode::Unsupported ? 0 : 4);
        }
        JobSpec spec;
        if (frame.kind == MsgKind::JobDispatch) {
            WireReader r(frame.payload);
            if (!decode_job_spec(r, spec)) ::_exit(4);
        } else {
            ::_exit(4);
        }
        ++seq;

        // Per-job fault wiring: the reporter snapshots the fault spec, so
        // it must be re-installed when the spec changes between jobs.
        set_fault_spec(spec.fault_spec);
        install_crash_reporter(control_fd, spec.fault_spec);
        crash_set_stage("sandbox");

        // Injected failure modes, before any real work. `wedge` must keep
        // `beating` false: its whole point is supervisor-visible silence.
        if (serve_fault(spec, "segv")) {
            // A real null store would be intercepted by UBSan before the
            // fault; raising the signal exercises the identical
            // reporter/kill path in every build flavor.
            ::raise(SIGSEGV);  // crash reporter -> _exit(kCrashExitCode)
        }
        if (serve_fault(spec, "abort")) std::abort();
        if (serve_fault(spec, "wedge")) {
            for (;;) std::this_thread::sleep_for(std::chrono::milliseconds(100));
        }

        // First beat synchronously at job start: even a job shorter than
        // the beat interval proves liveness at least once.
        write_beat(control_fd);
        beating.store(true, std::memory_order_relaxed);

        if (serve_fault(spec, "hang")) {
            // Beating but never finishing: the wall-clock ceiling must fire.
            for (;;) std::this_thread::sleep_for(std::chrono::milliseconds(100));
        }
        if (serve_fault(spec, "oom")) {
            // Allocate and touch until the supervisor's RSS ceiling kills
            // us. Bounded as a backstop so a supervisor bug cannot OOM the
            // host.
            crash_set_stage("oom-fault");
            std::vector<char*> blocks;
            constexpr std::size_t kBlock = 8u << 20;
            for (std::size_t total = 0; total < (4ull << 30); total += kBlock) {
                char* block = static_cast<char*>(::malloc(kBlock));
                if (block == nullptr) break;
                std::memset(block, 0x5A, kBlock);
                blocks.push_back(block);
                std::this_thread::sleep_for(std::chrono::milliseconds(2));
            }
            std::abort();  // unreachable under a working supervisor
        }

        JobOutcome outcome = run_flow_job(spec);
        outcome.worker_job_seq = seq;
        beating.store(false, std::memory_order_relaxed);

        const Status sent =
            write_frame(result_fd, MsgKind::WorkerResult, encode_job_outcome(outcome));
        // _exit, not exit: the child shares the daemon's global state and
        // must not run its atexit hooks or flush its inherited streams.
        if (!sent.is_ok()) ::_exit(3);
    }
}

// ---- Parent side ----------------------------------------------------------

WorkerProcess::~WorkerProcess() {
    if (running()) {
        ::kill(pid_, SIGKILL);
        wait_exit(pid_);
    }
}

Status WorkerProcess::start(const WorkerLimits& limits) {
    limits_ = limits;
    LILY_RETURN_IF_ERROR(dispatch_pipe_.open());
    LILY_RETURN_IF_ERROR(result_pipe_.open());
    LILY_RETURN_IF_ERROR(control_pipe_.open());
    // The supervisor writes dispatch frames; a worker dying mid-write must
    // surface as EPIPE, not kill the writing process.
    ignore_sigpipe();

    const pid_t parent = ::getpid();
    const pid_t pid = ::fork();
    if (pid < 0) {
        return Status(StatusCode::Internal, std::string("fork: ") + std::strerror(errno));
    }
    if (pid == 0) {
        dispatch_pipe_.close_write();
        result_pipe_.close_read();
        control_pipe_.close_read();
        isolate_child(parent, dispatch_pipe_.read_fd, result_pipe_.write_fd,
                      control_pipe_.write_fd);
        worker_pool_main(dispatch_pipe_.read_fd, result_pipe_.write_fd,
                         control_pipe_.write_fd);
    }
    pid_ = pid;
    dispatch_pipe_.close_read();
    result_pipe_.close_write();
    control_pipe_.close_write();
    set_nonblocking(result_pipe_.read_fd);
    set_nonblocking(control_pipe_.read_fd);
    return Status::ok();
}

Status WorkerProcess::dispatch(const JobSpec& spec) {
    if (!running()) {
        return Status(StatusCode::Internal, "dispatch to a dead worker");
    }
    if (busy_) {
        return Status(StatusCode::Internal, "dispatch to a busy worker");
    }
    if (retiring_) {
        return Status(StatusCode::Internal, "dispatch to a retiring worker");
    }
    // Arm the per-job supervision window before writing: the write itself
    // counts against the job's wall clock.
    busy_ = true;
    has_job_result_ = false;
    job_start_ms_ = now_ms();
    last_beat_ms_ = job_start_ms_;
    job_heartbeats_ = 0;
    job_peak_rss_ = 0;
    // Blocking write is deadlock-free: an idle worker sits in read_frame
    // actively draining, so even a frame larger than the pipe buffer
    // streams through. A write error means the frame did not arrive whole
    // (the child will see a truncated stream and exit); the job has not
    // started and the caller may safely requeue it and respawn the worker.
    const Status sent = write_frame(dispatch_pipe_.write_fd, MsgKind::JobDispatch,
                                    encode_job_spec(spec));
    if (!sent.is_ok()) {
        busy_ = false;
        return Status(sent).with_context("dispatch to worker pid " + std::to_string(pid_));
    }
    return Status::ok();
}

void WorkerProcess::retire() {
    if (retiring_) return;
    retiring_ = true;
    dispatch_pipe_.close_write();  // EOF tells the child to finish and exit
}

double WorkerProcess::heartbeat_age_ms() const {
    if (!busy()) return 0.0;
    return now_ms() - last_beat_ms_;
}

void WorkerProcess::kill_now(WorkerEnd reason, const std::string& why) {
    if (kill_sent_ || pid_ <= 0) return;
    kill_sent_ = true;
    kill_reason_ = reason;
    kill_why_ = why;
    ::kill(pid_, SIGKILL);
}

void WorkerProcess::drain_pipes() {
    bool eof = false;
    read_available(result_pipe_.read_fd, result_buffer_, &eof);
    std::string control;
    read_available(control_pipe_.read_fd, control, &eof);
    for (const char c : control) {
        if (c == kHeartbeatByte) {
            last_beat_ms_ = now_ms();
            if (busy_) ++job_heartbeats_;
        } else {
            crash_text_.push_back(c);
        }
    }
}

bool WorkerProcess::try_take_result_frame() {
    Frame frame;
    bool bad = false;
    if (!try_extract_frame(result_buffer_, frame, &bad)) {
        if (bad) {
            kill_now(WorkerEnd::Crashed, "worker wrote a corrupt result frame");
        }
        return false;
    }
    JobOutcome outcome;
    bool decoded = false;
    if (frame.kind == MsgKind::WorkerResult) {
        WireReader r(frame.payload);
        decoded = decode_job_outcome(r, outcome);
    }
    if (!decoded) {
        kill_now(WorkerEnd::Crashed, "worker wrote an undecodable result frame");
        return false;
    }
    job_result_ = WorkerResult{};
    job_result_.end = WorkerEnd::Completed;
    job_result_.outcome = std::move(outcome);
    job_result_.elapsed_ms = now_ms() - job_start_ms_;
    job_result_.peak_rss_bytes = job_peak_rss_;
    job_result_.heartbeats = job_heartbeats_;
    busy_ = false;
    has_job_result_ = true;
    ++jobs_completed_;
    return true;
}

WorkerResult WorkerProcess::take_job_result() {
    has_job_result_ = false;
    return std::move(job_result_);
}

bool WorkerProcess::poll() {
    if (done_) return true;
    if (pid_ <= 0) return false;
    drain_pipes();
    if (busy_) try_take_result_frame();

    // Ceilings are per job: an idle warm worker is unsupervised by design
    // (it is blocked in read_frame, silent, holding no job).
    if (busy_ && !kill_sent_) {
        const double now = now_ms();
        if (limits_.wall_ms > 0.0 && now - job_start_ms_ > limits_.wall_ms) {
            kill_now(WorkerEnd::WallKilled, "wall-clock ceiling (" +
                                                format_fixed(limits_.wall_ms, 0) +
                                                "ms) breached");
        } else if (limits_.heartbeat_timeout_ms > 0.0 &&
                   now - last_beat_ms_ > limits_.heartbeat_timeout_ms) {
            kill_now(WorkerEnd::HeartbeatKilled,
                     "no heartbeat for " + format_fixed(now - last_beat_ms_, 0) + "ms");
        } else if (limits_.rss_bytes > 0) {
            const std::size_t rss = process_rss_bytes(pid_);
            if (rss > job_peak_rss_) job_peak_rss_ = rss;
            if (rss > limits_.rss_bytes) {
                kill_now(WorkerEnd::RssKilled,
                         "resident set " + std::to_string(rss / (1u << 20)) +
                             "MB over ceiling " +
                             std::to_string(limits_.rss_bytes / (1u << 20)) + "MB");
            }
        }
    }

    const ExitStatus exit_status = try_wait(pid_);
    if (exit_status.running()) return has_job_result_;
    drain_pipes();  // collect anything written between the last drain and exit
    if (busy_) try_take_result_frame();  // a result can race the exit
    finalize(exit_status);
    return true;
}

void WorkerProcess::finalize(const ExitStatus& exit_status) {
    done_ = true;
    result_ = WorkerResult{};
    result_.elapsed_ms = busy_ ? now_ms() - job_start_ms_ : 0.0;
    result_.peak_rss_bytes = job_peak_rss_;
    result_.heartbeats = job_heartbeats_;

    if (kill_sent_) {
        result_.end = kill_reason_;
        result_.crash_info = kill_why_;
        if (!crash_text_.empty()) result_.crash_info += "; " + crash_text_;
        return;
    }
    if (exit_status.kind == ExitKind::Exited && exit_status.code == 0) {
        if (!busy_) {
            // Clean idle exit: EOF-retirement (or, defensively, any clean
            // exit between jobs — nothing was lost either way).
            result_.end = WorkerEnd::Retired;
            result_.crash_info = retiring_ ? "" : "worker exited while idle";
            return;
        }
        result_.end = WorkerEnd::Crashed;
        result_.crash_info = "worker exited 0 without a valid result frame";
        return;
    }
    result_.end = WorkerEnd::Crashed;
    result_.crash_info = "worker " + exit_status.to_string();
    if (!crash_text_.empty()) {
        // The crash reporter's line: "CRASH sig=N stage=... fault=...".
        std::string line = crash_text_;
        while (!line.empty() && (line.back() == '\n' || line.back() == '\r')) line.pop_back();
        result_.crash_info += "; " + line;
    }
}

WorkerResult run_job_sandboxed(const JobSpec& spec, const WorkerLimits& limits) {
    WorkerProcess worker;
    Status status = worker.start(limits);
    if (status.is_ok()) status = worker.dispatch(spec);
    if (!status.is_ok()) {
        WorkerResult failed;
        failed.end = WorkerEnd::Crashed;
        failed.crash_info = status.to_string();
        return failed;
    }
    for (;;) {
        if (worker.poll()) {
            if (worker.has_job_result()) return worker.take_job_result();
            if (worker.done()) return worker.take_result();
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
}

}  // namespace lily
