#include "serve/server.hpp"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "util/io.hpp"
#include "util/json.hpp"

namespace lily {

namespace {

// SIGTERM/SIGINT request a graceful stop; the loop polls this flag. Plain
// volatile sig_atomic_t: the only writer is the handler in this process.
volatile std::sig_atomic_t g_stop_requested = 0;

extern "C" void stop_handler(int) { g_stop_requested = 1; }

double now_ms() {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double stage_percentile(std::vector<double> samples, double p) {
    if (samples.empty()) return 0.0;
    std::sort(samples.begin(), samples.end());
    const double rank = p * static_cast<double>(samples.size() - 1);
    const std::size_t idx = static_cast<std::size_t>(rank + 0.5);
    return samples[std::min(idx, samples.size() - 1)];
}

}  // namespace

void ServeStats::record_stage_times(const std::vector<StageTime>& times) {
    for (const StageTime& st : times) {
        StageLatency& lat = stage_latency[st.name];
        ++lat.count;
        if (lat.ring.size() < kStageSampleCap) {
            lat.ring.push_back(st.elapsed_ms);
        } else {
            lat.ring[lat.next] = st.elapsed_ms;
            lat.next = (lat.next + 1) % kStageSampleCap;
        }
    }
}

std::string ServeStats::to_json() const {
    JsonWriter w;
    w.begin_object();
    w.kv("submitted", submitted);
    w.kv("accepted", accepted);
    w.kv("shed", shed);
    w.kv("completed_ok", completed_ok);
    w.kv("completed_degraded", completed_degraded);
    w.kv("completed_error", completed_error);
    w.kv("worker_crashes", worker_crashes);
    w.kv("wall_kills", wall_kills);
    w.kv("rss_kills", rss_kills);
    w.kv("heartbeat_kills", heartbeat_kills);
    w.kv("retries", retries);
    w.kv("recovered_from_spool", recovered_from_spool);
    w.kv("cache_hits", cache_hits);
    w.kv("cache_misses", cache_misses);
    w.kv("workers_recycled", workers_recycled);
    w.kv("workers_respawned", workers_respawned);
    // {"<stage>": {"count","p50_ms","p99_ms"}}, stage names sorted — the
    // daemon's answer to "where does job time go".
    w.key("stage_timings").begin_object();
    for (const auto& entry : stage_latency) {
        w.key(entry.first).begin_object();
        w.kv("count", entry.second.count);
        w.kv("p50_ms", stage_percentile(entry.second.ring, 0.50));
        w.kv("p99_ms", stage_percentile(entry.second.ring, 0.99));
        w.end_object();
    }
    w.end_object();
    w.end_object();
    return w.str();
}

ServeServer::ServeServer(ServeOptions options)
    : options_(std::move(options)), spool_(options_.spool_dir) {
    slots_.resize(options_.workers);
}

ServeServer::~ServeServer() {
    for (Connection& conn : connections_) {
        if (conn.fd >= 0) ::close(conn.fd);
    }
    if (listen_fd_ >= 0) {
        ::close(listen_fd_);
        ::unlink(options_.socket_path.c_str());
    }
}

void ServeServer::log(const std::string& line) const {
    if (options_.verbose) std::fprintf(stderr, "lily_serve: %s\n", line.c_str());
}

Status ServeServer::setup_listener() {
    if (options_.socket_path.empty()) {
        return Status(StatusCode::Unsupported, "no socket path configured");
    }
    sockaddr_un addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sun_family = AF_UNIX;
    if (options_.socket_path.size() >= sizeof(addr.sun_path)) {
        return Status(StatusCode::Unsupported,
                      "socket path too long: " + options_.socket_path);
    }
    std::strncpy(addr.sun_path, options_.socket_path.c_str(), sizeof(addr.sun_path) - 1);

    listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (listen_fd_ < 0) {
        return Status(StatusCode::Internal, std::string("socket: ") + std::strerror(errno));
    }
    set_cloexec(listen_fd_);
    // A previous unclean shutdown can leave the socket file behind; a bind
    // failure on a stale path must not brick the restart.
    ::unlink(options_.socket_path.c_str());
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
        return Status(StatusCode::Internal,
                      "bind " + options_.socket_path + ": " + std::strerror(errno));
    }
    if (::listen(listen_fd_, 64) != 0) {
        return Status(StatusCode::Internal, std::string("listen: ") + std::strerror(errno));
    }
    LILY_RETURN_IF_ERROR(set_nonblocking(listen_fd_));
    return Status::ok();
}

Status ServeServer::recover_spool() {
    LILY_RETURN_IF_ERROR(spool_.ensure_dir());
    LILY_ASSIGN_OR_RETURN(std::vector<SpoolEntry> entries, spool_.scan());
    for (SpoolEntry& entry : entries) {
        next_job_id_ = std::max(next_job_id_, entry.id + 1);
        Job job;
        job.id = entry.id;
        job.spec = std::move(entry.spec);
        job.retries = entry.retries;
        job.spec.tier = entry.tier;
        if (job_state_terminal(entry.state) && entry.outcome.has_value()) {
            job.state = entry.state;
            job.outcome = std::move(*entry.outcome);
            jobs_.emplace(job.id, std::move(job));
            continue;
        }
        // Queued: the server died before running it. Running: the server
        // died (or was killed) mid-job — the worker died with it, so the
        // job is retried; the interrupted attempt counts as a retry and
        // drops the job to the degraded tier, mirroring the crash policy.
        if (entry.state == JobState::Running) {
            ++job.retries;
            ++stats_.retries;
            job.spec.tier = JobTier::Degraded;
        }
        if (job.retries > options_.max_retries) {
            JobOutcome failed;
            failed.state = JobState::Error;
            failed.status_code = StatusCode::Internal;
            failed.status_message = "job exceeded retry budget across server restarts";
            failed.tier = job.spec.tier;
            failed.retries = job.retries;
            job.state = JobState::Error;
            job.outcome = std::move(failed);
            jobs_.emplace(job.id, std::move(job));
            journal(jobs_.at(entry.id));
            continue;
        }
        job.state = JobState::Queued;
        ++stats_.recovered_from_spool;
        journal(job);
        queue_.push_back(job.id);
        jobs_.emplace(job.id, std::move(job));
        log("recovered job " + std::to_string(entry.id) + " from spool");
    }
    return Status::ok();
}

void ServeServer::journal(const Job& job) {
    SpoolEntry entry;
    entry.id = job.id;
    entry.state = job.state;
    entry.retries = job.retries;
    entry.tier = job.spec.tier;
    entry.spec = job.spec;
    if (job_state_terminal(job.state)) entry.outcome = job.outcome;
    const Status written = spool_.write(entry);
    if (!written.is_ok()) {
        // Degraded durability, not a server death: keep serving from
        // memory and say so loudly.
        std::fprintf(stderr, "lily_serve: spool write failed: %s\n",
                     written.to_string().c_str());
    }
}

Status ServeServer::run() {
    LILY_RETURN_IF_ERROR(setup_listener());
    LILY_RETURN_IF_ERROR(recover_spool());
    start_ms_ = now_ms();

    struct sigaction sa;
    std::memset(&sa, 0, sizeof(sa));
    sa.sa_handler = stop_handler;
    sigemptyset(&sa.sa_mask);
    sigaction(SIGTERM, &sa, nullptr);
    sigaction(SIGINT, &sa, nullptr);
    ignore_sigpipe();

    log("listening on " + options_.socket_path + " (" +
        std::to_string(options_.workers) + " workers, queue capacity " +
        std::to_string(options_.queue_capacity) + ", recycle after " +
        std::to_string(options_.recycle_after_jobs) + ")");
    // Prefork the pool before accepting traffic: the first burst must not
    // pay N forks.
    ensure_workers();

    while (true) {
        if (g_stop_requested != 0) {
            // SIGTERM: running workers are abandoned to the SIGKILL in
            // their destructors; their jobs stay `running` in the spool
            // and are recovered (as degraded retries) on restart.
            log("stop signal received; exiting");
            break;
        }
        if (shutting_down_) {
            // Warm workers idle between jobs; draining means "no queued
            // work and nothing in flight", not "no workers alive" — the
            // pool is SIGKILLed by the slot destructors on exit.
            const bool workers_idle = std::none_of(
                slots_.begin(), slots_.end(),
                [](const Slot& s) { return s.worker != nullptr && s.worker->busy(); });
            if (!drain_ || (queue_.empty() && workers_idle)) break;
        }
        loop_tick();
    }
    return Status::ok();
}

void ServeServer::loop_tick() {
    ensure_workers();
    dispatch_jobs();

    std::vector<pollfd> fds;
    fds.push_back({listen_fd_, POLLIN, 0});
    for (const Connection& conn : connections_) {
        short events = POLLIN;
        if (!conn.out.empty()) events |= POLLOUT;
        fds.push_back({conn.fd, events, 0});
    }
    for (const Slot& slot : slots_) {
        if (slot.worker != nullptr && slot.worker->running()) {
            fds.push_back({slot.worker->result_fd(), POLLIN, 0});
            fds.push_back({slot.worker->control_fd(), POLLIN, 0});
        }
    }
    // Short timeout: worker ceilings and retry backoffs need a steady tick
    // even when no fd is active.
    ::poll(fds.data(), fds.size(), 10);

    accept_clients();
    for (Connection& conn : connections_) service_connection(conn);
    poll_workers();

    // Wait timeouts.
    const double now = now_ms();
    for (Connection& conn : connections_) {
        if (conn.waiting && now >= conn.wait_deadline_ms) {
            conn.waiting = false;
            reply_result(conn, conn.wait_job);
        }
    }

    connections_.erase(
        std::remove_if(connections_.begin(), connections_.end(),
                       [](const Connection& conn) { return conn.fd < 0; }),
        connections_.end());
}

void ServeServer::accept_clients() {
    for (;;) {
        const int fd = ::accept(listen_fd_, nullptr, nullptr);
        if (fd < 0) {
            if (errno == EINTR) continue;
            return;  // EAGAIN or a transient error: try again next tick
        }
        set_nonblocking(fd);
        set_cloexec(fd);
        Connection conn;
        conn.fd = fd;
        connections_.push_back(std::move(conn));
    }
}

void ServeServer::send(Connection& conn, MsgKind kind, std::string payload) {
    conn.out += encode_frame(kind, std::move(payload));
}

void ServeServer::service_connection(Connection& conn) {
    if (conn.fd < 0) return;
    bool eof = false;
    read_available(conn.fd, conn.in, &eof);

    Frame frame;
    bool bad = false;
    while (try_extract_frame(conn.in, frame, &bad)) {
        handle_frame(conn, frame);
    }
    if (bad) {
        // Poisoned framing: drop the connection, not the server.
        ::close(conn.fd);
        conn.fd = -1;
        return;
    }

    if (!conn.out.empty()) {
        const ssize_t n = ::write(conn.fd, conn.out.data(), conn.out.size());
        if (n > 0) {
            conn.out.erase(0, static_cast<std::size_t>(n));
        } else if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) {
            ::close(conn.fd);
            conn.fd = -1;
            return;
        }
    }
    if (eof && conn.out.empty() && !conn.waiting) {
        ::close(conn.fd);
        conn.fd = -1;
    }
}

void ServeServer::handle_frame(Connection& conn, const Frame& frame) {
    switch (frame.kind) {
        case MsgKind::Submit: handle_submit(conn, frame); return;
        case MsgKind::Wait: handle_wait(conn, frame); return;
        case MsgKind::Health: {
            send(conn, MsgKind::HealthReply, encode_health_reply(health_snapshot()));
            return;
        }
        case MsgKind::Stats: {
            WireWriter w;
            w.str(stats_.to_json());
            send(conn, MsgKind::StatsReply, w.take());
            return;
        }
        case MsgKind::Shutdown: {
            WireReader r(frame.payload);
            ShutdownRequest req;
            decode_shutdown_request(r, req);
            shutting_down_ = true;
            drain_ = req.drain;
            send(conn, MsgKind::Ack, std::string());
            log(req.drain ? "drain shutdown requested" : "immediate shutdown requested");
            return;
        }
        default: {
            // Unknown request kind: answer with an empty Ack rather than
            // killing the connection — forward compatibility for probes.
            send(conn, MsgKind::Ack, std::string());
            return;
        }
    }
}

void ServeServer::handle_submit(Connection& conn, const Frame& frame) {
    ++stats_.submitted;
    WireReader r(frame.payload);
    JobSpec spec;
    SubmitReply reply;
    if (!decode_job_spec(r, spec)) {
        reply.accepted = false;
        reply.message = "malformed job spec";
        send(conn, MsgKind::SubmitReply, encode_submit_reply(reply));
        return;
    }
    if (shutting_down_) {
        reply.accepted = false;
        reply.message = "server shutting down";
        send(conn, MsgKind::SubmitReply, encode_submit_reply(reply));
        return;
    }
    if (queue_.size() >= options_.queue_capacity) {
        // Load shedding: reject with a retry-after hint scaled by depth.
        ++stats_.shed;
        reply.accepted = false;
        reply.retry_after_ms = static_cast<std::uint32_t>(
            50 + 25 * std::min<std::size_t>(queue_.size(), 64));
        reply.message = "queue full (depth " + std::to_string(queue_.size()) + ")";
        send(conn, MsgKind::SubmitReply, encode_submit_reply(reply));
        return;
    }

    Job job;
    job.id = next_job_id_++;
    job.spec = std::move(spec);
    job.state = JobState::Queued;
    // Journal before acknowledging: "accepted" must mean "survives a kill".
    journal(job);
    queue_.push_back(job.id);
    const std::uint64_t id = job.id;
    jobs_.emplace(id, std::move(job));
    ++stats_.accepted;

    reply.accepted = true;
    reply.job_id = id;
    send(conn, MsgKind::SubmitReply, encode_submit_reply(reply));
    log("accepted job " + std::to_string(id) + " (queue depth " +
        std::to_string(queue_.size()) + ")");
}

void ServeServer::handle_wait(Connection& conn, const Frame& frame) {
    WireReader r(frame.payload);
    WaitRequest req;
    if (!decode_wait_request(r, req)) {
        ResultReply reply;
        send(conn, MsgKind::ResultReply, encode_result_reply(reply));
        return;
    }
    const auto it = jobs_.find(req.job_id);
    if (it != jobs_.end() && job_state_terminal(it->second.state)) {
        reply_result(conn, req.job_id);
        return;
    }
    if (req.timeout_ms == 0 || it == jobs_.end()) {
        reply_result(conn, req.job_id);
        return;
    }
    conn.waiting = true;
    conn.wait_job = req.job_id;
    conn.wait_deadline_ms = now_ms() + req.timeout_ms;
}

void ServeServer::reply_result(Connection& conn, std::uint64_t job_id) {
    ResultReply reply;
    const auto it = jobs_.find(job_id);
    if (it != jobs_.end()) {
        reply.found = true;
        reply.state = it->second.state;
        reply.terminal = job_state_terminal(it->second.state);
        if (reply.terminal) reply.outcome = it->second.outcome;
    }
    send(conn, MsgKind::ResultReply, encode_result_reply(reply));
}

void ServeServer::answer_waiters(std::uint64_t job_id) {
    for (Connection& conn : connections_) {
        if (conn.fd >= 0 && conn.waiting && conn.wait_job == job_id) {
            conn.waiting = false;
            reply_result(conn, job_id);
        }
    }
}

void ServeServer::ensure_workers() {
    if (shutting_down_ && !drain_) return;
    const double now = now_ms();
    for (Slot& slot : slots_) {
        if (slot.worker != nullptr) continue;
        if (now < slot.respawn_not_before_ms) continue;
        auto worker = std::make_unique<WorkerProcess>();
        const Status started = worker->start(options_.limits);
        if (!started.is_ok()) {
            // Fork pressure (EAGAIN/ENOMEM) is usually transient; back off
            // rather than spin. Queued jobs simply wait for a live slot.
            slot.respawn_not_before_ms = now + 200.0;
            log("worker spawn failed (retrying): " + started.message());
            continue;
        }
        slot.worker = std::move(worker);
        slot.job_id = 0;
        log("worker pid " + std::to_string(slot.worker->pid()) + " warm");
    }
}

void ServeServer::dispatch_jobs() {
    const double now = now_ms();
    for (Slot& slot : slots_) {
        if (slot.worker == nullptr || !slot.worker->idle()) continue;
        // Find the first runnable job (backoff gate honored, FIFO order).
        auto it = std::find_if(queue_.begin(), queue_.end(), [&](std::uint64_t id) {
            const auto job = jobs_.find(id);
            return job != jobs_.end() && now >= job->second.not_before_ms;
        });
        if (it == queue_.end()) return;
        const std::uint64_t id = *it;
        queue_.erase(it);
        Job& job = jobs_.at(id);
        job.state = JobState::Running;
        journal(job);

        const Status sent = slot.worker->dispatch(job.spec);
        if (!sent.is_ok()) {
            // The frame did not arrive whole, so the job never started:
            // requeue it without burning a retry, and replace the broken
            // worker. A small backoff keeps a persistent failure from
            // spinning the queue.
            log("dispatch failed: " + sent.message());
            job.state = JobState::Queued;
            job.not_before_ms = now + 50.0;
            journal(job);
            queue_.push_front(job.id);
            slot.worker->kill_now(WorkerEnd::Crashed, "dispatch write failed");
            continue;
        }
        slot.job_id = id;
        log("job " + std::to_string(id) + " -> worker pid " +
            std::to_string(slot.worker->pid()) + " (tier " + to_string(job.spec.tier) +
            ", worker job " + std::to_string(slot.worker->jobs_completed() + 1) + ")");
    }
}

void ServeServer::account_cache(const JobOutcome& outcome) {
    for (const CacheProbe probe : {outcome.blif_cache, outcome.genlib_cache}) {
        if (probe == CacheProbe::Hit) ++stats_.cache_hits;
        if (probe == CacheProbe::Miss) ++stats_.cache_misses;
    }
}

void ServeServer::poll_workers() {
    for (Slot& slot : slots_) {
        if (slot.worker == nullptr || !slot.worker->poll()) continue;

        // A completed job leaves the worker alive and idle for the next
        // dispatch — unless it hit the recycle threshold.
        if (slot.worker->has_job_result()) {
            WorkerResult result = slot.worker->take_job_result();
            const std::uint64_t job_id = slot.job_id;
            slot.job_id = 0;
            account_cache(result.outcome);
            const auto it = jobs_.find(job_id);
            if (it != jobs_.end()) {
                result.outcome.retries = it->second.retries;
                finish_job(it->second, std::move(result.outcome));
            }
            const std::uint32_t recycle_after = options_.recycle_after_jobs;  // 0 = never
            if (recycle_after > 0 && slot.worker->jobs_completed() >= recycle_after) {
                ++stats_.workers_recycled;
                log("worker pid " + std::to_string(slot.worker->pid()) + " retiring after " +
                    std::to_string(slot.worker->jobs_completed()) + " jobs");
                slot.worker->retire();
            }
        }

        if (!slot.worker->done()) continue;
        WorkerResult result = slot.worker->take_result();
        const std::uint64_t job_id = slot.job_id;
        slot.worker.reset();
        slot.job_id = 0;
        slot.respawn_not_before_ms = 0.0;  // replace immediately next tick

        if (result.end == WorkerEnd::Retired) continue;  // planned exit
        if (job_id == 0) {
            // Unplanned death between jobs (e.g. latent corruption from the
            // last input). No job was lost; just replace it.
            ++stats_.workers_respawned;
            log("idle worker died (" + std::string(to_string(result.end)) + ": " +
                result.crash_info + "); respawning");
            continue;
        }
        ++stats_.workers_respawned;
        const auto it = jobs_.find(job_id);
        if (it == jobs_.end()) continue;
        Job& job = it->second;
        switch (result.end) {
            case WorkerEnd::Completed:
            case WorkerEnd::Retired:
                break;  // unreachable: handled above
            case WorkerEnd::Crashed: ++stats_.worker_crashes; retry_or_fail(job, result); break;
            case WorkerEnd::WallKilled: ++stats_.wall_kills; retry_or_fail(job, result); break;
            case WorkerEnd::RssKilled: ++stats_.rss_kills; retry_or_fail(job, result); break;
            case WorkerEnd::HeartbeatKilled:
                ++stats_.heartbeat_kills;
                retry_or_fail(job, result);
                break;
        }
    }
}

void ServeServer::retry_or_fail(Job& job, const WorkerResult& result) {
    log("job " + std::to_string(job.id) + " " + to_string(result.end) + ": " +
        result.crash_info);
    if (job.retries < options_.max_retries) {
        ++job.retries;
        ++stats_.retries;
        job.spec.tier = JobTier::Degraded;
        job.state = JobState::Queued;
        job.not_before_ms =
            now_ms() + options_.retry_backoff_ms * static_cast<double>(job.retries);
        journal(job);
        queue_.push_back(job.id);
        return;
    }
    JobOutcome failed;
    failed.state = JobState::Error;
    // Resource-ceiling kills carry the budget taxonomy; crashes are
    // Internal. Either way the verdict is per-job — the server lives on.
    failed.status_code = (result.end == WorkerEnd::WallKilled ||
                          result.end == WorkerEnd::RssKilled)
                             ? StatusCode::BudgetExhausted
                             : StatusCode::Internal;
    failed.status_message =
        std::string("worker ") + to_string(result.end) + ": " + result.crash_info;
    failed.crash_info = result.crash_info;
    failed.retries = job.retries;
    failed.tier = job.spec.tier;
    failed.elapsed_ms = result.elapsed_ms;
    finish_job(job, std::move(failed));
}

void ServeServer::finish_job(Job& job, JobOutcome outcome) {
    job.state = outcome.state;
    if (!job_state_terminal(job.state)) {
        job.state = JobState::Error;
        outcome.state = JobState::Error;
    }
    job.outcome = std::move(outcome);
    stats_.record_stage_times(job.outcome.stage_times);
    journal(job);
    switch (job.state) {
        case JobState::Ok: ++stats_.completed_ok; break;
        case JobState::Degraded: ++stats_.completed_degraded; break;
        default: ++stats_.completed_error; break;
    }
    log("job " + std::to_string(job.id) + " terminal: " + to_string(job.state));
    answer_waiters(job.id);
}

HealthReply ServeServer::health_snapshot() const {
    HealthReply health;
    health.ok = !shutting_down_;
    health.uptime_ms = static_cast<std::uint64_t>(now_ms() - start_ms_);
    health.workers_total = options_.workers;
    health.queue_capacity = options_.queue_capacity;
    health.queue_depth = static_cast<std::uint32_t>(queue_.size());
    double max_age = 0.0;
    for (const Slot& slot : slots_) {
        if (slot.worker != nullptr && slot.worker->busy()) {
            ++health.workers_busy;
            max_age = std::max(max_age, slot.worker->heartbeat_age_ms());
        }
    }
    health.max_heartbeat_age_ms = static_cast<std::uint64_t>(max_age);
    health.cache_hits = stats_.cache_hits;
    health.cache_misses = stats_.cache_misses;
    health.workers_recycled = stats_.workers_recycled;
    health.workers_respawned = stats_.workers_respawned;
    return health;
}

}  // namespace lily
