// Wire protocol of the lily_serve daemon: length-prefixed, CRC-stamped
// frames over a unix-domain stream socket.
//
// Frame layout (all integers little-endian):
//
//   u32 magic   'LSRV' (0x4C535256)
//   u16 kind    MsgKind
//   u16 flags   reserved, must be 0
//   u32 length  payload byte count (bounded by kMaxPayload)
//   ...         payload (WireWriter encoding, per-message)
//   u32 crc     CRC-32 of the payload bytes
//
// The protocol is strict request/reply: a client sends one request frame
// and reads one reply frame. A CRC or framing violation poisons the
// connection (the server closes it); it never poisons the server. The same
// frame format carries the worker's JobOutcome over its result pipe, so a
// truncated write from a dying worker is detected by length/CRC exactly
// like a truncated socket message.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "flow/job.hpp"
#include "util/status.hpp"

namespace lily {

inline constexpr std::uint32_t kFrameMagic = 0x4C535256u;  // "LSRV"
inline constexpr std::size_t kHeaderBytes = 12;  // magic + kind + flags + length
inline constexpr std::uint32_t kMaxPayload = 64u << 20;    // 64 MB sanity bound
// v2: JobOutcome gained cache-probe diagnostics + worker job sequence;
// HealthReply gained artifact-cache and pool-lifecycle counters; the
// worker pipes gained JobDispatch (warm pool job hand-off).
// v3: JobOutcome gained per-stage wall times (stage_times), the raw
// samples behind the server's Stats "stage_timings" percentiles.
// v4: the artifact cache is gone — JobOutcome lost its cache probes and
// HealthReply its cache counters; JobSpec lost `threads` (a job runs on
// one thread); JobOutcome now leads with the version, like JobSpec.
inline constexpr std::uint32_t kProtocolVersion = 4;

enum class MsgKind : std::uint16_t {
    // Requests.
    Submit = 1,    // JobSpec -> SubmitReply (admission-controlled)
    Wait = 2,      // job id + timeout -> ResultReply
    Health = 3,    // -> HealthReply
    Stats = 4,     // -> StatsReply (JSON document)
    Shutdown = 5,  // drain flag -> Ack
    // Replies.
    SubmitReply = 64,
    ResultReply = 65,
    HealthReply = 66,
    StatsReply = 67,
    Ack = 68,
    // Worker pipes.
    WorkerResult = 128,  // JobOutcome from a sandboxed worker
    JobDispatch = 129,   // JobSpec to an idle pooled worker
};

// ---- Payload serialization ------------------------------------------------

/// Append-only little-endian encoder for frame payloads and spool records.
class WireWriter {
public:
    void u8(std::uint8_t v) { out_.push_back(static_cast<char>(v)); }
    void u16(std::uint16_t v);
    void u32(std::uint32_t v);
    void u64(std::uint64_t v);
    void f64(double v);
    void str(std::string_view s);  // u32 length + bytes

    const std::string& bytes() const { return out_; }
    std::string take() { return std::move(out_); }

private:
    std::string out_;
};

/// Bounds-checked decoder. Every getter returns false once the payload is
/// exhausted or malformed; check ok() (or the final getter) before trusting
/// the values.
class WireReader {
public:
    explicit WireReader(std::string_view data) : data_(data) {}
    // The reader does not own its bytes; a temporary string would dangle
    // before the first getter runs.
    explicit WireReader(std::string&&) = delete;

    bool u8(std::uint8_t& v);
    bool u16(std::uint16_t& v);
    bool u32(std::uint32_t& v);
    bool u64(std::uint64_t& v);
    bool f64(double& v);
    bool str(std::string& s);

    bool ok() const { return ok_; }
    bool at_end() const { return ok_ && pos_ == data_.size(); }

private:
    bool take(void* dst, std::size_t n);
    std::string_view data_;
    std::size_t pos_ = 0;
    bool ok_ = true;
};

// ---- Frames ---------------------------------------------------------------

struct Frame {
    MsgKind kind = MsgKind::Ack;
    std::string payload;
};

/// Serialize a frame (header + payload + CRC) into a byte string.
std::string encode_frame(MsgKind kind, std::string payload);

/// Blocking frame I/O with EINTR-hardened transfers. read_frame returns
/// Unsupported("eof") on a clean close before any byte, InvariantViolation
/// on magic/CRC/length violations, Internal on transport errors.
Status write_frame(int fd, MsgKind kind, std::string payload);
Status read_frame(int fd, Frame& out);

/// Incremental frame extraction for the server's non-blocking connections:
/// feed bytes into `buffer` as they arrive, then call try_extract_frame.
/// Returns true when a complete valid frame was removed from the front of
/// the buffer. `bad` is set when the buffer is poisoned (bad magic/CRC/
/// oversized length) and the connection should be dropped.
bool try_extract_frame(std::string& buffer, Frame& out, bool* bad);

// ---- Messages -------------------------------------------------------------

std::string encode_job_spec(const JobSpec& spec);
bool decode_job_spec(WireReader& r, JobSpec& out);

std::string encode_job_outcome(const JobOutcome& outcome);
bool decode_job_outcome(WireReader& r, JobOutcome& out);

struct SubmitReply {
    bool accepted = false;
    std::uint64_t job_id = 0;
    std::uint32_t retry_after_ms = 0;  // load-shed hint when rejected
    std::string message;
};

std::string encode_submit_reply(const SubmitReply& reply);
bool decode_submit_reply(WireReader& r, SubmitReply& out);

struct WaitRequest {
    std::uint64_t job_id = 0;
    std::uint32_t timeout_ms = 0;  // 0 = do not block, report current state
};

std::string encode_wait_request(const WaitRequest& req);
bool decode_wait_request(WireReader& r, WaitRequest& out);

struct ResultReply {
    bool found = false;      // id known to the server (or its spool)
    bool terminal = false;   // outcome valid
    JobState state = JobState::Queued;  // current lifecycle state
    JobOutcome outcome;      // meaningful when terminal
};

std::string encode_result_reply(const ResultReply& reply);
bool decode_result_reply(WireReader& r, ResultReply& out);

struct HealthReply {
    bool ok = false;
    std::uint64_t uptime_ms = 0;
    std::uint32_t workers_busy = 0;
    std::uint32_t workers_total = 0;
    std::uint32_t queue_depth = 0;
    std::uint32_t queue_capacity = 0;
    std::uint64_t max_heartbeat_age_ms = 0;  // oldest busy worker's silence
    // Warm-pool churn: planned recycles vs unplanned respawns.
    std::uint64_t workers_recycled = 0;
    std::uint64_t workers_respawned = 0;
};

std::string encode_health_reply(const HealthReply& reply);
bool decode_health_reply(WireReader& r, HealthReply& out);

struct ShutdownRequest {
    bool drain = false;  // finish queued jobs before exiting
};

std::string encode_shutdown_request(const ShutdownRequest& req);
bool decode_shutdown_request(WireReader& r, ShutdownRequest& out);

}  // namespace lily
