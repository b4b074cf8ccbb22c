#include "serve/protocol.hpp"

#include <cstring>

#include "util/crc.hpp"
#include "util/io.hpp"

namespace lily {

// ---- WireWriter / WireReader ----------------------------------------------

void WireWriter::u16(std::uint16_t v) {
    char b[2] = {static_cast<char>(v & 0xFF), static_cast<char>(v >> 8)};
    out_.append(b, sizeof(b));
}

void WireWriter::u32(std::uint32_t v) {
    char b[4];
    for (int i = 0; i < 4; ++i) b[i] = static_cast<char>((v >> (8 * i)) & 0xFF);
    out_.append(b, sizeof(b));
}

void WireWriter::u64(std::uint64_t v) {
    char b[8];
    for (int i = 0; i < 8; ++i) b[i] = static_cast<char>((v >> (8 * i)) & 0xFF);
    out_.append(b, sizeof(b));
}

void WireWriter::f64(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    u64(bits);
}

void WireWriter::str(std::string_view s) {
    u32(static_cast<std::uint32_t>(s.size()));
    out_.append(s.data(), s.size());
}

bool WireReader::take(void* dst, std::size_t n) {
    if (!ok_ || data_.size() - pos_ < n) {
        ok_ = false;
        return false;
    }
    std::memcpy(dst, data_.data() + pos_, n);
    pos_ += n;
    return true;
}

bool WireReader::u8(std::uint8_t& v) { return take(&v, 1); }

bool WireReader::u16(std::uint16_t& v) {
    unsigned char b[2];
    if (!take(b, sizeof(b))) return false;
    v = static_cast<std::uint16_t>(b[0] | (b[1] << 8));
    return true;
}

bool WireReader::u32(std::uint32_t& v) {
    unsigned char b[4];
    if (!take(b, sizeof(b))) return false;
    v = 0;
    for (int i = 3; i >= 0; --i) v = (v << 8) | b[i];
    return true;
}

bool WireReader::u64(std::uint64_t& v) {
    unsigned char b[8];
    if (!take(b, sizeof(b))) return false;
    v = 0;
    for (int i = 7; i >= 0; --i) v = (v << 8) | b[i];
    return true;
}

bool WireReader::f64(double& v) {
    std::uint64_t bits = 0;
    if (!u64(bits)) return false;
    std::memcpy(&v, &bits, sizeof(v));
    return true;
}

bool WireReader::str(std::string& s) {
    std::uint32_t len = 0;
    if (!u32(len)) return false;
    if (data_.size() - pos_ < len) {
        ok_ = false;
        return false;
    }
    s.assign(data_.data() + pos_, len);
    pos_ += len;
    return true;
}

// ---- Frames ---------------------------------------------------------------

namespace {

void put_u32le(std::string& out, std::uint32_t v) {
    for (int i = 0; i < 4; ++i) out.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
}

std::uint32_t get_u32le(const unsigned char* p) {
    std::uint32_t v = 0;
    for (int i = 3; i >= 0; --i) v = (v << 8) | p[i];
    return v;
}

std::uint16_t get_u16le(const unsigned char* p) {
    return static_cast<std::uint16_t>(p[0] | (p[1] << 8));
}

}  // namespace

std::string encode_frame(MsgKind kind, std::string payload) {
    std::string out;
    out.reserve(kHeaderBytes + payload.size() + 4);
    put_u32le(out, kFrameMagic);
    out.push_back(static_cast<char>(static_cast<std::uint16_t>(kind) & 0xFF));
    out.push_back(static_cast<char>(static_cast<std::uint16_t>(kind) >> 8));
    out.push_back(0);
    out.push_back(0);
    put_u32le(out, static_cast<std::uint32_t>(payload.size()));
    out += payload;
    put_u32le(out, crc32(payload));
    return out;
}

Status write_frame(int fd, MsgKind kind, std::string payload) {
    const std::string bytes = encode_frame(kind, std::move(payload));
    return write_full(fd, bytes.data(), bytes.size());
}

Status read_frame(int fd, Frame& out) {
    unsigned char header[kHeaderBytes];
    LILY_RETURN_IF_ERROR(read_full(fd, header, sizeof(header)));
    if (get_u32le(header) != kFrameMagic) {
        return Status(StatusCode::InvariantViolation, "read_frame: bad magic");
    }
    const std::uint16_t kind = get_u16le(header + 4);
    const std::uint32_t length = get_u32le(header + 8);
    if (length > kMaxPayload) {
        return Status(StatusCode::InvariantViolation,
                      "read_frame: oversized payload (" + std::to_string(length) + " bytes)");
    }
    out.kind = static_cast<MsgKind>(kind);
    out.payload.resize(length);
    if (length > 0) {
        Status read = read_full(fd, out.payload.data(), length);
        if (!read.is_ok()) return read.with_context("read_frame payload");
    }
    unsigned char crc_bytes[4];
    Status crc_read = read_full(fd, crc_bytes, sizeof(crc_bytes));
    if (!crc_read.is_ok()) return crc_read.with_context("read_frame crc");
    if (get_u32le(crc_bytes) != crc32(out.payload)) {
        return Status(StatusCode::InvariantViolation, "read_frame: payload CRC mismatch");
    }
    return Status::ok();
}

bool try_extract_frame(std::string& buffer, Frame& out, bool* bad) {
    if (bad != nullptr) *bad = false;
    if (buffer.size() < kHeaderBytes) return false;
    const auto* p = reinterpret_cast<const unsigned char*>(buffer.data());
    if (get_u32le(p) != kFrameMagic) {
        if (bad != nullptr) *bad = true;
        return false;
    }
    const std::uint16_t kind = get_u16le(p + 4);
    const std::uint32_t length = get_u32le(p + 8);
    if (length > kMaxPayload) {
        if (bad != nullptr) *bad = true;
        return false;
    }
    const std::size_t total = kHeaderBytes + static_cast<std::size_t>(length) + 4;
    if (buffer.size() < total) return false;
    const std::string_view payload(buffer.data() + kHeaderBytes, length);
    const std::uint32_t crc =
        get_u32le(reinterpret_cast<const unsigned char*>(buffer.data()) + kHeaderBytes + length);
    if (crc != crc32(payload)) {
        if (bad != nullptr) *bad = true;
        return false;
    }
    out.kind = static_cast<MsgKind>(kind);
    out.payload.assign(payload);
    buffer.erase(0, total);
    return true;
}

// ---- Messages -------------------------------------------------------------

std::string encode_job_spec(const JobSpec& spec) {
    WireWriter w;
    w.u32(kProtocolVersion);
    w.str(spec.name);
    w.str(spec.blif);
    w.str(spec.genlib);
    w.u8(static_cast<std::uint8_t>(spec.options.kind));
    w.u8(static_cast<std::uint8_t>(spec.options.objective));
    w.u8(static_cast<std::uint8_t>(spec.options.check));
    w.u8(static_cast<std::uint8_t>(spec.options.verify));
    w.f64(spec.options.budget_ms);
    w.u32(spec.options.threads);
    w.str(spec.fault_spec);
    w.u8(static_cast<std::uint8_t>(spec.tier));
    return w.take();
}

bool decode_job_spec(WireReader& r, JobSpec& out) {
    std::uint32_t version = 0;
    std::uint8_t kind = 0;
    std::uint8_t objective = 0;
    std::uint8_t check = 0;
    std::uint8_t verify = 0;
    std::uint8_t tier = 0;
    const bool ok = r.u32(version) && r.str(out.name) && r.str(out.blif) &&
                    r.str(out.genlib) && r.u8(kind) && r.u8(objective) && r.u8(check) &&
                    r.u8(verify) && r.f64(out.options.budget_ms) &&
                    r.u32(out.options.threads) && r.str(out.fault_spec) && r.u8(tier);
    if (!ok || version != kProtocolVersion) return false;
    if (kind > 2 || objective > 1 || check > 2 || verify > 2 || tier > 1) return false;
    out.options.kind = static_cast<FlowKind>(kind);
    out.options.objective = static_cast<MapObjective>(objective);
    out.options.check = static_cast<CheckLevel>(check);
    out.options.verify = static_cast<VerifyLevel>(verify);
    out.tier = static_cast<JobTier>(tier);
    return true;
}

std::string encode_job_outcome(const JobOutcome& outcome) {
    WireWriter w;
    w.u8(static_cast<std::uint8_t>(outcome.state));
    w.u8(static_cast<std::uint8_t>(outcome.status_code));
    w.str(outcome.status_message);
    w.u32(outcome.retries);
    w.u8(static_cast<std::uint8_t>(outcome.tier));
    w.str(outcome.crash_info);
    w.f64(outcome.elapsed_ms);
    w.u8(static_cast<std::uint8_t>(outcome.blif_cache));
    w.u8(static_cast<std::uint8_t>(outcome.genlib_cache));
    w.u32(outcome.worker_job_seq);
    w.u64(static_cast<std::uint64_t>(outcome.metrics.gate_count));
    w.f64(outcome.metrics.cell_area);
    w.f64(outcome.metrics.chip_area);
    w.f64(outcome.metrics.wirelength);
    w.f64(outcome.metrics.critical_delay);
    w.f64(outcome.metrics.max_congestion);
    w.str(outcome.report_json);
    w.str(outcome.mapped_blif);
    w.u32(static_cast<std::uint32_t>(outcome.stage_times.size()));
    for (const StageTime& st : outcome.stage_times) {
        w.str(st.name);
        w.f64(st.elapsed_ms);
    }
    return w.take();
}

bool decode_job_outcome(WireReader& r, JobOutcome& out) {
    std::uint8_t state = 0;
    std::uint8_t code = 0;
    std::uint8_t tier = 0;
    std::uint8_t blif_cache = 0;
    std::uint8_t genlib_cache = 0;
    std::uint64_t gates = 0;
    const bool ok = r.u8(state) && r.u8(code) && r.str(out.status_message) &&
                    r.u32(out.retries) && r.u8(tier) && r.str(out.crash_info) &&
                    r.f64(out.elapsed_ms) && r.u8(blif_cache) && r.u8(genlib_cache) &&
                    r.u32(out.worker_job_seq) && r.u64(gates) &&
                    r.f64(out.metrics.cell_area) && r.f64(out.metrics.chip_area) &&
                    r.f64(out.metrics.wirelength) && r.f64(out.metrics.critical_delay) &&
                    r.f64(out.metrics.max_congestion) && r.str(out.report_json) &&
                    r.str(out.mapped_blif);
    if (!ok || state > 4 || code > 6 || tier > 1 || blif_cache > 2 || genlib_cache > 2) {
        return false;
    }
    std::uint32_t n_stages = 0;
    if (!r.u32(n_stages)) return false;
    // One attempt executes at most a handful of stages; a count beyond the
    // table size only comes from a corrupt frame.
    if (n_stages > 64) return false;
    out.stage_times.clear();
    out.stage_times.reserve(n_stages);
    for (std::uint32_t i = 0; i < n_stages; ++i) {
        StageTime st;
        if (!r.str(st.name) || !r.f64(st.elapsed_ms)) return false;
        out.stage_times.push_back(std::move(st));
    }
    out.state = static_cast<JobState>(state);
    out.status_code = static_cast<StatusCode>(code);
    out.tier = static_cast<JobTier>(tier);
    out.blif_cache = static_cast<CacheProbe>(blif_cache);
    out.genlib_cache = static_cast<CacheProbe>(genlib_cache);
    out.metrics.gate_count = static_cast<std::size_t>(gates);
    return true;
}

std::string encode_submit_reply(const SubmitReply& reply) {
    WireWriter w;
    w.u8(reply.accepted ? 1 : 0);
    w.u64(reply.job_id);
    w.u32(reply.retry_after_ms);
    w.str(reply.message);
    return w.take();
}

bool decode_submit_reply(WireReader& r, SubmitReply& out) {
    std::uint8_t accepted = 0;
    const bool ok = r.u8(accepted) && r.u64(out.job_id) && r.u32(out.retry_after_ms) &&
                    r.str(out.message);
    out.accepted = accepted != 0;
    return ok;
}

std::string encode_wait_request(const WaitRequest& req) {
    WireWriter w;
    w.u64(req.job_id);
    w.u32(req.timeout_ms);
    return w.take();
}

bool decode_wait_request(WireReader& r, WaitRequest& out) {
    return r.u64(out.job_id) && r.u32(out.timeout_ms);
}

std::string encode_result_reply(const ResultReply& reply) {
    WireWriter w;
    w.u8(reply.found ? 1 : 0);
    w.u8(reply.terminal ? 1 : 0);
    w.u8(static_cast<std::uint8_t>(reply.state));
    w.str(encode_job_outcome(reply.outcome));
    return w.take();
}

bool decode_result_reply(WireReader& r, ResultReply& out) {
    std::uint8_t found = 0;
    std::uint8_t terminal = 0;
    std::uint8_t state = 0;
    std::string outcome_bytes;
    if (!(r.u8(found) && r.u8(terminal) && r.u8(state) && r.str(outcome_bytes))) return false;
    if (state > 4) return false;
    out.found = found != 0;
    out.terminal = terminal != 0;
    out.state = static_cast<JobState>(state);
    WireReader inner(outcome_bytes);
    return decode_job_outcome(inner, out.outcome);
}

std::string encode_health_reply(const HealthReply& reply) {
    WireWriter w;
    w.u8(reply.ok ? 1 : 0);
    w.u64(reply.uptime_ms);
    w.u32(reply.workers_busy);
    w.u32(reply.workers_total);
    w.u32(reply.queue_depth);
    w.u32(reply.queue_capacity);
    w.u64(reply.max_heartbeat_age_ms);
    w.u64(reply.cache_hits);
    w.u64(reply.cache_misses);
    w.u64(reply.workers_recycled);
    w.u64(reply.workers_respawned);
    return w.take();
}

bool decode_health_reply(WireReader& r, HealthReply& out) {
    std::uint8_t ok = 0;
    const bool good = r.u8(ok) && r.u64(out.uptime_ms) && r.u32(out.workers_busy) &&
                      r.u32(out.workers_total) && r.u32(out.queue_depth) &&
                      r.u32(out.queue_capacity) && r.u64(out.max_heartbeat_age_ms) &&
                      r.u64(out.cache_hits) && r.u64(out.cache_misses) &&
                      r.u64(out.workers_recycled) && r.u64(out.workers_respawned);
    out.ok = ok != 0;
    return good;
}

std::string encode_shutdown_request(const ShutdownRequest& req) {
    WireWriter w;
    w.u8(req.drain ? 1 : 0);
    return w.take();
}

bool decode_shutdown_request(WireReader& r, ShutdownRequest& out) {
    std::uint8_t drain = 0;
    if (!r.u8(drain)) return false;
    out.drain = drain != 0;
    return true;
}

}  // namespace lily
