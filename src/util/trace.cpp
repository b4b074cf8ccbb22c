#include "util/trace.hpp"

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <fstream>

#include "util/json.hpp"

namespace lily {

namespace {

double ms_between(TraceSink::Clock::time_point from, TraceSink::Clock::time_point to) {
    return std::chrono::duration<double, std::milli>(to - from).count();
}

// Flow ids are unique within the process, so flows traced into one file by
// nested entry points (or by several sinks) never share an id.
std::atomic<std::uint64_t> next_flow_id{1};

}  // namespace

double TraceSink::now_ms() const { return ms_between(epoch_, Clock::now()); }

std::uint64_t TraceSink::begin_flow(std::string_view name) {
    std::lock_guard<std::mutex> lock(mu_);
    TraceFlow f;
    f.id = next_flow_id.fetch_add(1, std::memory_order_relaxed);
    f.parent = flow_stack_.empty() ? 0 : flow_stack_.back();
    f.name = std::string(name);
    f.start_ms = now_ms();
    flows_.push_back(std::move(f));
    flow_stack_.push_back(flows_.back().id);
    return flows_.back().id;
}

void TraceSink::end_flow(std::uint64_t id) {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& f : flows_) {
        if (f.id != id) continue;
        f.elapsed_ms = now_ms() - f.start_ms;
        f.closed = true;
        break;
    }
    if (!flow_stack_.empty() && flow_stack_.back() == id) flow_stack_.pop_back();
}

std::size_t TraceSink::begin_span(std::string_view name, Clock::time_point start) {
    std::lock_guard<std::mutex> lock(mu_);
    TraceSpan s;
    s.flow_id = flow_stack_.empty() ? 0 : flow_stack_.back();
    s.name = std::string(name);
    s.depth = static_cast<int>(span_stack_.size()) + 1;
    s.start_ms = ms_between(epoch_, start);
    spans_.push_back(std::move(s));
    const std::size_t handle = spans_.size() - 1;
    span_stack_.push_back(OpenSpan{handle, alloc_stats_snapshot()});
    return handle;
}

void TraceSink::end_span(std::size_t handle, double elapsed_ms, std::string_view state,
                         std::uint64_t retries, std::string_view note) {
    const AllocStats a1 = alloc_stats_snapshot();
    std::lock_guard<std::mutex> lock(mu_);
    // Spans close innermost first; one closed out of order stays open, which
    // all_closed() reports.
    if (span_stack_.empty() || span_stack_.back().handle != handle) return;
    const AllocStats a0 = span_stack_.back().alloc0;
    span_stack_.pop_back();
    TraceSpan& s = spans_[handle];
    s.elapsed_ms = elapsed_ms;
    s.state = std::string(state);
    s.retries = retries;
    s.note = std::string(note);
    s.closed = true;
    s.counters.emplace_back("alloc_count", static_cast<double>(a1.count - a0.count));
    s.counters.emplace_back("alloc_bytes", static_cast<double>(a1.bytes - a0.bytes));
    s.counters.emplace_back("rss_peak_kb", static_cast<double>(peak_rss_bytes() / 1024));
}

void TraceSink::counter(std::size_t handle, std::string_view name, double value) {
    std::lock_guard<std::mutex> lock(mu_);
    if (handle < spans_.size()) spans_[handle].counters.emplace_back(std::string(name), value);
}

std::vector<TraceFlow> TraceSink::flows() const {
    std::lock_guard<std::mutex> lock(mu_);
    return flows_;
}

std::vector<TraceSpan> TraceSink::spans() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_;
}

bool TraceSink::all_closed() const {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& f : flows_)
        if (!f.closed) return false;
    for (const auto& s : spans_)
        if (!s.closed) return false;
    return true;
}

void write_fields(JsonWriter& w, const TraceFlow& f) {
    w.kv("id", f.id);
    w.kv("parent", f.parent);
    w.kv("name", f.name);
    w.kv("start_ms", f.start_ms);
    w.kv("elapsed_ms", f.elapsed_ms);
    w.kv("closed", f.closed);
}

void write_fields(JsonWriter& w, const TraceSpan& s) {
    w.kv("flow", s.flow_id);
    w.kv("name", s.name);
    w.kv("depth", s.depth);
    w.kv("start_ms", s.start_ms);
    w.kv("elapsed_ms", s.elapsed_ms);
    w.kv("state", s.state);
    w.kv("retries", s.retries);
    w.kv("note", s.note);
    w.kv("closed", s.closed);
    w.key("counters").begin_object();
    for (const auto& [name, value] : s.counters) w.kv(name, value);
    w.end_object();
}

std::string TraceSink::to_jsonl() const {
    std::lock_guard<std::mutex> lock(mu_);
    std::string out;
    const auto line = [&](const char* type, const auto& record) {
        JsonWriter w;
        w.begin_object();
        w.kv("type", type);
        write_fields(w, record);
        w.end_object();
        out += w.str();
        out += '\n';
    };
    for (const auto& f : flows_) line("flow", f);
    for (const auto& s : spans_) line("span", s);
    return out;
}

Status TraceSink::append_to_file(const std::string& path) const {
    const std::string body = to_jsonl();
    std::ofstream out(path, std::ios::binary | std::ios::app);
    if (!out.good())
        return Status(StatusCode::Internal, "cannot open trace file: " + path);
    out << body;
    out.flush();
    if (!out.good()) return Status(StatusCode::Internal, "cannot write trace file: " + path);
    return Status::ok();
}

void TracePhase::open(std::string_view name) {
    t0_ = TraceSink::Clock::now();
    span_ = sink_->begin_span(name, t0_);
}

void TracePhase::close() {
    sink_->end_span(span_, ms_between(t0_, TraceSink::Clock::now()));
}

std::string trace_path_from_env() {
    const char* env = std::getenv("LILY_TRACE");
    return (env == nullptr) ? std::string() : std::string(env);
}

}  // namespace lily
