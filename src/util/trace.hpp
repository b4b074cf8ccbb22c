// Structured tracing for the flow engine: a tree of flow records and spans
// collected while a flow runs, rendered as JSON-lines.
//
// Each StageScope opens one span per stage execution, stamps it with the
// stage's terminal StageState, retry count and note, and closes it with the
// exact elapsed value it added to FlowDiagnostics, so a trace consumer can
// cross-check the two for equality. Inside a stage, a TracePhase opens a
// child span per phase of the work (the mapper's "inchoate-place", "dp",
// ...). Counters are scalar observations stamped on the span they describe;
// end_span adds every span's heap-allocation delta and peak RSS.
//
// A sink is a thread-safe recorder, but its span stack assumes one flow's
// nested begin/end pairs come from one thread, which the serial flows
// guarantee; two concurrent flows should use two sinks.
//
// Emission: LILY_TRACE=<path> makes the outermost checked flow entry point
// append its records, and those of every flow it calls, to <path> in one
// write. FlowOptions::trace instead hands the flow a sink the caller owns
// (lily_lint --json folds it into its report).
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/alloc_stats.hpp"
#include "util/budget.hpp"
#include "util/status.hpp"

namespace lily {

class JsonWriter;

struct TraceSpan {
    std::uint64_t flow_id = 0;  // the innermost flow open when the span began
    std::string name;           // a stage_name(), or a phase name below depth 1
    int depth = 1;              // 1 + the spans open when this one began
    double start_ms = 0.0;      // offset from the sink's epoch
    double elapsed_ms = 0.0;    // a stage span: exactly what the stage added to diagnostics
    std::string state;          // StageState string at close ("" for a phase)
    std::uint64_t retries = 0;
    std::string note;
    bool closed = false;
    /// Observations stamped on this span, in order; end_span appends
    /// alloc_count, alloc_bytes (heap delta over the span) and rss_peak_kb.
    std::vector<std::pair<std::string, double>> counters;
};

/// One flow-entry record: the root its stage spans nest under.
struct TraceFlow {
    std::uint64_t id = 0;      // unique within the process
    std::uint64_t parent = 0;  // the flow open when this one began (0: none)
    std::string name;          // entry-point label ("run_lily_flow_checked", ...)
    double start_ms = 0.0;
    double elapsed_ms = 0.0;
    bool closed = false;
};

class TraceSink {
public:
    using Clock = StageBudget::Clock;

    TraceSink() : epoch_(Clock::now()) {}
    TraceSink(const TraceSink&) = delete;
    TraceSink& operator=(const TraceSink&) = delete;

    /// Open a flow record; returns its id. Spans begun while it is the
    /// innermost open flow belong to it.
    std::uint64_t begin_flow(std::string_view name);
    void end_flow(std::uint64_t id);

    /// Open a span that started at `start`, nested under the innermost open
    /// span (depth grows with open spans). Returns a handle for counter()
    /// and end_span.
    std::size_t begin_span(std::string_view name, Clock::time_point start);
    /// Close a span `elapsed_ms` after its start and stamp its memory
    /// counters.
    void end_span(std::size_t handle, double elapsed_ms, std::string_view state = "",
                  std::uint64_t retries = 0, std::string_view note = "");
    /// Stamp counter `name` on the span `handle`.
    void counter(std::size_t handle, std::string_view name, double value);

    std::vector<TraceFlow> flows() const;
    std::vector<TraceSpan> spans() const;
    /// Every span and flow record closed — the invariant the trace contract
    /// asserts on the emitted file.
    bool all_closed() const;

    /// Render every record as JSON-lines:
    ///   {"type":"flow","id":N,"parent":P,"name":...,"start_ms":...,
    ///    "elapsed_ms":...,"closed":...}
    ///   {"type":"span","flow":N,"name":...,"depth":D,"start_ms":...,
    ///    "elapsed_ms":...,"state":...,"retries":R,"note":...,"closed":...,
    ///    "counters":{"<name>":value,...}}
    std::string to_jsonl() const;

    /// Append to_jsonl() to `path` in one write (O_APPEND semantics via
    /// std::ofstream app mode).
    Status append_to_file(const std::string& path) const;

private:
    struct OpenSpan {
        std::size_t handle;
        AllocStats alloc0;  // heap counters at begin_span
    };

    double now_ms() const;

    mutable std::mutex mu_;
    Clock::time_point epoch_;
    std::vector<TraceFlow> flows_;
    std::vector<TraceSpan> spans_;
    std::vector<std::uint64_t> flow_stack_;  // innermost open flow last
    std::vector<OpenSpan> span_stack_;       // innermost open span last
};

/// The record fields of a flow or a span, written into the caller's open
/// JSON object (the JSON-lines dump and the --json report share them).
void write_fields(JsonWriter& w, const TraceFlow& f);
void write_fields(JsonWriter& w, const TraceSpan& s);

/// The calling thread's active sink: the one the innermost live
/// FlowContext on this thread traces into, nullptr when there is none.
inline thread_local TraceSink* t_active_sink = nullptr;

/// RAII child span for one phase of the work inside a stage, opened on the
/// thread's active sink. Without an active sink it costs one thread-local
/// load: no clock read, no allocation.
class TracePhase {
public:
    explicit TracePhase(std::string_view name) : sink_(t_active_sink) {
        if (sink_ != nullptr) open(name);
    }
    ~TracePhase() {
        if (sink_ != nullptr) close();
    }
    TracePhase(const TracePhase&) = delete;
    TracePhase& operator=(const TracePhase&) = delete;

private:
    void open(std::string_view name);
    void close();

    TraceSink* sink_;
    std::size_t span_ = 0;
    TraceSink::Clock::time_point t0_{};
};

/// LILY_TRACE environment variable (empty when unset). Read on every call
/// so tests can flip it between flows.
std::string trace_path_from_env();

}  // namespace lily
