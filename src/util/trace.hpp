// Structured tracing for the flow engine: spans and counters collected by
// each StageScope while a flow runs, rendered as JSON-lines.
//
// A TraceSink is an in-memory recorder. Each StageScope opens one span per
// stage execution (nested under a per-flow record), stamps it with the
// stage's terminal StageState, retry count and note, and closes it with the
// exact elapsed value it added to FlowDiagnostics — so a trace consumer can
// cross-check the two surfaces for equality, not just plausibility.
// Counters carry scalar observations (cache hits, shed decisions, queue
// depths) outside the span tree.
//
// Sinks are thread-safe recorders but the span *stack* (depth bookkeeping)
// assumes the nested begin/end pairs of one flow come from one thread —
// which the single-threaded flows guarantee. Two concurrent flows
// should use two sinks.
//
// Emission: LILY_TRACE=<path> makes every checked flow entry point append
// its records to <path> on completion (one JSON object per line, whole-file
// single write per flow, so concurrent flows interleave at line
// granularity). FlowOptions::trace instead hands the flow an explicit sink
// the caller owns — lily_lint --json uses this to fold the trace into its
// report document.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "util/budget.hpp"
#include "util/status.hpp"

namespace lily {

struct TraceSpan {
    std::uint64_t flow_id = 0;  // which flow record this span belongs to
    std::string name;           // stage name from the shared table
    int depth = 1;              // nesting level under the flow record
    double start_ms = 0.0;      // offset from the sink's epoch
    double elapsed_ms = 0.0;    // exactly what the stage added to diagnostics
    std::string state;          // StageState string at close
    std::uint64_t retries = 0;
    std::string note;
    bool closed = false;
};

/// One flow-entry record: the root every stage span nests under.
struct TraceFlow {
    std::uint64_t id = 0;
    std::string name;  // entry-point label ("run_lily_flow_checked", ...)
    double start_ms = 0.0;
    double elapsed_ms = 0.0;
    bool closed = false;
};

struct TraceCounter {
    std::string name;
    double value = 0.0;
};

class TraceSink {
public:
    TraceSink() : epoch_(StageBudget::Clock::now()) {}
    TraceSink(const TraceSink&) = delete;
    TraceSink& operator=(const TraceSink&) = delete;

    /// Open a flow record; returns its id. Spans begun while it is the
    /// innermost open flow nest under it.
    std::uint64_t begin_flow(std::string_view name);
    void end_flow(std::uint64_t id);

    /// Open a stage span under the innermost open flow. Returns a span
    /// handle for end_span. Depth grows with open (unclosed) spans.
    std::size_t begin_span(std::string_view name);
    void end_span(std::size_t handle, double elapsed_ms, std::string_view state,
                  std::uint64_t retries, std::string_view note);

    void counter(std::string_view name, double value);

    std::vector<TraceFlow> flows() const;
    std::vector<TraceSpan> spans() const;
    std::vector<TraceCounter> counters() const;
    /// Every span and flow record closed — the invariant the CI trace smoke
    /// asserts on the emitted file.
    bool all_closed() const;

    /// Render every record as JSON-lines:
    ///   {"type":"flow","id":N,"name":...,"start_ms":...,"elapsed_ms":...}
    ///   {"type":"span","flow":N,"name":...,"depth":D,"start_ms":...,
    ///    "elapsed_ms":...,"state":...,"retries":R,"note":...}
    ///   {"type":"counter","name":...,"value":...}
    std::string to_jsonl() const;

    /// Append to_jsonl() to `path` in one write (O_APPEND semantics via
    /// std::ofstream app mode).
    Status append_to_file(const std::string& path) const;

private:
    double now_ms() const;

    mutable std::mutex mu_;
    StageBudget::Clock::time_point epoch_;
    std::vector<TraceFlow> flows_;
    std::vector<TraceSpan> spans_;
    std::vector<TraceCounter> counters_;
    std::vector<std::uint64_t> flow_stack_;  // innermost open flow last
    std::vector<std::size_t> span_stack_;    // open span handles, for depth
    std::uint64_t next_flow_id_ = 1;
};

/// LILY_TRACE environment variable (empty when unset). Read on every call
/// so tests can flip it between flows.
std::string trace_path_from_env();

}  // namespace lily
