#include "flow/report.hpp"

namespace lily {

void write_check_report(JsonWriter& w, const CheckReport& report) {
    w.begin_array();
    for (const CheckIssue& issue : report.issues()) {
        w.begin_object();
        w.kv("severity", to_string(issue.severity));
        w.kv("stage", to_string(issue.stage));
        if (issue.node != kNoCheckNode) w.kv("node", static_cast<std::uint64_t>(issue.node));
        w.kv("message", issue.message);
        w.end_object();
    }
    w.end_array();
}

void write_flow_diagnostics(JsonWriter& w, const FlowDiagnostics& diag) {
    w.begin_array();
    for (const StageDiagnostics& s : diag.stages) {
        w.begin_object();
        w.kv("name", s.name);
        w.kv("state", to_string(s.state));
        w.kv("elapsed_ms", s.elapsed_ms);
        w.kv("retries", static_cast<std::uint64_t>(s.retries));
        if (!s.note.empty()) w.kv("note", s.note);
        w.end_object();
    }
    w.end_array();
}

void write_flow_metrics(JsonWriter& w, const FlowMetrics& metrics) {
    w.begin_object();
    w.kv("gate_count", static_cast<std::uint64_t>(metrics.gate_count));
    w.kv("cell_area", metrics.cell_area);
    w.kv("chip_area", metrics.chip_area);
    w.kv("wirelength", metrics.wirelength);
    w.kv("critical_delay", metrics.critical_delay);
    w.kv("max_congestion", metrics.max_congestion);
    w.end_object();
}

void write_trace(JsonWriter& w, const TraceSink& trace) {
    w.begin_object();
    w.key("flows").begin_array();
    for (const TraceFlow& f : trace.flows()) {
        w.begin_object();
        write_fields(w, f);
        w.end_object();
    }
    w.end_array();
    w.key("spans").begin_array();
    for (const TraceSpan& s : trace.spans()) {
        w.begin_object();
        write_fields(w, s);
        w.end_object();
    }
    w.end_array();
    w.end_object();
}

std::string flow_report_json(const Status& status, const FlowDiagnostics* diag,
                             const FlowMetrics* metrics, const CheckReport* check,
                             const TraceSink* trace) {
    JsonWriter w;
    w.begin_object();
    w.key("status").begin_object();
    w.kv("code", to_string(status.code()));
    w.kv("ok", status.is_ok());
    if (!status.message().empty()) w.kv("message", status.message());
    w.end_object();
    w.kv("degraded", diag != nullptr && diag->degraded());
    if (diag != nullptr) {
        w.key("stages");
        write_flow_diagnostics(w, *diag);
    }
    if (metrics != nullptr) {
        w.key("metrics");
        write_flow_metrics(w, *metrics);
    }
    if (check != nullptr) {
        w.key("check");
        write_check_report(w, *check);
    }
    if (trace != nullptr) {
        w.key("trace");
        write_trace(w, *trace);
    }
    w.end_object();
    return w.str();
}

}  // namespace lily
