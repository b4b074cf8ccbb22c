// The one machine-readable report format shared by every surface that
// renders a flow outcome: lily_lint --json, the serving daemon's per-job
// verdicts, and the bench harnesses. Keeping a single serializer here means
// a dashboard that parses a served job's verdict parses the CLI's output
// unchanged — same keys, same stage states, same status taxonomy.
#pragma once

#include <string>

#include "check/check.hpp"
#include "flow/diagnostics.hpp"
#include "flow/flow.hpp"
#include "util/json.hpp"
#include "util/status.hpp"
#include "util/trace.hpp"

namespace lily {

/// Append {"severity","stage","node","message"} issue objects as a JSON
/// array under the current writer position.
void write_check_report(JsonWriter& w, const CheckReport& report);

/// Append the per-stage diagnostics array ({"name","state","elapsed_ms",
/// "retries","note"} per stage).
void write_flow_diagnostics(JsonWriter& w, const FlowDiagnostics& diag);

/// Append the flow metrics object.
void write_flow_metrics(JsonWriter& w, const FlowMetrics& metrics);

/// Append the trace as an object of its flow and span records, with the
/// fields of the JSON-lines dump (TraceSink::to_jsonl):
///   {"flows": [{"id","parent","name",...}, ...],
///    "spans": [{"flow","name","depth",...,"counters":{...}}, ...]}
/// A stage span's elapsed_ms carries the exact increment its StageScope
/// added to the stage's FlowDiagnostics entry, so summing stage spans by
/// name reproduces the "stages" elapsed figures bit-for-bit.
void write_trace(JsonWriter& w, const TraceSink& trace);

/// The complete report document:
///   {"status": {"code","ok","message"},
///    "degraded": bool,
///    "stages": [...],          (when diag != nullptr)
///    "metrics": {...},         (when metrics != nullptr)
///    "check": [...],           (when check != nullptr)
///    "trace": {...}}           (when trace != nullptr)
std::string flow_report_json(const Status& status, const FlowDiagnostics* diag,
                             const FlowMetrics* metrics, const CheckReport* check = nullptr,
                             const TraceSink* trace = nullptr);

}  // namespace lily
