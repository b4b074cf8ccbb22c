#!/usr/bin/env python3
"""Validate a LILY_TRACE JSON-lines dump against a --json flow report.

Usage: check_trace.py <trace-file> <report-json-file>

Checks (all hard failures):
  * the trace parses as JSON-lines with flow/span/counter records;
  * every flow and span record is closed (no scope leaked);
  * every span name is a stage the report knows — i.e. it comes from the
    shared stage-name table in src/flow/stage.cpp, the same names the
    FlowDiagnostics "stages" array uses;
  * per-stage span sums equal the report's per-stage elapsed_ms figures
    (the executor feeds the identical increment to both sides, so the
    match is exact up to float round-trip);
  * memory counters (alloc_count.<stage> / alloc_bytes.<stage> /
    rss_peak_kb.<stage>) reference known stages, are non-negative, and
    arrive exactly one triple per span — the StageScope destructor emits
    them together with the span close;
  * mapping phase counters (mapping.inchoate_place_ms / cone_order_ms /
    dp_ms / replace_ms) come as one full set per Lily mapping span, just
    before that span's memory triple; each is non-negative and their sum
    fits inside the span (a wire-blind mapping span carries none);
  * the report's embedded "trace" block agrees with the file dump.

Exit code 0 on success, 1 on any violation.
"""
import json
import sys


MAPPING_PHASES = ("mapping.inchoate_place_ms", "mapping.cone_order_ms",
                  "mapping.dp_ms", "mapping.replace_ms")


def fail(msg):
    print(f"check_trace: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def main():
    if len(sys.argv) != 3:
        fail("usage: check_trace.py <trace-file> <report-json-file>")
    trace_path, report_path = sys.argv[1], sys.argv[2]

    with open(report_path, "r", encoding="utf-8") as f:
        report = json.load(f)
    stages = {s["name"]: s for s in report.get("stages", [])}
    if not stages:
        fail("report carries no stages array")

    flows, spans, counters = [], [], []
    with open(trace_path, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as e:
                fail(f"line {lineno} is not valid JSON: {e}")
            kind = rec.get("type")
            if kind == "flow":
                flows.append(rec)
            elif kind == "span":
                spans.append(rec)
            elif kind == "counter":
                counters.append(rec)
            else:
                fail(f"line {lineno} has unknown record type {kind!r}")
    if not flows:
        fail("trace carries no flow records")
    if not spans:
        fail("trace carries no span records")

    for rec in flows + spans:
        if not rec.get("closed"):
            fail(f"unclosed record: {rec}")

    for s in spans:
        if s["name"] not in stages:
            fail(f"span name {s['name']!r} is not a stage the report knows "
                 f"(shared stage table violation)")

    sums = {}
    for s in spans:
        sums[s["name"]] = sums.get(s["name"], 0.0) + s["elapsed_ms"]
    for name, total in sums.items():
        want = stages[name]["elapsed_ms"]
        if abs(total - want) > 1e-9 * max(1.0, abs(want)):
            fail(f"stage {name!r}: span sum {total!r} != report elapsed {want!r}")

    # Memory counters: one alloc_count/alloc_bytes/rss_peak_kb triple per
    # span, each naming a known stage, each value non-negative.
    span_count = {}
    for s in spans:
        span_count[s["name"]] = span_count.get(s["name"], 0) + 1
    mem_prefixes = ("alloc_count.", "alloc_bytes.", "rss_peak_kb.")
    mem_count = {p: {} for p in mem_prefixes}
    for c in counters:
        name, value = c.get("name", ""), c.get("value", 0.0)
        for p in mem_prefixes:
            if not name.startswith(p):
                continue
            stage = name[len(p):]
            if stage not in stages:
                fail(f"counter {name!r} references unknown stage {stage!r}")
            if value < 0:
                fail(f"counter {name!r} is negative: {value!r}")
            mem_count[p][stage] = mem_count[p].get(stage, 0) + 1
    for p in mem_prefixes:
        if mem_count[p] != span_count:
            fail(f"{p}* counters per stage {mem_count[p]!r} do not match "
                 f"span executions {span_count!r}")

    # Mapping phase counters: pending ones belong to the mapping span whose
    # alloc_count.mapping closes them (spans and their memory triples are
    # both recorded in order, one flow at a time per sink).
    mapping_spans = [s for s in spans if s["name"] == "mapping"]
    pending, closed = {}, 0
    for c in counters:
        name, value = c.get("name", ""), c.get("value", 0.0)
        if name.startswith("mapping."):
            if name not in MAPPING_PHASES:
                fail(f"unknown mapping phase counter {name!r}")
            if name in pending:
                fail(f"counter {name!r} repeated within one mapping span")
            if value < 0:
                fail(f"counter {name!r} is negative: {value!r}")
            pending[name] = value
        elif name == "alloc_count.mapping":
            if pending:
                if len(pending) != len(MAPPING_PHASES):
                    fail(f"mapping span {closed} has an incomplete phase set "
                         f"{sorted(pending)!r}")
                span_ms = mapping_spans[closed]["elapsed_ms"]
                if sum(pending.values()) > span_ms:
                    fail(f"mapping span {closed}: phase sum {sum(pending.values())!r} "
                         f"exceeds the span's {span_ms!r} ms")
            pending = {}
            closed += 1
    if pending:
        fail(f"mapping phase counters {sorted(pending)!r} follow the last mapping span")

    embedded = report.get("trace")
    if embedded is None:
        fail("report is missing its embedded trace block")
    if len(embedded.get("spans", [])) != len(spans):
        fail(f"embedded trace has {len(embedded.get('spans', []))} spans, "
             f"file dump has {len(spans)}")

    print(f"check_trace: ok — {len(spans)} spans across {len(flows)} flows, "
          f"{len(sums)} stages, {len(counters)} counters, "
          f"sums consistent with diagnostics")


if __name__ == "__main__":
    main()
