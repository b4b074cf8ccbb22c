#!/usr/bin/env python3
"""Validate a LILY_TRACE JSON-lines dump against a --json flow report.

Usage: check_trace.py <trace-file> <report-json-file>

Checks (all hard failures):
  * the trace parses as JSON-lines with flow/span/counter records;
  * every flow and span record is closed (no scope leaked);
  * every flow record names a live entry point (FLOW_LABELS, the
    flow_label constants in src/flow/stage.hpp);
  * every span name is a stage the report knows — i.e. it comes from
    stage_name() in src/flow/stage.cpp, the same names the
    FlowDiagnostics "stages" array uses;
  * per-stage span sums equal the report's per-stage elapsed_ms figures
    (each StageScope feeds the identical increment to both sides, so the
    match is exact up to float round-trip);
  * memory counters (alloc_count.<stage> / alloc_bytes.<stage> /
    rss_peak_kb.<stage>) reference known stages, are non-negative, and
    arrive exactly one triple per span — the StageScope destructor emits
    them together with the span close;
  * mapping phase counters (mapping.inchoate_place_ms / cone_order_ms /
    dp_ms / replace_ms) and placement counters (mapping.qp_assemblies /
    cg_iterations / cg_residual) come as one full set per Lily mapping
    span, just before that span's memory triple; each is non-negative and
    the *_ms phases sum to no more than the span (a wire-blind mapping
    span carries none);
  * placement counters (placement.qp_assemblies / cg_iterations /
    cg_residual) come the same way, and every placement span that completed
    must carry them. Each placed netlist's Laplacian is assembled once:
    qp_assemblies is 1 per placement span and per mapping span without
    re-placement rounds (replace_ms == 0), and at least 2 with them;
    cg_iterations, summed over both axes and all solves, is a non-negative
    integer; cg_residual, the largest final CG residual norm of the span's
    solves, is finite and non-negative;
  * ECO mapping phase counters (eco-mapping.setup_ms / cone_order_ms /
    dp_ms / extract_ms) come the same way, and every eco-mapping span
    that completed (state ok or degraded) must carry them;
  * prover counters (verify.sat_calls / conflicts / merged_nodes /
    cex_pruned / obligations / fallback) come the same way: one full
    non-negative set per proving verify span, closed by
    alloc_count.verify. Every verify span whose note reports a proof
    ("proven ..." or "proof inconclusive ...") must carry the set, and
    verify.fallback is 0 (the mapping certificate proved it) or 1 (SAT
    sweeping did); a simulation-only verify span carries none;
  * library counters (parse-genlib.gates / patterns / skipped) come the
    same way, and every parse-genlib span of a run_flow_from_files flow
    that did not fail must carry them;
  * router counters (<stage>.connections / mazed / maze_expanded /
    overflow / kept) come the same way for the routing and eco-routing
    stages, and every such span that completed (state ok or degraded)
    must carry them;
  * the report's embedded "trace" block agrees with the file dump.

Exit code 0 on success, 1 on any violation.
"""
import json
import math
import sys


MAPPING_PHASES = ("mapping.inchoate_place_ms", "mapping.cone_order_ms",
                  "mapping.dp_ms", "mapping.replace_ms")
QP_COUNTERS = ("qp_assemblies", "cg_iterations", "cg_residual")
ECO_MAPPING_PHASES = ("eco-mapping.setup_ms", "eco-mapping.cone_order_ms",
                      "eco-mapping.dp_ms", "eco-mapping.extract_ms")
VERIFY_COUNTERS = ("verify.sat_calls", "verify.conflicts",
                   "verify.merged_nodes", "verify.cex_pruned",
                   "verify.obligations", "verify.fallback")
PROVING_NOTES = ("proven", "proof inconclusive")
GENLIB_COUNTERS = ("parse-genlib.gates", "parse-genlib.patterns",
                   "parse-genlib.skipped")
FROM_FILES_FLOW = "run_flow_from_files"
FLOW_LABELS = ("run_baseline_flow_checked", "run_lily_flow_checked",
               "run_backend_checked", "run_eco_flow_checked", FROM_FILES_FLOW,
               "run_flow_job")
ROUTING_STAGES = ("routing", "eco-routing")
ROUTER_COUNTERS = ("connections", "mazed", "maze_expanded", "overflow", "kept")
COMPLETED_STATES = ("ok", "degraded")


def fail(msg):
    print(f"check_trace: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def check_stage_counters(counters, spans, stage, names, sum_within_span,
                         required=lambda span: False):
    """Counters named <stage>.* must be from `names`, non-negative, and
    come as one full set (or none) per <stage> span. Pending ones belong to
    the span whose alloc_count.<stage> closes them (spans and their memory
    triples are both recorded in order, one flow at a time per sink). With
    `sum_within_span` the set's *_ms members must fit inside their span; a
    span for which `required(span)` holds must carry the set. Returns the
    per-span sets, one dict per <stage> span (empty when it carried none)."""
    stage_spans = [s for s in spans if s["name"] == stage]
    pending, closed, sets = {}, 0, []
    for c in counters:
        name, value = c.get("name", ""), c.get("value", 0.0)
        if name.startswith(stage + "."):
            if name not in names:
                fail(f"unknown {stage} counter {name!r}")
            if name in pending:
                fail(f"counter {name!r} repeated within one {stage} span")
            if not isinstance(value, (int, float)):
                fail(f"counter {name!r} is not a finite number: {value!r}")
            if value < 0:
                fail(f"counter {name!r} is negative: {value!r}")
            pending[name] = value
        elif name == "alloc_count." + stage:
            if not pending and required(stage_spans[closed]):
                fail(f"{stage} span {closed} lacks its counters {list(names)!r}")
            if pending:
                if len(pending) != len(names):
                    fail(f"{stage} span {closed} has an incomplete counter set "
                         f"{sorted(pending)!r}")
                span_ms = stage_spans[closed]["elapsed_ms"]
                ms_sum = sum(v for k, v in pending.items() if k.endswith("_ms"))
                if sum_within_span and ms_sum > span_ms:
                    fail(f"{stage} span {closed}: counter sum {ms_sum!r} "
                         f"exceeds the span's {span_ms!r} ms")
            sets.append(pending)
            pending = {}
            closed += 1
    if pending:
        fail(f"{stage} counters {sorted(pending)!r} follow the last {stage} span")
    return sets


def check_qp_counters(stage, sets):
    """qp_assemblies: 1 per placed netlist (see the module docstring);
    cg_iterations: a non-negative integer; cg_residual: finite, >= 0."""
    for i, got in enumerate(sets):
        if not got:
            continue
        assemblies = got[f"{stage}.qp_assemblies"]
        iterations = got[f"{stage}.cg_iterations"]
        residual = got[f"{stage}.cg_residual"]
        if iterations != int(iterations):
            fail(f"{stage} span {i}: cg_iterations {iterations!r} is not an integer")
        if not math.isfinite(residual) or residual < 0:
            fail(f"{stage} span {i}: cg_residual {residual!r} is not finite and >= 0")
        if got.get("mapping.replace_ms", 0.0) > 0.0:
            if assemblies < 2:
                fail(f"{stage} span {i}: qp_assemblies {assemblies!r} with re-placement "
                     f"rounds, expected >= 2")
        elif assemblies != 1:
            fail(f"{stage} span {i}: qp_assemblies {assemblies!r}, expected 1")


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

    for rec in flows:
        if rec.get("name") not in FLOW_LABELS:
            fail(f"flow record names {rec.get('name')!r}, which is not a live "
                 f"entry point {FLOW_LABELS!r}")

    for s in spans:
        if s["name"] not in stages:
            fail(f"span name {s['name']!r} is not a stage the report knows "
                 f"(not a stage_name())")

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

    check_qp_counters("mapping", check_stage_counters(
        counters, spans, "mapping",
        MAPPING_PHASES + tuple(f"mapping.{c}" for c in QP_COUNTERS), sum_within_span=True))
    check_qp_counters("placement", check_stage_counters(
        counters, spans, "placement", tuple(f"placement.{c}" for c in QP_COUNTERS),
        sum_within_span=False,
        required=lambda span: span.get("state") in COMPLETED_STATES))
    check_stage_counters(counters, spans, "eco-mapping", ECO_MAPPING_PHASES,
                         sum_within_span=True,
                         required=lambda span: span.get("state") in COMPLETED_STATES)
    check_stage_counters(counters, spans, "verify", VERIFY_COUNTERS, sum_within_span=False,
                         required=lambda span: span.get("note", "").startswith(PROVING_NOTES))
    for c in counters:
        if c.get("name") == "verify.fallback" and c.get("value") not in (0, 1):
            fail(f"verify.fallback must be 0 or 1, got {c.get('value')!r}")
    from_files = {f["id"] for f in flows if f.get("name") == FROM_FILES_FLOW}
    check_stage_counters(counters, spans, "parse-genlib", GENLIB_COUNTERS,
                         sum_within_span=False,
                         required=lambda span: span.get("flow") in from_files
                         and span.get("state") != "failed")

    for stage in ROUTING_STAGES:
        check_stage_counters(counters, spans, stage,
                             tuple(f"{stage}.{c}" for c in ROUTER_COUNTERS),
                             sum_within_span=False,
                             required=lambda span: span.get("state") in COMPLETED_STATES)

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
