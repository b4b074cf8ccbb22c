#!/usr/bin/env python3
"""Validate a LILY_TRACE JSON-lines dump against a --json flow report.

Usage: check_trace.py <trace-file> <report-json-file>

A trace is a tree. A flow record names its entry point and the flow it was
called from ("parent", 0 for none). A depth-1 span is a stage (a
stage_name(), as in the report's "stages"); a deeper span is a child of the
nearest earlier span one level up: a phase (PHASES) or a stage of a flow
called inside it. Each span carries its own "counters".

Checks (all hard failures):
  * records parse, are flows or spans, and are closed; flow ids are
    unique, parents exist, and flow names are live entry points
    (FLOW_LABELS, the flow_label constants in src/flow/stage.hpp);
  * depth-1 spans are stages the report knows; deeper spans are stages or
    phases, lie inside their parent, and siblings do not overlap;
  * per-stage span sums equal the report's elapsed_ms (each StageScope
    feeds the identical increment to both);
  * every span carries MEMORY_COUNTERS; every counter is finite and >= 0;
  * a stage's STAGE_COUNTERS come as a full set or none, and are required
    where the stage always produces them (see check_counters); verify's
    fallback is 0 (certificate) or 1 (SAT sweeping); qp_assemblies is 1
    per placed netlist (>= 2 under a "replace" phase);
  * completed Lily mapping and eco-mapping spans have exactly LILY_PHASES
    and ECO_PHASES as children;
  * the report's embedded "trace" block agrees with the file dump.

It also prints the share of the Lily mapping spans' time their phases
cover (reported, not gated). Exit code 0 on success, 1 on any violation.
"""
import json
import math
import sys


FROM_FILES_FLOW = "run_flow_from_files"
LILY_FLOW = "run_lily_flow_checked"
FLOW_LABELS = ("run_baseline_flow_checked", LILY_FLOW, "run_backend_checked",
               "run_eco_flow_checked", FROM_FILES_FLOW, "run_flow_job")
LILY_PHASES = ("placement-view", "assemble", "pads", "inchoate-place",
               "cone-order", "dp", "extract")
ECO_PHASES = ("setup", "cone-order", "dp", "extract")
PHASES = set(LILY_PHASES) | set(ECO_PHASES) | {"replace"}
MEMORY_COUNTERS = ("alloc_count", "alloc_bytes", "rss_peak_kb")
QP_COUNTERS = ("qp_assemblies", "cg_iterations", "cg_residual")
ROUTER_COUNTERS = ("connections", "mazed", "maze_expanded", "overflow", "kept")
STAGE_COUNTERS = {
    "mapping": QP_COUNTERS,
    "placement": QP_COUNTERS,
    "routing": ROUTER_COUNTERS,
    "eco-routing": ROUTER_COUNTERS,
    "verify": ("sat_calls", "conflicts", "merged_nodes", "cex_pruned",
               "obligations", "fallback"),
    "parse-genlib": ("gates", "patterns", "skipped"),
}
PROVING_NOTES = ("proven", "proof inconclusive")
COMPLETED_STATES = ("ok", "degraded")
EPS_MS = 1e-6


def fail(msg):
    print(f"check_trace: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def end_ms(span):
    return span["start_ms"] + span["elapsed_ms"]


def read_trace(path):
    flows, spans = [], []
    with open(path, "r", encoding="utf-8") as f:
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
            else:
                fail(f"line {lineno} has unknown record type {kind!r}")
    return flows, spans


def link_tree(spans, stages):
    """Give every span its "children" list, checking the nesting rules."""
    open_at = []  # open_at[d - 1]: the latest span at depth d
    last_stage_of_flow = {}
    for s in spans:
        s["children"] = []
        depth = s.get("depth", 0)
        if depth == 1:
            if s["name"] not in stages:
                fail(f"depth-1 span {s['name']!r} is not a stage the report knows "
                     f"(not a stage_name())")
            prev = last_stage_of_flow.get(s["flow"])
            if prev is not None and s["start_ms"] < end_ms(prev) - EPS_MS:
                fail(f"stage span {s['name']!r} overlaps the earlier {prev['name']!r}")
            last_stage_of_flow[s["flow"]] = s
        else:
            if depth < 1 or depth > len(open_at) + 1:
                fail(f"span {s['name']!r} at depth {depth!r} has no parent")
            if s["name"] not in stages and s["name"] not in PHASES:
                fail(f"span {s['name']!r} is neither a stage nor a known phase")
            parent = open_at[depth - 2]
            if s["start_ms"] < parent["start_ms"] - EPS_MS or \
                    end_ms(s) > end_ms(parent) + EPS_MS:
                fail(f"span {s['name']!r} lies outside its parent {parent['name']!r}")
            if parent["children"] and \
                    s["start_ms"] < end_ms(parent["children"][-1]) - EPS_MS:
                fail(f"span {s['name']!r} overlaps its sibling "
                     f"{parent['children'][-1]['name']!r}")
            parent["children"].append(s)
        del open_at[depth - 1:]
        open_at.append(s)


def has_descendant(span, name):
    return any(c["name"] == name or has_descendant(c, name) for c in span["children"])


def check_counters(span, flow_names):
    name, counters = span["name"], span.get("counters", {})
    own = STAGE_COUNTERS.get(name, ())
    for key, value in counters.items():
        if key not in MEMORY_COUNTERS and key not in own:
            fail(f"{name} span carries unknown counter {key!r}")
        if not isinstance(value, (int, float)) or not math.isfinite(value) or value < 0:
            fail(f"{name} span counter {key!r} is not a finite number >= 0: {value!r}")
    missing = [k for k in MEMORY_COUNTERS if k not in counters]
    if missing:
        fail(f"{name} span lacks its memory counters {missing!r}")
    present = [k for k in own if k in counters]
    if present and len(present) != len(own):
        fail(f"{name} span has an incomplete counter set {sorted(present)!r}")
    state, flow = span.get("state"), flow_names.get(span["flow"])
    required = {
        "placement": state in COMPLETED_STATES,
        "routing": state in COMPLETED_STATES,
        "eco-routing": state in COMPLETED_STATES,
        "verify": span.get("note", "").startswith(PROVING_NOTES),
        "parse-genlib": flow == FROM_FILES_FLOW and state != "failed",
        "mapping": flow == LILY_FLOW and state in COMPLETED_STATES,
    }.get(name, False)
    if required and not present:
        fail(f"{name} span lacks its counters {list(own)!r}")
    if name == "verify" and present and counters["fallback"] not in (0, 1):
        fail(f"verify fallback must be 0 or 1, got {counters['fallback']!r}")
    if own == QP_COUNTERS and present:
        assemblies = counters["qp_assemblies"]
        if counters["cg_iterations"] != int(counters["cg_iterations"]):
            fail(f"{name} span: cg_iterations {counters['cg_iterations']!r} is not an integer")
        if has_descendant(span, "replace"):
            if assemblies < 2:
                fail(f"{name} span: qp_assemblies {assemblies!r} with re-placement "
                     f"rounds, expected >= 2")
        elif assemblies != 1:
            fail(f"{name} span: qp_assemblies {assemblies!r}, expected 1")


def check_phases(span, flow_names):
    """Completed mapping spans carry their mapper's phases as children."""
    if span.get("state") not in COMPLETED_STATES:
        return
    if span["name"] == "mapping" and flow_names.get(span["flow"]) == LILY_FLOW:
        want = LILY_PHASES
    elif span["name"] == "eco-mapping":
        want = ECO_PHASES
    else:
        return
    got = tuple(c["name"] for c in span["children"])
    if got != want:
        fail(f"{span['name']} span has phases {list(got)!r}, expected {list(want)!r}")


def main():
    if len(sys.argv) != 3:
        fail("usage: check_trace.py <trace-file> <report-json-file>")
    trace_path, report_path = sys.argv[1], sys.argv[2]

    with open(report_path, "r", encoding="utf-8") as f:
        report = json.load(f)
    stages = {s["name"]: s for s in report.get("stages", [])}
    if not stages:
        fail("report carries no stages array")

    flows, spans = read_trace(trace_path)
    if not flows:
        fail("trace carries no flow records")
    if not spans:
        fail("trace carries no span records")
    for rec in flows + spans:
        if not rec.get("closed"):
            fail(f"unclosed record: {rec}")

    flow_names = {}
    for rec in flows:
        if rec.get("id") in flow_names:
            fail(f"flow id {rec.get('id')!r} appears twice")
        flow_names[rec.get("id")] = rec.get("name")
        if rec.get("name") not in FLOW_LABELS:
            fail(f"flow record names {rec.get('name')!r}, which is not a live "
                 f"entry point {FLOW_LABELS!r}")
    for rec in flows:
        if rec.get("parent", 0) != 0 and rec["parent"] not in flow_names:
            fail(f"flow {rec['id']!r} names parent {rec['parent']!r}, which is not in the trace")

    link_tree(spans, stages)

    sums = {}
    for s in spans:
        if s["name"] in stages:
            sums[s["name"]] = sums.get(s["name"], 0.0) + s["elapsed_ms"]
    for name, total in sums.items():
        want = stages[name]["elapsed_ms"]
        if abs(total - want) > 1e-9 * max(1.0, abs(want)):
            fail(f"stage {name!r}: span sum {total!r} != report elapsed {want!r}")

    for s in spans:
        check_counters(s, flow_names)
        check_phases(s, flow_names)

    embedded = report.get("trace")
    if embedded is None:
        fail("report is missing its embedded trace block")
    if len(embedded.get("spans", [])) != len(spans):
        fail(f"embedded trace has {len(embedded.get('spans', []))} spans, "
             f"file dump has {len(spans)}")

    lily = [s for s in spans if s["name"] == "mapping" and s["children"]]
    if lily:
        covered = sum(c["elapsed_ms"] for s in lily for c in s["children"])
        total = sum(s["elapsed_ms"] for s in lily)
        print(f"check_trace: phases cover {100.0 * covered / max(total, 1e-12):.1f}% of "
              f"{len(lily)} Lily mapping span(s), {total:.3f} ms")
    print(f"check_trace: ok — {len(spans)} spans across {len(flows)} flows, "
          f"{len(sums)} stages, sums consistent with diagnostics")


if __name__ == "__main__":
    main()
