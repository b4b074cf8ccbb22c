#!/usr/bin/env python3
"""The trace contract: lily_lint's LILY_TRACE dumps pass scripts/check_trace.py,
and each mutation of a dump that breaks the contract fails it.

Usage: trace_contract.py <lily_lint> <source-dir> <run> [<mutation>]

<run> is one of RUNS: "flow" (the default verify level), "prove"
(LILY_VERIFY=prove) or "eco" (--eco=3), each over parity8 on msu_big. With
no mutation the run's trace must pass; with one (MUTATIONS[run]) the mutated
trace must fail, for the reason the mutation names.
"""
import json
import os
import subprocess
import sys
import tempfile


RUNS = {
    "flow": ([], {"LILY_VERIFY": "sim"}),
    "prove": ([], {"LILY_VERIFY": "prove"}),
    "eco": (["--eco=3"], {}),
}


def strip_counters(stage):
    """Keep only the memory counters on every `stage` span."""
    def mutate(records):
        for rec in records:
            if rec["type"] == "span" and rec["name"] == stage:
                rec["counters"] = {k: v for k, v in rec["counters"].items()
                                   if k in ("alloc_count", "alloc_bytes", "rss_peak_kb")}
        return records
    return mutate


def stale_label(records):
    """Rename the Lily flow to an entry point that no longer exists."""
    for rec in records:
        if rec["type"] == "flow" and rec["name"] == "run_lily_flow_checked":
            rec["name"] = "run_lily_flow"
    return records


def drop_eco_phases(records):
    """Drop the remap's phase spans."""
    return [r for r in records if not (r["type"] == "span" and r["depth"] > 1 and
                                       r["name"] in ("setup", "cone-order", "dp", "extract"))]


def shift_first_child(records):
    """Move the first depth-2 span to start just after its parent ends."""
    parent = None
    for rec in records:
        if rec["type"] != "span":
            continue
        if rec["depth"] == 1:
            parent = rec
        elif rec["depth"] == 2:
            rec["start_ms"] = parent["start_ms"] + parent["elapsed_ms"] + 1.0
            return records
    raise SystemExit("trace_contract: no child span to shift")


# run -> mutation -> (transform, a fragment of the failure message)
MUTATIONS = {
    "flow": {
        "stale-label": (stale_label, "not a live entry point"),
        "no-router-counters": (strip_counters("routing"), "routing span lacks its counters"),
        "no-placement-counters": (strip_counters("placement"),
                                  "placement span lacks its counters"),
        "child-outside-parent": (shift_first_child, "outside its parent"),
    },
    "prove": {
        "no-verify-counters": (strip_counters("verify"), "verify span lacks its counters"),
    },
    "eco": {
        "no-eco-mapping-phases": (drop_eco_phases, "eco-mapping span has phases"),
    },
}


def main():
    if len(sys.argv) not in (4, 5):
        raise SystemExit(__doc__)
    lint, src, run = sys.argv[1:4]
    mutation = sys.argv[4] if len(sys.argv) == 5 else None
    checker = os.path.join(src, "scripts", "check_trace.py")
    args, env_extra = RUNS[run]
    with tempfile.TemporaryDirectory() as tmp:
        trace = os.path.join(tmp, "run.trace")
        report = os.path.join(tmp, "report.json")
        env = dict(os.environ, LILY_TRACE=trace, **env_extra)
        with open(report, "w", encoding="utf-8") as out:
            subprocess.run([lint, *args, "--json",
                            os.path.join(src, "examples", "circuits", "parity8.blif"),
                            os.path.join(src, "lib", "msu_big.genlib")],
                           env=env, stdout=out, check=True)
        if mutation is not None:
            transform, reason = MUTATIONS[run][mutation]
            with open(trace, encoding="utf-8") as f:
                records = transform([json.loads(line) for line in f if line.strip()])
            with open(trace, "w", encoding="utf-8") as f:
                f.writelines(json.dumps(r) + "\n" for r in records)
        checked = subprocess.run([sys.executable, checker, trace, report],
                                 capture_output=True, text=True)
        sys.stdout.write(checked.stdout)
        sys.stderr.write(checked.stderr)
        if mutation is None:
            return checked.returncode
        if checked.returncode == 0:
            print(f"trace_contract: check_trace.py accepted the {mutation} mutation",
                  file=sys.stderr)
            return 1
        if reason not in checked.stderr:
            print(f"trace_contract: {mutation} failed for another reason than "
                  f"{reason!r}", file=sys.stderr)
            return 1
        print(f"trace_contract: {mutation} rejected as expected")
        return 0


if __name__ == "__main__":
    sys.exit(main())
