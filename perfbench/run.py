#!/usr/bin/env python3
"""Flow benchmark: build the library from source, run one seeded workload.

Run from the repository root:

    python3 perfbench/run.py --workload large_area --seed 1 --seconds 16 --trace 0

builds perfbench/ (and with it ../src) into $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench), runs the helper self-test, then runs the
workload and relays its report. The last stdout line is one JSON object with
the keys correct, attempted, failed and metrics; --trace 0 reports the
end_to_end metrics of BENCHMARK.json and --trace 1 the per_layer ones.

Repeat mode runs one workload under K consecutive seeds and prints each
metric's median and quartiles, flagging spreads that exceed the metric's
bound (or a third of it):

    python3 perfbench/run.py --workload suite_prove --seed 1 --repeat 10 \\
        --seconds 16 --trace 0 [--save perfbench/baseline.json]
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("large_area", "suite_prove", "eco_stream", "small_files")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, target, "perfbench")


def build():
    """Configure and build the benchmark; returns the build directory."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError("library sources (src/) not found next to perfbench/")
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs,
                  "--target", "perfbench_flow", "perfbench_selftest"])
    for cmd in steps:
        res = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                             timeout=BUILD_TIMEOUT_S, check=False)
        if res.returncode != 0:
            raise RuntimeError(f"build step failed: {' '.join(cmd)}")
    res = subprocess.run([os.path.join(out, "perfbench_selftest")], stdout=sys.stderr,
                         stderr=sys.stderr, timeout=RUN_TIMEOUT_S, check=False)
    if res.returncode != 0:
        raise RuntimeError("helper self-test failed")
    return out


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def expected_metrics(spec, trace):
    return {m["name"]: m for m in spec["per_layer" if trace else "end_to_end"]}


def run_once(out, workload, seed, seconds, trace, spec):
    """Run the workload once; returns (stdout lines, parsed result)."""
    cmd = [os.path.join(out, "perfbench_flow"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--src", ROOT, "--out", os.path.join(out, "work")]
    res = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S,
                         check=False)
    sys.stderr.write(res.stderr)
    if res.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited with {res.returncode}")
    lines = res.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{workload} seed {seed} printed nothing")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise RuntimeError(f"unexpected result keys {sorted(result)}")
    want = expected_metrics(spec, trace)
    got = result["metrics"]
    if set(got) != set(want):
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        raise RuntimeError(f"metric set differs from BENCHMARK.json: missing {missing}, "
                           f"extra {extra}")
    for name, m in want.items():
        if got[name]["unit"] != m["unit"]:
            raise RuntimeError(f"{name}: unit {got[name]['unit']} != {m['unit']}")
    return lines, result


def summarize(results, spec, trace):
    """Median, quartiles and spread of every metric over repeated runs."""
    want = expected_metrics(spec, trace)
    summary = {}
    for name, m in want.items():
        values = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(values)
        if len(values) >= 2:
            q1, _, q3 = statistics.quantiles(values, n=4)
        else:
            q1 = q3 = med
        spread = (q3 - q1) / abs(med) if med else 0.0
        summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                         "unit": m["unit"], "bound": m.get("bound"), "values": values}
    return summary


def repeat(out, args, spec):
    results = []
    for k in range(args.repeat):
        seed = args.seed + k
        _, result = run_once(out, args.workload, seed, args.seconds, args.trace, spec)
        results.append(result)
        log(f"{args.workload} seed {seed}: correct={result['correct']} "
            f"failed={result['failed']}/{result['attempted']}")
    summary = summarize(results, spec, args.trace)
    flagged = 0
    print(f"# {args.workload} trace={int(args.trace)} seeds {args.seed}.."
          f"{args.seed + args.repeat - 1}")
    print(f"{'metric':28} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}")
    for name, s in summary.items():
        flag = ""
        if s["bound"] is not None:
            if s["spread"] > s["bound"]:
                flag, flagged = "OVER BOUND", flagged + 1
            elif s["spread"] > s["bound"] / 3:
                flag = "over bound/3"
        bound = "-" if s["bound"] is None else f"{s['bound']:.2f}"
        print(f"{name:28} {s['median']:14.6g} {s['q1']:14.6g} {s['q3']:14.6g} "
              f"{s['spread']:8.4f} {bound:>6} {s['unit']} {flag}")
    all_correct = all(r["correct"] and r["failed"] == 0 for r in results)
    print(f"# runs correct: {all_correct}; metrics over bound: {flagged}")
    if args.save:
        saved = {}
        if os.path.isfile(args.save):
            with open(args.save, encoding="utf-8") as f:
                saved = json.load(f)
        key = "per_layer" if args.trace else "end_to_end"
        saved.setdefault(args.workload, {})[key] = {
            "seeds": [args.seed, args.seed + args.repeat - 1],
            "seconds": args.seconds,
            "metrics": {n: {k: s[k] for k in ("median", "q1", "q3", "spread", "unit", "values")}
                        for n, s in summary.items()},
        }
        with open(args.save, "w", encoding="utf-8") as f:
            json.dump(saved, f, indent=1, sort_keys=True)
            f.write("\n")
    return 0 if all_correct else 1


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--repeat", type=int, default=0,
                   help="run K consecutive seeds and summarize (repeat mode)")
    p.add_argument("--save", help="repeat mode: merge the summary into this JSON file")
    args = p.parse_args()
    try:
        spec = load_spec()
        out = build()
        if args.repeat > 0:
            return repeat(out, args, spec)
        lines, _ = run_once(out, args.workload, args.seed, args.seconds, args.trace, spec)
    except (RuntimeError, OSError, ValueError, KeyError, subprocess.TimeoutExpired) as e:
        log(f"error: {e}")
        return 1
    print("\n".join(lines), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
