#!/usr/bin/env bash
# CI entrypoint: build twice (release with -Werror, and ASan+UBSan with the
# pipeline's CheckLevel forced to paranoid), run the full test suite on
# both, then audit the example circuits with lily_lint — including the
# injected-violation runs that prove the checkers still bite.
#
# Usage: scripts/ci.sh [--jobs N]
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="$(nproc 2>/dev/null || echo 4)"
if [[ "${1:-}" == "--jobs" ]]; then JOBS="$2"; fi

run() { echo "+ $*"; "$@"; }

# ---- Build 1: release, warnings are errors -----------------------------
run cmake -B build-ci-release -S . -DCMAKE_BUILD_TYPE=Release -DLILY_WERROR=ON
run cmake --build build-ci-release -j "$JOBS"
run env -C build-ci-release ctest --output-on-failure -j "$JOBS"

# ---- Build 2: ASan+UBSan, paranoid pipeline self-checks ----------------
run cmake -B build-ci-sanitize -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DLILY_WERROR=ON "-DLILY_SANITIZE=address;undefined"
run cmake --build build-ci-sanitize -j "$JOBS"
run env -C build-ci-sanitize LILY_CHECK_LEVEL=paranoid \
    ctest --output-on-failure -j "$JOBS"

# ---- lily_lint over the example circuits (both libraries) --------------
LINT=build-ci-sanitize/src/check/lily_lint
for blif in examples/circuits/*.blif; do
  for lib in lib/msu_tiny.genlib lib/msu_big.genlib; do
    run "$LINT" --quiet "$blif" "$lib"
  done
done

# Injected violations must be *detected* (exit code 1, not 0 and not a
# crash/usage error).
for inject in cycle offchip badpad wrong-cover dup-drive; do
  echo "+ $LINT --inject=$inject (expect exit 1)"
  set +e
  "$LINT" --quiet --inject="$inject" examples/circuits/full_adder.blif lib/msu_big.genlib
  status=$?
  set -e
  if [[ "$status" -ne 1 ]]; then
    echo "FAIL: --inject=$inject exited $status, expected 1" >&2
    exit 1
  fi
done

# ---- Recovery-path suite (sanitized build) -----------------------------
# Injected recovery-ladder faults must be *survived*: the flow completes
# (exit 0), reports itself degraded, and the fallback result passes the
# paranoid checkers (lily_lint runs them inside the flow).
for fault in parser:skip-gate placement:diverge matcher:no-match router:overbudget; do
  echo "+ $LINT --inject=$fault (expect exit 0, degraded)"
  set +e
  out="$("$LINT" --level=paranoid --inject="$fault" \
        examples/circuits/parity8.blif lib/msu_big.genlib)"
  status=$?
  set -e
  if [[ "$status" -ne 0 ]]; then
    echo "FAIL: --inject=$fault exited $status, expected 0" >&2
    exit 1
  fi
  if ! grep -q "^flow: degraded" <<<"$out"; then
    echo "FAIL: --inject=$fault did not report a degraded flow:" >&2
    echo "$out" >&2
    exit 1
  fi
done

# A starved wall-clock budget must also degrade gracefully, never abort.
echo "+ $LINT --flow --budget-ms (60s smoke, expect exit 0)"
run timeout 60 "$LINT" --flow --budget-ms=1 --level=paranoid \
    examples/circuits/parity8.blif lib/msu_big.genlib

# And the unfaulted flow must report itself clean.
echo "+ $LINT --flow (expect 'flow: clean')"
"$LINT" --flow --quiet examples/circuits/parity8.blif lib/msu_big.genlib \
  | grep -q "^flow: clean"

# ---- Trace smoke: executor spans vs FlowDiagnostics --------------------
# LILY_TRACE must dump a JSON-lines trace in which every span is closed,
# every span name comes from the shared stage table (the report's own
# stage names), and per-stage span sums equal the report's elapsed_ms
# figures — the executor stamps both from the same increment, so any drift
# means the orchestration double-counted or leaked a scope.
TRACE_DIR="$(mktemp -d)"
echo "+ LILY_TRACE trace smoke"
LILY_TRACE="$TRACE_DIR/flow.trace" "$LINT" --flow --json \
    examples/circuits/parity8.blif lib/msu_big.genlib > "$TRACE_DIR/report.json"
run python3 scripts/check_trace.py "$TRACE_DIR/flow.trace" "$TRACE_DIR/report.json"
rm -rf "$TRACE_DIR"

# ---- Formal verification (sanitized build) -----------------------------
# The prover must prove every example's mapped netlist equivalent to its
# source, the netlist lint must stay quiet on the clean corpus and flag
# every file in the malformed one, and an injected miscompare must be
# refuted with a replayed counterexample (exit 0 = refuted-as-expected).
for blif in examples/circuits/*.blif; do
  run "$LINT" --prove --quiet "$blif" lib/msu_big.genlib
  run "$LINT" --lint-netlist --quiet "$blif"
done
for bad in tests/data/bad/*.blif; do
  echo "+ $LINT --lint-netlist $bad (expect exit 1)"
  set +e
  "$LINT" --lint-netlist --quiet "$bad"
  status=$?
  set -e
  if [[ "$status" -ne 1 ]]; then
    echo "FAIL: --lint-netlist $bad exited $status, expected 1" >&2
    exit 1
  fi
done
run "$LINT" --inject=verify:miscompare --quiet \
    examples/circuits/full_adder.blif lib/msu_big.genlib

# The full flow must carry a proven verify stage end to end.
echo "+ LILY_VERIFY=prove $LINT --flow (expect 'flow: clean')"
LILY_VERIFY=prove "$LINT" --flow --quiet \
    examples/circuits/parity8.blif lib/msu_big.genlib | grep -q "^flow: clean"

# ---- ECO smoke: incremental pipeline + stale-epoch probe ---------------
# A small local delta must be absorbed incrementally with the maintained
# netlist staying equivalent, and a corrupted version stamp must be
# rejected (lily_lint exits 0 exactly when the rejection happened).
run "$LINT" --eco=3 --quiet examples/circuits/parity8.blif lib/msu_big.genlib
# The spliced ECO result must also be *provable*, not just simulation-clean.
run env LILY_VERIFY=prove "$LINT" --eco=3 --quiet \
    examples/circuits/parity8.blif lib/msu_big.genlib
run "$LINT" --inject=eco:stale-epoch --quiet \
    examples/circuits/parity8.blif lib/msu_big.genlib

# ---- ECO scaling gate (release build: timing comparison) ---------------
# A 1%-of-nodes local edit must reach a 5x speedup over the full reflow,
# with every sweep row simulation-equivalent to its source network.
run build-ci-release/bench/eco_scaling --gate=5 --out=BENCH_eco.json
echo "+ BENCH_eco.json:"
cat BENCH_eco.json

# ---- CEC cost curve (release build) ------------------------------------
# cec_scaling proves every mapped workload equivalent (exit non-zero on any
# non-Proven verdict) and records the sim-vs-prove cost curve.
run build-ci-release/bench/cec_scaling --quick --out=BENCH_cec.json
echo "+ BENCH_cec.json:"
cat BENCH_cec.json

# ---- Perf smoke: calibrated regression + determinism check -------------
# perf_scaling runs the full Lily flow single- and multi-threaded, writes
# BENCH_perf.json, and exits non-zero if (a) multi-threaded output is not
# bit-identical to single-threaded, or (b) the calibrated single-thread
# cost regressed >20% over bench/BENCH_baseline.json.
run build-ci-release/bench/perf_scaling --quick \
    --baseline=bench/BENCH_baseline.json --out=BENCH_perf.json
echo "+ BENCH_perf.json:"
cat BENCH_perf.json

# Hot-path kernel microbenchmarks (SpMV, matcher walk, rectangle assembly,
# DP scan). Exits non-zero when a warmed pooled kernel allocates — the
# steady-state allocation-free contract of the CSR/arena layout.
run build-ci-release/bench/kernels --quick --out=BENCH_kernels.json
echo "+ BENCH_kernels.json:"
cat BENCH_kernels.json

# The CSR adjacency, cone partition and Lily mapper tests must also hold
# under ASan+UBSan: the frozen views and cone bitsets are raw spans over
# pooled storage, exactly where a lifetime bug would hide from the release
# build.
run build-ci-sanitize/tests/csr_test
run build-ci-sanitize/tests/subject_test
run build-ci-sanitize/tests/lily_test

# ---- Serving layer: chaos, load-shed, throughput -----------------------
# The chaos harness floods a live daemon with a poisoned job mix (segv,
# abort, oom, hang, wedge; sticky and retryable) and SIGKILLs the daemon
# mid-run: the server must never die on a job, every accepted job must
# reach a terminal verdict across the restart, and the spool must audit
# clean. The sanitized build runs the short mix to keep CI time flat.
run build-ci-release/tests/serve_chaos
run build-ci-sanitize/tests/serve_chaos --quick

# Load-shed smoke: a one-slot, one-deep daemon whose only worker is wedged
# must shed a 32-submit burst (reject-with-retry-after), never queue it
# without bound and never hang the client. --no-wait keeps the burst
# admission-only: a closed loop would block forever on the wedged worker.
SERVE=build-ci-release/src/serve/lily_serve
CLIENT=build-ci-release/src/serve/lily_client
SERVE_DIR="$(mktemp -d)"
SOCK="$SERVE_DIR/ci.sock"
"$SERVE" --socket="$SOCK" --spool="$SERVE_DIR/spool" --workers=1 --queue-cap=1 &
SERVE_PID=$!
for _ in $(seq 1 100); do
  "$CLIENT" --socket="$SOCK" health >/dev/null 2>&1 && break
  sleep 0.05
done
out="$("$CLIENT" --socket="$SOCK" load --jobs=32 --no-wait \
      --inject=serve:hang-sticky \
      examples/circuits/full_adder.blif lib/msu_tiny.genlib)"
echo "+ $out"
if grep -q '"shed":0,' <<<"$out"; then
  echo "FAIL: 32-submit burst against a wedged one-slot daemon never shed" >&2
  exit 1
fi
"$CLIENT" --socket="$SOCK" shutdown || true
wait "$SERVE_PID" || true
rm -rf "$SERVE_DIR"

# Throughput/latency/shed-rate bench; gates on served-vs-in-process bit
# identity at 1/4/8 worker slots (cold and warm pools), a non-zero shed
# rate under overload, and warm throughput >= 0.8x the committed
# bench/BENCH_serve.json recording (machine-noise tolerant regression
# gate on the warm-pool speedup).
run build-ci-release/bench/serve_throughput --quick --out=BENCH_serve.json \
    --baseline=bench/BENCH_serve.json --gate-ratio=0.8
echo "+ BENCH_serve.json:"
cat BENCH_serve.json

# ---- clang-tidy (advisory; runs only when installed) -------------------
if command -v clang-tidy >/dev/null 2>&1; then
  run cmake -B build-ci-release -S . -DCMAKE_EXPORT_COMPILE_COMMANDS=ON
  git ls-files 'src/*.cpp' | xargs -P "$JOBS" -n 1 \
    clang-tidy -p build-ci-release --quiet || true
fi

echo "CI OK"
