#!/usr/bin/env bash
# Tier-1 gate for the workspace: formatting, lints (best-effort — the
# offline toolchain may lack the clippy component), release build, tests.
# Run before committing and as the run_all_experiments.sh preflight.
#
# --write-baseline: refresh results/PROFILE_BASELINE.json from this
# run's aggregate profile instead of gating against it. Use after an
# intentional perf change, commit the new baseline with the change.
set -uo pipefail

write_baseline=0
for arg in "$@"; do
  case "$arg" in
    --write-baseline) write_baseline=1 ;;
    *) echo "ci.sh: unknown argument '$arg' (known: --write-baseline)"; exit 2 ;;
  esac
done

fail=0

echo "== cargo fmt --check"
if cargo fmt --version >/dev/null 2>&1; then
  cargo fmt --all -- --check || fail=1
else
  echo "   (rustfmt unavailable; skipping)"
fi

echo "== cargo clippy -D warnings (best-effort)"
if cargo clippy --version >/dev/null 2>&1; then
  cargo clippy --workspace --all-targets -- -D warnings || fail=1
else
  echo "   (clippy unavailable; skipping)"
fi

echo "== rfkit-analyze --baseline (fail on NEW findings only)"
# Diff a fresh run against the committed results/ANALYZE.json before the
# absolute gate below overwrites it. Keyed on (lint, file, message), so
# line drift from unrelated edits never re-flags an old finding, while
# anything this change introduces fails with a readable NEW delta.
analyze_tmp="$(mktemp)"
cargo run --release -q -p rfkit-analyze -- --deny warnings \
  --baseline results/ANALYZE.json --json "$analyze_tmp" || fail=1
rm -f "$analyze_tmp"

echo "== rfkit-analyze --deny warnings"
# Workspace lint engine: NaN-safe ordering, determinism, unsafe confinement,
# dataflow lints (hot-loop allocs, guards across solves, unseeded RNGs,
# fault-hook coverage), and the cross-artifact obs-name contract. Any
# non-suppressed warning or error fails the gate; suppressions are
# per-line `// rfkit-allow(<lint>[, until = "YYYY-MM-DD"])` comments and
# show up in review diffs (expired dates escalate to errors).
cargo run --release -q -p rfkit-analyze -- --deny warnings || fail=1

echo "== obs name contract (counter-name-drift registry export)"
# The drift errors themselves fail the gate above; this stage guards the
# extraction machinery — if the AST-based obs-name export ever shrinks
# dramatically, the contract check would go quietly vacuous.
# Rows after the two-line table header = one per distinct instrument name.
names="$(cargo run --release -q -p rfkit-analyze -- --dump-obs-names | tail -n +3 | wc -l | tr -d ' ')"
echo "   $names instrument names extracted"
if [ "$names" -lt 50 ]; then
  echo "   obs-name extraction shrank unexpectedly (<50 names)"
  fail=1
fi

echo "== cargo build --release"
cargo build --release || fail=1

echo "== experiment tables reproduce byte for byte (results/table*.txt, results/fig*.txt)"
# Re-runs every table and figure binary whose output is committed and
# diffs the fresh outputs against the committed ones. Outputs do not
# depend on RFKIT_THREADS, so this makes "bit-identical numerics" a
# mechanical check: a change that moves any printed number fails here
# until the tables are re-recorded (run_all_experiments.sh) and the
# drift is stated in EXPERIMENTS.md.
cargo build --release -q -p lna-bench --bins || fail=1
tables_tmp="$(mktemp -d)"
mkdir -p "$tables_tmp/expected" "$tables_tmp/actual"
for committed in results/table*.txt results/fig*.txt; do
  bin="$(basename "$committed" .txt)"
  cp "$committed" "$tables_tmp/expected/"
  ./target/release/"$bin" > "$tables_tmp/actual/$bin.txt" || fail=1
done
diff -r "$tables_tmp/expected" "$tables_tmp/actual" || fail=1
rm -rf "$tables_tmp"

echo "== design example stdout is thread-count independent (RFKIT_THREADS unset, 1, 4)"
# The unset run takes the hardware thread count, probed once per process;
# an override set at runtime must still win. All three stdouts must match
# byte for byte.
cargo build --release -q --example design_gnss_lna || fail=1
threads_tmp="$(mktemp -d)"
env -u RFKIT_THREADS ./target/release/examples/design_gnss_lna > "$threads_tmp/unset.txt" || fail=1
for t in 1 4; do
  RFKIT_THREADS="$t" ./target/release/examples/design_gnss_lna > "$threads_tmp/$t.txt" || fail=1
  diff "$threads_tmp/unset.txt" "$threads_tmp/$t.txt" || fail=1
done
rm -rf "$threads_tmp"

echo "== perfbench build (the benchmark compiles against the current API)"
# perfbench/ is a package of its own that imports workspace items
# (AcWorkspace, TraceMode, yield_analysis, ...). Building it here makes a
# deleted or renamed public item fail this gate instead of the benchmark
# pipeline. The target dir sits under target/, so nothing is written
# under perfbench/.
CARGO_TARGET_DIR=target/perfbench cargo build --release --locked -q \
  --manifest-path perfbench/Cargo.toml || fail=1

echo "== cargo test -q"
cargo test -q --workspace --release || fail=1

echo "== cargo test --features numsan (numeric sanitizer armed)"
# Re-runs the numeric core and the end-to-end design tests with runtime
# NaN-creation checks compiled in. Catches silent NaN laundering that the
# default build (sanitizer compiled out, zero overhead) cannot see.
cargo test -q --release -p rfkit-num --features numsan || fail=1
cargo test -q --release -p gnss-lna --features numsan || fail=1

echo "== cargo test --features rfkit-faults (fault injection armed)"
# Re-runs the solver and degradation crates with the deterministic
# fault-injection hooks compiled in. This is the only configuration in
# which the recovery-path tests (fallback ladder, degraded sweeps, cache
# exclusion) exist; the default build compiles the hooks out entirely.
cargo test -q --release -p rfkit-robust --features rfkit-faults || fail=1
cargo test -q --release -p rfkit-circuit --features rfkit-faults || fail=1
cargo test -q --release -p lna --features rfkit-faults || fail=1
cargo test -q --release -p rfkit-serve --features rfkit-faults || fail=1

echo "== traced fault-injection smoke (RFKIT_TRACE=1, faults armed)"
# Arms a fault plan end to end and checks the retry/fallback/degradation
# counters actually reach the profile: the robustness telemetry is under
# test here, not the numerics.
rm -f results/PROFILE_faults.json
RFKIT_TRACE=1 RFKIT_TRACE_OUT=results/PROFILE_faults.json \
  cargo run --release -q --features rfkit-faults --example robust_faults \
  >/dev/null || fail=1
cargo run --release -q -p rfkit-obs --bin rfkit-trace -- --json \
  --expect dc.retry.attempts --expect dc.fallback.stage \
  --expect band.points.failed --expect faults.injected \
  results/PROFILE_faults.json >/dev/null || fail=1

echo "== traced design run + profile diff gate (RFKIT_TRACE=1, RFKIT_THREADS=1)"
# One profiled run of the full design example feeds two checks. First,
# the profile parses and contains the expected top-level spans: the
# tracing pipeline itself is under test here, not the numerics. Second,
# per-path self time is diffed against the committed baseline, which
# was recorded at one thread, so this run pins RFKIT_THREADS=1 to
# compare like with like (the profile's meta records threads_env and
# cores). Tolerances are CI-grade: 4x relative with a 20ms self-time
# floor, because shared runners jitter. The gate exists to catch
# order-of-magnitude structural regressions (a cache that stopped
# hitting, a fast path that fell off), not 10% drift. Refresh after an
# intentional perf change with `./ci.sh --write-baseline` and commit
# the result.
rm -f results/PROFILE_ci.json
RFKIT_THREADS=1 RFKIT_TRACE=1 RFKIT_TRACE_OUT=results/PROFILE_ci.json \
  cargo run --release -q --example design_gnss_lna >/dev/null || fail=1
cargo run --release -q -p rfkit-obs --bin rfkit-trace -- --json \
  --expect design.total --expect design.optimize --expect opt.improved_goal \
  results/PROFILE_ci.json >/dev/null || fail=1
if [ "$write_baseline" -eq 1 ]; then
  cp results/PROFILE_ci.json results/PROFILE_BASELINE.json || fail=1
  echo "   wrote results/PROFILE_BASELINE.json (commit it)"
fi
cargo run --release -q -p rfkit-obs --bin rfkit-trace -- diff \
  --rel-tol 4.0 --min-self-us 20000 \
  results/PROFILE_BASELINE.json results/PROFILE_ci.json || fail=1

echo "== bench_ac perf smoke (tiny grid, traced)"
# Runs the AC benchmark on a tiny grid with tracing armed. This proves
# cheaply that: the batch engine stays inside SWEEP_TOL of the dense
# reference (bench_ac asserts it per grid point before timing); the
# structure classifier actually picked the bordered kernel for the
# 50+-node multi-stage workload and the shared plan cache saw hits; the
# pivot-reuse engine refactored far fewer times than it solved grid
# points (4 workloads x 16 points vs a bound of 8); the memo-cache
# counters fire; and the smoke report is written.
# Timings on the tiny grid are irrelevant; the full sweep is `bench_ac`
# with default arguments.
rm -f results/PROFILE_bench_ac_trace.json results/BENCH_ac_smoke.json \
  results/PROFILE_bench_ac_smoke.json
RFKIT_TRACE=1 RFKIT_TRACE_OUT=results/PROFILE_bench_ac_trace.json \
  cargo run --release -q -p lna-bench --bin bench_ac -- \
  --points 16 --reps 2 --out results/BENCH_ac_smoke.json \
  --profile-out results/PROFILE_bench_ac_smoke.json \
  >/dev/null || fail=1
# --expect-min floors assert the workloads actually ran at full size:
# 4 sweep workloads x 16 grid points = 64 solved points minimum, and
# the shared-plan cache must hit at least once per reused workload.
cargo run --release -q -p rfkit-obs --bin rfkit-trace -- --json \
  --expect circuit.ac.assemble_us --expect design.cache.hit \
  --expect design.cache.miss \
  --expect circuit.ac.sweep.path.bordered \
  --expect-min circuit.ac.sweep.points:64 \
  --expect-min plan.cache.hit:1 \
  --expect-max circuit.ac.sweep.refactors:8 \
  results/PROFILE_bench_ac_trace.json >/dev/null || fail=1

echo "== surrogate screening smoke (traced example + bench_surrogate)"
# Runs the surrogate-screened study example with tracing armed and
# bounds the evaluation budget: the screen must actually prune
# (surrogate.reject fires) and the total number of full band sweeps
# must stay under the budget a working screen leaves behind — an
# accidentally-disarmed screen blows straight through it. The fixed
# seed makes the decision sequence exact; the band.evaluations ceiling
# carries slack only for parallel duplicate evaluations (concurrent
# misses on identical offspring), which timing may or may not dedup.
rm -f results/PROFILE_surrogate.json
RFKIT_TRACE=1 RFKIT_TRACE_OUT=results/PROFILE_surrogate.json \
  cargo run --release -q --example surrogate_screening >/dev/null || fail=1
cargo run --release -q -p rfkit-obs --bin rfkit-trace -- --json \
  --expect surrogate.fit --expect surrogate.true_evals \
  --expect-min surrogate.reject:1 \
  --expect-min surrogate.accept:1 \
  --expect-max band.evaluations:800 \
  results/PROFILE_surrogate.json >/dev/null || fail=1
# bench_surrogate smoke on a small study, written to a scratch path and
# diffed against the committed results/BENCH_surrogate_smoke.json in
# every field except the wall-clock ones (`elapsed_s`, `fit_s`). The
# screen's decisions are exact for a fixed seed, so any drift in band
# sweeps, hypervolumes or screen counters fails here, the same way the
# tables diff catches numeric drift. The >=3x reduction target is only
# meaningful at full size (`bench_surrogate` with default arguments).
rm -f results/PROFILE_bench_surrogate_smoke.json
smoke_tmp="$(mktemp)"
cargo run --release -q -p lna-bench --bin bench_surrogate -- \
  --pop 24 --gens 8 --warm-gens 16 \
  --out "$smoke_tmp" \
  --profile-out results/PROFILE_bench_surrogate_smoke.json \
  >/dev/null || fail=1
untimed() { grep -v -e '"elapsed_s"' -e '"fit_s"' "$1"; }
diff <(untimed results/BENCH_surrogate_smoke.json) <(untimed "$smoke_tmp") || {
  echo "   bench_surrogate smoke drifted from results/BENCH_surrogate_smoke.json"
  fail=1
}
rm -f "$smoke_tmp"

echo "== serve smoke (traced bench_serve, mixed concurrent load)"
# In-process load generator against the rfkit-serve batch server with
# tracing armed. bench_serve itself hard-asserts zero protocol errors,
# zero rejections at this queue size, and nonzero design- and plan-cache
# hits before it writes the report; the trace assertions then prove the
# request-lifecycle telemetry actually reached the profile — every request
# accepted was counted, the queue-depth and latency histograms fired,
# and nothing was rejected or malformed. 8 clients x 12 requests = 96
# timed requests; the floor ignores the warmup pass on purpose.
rm -f results/PROFILE_serve.json results/BENCH_serve_smoke.json
RFKIT_TRACE=1 RFKIT_TRACE_OUT=results/PROFILE_serve.json \
  cargo run --release -q -p lna-bench --bin bench_serve -- \
  --clients 8 --requests 12 --out results/BENCH_serve_smoke.json \
  >/dev/null || fail=1
cargo run --release -q -p rfkit-obs --bin rfkit-trace -- --json \
  --expect serve.requests.accepted --expect serve.requests.completed \
  --expect serve.queue.depth --expect serve.request.latency_us \
  --expect-min serve.requests.accepted:96 \
  --expect-max serve.requests.rejected:0 \
  --expect-max serve.protocol.errors:0 \
  results/PROFILE_serve.json >/dev/null || fail=1
grep -q '"throughput_rps"' results/BENCH_serve_smoke.json || fail=1

if [ "$fail" -ne 0 ]; then
  echo "ci.sh: FAILED"
  exit 1
fi
echo "ci.sh: all checks passed"
