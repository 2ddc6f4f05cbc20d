#!/usr/bin/env bash
# Tier-1 verification: full build + test suite, a static-lint pass over
# the shipped example traces, then the parallel-sweep determinism test
# again under AddressSanitizer + UBSan and (when supported) under
# ThreadSanitizer — data races in the sweep engine show up as sanitizer
# reports long before they corrupt a CSV.
#
# Usage: scripts/tier1.sh [build-dir] [asan-build-dir] [tsan-build-dir]
#                         [unused-functions-build-dir]
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR=${1:-build}
ASAN_DIR=${2:-build-asan}
TSAN_DIR=${3:-build-tsan}
UNUSED_DIR=${4:-build-unused}
JOBS=$(nproc 2>/dev/null || echo 2)

echo "== tier 1: build + full test suite (${BUILD_DIR}) =="
# The tree builds warning-free under its own warning set; -Werror keeps
# it so (the optimizer raises some warnings a syntax-only pass misses).
cmake -B "${BUILD_DIR}" -S . -DPALS_WERROR=ON
cmake --build "${BUILD_DIR}" -j "${JOBS}"
ctest --test-dir "${BUILD_DIR}" --output-on-failure -j "${JOBS}"

echo "== tier 1: hermetic file-system suites, repeated under -j8 =="
# Every test writes into its own scratch directory (tests/scratch_dir.hpp,
# unique per test and pid), so the suites that touch the file system,
# sockets and child processes must pass three times in a row at -j8.
ctest --test-dir "${BUILD_DIR}" --output-on-failure -j 8 \
      --repeat until-fail:3 \
      -R 'Journal|KillResume|ResumeSweep|Watchdog|ShardMerge|ShepherdTorture|ServeDaemon|ServeTorture|QueryEngineErrors|AtomicWriteFile|DurableFile|Checksums'

echo "== tier 1: static lint of the shipped example traces =="
for trace in examples/traces/*.palst; do
  "${BUILD_DIR}/tools/pals_lint" --strict --quiet "${trace}"
done

echo "== tier 1: clang-tidy over src/lint + src/analysis =="
# The static-analysis subsystem itself gets the static-analysis pass;
# restricted to the two directories so the leg stays fast. Degrades to a
# notice when the toolchain does not ship clang-tidy.
if command -v clang-tidy >/dev/null 2>&1; then
  cmake -B "${BUILD_DIR}" -S . -DCMAKE_EXPORT_COMPILE_COMMANDS=ON >/dev/null
  clang-tidy -p "${BUILD_DIR}" --quiet \
      src/lint/*.cpp src/analysis/*.cpp
else
  echo "clang-tidy not installed; skipping the leg"
fi

echo "== tier 1: library functions no shipped binary keeps (report) =="
# A count, not a gate: it needs a second build (-O0, one section per
# function, --gc-sections). A function missing from
# scripts/unused_functions.allow is reported, and the run goes on.
scripts/unused_functions.sh "${UNUSED_DIR}" ||
  echo "unused-function report: see the list above (not a gate)"

echo "== tier 1: observability artifacts (pals_profile) =="
OBS_DIR="${BUILD_DIR}/Testing/tier1-obs"
mkdir -p "${OBS_DIR}"
# Two runs at different thread counts: the full metrics snapshot must
# carry the replay / thread-pool / span keys, and the simulation-only
# metrics and simulated Chrome trace must be byte-identical across runs.
"${BUILD_DIR}/tools/pals_profile" --trace=examples/traces/ring.palst \
    --repeat=4 --jobs=1 --quiet \
    --metrics="${OBS_DIR}/metrics_j1.json" \
    --sim-metrics="${OBS_DIR}/sim_metrics_j1.json" \
    --sim-trace="${OBS_DIR}/sim_trace_j1.json"
"${BUILD_DIR}/tools/pals_profile" --trace=examples/traces/ring.palst \
    --repeat=4 --jobs=4 --quiet \
    --sim-metrics="${OBS_DIR}/sim_metrics_j4.json" \
    --sim-trace="${OBS_DIR}/sim_trace_j4.json"
"${BUILD_DIR}/tools/pals_json_check" --quiet "${OBS_DIR}/metrics_j1.json" \
    --require=replay.events,replay.messages_matched,pool.tasks_executed,span.pipeline.scaled_replay.wall_ns
cmp "${OBS_DIR}/sim_metrics_j1.json" "${OBS_DIR}/sim_metrics_j4.json"
cmp "${OBS_DIR}/sim_trace_j1.json" "${OBS_DIR}/sim_trace_j4.json"
diff golden/ring_chrome_trace.json "${OBS_DIR}/sim_trace_j1.json"

echo "== tier 1: bench observatory (pals_bench) =="
BENCH_DIR="${BUILD_DIR}/Testing/tier1-bench"
rm -rf "${BENCH_DIR}"
mkdir -p "${BENCH_DIR}"
# A reduced suite (1 repetition, no warmup) three times — twice at
# --jobs=1 and once at --jobs=4. The deterministic-counter sections must
# be byte-identical across runs and thread counts; the counters are
# per-repetition absolutes, so the reduced run also compares cleanly
# against the committed full-methodology baseline in counters-only mode.
"${BUILD_DIR}/tools/pals_bench" --suite --warmup=0 --repetitions=1 \
    --jobs=1 --quiet --out="${BENCH_DIR}/suite_a.json" \
    --counters-out="${BENCH_DIR}/counters_a.json"
"${BUILD_DIR}/tools/pals_bench" --suite --warmup=0 --repetitions=1 \
    --jobs=1 --quiet --out="${BENCH_DIR}/suite_b.json" \
    --counters-out="${BENCH_DIR}/counters_b.json"
"${BUILD_DIR}/tools/pals_bench" --suite --warmup=0 --repetitions=1 \
    --jobs=4 --quiet --out="${BENCH_DIR}/suite_j4.json" \
    --counters-out="${BENCH_DIR}/counters_j4.json"
cmp "${BENCH_DIR}/counters_a.json" "${BENCH_DIR}/counters_b.json"
cmp "${BENCH_DIR}/counters_a.json" "${BENCH_DIR}/counters_j4.json"
"${BUILD_DIR}/tools/pals_json_check" --quiet --bench "${BENCH_DIR}/suite_a.json"
"${BUILD_DIR}/tools/pals_json_check" --quiet --bench "${BENCH_DIR}/counters_a.json"
# Self-compare exercises the full timing gate (must pass trivially);
# cross-run and baseline compares gate counters only — 1-rep timing is
# noise, but the work counters never are.
"${BUILD_DIR}/tools/pals_bench" --compare \
    "${BENCH_DIR}/suite_a.json" "${BENCH_DIR}/suite_a.json"
"${BUILD_DIR}/tools/pals_bench" --compare --counters-only \
    "${BENCH_DIR}/suite_a.json" "${BENCH_DIR}/suite_b.json"
"${BUILD_DIR}/tools/pals_bench" --compare --counters-only \
    BENCH_suite.json "${BENCH_DIR}/suite_a.json"

echo "== tier 1: end-to-end benchmark self-test (perfbench) =="
# Builds the library sources in Release into .bench_build/perfbench (the
# first run takes a few minutes, later ones rebuild incrementally) and runs
# the benchmark's own tests: every timed row must equal the row composed
# from public calls.
python3 perfbench/run.py --self-test

echo "== tier 1: sweep determinism under ASan/UBSan (${ASAN_DIR}) =="
cmake -B "${ASAN_DIR}" -S . -DPALS_SANITIZE="address;undefined"
cmake --build "${ASAN_DIR}" -j "${JOBS}" --target test_sweep
ctest --test-dir "${ASAN_DIR}" --output-on-failure -j "${JOBS}" \
      -R 'SweepDeterminism|SweepGridFile|SweepErrors'

echo "== tier 1: DES engine + replay core under ASan/UBSan =="
# The replay's hot loop indexes the event heap and the dense channel and
# request-slot vectors of its compile pass, where an off-by-one reads out
# of bounds silently in a plain build. The engine, stress, replay-property
# and golden-pin suites (golden/replay_pins.csv) run sanitized.
cmake --build "${ASAN_DIR}" -j "${JOBS}" --target test_sim
ctest --test-dir "${ASAN_DIR}" --output-on-failure -j "${JOBS}" \
      -R 'SimEngine|EngineStress|ReplayStress|Replay'

echo "== tier 1: fault injection + corrupt-trace corpus under ASan/UBSan =="
# The fault suite (plan grammar, retry/quarantine, injected-sweep
# determinism) and the corrupted-fixture torture corpus both probe
# error paths — exactly where sanitizers find the out-of-bounds reads
# and leaks that a passing exit code would hide.
cmake --build "${ASAN_DIR}" -j "${JOBS}" --target test_fault test_trace
ctest --test-dir "${ASAN_DIR}" --output-on-failure -j "${JOBS}" \
      -R 'FaultPlan|Injector|Campaign|Classify|RetryPolicy|RunGuarded|FaultSweep|CorruptCorpus'

echo "== tier 1: online-controller suite under ASan/UBSan =="
# The controller battery drives per-iteration observe/re-solve loops,
# the golden schedule comparison and the gear_stuck pinning path —
# index-heavy code over per-rank vectors where an off-by-one reads out
# of bounds silently in a plain build.
cmake --build "${ASAN_DIR}" -j "${JOBS}" --target test_controller
ctest --test-dir "${ASAN_DIR}" --output-on-failure -j "${JOBS}" \
      -R 'Controller|Pareto|GoldenSchedules'

echo "== tier 1: bounds oracle + pruning under ASan/UBSan =="
# The static bounds analyzer (docs/bounds.md) re-derives the controller
# schedule and budgets the serialization bound with index arithmetic over
# per-rank/per-slot vectors; the oracle leg bounds every example trace
# under all six controllers and replays the shipped Pareto grid with the
# soundness check armed, so an unsound interval or an out-of-bounds read
# fails here.
cmake --build "${ASAN_DIR}" -j "${JOBS}" --target test_bounds pals_lint_tool \
      pals_sweep
ctest --test-dir "${ASAN_DIR}" --output-on-failure -j "${JOBS}" \
      -R 'BoundsAnalyzer|BoundsOracle|BoundsRendering|PruneBounds|LintCodeDrift'
for trace in examples/traces/*.palst; do
  "${ASAN_DIR}/tools/pals_lint" --bounds --quiet \
      --controller=static,dynamic_max,dynamic_avg,slack,ewma,jitter "${trace}"
done
"${ASAN_DIR}/tools/pals_sweep" --grid=configs/dynamic_pareto.grid \
    --prune-bounds --quiet

echo "== tier 1: crash-safe resume (kill/resume, journal) under ASan/UBSan =="
# The resume suite SIGKILLs pals_sweep mid-journal and stitches the run
# back together — recovery and journal-parsing paths full of manual fd
# handling and error unwinding, where sanitizers earn their keep. The
# journal of the smoke run-dir must also pass the structural checker.
cmake --build "${ASAN_DIR}" -j "${JOBS}" --target \
      test_resume pals_sweep pals_json_check
ctest --test-dir "${ASAN_DIR}" --output-on-failure -j "${JOBS}" \
      -R 'Journal|ResumeSweep|KillResume|Watchdog|AtomicWriteFile|DurableFile|Checksums'
RESUME_DIR="${ASAN_DIR}/Testing/tier1-resume"
rm -rf "${RESUME_DIR}"
"${ASAN_DIR}/tools/pals_sweep" --grid=configs/lint_smoke.grid --quiet \
    --run-dir="${RESUME_DIR}"
"${ASAN_DIR}/tools/pals_json_check" --journal "${RESUME_DIR}/journal.palsj"

echo "== tier 1: shard supervisor (pals_shepherd) under ASan/UBSan =="
# The supervisor is fork/exec/waitpid plus signal plumbing — leak- and
# lifetime-sensitive code a passing exit hides. The leg runs the shard
# partition/merge/torture suite sanitized, then drives the smoke grid
# through pals_shepherd with an injected mid-run SIGKILL and requires
# the merged artifacts byte-identical to an unsharded --jobs=1 run.
cmake --build "${ASAN_DIR}" -j "${JOBS}" --target test_shard pals_shepherd
ctest --test-dir "${ASAN_DIR}" --output-on-failure -j "${JOBS}" \
      -R 'ShardSpec|Partition|ShardMerge|ShepherdTorture'
SHARD_DIR="${ASAN_DIR}/Testing/tier1-shard"
rm -rf "${SHARD_DIR}"
"${ASAN_DIR}/tools/pals_sweep" --grid=configs/shard_smoke.grid --jobs=1 \
    --quiet --run-dir="${SHARD_DIR}/reference"
"${ASAN_DIR}/tools/pals_shepherd" --grid=configs/shard_smoke.grid \
    --shards=3 --jobs=1 --quiet --heartbeat=0.05 \
    --chaos-kill=1:1 --max-shard-restarts=2 \
    --backoff-base=0.01 --backoff-cap=0.05 \
    --run-dir="${SHARD_DIR}/sharded"
cmp "${SHARD_DIR}/reference/results.csv" "${SHARD_DIR}/sharded/results.csv"
cmp "${SHARD_DIR}/reference/errors.csv" "${SHARD_DIR}/sharded/errors.csv"

echo "== tier 1: what-if query daemon (pals_serve) under ASan/UBSan =="
# The daemon is the repo's only long-lived network-facing process:
# socket lifecycle, admission control, per-request deadlines, LRU
# eviction and the malformed-request corpus all run sanitized, then the
# real binaries are choreographed end to end — ready-file handshake,
# request battery, chaos connections, byte-identity of the served grid
# against the batch engine, and a SIGTERM drain that must exit 0.
cmake --build "${ASAN_DIR}" -j "${JOBS}" --target \
      test_serve pals_serve_tool pals_query
ctest --test-dir "${ASAN_DIR}" --output-on-failure -j "${JOBS}" \
      -R 'ParseRequest|ValidateRequestLine|BaselineKey|Responses|ApproxEntryBytes|WarmCache|ServeTorture|QueryEngineErrors|ServeDaemon'
SERVE_DIR="${ASAN_DIR}/Testing/tier1-serve"
rm -rf "${SERVE_DIR}"
mkdir -p "${SERVE_DIR}"
SERVE_SOCK="${SERVE_DIR}/serve.sock"
"${ASAN_DIR}/tools/pals_serve" --socket="${SERVE_SOCK}" \
    --ready-file="${SERVE_DIR}/serve.ready" --jobs=2 --quiet &
SERVE_PID=$!
trap 'kill -9 ${SERVE_PID} 2>/dev/null || true' EXIT
for _ in $(seq 1 200); do
  [ -f "${SERVE_DIR}/serve.ready" ] && break
  sleep 0.05
done
[ -f "${SERVE_DIR}/serve.ready" ]
"${ASAN_DIR}/tools/pals_query" --socket="${SERVE_SOCK}" --ping
"${ASAN_DIR}/tools/pals_json_check" --quiet --serve configs/serve_battery.requests
"${ASAN_DIR}/tools/pals_query" --socket="${SERVE_SOCK}" \
    --requests=configs/serve_battery.requests > "${SERVE_DIR}/battery.txt"
# The battery's answers are deterministic: pin the transcript. Host-time
# fields (elapsed_ms) are masked before the compare; to regenerate, run
# the battery against a fresh daemon and apply the same sed.
sed -E 's/(elapsed_ms[=:]"?)[0-9.eE+-]+/\1MASKED/g' "${SERVE_DIR}/battery.txt" \
    > "${SERVE_DIR}/battery.masked.txt"
cmp golden/serve_battery.txt "${SERVE_DIR}/battery.masked.txt"
"${ASAN_DIR}/tools/pals_query" --socket="${SERVE_SOCK}" --chaos=8
"${ASAN_DIR}/tools/pals_query" --socket="${SERVE_SOCK}" --ping
"${ASAN_DIR}/tools/pals_query" --socket="${SERVE_SOCK}" \
    --grid=configs/serve_smoke.grid --out="${SERVE_DIR}/served.csv"
"${ASAN_DIR}/tools/pals_sweep" --grid=configs/serve_smoke.grid --jobs=1 \
    --quiet --out="${SERVE_DIR}/reference.csv"
cmp "${SERVE_DIR}/served.csv" "${SERVE_DIR}/reference.csv"
# The same grid on a contended platform: every cell carries the six keys
# of the --config file as query overrides (one settings table for both).
CONTENDED=$(sed -e '/^#/d' -e '/^ *$/d' -e 's/ //g' \
    configs/gigabit_contended.cfg | paste -sd, -)
"${ASAN_DIR}/tools/pals_query" --socket="${SERVE_SOCK}" \
    --grid=configs/serve_smoke.grid --platform="${CONTENDED}" \
    --out="${SERVE_DIR}/served_contended.csv"
"${ASAN_DIR}/tools/pals_sweep" --grid=configs/serve_smoke.grid --jobs=1 \
    --quiet --config=configs/gigabit_contended.cfg \
    --out="${SERVE_DIR}/reference_contended.csv"
cmp "${SERVE_DIR}/served_contended.csv" "${SERVE_DIR}/reference_contended.csv"
kill -TERM "${SERVE_PID}"
SERVE_CODE=0
wait "${SERVE_PID}" || SERVE_CODE=$?
trap - EXIT
[ "${SERVE_CODE}" -eq 0 ]
[ ! -e "${SERVE_SOCK}" ]

# ThreadSanitizer is the race detector proper, but not every toolchain
# image ships its runtime — probe before committing to the leg.
echo "== tier 1: probing for ThreadSanitizer support =="
if echo 'int main(){return 0;}' | \
   c++ -fsanitize=thread -x c++ - -o /tmp/pals_tsan_probe 2>/dev/null && \
   /tmp/pals_tsan_probe; then
  echo "== tier 1: thread-pool + sweep races under TSan (${TSAN_DIR}) =="
  cmake -B "${TSAN_DIR}" -S . -DPALS_SANITIZE="thread"
  cmake --build "${TSAN_DIR}" -j "${JOBS}" --target test_util test_sweep
  ctest --test-dir "${TSAN_DIR}" --output-on-failure -j "${JOBS}" \
        -R 'ThreadPool|SweepDeterminism'
else
  echo "== tier 1: TSan unavailable on this toolchain; skipping =="
fi
rm -f /tmp/pals_tsan_probe

echo "tier 1 OK"
