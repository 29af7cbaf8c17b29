#!/usr/bin/env bash
# Full verification: configure, build, run the test suite, run every
# benchmark binary. This is the command sequence EXPERIMENTS.md expects.
#
#   scripts/check.sh [--sanitize] [--tsan] [--faults] [--bench] [--obs] \
#                    [--chaos] [--prec] [--tiled] [--tune] [cmake args...]
#
# --sanitize adds a second build under AddressSanitizer + UBSan with
# warnings-as-errors (IBCHOL_WERROR=ON) and runs the test suite against it
# twice: once with runtime SIMD dispatch free to pick the host's best tier,
# and once with IBCHOL_SIMD_ISA=scalar forcing the vectorized executor onto
# its portable scalar tier (the intrinsic tiers' memory behavior is
# identical by construction, but only the scalar tier gives the sanitizers
# full visibility into every lane's arithmetic). Benchmarks only run from
# the plain build; they are meaningless under instrumentation.
#
# --tsan adds a ThreadSanitizer build and runs the concurrency-bearing
# suites against it: the service layer (queue, deque, arena, BatchService),
# the chunk pipeline, and the observability layer (whose counters,
# histograms, and trace ring are recorded from worker threads). The suites
# run with OMP_NUM_THREADS=1 because libgomp is not TSAN-instrumented —
# TSAN cannot see its barriers and would report false races inside every
# OpenMP team; the service's own pthread-based pool is exactly what this
# mode is meant to prove out, and it is unaffected by the OpenMP clamp.
#
# --chaos runs the service overload/fault suite (deadlines, admission
# shedding, scratch-exhaustion aborts, poison quarantine, the watchdog,
# and the seeded chaos soak) under both ASan+UBSan and TSAN, pinning the
# soak to each of three fixed seeds (IBCHOL_CHAOS_SEED=1,2,3) so every
# seed's decision sequence is exercised in isolation and a failure names
# its seed. A final smoke drives the env-spec path: IBCHOL_CHAOS with
# stall/delay rates (result-preserving faults) against the plain build's
# bit-identity suite. Implies building the --sanitize and --tsan trees.
#
# --faults runs the resilience suite (fault injection, recovery, journaled
# sweeps) against the sanitizer build, then a kill-and-resume smoke test:
# a sweep halted hard at 50% and resumed from its journal must produce a
# dataset byte-identical to an uninterrupted run.
#
# --tiled verifies the large-N task-parallel path (DESIGN §13) under
# ASan+UBSan: the tile layout/DAG/reference suites and the service
# bit-identity grid, first with runtime SIMD dispatch free and then with
# IBCHOL_SIMD_ISA=scalar (the tile microkernels are plain autovectorized
# loops, so the forced-scalar pass pins the facade's routing and the
# pipeline interplay rather than intrinsic tiers). The TiledService suites
# also run under --tsan's ThreadSanitizer pass, where the work-stealing
# release chains are the thing being proved.
#
# --bench regenerates the canonical cross-PR perf summary BENCH_cpu.json
# (interpreter vs specialized vs vectorized executor, plus the large-n
# tiled lane merged in from fig_large_tiled and the instant-tuning lane
# from fig_instant_tune) from the plain build.
# Before overwriting, the fresh numbers are gated against the recorded
# ones: a drop of more than 15% in vec_gflops at any n fails the check, so
# a PR cannot silently regress the executor's throughput. When the gate
# reports an environment mismatch (exit 3: the baseline was recorded on a
# host with a different core count or SIMD tier), the comparison is
# skipped instead of failed; a multi-core host re-records the baseline in
# place, while a single-core host keeps the existing one (absolute numbers
# from a 1-CPU container would poison the baseline for every real host).
#
# --tune verifies the instant-tuning stack (DESIGN §14) under ASan+UBSan:
# the model-vs-exhaustive property suite and the cache-robustness suite,
# first with runtime SIMD dispatch free and then with IBCHOL_SIMD_ISA=scalar
# (the forced tier changes the host fingerprint, so the cache keying and
# exec-override paths are exercised on a second tier). A cache-corruption
# matrix then drives each failure mode (truncation, checksum flip, version
# bump, mixed good/bad files, a wholly garbage cache behind the tuner) as
# its own sanitizer-instrumented invocation, asserting cold-start behavior
# and exit 0 for every mode. The TuneCacheConcurrency suite also runs under
# --tsan's ThreadSanitizer pass.
#
# --prec verifies the reduced-precision storage lanes (bf16/fp16 words,
# fp32 accumulate — DESIGN §12) under ASan+UBSan: the conversion property
# suite, the mixed pipeline/refinement/recovery/service suites, first with
# runtime dispatch free and then with IBCHOL_CONVERT_ISA=scalar +
# IBCHOL_SIMD_ISA=scalar forcing both the conversion primitives and the
# compute body onto their portable scalar tiers (the only tiers the
# sanitizers can see into lane by lane; the SIMD tiers are bit-identical
# to them by construction, which the Convert tier tests assert). A final
# pass against the plain build re-runs the fp32 differential/bit-identity
# suites, pinning that the fp32 lane is untouched by the mixed machinery.
#
# --obs verifies the observability layer in both compile modes: a build
# with IBCHOL_OBS=OFF runs the full suite (proving every instrumentation
# site compiles to nothing), then the plain ON build runs the obs/replay
# suites and smoke-validates both trace exporters (micro_cpu --trace and
# autotune_explore --trace) with python's JSON parser.
set -euo pipefail
cd "$(dirname "$0")/.."

# Every temp file/dir any mode creates registers here; one trap cleans up
# on ANY exit, success or failure — a failed bench gate must not leave a
# stale BENCH_cpu.json.tmp behind.
CLEANUP_PATHS=()
cleanup() {
  ((${#CLEANUP_PATHS[@]})) && rm -rf "${CLEANUP_PATHS[@]}"
  return 0
}
trap cleanup EXIT

SANITIZE=0
TSAN=0
FAULTS=0
BENCH=0
OBS=0
CHAOS=0
PREC=0
TILED=0
TUNE=0
CMAKE_ARGS=()
for arg in "$@"; do
  case "${arg}" in
    --sanitize) SANITIZE=1 ;;
    --tsan) TSAN=1 ;;
    --faults) FAULTS=1 ;;
    --bench) BENCH=1 ;;
    --obs) OBS=1 ;;
    --chaos) CHAOS=1 ;;
    --prec) PREC=1 ;;
    --tiled) TILED=1 ;;
    --tune) TUNE=1 ;;
    *) CMAKE_ARGS+=("${arg}") ;;
  esac
done

cmake -B build -G Ninja ${CMAKE_ARGS[@]+"${CMAKE_ARGS[@]}"}
cmake --build build
ctest --test-dir build --output-on-failure -j "$(nproc)"

configure_sanitize_build() {
  SAN_FLAGS="-fsanitize=address,undefined -fno-sanitize-recover=all"
  # -Wno-maybe-uninitialized: under sanitizer instrumentation GCC 12 flags
  # the _mm512_undefined_* pattern inside its own avx512fintrin.h header;
  # -Werror stays on for everything else (same exception as the TSAN tree).
  cmake -B build-sanitize -G Ninja \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DIBCHOL_WERROR=ON \
    -DCMAKE_CXX_FLAGS="${SAN_FLAGS} -Wno-maybe-uninitialized" \
    -DCMAKE_EXE_LINKER_FLAGS="${SAN_FLAGS}" \
    ${CMAKE_ARGS[@]+"${CMAKE_ARGS[@]}"}
  cmake --build build-sanitize
}

if [[ "${SANITIZE}" == 1 ]]; then
  configure_sanitize_build
  ctest --test-dir build-sanitize --output-on-failure -j "$(nproc)"
  # Second pass with the vectorized executor forced onto the scalar tier,
  # so ASan/UBSan instrument the lane arithmetic itself rather than opaque
  # intrinsics. The SIMD executor suite is the target; the dispatch tests
  # double-check the override actually took effect.
  # The chunk pipeline rides along: forcing the scalar tier pushes its
  # pack/compute/unpack staging (including the streaming-store write-back
  # the NtStore test forces) through fully instrumented lane arithmetic.
  IBCHOL_SIMD_ISA=scalar ctest --test-dir build-sanitize \
    --output-on-failure -j "$(nproc)" \
    -R 'VecExec|SimdDispatch|ChunkPipeline|PackUnpack'
fi

if [[ "${TSAN}" == 1 ]]; then
  TSAN_FLAGS="-fsanitize=thread"
  # -Wno-maybe-uninitialized: under sanitizer instrumentation GCC 12 flags
  # the _mm512_undefined_* pattern inside its own avx512fintrin.h header;
  # -Werror stays on for everything else.
  cmake -B build-tsan -G Ninja \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DIBCHOL_WERROR=ON \
    -DCMAKE_CXX_FLAGS="${TSAN_FLAGS} -Wno-maybe-uninitialized" \
    -DCMAKE_EXE_LINKER_FLAGS="${TSAN_FLAGS}" \
    ${CMAKE_ARGS[@]+"${CMAKE_ARGS[@]}"}
  cmake --build build-tsan
  # The concurrency-bearing suites: service layer (lock-free queue, deque,
  # arena, the BatchService end-to-end tests including the concurrent
  # submission stress), chunk pipeline, observability. OMP_NUM_THREADS=1
  # keeps uninstrumented libgomp out of the picture (see header comment);
  # the service's own worker pool still runs fully multi-threaded. The
  # ObsReplay suite is excluded: it pins an OpenMP team of 2 by design
  # (replay determinism needs a fixed schedule), and TSAN cannot see
  # libgomp's barriers.
  OMP_NUM_THREADS=1 ctest --test-dir build-tsan --output-on-failure \
    -j "$(nproc)" \
    -R 'MpmcQueue|WorkDeque|UnitTaskPacking|ScratchArena|BatchService|ServiceDeadline|ServicePriority|ServiceAdmission|ServiceChaos|ServiceScreen|ServiceWatchdog|ServiceMixed|TiledService|TiledFacade|ChunkPipeline|Trace|Counters|HistogramTest|TuneCacheConcurrency'
  echo "tsan check: service/pipeline/obs suites clean under ThreadSanitizer"
fi

if [[ "${CHAOS}" == 1 ]]; then
  # Overload/fault semantics under both sanitizers. The suite regex covers
  # the chaos tests plus the primitives they lean on (arena failure paths,
  # queue wrap-around, the service teardown races).
  CHAOS_SUITES='ServiceDeadline|ServicePriority|ServiceAdmission|ServiceChaos|ServiceScreen|ServiceWatchdog|ServiceMixed|ScratchArena|MpmcQueue|BatchService'
  configure_sanitize_build
  if [[ "${TSAN}" != 1 ]]; then
    # Reuse the --tsan tree when that mode already built it.
    TSAN_FLAGS="-fsanitize=thread"
    cmake -B build-tsan -G Ninja \
      -DCMAKE_BUILD_TYPE=RelWithDebInfo \
      -DIBCHOL_WERROR=ON \
      -DCMAKE_CXX_FLAGS="${TSAN_FLAGS} -Wno-maybe-uninitialized" \
      -DCMAKE_EXE_LINKER_FLAGS="${TSAN_FLAGS}" \
      ${CMAKE_ARGS[@]+"${CMAKE_ARGS[@]}"}
    cmake --build build-tsan
  fi
  # Three fixed seeds, each a full pass: the seed pins the per-site chaos
  # decision sequences, so seed-by-seed runs are reproducible and a
  # failure log names the seed to rerun.
  for seed in 1 2 3; do
    IBCHOL_CHAOS_SEED="${seed}" ctest --test-dir build-sanitize \
      --output-on-failure -j "$(nproc)" -R "${CHAOS_SUITES}"
    IBCHOL_CHAOS_SEED="${seed}" OMP_NUM_THREADS=1 ctest \
      --test-dir build-tsan --output-on-failure -j "$(nproc)" \
      -R "${CHAOS_SUITES}"
  done
  # Env-spec smoke: chaos installed through IBCHOL_CHAOS (the latch path,
  # not install_svc_chaos). Stall/delay faults only — they perturb timing,
  # never results, so the bit-identity suites of all three lanes (fp32/fp64
  # chunk and canonical, bf16/fp16 chunk, tiled) must still pass verbatim.
  IBCHOL_CHAOS='seed=2,stall_rate=0.02,stall_ms=1,writeback_delay_rate=0.02,writeback_delay_ms=0.5' \
    ctest --test-dir build --output-on-failure -j "$(nproc)" \
    -R 'BatchService.BitIdentical|ServiceMixed.SubmitMixedBitIdentical|TiledService.BitIdentical'
  echo "chaos check: overload/fault suites clean under ASan+UBSan and TSAN (seeds 1 2 3), env-spec smoke bit-identical"
fi

if [[ "${PREC}" == 1 ]]; then
  PREC_SUITES='Convert|MixedPrec|ServiceMixed|Refine'
  configure_sanitize_build
  # Pass 1: runtime dispatch free — the host's best conversion and compute
  # tiers run under ASan+UBSan.
  ctest --test-dir build-sanitize --output-on-failure -j "$(nproc)" \
    -R "${PREC_SUITES}"
  # Pass 2: both the conversion primitives and the compute body forced
  # onto their scalar tiers, giving the sanitizers per-lane visibility
  # into the narrow/widen arithmetic and the mixed pack/write-back
  # staging. The SIMD tiers are bit-identical by construction (asserted
  # by the Convert tier tests), so scalar coverage is full coverage.
  IBCHOL_CONVERT_ISA=scalar IBCHOL_SIMD_ISA=scalar ctest \
    --test-dir build-sanitize --output-on-failure -j "$(nproc)" \
    -R "${PREC_SUITES}"
  # fp32 untouched: the differential grid and the bit-identity suites on
  # the plain build must still hold — the mixed machinery shares the
  # chunk pipeline with the fp32 lane, and this pins that sharing never
  # perturbs an fp32 result.
  ctest --test-dir build --output-on-failure -j "$(nproc)" \
    -R 'DifferentialExec|BitIdentical'
  echo "prec check: conversion + mixed-precision suites clean under ASan+UBSan (auto and forced-scalar tiers), fp32 bit-identity intact"
fi

if [[ "${TILED}" == 1 ]]; then
  TILED_SUITES='TileLayout|DagSpec|TiledReference|TiledService|TiledFacade'
  configure_sanitize_build
  # Pass 1: runtime dispatch free — the host's best tiers under ASan+UBSan
  # (the DAG release chains and arena staging are what the sanitizers
  # watch; the tile microkernels are plain loops either way).
  ctest --test-dir build-sanitize --output-on-failure -j "$(nproc)" \
    -R "${TILED_SUITES}"
  # Pass 2: forced-scalar. The tiled executor itself has no intrinsic
  # tiers, but the facade's small-n/large-n routing boundary does — this
  # pins that the boundary behaves identically when the vectorized
  # executor is clamped to its portable tier.
  IBCHOL_SIMD_ISA=scalar ctest --test-dir build-sanitize \
    --output-on-failure -j "$(nproc)" -R "${TILED_SUITES}"
  echo "tiled check: layout/DAG/reference/service/facade suites clean under ASan+UBSan (auto and forced-scalar)"
fi

if [[ "${TUNE}" == 1 ]]; then
  TUNE_SUITES='TuneProperty|TuneCache|TuneCacheConcurrency|Analyze'
  configure_sanitize_build
  # Pass 1: runtime dispatch free — the model-vs-exhaustive property suite,
  # the cache-robustness suite, and the feature-schema suite under
  # ASan+UBSan (the cache parser over adversarial bytes is exactly where
  # the sanitizers earn their keep).
  ctest --test-dir build-sanitize --output-on-failure -j "$(nproc)" \
    -R "${TUNE_SUITES}"
  # Pass 2: forced-scalar. The SIMD tier is part of the host fingerprint
  # and of every cached entry's key, so clamping the tier exercises cache
  # keying, exec overrides, and the probe paths on a second tier.
  IBCHOL_SIMD_ISA=scalar ctest --test-dir build-sanitize \
    --output-on-failure -j "$(nproc)" -R 'TuneProperty|TuneCache'
  # Cache-corruption matrix: each failure mode as its own
  # sanitizer-instrumented invocation, so a regression log names the mode
  # (truncation, checksum flip, version bump, mixed files, torn tail,
  # garbage cache behind the tuner) instead of one opaque suite failure.
  for mode in \
      TuneCache.EveryTruncationParsesAsNothing \
      TuneCache.CorruptPayloadOrChecksumFailsClosed \
      TuneCache.VersionBumpSkipsLine \
      TuneCache.LoadSkipsBadLinesAndKeepsEveryGoodOne \
      TuneCache.AppendAfterTornLineStartsFresh \
      TuneCache.InstantTunerColdStartsFromCorruptFile; do
    build-sanitize/tests/tune_cache_test --gtest_brief=1 \
      --gtest_filter="${mode}"
  done
  echo "tune check: property/cache/schema suites clean under ASan+UBSan (auto and forced-scalar tiers), corruption matrix cold-starts every mode"
fi

if [[ "${FAULTS}" == 1 ]]; then
  configure_sanitize_build
  # The fault-injection / recovery / journaling suite under instrumentation.
  ctest --test-dir build-sanitize --output-on-failure -j "$(nproc)" \
    -R '^(Recover|FaultGrid|FaultPlan|SolveGuard|ResilientSweepTest|Journal|Grid/)'

  # Kill-and-resume smoke: the resilience example journals a sweep, gets
  # killed hard (std::_Exit) halfway through, resumes from the journal, and
  # the resulting dataset must be byte-identical to an uninterrupted run.
  FAULTS_TMP="$(mktemp -d)"
  CLEANUP_PATHS+=("${FAULTS_TMP}")
  RES=build-sanitize/examples/resilience
  "${RES}" --batch=512 --csv="${FAULTS_TMP}/uninterrupted.csv" > /dev/null
  set +e
  "${RES}" --batch=512 --journal="${FAULTS_TMP}/sweep.jsonl" \
    --halt-after=54 > /dev/null
  halt_status=$?
  set -e
  if [[ "${halt_status}" != 17 ]]; then
    echo "expected the halted sweep to exit with code 17, got ${halt_status}"
    exit 1
  fi
  "${RES}" --batch=512 --journal="${FAULTS_TMP}/sweep.jsonl" --resume \
    --csv="${FAULTS_TMP}/resumed.csv" > /dev/null
  cmp "${FAULTS_TMP}/uninterrupted.csv" "${FAULTS_TMP}/resumed.csv"
  echo "kill-and-resume smoke: resumed dataset byte-identical to uninterrupted"
fi

if [[ "${OBS}" == 1 ]]; then
  # OFF build: every span/counter site must compile away cleanly; the full
  # suite runs against the stripped binaries (obs-session tests self-skip).
  cmake -B build-obs-off -G Ninja -DIBCHOL_OBS=OFF \
    ${CMAKE_ARGS[@]+"${CMAKE_ARGS[@]}"}
  cmake --build build-obs-off
  ctest --test-dir build-obs-off --output-on-failure -j "$(nproc)"
  # The OFF summary run doubles as the zero-overhead assertion: micro_cpu
  # exits nonzero if an inactive span site costs measurable time.
  OBS_TMP="$(mktemp -d)"
  CLEANUP_PATHS+=("${OBS_TMP}")
  build-obs-off/bench/micro_cpu --json="${OBS_TMP}/off_summary.json" \
    > /dev/null
  python3 -m json.tool "${OBS_TMP}/off_summary.json" > /dev/null

  # ON build (the default): focused re-run of the obs + replay suites, then
  # both exporters' artifacts must parse as the JSON they claim to be.
  ctest --test-dir build --output-on-failure -j "$(nproc)" \
    -R 'Trace|Counters|HwCounters|ObsReplay'
  build/bench/micro_cpu --trace="${OBS_TMP}/pipeline_trace.json"
  python3 -m json.tool "${OBS_TMP}/pipeline_trace.json" > /dev/null
  build/examples/autotune_explore --sizes=8 --batch=1024 \
    --trace="${OBS_TMP}/sweep_trace.jsonl" > /dev/null
  python3 -c "
import json, sys
for line in open(sys.argv[1]):
    json.loads(line)
" "${OBS_TMP}/sweep_trace.jsonl"
  echo "obs check: OFF build clean, ON traces parse"
fi

if [[ "${BENCH}" == 1 ]]; then
  BENCH_TMP="$(mktemp --suffix=.json)"
  CLEANUP_PATHS+=("${BENCH_TMP}")
  build/bench/micro_cpu --json="${BENCH_TMP}"
  # The large-n tiled lane rides along in the same document: merged in as
  # "large_summary" so one baseline file carries every gated lane.
  LARGE_TMP="$(mktemp --suffix=.json)"
  CLEANUP_PATHS+=("${LARGE_TMP}")
  build/bench/fig_large_tiled --json="${LARGE_TMP}"
  # The instant-tuning lane too: selection quality of the model-guided
  # probe (probe_gflops) is gated the same way the executors are.
  INSTANT_TMP="$(mktemp --suffix=.json)"
  CLEANUP_PATHS+=("${INSTANT_TMP}")
  build/bench/fig_instant_tune --json="${INSTANT_TMP}"
  python3 - "${BENCH_TMP}" "${LARGE_TMP}" "${INSTANT_TMP}" <<'PY'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
with open(sys.argv[2]) as f:
    large = json.load(f)
with open(sys.argv[3]) as f:
    instant = json.load(f)
doc["large_summary"] = large.get("large_summary", [])
doc["instant_summary"] = instant.get("instant_summary", [])
with open(sys.argv[1], "w") as f:
    json.dump(doc, f, indent=2)
    f.write("\n")
PY
  gate_status=0
  if [[ -f BENCH_cpu.json ]]; then
    set +e
    python3 scripts/bench_gate.py BENCH_cpu.json "${BENCH_TMP}"
    gate_status=$?
    set -e
  fi
  if [[ "${gate_status}" == 3 ]]; then
    # Environment mismatch: the baseline is from different hardware, so
    # the comparison was skipped, not failed. Re-record only from a
    # multi-core host — a 1-CPU container's numbers would become a
    # baseline no real host can be judged against.
    if [[ "$(nproc)" -gt 1 ]]; then
      echo "bench gate: re-recording BENCH_cpu.json for this host"
      mv "${BENCH_TMP}" BENCH_cpu.json
    else
      echo "bench gate: single-core host; keeping the recorded baseline"
    fi
  elif [[ "${gate_status}" != 0 ]]; then
    exit "${gate_status}"
  else
    mv "${BENCH_TMP}" BENCH_cpu.json
  fi
fi

for b in build/bench/*; do
  echo "===== ${b}"
  "${b}"
done

# Mode summary: every optional gate is named whether it ran or not, so a
# forgotten --chaos (or --tsan, ...) is visible in the default output
# instead of silently absent.
echo "===== check.sh mode summary"
summary_mode() {
  if [[ "$2" == 1 ]]; then
    echo "  $1: ran"
  else
    echo "  $1: SKIPPED (enable with --$1)"
  fi
}
summary_mode sanitize "${SANITIZE}"
summary_mode tsan "${TSAN}"
summary_mode chaos "${CHAOS}"
summary_mode prec "${PREC}"
summary_mode tiled "${TILED}"
summary_mode tune "${TUNE}"
summary_mode faults "${FAULTS}"
summary_mode bench "${BENCH}"
summary_mode obs "${OBS}"
