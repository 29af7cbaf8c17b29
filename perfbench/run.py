#!/usr/bin/env python3
"""The repository benchmark: one command per workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the library and the benchmark executable from source (CMake, into
$CARGO_TARGET_DIR or .bench_build/ under the checkout), runs the workload
and prints every metric by name with its unit. The last line of standard
output is the result object: {"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics. The measuring time is split
over MEASURE_PROCESSES fresh processes and each metric is the median over
them, because one process can run at a persistently different speed from
the next (its memory placement, its host neighbours). setup_s is the
median over SETUP_SAMPLES fresh set-up-only processes, spread between the
measuring ones, plus the measuring processes themselves, so first-call
costs are paid in every sample. --trace 1 reports the per-layer metrics
from one traced process and writes its spans next to the build. Metric
names and units come from BENCHMARK.json.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = HERE.parent / "BENCHMARK.json"
WORKLOADS = ("canonical_small", "large_mixed", "service_open", "als_train")
MEASURE_PROCESSES = 5
SETUP_SAMPLES = 12
# Every process of one run must end within this many seconds of the build.
DEADLINE_S = 170
# Workload-specific figures printed by name, by the part of their name
# before the first '.'; they are not in BENCHMARK.json (see README.md).
REPORT_UNITS = {
    "request_p50_ms": "ms", "request_p99_ms": "ms", "slo_rate_per_s": "1/s",
    "slo_limit_ms": "ms", "generator_late_ms": "ms", "backlog": "count",
    "saturated_requests_per_s": "1/s", "round_p50_ms": "ms",
    "iterations": "count", "test_rmse": "ratio", "peak_rss_mb": "MB",
}


def metric_units():
    """Units of the end-to-end and the per-layer metrics, by name."""
    spec = json.loads(SPEC.read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def build(out_dir):
    """Configures and builds the benchmark (and the library under it)."""
    build_dir = out_dir / "perfbench"
    log_path = out_dir / "build.log"
    with open(log_path, "w") as log:
        for cmd in (["cmake", "-S", str(HERE), "-B", str(build_dir),
                     "-DCMAKE_BUILD_TYPE=Release"],
                    ["cmake", "--build", str(build_dir), "--parallel", "4"]):
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode:
                sys.exit(f"build failed: {' '.join(cmd)} (see {log_path})")
    return build_dir / "ibchol_perfbench"


def run_binary(exe, args, deadline):
    left = deadline - time.monotonic()
    try:
        proc = subprocess.run([str(exe)] + args, capture_output=True,
                              text=True, timeout=max(left, 1))
    except subprocess.TimeoutExpired:
        sys.exit(f"benchmark process ran past the {DEADLINE_S} s deadline")
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        sys.exit(f"benchmark process failed with exit code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--inject-delay", default="",
                    help="test hook: <span name>:<microseconds>")
    args = ap.parse_args()
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    out_dir = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build").resolve()
    out_dir.mkdir(parents=True, exist_ok=True)
    exe = build(out_dir)

    deadline = time.monotonic() + DEADLINE_S
    common = [f"--workload={args.workload}", f"--seed={args.seed}"]
    if args.inject_delay:
        common.append(f"--inject-delay={args.inject_delay}")

    def setup_samples(count):
        return [run_binary(exe, common + ["--seconds=1", "--setup-only"],
                           deadline)["setup_s"] for _ in range(count)]

    trace_file = out_dir / f"trace-{args.workload}-seed{args.seed}.jsonl"
    if args.trace:
        res = run_binary(exe, common + [f"--seconds={args.seconds}",
                                        "--trace=1",
                                        f"--trace-file={trace_file}"], deadline)
        runs, setups = [res], []
    else:
        # Set-up samples before, between and after the measuring processes,
        # so their median spans the same stretch of host load as the run.
        between = SETUP_SAMPLES // (MEASURE_PROCESSES + 1)
        runs, setups = [], []
        for _ in range(MEASURE_PROCESSES):
            setups += setup_samples(between)
            runs.append(run_binary(
                exe, common + [f"--seconds={args.seconds / MEASURE_PROCESSES}",
                               "--trace=0"], deadline))
        setups += setup_samples(SETUP_SAMPLES - between * MEASURE_PROCESSES)
        setups += [r["setup_s"] for r in runs]
        # The median process (by its first metric) supplies the printed
        # figures; the result's metrics are per-metric medians.
        key = sorted(runs[0]["metrics"])[0]
        res = sorted(runs, key=lambda r: r["metrics"][key])[len(runs) // 2]

    e2e_units, layer_units = metric_units()
    if args.trace:
        values, units = res["metrics"], layer_units
        print(f"trace: {trace_file}")
    else:
        values = {name: statistics.median(r["metrics"][name] for r in runs)
                  for name in res["metrics"]}
        values["setup_s"] = statistics.median(setups)
        units = e2e_units
        print(f"setup_s samples: {setups}")
        for name in res["metrics"]:
            print(f"{name} per process: {[r['metrics'][name] for r in runs]}")
    if set(values) != set(units):
        sys.exit(f"metrics do not match {SPEC.name}: "
                 f"{sorted(set(values) ^ set(units))}")
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items()}

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    attempted = sum(int(r["attempted"]) for r in runs)
    failed = sum(int(r["failed"]) for r in runs)
    print(f"  failed_frac = {failed / attempted:.6g} ratio "
          f"({failed} of {attempted})")
    for name, value in res["report"].items():
        unit = REPORT_UNITS.get(name.split(".")[0], "")
        print(f"  {name} = {value:.6g} {unit}")
    for name, value in res["samples"].items():
        print(f"  samples {name} = {value:.0f}")
    print("config: " + json.dumps(res["config"], sort_keys=True))

    print(json.dumps({"correct": all(r["correct"] for r in runs),
                      "attempted": attempted,
                      "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
