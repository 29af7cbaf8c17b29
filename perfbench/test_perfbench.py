#!/usr/bin/env python3
"""Tests of the benchmark itself (not of the library).

    python3 perfbench/test_perfbench.py        # from the repository root

They build the benchmark like run.py does, then run short workloads and
check what the benchmark promises: the metric names match BENCHMARK.json,
every workload reads failed_frac = 0, the traced ledger's layers cover the
wall time (and stop covering it when time goes unattributed), an injected
delay shows up in the right layer and end-to-end metric, first-call costs
land in setup_s, and the benchmark refuses to run without the library's
sources.
"""
import json
import os
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402

OUT = Path(os.environ.get("CARGO_TARGET_DIR") or ROOT / ".bench_build").resolve()
SECONDS = "2"


def binary(*args):
    exe = OUT / "perfbench" / "ibchol_perfbench"
    proc = subprocess.run([str(exe), *args], capture_output=True, text=True,
                          timeout=170, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def workload(name, trace, *extra, seconds=SECONDS):
    return binary(f"--workload={name}", "--seed=7", f"--seconds={seconds}",
                  f"--trace={trace}", *extra)


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        OUT.mkdir(parents=True, exist_ok=True)
        run.build(OUT)
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        cls.e2e = {m["name"] for m in spec["end_to_end"]}
        cls.per_layer = {m["name"] for m in spec["per_layer"]}
        cls.workloads = [w["name"] for w in spec["workloads"]]
        cls.traced = {w: workload(w, 1) for w in cls.workloads}

    def test_workloads_match_runner(self):
        self.assertEqual(sorted(self.workloads), sorted(run.WORKLOADS))

    def test_untraced_metrics_and_no_failures(self):
        for w in self.workloads:
            res = workload(w, 0)
            self.assertTrue(res["correct"], w)
            self.assertEqual(res["failed"], 0, w)
            self.assertGreater(res["attempted"], 0, w)
            self.assertEqual(set(res["metrics"]) | {"setup_s"}, self.e2e, w)
            for name, value in res["metrics"].items():
                self.assertGreater(value, 0, f"{w} {name}")

    def test_traced_metrics_are_the_per_layer_set(self):
        for w, res in self.traced.items():
            self.assertTrue(res["correct"], w)
            self.assertEqual(set(res["metrics"]), self.per_layer, w)

    def test_ledger_covers_wall_within_5_percent(self):
        # The layers' self time plus the explicit harness steps (bench.*:
        # restores, checks, waits) must cover the wall time. What only the
        # round's or rung's root span covers is unattributed and does not
        # count.
        for w, res in self.traced.items():
            m = res["metrics"]
            shares = sum(v for k, v in m.items() if k.startswith("ledger.") and
                         k not in ("ledger.covered_share",
                                   "ledger.unattributed_share"))
            self.assertAlmostEqual(shares, m["ledger.covered_share"], places=9)
            self.assertGreaterEqual(m["ledger.covered_share"], 0.95, w)
            self.assertLessEqual(
                m["ledger.covered_share"] + m["ledger.unattributed_share"],
                1.0 + 1e-9, w)

    def test_unattributed_time_fails_coverage(self):
        # A delay inside the round's root span but outside every wrapped
        # call is unattributed, so the coverage check above would fail.
        res = workload("canonical_small", 1, "--inject-delay=bench.round:100000")
        m = res["metrics"]
        self.assertGreater(m["ledger.unattributed_share"], 0.1)
        self.assertLess(m["ledger.covered_share"], 0.95)

    def test_injected_convert_delay_moves_layout_and_throughput(self):
        delay_s = 0.05  # per convert call, six calls per round
        base_t = self.traced["canonical_small"]["metrics"]
        slow_t = workload("canonical_small", 1,
                          f"--inject-delay=layout.convert:{int(delay_s * 1e6)}")
        # One-sided: on a shared host the base run itself can read slow.
        self.assertGreater(
            slow_t["metrics"]["layout.convert_s"] - base_t["layout.convert_s"],
            0.5 * 6 * delay_s)
        self.assertGreater(slow_t["metrics"]["ledger.layout_share"],
                           base_t["ledger.layout_share"])
        # The factor layer does not absorb it. It may still slow down: the
        # delay leaves the OpenMP workers idle, and waking them costs the
        # next factor call milliseconds on a VM with CPU steal.
        self.assertLess(
            slow_t["metrics"]["cpu.factor_s"] - base_t["cpu.factor_s"],
            0.5 * (slow_t["metrics"]["layout.convert_s"] -
                   base_t["layout.convert_s"]))
        base = workload("canonical_small", 0)
        slow = workload("canonical_small", 0,
                        f"--inject-delay=layout.convert:{int(delay_s * 1e6)}")
        self.assertGreater(slow["report"]["round_p50_ms"] -
                           base["report"]["round_p50_ms"], 3 * delay_s * 1e3)
        self.assertLess(slow["metrics"]["matrices_per_s"],
                        base["metrics"]["matrices_per_s"])

    def test_injected_submit_delay_moves_svc_and_request_latency(self):
        delay_us = 2000
        base_t = self.traced["service_open"]["metrics"]
        slow_t = workload("service_open", 1,
                          f"--inject-delay=svc.submit:{delay_us}")
        self.assertGreater(slow_t["metrics"]["svc.submit_us"],
                           base_t["svc.submit_us"] + 0.8 * delay_us)
        self.assertGreater(slow_t["metrics"]["ledger.svc_share"],
                           base_t["ledger.svc_share"])
        # Requests are timed from their due time, so time spent in submit
        # reaches every request's latency; and a saturating burst's span
        # runs from its first submit, so it lowers the capacity too.
        base = workload("service_open", 0)
        slow = workload("service_open", 0,
                        f"--inject-delay=svc.submit:{delay_us}")
        self.assertGreater(slow["report"]["request_p50_ms.low"],
                           base["report"]["request_p50_ms.low"] +
                           0.8 * delay_us * 1e-3)
        self.assertLess(slow["metrics"]["matrices_per_s"],
                        0.8 * base["metrics"]["matrices_per_s"])

    def test_first_calls_are_paid_in_setup(self):
        delay_us = 50_000  # inside each of the six warm-up factor calls
        base = binary("--workload=canonical_small", "--seed=7", "--seconds=1",
                      "--setup-only")["setup_s"]
        slow = binary("--workload=canonical_small", "--seed=7", "--seconds=1",
                      "--setup-only", f"--inject-delay=cpu.factor:{delay_us}")
        self.assertGreater(slow["setup_s"] - base, 6 * delay_us * 1e-6 * 0.9)

    def test_large_mixed_keeps_both_thread_systems_in_one_process(self):
        # The small-n path (OpenMP teams) and the tiled DAG (service pool)
        # alternate in one process, where the known contention lives.
        m = self.traced["large_mixed"]["metrics"]
        self.assertGreater(m["cpu.calls"], 0)
        self.assertGreater(m["tiled.calls"], 0)
        self.assertGreater(m["ledger.cpu_share"], 0)
        self.assertGreater(m["ledger.tiled_share"], 0)

    def test_fails_without_library_sources(self):
        bare = OUT / "selftest-bare"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        env = dict(os.environ, CARGO_TARGET_DIR=str(bare / ".bench_build"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "als_train",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, env=env, capture_output=True, text=True, timeout=170)
        shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
