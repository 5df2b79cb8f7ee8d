"""Tests of the benchmark itself.

    python3 perfbench/selftest.py

- The schedule is a function of the seed, and a run never repeats a request.
- Two traced runs with the same seed report identical counts, call counts
  and distinct ratios.  The run length is short enough that exactly one
  round is traced, so both runs make the same requests.
- In a traced run, the per-layer self times add up to the traced request
  time within the reported tracing overhead.
- In a directory holding only BENCHMARK.json and the benchmark, the
  benchmark exits with a nonzero code and prints no result.

The file name keeps pytest from collecting it: these checks run the
workloads and take a few minutes.
"""

import json
import shutil
import subprocess
import sys

from common import OUT, ROOT, request_key
from pools import WORKLOADS, schedule

RUN = [sys.executable, str(ROOT / "perfbench" / "run.py")]


def traced_run(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        RUN + ["--workload", workload, "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_schedule() -> None:
    for workload in WORKLOADS:
        first, again, other = (schedule(workload, s) for s in (7, 7, 8))
        assert first == again, workload
        assert first != other, workload
        keys = [request_key(argv) for units in first for unit in units for argv in unit["argv"]]
        assert len(keys) == len(set(keys)), f"{workload} repeats a request"


def test_counts_repeat_and_self_times_add_up() -> None:
    for workload in WORKLOADS:
        first, second = traced_run(workload, 3), traced_run(workload, 3)
        assert first["correct"] and second["correct"], workload
        exact = [name for name, m in first["metrics"].items() if m["unit"] != "s"]
        differ = [n for n in exact if first["metrics"][n] != second["metrics"][n]]
        assert not differ, f"{workload}: {differ} differ between identical runs"
        m = first["metrics"]
        unattributed = abs(m["trace.unattributed_s"]["value"])
        allowed = max(m["trace.overhead_s"]["value"], 0.01 * m["trace.request_s"]["value"])
        assert unattributed <= allowed, f"{workload}: {unattributed} s unattributed > {allowed} s"
        print(f"ok  {workload}: {len(exact)} counts and ratios repeat; "
              f"unattributed {unattributed:.4f} s, overhead {m['trace.overhead_s']['value']:.4f} s")


def test_fails_without_source() -> None:
    bare = OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "check_unicusp", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


if __name__ == "__main__":
    test_schedule()
    print("ok  schedule")
    test_fails_without_source()
    print("ok  fails without source")
    test_counts_repeat_and_self_times_add_up()
