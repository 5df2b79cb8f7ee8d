"""Benchmark of the cuspidal package.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload as a closed loop with one client: the next request starts
when the previous one has returned.  Requests come in rounds of a fixed band
mix (see pools.py); the loop stops at the first round boundary after S
seconds, or when the pool has no unused round left.  Every output is checked
against the digest and exit code stored in expected.json and against the
laws that hold for any input; a wrong output counts as a failed operation.

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics of
a traced run.  End-to-end times and rates are at reference host speed: the
run times a fixed kernel between requests and scales each wall time by the
kernel's reference time over its median time around that request (see
speed.py).  The last line of stdout is the JSON result; the lines before it
repeat every metric with its unit and sample count.  A run record and the
spans of a traced run go to .bench_build/perfbench/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import signal
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path
from typing import Dict, List, Optional

from child import PEAK_MARK
from common import (
    CHILD,
    EXIT_UNUSABLE,
    OUT,
    ROOT,
    SRC,
    call_cli,
    child_env,
    digest,
    load_json,
    median,
    request_key,
    require_source,
    write_json,
)
from pools import WARMUP, WORKLOADS, schedule
from speed import HostSpeed
from tracer import Aggregate, Tracer, self_shares

EXPECTED = Path(__file__).resolve().parent / "expected.json"
EXIT_TERMINATED = 128 + signal.SIGTERM
SETUP_LAUNCHES = 15
REQUEST_TIMEOUT_S = 150


# --- correctness -----------------------------------------------------------

def _fraction(text: str) -> Optional[Fraction]:
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError):
        return None


def law_holds(law, results) -> bool:
    """The checks that hold for any seed, on one unit's (seconds, code, stdout) results."""
    kind = law[0]
    if kind == "agree":
        _, code, stdout = results[0]
        try:
            return code == 0 and json.loads(stdout)["results"]["methods_agree"] is True
        except (ValueError, KeyError, TypeError):
            return False
    values = [_fraction(stdout) for _, code, stdout in results]
    if any(code != 0 for _, code, _ in results) or None in values:
        return False
    if kind == "two_term":
        p, q = law[1:]
        return sum(values) == (Fraction(p, q) + Fraction(q, p) + Fraction(1, p * q) - 3) / 12
    if kind == "three_term":
        p, q, r = law[1:]
        return sum(values) == Fraction(p * p + q * q + r * r - 3 * p * q * r, 12 * p * q * r)
    raise ValueError(f"unknown law {kind!r}")


def verify(unit, results, expected) -> List[bool]:
    """Per request: does the output match the stored digest and exit code, and the unit's law."""
    ok = []
    for argv, (_, code, stdout) in zip(unit["argv"], results):
        ok.append(expected.get(request_key(argv)) == [code, digest(argv, stdout)])
    if unit["law"] and not law_holds(unit["law"], results):
        ok = [False] * len(ok)
    return ok


# --- execution -------------------------------------------------------------

class Executor:
    """Runs requests in this process or each in a fresh interpreter, traced or not."""

    def __init__(self, mode: str, cli_module, traced: bool, warmup=None) -> None:
        self.mode = mode
        self.cli = cli_module
        self.aggregate = Aggregate() if traced else None
        self.spans: List[list] = []
        self.request_id = 0
        self.tracer: Optional[Tracer] = None
        self.inner_request_s = 0.0  # request time measured where the spans are taken
        self.child_peak_kb = 0  # largest peak resident set a child reported
        if mode == "inproc" and warmup:
            call_cli(cli_module, warmup)
        if traced and mode == "inproc":
            self.tracer = Tracer()
            self.tracer.install()

    def run(self, argv):
        self.request_id += 1
        if self.mode == "inproc":
            if self.tracer:
                self.tracer.request = self.request_id
            result = call_cli(self.cli, argv)
            if self.tracer:
                self.inner_request_s += result[0]
            return result
        return self._run_child(argv)

    def _run_child(self, argv):
        command = [sys.executable, str(CHILD), "cli"]
        spans_file = OUT / "child-spans.json"
        if self.aggregate is not None:
            spans_file.unlink(missing_ok=True)
            command += ["--spans", str(spans_file)]
        start = time.perf_counter()
        try:
            proc = subprocess.run(
                command + ["--", *argv], cwd=ROOT, env=child_env(),
                capture_output=True, text=True, timeout=REQUEST_TIMEOUT_S,
            )
            code, stdout = proc.returncode, proc.stdout
            for line in proc.stderr.splitlines():
                if line.startswith(PEAK_MARK):
                    self.child_peak_kb = max(self.child_peak_kb, int(line[len(PEAK_MARK):]))
        except subprocess.TimeoutExpired:
            code, stdout = -1, ""
        elapsed = time.perf_counter() - start
        if self.aggregate is not None and spans_file.exists():
            state = load_json(spans_file)
            self.aggregate.add(state)
            offset = len(self.spans)
            for span in state["spans"]:
                if span[3] >= 0:
                    span[3] += offset
                span[4] = self.request_id
            self.spans += state["spans"]
            self.inner_request_s += state["request_s"]
        return elapsed, code, stdout

    def finish(self) -> None:
        if self.tracer:
            self.tracer.uninstall()
            self.aggregate.add(self.tracer.state())
            self.spans = self.tracer.spans


def measure_setup(speed: HostSpeed) -> List[tuple]:
    """(start, seconds) of fresh interpreters importing cuspidal.cli, after one untimed launch.

    The host-speed kernel runs before and after each timed launch.
    """
    command = [sys.executable, "-c", "import cuspidal.cli"]
    samples = []
    for i in range(SETUP_LAUNCHES + 1):
        if i:
            speed.sample()
        start = time.perf_counter()
        proc = subprocess.run(command, cwd=ROOT, env=child_env(), capture_output=True, timeout=60)
        elapsed = time.perf_counter() - start
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr.decode(errors="replace"))
            raise SystemExit(EXIT_UNUSABLE)
        if i:
            samples.append((start, elapsed))
    speed.sample()
    return samples


def run_loop(workload: str, seed: int, budget_s: float, executor: Executor, expected,
             speed: Optional[HostSpeed]) -> dict:
    rounds = schedule(workload, seed)
    requests = []
    start = time.perf_counter()
    completed = 0
    for units in rounds:
        if time.perf_counter() - start >= budget_s:
            break
        for unit in units:
            starts, results = [], []
            for argv in unit["argv"]:
                if speed:
                    speed.maybe_sample()
                starts.append(time.perf_counter())
                results.append(executor.run(argv))
            for argv, t, (seconds, code, stdout), ok in zip(
                    unit["argv"], starts, results, verify(unit, results, expected)):
                requests.append({
                    "argv": argv, "band": unit["band"], "t": t, "s": seconds, "code": code,
                    "ok": ok, "bytes": len(stdout.encode()),
                    "configs": _configs(argv, stdout) if ok else 0,
                })
        completed += 1
    if speed:
        speed.sample()
    executor.finish()
    mix: Dict[str, int] = {}
    for unit in rounds[0]:
        mix[unit["band"]] = mix.get(unit["band"], 0) + len(unit["argv"])
    return {"requests": requests, "rounds": completed, "rounds_available": len(rounds),
            "loop_s": time.perf_counter() - start, "mix": mix}


def _configs(argv, stdout: str) -> int:
    if argv[0] != "enumerate":
        return 0
    return json.loads(stdout)["results"]["count"]


def replay_untraced(workload: str, mode: str, argvs) -> List[float]:
    """Times of the same requests without tracing, in processes the traced run never touched."""
    if mode == "subprocess":
        executor = Executor(mode, None, traced=False)
        return [executor.run(argv)[0] for argv in argvs]
    job = OUT / f"replay-{workload}.json"
    write_json(job, {"warmup": WARMUP[workload], "requests": argvs})
    proc = subprocess.run(
        [sys.executable, str(CHILD), "replay", str(job)], cwd=ROOT, env=child_env(),
        capture_output=True, text=True, timeout=REQUEST_TIMEOUT_S,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(EXIT_UNUSABLE)
    return json.loads(proc.stdout.splitlines()[-1])["request_s"]


# --- metrics ---------------------------------------------------------------

def percentile(values: List[float], q: float):
    """Nearest-rank percentile and the number of samples above its rank."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def band_rate(loop: dict) -> float:
    """Requests per second of one round, each band's requests at their median latency.

    Medians per band make the rate robust to a request slowed by a noisy
    neighbour and to which units of a band a seed draws; the round mix is
    the same in every run.
    """
    seconds = sum(count * median([r["ref_s"] for r in loop["requests"] if r["band"] == band])
                  for band, count in loop["mix"].items())
    return sum(loop["mix"].values()) / seconds


def end_to_end(workload: str, loop: dict, setup: List[float], peak_kb: int) -> Dict[str, tuple]:
    """Metrics shared by every workload: name -> (value, unit, note).

    Times and rates are at reference host speed: `ref_s` of each request and
    `setup`, not the wall times.
    """
    latencies = [r["ref_s"] for r in loop["requests"]]
    wall = [r["s"] for r in loop["requests"]]
    if workload == "enumerate_multicusp":
        # Bands span three genera, whose configuration counts differ, so the
        # rate is taken per request, where work and time belong together.
        throughput = median([r["configs"] / r["ref_s"] for r in loop["requests"]])
        what = "configurations decided per second, median over requests"
    else:
        throughput = band_rate(loop)
        what = "requests per second, band medians over the round mix"
    return {
        "setup_s": (median(setup), "s", f"median of {len(setup)} fresh imports of cuspidal.cli"),
        "p50_ms": (1000 * median(latencies), "ms",
                   f"median of {len(latencies)} requests, {len(latencies) // 2} beyond; "
                   f"{1000 * median(wall):.6g} ms of wall time"),
        "ops_per_s": (throughput, "1/s", what),
        "peak_rss_mb": (peak_kb / 1024, "MB",
                        "largest resident set of a process serving requests"),
    }


def named_metrics(workload: str, loop: dict, e2e: Dict[str, tuple]) -> List[tuple]:
    """The workload's metrics under their own names: (name, value, unit, note)."""
    requests = loop["requests"]
    latencies = [r["ref_s"] for r in requests]
    n = len(latencies)
    lines = []
    prefix = {"check_unicusp": "check", "sawtooth_spectra": "sawtooth"}.get(workload)
    if prefix:
        lines.append((f"{prefix}_p50_ms", e2e["p50_ms"][0], "ms", e2e["p50_ms"][2]))
        p90, beyond = percentile(latencies, 0.9)
        note = f"p90 of {n} requests, {beyond} beyond"
        if beyond < 10:
            note += "; fewer than 10 beyond, not a valid p90"
        lines.append((f"{prefix}_p90_ms", 1000 * p90, "ms", note))
        lines.append((f"{prefix}_rps", e2e["ops_per_s"][0], "1/s", e2e["ops_per_s"][2]))
    else:
        lines.append(("enumerate_configs_per_s", e2e["ops_per_s"][0], "1/s",
                      f"{sum(r['configs'] for r in requests)} configurations in {n} requests; "
                      + e2e["ops_per_s"][2]))
        lines.append(("enumerate_request_p50_s", e2e["p50_ms"][0] / 1000, "s", e2e["p50_ms"][2]))
    failed = sum(not r["ok"] for r in requests)
    lines.append(("failed_ratio", failed / n if n else 1.0, "ratio", f"{failed} of {n} requests"))
    for name in ("setup_s", "peak_rss_mb"):
        lines.append((name, *e2e[name]))
    scales = [r["ref_s"] / r["s"] for r in requests]
    lines.append(("host_scale", median(scales), "ratio",
                  f"median over requests of reference time over wall time, "
                  f"from {min(scales):.3g} to {max(scales):.3g}"))
    return lines


def trace_metrics(executor: Executor, traced_s: List[float], untraced_s: List[float],
                  loop: dict) -> Dict[str, tuple]:
    aggregate = executor.aggregate
    aggregate.counts["cli.output_bytes"] = sum(r["bytes"] for r in loop["requests"])
    metrics = aggregate.metrics()
    inner = executor.inner_request_s
    metrics["trace.request_s"] = (inner, "s")
    metrics["trace.unattributed_s"] = (inner - aggregate.self_total_ns / 1e9, "s")
    metrics["trace.untraced_request_s"] = (sum(untraced_s), "s")
    metrics["trace.overhead_s"] = (sum(traced_s) - sum(untraced_s), "s")
    return metrics


class Terminated(BaseException):
    """Raised on SIGTERM.

    It unwinds the stack like an exception, so subprocess.run kills and reaps
    the child it is waiting for.  It is not a SystemExit or an Exception, so
    call_cli, which catches those from the package, lets it through.
    """


def _terminate(signum, frame):
    raise Terminated()


# --- record ----------------------------------------------------------------

def git_revision() -> Optional[str]:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def src_lines() -> int:
    total = 0
    for path in sorted(SRC.rglob("*.py")):
        with open(path, "rb") as handle:
            total += sum(1 for _ in handle)
    return total


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)

    cli_module = require_source()
    expected = load_json(EXPECTED)[args.workload]
    mode = WORKLOADS[args.workload][1]
    traced = args.trace == 1
    OUT.mkdir(parents=True, exist_ok=True)

    # Untraced runs time the host-speed kernel between requests; see speed.py.
    speed = None if traced else HostSpeed()
    setup = [] if traced else measure_setup(speed)
    executor = Executor(mode, cli_module, traced, WARMUP[args.workload])
    # A traced run spends half its time traced and half replaying the same
    # requests untraced, which gives the tracing overhead.
    loop = run_loop(args.workload, args.seed, args.seconds / 2 if traced else args.seconds,
                    executor, expected, speed)
    requests = loop["requests"]
    failed = sum(not r["ok"] for r in requests)

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "python": platform.python_version(), "git_revision": git_revision(),
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "src_lines": src_lines(), "rounds": loop["rounds"],
        "rounds_available": loop["rounds_available"], "loop_s": loop["loop_s"],
        "attempted": len(requests), "failed": failed,
        "failures": [request_key(r["argv"]) for r in requests if not r["ok"]],
        "requests": [[request_key(r["argv"]), r["band"], r["s"], r["code"], r["ok"], r["t"]]
                     for r in requests],
    }
    if traced:
        argvs = [r["argv"] for r in requests]
        untraced = replay_untraced(args.workload, mode, argvs)
        metrics = trace_metrics(executor, [r["s"] for r in requests], untraced, loop)
        record["absent"] = sorted(executor.aggregate.absent)
        record["self_shares"] = self_shares(executor.aggregate)
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
        with open(spans_path, "w") as handle:
            for span in executor.spans:
                handle.write(json.dumps(span) + "\n")
        for name in record["absent"]:
            print(f"{name:48s} absent")
        lines = [(name, value, unit, "") for name, (value, unit) in metrics.items()]
    else:
        for r in requests:
            r["ref_s"] = r["s"] * speed.scale_at(r["t"])
        setup_ref = [seconds * speed.scale_at(start) for start, seconds in setup]
        if mode == "subprocess":
            peak_kb = executor.child_peak_kb
        else:
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        e2e = end_to_end(args.workload, loop, setup_ref, peak_kb)
        record["setup_samples_s"] = [[seconds, ref] for (_, seconds), ref in zip(setup, setup_ref)]
        record["kernel_samples_s"] = speed.samples
        record["request_ref_s"] = [r["ref_s"] for r in requests]
        n = len(requests)
        record["percentile_samples"] = {
            "p50": {"samples": n, "beyond": n // 2},
            "p90": {"samples": n, "beyond": percentile([r["ref_s"] for r in requests], 0.9)[1]},
        }
        lines = named_metrics(args.workload, loop, e2e)
        metrics = {name: (value, unit) for name, (value, unit, _) in e2e.items()}
    record["metrics"] = {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}
    record["named"] = [list(line) for line in lines]
    write_json(OUT / f"record-{args.workload}-seed{args.seed}-trace{args.trace}.json", record)

    for name, value, unit, note in lines:
        print(f"{name:48s} {value:14.6g} {unit:6s} {note}".rstrip())
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(requests),
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Terminated:
        sys.exit(EXIT_TERMINATED)
