"""Spans and counts around the package's public functions, from outside the package.

`Tracer.install()` wraps each function named in TIMED and rebinds the
wrapper under every name that refers to the original in any loaded
`cuspidal` module, so calls between modules and inside a module go through
it.  A span is (name, start ns, end ns, parent span, request id); spans stay
in memory until the run writes them out.  A name missing from the package is
reported absent, not as an error.

The counts are taken from each call's arguments and result, and the
interval query count from `SpectrumMultiset.count_open`, so they describe
the work of the package as it stands; they are exact and repeat from run to
run on the same requests.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from typing import Callable, Dict, List

TIMED = {
    "semigroups": ("curve_r_function", "infimum_convolution", "counting_function", "cusp_semigroup"),
    "hf": ("hf_check", "max_p_over_presentations", "d_invariant"),
    "spectra": (
        "semicontinuity_check",
        "spectrum_at_infinity_table",
        "spectrum_at_infinity_derived",
        "cusp_spectrum",
        "semicontinuity_scan_points",
    ),
    "dedekind": ("dedekind_sum", "rademacher_sum", "section_sums", "verify_limits"),
    "enumeration": ("enumerate_configurations", "run_pipeline", "evaluate_candidate"),
    "cli": ("main",),
}
TIMED_NAMES = tuple(f"{module}.{name}" for module, names in TIMED.items() for name in names)

# Functions whose inputs are tallied: distinct inputs over calls says how much
# of the work a memo could skip.
DISTINCT = (
    "semigroups.cusp_semigroup",
    "spectra.cusp_spectrum",
    "spectra.spectrum_at_infinity_table",
    "hf.max_p_over_presentations",
)

COUNTS = (
    "semigroups.r_window_cells",
    "semigroups.convolution_cells",
    "hf.presentations_scanned",
    "spectra.scan_points",
    "spectra.interval_queries",
    "dedekind.terms",
    "enumeration.configs",
    "enumeration.survivors",
    "enumeration.obstructed_multiplicity",
    "enumeration.obstructed_hf",
    "enumeration.obstructed_spectrum",
    "cli.output_bytes",
)

# Loop length of the direct sums, by function and argument name.
DEDEKIND_TERMS = {
    "dedekind.dedekind_sum": "q",
    "dedekind.rademacher_sum": "r",
    "dedekind.section_sums": "w",
}


def _count_result(counts: Dict[str, int], name: str, bound, result) -> None:
    """Add one call's work to the counts."""
    if name == "semigroups.curve_r_function":
        counts["semigroups.r_window_cells"] += len(result.window)
    elif name == "semigroups.infimum_convolution":
        # The direct scan evaluates t + 1 splits for every t of the window.
        end = result.window_end
        counts["semigroups.convolution_cells"] += (end + 1) * (end + 2) // 2
    elif name == "hf.max_p_over_presentations":
        counts["hf.presentations_scanned"] += result is not None
    elif name == "spectra.semicontinuity_check":
        counts["spectra.scan_points"] += result.checked_points
    elif name in DEDEKIND_TERMS:
        counts["dedekind.terms"] += bound.arguments[DEDEKIND_TERMS[name]]
    elif name == "enumeration.enumerate_configurations":
        counts["enumeration.configs"] += len(result)
    elif name == "enumeration.evaluate_candidate":
        counts["enumeration.survivors"] += result.survives
        counts["enumeration.obstructed_multiplicity"] += not result.multiplicity_ok
        counts["enumeration.obstructed_hf"] += bool(result.hf and result.hf.obstructed)
        counts["enumeration.obstructed_spectrum"] += bool(
            result.spectrum and result.spectrum.obstructed
        )


class Tracer:
    def __init__(self) -> None:
        self.spans: List[list] = []  # [name, start_ns, end_ns, parent, request]
        self.stack: List[int] = []
        self.request = 0
        self.counts: Dict[str, int] = {name: 0 for name in COUNTS}
        self.inputs: Dict[str, set] = {name: set() for name in DISTINCT}
        self.absent: List[str] = []
        self._restore: List[tuple] = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        import importlib

        for module_name, names in TIMED.items():
            try:
                module = importlib.import_module(f"cuspidal.{module_name}")
            except ModuleNotFoundError:
                module = None
            for name in names:
                original = getattr(module, name, None)
                if not callable(original):
                    self.absent.append(f"{module_name}.{name}")
                    continue
                self._rebind(original, self._wrap(f"{module_name}.{name}", original))
        multiset = getattr(sys.modules.get("cuspidal.spectra"), "SpectrumMultiset", None)
        if multiset is not None and hasattr(multiset, "count_open"):
            self._wrap_interval_queries(multiset)
        else:
            self.absent.append("spectra.SpectrumMultiset.count_open")

    def uninstall(self) -> None:
        for namespace, attr, original in reversed(self._restore):
            setattr(namespace, attr, original)
        self._restore.clear()

    def _rebind(self, original: Callable, wrapper: Callable) -> None:
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == "cuspidal" or module_name.startswith("cuspidal.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    self._restore.append((module, attr, original))

    def _wrap(self, name: str, original: Callable) -> Callable:
        spans, stack, counts = self.spans, self.stack, self.counts
        inputs = self.inputs.get(name)
        signature = inspect.signature(original)
        needs_args = inputs is not None or name in DEDEKIND_TERMS
        clock = time.perf_counter_ns

        @functools.wraps(original)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0, 0, stack[-1] if stack else -1, self.request]
            spans.append(span)
            stack.append(index)
            span[1] = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            bound = signature.bind(*args, **kwargs) if needs_args else None
            if inputs is not None:
                inputs.add(tuple(bound.arguments.values()))
            _count_result(counts, name, bound, result)
            return result

        return traced

    def _wrap_interval_queries(self, multiset) -> None:
        original = multiset.count_open
        counts = self.counts

        def count_open(*args, **kwargs):
            counts["spectra.interval_queries"] += 1
            return original(*args, **kwargs)

        setattr(multiset, "count_open", count_open)
        self._restore.append((multiset, "count_open", original))

    # -- results ----------------------------------------------------------

    def state(self) -> dict:
        """Spans, counts and input tallies, in the form `Aggregate.add` takes (and JSON can carry)."""
        return {
            "spans": self.spans,
            "counts": self.counts,
            "inputs": {name: [len(found), self._calls(name)] for name, found in self.inputs.items()},
            "absent": self.absent,
        }

    def _calls(self, name: str) -> int:
        return sum(1 for span in self.spans if span[0] == name)


class Aggregate:
    """Per-function calls, total and self time, counts and distinct ratios over many requests."""

    def __init__(self) -> None:
        self.calls = {name: 0 for name in TIMED_NAMES}
        self.total_ns = {name: 0 for name in TIMED_NAMES}
        self.self_ns = {name: 0 for name in TIMED_NAMES}
        self.counts = {name: 0 for name in COUNTS}
        self.distinct = {name: [0, 0] for name in DISTINCT}
        self.absent: set = set()
        self.self_total_ns = 0

    def add(self, state: dict) -> None:
        spans = state["spans"]
        child_ns = [0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        for i, (name, start, end, _, _) in enumerate(spans):
            own = end - start - child_ns[i]
            self.calls[name] += 1
            self.total_ns[name] += end - start
            self.self_ns[name] += own
            self.self_total_ns += own
        for name, value in state["counts"].items():
            self.counts[name] += value
        for name, (distinct, calls) in state["inputs"].items():
            self.distinct[name][0] += distinct
            self.distinct[name][1] += calls
        self.absent.update(state["absent"])

    def metrics(self) -> Dict[str, tuple]:
        """name -> (value, unit)."""
        out: Dict[str, tuple] = {}
        for name in TIMED_NAMES:
            out[f"{name}.calls"] = (self.calls[name], "count")
            out[f"{name}.total_s"] = (self.total_ns[name] / 1e9, "s")
            out[f"{name}.self_s"] = (self.self_ns[name] / 1e9, "s")
        for name in COUNTS:
            out[name] = (self.counts[name], "bytes" if name == "cli.output_bytes" else "count")
        for name, (distinct, calls) in self.distinct.items():
            out[f"{name}.distinct_ratio"] = (distinct / calls if calls else 0.0, "ratio")
        return out


def self_shares(aggregate: Aggregate) -> Dict[str, float]:
    """Self time per module as a share of all self time."""
    per_module: Dict[str, int] = {}
    for name, value in aggregate.self_ns.items():
        module = name.split(".")[0]
        per_module[module] = per_module.get(module, 0) + value
    total = aggregate.self_total_ns or 1
    return {module: value / total for module, value in per_module.items()}
