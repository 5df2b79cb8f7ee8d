"""The reference commands `spectrum`, `dedekind s/d/limits` and `repro`, which
`cli` imports only to build their parsers (see its docstring).
"""

from __future__ import annotations

import functools
import json
import math
import os
import sys
from fractions import Fraction
from itertools import chain
from typing import Dict, List, Tuple

from .cli import (
    EXIT_ERROR, EXIT_MISMATCH, EXIT_OBSTRUCTED, EXIT_OK,
    _check_rows, _dinv_rows, _emit, _ratio, _report,
)
from .core import CurveType, CuspConfiguration, PuiseuxCusp
from .dedekind import dedekind_sum, rademacher_sum, verify_limits
from .spectra import spectrum_at_infinity_derived, spectrum_at_infinity_table


def _entry_rows(d: int, chunk: List[Tuple[int, int]], inner: str) -> str:
    """`_dumps`' render of spectrum entries: each (n, mult) pair over the
    denominator d as the row {"multiplicity": mult, "value": "n/d"} in
    lowest terms, written straight into one f-string."""
    row = inner + "  "
    head, mid, end = f'{{\n{row}"multiplicity": ', f',\n{row}"value": "', f'"\n{inner}}}'
    gcd = math.gcd
    return f",\n{inner}".join(
        f"{head}{mult}{mid}{n // (g := gcd(n, d))}/{d // g}{end}" for n, mult in chunk
    )


def _spectrum(a, b, e, method, fmt) -> int:
    """Print the spectrum at infinity as sorted 'value multiplicity' lines."""
    curve = CurveType(a, b, e)
    table = spectrum_at_infinity_table(curve) if method in ("table", "both") else None
    derived = (
        spectrum_at_infinity_derived(curve) if method in ("derived", "both") else None
    )
    mismatch = method == "both" and table != derived
    d, pairs = table if table is not None else derived
    total = sum(mult for _, mult in pairs)
    # JSON renders the (n, mult) pairs themselves; CSV reads one dict per entry.
    rows = pairs if fmt != "csv" else (
        {"value": _ratio(n, d), "multiplicity": mult} for n, mult in pairs
    )
    results: Dict = {"method": method, "total": total, "entries": rows}
    if method == "both":
        results["methods_agree"] = not mismatch
    report = _report("spectrum", {"a": a, "b": b, "e": e}, results, [])
    lines = chain(
        (f"{_ratio(n, d)} {mult}" for n, mult in pairs),
        [f"methods agree: {not mismatch}"] if method == "both" else [],
    )
    header = ("value", "multiplicity")
    _emit(fmt, report, lines, rows, header, functools.partial(_entry_rows, d))
    if mismatch:
        print("mismatch between table and derived constructions:", file=sys.stderr)
        # Both constructions use the denominator lcm(w, b).
        table_mults, derived_mults = dict(table[1]), dict(derived[1])
        for n in sorted(table_mults.keys() | derived_mults.keys()):
            t, dv = table_mults.get(n, 0), derived_mults.get(n, 0)
            if t != dv:
                print(f"  {_ratio(n, d)}: table {t} != derived {dv}", file=sys.stderr)
        return EXIT_MISMATCH
    return EXIT_OK


def _dedekind_s(p, q) -> int:
    """Print s(p, q) as num/den."""
    print(_ratio(*dedekind_sum(p, q).as_integer_ratio()))
    return EXIT_OK


def _dedekind_d(p, q, r) -> int:
    """Print D(p, q, r) as num/den."""
    print(_ratio(*rademacher_sum(p, q, r).as_integer_ratio()))
    return EXIT_OK


def _dedekind_limits(b, max_w, tol, fmt) -> int:
    """Evaluate the three limit statements along the proof subsequence."""
    try:
        tol = Fraction(tol)
    except (ValueError, ZeroDivisionError) as exc:
        example = "a rational number such as 1/200"
        raise ValueError(f"--tol must be {example}, got {tol!r}") from exc
    report = verify_limits(b, max_w, tol)
    entries = [
        {
            "name": entry.name,
            "w": entry.w,
            "value": _ratio(*entry.value.as_integer_ratio()),
            "limit": _ratio(*entry.limit.as_integer_ratio()),
            "deviation": _ratio(*entry.deviation.as_integer_ratio()),
            "within_tol": entry.deviation <= report.tol,
        }
        for entry in report.entries
    ]
    doc = _report(
        "dedekind limits",
        {"b": b, "max_w": max_w, "tol": _ratio(*report.tol.as_integer_ratio())},
        {"all_within_tol": report.all_within_tol, "entries": entries},
        [],
    )
    lines = (
        f"{entry['name']} at w={entry['w']}: value {entry['value']}, "
        f"limit {entry['limit']}, deviation {entry['deviation']} "
        f"[{'ok' if entry['within_tol'] else 'EXCEEDS'}]"
        for entry in entries
    )
    _emit(fmt, doc, lines, entries)
    return EXIT_OK if report.all_within_tol else EXIT_OBSTRUCTED


def _repro_scenarios() -> List[Tuple[str, Dict]]:
    """The bundled reference scenarios, as (name, payload) pairs.

    Each payload holds the rows the matching command reports, every row as
    the list of its values.
    """
    scenarios: List[Tuple[str, Dict]] = []
    checks = ((6, 6, 0, 2, 51), (6, 6, 0, 3, 26), (6, 6, 0, 6, 11), (4, 4, 2, 3, 22))
    for a, b, e, r, s in checks:
        config = CuspConfiguration((PuiseuxCusp(r, s),))
        verdicts, witnesses = _check_rows(CurveType(a, b, e), config, None)
        payload = {**verdicts, "hf_witnesses": [], "spectrum_witnesses": []}
        # The payload key names the check, so rows drop their first column.
        for check, *values in map(dict.values, witnesses):
            payload[f"{check}_witnesses"].append(values)
        scenarios.append((f"check_{a}_{b}_{e}_cusp_{r}_{s}", payload))

    for a, b, e in ((6, 4, 0), (6, 6, 0)):
        d, pairs = spectrum_at_infinity_table(CurveType(a, b, e))
        total = sum(mult for _, mult in pairs)
        entries = [[_ratio(n, d), mult] for n, mult in pairs]
        scenarios.append(
            (f"spectrum_{a}_{b}_{e}", {"total": total, "entries": entries})
        )

    config = CuspConfiguration((PuiseuxCusp(6, 11),))
    rows = _dinv_rows(CurveType(6, 6, 0), config, range(-36, 36))
    values = [list(row.values()) for row in rows]
    scenarios.append(("dinv_6_6_0_cusp_6_11_all_m", {"values": values}))
    return scenarios


def _repro(update_dir) -> int:
    """Re-run the bundled reference scenarios and diff against golden files."""
    from importlib import resources  # it imports tempfile and shutil

    scenarios = _repro_scenarios()
    if update_dir is not None:
        try:
            os.makedirs(update_dir, exist_ok=True)
            for name, payload in scenarios:
                path = os.path.join(update_dir, f"{name}.json")
                with open(path, "w") as handle:
                    handle.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")
        except OSError as exc:
            raise ValueError(str(exc)) from exc
        print(f"wrote {len(scenarios)} golden files")
        return EXIT_OK
    failures = 0
    for name, payload in scenarios:
        resource = resources.files("cuspidal") / "golden" / f"{name}.json"
        try:
            expected = json.loads(resource.read_text())
        except FileNotFoundError:
            print(f"{name}: MISSING golden file")
            failures += 1
            continue
        if expected == payload:
            print(f"{name}: ok")
        else:
            print(f"{name}: MISMATCH")
            failures += 1
    return EXIT_OK if failures == 0 else EXIT_ERROR
