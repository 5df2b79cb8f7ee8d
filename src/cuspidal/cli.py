"""Command-line interface: `main(argv)`, parsed by one stdlib `argparse` parser.

Exit codes: 0 = not obstructed / success, 1 = usage or domain error,
2 = obstructed, 3 = cross-validation mismatch between the two spectrum
constructions.  Usage errors, which argparse would exit 2 for, print
`error: <message>` on stderr and exit 1, as domain errors do.  Structured
reports are byte-stable: sorted keys and a two-space indent, byte-identical
to `json.dumps(report, sort_keys=True, indent=2)`, and every rational
serialized as "num/den".
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import os
import sys
from fractions import Fraction
from importlib import resources
from itertools import chain
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from .core import CurveType, CuspConfiguration, PuiseuxCusp
from .dedekind import dedekind_sum, rademacher_sum, verify_limits
from .enumeration import (
    DEFAULT_CANDIDATE_CAP,
    CandidateCapExceededError,
    enumerate_configurations,
)
from .hf import HfWitness, d_invariant, hf_check, multiplicity_bound_check
from .spectra import (
    SemicontinuityWitness,
    semicontinuity_check,
    spectrum_at_infinity_derived,
    spectrum_at_infinity_table,
)

SCHEMA_VERSION = "1"
CAP_ENV_VAR = "CUSPIDAL_CANDIDATE_CAP"

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_OBSTRUCTED = 2
EXIT_MISMATCH = 3


class CliError(Exception):
    """A usage or domain error: `main` prints `error: <message>` and exits 1."""


def _fr(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _report(command: str, inputs: Dict, results: Dict, witnesses: List[Dict]) -> Dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "inputs": inputs,
        "results": results,
        "witnesses": witnesses,
    }


_FLAT = {str, int, bool, type(None)}


@functools.lru_cache(maxsize=None)
def _encoder(pad: str) -> Callable[[object], str]:
    """The C encoder, sorting keys and separating items by a newline and `pad`."""
    return json.JSONEncoder(sort_keys=True, separators=(",\n" + pad, ": ")).encode


def _dumps(obj, pad: str = "") -> str:
    """`json.dumps(obj, sort_keys=True, indent=2)`, byte for byte, with every
    line after the first indented by `pad` more.

    The stdlib runs its pure-Python encoder whenever `indent` is set.  Here
    each flat container (scalar values only) and each list of non-empty flat
    dicts (a report's rows) takes one C-encoder call, and only its brackets
    are re-indented.  The encoder escapes every control character inside
    strings, so a newline in its output is always an item separator.
    """
    if not (isinstance(obj, (dict, list, tuple)) and obj):
        return _encoder(pad)(obj)
    inner = pad + "  "
    is_dict = isinstance(obj, dict)
    types = set(map(type, obj.values() if is_dict else obj))
    if types <= _FLAT:
        text = _encoder(inner)(obj)
    elif (
        not is_dict
        and types == {dict}
        and all(obj)
        and set(map(type, chain.from_iterable(map(dict.values, obj)))) <= _FLAT
    ):
        row = inner + "  "
        text = _encoder(row)(obj).replace(
            f"}},\n{row}{{", f"\n{inner}}},\n{inner}{{\n{row}"
        )
        text = f"[{{\n{row}{text[2:-2]}\n{inner}}}]"
    elif is_dict:
        # The one-item dict makes the C encoder turn the key into its JSON
        # string as json.dumps does, for int, float, bool and None keys too.
        text = "{%s}" % f",\n{inner}".join(
            f"{_encoder(inner)({key: 0})[1:-4]}: {_dumps(value, inner)}"
            for key, value in sorted(obj.items())
        )
    else:
        text = "[%s]" % f",\n{inner}".join(_dumps(value, inner) for value in obj)
    return f"{text[0]}\n{inner}{text[1:-1]}\n{pad}{text[-1]}"


def _emit_json(report: Dict) -> None:
    print(_dumps(report))


def _emit_csv(rows: Sequence[Dict], empty_header: Sequence[str]) -> None:
    """The rows as CSV under the union of their keys, in order of first
    appearance; with no rows, just the header `empty_header`."""
    header: List[str] = [] if rows else list(empty_header)
    for row in rows:
        for key in row:
            if key not in header:
                header.append(key)
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=header)
    writer.writeheader()
    writer.writerows(rows)
    print(buffer.getvalue(), end="")


def _parse_cusps(specs: Sequence[str]) -> Tuple[PuiseuxCusp, ...]:
    cusps = []
    for spec in specs:
        try:
            r_text, s_text = spec.split(":")
            cusps.append(PuiseuxCusp(int(r_text), int(s_text)))
        except ValueError as exc:
            raise CliError(f"bad cusp '{spec}': {exc}") from exc
    return tuple(cusps)


def _curve(a: int, b: int, e: int) -> CurveType:
    try:
        return CurveType(a, b, e)
    except ValueError as exc:
        raise CliError(str(exc)) from exc


def _config_for(curve: CurveType, cusps: Tuple[PuiseuxCusp, ...]) -> CuspConfiguration:
    config = CuspConfiguration(cusps)
    if not config.is_genus_compatible(curve):
        raise CliError(
            f"genus mismatch: expected sum(mu/2) = g = {curve.g}, "
            f"got {config.total_delta}"
        )
    return config


def _check_rows(
    curve: CurveType, config: CuspConfiguration, only: Optional[str]
) -> Tuple[Dict, List[Dict]]:
    """The per-filter verdicts and the witness rows of `check`."""
    verdicts: Dict = {}
    witnesses: List[Dict] = []
    if only in (None, "hf"):
        hf_report = hf_check(curve, config)
        verdicts["hf"] = hf_report.verdict
        witnesses += [{"check": "hf", **w._asdict()} for w in hf_report.witnesses]
    if only in (None, "spectrum"):
        sp_report = semicontinuity_check(curve, config)
        verdicts["spectrum"] = sp_report.verdict
        witnesses += [
            {"check": "spectrum", **w._asdict(), "x": _fr(w.x)}
            for w in sp_report.witnesses
        ]
    return verdicts, witnesses


def _spectrum_rows(spectrum) -> List[Dict]:
    d = spectrum.denominator
    return [
        {"value": f"{n // (g := math.gcd(n, d))}/{d // g}", "multiplicity": mult}
        for n, mult in spectrum.numerator_entries()
    ]


def _dinv_rows(
    curve: CurveType, config: CuspConfiguration, ms: Sequence[int]
) -> List[Dict]:
    return [{"m": m, "d_invariant": _fr(d_invariant(curve, config, m))} for m in ms]


def _check(a, b, e, cusps, only, as_json, as_csv) -> int:
    """Decide whether a prescribed cusp configuration is obstructed."""
    curve = _curve(a, b, e)
    config = _config_for(curve, _parse_cusps(cusps))

    verdicts, witnesses = _check_rows(curve, config, only)
    results: Dict = {"g": curve.g, "total_delta": config.total_delta, **verdicts}
    obstructed = bool(witnesses)
    results["verdict"] = "obstructed" if obstructed else "survives"

    report = _report(
        "check",
        {
            "a": a,
            "b": b,
            "e": e,
            "cusps": [f"{c.r}:{c.s}" for c in config],
            "only": only or "all",
        },
        results,
        witnesses,
    )
    if as_json:
        _emit_json(report)
    elif as_csv:
        fields = {"hf": HfWitness._fields, "spectrum": SemicontinuityWitness._fields}
        _emit_csv(witnesses, ["check", *chain.from_iterable(map(fields.get, verdicts))])
    else:
        print(f"curve {curve}, cusps {config}: {results['verdict']}")
        for wit in witnesses:
            if wit["check"] == "hf":
                print(
                    f"  hf witness: m={wit['m']} (m+g={wit['m'] + curve.g}), "
                    f"presentation (s1,s2)=({wit['s1']},{wit['s2']}), "
                    f"R={wit['r_value']} < P={wit['p_value']}"
                )
            else:
                print(
                    f"  spectrum witness: x={wit['x']}, "
                    f"inside {wit['cusp_inside']} vs {wit['infinity_inside']}, "
                    f"outside {wit['cusp_outside']} vs {wit['infinity_outside']}"
                )
    return EXIT_OBSTRUCTED if obstructed else EXIT_OK


_CANDIDATE_FIELDS = ("cusps", "genus_ok", "multiplicity_ok", "hf", "spectrum", "survives")


def _candidate_rows(curve: CurveType, configs: Sequence[CuspConfiguration]) -> List[Dict]:
    """One row of filter verdicts per configuration, keeping none of the reports."""
    rows = []
    for config in configs:
        multiplicity_ok = all(multiplicity_bound_check(curve, cusp) for cusp in config)
        hf = hf_check(curve, config).verdict
        spectrum = semicontinuity_check(curve, config).verdict
        values = (
            " ".join(f"{c.r}:{c.s}" for c in config),
            # enumerate_configurations yields only genus-compatible configurations.
            True,
            multiplicity_ok,
            hf,
            spectrum,
            multiplicity_ok and hf == "passes" and spectrum == "passes",
        )
        rows.append(dict(zip(_CANDIDATE_FIELDS, values)))
    return rows


def _enumerate(a, b, e, max_cusps, cap, as_json, as_csv) -> int:
    """List all genus-compatible configurations with per-filter verdicts."""
    curve = _curve(a, b, e)
    if cap is None:
        text = os.environ.get(CAP_ENV_VAR)
        try:
            cap = DEFAULT_CANDIDATE_CAP if text is None else int(text)
        except ValueError as exc:
            raise CliError(f"{CAP_ENV_VAR} must be an integer, got {text!r}") from exc
    try:
        configs = enumerate_configurations(curve, max_cusps, cap=cap)
    except (CandidateCapExceededError, ValueError) as exc:
        raise CliError(str(exc)) from exc
    rows = _candidate_rows(curve, configs)
    report = _report(
        "enumerate",
        {"a": a, "b": b, "e": e, "max_cusps": max_cusps, "cap": cap},
        {"g": curve.g, "count": len(rows)},
        rows,
    )
    if as_json:
        _emit_json(report)
    elif as_csv:
        _emit_csv(rows, _CANDIDATE_FIELDS)
    else:
        print(f"curve {curve}: {len(rows)} genus-compatible configuration(s)")
        for row in rows:
            status = "survives" if row["survives"] else "obstructed"
            print(
                f"  [{row['cusps']}] multiplicity={row['multiplicity_ok']} "
                f"hf={row['hf']} spectrum={row['spectrum']} -> {status}"
            )
    return EXIT_OK


def _spectrum(a, b, e, method, as_json, as_csv) -> int:
    """Print the spectrum at infinity as sorted 'value multiplicity' lines."""
    curve = _curve(a, b, e)
    table = spectrum_at_infinity_table(curve) if method in ("table", "both") else None
    derived = (
        spectrum_at_infinity_derived(curve) if method in ("derived", "both") else None
    )
    mismatch = method == "both" and table != derived
    spectrum = table if table is not None else derived
    rows = _spectrum_rows(spectrum)
    results: Dict = {"method": method, "total": spectrum.total, "entries": rows}
    if method == "both":
        results["methods_agree"] = not mismatch
    report = _report("spectrum", {"a": a, "b": b, "e": e}, results, [])
    if as_json:
        _emit_json(report)
    elif as_csv:
        _emit_csv(rows, ("value", "multiplicity"))
    else:
        for row in rows:
            print(f"{row['value']} {row['multiplicity']}")
        if method == "both":
            print(f"methods agree: {not mismatch}")
    if mismatch:
        print("mismatch between table and derived constructions:", file=sys.stderr)
        for value in sorted(set(table.values()) | set(derived.values())):
            if table.mult(value) != derived.mult(value):
                print(
                    f"  {_fr(value)}: table {table.mult(value)} "
                    f"!= derived {derived.mult(value)}",
                    file=sys.stderr,
                )
        return EXIT_MISMATCH
    return EXIT_OK


def _dedekind_s(p, q) -> int:
    """Print s(p, q) as num/den."""
    try:
        print(_fr(dedekind_sum(p, q)))
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    return EXIT_OK


def _dedekind_d(p, q, r) -> int:
    """Print D(p, q, r) as num/den."""
    try:
        print(_fr(rademacher_sum(p, q, r)))
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    return EXIT_OK


def _dedekind_limits(b, max_w, tol, as_json) -> int:
    """Evaluate the three limit statements along the proof subsequence."""
    try:
        report = verify_limits(b, max_w, Fraction(tol))
    except (ValueError, ZeroDivisionError) as exc:
        raise CliError(str(exc)) from exc
    entries = [
        {
            "name": entry.name,
            "w": entry.w,
            "value": _fr(entry.value),
            "limit": _fr(entry.limit),
            "deviation": _fr(entry.deviation),
            "within_tol": entry.deviation <= report.tol,
        }
        for entry in report.entries
    ]
    doc = _report(
        "dedekind limits",
        {"b": b, "max_w": max_w, "tol": _fr(report.tol)},
        {"all_within_tol": report.all_within_tol, "entries": entries},
        [],
    )
    if as_json:
        _emit_json(doc)
    else:
        for entry in entries:
            mark = "ok" if entry["within_tol"] else "EXCEEDS"
            print(
                f"{entry['name']} at w={entry['w']}: value {entry['value']}, "
                f"limit {entry['limit']}, deviation {entry['deviation']} [{mark}]"
            )
    return EXIT_OK if report.all_within_tol else EXIT_OBSTRUCTED


def _dinv(a, b, e, cusps, m, all_m, as_json) -> int:
    """Exact correction terms for one m or the whole range [-d/2, d/2)."""
    if (m is None) == (not all_m):
        raise CliError("provide exactly one of --m or --all-m")
    curve = _curve(a, b, e)
    config = _config_for(curve, _parse_cusps(cusps))
    d = curve.d
    ms = range(-(d // 2), (d + 1) // 2) if all_m else [m]
    try:
        values = _dinv_rows(curve, config, ms)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    report = _report(
        "dinv",
        {"a": a, "b": b, "e": e, "cusps": [f"{c.r}:{c.s}" for c in config]},
        {"values": values},
        [],
    )
    if as_json:
        _emit_json(report)
    else:
        for row in values:
            print(f"m={row['m']}: {row['d_invariant']}")
    return EXIT_OK


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
        for check in ("hf", "spectrum"):
            # The payload key names the check, so rows drop their first column.
            verdicts[f"{check}_witnesses"] = [
                list(row.values())[1:] for row in witnesses if row["check"] == check
            ]
        scenarios.append((f"check_{a}_{b}_{e}_cusp_{r}_{s}", verdicts))

    for a, b, e in ((6, 4, 0), (6, 6, 0)):
        spectrum = spectrum_at_infinity_table(CurveType(a, b, e))
        entries = [list(row.values()) for row in _spectrum_rows(spectrum)]
        scenarios.append(
            (f"spectrum_{a}_{b}_{e}", {"total": spectrum.total, "entries": entries})
        )

    config = CuspConfiguration((PuiseuxCusp(6, 11),))
    rows = _dinv_rows(CurveType(6, 6, 0), config, range(-36, 36))
    values = [list(row.values()) for row in rows]
    scenarios.append(("dinv_6_6_0_cusp_6_11_all_m", {"values": values}))
    return scenarios


def _repro(update_dir) -> int:
    """Re-run the bundled reference scenarios and diff against golden files."""
    scenarios = _repro_scenarios()
    if update_dir is not None:
        try:
            os.makedirs(update_dir, exist_ok=True)
            for name, payload in scenarios:
                path = os.path.join(update_dir, f"{name}.json")
                with open(path, "w") as handle:
                    handle.write(_dumps(payload) + "\n")
        except OSError as exc:
            raise CliError(str(exc)) from exc
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


class _Parser(argparse.ArgumentParser):
    """No abbreviated options, `--help` but no `-h`, and `CliError` on misuse."""

    def __init__(self, **kwargs) -> None:
        super().__init__(allow_abbrev=False, add_help=False, **kwargs)
        self.add_argument("--help", action="help", help="Show this message and exit.")

    def error(self, message: str):
        raise CliError(message)


_INT = {"type": int}
_REQUIRED = {"type": int, "required": True}
_DEFAULT = "default: %(default)s"
_E = ("--e", {**_INT, "default": 0, "help": _DEFAULT})
_CURVE = (("--a", _REQUIRED), ("--b", _REQUIRED), _E)
_CUSPS = ("--cusp", {"dest": "cusps", "action": "append", "default": [], "help": "r:s"})
_JSON = ("--json", {"dest": "as_json", "action": "store_true"})
_CSV = ("--csv", {"dest": "as_csv", "action": "store_true"})


@functools.lru_cache(maxsize=None)
def _parser() -> Tuple[_Parser, FrozenSet[str]]:
    """The `cuspidal` parser, built once, and its options that take a value."""
    valued: Set[str] = set()

    def command(group, name: str, run: Callable[..., int], *arguments) -> None:
        sub = group.add_parser(name, help=run.__doc__, description=run.__doc__)
        sub.set_defaults(run=run)
        for flag, kwargs in arguments:
            if sub.add_argument(flag, **kwargs).nargs is None and flag[0] == "-":
                valued.add(flag)

    doc = "Obstruction checks for rational cuspidal curves in ruled surfaces."
    parser = _Parser(prog="cuspidal", description=doc)
    commands = parser.add_subparsers(required=True, metavar="COMMAND")
    only = ("--only", {"choices": ["hf", "spectrum"]})
    command(commands, "check", _check, *_CURVE, _CUSPS, only, _JSON, _CSV)
    max_cusps = ("--max-cusps", {**_INT, "default": 1, "help": _DEFAULT})
    cap = ("--cap", {**_INT, "help": "candidate cap override"})
    command(commands, "enumerate", _enumerate, *_CURVE, max_cusps, cap, _JSON, _CSV)
    methods = ["table", "derived", "both"]
    method = ("--method", {"choices": methods, "default": "table", "help": _DEFAULT})
    command(commands, "spectrum", _spectrum, *_CURVE, method, _JSON, _CSV)
    doc = "Sawtooth sums: two- and three-term reciprocity families."
    dedekind = commands.add_parser("dedekind", help=doc, description=doc)
    sums = dedekind.add_subparsers(required=True, metavar="COMMAND")
    command(sums, "s", _dedekind_s, ("p", _INT), ("q", _INT))
    command(sums, "d", _dedekind_d, ("p", _INT), ("q", _INT), ("r", _INT))
    b, max_w = ("--b", _REQUIRED), ("--max-w", _REQUIRED)
    tol = ("--tol", {"default": "1/200", "help": _DEFAULT})
    command(sums, "limits", _dedekind_limits, b, max_w, tol, _JSON)
    all_m = ("--all-m", {"action": "store_true"})
    command(commands, "dinv", _dinv, *_CURVE, _CUSPS, ("--m", _INT), all_m, _JSON)
    doc = "write the golden files into DIR instead of diffing against them"
    update = ("--update", {"dest": "update_dir", "metavar": "DIR", "help": doc})
    command(commands, "repro", _repro, update)
    return parser, frozenset(valued)


def _joined(argv: Sequence[str], valued: FrozenSet[str]) -> List[str]:
    """argv with each option that takes a value joined to the token after it,
    as in `--tol=-1/1000`, so a value that begins with '-' is still a value."""
    joined: List[str] = []
    tokens = iter(argv)
    for token in tokens:
        value = next(tokens, None) if token in valued else None
        joined.append(token if value is None else f"{token}={value}")
    return joined


def main(argv: Optional[Sequence[str]] = None) -> None:
    """Entry point with the exit-code contract described in the module docstring."""
    parser, valued = _parser()
    argv = sys.argv[1:] if argv is None else argv
    try:
        options = vars(parser.parse_args(_joined(argv, valued)))
        code = options.pop("run")(**options)
        sys.stdout.flush()
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = EXIT_ERROR
    except BrokenPipeError:
        # The reader of stdout went away: exit 1, with stdout on devnull so
        # that the interpreter's last flush cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_ERROR
    sys.exit(code)


if __name__ == "__main__":
    main()
