"""Command-line interface: `main(argv)`, parsed by stdlib `argparse`.

Exit codes: 0 = not obstructed / success, 1 = usage or domain error,
2 = obstructed, 3 = cross-validation mismatch between the two spectrum
constructions.  `main` prints every `ValueError` as `error: <message>` on
stderr and exits 1, whether it comes from argparse (which would exit 2), the
CLI or the library.  A `--json` report is a small envelope plus at most one
long list of flat rows, streamed byte-identical to `json.dumps(report,
sort_keys=True, indent=2)` by the writer `_dumps`, every rational as "num/den".

Here live parsing, dispatch, output and the filter commands `check`,
`enumerate` and `dinv`.  `main` parses argv with the parser of the command
it names (`_parser`); `spectrum`, `dedekind` and `repro` live in
`cuspidal.reference`, which `enumerate`, and `check` of a survivor, never
import, nor `fractions`.  Under `python -m cuspidal.cli` a reference command
loads this file twice, with a second `_parser` cache.  `enumerate` walks its
listing, `configurations(g, max_cusps)`, once to count it against the cap
before any output and once more for its rows, and never holds it.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from itertools import chain, islice, tee
from numbers import Rational
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from .core import CurveType, CuspConfiguration, PuiseuxCusp
from .enumeration import configurations, filter_verdicts
from .hf import HfWitness, _d_invariant, hf_check
from .semigroups import curve_elements
from .spectra import SemicontinuityWitness, semicontinuity_check

SCHEMA_VERSION = "1"
CAP_ENV_VAR = "CUSPIDAL_CANDIDATE_CAP"
DEFAULT_CANDIDATE_CAP = 10**6
_CHUNK_ROWS = 1024

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_OBSTRUCTED = 2
EXIT_MISMATCH = 3


def _fr(x: Rational) -> str:
    return f"{x.numerator}/{x.denominator}"


def _report(command: str, inputs: Dict, results: Dict, witnesses: Iterable[Dict]) -> Dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "inputs": inputs,
        "results": results,
        "witnesses": witnesses,
    }


def _dumps(report: Dict, rows: Iterable[Dict]) -> Iterator[str]:
    """`json.dumps(report, sort_keys=True, indent=2)` and a newline, byte for
    byte, in pieces, where `rows` (a list or an iterator of non-empty flat
    dicts) is the report's `witnesses`, `results.entries` or `results.values`.

    The stdlib (its pure-Python encoder, as `indent` is set) writes the
    envelope twice, with 0 and with 1 for `rows`; the texts first differ where
    `rows` goes, whatever strings they hold.  The other order took 80 kB more
    peak memory.  Each `_CHUNK_ROWS` rows, all it holds at once, take one
    C-encoder call, whose fixed cost is under 1 % of encoding 1,024 rows.  The
    encoder escapes every control character in strings, so a newline in its
    output always separates items: only the brackets between rows get re-indented.
    """
    envelope = {**report, "results": dict(report["results"])}
    owner = envelope if report["witnesses"] is rows else envelope["results"]
    key = next(key for key, value in owner.items() if value is rows)
    pad = "  " if owner is envelope else "    "
    inner, row = pad + "  ", pad + "    "
    encode = json.JSONEncoder(sort_keys=True, separators=(",\n" + row, ": ")).encode
    texts = []
    for owner[key] in (0, 1):
        texts.append(json.dumps(envelope, sort_keys=True, indent=2))
    head = os.path.commonprefix(texts)
    rows, sep, close = iter(rows), f"{head}[\n{inner}", f"{head}[]"
    while chunk := list(islice(rows, _CHUNK_ROWS)):
        text = encode(chunk).replace(f"}},\n{row}{{", f"\n{inner}}},\n{inner}{{\n{row}")
        yield f"{sep}{{\n{row}{text[2:-2]}\n{inner}}}"
        sep, close = f",\n{inner}", f"\n{pad}]"
    yield close + texts[0][len(head) + 1:] + "\n"


def _emit(
    fmt: str,
    report: Dict,
    lines: Iterable[str],
    rows: Iterable[Dict],
    header: Sequence[str] = (),
) -> None:
    """Print `report` as JSON, `rows` as CSV under `header` (its columns a
    row lacks stay empty), or the text `lines`, which only this path reads."""
    if fmt == "json":
        sys.stdout.writelines(_dumps(report, rows))
    elif fmt == "csv":
        import csv

        writer = csv.DictWriter(sys.stdout, fieldnames=header)
        writer.writeheader()
        writer.writerows(rows)
    else:
        sys.stdout.writelines(f"{line}\n" for line in lines)


def _parse_cusps(specs: Sequence[str]) -> CuspConfiguration:
    cusps = []
    for spec in specs:
        try:
            r, s = map(int, spec.split(":"))
        except ValueError as exc:
            message = "expected r:s with integers r and s"
            raise ValueError(f"bad cusp '{spec}': {message}") from exc
        try:
            cusps.append(PuiseuxCusp(r, s))
        except ValueError as exc:
            raise ValueError(f"bad cusp '{spec}': {exc}") from exc
    return CuspConfiguration(cusps)


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


def _dinv_rows(
    curve: CurveType, config: CuspConfiguration, ms: Sequence[int]
) -> List[Dict]:
    elements = curve_elements(curve, config)
    return [{"m": m, "d_invariant": _fr(_d_invariant(curve, elements, m))} for m in ms]


def _check(a, b, e, cusps, only, fmt) -> int:
    """Decide whether a prescribed cusp configuration is obstructed."""
    curve = CurveType(a, b, e)
    config = _parse_cusps(cusps)
    config.require_genus_compatible(curve)

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
    lines = chain(
        [f"curve {curve}, cusps {config}: {results['verdict']}"],
        (
            (
                f"  hf witness: m={wit['m']} (m+g={wit['m'] + curve.g}), "
                f"presentation (s1,s2)=({wit['s1']},{wit['s2']}), "
                f"R={wit['r_value']} < P={wit['p_value']}"
            )
            if wit["check"] == "hf"
            else (
                f"  spectrum witness: x={wit['x']}, "
                f"inside {wit['cusp_inside']} vs {wit['infinity_inside']}, "
                f"outside {wit['cusp_outside']} vs {wit['infinity_outside']}"
            )
            for wit in witnesses
        ),
    )
    # The columns of the witness kinds present, or of every filter that ran.
    kinds = {wit["check"] for wit in witnesses} or verdicts
    fields = {"hf": HfWitness._fields, "spectrum": SemicontinuityWitness._fields}
    header = ["check", *chain.from_iterable(fields[k] for k in verdicts if k in kinds)]
    _emit(fmt, report, lines, witnesses, header)
    return EXIT_OBSTRUCTED if obstructed else EXIT_OK


_CANDIDATE_FIELDS = ("cusps", "genus_ok", "multiplicity_ok", "hf", "spectrum", "survives")
_VERDICTS = ("obstructed", "passes")


def _candidate_rows(curve: CurveType, configs: Iterable[CuspConfiguration]) -> Iterator[Dict]:
    """One row of filter verdicts per configuration, from `filter_verdicts`,
    reading `configs` once."""
    configs, walk = tee(configs)
    for config, verdicts in zip(configs, filter_verdicts(curve, walk)):
        multiplicity_ok, hf_ok, spectrum_ok = verdicts
        values = (
            " ".join(f"{c.r}:{c.s}" for c in config),
            # `configurations` yields only genus-compatible configurations.
            True,
            multiplicity_ok,
            _VERDICTS[hf_ok],
            _VERDICTS[spectrum_ok],
            all(verdicts),
        )
        yield dict(zip(_CANDIDATE_FIELDS, values))


def _enumerate(a, b, e, max_cusps, cap, fmt) -> int:
    """List all genus-compatible configurations with per-filter verdicts."""
    curve = CurveType(a, b, e)
    if cap is None:
        text = os.environ.get(CAP_ENV_VAR)
        try:
            cap = DEFAULT_CANDIDATE_CAP if text is None else int(text)
        except ValueError as exc:
            raise ValueError(f"{CAP_ENV_VAR} must be an integer, got {text!r}") from exc
    if cap < 0:
        raise ValueError(f"candidate cap must be >= 0, got {cap}")
    # One walk counts, before any output; a second one gives the rows.
    count = sum(1 for _ in islice(configurations(curve.g, max_cusps), cap + 1))
    if count > cap:
        raise ValueError(f"more than {cap} genus-compatible configurations")
    rows = _candidate_rows(curve, configurations(curve.g, max_cusps))
    report = _report(
        "enumerate",
        {"a": a, "b": b, "e": e, "max_cusps": max_cusps, "cap": cap},
        {"g": curve.g, "count": count},
        rows,
    )
    lines = chain(
        [f"curve {curve}: {count} genus-compatible configuration(s)"],
        (
            f"  [{row['cusps']}] multiplicity={row['multiplicity_ok']} "
            f"hf={row['hf']} spectrum={row['spectrum']} -> "
            f"{'survives' if row['survives'] else 'obstructed'}"
            for row in rows
        ),
    )
    _emit(fmt, report, lines, rows, _CANDIDATE_FIELDS)
    return EXIT_OK


def _dinv(a, b, e, cusps, m, all_m, fmt) -> int:
    """Exact correction terms for one m or the whole range [-d/2, d/2)."""
    curve = CurveType(a, b, e)
    config = _parse_cusps(cusps)
    config.require_genus_compatible(curve)
    d = curve.d
    ms = range(-(d // 2), (d + 1) // 2) if all_m else [m]
    values = _dinv_rows(curve, config, ms)
    report = _report(
        "dinv",
        {"a": a, "b": b, "e": e, "cusps": [f"{c.r}:{c.s}" for c in config]},
        {"values": values},
        [],
    )
    lines = (f"m={row['m']}: {row['d_invariant']}" for row in values)
    _emit(fmt, report, lines, values)
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """No abbreviated options, `--help` but no `-h`, and `ValueError` on misuse."""

    def __init__(self, **kwargs) -> None:
        super().__init__(allow_abbrev=False, add_help=False, **kwargs)
        self.add_argument("--help", action="help", help="Show this message and exit.")

    def error(self, message: str):
        raise ValueError(message)


_INT = {"type": int}
_REQUIRED = {"type": int, "required": True}
_DEFAULT = "default: %(default)s"
_E = ("--e", {**_INT, "default": 0, "help": _DEFAULT})
_CURVE = (("--a", _REQUIRED), ("--b", _REQUIRED), _E)
_CUSPS = ("--cusp", {"dest": "cusps", "action": "append", "default": [], "help": "r:s"})
_FMT = {"dest": "fmt", "action": "store_const", "default": "text"}
_JSON = ("--json", {**_FMT, "const": "json"})
_FORMATS = ({}, _JSON, ("--csv", {**_FMT, "const": "csv"}))
_ONLY = ("--only", {"choices": ["hf", "spectrum"]})
_MAX_CUSPS = ("--max-cusps", {**_INT, "default": 1, "help": _DEFAULT})
_CAP = ("--cap", {**_INT, "help": "candidate cap override"})
_METHODS = ["table", "derived", "both"]
_METHOD = ("--method", {"choices": _METHODS, "default": "table", "help": _DEFAULT})
_TOL = ("--tol", {"default": "1/200", "help": _DEFAULT})
_MODES = ({"required": True}, ("--m", _INT), ("--all-m", {"action": "store_true"}))
_UPDATE_DOC = "write the golden files into DIR instead of diffing against them"
_UPDATE = ("--update", {"dest": "update_dir", "metavar": "DIR", "help": _UPDATE_DOC})
_DOC = "Obstruction checks for rational cuspidal curves in ruled surfaces."
_SUMS_DOC = "Sawtooth sums: two- and three-term reciprocity families."

# Each command as (function, arguments), where an argument is (flag, kwargs)
# and a tuple led by a dict is a mutually exclusive group: its kwargs, then
# its arguments.  A function named by a string is that attribute of
# `cuspidal.reference`.  `dedekind` groups the sawtooth sums.
_COMMANDS = {
    "check": (_check, (*_CURVE, _CUSPS, _ONLY, _FORMATS)),
    "enumerate": (_enumerate, (*_CURVE, _MAX_CUSPS, _CAP, _FORMATS)),
    "spectrum": ("_spectrum", (*_CURVE, _METHOD, _FORMATS)),
    "dedekind": {
        "s": ("_dedekind_s", (("p", _INT), ("q", _INT))),
        "d": ("_dedekind_d", (("p", _INT), ("q", _INT), ("r", _INT))),
        "limits": (
            "_dedekind_limits",
            (("--b", _REQUIRED), ("--max-w", _REQUIRED), _TOL, _JSON),
        ),
    },
    "dinv": (_dinv, (*_CURVE, _CUSPS, _MODES, _JSON)),
    "repro": ("_repro", (_UPDATE,)),
}


@functools.lru_cache(maxsize=None)
def _parser(path: Tuple[str, ...]) -> Tuple[_Parser, FrozenSet[str]]:
    """The parser of the command at `path` in `_COMMANDS`, `()` for the group
    of every command, built once, and the options under it that take a value.

    It is the parser the group above it hands the rest of argv to: the same
    prog, description, help and errors.  A group holds its commands' parsers.
    """
    valued: Set[str] = set()

    def build(make, spec) -> _Parser:
        if isinstance(spec, dict):
            parser = make(_SUMS_DOC if spec is not _COMMANDS else _DOC)
            sub = parser.add_subparsers(required=True, metavar="COMMAND")
            for name, child in spec.items():
                build(lambda doc: sub.add_parser(name, help=doc, description=doc), child)
            return parser
        run, arguments = spec
        if isinstance(run, str):
            from . import reference

            run = getattr(reference, run)
        parser = make(run.__doc__)
        parser.set_defaults(run=run)
        for argument in arguments:
            owner, members = parser, (argument,)
            if isinstance(argument[0], dict):
                owner = parser.add_mutually_exclusive_group(**argument[0])
                members = argument[1:]
            for flag, kwargs in members:
                if owner.add_argument(flag, **kwargs).nargs is None and flag[0] == "-":
                    valued.add(flag)
        return parser

    prog = " ".join(("cuspidal", *path))
    spec = functools.reduce(dict.get, path, _COMMANDS)
    parser = build(lambda doc: _Parser(prog=prog, description=doc), spec)
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
    argv = sys.argv[1:] if argv is None else argv
    node, k = _COMMANDS, 0  # down the command words, to a command or a group
    while isinstance(node, dict) and k < len(argv) and argv[k] in node:
        node, k = node[argv[k]], k + 1
    parser, valued = _parser(tuple(argv[:k]))
    try:
        options = vars(parser.parse_args(_joined(argv[k:], valued)))
        code = options.pop("run")(**options)
        sys.stdout.flush()
    except ValueError as exc:
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
