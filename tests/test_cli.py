import contextlib
import csv
import importlib.util
import io
import json
import os
import re
import subprocess
import sys
import tracemalloc
import typing
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from cuspidal import (
    CurveType,
    CuspConfiguration,
    GenusMismatchError,
    PuiseuxCusp,
    cli as cli_module,
    hf,
    hf_check,
    reference,
)
from cuspidal.cli import main
from oracles import group_dispatch


_SRC = str(Path(cli_module.__file__).resolve().parents[1])


def _python(*args, **kwargs):
    """A fresh interpreter run on `args` with this checkout's `src` as its
    PYTHONPATH and its output captured as text; `kwargs` go to `subprocess.run`."""
    env = {**os.environ, "PYTHONPATH": _SRC}
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, **kwargs
    )


def run(argv):
    """main(argv) in-process: the exit code and stdout and stderr together."""
    output = io.StringIO()
    with contextlib.redirect_stdout(output), contextlib.redirect_stderr(output):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
    return excinfo.value.code, output.getvalue()


def test_check_survivor_exits_zero():
    code, output = run(["check", "--a", "6", "--b", "6", "--cusp", "6:11"])
    assert code == 0
    assert "survives" in output


def test_check_obstructed_exits_two():
    code, output = run(["check", "--a", "6", "--b", "6", "--cusp", "2:51"])
    assert code == 2
    assert "obstructed" in output
    assert "spectrum witness" in output


def test_check_hf_witness_rendering():
    code, output = run(["check", "--a", "4", "--b", "4", "--e", "2", "--cusp", "3:22"])
    assert code == 2
    assert "hf witness: m=0 (m+g=21)" in output
    assert "R=7 < P=8" in output


def test_check_genus_mismatch_exits_one():
    code, output = run(["check", "--a", "6", "--b", "6", "--cusp", "2:3"])
    assert code == 1
    assert "genus mismatch" in output


def test_check_bad_cusp_syntax():
    code, output = run(["check", "--a", "6", "--b", "6", "--cusp", "2x51"])
    assert code == 1


def test_check_json_report():
    code, output = run(["check", "--a", "6", "--b", "6", "--cusp", "2:51", "--json"])
    assert code == 2
    report = json.loads(output)
    assert report["schema_version"] == "1"
    assert report["command"] == "check"
    assert report["inputs"]["cusps"] == ["2:51"]
    assert report["results"]["verdict"] == "obstructed"
    assert report["results"]["hf"] == "passes"
    assert report["results"]["spectrum"] == "obstructed"
    xs = [w["x"] for w in report["witnesses"]]
    assert "25/51" in xs  # rationals serialize as num/den


def test_check_csv_projection():
    code, output = run(["check", "--a", "6", "--b", "6", "--cusp", "2:51", "--csv"])
    assert code == 2
    rows = list(csv.DictReader(io.StringIO(output)))
    assert len(rows) == 6
    assert rows[0]["check"] == "spectrum"
    assert {"x", "cusp_inside", "infinity_inside"} <= set(rows[0])


@pytest.mark.parametrize(
    "curve, header, first_row, witness_keys",
    [
        (
            ["--a", "4", "--b", "4", "--e", "2", "--cusp", "3:22"],
            "check,m,s1,s2,r_value,p_value",
            "hf,0,2,1,7,8",
            ["check", "m", "p_value", "r_value", "s1", "s2"],
        ),
        (
            ["--a", "6", "--b", "6", "--cusp", "2:51"],
            "check,x,cusp_inside,infinity_inside,cusp_outside,infinity_outside",
            "spectrum,8/17,49,48,1,13",
            [
                "check",
                "cusp_inside",
                "cusp_outside",
                "infinity_inside",
                "infinity_outside",
                "x",
            ],
        ),
    ],
)
def test_check_row_order_is_pinned(curve, header, first_row, witness_keys):
    code, output = run(["check", *curve, "--csv"])
    assert output.splitlines()[:2] == [header, first_row]
    code, output = run(["check", *curve, "--json"])
    assert list(json.loads(output)["witnesses"][0]) == witness_keys


@pytest.mark.parametrize(
    "argv, header",
    [
        (
            ["check", "--a", "6", "--b", "6", "--cusp", "6:11"],
            "check,m,s1,s2,r_value,p_value,"
            "x,cusp_inside,infinity_inside,cusp_outside,infinity_outside",
        ),
        (
            ["check", "--a", "6", "--b", "6", "--cusp", "6:11", "--only", "hf"],
            "check,m,s1,s2,r_value,p_value",
        ),
        (
            ["check", "--a", "6", "--b", "6", "--cusp", "2:51", "--only", "hf"],
            "check,m,s1,s2,r_value,p_value",
        ),
        (
            ["check", "--a", "6", "--b", "6", "--cusp", "6:11", "--only", "spectrum"],
            "check,x,cusp_inside,infinity_inside,cusp_outside,infinity_outside",
        ),
        (
            ["enumerate", "--a", "1", "--b", "1"],
            "cusps,genus_ok,multiplicity_ok,hf,spectrum,survives",
        ),
        (["spectrum", "--a", "0", "--b", "1", "--e", "1"], "value,multiplicity"),
    ],
)
def test_empty_csv_prints_header(argv, header, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main([*argv, "--csv"])
    assert excinfo.value.code == 0
    assert capsys.readouterr().out == header + "\r\n"


@pytest.mark.parametrize("first, second", [("--json", "--csv"), ("--csv", "--json")])
@pytest.mark.parametrize(
    "argv",
    [
        ["check", "--a", "6", "--b", "6", "--cusp", "2:51"],
        ["enumerate", "--a", "6", "--b", "6"],
        ["spectrum", "--a", "6", "--b", "4"],
    ],
    ids=lambda argv: argv[0],
)
def test_json_and_csv_exclude_each_other(argv, first, second, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main([*argv, first, second])
    assert excinfo.value.code == 1
    assert capsys.readouterr() == (
        "",
        f"error: argument {second}: not allowed with argument {first}\n",
    )


def test_check_only_filters():
    code, output = run(
        ["check", "--a", "6", "--b", "6", "--cusp", "2:51", "--only", "hf"]
    )
    assert code == 0  # hf alone does not obstruct this cusp
    code, output = run(
        ["check", "--a", "6", "--b", "6", "--cusp", "2:51", "--only", "spectrum"]
    )
    assert code == 2


class _Sink(io.TextIOBase):
    """A stdout that keeps nothing but the number of characters written."""

    written = 0

    def write(self, text):
        self.written += len(text)
        return len(text)


def test_check_streams_its_witnesses():
    # 7,378 spectrum witnesses, 1.3 MB of JSON.  Holding them all as rows
    # peaked at 4.6 MiB on Python 3.11; streamed, the scan and one chunk of
    # rows peak at 2.1 MiB.
    argv = ["check", "--a", "50", "--b", "50", "--cusp", "2:4803", "--only", "spectrum", "--json"]
    sink = _Sink()
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(sink), pytest.raises(SystemExit) as excinfo:
            main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert excinfo.value.code == 2
    assert sink.written == 1_330_043
    assert peak < 3.5 * 2**20


def test_check_only_hf_holds_no_line():
    # The HF line of (60,59,0) has an entry for each of the 6,845 m in
    # [-g, g]: held as a tuple, it peaked at 1,267 KiB on Python 3.11; read
    # as it is walked, next to the fold, at 332 KiB.
    argv = ["check", "--a", "60", "--b", "59", "--cusp", "2:6845", "--only", "hf", "--json"]
    sink = _Sink()
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(sink), pytest.raises(SystemExit) as excinfo:
            main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert excinfo.value.code == 0
    assert sink.written == 286
    assert peak < 512 * 2**10


def test_enumerate_human_output():
    code, output = run(["enumerate", "--a", "6", "--b", "6"])
    assert code == 0
    assert "3 genus-compatible configuration(s)" in output
    assert "[2:51]" in output and "obstructed" in output
    assert "[6:11]" in output and "survives" in output


def test_enumerate_json():
    code, output = run(["enumerate", "--a", "6", "--b", "6", "--json"])
    report = json.loads(output)
    assert report["results"]["count"] == 3
    survivors = [w["cusps"] for w in report["witnesses"] if w["survives"]]
    assert survivors == ["3:26", "6:11"]


def _recorded_walks(monkeypatch):
    """The configurations each `configurations` walk of `cli` has yielded so far."""
    walks = []
    listing = cli_module.configurations

    def recorded(g, max_cusps):
        walk = []
        walks.append(walk)
        for config in listing(g, max_cusps):
            walk.append(config)
            yield config

    monkeypatch.setattr(cli_module, "configurations", recorded)
    return walks


def test_enumerate_cap_from_environment(monkeypatch):
    # `--cap` is the only setting of the cap: the variable that once also
    # set it changes nothing.
    argv = ["enumerate", "--a", "6", "--b", "6", "--max-cusps", "2", "--json"]
    expected = run(argv)
    assert expected[0] == 0 and json.loads(expected[1])["inputs"]["cap"] == 10**6
    walks = _recorded_walks(monkeypatch)
    monkeypatch.setenv("CUSPIDAL_CANDIDATE_CAP", "1")
    assert run([*argv, "--cap", "1"])[0] == 1
    assert run(argv) == expected
    # The count stops one past the cap; then the rows walk all 69.
    assert list(map(len, walks)) == [2, 69, 69]


@pytest.mark.parametrize("cap", ["-1", "-5"])
def test_enumerate_negative_cap_rejected(cap, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["enumerate", "--a", "3", "--b", "3", "--cap", cap])
    assert excinfo.value.code == 1
    assert capsys.readouterr().err == f"error: candidate cap must be >= 0, got {cap}\n"


def test_enumerate_deep_configurations_hit_the_cap(capsys, monkeypatch):
    # g = 1199: the first configuration is 1199 cusps (2,3), deeper than
    # Python's recursion limit.  The cap error comes before any output, in
    # every format, though the rows stream: one walk reads cap + 1
    # configurations and no row walk starts.
    walks = _recorded_walks(monkeypatch)
    argv = ["enumerate", "--a", "2", "--b", "1200", "--max-cusps", "1200", "--cap", "5"]
    for fmt in ([], ["--json"], ["--csv"]):
        with pytest.raises(SystemExit) as excinfo:
            main([*argv, *fmt])
        assert excinfo.value.code == 1
        captured = capsys.readouterr()
        assert captured.err == "error: more than 5 genus-compatible configurations\n"
        assert "Traceback" not in captured.out + captured.err
        assert captured.out == ""
    assert list(map(len, walks)) == [6, 6, 6]


@pytest.mark.parametrize(
    "fmt, marker",
    [([], " multiplicity="), (["--json"], '"genus_ok": true'), (["--csv"], ",True,")],
    ids=["text", "json", "csv"],
)
def test_enumerate_writes_rows_as_their_verdicts_come(fmt, marker, monkeypatch):
    # One walk counts the 117 configurations of (6,4,0) <= 3 before any
    # output.  With two rows to a JSON chunk, the first row is then written
    # after at most two verdicts and 3 configurations of a second walk, in
    # each format.
    verdicts, writes = [], []
    walks = _recorded_walks(monkeypatch)
    walk = cli_module.filter_verdicts

    def counted(curve, configs):
        for verdict in walk(curve, configs):
            verdicts.append(verdict)
            yield verdict

    class Recorder(io.StringIO):
        def write(self, text):
            writes.append((len(verdicts), list(map(len, walks)), text))
            return super().write(text)

        def writelines(self, texts):
            for text in texts:
                self.write(text)

    monkeypatch.setattr(cli_module, "_CHUNK_ROWS", 2)
    monkeypatch.setattr(cli_module, "filter_verdicts", counted)
    monkeypatch.setattr(sys, "stdout", Recorder())
    with pytest.raises(SystemExit) as excinfo:
        main(["enumerate", "--a", "6", "--b", "4", "--max-cusps", "3", *fmt])
    assert excinfo.value.code == 0
    assert writes[0][1][0] == 117
    made, walked = next((made, walked) for made, walked, text in writes if marker in text)
    assert made <= 2 and walked[1] <= 3
    assert len(verdicts) == 117 and list(map(len, walks)) == [117, 117]
    assert sys.stdout.getvalue().count(marker) == 117


def test_enumerate_genus_zero_empty_table():
    code, output = run(["enumerate", "--a", "1", "--b", "1"])
    assert code == 0
    assert "0 genus-compatible configuration(s)" in output


def test_spectrum_table_output():
    code, output = run(["spectrum", "--a", "6", "--b", "6"])
    assert code == 0
    lines = output.strip().splitlines()
    assert lines[0] == "1/6 1"
    assert "1/1 11" in lines


def test_spectrum_both_methods_agree():
    code, output = run(["spectrum", "--a", "6", "--b", "4", "--method", "both"])
    assert code == 0
    assert "methods agree: True" in output


@pytest.mark.parametrize(
    "n, shift, line",
    [
        pytest.param(3, 1, "1/4: table 1 != derived 2", id="1-2"),
        pytest.param(3, -1, "1/4: table 1 != derived 0", id="-1-0"),
        pytest.param(1, 1, "1/12: table 0 != derived 1", id="1-1"),
        pytest.param(21, 1, "7/4: table 1 != derived 2", id="mirror-1-2"),
    ],
)
def test_spectrum_mismatch_exits_three(n, shift, line, capsys, monkeypatch):
    # Shift the derived multiplicity of n/12 in (6, 4, 0): 1/4 has 1 in both
    # constructions, and a shift to 0 leaves it in the table only; 1/12 is in
    # neither, and a shift to 1 puts it in the derived one only.  7/4 is in
    # the half above 1 that the table mirrors from 1/4 and the derived route
    # works out on its own.  Each id is the shift and the derived multiplicity.
    derived = reference.spectrum_at_infinity_derived

    def shifted(curve):
        denominator, pairs = derived(curve)
        assert denominator == 12
        mults = dict(pairs)
        mults[n] = mults.get(n, 0) + shift
        return denominator, tuple(sorted(item for item in mults.items() if item[1]))

    monkeypatch.setattr(reference, "spectrum_at_infinity_derived", shifted)
    with pytest.raises(SystemExit) as excinfo:
        main(["spectrum", "--a", "6", "--b", "4", "--method", "both", "--json"])
    assert excinfo.value.code == 3
    out, err = capsys.readouterr()
    assert json.loads(out)["results"]["methods_agree"] is False
    assert err == f"mismatch between table and derived constructions:\n  {line}\n"


def test_out_of_memory_exits_one_without_traceback(capsys, monkeypatch):
    # For b = 1 the table still makes a row of w zeros, so (0, 1, 10^8) runs
    # out of memory under a 400 MB address-space limit.
    def exhausted(curve):
        raise MemoryError

    monkeypatch.setattr(reference, "spectrum_at_infinity_table", exhausted)
    with pytest.raises(SystemExit) as excinfo:
        main(["spectrum", "--a", "0", "--b", "1", "--e", "100000000"])
    assert excinfo.value.code == 1
    assert capsys.readouterr() == ("", "error: out of memory\n")


def test_spectrum_csv():
    code, output = run(["spectrum", "--a", "6", "--b", "4", "--csv"])
    rows = list(csv.DictReader(io.StringIO(output)))
    assert rows[0]["value"] == "1/4"
    assert sum(int(row["multiplicity"]) for row in rows) == 39


def test_dedekind_commands():
    code, output = run(["dedekind", "s", "1", "3"])
    assert output.strip() == "1/18"
    code, output = run(["dedekind", "d", "1", "3", "7"])
    assert output.strip() == "-1/14"
    code, output = run(["dedekind", "s", "1", "0"])
    assert code == 1


def test_dedekind_limits():
    code, output = run(["dedekind", "limits", "--b", "3", "--max-w", "2000"])
    assert code == 0
    assert "[ok]" in output
    code, output = run(["dedekind", "limits", "--b", "3", "--max-w", "2000", "--json"])
    report = json.loads(output)
    assert report["results"]["all_within_tol"] is True


@pytest.mark.parametrize("tol", ["-1", "-1/1000"])
def test_dedekind_limits_negative_tolerance_rejected(tol, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["dedekind", "limits", "--b", "3", "--max-w", "100", "--tol", tol])
    assert excinfo.value.code == 1
    assert capsys.readouterr().err == f"error: tol must be >= 0, got {tol}\n"


def test_dedekind_limits_without_subsequence_member(capsys):
    # b is the product of the odd primes up to 97, so no w in [2, 100] is
    # odd and coprime to b.
    b = "1152783981972759212376551073665878035"
    with pytest.raises(SystemExit) as excinfo:
        main(["dedekind", "limits", "--b", b, "--max-w", "100"])
    assert excinfo.value.code == 1
    assert capsys.readouterr().err == (
        f"error: no subsequence member <= 100 for b = {b}\n"
    )


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--tol", "1/0"], "--tol must be a rational number such as 1/200, got '1/0'"),
        (["--tol", "x"], "--tol must be a rational number such as 1/200, got 'x'"),
        (["--max-w", "-1"], "max_w must be >= 100, got -1"),
    ],
)
def test_dedekind_limits_errors_name_the_option(argv, message):
    limits = ["dedekind", "limits", "--b", "3", "--max-w", "100"]
    assert run([*limits, *argv]) == (1, f"error: {message}\n")


@pytest.mark.parametrize("spec", ["2x51", "", "2:3:4", "2:x", "2:3:"])
def test_cusp_syntax_errors_name_the_form(spec):
    argv = ["check", "--a", "6", "--b", "6", "--cusp", "6:11", f"--cusp={spec}"]
    message = f"bad cusp '{spec}': expected r:s with integers r and s"
    assert run(argv) == (1, f"error: {message}\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "--a", "6", "--b", "6", "--cusp", "2:3", "--only", "spectrum"],
        pytest.param(
            ["check", "--a", "6", "--b", "6", "--cusp", "2:3", "--only", "hf"],
            id="check_only_hf",
        ),
        ["dinv", "--a", "6", "--b", "6", "--cusp", "2:3", "--m", "0"],
    ],
    ids=lambda argv: argv[0],
)
def test_genus_mismatch_message(argv):
    message = "genus mismatch: expected sum(mu/2) = g = 25, got 1"
    assert run(argv) == (1, f"error: {message}\n")


def test_genus_check_comes_before_the_hf_line(monkeypatch):
    # The HF line has an entry for every m in [-g, g]: a configuration of the
    # wrong genus is refused before it is built.
    def refuse(curve):
        raise AssertionError("built the HF line before the genus check")

    monkeypatch.setattr(hf, "_p_max_line", refuse)
    message = "genus mismatch: expected sum(mu/2) = g = 25, got 1"
    assert run(["check", "--a", "6", "--b", "6", "--cusp", "2:3"]) == (
        1,
        f"error: {message}\n",
    )
    with pytest.raises(GenusMismatchError, match=re.escape(message)):
        hf_check(CurveType(6, 6, 0), CuspConfiguration([PuiseuxCusp(2, 3)]))


def test_dinv_checks_m_before_the_fold(monkeypatch):
    # The fold of a large configuration takes seconds: an m out of range is
    # refused before it starts.
    def refuse(curve, config):
        raise AssertionError("folded the configuration before checking m")

    monkeypatch.setattr(cli_module, "curve_elements", refuse)
    argv = ["dinv", "--a", "6", "--b", "6", "--cusp", "6:11", "--m", "36"]
    assert run(argv) == (1, "error: m must lie in [-72/2, 72/2), got 36\n")


def test_m_is_checked_once_per_request(monkeypatch):
    # `d_invariant` checks its m once, and `dinv --all-m` only its first of
    # 72: the others are in range by construction.
    calls = []
    check_m = hf._check_m

    def counted(curve, m):
        calls.append(m)
        return check_m(curve, m)

    monkeypatch.setattr(hf, "_check_m", counted)
    config = CuspConfiguration((PuiseuxCusp(6, 11),))
    assert hf.d_invariant(CurveType(6, 6, 0), config, 25) == Fraction(-103, 72)
    assert calls == [25]
    calls.clear()
    code, output = run(["dinv", "--a", "6", "--b", "6", "--cusp", "6:11", "--all-m"])
    assert (code, output.count("\n"), calls) == (0, 72, [-36])


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "--a", "6", "--b", "6", "--cusp", "2:51"],
        ["check", "--a", "6", "--b", "6", "--cusp", "6:11"],
        ["check", "--a", "4", "--b", "4", "--e", "2", "--cusp", "3:22", "--only", "hf"],
        ["enumerate", "--a", "6", "--b", "6", "--max-cusps", "2"],
        ["enumerate", "--a", "1", "--b", "1"],
        ["spectrum", "--a", "6", "--b", "4", "--method", "table"],
        ["spectrum", "--a", "6", "--b", "4", "--method", "derived"],
        ["spectrum", "--a", "7", "--b", "5", "--e", "1", "--method", "both"],
        ["dinv", "--a", "6", "--b", "6", "--cusp", "6:11", "--m", "3"],
        ["dinv", "--a", "6", "--b", "6", "--cusp", "6:11", "--all-m"],
        ["dedekind", "limits", "--b", "3", "--max-w", "2000"],
    ],
    ids=" ".join,
)
def test_json_reports_are_indented_stdlib_bytes(argv):
    # Reports promise the bytes of json.dumps(sort_keys=True, indent=2).
    code, out = run([*argv, "--json"])
    assert code in (0, 2)
    assert out == json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n"


def _crlf(text):
    """CSV rows end in CRLF, as the csv module writes them."""
    return text.replace("\n", "\r\n")


# Exit code and stdout of text and CSV reports, recorded byte for byte.
_PINNED = {
    "check --a 6 --b 6 --cusp 2:51": (
        2,
        """\
curve (6,6) in X_0, cusps [(2,51)]: obstructed
  spectrum witness: x=8/17, inside 49 vs 48, outside 1 vs 13
  spectrum witness: x=49/102, inside 49 vs 48, outside 1 vs 13
  spectrum witness: x=25/51, inside 50 vs 48, outside 0 vs 13
  spectrum witness: x=26/51, inside 50 vs 48, outside 0 vs 13
  spectrum witness: x=53/102, inside 49 vs 48, outside 1 vs 13
  spectrum witness: x=9/17, inside 49 vs 48, outside 1 vs 13
""",
    ),
    "check --a 6 --b 6 --cusp 2:51 --csv": (
        2,
        _crlf("""\
check,x,cusp_inside,infinity_inside,cusp_outside,infinity_outside
spectrum,8/17,49,48,1,13
spectrum,49/102,49,48,1,13
spectrum,25/51,50,48,0,13
spectrum,26/51,50,48,0,13
spectrum,53/102,49,48,1,13
spectrum,9/17,49,48,1,13
"""),
    ),
    "check --a 6 --b 6 --cusp 2:3 --cusp 5:13": (
        2,
        """\
curve (6,6) in X_0, cusps [(2,3), (5,13)]: obstructed
  hf witness: m=-12 (m+g=13), presentation (s1,s2)=(1,1), R=3 < P=4
  hf witness: m=0 (m+g=25), presentation (s1,s2)=(2,2), R=8 < P=9
  hf witness: m=12 (m+g=37), presentation (s1,s2)=(3,3), R=15 < P=16
""",
    ),
    "check --a 6 --b 6 --cusp 2:3 --cusp 5:13 --csv": (
        2,
        _crlf("""\
check,m,s1,s2,r_value,p_value
hf,-12,1,1,3,4
hf,0,2,2,8,9
hf,12,3,3,15,16
"""),
    ),
    "check --a 9 --b 7 --e 1 --cusp 2:49 --cusp 10:11": (
        2,
        """\
curve (9,7) in X_1, cusps [(2,49), (10,11)]: obstructed
  hf witness: m=-61 (m+g=8), presentation (s1,s2)=(1,0), R=1 < P=2
  hf witness: m=61 (m+g=130), presentation (s1,s2)=(7,5), R=62 < P=63
  spectrum witness: x=2487/5390, inside 121 vs 120, outside 17 vs 33
  spectrum witness: x=2903/5390, inside 121 vs 120, outside 17 vs 33
""",
    ),
    "check --a 9 --b 7 --e 1 --cusp 2:49 --cusp 10:11 --csv": (
        2,
        _crlf("""\
check,m,s1,s2,r_value,p_value,x,cusp_inside,infinity_inside,cusp_outside,infinity_outside
hf,-61,1,0,1,2,,,,,
hf,61,7,5,62,63,,,,,
spectrum,,,,,,2487/5390,121,120,17,33
spectrum,,,,,,2903/5390,121,120,17,33
"""),
    ),
    "check --a 6 --b 6 --cusp 6:11": (
        0,
        """\
curve (6,6) in X_0, cusps [(6,11)]: survives
""",
    ),
    "check --a 6 --b 6 --cusp 6:11 --csv": (
        0,
        _crlf("""\
check,m,s1,s2,r_value,p_value,x,cusp_inside,infinity_inside,cusp_outside,infinity_outside
"""),
    ),
    "enumerate --a 6 --b 6 --max-cusps 2": (
        0,
        """\
curve (6,6) in X_0: 69 genus-compatible configuration(s)
  [2:3 2:49] multiplicity=True hf=passes spectrum=obstructed -> obstructed
  [2:3 3:25] multiplicity=True hf=passes spectrum=passes -> survives
  [2:3 4:17] multiplicity=True hf=passes spectrum=passes -> survives
  [2:3 5:13] multiplicity=True hf=obstructed spectrum=passes -> obstructed
  [2:3 7:9] multiplicity=False hf=obstructed spectrum=passes -> obstructed
  [2:5 2:47] multiplicity=True hf=passes spectrum=obstructed -> obstructed
  [2:7 2:45] multiplicity=True hf=passes spectrum=obstructed -> obstructed
  [2:7 3:23] multiplicity=True hf=passes spectrum=passes -> survives
  [2:7 5:12] multiplicity=True hf=passes spectrum=passes -> survives
  [3:4 2:45] multiplicity=True hf=passes spectrum=obstructed -> obstructed
  [3:4 3:23] multiplicity=True hf=passes spectrum=passes -> survives
  [3:4 5:12] multiplicity=True hf=obstructed spectrum=passes -> obstructed
  [2:9 2:43] multiplicity=True hf=passes spectrum=obstructed -> obstructed
  [2:9 3:22] multiplicity=True hf=passes spectrum=passes -> survives
  [2:9 4:15] multiplicity=True hf=passes spectrum=passes -> survives
  [2:9 7:8] multiplicity=False hf=obstructed spectrum=passes -> obstructed
  [3:5 2:43] multiplicity=True hf=passes spectrum=obstructed -> obstructed
  [3:5 3:22] multiplicity=True hf=passes spectrum=passes -> survives
  [3:5 4:15] multiplicity=True hf=passes spectrum=passes -> survives
  [3:5 7:8] multiplicity=False hf=obstructed spectrum=passes -> obstructed
  [2:11 2:41] multiplicity=True hf=passes spectrum=obstructed -> obstructed
  [2:11 5:11] multiplicity=True hf=passes spectrum=passes -> survives
  [2:13 2:39] multiplicity=True hf=passes spectrum=obstructed -> obstructed
  [2:13 3:20] multiplicity=True hf=passes spectrum=passes -> survives
  [3:7 2:39] multiplicity=True hf=passes spectrum=obstructed -> obstructed
  [3:7 3:20] multiplicity=True hf=passes spectrum=passes -> survives
  [4:5 2:39] multiplicity=True hf=passes spectrum=passes -> survives
  [4:5 3:20] multiplicity=True hf=passes spectrum=passes -> survives
  [2:15 2:37] multiplicity=True hf=passes spectrum=obstructed -> obstructed
  [2:15 3:19] multiplicity=True hf=passes spectrum=passes -> survives
  [2:15 4:13] multiplicity=True hf=passes spectrum=passes -> survives
  [3:8 2:37] multiplicity=True hf=passes spectrum=passes -> survives
  [3:8 3:19] multiplicity=True hf=passes spectrum=passes -> survives
  [3:8 4:13] multiplicity=True hf=passes spectrum=passes -> survives
  [2:17 2:35] multiplicity=True hf=passes spectrum=obstructed -> obstructed
  [2:19 2:33] multiplicity=True hf=passes spectrum=obstructed -> obstructed
  [2:19 3:17] multiplicity=True hf=passes spectrum=passes -> survives
  [2:19 5:9] multiplicity=True hf=passes spectrum=passes -> survives
  [3:10 2:33] multiplicity=True hf=passes spectrum=passes -> survives
  [3:10 3:17] multiplicity=True hf=passes spectrum=passes -> survives
  [3:10 5:9] multiplicity=True hf=passes spectrum=passes -> survives
  [4:7 2:33] multiplicity=True hf=passes spectrum=passes -> survives
  [4:7 3:17] multiplicity=True hf=passes spectrum=passes -> survives
  [4:7 5:9] multiplicity=True hf=obstructed spectrum=passes -> obstructed
  [2:21 2:31] multiplicity=True hf=passes spectrum=obstructed -> obstructed
  [2:21 3:16] multiplicity=True hf=passes spectrum=passes -> survives
  [2:21 4:11] multiplicity=True hf=passes spectrum=passes -> survives
  [2:21 6:7] multiplicity=True hf=passes spectrum=passes -> survives
  [3:11 2:31] multiplicity=True hf=passes spectrum=passes -> survives
  [3:11 3:16] multiplicity=True hf=passes spectrum=passes -> survives
  [3:11 4:11] multiplicity=True hf=passes spectrum=passes -> survives
  [3:11 6:7] multiplicity=True hf=passes spectrum=passes -> survives
  [5:6 2:31] multiplicity=True hf=passes spectrum=passes -> survives
  [5:6 3:16] multiplicity=True hf=obstructed spectrum=passes -> obstructed
  [5:6 4:11] multiplicity=True hf=obstructed spectrum=passes -> obstructed
  [5:6 6:7] multiplicity=True hf=passes spectrum=passes -> survives
  [2:23 2:29] multiplicity=True hf=passes spectrum=obstructed -> obstructed
  [2:23 5:8] multiplicity=True hf=passes spectrum=passes -> survives
  [2:25 2:27] multiplicity=True hf=passes spectrum=obstructed -> obstructed
  [2:25 3:14] multiplicity=True hf=passes spectrum=passes -> survives
  [3:13 2:27] multiplicity=True hf=passes spectrum=passes -> survives
  [3:13 3:14] multiplicity=True hf=passes spectrum=passes -> survives
  [4:9 2:27] multiplicity=True hf=passes spectrum=passes -> survives
  [4:9 3:14] multiplicity=True hf=passes spectrum=passes -> survives
  [5:7 2:27] multiplicity=True hf=passes spectrum=passes -> survives
  [5:7 3:14] multiplicity=True hf=passes spectrum=passes -> survives
  [2:51] multiplicity=True hf=passes spectrum=obstructed -> obstructed
  [3:26] multiplicity=True hf=passes spectrum=passes -> survives
  [6:11] multiplicity=True hf=passes spectrum=passes -> survives
""",
    ),
    "enumerate --a 6 --b 6 --max-cusps 2 --csv": (
        0,
        _crlf("""\
cusps,genus_ok,multiplicity_ok,hf,spectrum,survives
2:3 2:49,True,True,passes,obstructed,False
2:3 3:25,True,True,passes,passes,True
2:3 4:17,True,True,passes,passes,True
2:3 5:13,True,True,obstructed,passes,False
2:3 7:9,True,False,obstructed,passes,False
2:5 2:47,True,True,passes,obstructed,False
2:7 2:45,True,True,passes,obstructed,False
2:7 3:23,True,True,passes,passes,True
2:7 5:12,True,True,passes,passes,True
3:4 2:45,True,True,passes,obstructed,False
3:4 3:23,True,True,passes,passes,True
3:4 5:12,True,True,obstructed,passes,False
2:9 2:43,True,True,passes,obstructed,False
2:9 3:22,True,True,passes,passes,True
2:9 4:15,True,True,passes,passes,True
2:9 7:8,True,False,obstructed,passes,False
3:5 2:43,True,True,passes,obstructed,False
3:5 3:22,True,True,passes,passes,True
3:5 4:15,True,True,passes,passes,True
3:5 7:8,True,False,obstructed,passes,False
2:11 2:41,True,True,passes,obstructed,False
2:11 5:11,True,True,passes,passes,True
2:13 2:39,True,True,passes,obstructed,False
2:13 3:20,True,True,passes,passes,True
3:7 2:39,True,True,passes,obstructed,False
3:7 3:20,True,True,passes,passes,True
4:5 2:39,True,True,passes,passes,True
4:5 3:20,True,True,passes,passes,True
2:15 2:37,True,True,passes,obstructed,False
2:15 3:19,True,True,passes,passes,True
2:15 4:13,True,True,passes,passes,True
3:8 2:37,True,True,passes,passes,True
3:8 3:19,True,True,passes,passes,True
3:8 4:13,True,True,passes,passes,True
2:17 2:35,True,True,passes,obstructed,False
2:19 2:33,True,True,passes,obstructed,False
2:19 3:17,True,True,passes,passes,True
2:19 5:9,True,True,passes,passes,True
3:10 2:33,True,True,passes,passes,True
3:10 3:17,True,True,passes,passes,True
3:10 5:9,True,True,passes,passes,True
4:7 2:33,True,True,passes,passes,True
4:7 3:17,True,True,passes,passes,True
4:7 5:9,True,True,obstructed,passes,False
2:21 2:31,True,True,passes,obstructed,False
2:21 3:16,True,True,passes,passes,True
2:21 4:11,True,True,passes,passes,True
2:21 6:7,True,True,passes,passes,True
3:11 2:31,True,True,passes,passes,True
3:11 3:16,True,True,passes,passes,True
3:11 4:11,True,True,passes,passes,True
3:11 6:7,True,True,passes,passes,True
5:6 2:31,True,True,passes,passes,True
5:6 3:16,True,True,obstructed,passes,False
5:6 4:11,True,True,obstructed,passes,False
5:6 6:7,True,True,passes,passes,True
2:23 2:29,True,True,passes,obstructed,False
2:23 5:8,True,True,passes,passes,True
2:25 2:27,True,True,passes,obstructed,False
2:25 3:14,True,True,passes,passes,True
3:13 2:27,True,True,passes,passes,True
3:13 3:14,True,True,passes,passes,True
4:9 2:27,True,True,passes,passes,True
4:9 3:14,True,True,passes,passes,True
5:7 2:27,True,True,passes,passes,True
5:7 3:14,True,True,passes,passes,True
2:51,True,True,passes,obstructed,False
3:26,True,True,passes,passes,True
6:11,True,True,passes,passes,True
"""),
    ),
    "spectrum --a 6 --b 4 --method both": (
        0,
        """\
1/4 1
1/3 1
1/2 4
2/3 2
3/4 4
5/6 3
1/1 9
7/6 3
5/4 4
4/3 2
3/2 4
5/3 1
7/4 1
methods agree: True
""",
    ),
    "dinv --a 6 --b 6 --cusp 6:11 --m 3": (
        0,
        """\
m=3: -23/8
""",
    ),
    "dedekind limits --b 3 --max-w 1000": (
        0,
        """\
a_w/w at w=997: value 41002/994009, limit 1/24, deviation 9961/23856216 [ok]
b_w/w at w=997: value 54614/994009, limit 1/18, deviation 10957/17892162 [ok]
c_w/w at w=997: value 13612/994009, limit 1/72, deviation 13945/71568648 [ok]
""",
    ),
}


@pytest.mark.parametrize("argv", _PINNED)
def test_text_and_csv_reports_are_pinned_bytes(argv, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(argv.split())
    assert (excinfo.value.code, capsys.readouterr().out) == _PINNED[argv]

# Genus-0 curves on the edges of the domain: b = 1 (any a, large e included),
# a = 0 (which needs e >= 1 for d > 0), and a = 1 on X_0.
_GENUS_ZERO_EDGES = st.one_of(
    st.tuples(st.integers(0, 40), st.just(1), st.integers(0, 60)),
    st.tuples(st.just(0), st.integers(1, 2), st.just(1)),
    st.tuples(st.just(1), st.integers(1, 12), st.just(0)),
).filter(lambda curve: curve != (0, 1, 0))


@given(curve=_GENUS_ZERO_EDGES)
@example(curve=(0, 1, 1))
@example(curve=(0, 1, 40))
@example(curve=(0, 2, 1))
@example(curve=(5, 1, 40))
@example(curve=(1, 1, 0))
@settings(max_examples=25, deadline=None)
def test_domain_edges_of_genus_zero(curve):
    # g = 0 leaves no room for a cusp: the empty configuration is the only
    # one that fits, it survives both filters, and enumerate finds nothing.
    base = [f"--{name}={value}" for name, value in zip("abe", curve)]
    code, out = run(["check", *base, "--json"])
    report = json.loads(out)
    assert code == 0
    assert report["results"]["g"] == 0
    assert report["results"]["verdict"] == "survives"
    assert report["witnesses"] == []
    code, out = run(["enumerate", *base, "--max-cusps", "3", "--json"])
    assert code == 0
    assert json.loads(out)["results"]["count"] == 0
    code, out = run(["spectrum", *base, "--method", "both", "--json"])
    assert code == 0
    assert json.loads(out)["results"]["methods_agree"] is True


def test_dinv_single_and_all():
    code, output = run(["dinv", "--a", "1", "--b", "1", "--m", "0"])
    assert output.strip() == "m=0: -1/4"
    code, output = run(
        ["dinv", "--a", "6", "--b", "6", "--cusp", "6:11", "--all-m", "--json"]
    )
    report = json.loads(output)
    values = {row["m"]: row["d_invariant"] for row in report["results"]["values"]}
    assert len(values) == 72
    assert values[25] == "-103/72"


@pytest.mark.parametrize("fmt", [[], ["--json"]], ids=["text", "json"])
def test_dinv_writes_rows_as_they_come(fmt, monkeypatch):
    # With two rows to a JSON chunk, the first write comes before the last of
    # the 72 correction terms, in each format.
    events = []
    d_invariant = cli_module._d_invariant

    def counted(*args):
        events.append("d")
        return d_invariant(*args)

    class Recorder(io.StringIO):
        def write(self, text):
            events.append("write")
            return super().write(text)

        def writelines(self, texts):
            for text in texts:
                self.write(text)

    monkeypatch.setattr(cli_module, "_CHUNK_ROWS", 2)
    monkeypatch.setattr(cli_module, "_d_invariant", counted)
    monkeypatch.setattr(sys, "stdout", Recorder())
    with pytest.raises(SystemExit) as excinfo:
        main(["dinv", "--a", "6", "--b", "6", "--cusp", "6:11", "--all-m", *fmt])
    assert excinfo.value.code == 0
    assert events.count("d") == 72
    last_d = len(events) - 1 - events[::-1].index("d")
    assert events.index("write") < last_d


def test_dinv_requires_exactly_one_mode(capsys):
    for modes, message in [
        ([], "one of the arguments --m --all-m is required"),
        (["--m", "0", "--all-m"], "argument --all-m: not allowed with argument --m"),
    ]:
        with pytest.raises(SystemExit) as excinfo:
            main(["dinv", "--a", "1", "--b", "1", *modes])
        assert excinfo.value.code == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")


def test_repro_matches_golden_files():
    code, output = run(["repro"])
    assert code == 0
    assert "MISMATCH" not in output
    assert output.count(": ok") == 7


def test_repro_update_writes_golden_files(tmp_path):
    target = tmp_path / "golden"
    code, output = run(["repro", "--update", str(target)])
    assert code == 0
    assert output == "wrote 7 golden files\n"
    golden = Path(__file__).resolve().parents[1] / "src" / "cuspidal" / "golden"
    names = sorted(path.name for path in target.iterdir())
    assert len(names) == 7
    assert names == sorted(path.name for path in golden.iterdir())
    for name in names:
        assert (target / name).read_bytes() == (golden / name).read_bytes()


def test_repro_reports_a_mismatch_and_a_missing_golden_file(monkeypatch):
    golden = Path(__file__).resolve().parents[1] / "src" / "cuspidal" / "golden"
    payload = json.loads((golden / "spectrum_6_4_0.json").read_text())
    payload["total"] += 1
    scenarios = [("spectrum_6_4_0", payload), ("spectrum_6_5_0", {"total": 0})]
    monkeypatch.setattr(reference, "_repro_scenarios", lambda: scenarios)
    code, output = run(["repro"])
    assert code == 1
    assert output == "spectrum_6_4_0: MISMATCH\nspectrum_6_5_0: MISSING golden file\n"


def test_repro_update_unwritable_directory_exits_one(tmp_path, capsys):
    (tmp_path / "file").write_text("")
    with pytest.raises(SystemExit) as excinfo:
        main(["repro", "--update", str(tmp_path / "file" / "golden")])
    assert excinfo.value.code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_main_propagates_exit_codes(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["check", "--a", "6", "--b", "6", "--cusp", "2:51"])
    assert excinfo.value.code == 2
    with pytest.raises(SystemExit) as excinfo:
        main(["check", "--a", "6", "--b", "6", "--cusp", "6:11"])
    assert excinfo.value.code == 0
    with pytest.raises(SystemExit) as excinfo:
        main(["check", "--a", "6", "--b", "6", "--cusp", "2:3"])
    assert excinfo.value.code == 1
    assert "genus mismatch" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "--b", "6", "--cusp", "6:11"],
        ["check", "--a", "6", "--b", "6", "--cusp", "6:11", "--x"],
        ["check", "--a", "seven", "--b", "6"],
        ["spectrum", "--a", "6", "--b", "4", "--method", "foo"],
        ["enumerate", "--a", "6", "--b", "6", "--max", "2"],
        ["enumerate", "--a", "6", "--b", "6", "--cap", "abc"],
        ["dinv", "--a", "6", "--b", "6", "--cusp", "6:11", "--m", "100", "--json"],
        ["dedekind"],
        [],
    ],
    ids=lambda argv: " ".join(argv) or "no command",
)
def test_usage_errors_exit_one(argv, capsys):
    # Exit 2 means "obstructed", so a usage error must never exit 2.
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


_DESCRIPTIONS = {
    "": "Obstruction checks for rational cuspidal curves in ruled surfaces.",
    "check": "Decide whether a prescribed cusp configuration is obstructed.",
    "enumerate": "List all genus-compatible configurations with per-filter verdicts.",
    "spectrum": "Print the spectrum at infinity as sorted 'value multiplicity' lines.",
    "dedekind": "Sawtooth sums: two- and three-term reciprocity families.",
    "dinv": "Exact correction terms for one m or the whole range [-d/2, d/2).",
    "repro": "Re-run the bundled reference scenarios and diff against golden files.",
    "dedekind s": "Print s(p, q) as num/den.",
    "dedekind d": "Print D(p, q, r) as num/den.",
    "dedekind limits": "Evaluate the three limit statements along the proof subsequence.",
}


@pytest.mark.parametrize(
    "command",
    [[], ["check"], ["enumerate"], ["spectrum"], ["dinv"], ["repro"], ["dedekind"]]
    + [["dedekind", name] for name in ("s", "d", "limits")],
    ids=lambda command: " ".join(["cuspidal", *command]),
)
def test_help_exits_zero(command, capsys, monkeypatch):
    # Wide enough that no description wraps.
    monkeypatch.setenv("COLUMNS", "200")
    with pytest.raises(SystemExit) as excinfo:
        main([*command, "--help"])
    assert excinfo.value.code == 0
    usage, description = capsys.readouterr().out.split("\n\n")[:2]
    assert usage.startswith(" ".join(["usage: cuspidal", *command]))
    assert description == _DESCRIPTIONS[" ".join(command)]


def test_group_help_lists_every_command_with_its_description(capsys, monkeypatch):
    # The group's help builds `_parser(())`, the parser of every command,
    # which resolves every function `_COMMANDS` names by string in
    # `cuspidal.reference`: a name missing there fails here.
    monkeypatch.setenv("COLUMNS", "200")
    with pytest.raises(SystemExit) as excinfo:
        main(["--help"])
    assert excinfo.value.code == 0
    # The command list: each name, then its description on the same line
    # or, for a long name, on the next.
    listed = capsys.readouterr().out.split("  COMMAND\n")[1].split("\n\n")[0]
    commands = ["check", "enumerate", "spectrum", "dedekind", "dinv", "repro"]
    assert commands == list(cli_module._COMMANDS)
    assert listed.split() == " ".join(
        f"{command} {_DESCRIPTIONS[command]}" for command in commands
    ).split()


_HELP_TEXTS = json.loads((Path(__file__).parent / "help_texts.json").read_text())


@pytest.mark.parametrize("columns", ["80", "200"])
def test_help_texts_are_pinned_bytes(columns, capsys, monkeypatch):
    # Every help text, whole.  argparse lays out help differently from
    # Python 3.13 on, so the texts are pinned per version range.
    if sys.version_info[:2] > (3, 13):
        pytest.skip("help texts are pinned for Python 3.10 to 3.13")
    key = "3.13" if sys.version_info >= (3, 13) else "3.10-3.12"
    monkeypatch.setenv("COLUMNS", columns)
    for name, text in _HELP_TEXTS[key].items():
        if name.startswith(columns + " "):
            with pytest.raises(SystemExit) as excinfo:
                main([*name.split()[2:], "--help"])
            assert (excinfo.value.code, capsys.readouterr().out) == (0, text), name


def _outcome(run_main, argv):
    """The exit code, stdout and stderr of `run_main(argv)`."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        with pytest.raises(SystemExit) as excinfo:
            run_main(argv)
    return excinfo.value.code, stdout.getvalue(), stderr.getvalue()


_COMMAND_PATHS = [
    [],
    *([command] for command in ("check", "enumerate", "spectrum", "dinv", "repro")),
    *(["dedekind", *sums] for sums in ([], ["s"], ["d"], ["limits"])),
]


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["--help"],
        ["bogus"],
        ["dedekind"],
        ["dedekind", "x"],
        ["dedekind", "s"],
        ["dedekind", "s", "--", "3", "4"],
        ["dedekind", "s", "--tol", "3", "4"],
        ["dedekind", "d", "--b", "-1", "2", "3"],
        ["--x", "check"],
        ["--help", "check"],
        ["check", "dedekind"],
        *([*path, "--help"] for path in _COMMAND_PATHS),
    ],
    ids=lambda argv: " ".join(argv) or "no command",
)
def test_main_parses_as_the_group_parser_on_group_argv(argv, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    assert _outcome(main, argv) == _outcome(group_dispatch, argv)


@pytest.mark.parametrize(
    "argv",
    [
        ["dedekind", "s", "3", "7"],
        ["spectrum", "--a", "6", "--b", "4", "--method", "both", "--json"],
        ["enumerate", "--a", "6", "--b", "6", "--max-cusps", "2", "--json"],
        ["--help"],
    ],
    ids=["dedekind-s", "spectrum", "enumerate", "help"],
)
def test_module_entry_point_matches_main(argv, monkeypatch):
    # Under `python -m cuspidal.cli` this file runs as `__main__`, which it
    # registers as `cuspidal.cli` for the reference commands to import.
    monkeypatch.setenv("COLUMNS", "80")
    result = _python("-m", "cuspidal.cli", *argv, timeout=60)
    code, out, _ = _outcome(main, argv)
    assert (result.returncode, result.stdout, result.stderr) == (code, out, "")


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["check", "--a", str(10**20), "--b", "1"], "cusps []: survives\n"),
        (["enumerate", "--a", str(10**20 - 1), "--b", "1", "--json"], '"count": 0,'),
    ],
    ids=["check", "enumerate"],
)
def test_genus_zero_requests_on_huge_curves_finish_at_once(argv, expected):
    # A genus-0 curve has no cusp, its HF line has one entry and its spectrum
    # at infinity no value below 1, so however large a or b is, each
    # command does O(1) work.
    result = _python("-m", "cuspidal.cli", *argv, timeout=10)
    assert result.returncode == 0
    assert expected in result.stdout


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ["check", "--a", "6", "--b", "6", "--cusp", "-2:3"],
            "bad cusp '-2:3': cusp exponent r must be >= 2, got -2",
        ),
        (["spectrum", "--a", "-1", "--b", "4"], "a must be nonnegative, got -1"),
    ],
)
def test_option_values_may_begin_with_a_dash(argv, message):
    assert run(argv) == (1, f"error: {message}\n")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["s", "--tol", "3", "4"], "unrecognized arguments: --tol"),
        (["d", "--b", "-1", "2", "3"], "unrecognized arguments: --b"),
        (["s", "--x", "3", "4"], "unrecognized arguments: --x"),
    ],
)
def test_sums_join_the_values_of_every_dedekind_option(argv, message):
    # Only the options of the sum that argv names take a value: `--tol` and
    # `--b` belong to `limits`, so after `s` and `d` they are unknown options
    # and the numbers after them are the sum's arguments.
    assert run(["dedekind", *argv]) == (1, f"error: {message}\n")


def test_dedekind_sum_of_a_negative_numerator():
    # A negative p is a value, not an option; s(-1, 3) = s(2, 3) as p is
    # reduced mod q.
    assert run(["dedekind", "s", "-1", "3"]) == (0, "-1/18\n")
    d = ["dedekind", "d"]
    assert run([*d, "-1", "3", "7"]) == run([*d, "6", "3", "7"])


def _fresh_modules(argv, names):
    """Run `main(argv)`, or only `import cuspidal.cli` for an empty argv, in
    a fresh `python -S` (which keeps site-packages' own start-up imports out
    of the module set); return the exit code and which of `names` it loaded."""
    code = (
        "import json, sys, cuspidal.cli\n"
        "code = None\n"
        "try:\n"
        "    if sys.argv[1:]:\n"
        "        cuspidal.cli.main(sys.argv[1:])\n"
        "except SystemExit as exc:\n"
        "    code = exc.code\n"
        f"loaded = sorted(set({names!r}) & set(sys.modules))\n"
        "print(json.dumps([code, loaded]), file=sys.stderr)\n"
    )
    result = _python("-S", "-c", code, *argv, check=True)
    return tuple(json.loads(result.stderr))


def test_cli_imports_neither_click_nor_dataclasses():
    # A fresh `import cuspidal.cli` pays for no third-party parser, for no
    # dataclasses (which imports inspect), for no typing (records subclass
    # `collections.namedtuple`, annotations name builtins and
    # `collections.abc`), and for none of the modules only some commands
    # use: the sawtooth sums, csv and importlib.resources.
    absent = [
        "click",
        "dataclasses",
        "inspect",
        "typing",
        "cuspidal.dedekind",
        "csv",
        "importlib.resources",
    ]
    assert _fresh_modules([], absent) == (None, [])


def test_import_time_lists_each_module():
    # -X importtime logs an import only when it goes through the import
    # statement, not `importlib.import_module` (the package's `__getattr__`),
    # so the CLI imports `hf` and `spectra` by name before it binds them.
    result = _python("-S", "-X", "importtime", "-c", "import cuspidal.cli", check=True)
    imported = {line.rsplit("|", 1)[-1].strip() for line in result.stderr.splitlines()}
    modules = ["core", "hf", "spectra", "enumeration", "cli"]
    assert {f"cuspidal.{module}" for module in modules} <= imported


def test_package_import_loads_no_submodule():
    # Each public name loads its module on first use, not on `import cuspidal`.
    code = "import sys, cuspidal; print(sorted(m for m in sys.modules if 'cuspidal.' in m))"
    result = _python("-S", "-c", code, check=True)
    assert result.stdout == "[]\n"


def test_package_loads_each_exporting_module_on_first_use():
    # As when `__init__` imported them: `cuspidal.hf` and the other
    # exporting modules resolve after a bare `import cuspidal`.
    code = (
        "import sys, cuspidal\n"
        "print(cuspidal.hf.p_bound(0, 0, 1))\n"
        "for name in ['core', 'hf', 'spectra', 'enumeration', 'dedekind']:\n"
        "    assert name in dir(cuspidal), name\n"
        "    assert getattr(cuspidal, name) is sys.modules['cuspidal.' + name], name\n"
    )
    result = _python("-S", "-c", code, check=True)
    assert result.stdout == "1\n"


_PUBLIC = {
    "core": ["CurveType", "CuspConfiguration", "GenusMismatchError", "PuiseuxCusp"],
    "hf": ["HfReport", "HfWitness", "curve_elements", "d_invariant", "hf_check",
           "max_p_over_presentations", "multiplicity_bound_check", "p_bound"],
    "spectra": ["SemicontinuityReport", "SemicontinuityWitness", "alexander_order",
                "semicontinuity_check", "signature_profile",
                "spectrum_at_infinity_derived", "spectrum_at_infinity_table"],
    "enumeration": ["configurations", "enumerate_unicuspidal", "filter_verdicts"],
    "dedekind": ["LimitReport", "dedekind_sum", "rademacher_sum", "section_sums",
                 "verify_limits"],
}


def test_package_exports_each_public_name_from_its_module():
    import cuspidal

    assert cuspidal.__all__ == sorted(name for names in _PUBLIC.values() for name in names)
    for module, names in _PUBLIC.items():
        for name in names:
            defining = importlib.import_module(f"cuspidal.{module}")
            assert getattr(cuspidal, name) is getattr(defining, name), name
    assert {"__all__", *cuspidal.__all__} <= set(dir(cuspidal))
    with pytest.raises(AttributeError, match="has no attribute 'nothing'"):
        cuspidal.nothing


_REFERENCE_ONLY = ["fractions", "decimal", "cuspidal.reference", "cuspidal.dedekind"]


@pytest.mark.parametrize(
    "argv, code",
    [
        ([], None),
        (["enumerate", "--a", "6", "--b", "6", "--max-cusps", "3", "--json"], 0),
        (["check", "--a", "6", "--b", "6", "--cusp", "6:11"], 0),
        (["check", "--a", "6", "--b", "6", "--cusp", "2:51"], 2),
        (["dinv", "--a", "6", "--b", "6", "--cusp", "6:11", "--all-m", "--json"], 0),
    ],
    ids=["import", "enumerate", "check-survivor", "check-obstructed", "dinv"],
)
def test_filter_commands_load_no_reference_code_and_no_fractions(argv, code):
    # Without a bytecode cache every imported module is compiled, so a fresh
    # `enumerate`, `check` (which writes its witnesses' x without a
    # `Fraction`) or `dinv` (which writes 4d times each correction term over
    # 4d) compiles no reference command and imports no fractions or decimal.
    assert _fresh_modules(argv, _REFERENCE_ONLY) == (code, [])


def test_annotations_resolve_without_the_reference_imports():
    # `get_type_hints` evaluates the string annotations in each module's
    # globals, so a name imported only inside a function (as `Fraction` is on
    # the filter paths) must not appear in them; on Python 3.10 it evaluates
    # each `X | None` too.  The CLI's own functions are checked as well.
    import cuspidal

    values = [*map(cuspidal.__getattr__, cuspidal.__all__), *vars(cli_module).values()]
    for value in values:
        if callable(value) and value.__module__.startswith("cuspidal."):
            typing.get_type_hints(value)


@pytest.mark.parametrize(
    "argv",
    [["spectrum", "--a", "6", "--b", "4", "--method", "both"], ["dedekind", "s", "1", "3"]],
    ids=["spectrum", "dedekind-s"],
)
def test_reference_commands_load_the_reference_module(argv):
    assert _fresh_modules(argv, _REFERENCE_ONLY) == (0, sorted(_REFERENCE_ONLY))


def test_module_entry_point_loads_the_cli_once():
    # A reference command imports `cuspidal.cli`, which the entry point has
    # registered as itself, so no import of it shows under -X importtime.
    argv = ["dedekind", "s", "1", "3"]
    result = _python("-X", "importtime", "-m", "cuspidal.cli", *argv, timeout=60)
    assert (result.returncode, result.stdout) == (0, "1/18\n")
    imported = [line.rsplit("|", 1)[-1].strip() for line in result.stderr.splitlines()]
    assert "cuspidal.reference" in imported
    assert "cuspidal.cli" not in imported


@pytest.mark.parametrize("unbuffered", ["", "1"])
def test_closed_stdout_exits_one_quietly(unbuffered):
    # The reader is gone before the first write, as in `cuspidal ... | head -0`.
    env = {**os.environ, "PYTHONPATH": _SRC, "PYTHONUNBUFFERED": unbuffered}
    code = "from cuspidal.cli import main; main(['dedekind', 's', '1', '3'])"
    pipe = subprocess.PIPE
    child = subprocess.Popen(
        [sys.executable, "-c", code], env=env, stdout=pipe, stderr=pipe
    )
    child.stdout.close()
    assert child.stderr.read() == b""
    assert child.wait(timeout=60) == 1


@pytest.mark.parametrize("unbuffered", ["", "1"])
def test_reader_that_leaves_mid_report_exits_one_quietly(unbuffered):
    # The report of (8,8,0) <= 3 is larger than a pipe buffer, so the writer
    # still has rows to write when the reader goes.
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    env.update(PYTHONPATH=_SRC, **({"PYTHONUNBUFFERED": "1"} if unbuffered else {}))
    argv = ["enumerate", "--a", "8", "--b", "8", "--max-cusps", "3", "--json"]
    code = f"from cuspidal.cli import main; main({argv!r})"
    pipe = subprocess.PIPE
    child = subprocess.Popen(
        [sys.executable, "-c", code], env=env, stdout=pipe, stderr=pipe
    )
    assert child.stdout.read(1024).startswith(b'{\n  "command": "enumerate"')
    child.stdout.close()
    assert child.stderr.read() == b""
    assert child.wait(timeout=120) == 1


def _ints(lo, hi):
    return st.integers(lo, hi).map(str)


def _option(name, values):
    return st.tuples(st.just(name), values)


def _command(name, *options):
    """`name` on a small curve, followed by some of its own options."""
    curve = st.tuples(st.just("--a"), _ints(-1, 6), st.just("--b"), _ints(0, 4))
    rest = st.lists(st.one_of(_option("--e", _ints(-1, 1)), *options), max_size=5)
    return st.tuples(curve, rest).map(
        lambda parts: [*name, *parts[0], *(t for pair in parts[1] for t in pair)]
    )


_FORMAT = st.tuples(st.sampled_from(["--json", "--csv"]))
_CUSP = _option(
    "--cusp",
    st.one_of(
        st.tuples(st.integers(1, 4), st.integers(2, 9)).map("{0[0]}:{0[1]}".format),
        st.sampled_from(["2x3", "2:3:4", "-2:3", "a:b", ""]),
    ),
)
_LIMITS = st.tuples(
    _option("--b", _ints(-1, 4)),
    _option("--max-w", st.sampled_from(["-1", "99", "100", "150"])),
    _option("--tol", st.sampled_from(["1/200", "0", "1/0", "x", "-1"])),
    st.sampled_from([(), ("--json",)]),
).map(lambda parts: ["dedekind", "limits", *(t for part in parts for t in part)])
_JUNK = st.sampled_from(
    ["check", "enumerate", "repro", "dedekind", "--a", "--cusp", "--help", "--x", "7"]
)

_ARGV = st.one_of(
    _command(
        ["check"],
        _CUSP,
        _FORMAT,
        _option("--only", st.sampled_from(["hf", "spectrum"])),
    ),
    _command(
        ["enumerate"],
        _FORMAT,
        _option("--max-cusps", _ints(-1, 3)),
        _option("--cap", st.sampled_from(["-1", "0", "2", "1000"])),
    ),
    _command(
        ["spectrum"],
        _FORMAT,
        _option("--method", st.sampled_from(["table", "derived", "both"])),
    ),
    _command(["dinv", "--all-m"], _CUSP, st.tuples(st.just("--json"))),
    _command(["dinv", "--m", "0"], _CUSP, _option("--m", _ints(-20, 20))),
    st.lists(_ints(-1, 6), min_size=2, max_size=2).map(lambda a: ["dedekind", "s", *a]),
    st.lists(_ints(-1, 6), min_size=3, max_size=3).map(lambda a: ["dedekind", "d", *a]),
    _LIMITS,
    st.lists(_JUNK, max_size=4),
)


@given(argv=_ARGV)
@settings(max_examples=300, deadline=None)
def test_cli_fuzz_exit_codes_and_no_traceback(argv):
    # In-process on small curves and moduli: every outcome is an exit code.
    stderr = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
    assert excinfo.value.code in (0, 1, 2, 3), (argv, stderr.getvalue())
    assert "Traceback" not in stderr.getvalue()


@given(argv=_ARGV)
@settings(max_examples=300, deadline=None)
def test_main_parses_as_the_group_parser(argv):
    # `main` parses only what follows the command words, with that command's
    # own parser; the group parser over the whole argv is the oracle.
    assert _outcome(main, argv) == _outcome(group_dispatch, argv)


def _gates():
    path = Path(__file__).resolve().parents[1] / ".github" / "gates.py"
    spec = importlib.util.spec_from_file_location("gates", path)
    gates = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gates)
    return gates


def test_ci_gate_table_is_well_formed():
    # A typo in a row of CI's table fails here, without running the row.
    gates = _gates()
    for gate in gates.GATES:
        assert gate.code in (0, 1, 2, 3), gate
        assert gate.tally == () or [type(n) for n in gate.tally] == [int] * 5, gate
        # Only the `--json` run checks the bound on peak memory.
        assert type(gate.rss_mb) is int and gate.rss_mb >= 0, gate
        assert gate.rss_mb == 0 or "json" in gate.runs, gate
        for fmt, digest in gate.runs.items():
            assert fmt in ("json", "txt", "csv"), gate
            assert digest is None or re.fullmatch("[0-9a-f]{64}", digest), gate
            argv = [*gate.argv.split(), *gates.FLAGS[fmt]]
            node, k = cli_module._COMMANDS, 0
            while isinstance(node, dict):
                node, k = node[argv[k]], k + 1
            parser, valued = cli_module._parser(tuple(argv[:k]))
            options = parser.parse_args(cli_module._joined(argv[k:], valued))
            assert getattr(options, "fmt", "text") == {"txt": "text"}.get(fmt, fmt), gate


def test_ci_gate_runner_runs_only_the_chosen_rows(capsys, monkeypatch):
    # As CI does, with no arguments, every row runs; `--only` picks rows and
    # runs them with the same checks.
    monkeypatch.setenv("PYTHONPATH", _SRC)
    gates = _gates()
    assert gates.main(["--only", "dedekind s "]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2 and lines[-1] == "1 runs, 0 failed"
    assert lines[0].startswith("ok ") and "cuspidal dedekind s " in lines[0]
    with pytest.raises(SystemExit):
        gates.main(["--only", "no such request"])


def test_ci_canonical_check_takes_only_the_canonical_bytes():
    # CI compares a report with its canonical form piece by piece: every
    # byte counts, the final newline included.
    canonical = _gates().canonical
    report = {"b": [{"m": 1, "v": "1/2"}, {"m": 2, "v": "é"}], "a": [], "c": {}}
    text = (json.dumps(report, sort_keys=True, indent=2) + "\n").encode()
    assert canonical(text, report)
    for other in (
        text[:-1],
        text + b"\n",
        text.replace(b'  "a"', b' "a"'),
        text.replace(b'"m": 1,\n      "v": "1/2"', b'"v": "1/2",\n      "m": 1'),
        json.dumps(report, sort_keys=True, indent=2, ensure_ascii=False).encode() + b"\n",
        b"",
    ):
        assert not canonical(other, report), other
