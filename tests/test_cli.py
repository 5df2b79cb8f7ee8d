import contextlib
import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from cuspidal import SpectrumMultiset
from cuspidal import cli as cli_module
from cuspidal.cli import main


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


def test_check_only_filters():
    code, output = run(
        ["check", "--a", "6", "--b", "6", "--cusp", "2:51", "--only", "hf"]
    )
    assert code == 0  # hf alone does not obstruct this cusp
    code, output = run(
        ["check", "--a", "6", "--b", "6", "--cusp", "2:51", "--only", "spectrum"]
    )
    assert code == 2


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


def test_enumerate_cap_from_environment(monkeypatch):
    monkeypatch.setenv("CUSPIDAL_CANDIDATE_CAP", "1")
    code, output = run(["enumerate", "--a", "6", "--b", "6", "--max-cusps", "2"])
    assert code == 1
    # explicit --cap overrides the environment
    code, output = run(
        ["enumerate", "--a", "6", "--b", "6", "--max-cusps", "2", "--cap", "100"]
    )
    assert code == 0


@pytest.mark.parametrize("value", ["abc", "", "1.5"])
def test_enumerate_non_integer_cap_from_environment(value, capsys, monkeypatch):
    monkeypatch.setenv("CUSPIDAL_CANDIDATE_CAP", value)
    with pytest.raises(SystemExit) as excinfo:
        main(["enumerate", "--a", "3", "--b", "3"])
    assert excinfo.value.code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: CUSPIDAL_CANDIDATE_CAP must be an integer")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv, env",
    [(["--cap", "-1"], None), ([], "-1"), (["--cap", "-5"], "10")],
)
def test_enumerate_negative_cap_rejected(argv, env, capsys, monkeypatch):
    if env is None:
        monkeypatch.delenv("CUSPIDAL_CANDIDATE_CAP", raising=False)
    else:
        monkeypatch.setenv("CUSPIDAL_CANDIDATE_CAP", env)
    with pytest.raises(SystemExit) as excinfo:
        main(["enumerate", "--a", "3", "--b", "3", *argv])
    assert excinfo.value.code == 1
    assert capsys.readouterr().err == "error: candidate cap must be >= 0, got " + (
        argv[1] if argv else env
    ) + "\n"


def test_enumerate_deep_configurations_hit_the_cap(capsys):
    # g = 1199: the first configuration is 1199 cusps (2,3), deeper than
    # Python's recursion limit.
    with pytest.raises(SystemExit) as excinfo:
        main(["enumerate", "--a", "2", "--b", "1200", "--max-cusps", "1200", "--cap", "5"])
    assert excinfo.value.code == 1
    captured = capsys.readouterr()
    assert captured.err == "error: more than 5 genus-compatible configurations\n"
    assert "Traceback" not in captured.out + captured.err


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


@pytest.mark.parametrize("shift, derived_mult", [(1, 2), (-1, 0)])
def test_spectrum_mismatch_exits_three(shift, derived_mult, capsys, monkeypatch):
    # Shift the derived multiplicity of 1/4 (1 in both constructions of
    # (6, 4, 0)); a shift to 0 leaves 1/4 in the table only.
    derived = cli_module.spectrum_at_infinity_derived

    def shifted(curve):
        spectrum = derived(curve)
        entries = dict(spectrum.numerator_entries())
        entries[spectrum.denominator // 4] += shift
        return SpectrumMultiset(entries, spectrum.denominator)

    monkeypatch.setattr(cli_module, "spectrum_at_infinity_derived", shifted)
    with pytest.raises(SystemExit) as excinfo:
        main(["spectrum", "--a", "6", "--b", "4", "--method", "both", "--json"])
    assert excinfo.value.code == 3
    out, err = capsys.readouterr()
    assert json.loads(out)["results"]["methods_agree"] is False
    assert err == (
        "mismatch between table and derived constructions:\n"
        f"  1/4: table 1 != derived {derived_mult}\n"
    )


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


def test_dinv_requires_exactly_one_mode():
    code, output = run(["dinv", "--a", "1", "--b", "1"])
    assert code == 1
    code, output = run(["dinv", "--a", "1", "--b", "1", "--m", "0", "--all-m"])
    assert code == 1


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


@pytest.mark.parametrize(
    "command",
    [[], ["check"], ["enumerate"], ["spectrum"], ["dinv"], ["repro"], ["dedekind"]]
    + [["dedekind", name] for name in ("s", "d", "limits")],
    ids=lambda command: " ".join(["cuspidal", *command]),
)
def test_help_exits_zero(command, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main([*command, "--help"])
    assert excinfo.value.code == 0
    assert capsys.readouterr().out.startswith(" ".join(["usage: cuspidal", *command]))


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


def test_dedekind_sum_of_a_negative_numerator():
    # A negative p is a value, not an option; s(-1, 3) = s(2, 3) as p is
    # reduced mod q.
    assert run(["dedekind", "s", "-1", "3"]) == (0, "-1/18\n")
    d = ["dedekind", "d"]
    assert run([*d, "-1", "3", "7"]) == run([*d, "6", "3", "7"])


def test_cli_imports_neither_click_nor_dataclasses():
    # A fresh `import cuspidal.cli` pays for no third-party parser and for no
    # dataclasses (which imports inspect).  -S keeps site-packages' own
    # start-up imports out of the module set.
    src = Path(cli_module.__file__).resolve().parents[1]
    code = (
        "import sys, cuspidal.cli; "
        "print(sorted({'click', 'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    result = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        check=True,
    )
    assert result.stdout == "[]\n"


@pytest.mark.parametrize("unbuffered", ["", "1"])
def test_closed_stdout_exits_one_quietly(unbuffered):
    # The reader is gone before the first write, as in `cuspidal ... | head -0`.
    src = Path(cli_module.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONUNBUFFERED": unbuffered}
    code = "from cuspidal.cli import main; main(['dedekind', 's', '1', '3'])"
    pipe = subprocess.PIPE
    child = subprocess.Popen(
        [sys.executable, "-c", code], env=env, stdout=pipe, stderr=pipe
    )
    child.stdout.close()
    assert child.stderr.read() == b""
    assert child.wait(timeout=60) == 1


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


@given(
    argv=_ARGV,
    cap=st.sampled_from([None, "", "abc", "1.5", "-1", "0", "3", "500"]),
)
@settings(max_examples=300, deadline=None)
def test_cli_fuzz_exit_codes_and_no_traceback(argv, cap):
    # In-process on small curves and moduli: every outcome is an exit code.
    stderr = io.StringIO()
    with mock.patch.dict(os.environ), contextlib.redirect_stdout(
        io.StringIO()
    ), contextlib.redirect_stderr(stderr):
        os.environ.pop("CUSPIDAL_CANDIDATE_CAP", None)
        if cap is not None:
            os.environ["CUSPIDAL_CANDIDATE_CAP"] = cap
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
    assert excinfo.value.code in (0, 1, 2, 3), (argv, cap, stderr.getvalue())
    assert "Traceback" not in stderr.getvalue()
