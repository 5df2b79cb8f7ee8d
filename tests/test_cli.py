import csv
import io
import json

import pytest
from click.testing import CliRunner

from cuspidal.cli import cli, main


@pytest.fixture
def runner():
    return CliRunner()


def test_check_survivor_exits_zero(runner):
    result = runner.invoke(cli, ["check", "--a", "6", "--b", "6", "--cusp", "6:11"])
    assert result.exit_code == 0
    assert "survives" in result.output


def test_check_obstructed_exits_two(runner):
    result = runner.invoke(cli, ["check", "--a", "6", "--b", "6", "--cusp", "2:51"])
    assert result.exit_code == 2
    assert "obstructed" in result.output
    assert "spectrum witness" in result.output


def test_check_hf_witness_rendering(runner):
    result = runner.invoke(
        cli, ["check", "--a", "4", "--b", "4", "--e", "2", "--cusp", "3:22"]
    )
    assert result.exit_code == 2
    assert "hf witness: m=0 (m+g=21)" in result.output
    assert "R=7 < P=8" in result.output


def test_check_genus_mismatch_exits_one(runner):
    result = runner.invoke(cli, ["check", "--a", "6", "--b", "6", "--cusp", "2:3"])
    assert result.exit_code == 1
    assert "genus mismatch" in result.output


def test_check_bad_cusp_syntax(runner):
    result = runner.invoke(cli, ["check", "--a", "6", "--b", "6", "--cusp", "2x51"])
    assert result.exit_code == 1


def test_check_json_report(runner):
    result = runner.invoke(
        cli, ["check", "--a", "6", "--b", "6", "--cusp", "2:51", "--json"]
    )
    assert result.exit_code == 2
    report = json.loads(result.output)
    assert report["schema_version"] == "1"
    assert report["command"] == "check"
    assert report["inputs"]["cusps"] == ["2:51"]
    assert report["results"]["verdict"] == "obstructed"
    assert report["results"]["hf"] == "passes"
    assert report["results"]["spectrum"] == "obstructed"
    xs = [w["x"] for w in report["witnesses"]]
    assert "25/51" in xs  # rationals serialize as num/den


def test_check_csv_projection(runner):
    result = runner.invoke(
        cli, ["check", "--a", "6", "--b", "6", "--cusp", "2:51", "--csv"]
    )
    assert result.exit_code == 2
    rows = list(csv.DictReader(io.StringIO(result.output)))
    assert len(rows) == 6
    assert rows[0]["check"] == "spectrum"
    assert {"x", "cusp_inside", "infinity_inside"} <= set(rows[0])


def test_check_only_filters(runner):
    result = runner.invoke(
        cli, ["check", "--a", "6", "--b", "6", "--cusp", "2:51", "--only", "hf"]
    )
    assert result.exit_code == 0  # hf alone does not obstruct this cusp
    result = runner.invoke(
        cli,
        ["check", "--a", "6", "--b", "6", "--cusp", "2:51", "--only", "spectrum"],
    )
    assert result.exit_code == 2


def test_enumerate_human_output(runner):
    result = runner.invoke(cli, ["enumerate", "--a", "6", "--b", "6"])
    assert result.exit_code == 0
    assert "3 genus-compatible configuration(s)" in result.output
    assert "[2:51]" in result.output and "obstructed" in result.output
    assert "[6:11]" in result.output and "survives" in result.output


def test_enumerate_json(runner):
    result = runner.invoke(cli, ["enumerate", "--a", "6", "--b", "6", "--json"])
    report = json.loads(result.output)
    assert report["results"]["count"] == 3
    survivors = [w["cusps"] for w in report["witnesses"] if w["survives"]]
    assert survivors == ["3:26", "6:11"]


def test_enumerate_cap_from_environment(runner, monkeypatch):
    monkeypatch.setenv("CUSPIDAL_CANDIDATE_CAP", "1")
    result = runner.invoke(cli, ["enumerate", "--a", "6", "--b", "6", "--max-cusps", "2"])
    assert result.exit_code == 1
    # explicit --cap overrides the environment
    result = runner.invoke(
        cli, ["enumerate", "--a", "6", "--b", "6", "--max-cusps", "2", "--cap", "100"]
    )
    assert result.exit_code == 0


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


def test_enumerate_genus_zero_empty_table(runner):
    result = runner.invoke(cli, ["enumerate", "--a", "1", "--b", "1"])
    assert result.exit_code == 0
    assert "0 genus-compatible configuration(s)" in result.output


def test_spectrum_table_output(runner):
    result = runner.invoke(cli, ["spectrum", "--a", "6", "--b", "6"])
    assert result.exit_code == 0
    lines = result.output.strip().splitlines()
    assert lines[0] == "1/6 1"
    assert "1/1 11" in lines


def test_spectrum_both_methods_agree(runner):
    result = runner.invoke(cli, ["spectrum", "--a", "6", "--b", "4", "--method", "both"])
    assert result.exit_code == 0
    assert "methods agree: True" in result.output


def test_spectrum_csv(runner):
    result = runner.invoke(cli, ["spectrum", "--a", "6", "--b", "4", "--csv"])
    rows = list(csv.DictReader(io.StringIO(result.output)))
    assert rows[0]["value"] == "1/4"
    assert sum(int(row["multiplicity"]) for row in rows) == 39


def test_dedekind_commands(runner):
    result = runner.invoke(cli, ["dedekind", "s", "1", "3"])
    assert result.output.strip() == "1/18"
    result = runner.invoke(cli, ["dedekind", "d", "1", "3", "7"])
    assert result.output.strip() == "-1/14"
    result = runner.invoke(cli, ["dedekind", "s", "1", "0"])
    assert result.exit_code == 1


def test_dedekind_limits(runner):
    result = runner.invoke(
        cli, ["dedekind", "limits", "--b", "3", "--max-w", "2000"]
    )
    assert result.exit_code == 0
    assert "[ok]" in result.output
    result = runner.invoke(
        cli,
        ["dedekind", "limits", "--b", "3", "--max-w", "2000", "--json"],
    )
    report = json.loads(result.output)
    assert report["results"]["all_within_tol"] is True


def test_dinv_single_and_all(runner):
    result = runner.invoke(cli, ["dinv", "--a", "1", "--b", "1", "--m", "0"])
    assert result.output.strip() == "m=0: -1/4"
    result = runner.invoke(
        cli,
        ["dinv", "--a", "6", "--b", "6", "--cusp", "6:11", "--all-m", "--json"],
    )
    report = json.loads(result.output)
    values = {row["m"]: row["d_invariant"] for row in report["results"]["values"]}
    assert len(values) == 72
    assert values[25] == "-103/72"


def test_dinv_requires_exactly_one_mode(runner):
    result = runner.invoke(cli, ["dinv", "--a", "1", "--b", "1"])
    assert result.exit_code == 1
    result = runner.invoke(
        cli, ["dinv", "--a", "1", "--b", "1", "--m", "0", "--all-m"]
    )
    assert result.exit_code == 1


def test_repro_matches_golden_files(runner):
    result = runner.invoke(cli, ["repro"])
    assert result.exit_code == 0
    assert "MISMATCH" not in result.output
    assert result.output.count(": ok") == 7


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
