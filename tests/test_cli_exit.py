"""CLI exit code 3 for internal errors, and `python -m padicmat`."""

import json
import os
import subprocess
import sys

import pytest

from padicmat import cli
from padicmat.galois_rings import NonUnitError

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")
FULMAN = ["fulman", "--family", "gl", "--n", "2", "--p", "3"]


@pytest.mark.parametrize("exc", [
    NonUnitError("not a unit"),
    ZeroDivisionError("division by zero polynomial"),
    RuntimeError("rank profile not a multiple of deg phi"),
])
def test_internal_error_exits_3_with_json_record(monkeypatch, capsys, exc):
    def boom(cfg):
        raise exc

    monkeypatch.setattr(cli, "run_fulman_consistency", boom)
    assert cli.dispatch(FULMAN) == 3
    out, err = capsys.readouterr()
    record = json.loads(out.strip().splitlines()[-1])
    assert record == {"error": type(exc).__name__, "message": str(exc)}
    assert err.startswith("error: ")


def test_usage_errors_keep_exit_2(monkeypatch, capsys):
    def bad(cfg):
        raise ValueError("bad config")

    monkeypatch.setattr(cli, "run_fulman_consistency", bad)
    assert cli.dispatch(FULMAN) == 2
    out, err = capsys.readouterr()
    assert out == "" and "bad config" in err


def test_python_dash_m_runs_the_cli():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-m", "padicmat", "enumerate", "--family", "sl",
         "--n", "2", "--p", "3"],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.strip().splitlines()[-1])["order"] == 24
    assert '"order": 24' in proc.stdout


MC_FLAGS = ["--family", "gl", "--n", "2", "--p", "3", "--samples", "2",
            "--seed", "1"]


def test_image_check_refuses_levels_above_1(capsys):
    argv = ["image-check"] + MC_FLAGS + ["--k", "2"]
    assert cli.dispatch(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and "residue level" in err


@pytest.mark.parametrize("argv,named", [
    (["hayes", "--p", "3", "--l", "-1"], "window length l"),
    (["hayes", "--p", "3", "--l", "1", "--h-deg", "-2"], "degree t"),
])
def test_hayes_refuses_negative_degrees(argv, named, capsys):
    # a negative degree is refused by the name of its argument
    assert cli.dispatch(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and named in err and "nonnegative" in err


@pytest.mark.parametrize("argv", [
    ["tv", "--d", "1"] + MC_FLAGS,
    ["sample"] + MC_FLAGS,
    ["enumerate", "--family", "sl", "--n", "2", "--p", "3"],
    ["fulman", "--family", "gl", "--n", "2", "--p", "3"],
])
def test_sign_minus_1_outside_so_exits_2(argv, capsys):
    assert cli.dispatch(argv + ["--sign", "-1"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "only meaningful for so" in err


@pytest.mark.parametrize("argv", [
    ["onestep", "--family", "gl", "--n", "2", "--p", "3", "--k", "2",
     "--d", "1", "--mode", "exact"],
    FULMAN,
    ["enumerate", "--family", "sl", "--n", "2", "--p", "3"],
    ["hayes", "--p", "3", "--l", "1"],
])
def test_workers_refused_where_no_shards_run(argv, capsys):
    assert cli.dispatch(argv + ["--workers", "2"]) == 2
    assert "unrecognized arguments: --workers" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["sample"] + MC_FLAGS,
    ["tv", "--d", "1"] + MC_FLAGS,
    ["congruence"] + MC_FLAGS,
    ["single-trace", "--r", "1"] + MC_FLAGS,
    ["image-check"] + MC_FLAGS,
])
def test_workers_kept_on_monte_carlo_runs(argv, capsys):
    assert cli.dispatch(argv + ["--workers", "2"]) == 0


@pytest.mark.parametrize("argv", [
    ["tv", "--d", "1"],
    ["single-trace", "--r", "1"],
])
def test_exact_reports_carry_no_noise_or_verdict(argv, capsys):
    assert cli.dispatch(argv + ["--family", "gl", "--n", "2", "--p", "3",
                                "--k", "2", "--mode", "exact"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert "tv" in report
    assert "noise" not in report and "pass" not in report


def test_shared_parser_parses_each_call_afresh(tmp_path, capsys):
    # dispatch builds its parser once; each call must still start clean
    cfg = tmp_path / "run.cfg"
    cfg.write_text("family: sl\nn: 2\np: 3\n")
    assert cli.dispatch(["enumerate", "--config", str(cfg), "--n", "1"]) == 0
    assert json.loads(capsys.readouterr().out)["order"] == 1
    assert cli.dispatch(["sample"] + MC_FLAGS) == 0
    rows = json.loads(capsys.readouterr().out)["samples"]
    assert len(rows) == 2 and all(r.count(";") == 1 for r in rows)
    assert cli.dispatch(["enumerate", "--family", "sl", "--p", "3"]) == 2
    assert "--n" in capsys.readouterr().err
    assert cli.dispatch(["enumerate", "--family", "sl", "--n", "2",
                         "--p", "3"]) == 0
    assert json.loads(capsys.readouterr().out)["order"] == 24
    assert cli._parser() is cli._parser()
