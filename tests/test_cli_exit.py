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
