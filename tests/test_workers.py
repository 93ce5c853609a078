"""`--workers`: the sharded Monte-Carlo runs on a process pool.

tv, single-trace and congruence run their whole-shard groups through one
task (`experiments._group_task`); with more than one worker and more than
one group the tasks run on a pool of spawned processes, and the results are
merged in group order.  The reports must not depend on the worker count.
"""

import concurrent.futures
import json
import multiprocessing
import os
import re
import subprocess
import sys

import pytest

from padicmat import cli, experiments
from padicmat.galois_rings import NonUnitError

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")


def _flags(family, n, p=3, m=1, k=2, samples=1900, sign=None):
    flags = ["--family", family, "--n", str(n), "--p", str(p), "--m", str(m),
             "--k", str(k), "--samples", str(samples), "--seed", "7"]
    return flags + (["--sign", str(sign)] if sign else [])


# each run splits into two or more whole-shard groups, so that a pool runs it
RUNS = {
    "tv-gl4-d2": ["tv", "--d", "2"] + _flags("gl", 4, samples=2000),
    "tv-gl4-d1-1": ["tv", "--d1", "1", "--d2", "1"]
    + _flags("gl", 4, samples=2000),
    "tv-u2-m2-d3": ["tv", "--d", "3"] + _flags("u", 2, m=2, samples=2100),
    "tv-sl3-d2": ["tv", "--d", "2"] + _flags("sl", 3),
    "tv-sp4-d2": ["tv", "--d", "2"] + _flags("sp", 2, samples=1100),
    "tv-so3+-d1": ["tv", "--d", "1"] + _flags("so", 3, sign=1),
    "tv-so3--d1": ["tv", "--d", "1"] + _flags("so", 3, sign=-1),
    "single-gl3-r2": ["single-trace", "--r", "2"] + _flags("gl", 3),
    "single-gl3-r-1": ["single-trace", "--r", "-1"] + _flags("gl", 3),
    "single-sl3-r-2": ["single-trace", "--r", "-2"] + _flags("sl", 3),
    "single-u2-r1": ["single-trace", "--r", "1"]
    + _flags("u", 2, m=2, samples=2100),
    "congruence-gl3": ["congruence"] + _flags("gl", 3, k=3),
    "congruence-sp4": ["congruence"] + _flags("sp", 2, samples=1100),
    "congruence-so3-": ["congruence"] + _flags("so", 3, sign=-1),
    "congruence-u2": ["congruence"] + _flags("u", 2, m=2, samples=2100),
}


def _report(argv, path):
    """The --out report of argv, with the run time taken out."""
    assert cli.dispatch(argv + ["--out", str(path)]) == 0
    return re.sub(r'"runtime_ms": \d+', '"runtime_ms": -',
                  path.read_text())


@pytest.fixture(scope="module")
def reports(tmp_path_factory):
    """Every run's report at --workers 1, 2 and 3, one worker count at a
    time so that each pool is built once; the pool is shut down after."""
    out = tmp_path_factory.mktemp("reports") / "report.json"
    texts = {}
    try:
        for workers in ("1", "2", "3"):
            for name, argv in RUNS.items():
                texts[name, workers] = _report(
                    argv + ["--workers", workers], out)
            if workers != "1":
                assert experiments._POOL[0] == int(workers)
    finally:
        _shut_down_pool()
    return texts


def _shut_down_pool():
    if experiments._POOL is not None:
        experiments._POOL[1].shutdown()
        experiments._POOL = None


@pytest.mark.parametrize("name", sorted(RUNS))
def test_reports_do_not_depend_on_the_worker_count(reports, name):
    cfg = cli._experiment_config(cli._parser().parse_args(RUNS[name]),
                                 trace_shape=RUNS[name][0] == "tv")
    assert len(experiments._shard_groups(cfg)) > 1
    assert reports[name, "1"] == reports[name, "2"] == reports[name, "3"]


@pytest.fixture
def no_pool(monkeypatch):
    """No pool yet, and any pool built during the test is shut down."""
    monkeypatch.setattr(experiments, "_POOL", None)
    yield
    _shut_down_pool()


class _Refused:
    def __init__(self, *args, **kwargs):
        raise AssertionError("a one-group run built a pool")


def test_a_one_group_run_builds_no_pool(monkeypatch, no_pool, tmp_path):
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _Refused)
    argv = ["tv", "--d", "2"] + _flags("gl", 4, samples=1000)
    cfg = cli._experiment_config(cli._parser().parse_args(argv),
                                 trace_shape=True)
    assert len(experiments._shard_groups(cfg)) == 1
    _report(argv + ["--workers", "2"], tmp_path / "r.json")
    assert experiments._POOL is None


class _Recorded:
    """An executor that records its size and runs every task in process."""
    sizes = []

    def __init__(self, max_workers, mp_context=None):
        self.sizes.append(max_workers)

    def map(self, fn, *iterables):
        return map(fn, *iterables)

    def shutdown(self, wait=True):
        pass


def test_a_huge_worker_count_gives_at_most_16_workers(monkeypatch, no_pool,
                                                      tmp_path):
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        _Recorded)
    monkeypatch.setattr(_Recorded, "sizes", [])
    argv = RUNS["tv-gl4-d2"]
    alone = _report(argv + ["--workers", "1"], tmp_path / "r.json")
    assert _Recorded.sizes == []
    pooled = _report(argv + ["--workers", str(10 ** 6)], tmp_path / "r.json")
    assert _Recorded.sizes == [experiments.N_SHARDS] == [16]
    assert pooled == alone


@pytest.mark.parametrize("workers", ["0", "-3", "two"])
def test_worker_counts_below_1_are_usage_errors(capsys, workers):
    assert cli.dispatch(RUNS["tv-gl4-d2"] + ["--workers", workers]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage:") and "--workers" in err


def test_the_help_states_the_process_rule(monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "200")  # no line breaks inside the words
    assert cli.dispatch(["tv", "--help"]) == 0
    text = " ".join(capsys.readouterr().out.split())
    assert ("at most N processes; one-stream runs (sample, image-check) "
            "and exact mode use one") in text


def test_the_cli_exits_after_a_pooled_run():
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run(
        [sys.executable, "-m", "padicmat"] + RUNS["tv-gl4-d2"]
        + ["--workers", "2"], env=env, capture_output=True, text=True,
        timeout=120)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["N"] == 2000


def _unit_error_in_worker(ctx, a, *args):
    where = "a worker" if multiprocessing.parent_process() else "process"
    raise NonUnitError("raised in %s" % where)


def _worker_dies(ctx, a, *args):
    if multiprocessing.parent_process():
        os._exit(1)
    return experiments._datum_cells(ctx, a, *args)


def test_a_task_error_keeps_its_exit_code(monkeypatch, no_pool, capsys):
    monkeypatch.setattr(experiments, "_datum_cells", _unit_error_in_worker)
    assert cli.dispatch(RUNS["tv-gl4-d2"] + ["--workers", "2"]) == 3
    record = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert record == {"error": "NonUnitError",
                      "message": "raised in a worker"}


def test_a_dead_worker_exits_3_and_the_next_run_gets_a_new_pool(
        monkeypatch, no_pool, capsys, tmp_path):
    real = experiments._datum_cells
    monkeypatch.setattr(experiments, "_datum_cells", _worker_dies)
    assert cli.dispatch(RUNS["tv-gl4-d2"] + ["--workers", "2"]) == 3
    record = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert record["error"] == "BrokenProcessPool"
    assert experiments._POOL is None
    monkeypatch.setattr(experiments, "_datum_cells", real)
    argv = RUNS["tv-gl4-d2"]
    assert (_report(argv + ["--workers", "2"], tmp_path / "r.json")
            == _report(argv + ["--workers", "1"], tmp_path / "r.json"))
