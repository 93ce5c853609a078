"""padicmat benchmark driver.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (see BENCHMARK.json and bench/README.md) from the root
of a source checkout, importing padicmat from ./src.  The timed phase
repeats whole rounds of the workload's fixed job list for about S seconds;
every output is checked outside the timed region.  Progress goes to stderr;
the last stdout line is the JSON result.  With --trace 0 it reports the
end-to-end metrics; with --trace 1 it runs each round untraced and then
traced, reports the per-layer metrics and writes the spans to bench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import select
import statistics
import subprocess
import sys
import time
import traceback

import jobs

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
INIT = os.path.join(SRC, "padicmat", "__init__.py")
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 60


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def import_padicmat():
    """Import the package from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, SRC)
    import padicmat
    if os.path.realpath(padicmat.__file__) != os.path.realpath(INIT):
        raise SystemExit("bench: imported padicmat from %s" % padicmat.__file__)
    return padicmat


def set_up(workload):
    """Everything a CLI user pays before the first result: import, contexts,
    group specs and module caches, with one cold warm-up call per config."""
    pm = import_padicmat()
    job_list = jobs.WORKLOADS[workload](pm)
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    for job in job_list:
        job.warm()
    return pm, job_list


def measure_setup(workload):
    """Median wall time from spawning a fresh interpreter to setup done."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        with subprocess.Popen(
                [sys.executable, os.path.abspath(__file__), "--setup-only",
                 "--workload", workload], stdout=subprocess.PIPE,
                text=True) as child:
            try:
                ready, _, _ = select.select([child.stdout], [], [],
                                            SETUP_TIMEOUT_S)
                line = child.stdout.readline() if ready else ""
                t1 = time.perf_counter()
                child.stdout.read()
                rc = child.wait(timeout=SETUP_TIMEOUT_S)
            finally:
                if child.poll() is None:
                    child.kill()
                    child.wait()
        if rc != 0 or line.strip() != "ready":
            raise RuntimeError("setup child failed (exit %s)" % rc)
        times.append(t1 - t0)
    return statistics.median(times), times


class Tally:
    """Operations attempted and failed; a failed check also clears correct."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True


def run_round(workload, job_list, seed, rnd, tally, tracer=None):
    """One pass over the job list; returns each job's call time by label."""
    outputs = []
    times = {}
    for idx in jobs.round_order(workload, job_list, seed, rnd):
        job = job_list[idx]
        if tracer is not None:
            tracer.run_id += 1
        t0 = time.perf_counter()
        try:
            out, err = job.run(jobs.job_seed(seed, rnd, idx)), None
        except Exception:
            out, err = None, traceback.format_exc()
        times[job.label] = time.perf_counter() - t0
        outputs.append((job, out, err))
    for job, out, err in outputs:
        tally.attempted += 1
        if err is None:
            try:
                problems = job.check(out)
            except Exception:
                err = traceback.format_exc()
            else:
                if problems:
                    tally.correct = False
                    err = "; ".join(problems)
        if err is not None:
            tally.failed += 1
            log("FAILED %s: %s" % (job.label, err.strip()))
    return times


def another_round(spent, last, seconds):
    """Start a round only if that ends nearer to `seconds` than stopping."""
    return spent + last / 2 < seconds


def run_plain(workload, seed, seconds):
    setup_s, setup_all = measure_setup(workload)
    log("setup_s %.3f (runs %s)" % (setup_s, ", ".join("%.3f" % t for t in setup_all)))
    pm, job_list = set_up(workload)
    items = sum(job.items for job in job_list)
    tally = Tally()
    rounds = []
    times = []
    while not times or another_round(sum(times), times[-1], seconds):
        rounds.append(run_round(workload, job_list, seed, len(times), tally))
        times.append(sum(rounds[-1].values()))
        log("round %d: %.3f s" % (len(times), times[-1]))
    for job in job_list:
        log("job %-36s median %.4f s" % (
            job.label, statistics.median(r[job.label] for r in rounds)))
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {
        "setup_s": {"value": setup_s, "unit": "s"},
        "wall_s": {"value": statistics.median(times), "unit": "s"},
        "items_per_s": {"value": items * len(times) / sum(times),
                        "unit": "items/s"},
        "peak_rss_mib": {"value": rss_mib, "unit": "MiB"},
    }
    return tally, metrics


def run_traced(workload, seed, seconds):
    from tracer import Tracer
    pm, job_list = set_up(workload)
    tracer = Tracer(pm)
    tally = Tally()
    overheads = []
    spent = last = 0.0
    while not overheads or another_round(spent, last, seconds):
        rnd = len(overheads)
        plain = sum(run_round(workload, job_list, seed, rnd, tally).values())
        tracer.install()
        try:
            traced = sum(run_round(workload, job_list, seed, rnd, tally,
                                   tracer).values())
        finally:
            tracer.uninstall()
        overheads.append(traced - plain)
        last = plain + traced
        spent += last
        log("round %d: %.3f s untraced, %.3f s traced" % (rnd + 1, plain, traced))
    stem = os.path.join(HERE, "out", "trace-%s-seed%d" % (workload, seed))
    tracer.write(stem, len(overheads))
    log("spans written to %s.npz" % stem)
    return tally, tracer.per_layer(len(overheads), statistics.median(overheads))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(jobs.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="set up, print 'ready' and exit (times setup_s)")
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    if not os.path.isfile(INIT):
        log("bench: no padicmat sources at %s" % INIT)
        return 2
    if args.setup_only:
        set_up(args.workload)
        print("ready", flush=True)
        return 0
    if args.trace:
        tally, metrics = run_traced(args.workload, args.seed, args.seconds)
    else:
        tally, metrics = run_plain(args.workload, args.seed, args.seconds)
    print(json.dumps({"correct": tally.correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
