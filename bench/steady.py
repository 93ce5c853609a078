"""Steadiness check: repeat workloads and print the spread of each metric.

    python3 bench/steady.py [--workloads haar_gl,exact_enum] [--runs 10]
                            [--seed0 1] [--seconds S]

Runs bench/run.py once per (workload, seed) for seeds seed0 .. seed0+runs-1,
one process at a time, and prints for every end-to-end metric the median,
the quartiles (statistics.quantiles, n=4) and the quartile distance as a
share of the median, next to the metric's bound from BENCHMARK.json.  A
spread above a third of its bound is flagged (setup_s is not bounded by
spread, only by the shift of its median).  The per-run results go to
bench/out/steady-<workload>.json and each run's stderr (round and per-job
times) to bench/out/steady-<workload>-seed<n>.log.  Progress goes to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 900


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    log = os.path.join(HERE, "out", "steady-%s-seed%d.log" % (workload, seed))
    with open(log, "w") as err:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=err, text=True, timeout=RUN_TIMEOUT_S,
                              check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = ap.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    steady = True
    for workload in args.workloads.split(","):
        results = []
        for seed in range(args.seed0, args.seed0 + args.runs):
            res = run_once(workload, seed, args.seconds)
            results.append(res)
            print("%s seed %d: %s" % (workload, seed, json.dumps(res)),
                  file=sys.stderr, flush=True)
        with open(os.path.join(HERE, "out", "steady-%s.json" % workload),
                  "w") as fh:
            json.dump(results, fh, indent=1)
        shares = {(r["failed"], r["attempted"]) for r in results}
        print("%s: %d runs, correct %s, failed/attempted %s"
              % (workload, len(results), all(r["correct"] for r in results),
                 sorted(shares)))
        for name, bound in bounds.items():
            med, q1, q3, share = spread(
                [r["metrics"][name]["value"] for r in results])
            flag = ""
            if name != "setup_s" and share > bound / 3:
                flag = "  <-- above bound/3"
                steady = False
            print("  %-13s median %12.5g  q1 %12.5g  q3 %12.5g  "
                  "spread %6.2f%%  bound %5.1f%%%s"
                  % (name, med, q1, q3, 100 * share, 100 * bound, flag))
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
