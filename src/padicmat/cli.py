"""Command-line entry point.

Exit codes: 0 on pass, 1 on a failed check, 2 on usage errors, 3 on an
internal error (an ArithmeticError such as NonUnitError, or a
RuntimeError), which also prints {"error": <type>, "message": <text>} on
stdout.  Every report embeds the resolved configuration so a run can be
reproduced from its own output.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .char_derivative import verify_image
from .experiments import (
    ExperimentConfig,
    SCHEMA_VERSION,
    _shard_rng,
    run_fulman_consistency,
    run_onestep_check,
    run_single_trace,
    run_trace_congruence,
    run_trace_equidistribution,
)
from .matrix_groups import (
    Matrix,
    encode_batch,
    enumerate_group,
    sample_haar_batch,
)
from .polynomials import HayesClassGroup, hayes_characters, monomial


def _worker_count(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be at least 1, not %d"
                                         % value)
    return value


def _common_flags(sub, samples=False, seed=False, trace_shape=False,
                  mode=False, workers=False):
    sub.add_argument("--family", required=True,
                     choices=["gl", "sl", "sp", "so", "u"])
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--p", type=int, required=True)
    sub.add_argument("--m", type=int, default=1)
    sub.add_argument("--k", type=int, default=1)
    sub.add_argument("--sign", type=int, default=1, choices=[1, -1],
                     help="so only: the type of the form")
    if workers:
        # the sharded Monte-Carlo runs (tv, single-trace, congruence) put
        # their whole-shard groups on a pool of up to N processes when there
        # is more than one group; sample and image-check read one stream
        sub.add_argument("--workers", type=_worker_count, default=1,
                         metavar="N",
                         help="at most N processes; one-stream runs "
                              "(sample, image-check) and exact mode use one")
    sub.add_argument("--out", help="write the JSON report to this path")
    sub.add_argument("--config", help="key:value file; flags win")
    if mode:
        sub.add_argument("--mode", choices=["montecarlo", "exact"],
                         default="montecarlo")
    if samples:
        sub.add_argument("--samples", type=int, default=1000)
    if seed:
        sub.add_argument("--seed", type=int)
    if trace_shape:
        sub.add_argument("--d", type=int)
        sub.add_argument("--d1", type=int, default=0)
        sub.add_argument("--d2", type=int, default=0)


def build_parser():
    ap = argparse.ArgumentParser(prog="padicmat")
    subs = ap.add_subparsers(dest="cmd", required=True)

    s = subs.add_parser("sample", help="emit Haar samples")
    _common_flags(s, samples=True, seed=True, workers=True)

    s = subs.add_parser("tv", help="trace-datum equidistribution TV")
    _common_flags(s, samples=True, seed=True, trace_shape=True, mode=True,
                  workers=True)

    s = subs.add_parser("onestep", help="one-step conditional check")
    _common_flags(s, samples=True, seed=True, trace_shape=True, mode=True)

    s = subs.add_parser("congruence", help="trace congruence violations")
    _common_flags(s, samples=True, seed=True, workers=True)
    s.add_argument("--i-max", type=int)

    s = subs.add_parser("single-trace", help="TV of a single power trace")
    _common_flags(s, samples=True, seed=True, mode=True, workers=True)
    s.add_argument("--r", type=int, required=True)

    s = subs.add_parser("fulman", help="class probabilities vs enumeration")
    _common_flags(s)

    s = subs.add_parser("image-check", help="image theorem on samples")
    _common_flags(s, samples=True, seed=True, workers=True)

    s = subs.add_parser("hayes", help="Hayes class-group summary")
    s.add_argument("--p", type=int, required=True)
    s.add_argument("--m", type=int, default=1)
    s.add_argument("--l", type=int, required=True)
    s.add_argument("--h-deg", type=int, default=1,
                   help="modulus H = x^h_deg")
    s.add_argument("--out")
    s.add_argument("--config")

    s = subs.add_parser("enumerate", help="enumerate a small group")
    _common_flags(s)
    return ap


@functools.lru_cache(maxsize=None)
def _parser():
    """build_parser(), built once per process: parse_args leaves the parser
    as it was, so every dispatch can share it."""
    return build_parser()


def _apply_config_file(argv):
    """Expand --config FILE into leading flags so real flags win."""
    if "--config" not in argv:
        return argv
    i = argv.index("--config")
    path = argv[i + 1]
    extra = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, _, val = line.partition(":")
            extra += ["--" + key.strip().replace("_", "-"), val.strip()]
    # insert defaults right after the subcommand; later flags override
    return argv[:1] + extra + argv[1:]


def _experiment_config(args, trace_shape=False, mode=None):
    if args.sign == -1 and args.family != "so":
        raise ValueError("--sign -1 is only meaningful for so")
    d1 = getattr(args, "d1", 0)
    d2 = getattr(args, "d2", 0)
    if trace_shape and getattr(args, "d", None) is not None:
        d1, d2 = 0, args.d
    # the symplectic flag follows the usual Sp_{2n} convention
    size = 2 * args.n if args.family == "sp" else args.n
    return ExperimentConfig(
        args.family, size, args.p, m=args.m, k=args.k, sign=args.sign,
        d1=d1, d2=d2, samples=getattr(args, "samples", 0),
        seed=getattr(args, "seed", None),
        mode=mode or getattr(args, "mode", "montecarlo"),
        i_max=getattr(args, "i_max", None))


def _emit(args, report):
    text = json.dumps(report, indent=2, default=str) + "\n"
    bulk = ("config", "results")
    if getattr(args, "out", None):
        with open(args.out, "w") as fh:
            fh.write(text)
        bulk += ("samples",)  # without --out, stdout is where they go
    summary = {k: v for k, v in report.items() if k not in bulk}
    print(json.dumps(summary, default=str))
    return 0 if report.get("pass", True) else 1


def dispatch(argv):
    try:
        argv = _apply_config_file(list(argv))
        args = _parser().parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0

    try:
        if args.cmd == "sample":
            cfg = _experiment_config(args)
            spec = cfg.group_spec()
            rng = _shard_rng(cfg.seed, 0)
            rows = encode_batch(sample_haar_batch(spec, rng, cfg.samples))
            report = {"schema_version": SCHEMA_VERSION,
                      "config": cfg.to_dict(), "samples": rows,
                      "pass": True}
            return _emit(args, report)

        if args.cmd == "tv":
            cfg = _experiment_config(args, trace_shape=True)
            rep = run_trace_equidistribution(cfg, args.workers)
            return _emit(args, rep.to_dict())

        if args.cmd == "onestep":
            cfg = _experiment_config(args, trace_shape=True)
            return _emit(args, run_onestep_check(cfg))

        if args.cmd == "congruence":
            cfg = _experiment_config(args)
            return _emit(args, run_trace_congruence(cfg, args.workers))

        if args.cmd == "single-trace":
            cfg = _experiment_config(args)
            rep = run_single_trace(cfg, args.r, args.workers)
            return _emit(args, rep.to_dict())

        if args.cmd == "fulman":
            cfg = _experiment_config(args, mode="exact")
            return _emit(args, run_fulman_consistency(cfg))

        if args.cmd == "image-check":
            cfg = _experiment_config(args)
            if cfg.k != 1:
                raise ValueError("the image check runs at the residue "
                                 "level: use --k 1")
            spec = cfg.group_spec()
            rng = _shard_rng(cfg.seed, 0)
            fails = []
            for a in sample_haar_batch(spec, rng, cfg.samples):
                ok, rep = verify_image(Matrix(spec.ctx, a), spec)
                if not ok:
                    fails.append(rep)
            report = {"schema_version": SCHEMA_VERSION,
                      "config": cfg.to_dict(), "checked": cfg.samples,
                      "failures": fails, "pass": not fails}
            return _emit(args, report)

        if args.cmd == "hayes":
            from .galois_rings import RingContext
            ctx = RingContext(args.p, args.m, 1)
            H = monomial(ctx, args.h_deg)
            group = HayesClassGroup(ctx, args.l, H)
            chars = hayes_characters(ctx, args.l, H)
            report = {"schema_version": SCHEMA_VERSION,
                      "p": args.p, "m": args.m, "l": args.l,
                      "h_deg": args.h_deg, "order": group.order,
                      "characters": len(chars), "pass": True}
            return _emit(args, report)

        if args.cmd == "enumerate":
            cfg = _experiment_config(args, mode="exact")
            group = enumerate_group(cfg.group_spec())
            report = {"schema_version": SCHEMA_VERSION,
                      "config": cfg.to_dict(), "order": len(group),
                      "pass": True}
            return _emit(args, report)
    except (ValueError, OSError) as e:
        print("error: %s" % e, file=sys.stderr)
        return 2
    except (ArithmeticError, RuntimeError) as e:
        print(json.dumps({"error": type(e).__name__, "message": str(e)}))
        print("error: %s: %s" % (type(e).__name__, e), file=sys.stderr)
        return 3
    return 2


def main():
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
