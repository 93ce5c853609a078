"""The three workloads: fixed job lists, their warm-ups and their checks.

A job is one operation of a round.  `run(seed)` is the timed call into
padicmat (through `padicmat.cli.dispatch` where a subcommand exists, the
public library functions otherwise); `check(output)` compares what it
returned with the plain-int computations in `reference` and returns a list
of problems, empty when the output is right.  `warm()` is the cold call
that builds the config's ring contexts, group specs and module caches.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random

import reference as ref

OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")

# exact TV of tr(M^4) over GL_5(F_3), carried to GR(27) by the level
# recursion (the decisions behind acceptance criterion 11b)
GL5_TR4_EXACT_TV = 0.027314


class Job:
    def __init__(self, label, items, run, check, warm):
        self.label = label
        self.items = items
        self.run = run
        self.check = check
        self.warm = warm


def _dispatch(pm, argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = pm.cli.dispatch(argv)
    return rc, buf.getvalue()


def _summary(output):
    """The CLI's exit code must be 0 and its last stdout line a JSON object."""
    rc, text = output
    lines = text.strip().splitlines()
    if rc != 0 or not lines:
        raise RuntimeError("exit code %s, output %r" % (rc, text[-200:]))
    return json.loads(lines[-1])


def _flags(family, n, p, m=1, k=1):
    return ["--family", family, "--n", str(n), "--p", str(p), "--m", str(m),
            "--k", str(k)]


def _mc_job(pm, label, cmd, flags, samples, check, extra=()):
    """A Monte-Carlo CLI job; the worker pool flag is passed as a user would."""
    base = [cmd] + flags + list(extra) + ["--workers", "2"]

    def run(seed):
        return _dispatch(pm, base + ["--samples", str(samples),
                                     "--seed", str(seed)])

    def warm():
        _summary(_dispatch(pm, base + ["--samples", "1", "--seed", "0"]))

    return Job(label, samples, run, lambda out: check(_summary(out)), warm)


# ---------------------------------------------------------------------------
# Monte-Carlo checks


def _check_tv_mc(cells, samples, exact_tv=0.0):
    def check(s):
        bad = []
        if s["N"] != samples or s["cell_count"] != cells:
            bad.append("N %s / cells %s, want %d / %d"
                       % (s["N"], s["cell_count"], samples, cells))
        occupied = s.get("occupied_cells", cells)
        if not (1 <= s["min_count"] <= s["max_count"] <= samples
                and occupied <= cells
                and s["min_count"] * occupied <= samples
                <= s["max_count"] * occupied):
            bad.append("histogram counts cannot sum to N: %s" % s)
        limit = ref.tv_noise_bound(cells, samples) + 5e-7
        if abs(s["tv"] - exact_tv) > limit:
            bad.append("tv %.5f is %.5f from %.6f, noise bound %.5f"
                       % (s["tv"], abs(s["tv"] - exact_tv), exact_tv, limit))
        return bad
    return check


def _check_samples(family, n, p, m, k, samples, poly=None):
    """GL: det a unit mod p; Sp/SO: M^t J M = J (SO: det 1); U: M M* = I."""
    mod = p ** k

    def check(s):
        rows = s["samples"]
        if len(rows) != samples:
            return ["%d samples, want %d" % (len(rows), samples)]
        bad = []
        hist = {}
        for text in rows:
            M = ref.parse_matrix(text, m)
            if len(M) != n:
                bad.append("size %d, want %d" % (len(M), n))
                continue
            entries = [e for row in M for e in (row if m == 1 else
                                               (c for x in row for c in x))]
            if not all(0 <= e < mod for e in entries):
                bad.append("entry outside Z/%d" % mod)
            if family == "gl":
                ok = ref.det_mod_prime(M, p) != 0
                key = (ref.trace(M, mod), ref.trace(ref.mat_mul(M, M, mod), mod))
                hist[key] = hist.get(key, 0) + 1
            elif family == "sp":
                ok = ref.preserves_form(M, ref.symplectic_form(n), mod)
            elif family == "so":
                ok = (ref.preserves_form(M, ref.split_orthogonal_form(n), mod)
                      and ref.det_int(M) % mod == 1)
            else:
                ok = ref.is_unitary(M, poly, mod)
            if not ok:
                bad.append("%s sample not in the group: %s" % (family, text))
        if family == "gl":
            # (tr M, tr M^2) over GR(p^k): p^(2k) cells when p > 2
            cells = mod * mod
            if sum(hist.values()) != samples or not all(
                    0 <= a < mod and 0 <= b < mod for a, b in hist):
                bad.append("trace histogram does not cover the samples")
            tv = float(ref.tv_uniform(hist, cells))
            if tv > ref.tv_noise_bound(cells, samples):
                bad.append("sample trace TV %.4f above noise bound" % tv)
        return bad[:3]
    return check


def _check_congruence(p, samples):
    def check(s):
        want = samples * (2 * p * p // p)  # default i_max = 2 p^2
        if s["violations"] != 0 or s["checked"] != want or not s["pass"]:
            return ["congruence %s, want checked %d and no violations"
                    % (s, want)]
        return []
    return check


def _check_image(samples):
    def check(s):
        if s["checked"] != samples or s["failures"] or not s["pass"]:
            return ["image check %s" % s]
        return []
    return check


def haar_gl(pm):
    return [
        _mc_job(pm, "tv GL_8(GR(9)) d=2", "tv", _flags("gl", 8, 3, k=2), 4000,
                _check_tv_mc(81, 4000), extra=["--d", "2"]),
        _mc_job(pm, "single-trace GL_5(GR(27)) r=4", "single-trace",
                _flags("gl", 5, 3, k=3), 4000,
                _check_tv_mc(27, 4000, GL5_TR4_EXACT_TV), extra=["--r", "4"]),
        _mc_job(pm, "sample GL_8(GR(9))", "sample", _flags("gl", 8, 3, k=2),
                500, _check_samples("gl", 8, 3, 1, 2, 500)),
    ]


def haar_forms(pm):
    jobs = []
    # acceptance criterion 01's layout: sizes per family, m = 2 for u
    for family in ("gl", "sl", "sp", "so", "u"):
        for p, k in ((3, 2), (3, 3), (5, 2), (5, 3)):
            m = 2 if family == "u" else 1
            size = {"u": 2, "so": 3, "sl": 3}.get(family, 4)
            n = size // 2 if family == "sp" else size  # Sp_{2n} flag
            jobs.append(_mc_job(
                pm, "congruence %s_%d p=%d k=%d" % (family, size, p, k),
                "congruence", _flags(family, n, p, m, k), 100,
                _check_congruence(p, 100)))
    for family, n, m in (("sp", 2, 1), ("so", 3, 1), ("u", 2, 2)):
        jobs.append(_mc_job(pm, "image-check %s n=%d m=%d" % (family, n, m),
                            "image-check", _flags(family, n, 3, m), 40,
                            _check_image(40)))
    jobs.append(_mc_job(pm, "tv GL_4(GR(9,2)) d=1", "tv",
                        _flags("gl", 4, 3, m=2, k=2), 400,
                        _check_tv_mc(81, 400), extra=["--d", "1"]))
    u_poly = pm.galois_rings.RingContext(3, 2, 2).defining_poly
    for family, n, size, m, k, poly in (("sp", 2, 4, 1, 3, None),
                                        ("so", 3, 3, 1, 3, None),
                                        ("u", 2, 2, 2, 2, u_poly)):
        jobs.append(_mc_job(
            pm, "sample %s_%d GR(%d^%d,%d)" % (family, size, 3, k, m),
            "sample", _flags(family, n, 3, m, k), 200,
            _check_samples(family, size, 3, m, k, 200, poly)))
    return jobs


# ---------------------------------------------------------------------------
# exact jobs


def _exact_cli_job(pm, label, argv, items, check, warm):
    return Job(label, items, lambda seed: _dispatch(pm, argv),
               lambda out: check(_summary(out)), warm)


def _fulman_job(pm, family, n, order, classes):
    p = 3

    def warm():
        ctx = pm.galois_rings.RingContext(p, 1, 1)
        spec = pm.matrix_groups.GroupSpec(family, n, ctx)
        one = pm.matrix_groups.Matrix.identity(ctx, n)
        spec.is_member(one)
        pm.conjugacy.fulman_prob_gl(pm.conjugacy.class_of_matrix_gl(one))

    def check(s):
        want = (order, classes())
        if (s["order"], s["classes"]) != want or s["mismatches"]:
            return ["fulman %s_%d: %s, want order and classes %s"
                    % (family, n, s, want)]
        return []

    return _exact_cli_job(pm, "fulman %s_%d(F_3)" % (family, n),
                          ["fulman"] + _flags(family, n, p), p ** (n * n),
                          check, warm)


def _onestep_job(pm, family, n, size, group_order, fiber):
    p, k = 3, 2
    argv = ["onestep"] + _flags(family, n, p, k=k) + ["--d", "1"]
    path = os.path.join(OUT_DIR, "onestep-%s.json" % family)

    def run(seed):
        return _dispatch(pm, argv + ["--mode", "exact", "--out", path])

    def warm():
        _summary(_dispatch(pm, argv + ["--samples", "1", "--seed", "0"]))

    def check(output):
        _summary(output)
        with open(path) as fh:
            rep = json.load(fh)
        os.remove(path)
        res = rep["results"]
        hyp = {r["hypothesis"] for r in res}
        bad = []
        if rep["fiber_size"] != fiber or len(res) != group_order:
            bad.append("onestep %s: fiber %s, %d matrices; want %d, %d"
                       % (family, rep["fiber_size"], len(res), fiber,
                          group_order))
        if not rep["pass"] or not all(r["pass"] for r in res):
            bad.append("onestep %s: a fiber count is off" % family)
        if family == "gl" and hyp != {True, False}:
            bad.append("onestep gl: both degree branches must occur")
        return bad

    items = p ** (size * size) + group_order * fiber
    return Job("onestep %s_%d k=2" % (family, size), items, run, check, warm)


def _tv_exact_job(pm, n, k, closed_tv=None):
    p = 3
    argv = ["tv"] + _flags("gl", n, p, k=k) + ["--d", "1"]

    def warm():
        _summary(_dispatch(pm, argv + ["--samples", "1", "--seed", "0"]))

    def check(s):
        want = dict(ref.gl_trace_summary(n, p, k))
        if closed_tv is not None and want["tv"] != float(closed_tv):
            raise AssertionError("brute-force TV %r is not %s"
                                 % (want["tv"], closed_tv))
        got = {key: s[key] for key in want}
        if got != want:
            return ["exact tv GL_%d(Z/%d): %s, brute force %s"
                    % (n, p ** k, got, want)]
        return []

    return _exact_cli_job(pm, "tv exact GL_%d(Z/%d) d=1" % (n, p ** k),
                          argv + ["--mode", "exact"], p ** (k * n * n),
                          check, warm)


def _census_job(pm, max_degree):
    P = pm.polynomials
    ctx = pm.galois_rings.RingContext(3, 1, 1)
    q = 3

    def run(seed):
        return [(f, P.radical(f)) for n in range(1, max_degree + 1)
                for f in P.monic_polys(ctx, n)]

    def warm():
        for d in range(1, max_degree // 2 + 1):
            P.irreducible_polys(ctx, d)
        P.radical(P.x_poly(ctx))

    def ints(f):
        return [int(c.coeffs[0]) for c in f.coeffs]

    def check(pairs):
        bad = []
        squarefree = {}
        for f, r in pairs:
            fi, ri = ints(f), ints(r)
            if not ref.is_radical_of(ri, fi, q):
                bad.append("radical(%s) = %s" % (fi, ri))
            if ri == fi:
                squarefree[len(fi) - 1] = squarefree.get(len(fi) - 1, 0) + 1
        # q^n - q^(n-1) squarefree monics of degree n >= 2, all q of degree 1
        want = {n: q ** n - (q ** (n - 1) if n > 1 else 0)
                for n in range(1, max_degree + 1)}
        if squarefree != want or len(pairs) != sum(q ** n for n in want):
            bad.append("squarefree census %s, want %s" % (squarefree, want))
        return bad[:3]

    items = sum(q ** n for n in range(1, max_degree + 1))
    return Job("radical census deg<=%d F_3" % max_degree, items, run, check,
               warm)


def _hayes_job(pm):
    q, l, h = 3, 2, 2
    order = q ** l * (q ** h - q ** (h - 1))  # q^l phi(x^h)

    def warm():
        _summary(_dispatch(pm, ["hayes", "--p", "3", "--l", "1",
                                "--h-deg", "1"]))

    def check(s):
        if s["order"] != order or s["characters"] != order:
            return ["hayes %s, want order and characters %d" % (s, order)]
        return []

    return _exact_cli_job(pm, "hayes p=3 l=2 H=x^2",
                          ["hayes", "--p", "3", "--l", str(l), "--h-deg",
                           str(h)], q ** (l + h), check, warm)


def _enumerate_job(pm):
    order = 24 * 3 ** 3  # |SL_2(F_3)| q^{dim sl_2}

    def warm():
        ctx = pm.galois_rings.RingContext(3, 1, 2)
        pm.matrix_groups.GroupSpec("sl", 2, ctx).is_member(
            pm.matrix_groups.Matrix.identity(ctx, 2))

    def check(s):
        if s["order"] != order:
            return ["|SL_2(GR(9))| = %s, want %d" % (s["order"], order)]
        return []

    return _exact_cli_job(pm, "enumerate SL_2(GR(9))",
                          ["enumerate"] + _flags("sl", 2, 3, k=2), 9 ** 4,
                          check, warm)


def exact_enum(pm):
    q = 3
    gl2, gl3 = ref.order_gl(2, q), ref.order_gl(3, q)
    return [
        _fulman_job(pm, "gl", 2, gl2, lambda: q * q - 1),
        _fulman_job(pm, "sl", 2, gl2 // (q - 1),
                    lambda: ref.gl_class_count_meeting_sl2(q)),
        _fulman_job(pm, "gl", 3, gl3, lambda: q ** 3 - q),
        _onestep_job(pm, "gl", 2, 2, gl2, q ** 4),
        _onestep_job(pm, "sp", 1, 2, gl2 // (q - 1), q ** 3),
        _enumerate_job(pm),
        _tv_exact_job(pm, 2, 2),
        _tv_exact_job(pm, 3, 1, ref.Fraction(1, 624)),
        _census_job(pm, 6),
        _hayes_job(pm),
    ]


WORKLOADS = {"haar_gl": haar_gl, "haar_forms": haar_forms,
             "exact_enum": exact_enum}
# exact_enum's inputs are whole groups; its seed only orders the jobs
SHUFFLED = {"exact_enum"}


def round_order(workload, jobs, seed, rnd):
    order = list(range(len(jobs)))
    if workload in SHUFFLED:
        random.Random("%d:%d" % (seed, rnd)).shuffle(order)
    return order


def job_seed(seed, rnd, idx):
    """Seed of job idx in round rnd: distinct across jobs and rounds."""
    return (seed * 1000 + rnd) * 100 + idx
