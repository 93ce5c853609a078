"""Statistical harness: equidistribution, congruence, and consistency checks.

Monte-Carlo runs are sharded into independent streams derived from the
master seed: each shard draws on its own numpy Generator (_shard_rng).  The
shards are grouped into whole-shard groups, and one task (_group_task)
draws the group's residues in one batched pass over its shards' streams
(draw_haar_streams), lifts them at once, and reduces them to cell counts
(or congruence counts).  A shard's samples depend only on the seed, its
index and its size, never on the group it lands in.  With workers > 1 and
more than one group the tasks run on a process pool, built once per
process and reused; the results are merged in group order, so every
report is identical at every worker count.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import time
from fractions import Fraction

import numpy as np

from .conjugacy import class_census_gl, fulman_prob_gl, order_gl
from .galois_rings import GRElem, RingContext
from .matrix_groups import (
    GroupSpec,
    Matrix,
    char_poly_batch,
    enumerate_blocks,
    enumerate_group,
    inverse_batch,
    lie_combinations,
    lift_haar_batch,
    min_poly_mod_p,
    _GROUP_ENTRIES,
    _fiber_table,
    _field_index,
    _field_tables,
    _lie_data,
    _lift_level,
)
from .polynomials import (
    _vp,
    coeffs_to_traces,
    datum_value_count,
    irreducible_polys,
    trace_data_batch,
)
from .streams import draw_haar_streams

SCHEMA_VERSION = 2
N_SHARDS = 16


class ExperimentConfig:
    def __init__(self, family, n, p, m=1, k=1, sign=1, d1=0, d2=0,
                 samples=0, seed=None, mode="montecarlo",
                 i_max=None, shards=N_SHARDS):
        if mode not in ("montecarlo", "exact"):
            raise ValueError("mode must be montecarlo or exact")
        if mode == "montecarlo" and seed is None:
            raise ValueError("montecarlo mode requires a seed")
        self.family = family
        self.n = n
        self.p = p
        self.m = m
        self.k = k
        self.sign = sign
        self.d1 = d1
        self.d2 = d2
        self.samples = samples
        self.seed = seed
        self.mode = mode
        self.i_max = i_max
        self.shards = shards

    def context(self):
        return RingContext(self.p, self.m, self.k)

    def group_spec(self, ctx=None):
        ctx = ctx or self.context()
        if self.family == "so":
            return GroupSpec(self.family, self.n, ctx, sign=self.sign)
        return GroupSpec(self.family, self.n, ctx)

    def to_dict(self):
        return {"family": self.family, "n": self.n, "p": self.p,
                "m": self.m, "k": self.k, "sign": self.sign,
                "d1": self.d1, "d2": self.d2,
                "samples": self.samples, "seed": self.seed,
                "mode": self.mode, "i_max": self.i_max,
                "shards": self.shards}

    @classmethod
    def from_dict(cls, d):
        return cls(**d)


class TVReport:
    def __init__(self, config, cell_count, n_samples, tv, noise,
                 min_count, max_count, runtime_ms, extra=None, verdict=True,
                 law_tv=None):
        self.config = config
        self.cell_count = cell_count
        self.n_samples = n_samples
        self.tv = tv
        self.noise = noise
        self.min_count = min_count
        self.max_count = max_count
        self.runtime_ms = runtime_ms
        self.extra = extra or {}
        self.verdict = verdict
        self.law_tv = law_tv

    @property
    def passed(self):
        """The Monte-Carlo verdict tv < 2.5 noise, or law_tv < 2.5 noise
        where the exact law is known: law_tv is the TV of the counts from
        that law, and the expected TV of N samples of any law over the
        cells is at most noise, uniform's.  None (and to_dict omits pass) in
        exact mode, where the TV is the law's own and there is no sampling
        noise to judge it (to_dict omits noise too), and without a verdict:
        when the cells are not the family's value space."""
        if self.config.mode == "exact" or not self.verdict:
            return None
        judged = self.tv if self.law_tv is None else self.law_tv
        return float(judged) < 2.5 * self.noise

    def to_dict(self):
        out = {"schema_version": SCHEMA_VERSION,
               "config": self.config.to_dict(),
               "cell_count": self.cell_count, "N": self.n_samples,
               "tv": float(self.tv), "noise": self.noise,
               "min_count": self.min_count, "max_count": self.max_count,
               "pass": self.passed, "runtime_ms": self.runtime_ms,
               **self.extra}
        if self.passed is None:
            del out["pass"]
        if self.config.mode == "exact":
            del out["noise"]
        return out

    def to_json(self):
        return json.dumps(self.to_dict(), indent=2)


# ---------------------------------------------------------------------------
# TV distance


def tv_to_uniform(hist, cell_count):
    n = sum(hist.values())
    total = Fraction(0)
    for c in hist.values():
        total += abs(Fraction(c, n) - Fraction(1, cell_count))
    total += (cell_count - len(hist)) * Fraction(1, cell_count)
    return total / 2


def expected_tv_noise(cell_count, n_samples):
    """Expected TV of a truly uniform sampler: ~ sqrt(C / (2 pi N))."""
    return math.sqrt(cell_count / (2 * math.pi * n_samples))


# ---------------------------------------------------------------------------
# sharded sampling


def _shard_rng(seed, shard):
    """The numpy Generator of one shard: PCG64 seeded by the int of the
    sha256 of "seed:shard", so every int seed, negative ones included,
    gives distinct streams."""
    digest = hashlib.sha256(("%s:%d" % (seed, shard)).encode()).hexdigest()
    return np.random.Generator(np.random.PCG64(
        np.random.SeedSequence(int(digest, 16))))


def _shard_samples(spec, seed, shards):
    """The Haar samples of the shards [(shard, count), ...] of a seed, in
    shard order: one batched draw over their streams (draw_haar_streams),
    lifted at once (lift_haar_batch)."""
    return lift_haar_batch(spec, *draw_haar_streams(
        spec, [(_shard_rng(seed, shard), count) for shard, count in shards]))


def _shard_sizes(total, shards):
    base, rem = divmod(total, shards)
    return [base + (1 if i < rem else 0) for i in range(shards)]


def _shard_groups(cfg):
    """The nonempty shards as groups of whole shards, in shard order: lists
    of (shard, count).  A group holds at most _GROUP_ENTRIES matrix entries,
    unless one shard alone holds more; the groups bound the lift's and the
    extraction's temporaries."""
    spec = cfg.group_spec()
    entries = spec.size ** 2 * spec.ctx.m
    groups, group, held = [], [], 0
    for shard, count in enumerate(_shard_sizes(cfg.samples, cfg.shards)):
        if not count:
            continue
        if group and (held + count) * entries > _GROUP_ENTRIES:
            groups.append(group)
            group, held = [], 0
        group.append((shard, count))
        held += count
    if group:
        groups.append(group)
    return groups


def _group_samples(cfg, group):
    """The Haar samples of one group of whole shards (_shard_samples): the
    samples of each shard drawn alone, concatenated in shard order."""
    return _shard_samples(cfg.group_spec(), cfg.seed, group)


def _group_task(cfg_dict, extract, args, group):
    """One group's work, in process or in a pool worker: extract(ctx, a,
    *args) over the group's samples a.  Its arguments are plain data and a
    module-level extract, so it pickles under any start method."""
    cfg = ExperimentConfig.from_dict(cfg_dict)
    return extract(cfg.context(), _group_samples(cfg, group), *args)


# the worker pool, as (size, executor): built by the first run that needs
# one and reused by later runs in the process
_POOL = None


def _pool(workers):
    """The process pool of min(workers, N_SHARDS) spawned workers.  Spawn,
    not fork: the pool's own manager thread, or a caller's, makes forking
    unsafe.  Each spawned worker starts a fresh interpreter and imports the
    package, once per pool."""
    global _POOL
    # imported by the first pool, so that runs without one do not carry
    # the memory of these modules
    import concurrent.futures
    import multiprocessing
    size = min(workers, N_SHARDS)
    if _POOL is None or _POOL[0] != size:
        if _POOL is not None:
            _POOL[1].shutdown()
        _POOL = (size, concurrent.futures.ProcessPoolExecutor(
            size, mp_context=multiprocessing.get_context("spawn")))
    return _POOL[1]


def _group_results(cfg, workers, extract, *args):
    """extract(ctx, a, *args) over each group of whole shards, in group
    order (_group_task): in process with one worker or one group, on the
    pool otherwise.  A task's exception is raised here, as in process."""
    global _POOL
    task = functools.partial(_group_task, cfg.to_dict(), extract, args)
    groups = _shard_groups(cfg)
    if workers == 1 or len(groups) == 1:
        yield from map(task, groups)
        return
    pool = _pool(workers)
    from concurrent.futures import BrokenExecutor
    try:
        yield from pool.map(task, groups)
    except BrokenExecutor:
        _POOL = None  # a worker died: the next run builds a new pool
        raise


def _histogram(cfg, workers, extract, *args):
    """Cell counts over the exact group or the shards' samples.

    extract(ctx, a, *args) maps an (N, n, n, m) batch (an enumerate_blocks
    block in exact mode, a group's samples otherwise) to the
    np.unique(keys, axis=0, return_counts=True) of its (N, w) array of cell
    keys (_cell_counts); the counts are keyed by the bytes of a key row.
    """
    if cfg.mode == "exact":
        ctx = cfg.context()
        results = (extract(ctx, a, *args)
                   for a in enumerate_blocks(cfg.group_spec()))
    else:
        results = _group_results(cfg, workers, extract, *args)
    hist = {}
    for cells, counts in results:
        for cell, count in zip(cells, counts.tolist()):
            key = cell.tobytes()
            hist[key] = hist.get(key, 0) + count
    return hist


# ---------------------------------------------------------------------------
# trace extraction


def _power_traces(ctx, a, count):
    """The (..., count, m) array of tr(A^i), i = 1..count, over the batch a."""
    diag = np.arange(a.shape[-3])
    out = np.empty(a.shape[:-3] + (count, ctx.m), dtype=np.int64)
    P = a
    for i in range(count):
        if i:
            P = ctx.mat_mul(P, a)
        out[..., i, :] = P[..., diag, diag, :].sum(axis=-2) % ctx.mod
    return out


def _batch_traces(ctx, a, d1, d2):
    """(tr(A^-i), i = 1..d1; tr(A^i), i = 1..d2) as arrays over the batch a."""
    neg = _power_traces(ctx, inverse_batch(ctx, a) if d1 else a, d1)
    return neg, _power_traces(ctx, a, d2)


def _datum_keys(ctx, a, d1, d2):
    """The (N, w) cell keys of the (d1, d2) trace datum over the batch a."""
    neg, pos = _batch_traces(ctx, a, d1, d2)
    indices, entries = trace_data_batch(ctx, pos, neg)
    return entries.reshape(len(a), len(indices) * ctx.m)


def _cell_counts(keys):
    """The distinct rows of the (N, w) keys and their counts."""
    return np.unique(keys, axis=0, return_counts=True)


def _datum_cells(ctx, a, d1, d2):
    """The cell counts of the (d1, d2) trace datum over the batch a."""
    return _cell_counts(_datum_keys(ctx, a, d1, d2))


def _trace_cells(ctx, a, r):
    """The cell counts of tr(M^r) over the batch a (r < 0: of M^-1)."""
    if r < 0:
        a, r = inverse_batch(ctx, a), -r
    return _cell_counts(_power_traces(ctx, a, r)[:, -1])


def _congruence_counts(ctx, a, i_max):
    """(checked, violations) of tr(M^i) = sigma(tr(M^{i/p})) mod
    p^{min(v_p(i), k)}, one check per power i = p, 2p, ... <= i_max and
    matrix of the batch a."""
    p, k = ctx.p, ctx.k
    # one row per power i = p, 2p, ..., checked against sigma of row i/p
    idx = np.arange(p, i_max + 1, p)
    modulus = p ** np.array([min(_vp(int(i), p), k) for i in idx],
                            dtype=np.int64)
    rows = _power_traces(ctx, a, i_max)
    delta = rows[:, idx - 1] - ctx.vec_sigma(rows[:, idx // p - 1])
    bad = np.any(delta % ctx.mod % modulus[:, None], axis=-1)
    return bad.size, int(np.count_nonzero(bad))


def matrix_traces(M, d1, d2):
    """(negative traces tr(M^-i) i=1..d1, positive tr(M^i) i=1..d2)."""
    return tuple([GRElem(M.ctx, t) for t in traces]
                 for traces in _batch_traces(M.ctx, M.a, d1, d2))


def trace_datum_key(M, d1, d2):
    """TraceDatum.key() of M's (d1, d2) datum."""
    neg, pos = _batch_traces(M.ctx, M.a, d1, d2)
    indices, entries = trace_data_batch(M.ctx, pos, neg)
    return (d1, d2, tuple(sorted((i, a.tobytes())
                                 for i, a in zip(indices, entries))))


# ---------------------------------------------------------------------------
# experiments


def run_trace_equidistribution(cfg, workers=1):
    """TV of the (d1,d2)-trace datum from uniform over its value space;
    Monte-Carlo groups run on at most workers processes."""
    d = cfg.d1 + cfg.d2
    if cfg.mode == "montecarlo":
        if cfg.d1 and d >= cfg.n - 1:
            raise ValueError("two-sided data need d1 + d2 < n - 1")
    start = time.monotonic()
    ctx = cfg.context()
    cells = datum_value_count(ctx, cfg.d1, cfg.d2)
    hist = _histogram(cfg, workers, _datum_cells, cfg.d1, cfg.d2)
    return _tv_report(cfg, start, cells, hist,
                      {"occupied_cells": len(hist)})


def _tv_report(cfg, start, cells, hist, extra, law_tv=None):
    """The TVReport of the counts hist over cells cells, timed from start,
    judged against the exact law where law_tv, their TV from it, is given.
    u and so data take fewer values than GL's cells (the cell counts are
    family-blind), so a verdict against those cells says nothing: for them
    value_space says so after extra, and there is no verdict."""
    n_samples = sum(hist.values())
    verdict = cfg.family not in ("u", "so")
    if not verdict:
        extra = {**extra, "value_space": "GL's: the %s value space is not "
                 "computed yet, so no pass verdict" % cfg.family}
    return TVReport(cfg, cells, n_samples, tv_to_uniform(hist, cells),
                    expected_tv_noise(cells, n_samples),
                    min(hist.values()), max(hist.values()),
                    int((time.monotonic() - start) * 1000), extra, verdict,
                    law_tv)


def run_single_trace(cfg, r, workers=1):
    """TV of tr(M^r) over GR(p^k) from uniform; Monte-Carlo groups run on at
    most workers processes.  A Monte-Carlo gl run with q^n at most
    _TRACE_LAW_MAX is judged against the exact law of tr(M^r), which is not
    uniform at small n; its report gives exact_tv, the law's TV from
    uniform, and law_tv, the samples' TV from the law (_law_tvs)."""
    if r % cfg.p == 0:
        raise ValueError("p must not divide r")
    start = time.monotonic()
    ctx = cfg.context()
    cells = ctx.q ** ctx.k if ctx.m == 1 else ctx.mod ** ctx.m
    hist = _histogram(cfg, workers, _trace_cells, r)
    if (cfg.mode == "exact" or cfg.family != "gl"
            or ctx.q ** cfg.n > _TRACE_LAW_MAX):
        return _tv_report(cfg, start, cells, hist, {})
    # M -> M^-1 keeps Haar measure, so tr(M^r) has the law of tr(M^|r|)
    exact_tv, law_tv = _law_tvs(ctx, hist, _gl_trace_law(ctx.p, ctx.m,
                                                         cfg.n, abs(r)))
    return _tv_report(cfg, start, cells, hist, {
        "exact_tv": float(exact_tv), "law_tv": float(law_tv)}, law_tv)


# gl's single-trace verdict uses the exact law of tr(M^r) up to this q^n:
# _gl_trace_law walks the primes of degree <= n, about q^n / n of them.
# From a cold start it takes 8 ms at GL_5(F_3), 24 ms at GL_6(F_3) and
# 92 ms at GL_3(F_9), nearly all of it in listing the primes
_TRACE_LAW_MAX = 729


@functools.lru_cache(maxsize=64)
def _gl_trace_law(p, m, n, r):
    """The exact law of tr(M^r), r >= 1 not divisible by p, for Haar M in
    GL_n(F_q), q = p^m: a dict from the field-table index of each value
    taken to its Fraction probability, shared by every caller (read only).

    Pr[char M = f] is the product over the prime powers phi^e exactly
    dividing f of q_phi^(e(e-1)) / |GL_e(F_q_phi)| (charpoly_prob_gl), with
    q_phi = q^deg phi, and tr(M^r) is the sum of e s_r(phi), s_r(phi) the
    r-th power sum of phi's roots.  So the law is the u^n coefficient of
    the product over the primes phi != x of sum_e (that weight) u^(e deg
    phi) [e s_r(phi)], over the group ring of F_q; it is built one prime at
    a time, each degree j from the top, so that phi enters once.
    """
    ctx = RingContext(p, m, 1)
    add, q = _field_tables(ctx).add, ctx.q
    series = [{} for _ in range(n + 1)]  # degree -> value -> probability
    series[0][0] = Fraction(1)
    for d in range(1, n + 1):
        weights = [Fraction(q ** (d * e * (e - 1)), order_gl(e, q ** d))
                   for e in range(1, n // d + 1)]
        for phi in irreducible_polys(ctx, d):
            if phi.coeff(0).is_zero():
                continue
            s = int(_field_index(ctx, coeffs_to_traces(phi, r)[-1].coeffs))
            for j in range(n - d, -1, -1):
                for value, pr in series[j].items():
                    t = value  # value + e s
                    for e, w in enumerate(weights[:(n - j) // d], 1):
                        t = add[t][s]
                        cell = series[j + e * d]
                        cell[t] = cell.get(t, 0) + pr * w
    return series[n]


def _law_tvs(ctx, hist, law):
    """(exact_tv, law_tv) of the counts hist of tr(M^r) over ctx, p not
    dividing r, and the law of its residue (_gl_trace_law): the law's TV
    from uniform and the counts' TV from the law.

    Over GR(p^k) the trace is uniform on the q^(k-1) lifts of its residue:
    the lift M' (1 + p^(k-1) X) adds p^(k-1) r tr(M'^r X), and X -> tr(M'^r
    X) is onto F_q for invertible M'.  So exact_tv is the residue law's TV
    from uniform, and each cell has the law of its residue over q^(k-1).
    """
    q, spread, n = ctx.q, ctx.q ** (ctx.k - 1), sum(hist.values())
    exact_tv = (sum(abs(pr - Fraction(1, q)) for pr in law.values())
                + Fraction(q - len(law), q)) / 2
    keys = np.frombuffer(b"".join(hist), dtype=np.int64).reshape(-1, ctx.m)
    empty = {t: spread * pr for t, pr in law.items()}  # the cells not seen
    total = Fraction(0)
    for t, count in zip(_field_index(ctx, keys).tolist(), hist.values()):
        pr = law.get(t, 0)
        total += abs(Fraction(count, n) - pr / spread)
        empty[t] = empty.get(t, 0) - pr
    total += sum(empty.values()) / spread
    return exact_tv, total / 2


def run_trace_congruence(cfg, workers=1):
    """Count violations of tr(M^i) = sigma(tr(M^{i/p})) mod p^{min(v, k)};
    the groups run on at most workers processes."""
    i_max = cfg.i_max or 2 * cfg.p * cfg.p
    checked = violations = 0
    for group_checked, group_violations in _group_results(
            cfg, workers, _congruence_counts, i_max):
        checked += group_checked
        violations += group_violations
    return {"schema_version": SCHEMA_VERSION, "config": cfg.to_dict(),
            "checked": checked, "violations": violations,
            "pass": violations == 0}


def enumerate_lie_fq(spec):
    """All combinations of the Lie-algebra basis at the residue level.

    Returns the (|pool|^dim, n, n, m) array of lie_combinations, with the
    coefficient rows in itertools.product order over the pool (the first
    basis element's coefficient varies slowest).
    """
    return lie_combinations(spec, _fiber_table(spec))


def onestep_fiber(A0, spec_k, lie):
    """char(A0_lift (I + p^{k-1} A1)) over the whole level-k Lie fiber.

    A0 lives at level k - 1, and lie is the enumerate_lie_fq array of the
    A1.  Returns the (len(lie), n + 1, m) char_poly_batch array of
    coefficient vectors, constant term first.
    """
    ctx = spec_k.ctx
    if A0.ctx.k != ctx.k - 1:
        raise ValueError("A0 must live at level k - 1")
    return char_poly_batch(ctx, _lift_level(spec_k, ctx, A0.a, lie))


def run_onestep_check(cfg, matrices=None):
    """Exact conditional equidistribution of char polys over the lift fiber.

    For family gl the fiber chars are bucketed into Hayes classes for
    H = x: the d coefficients below the leading one and the constant
    coefficient; when deg min > d every bucket holds exactly
    q^{dim - d - 1} elements.  For family sp the buckets fix
    the d leading coefficients (intervals of width n - d) and hold exactly
    q^{dim - d} elements.  When the degree hypothesis fails for gl, the
    fiber chars concentrate on exactly q^{(k-1) deg min} distinct values;
    for sp the below-threshold count is reported without assertion.  The
    palindromic char poly of Sp_n has only n/2 free top coefficients, so
    sp refuses d > n/2 (ValueError).
    """
    if cfg.family not in ("gl", "sp"):
        raise ValueError("one-step check supports gl and sp")
    d = cfg.d2
    if cfg.family == "sp" and d > cfg.n // 2:
        raise ValueError("the char poly of Sp_%d is palindromic, with %d "
                         "free top coefficients: d must be at most %d"
                         % (cfg.n, cfg.n // 2, cfg.n // 2))
    spec_k = cfg.group_spec()
    spec1 = spec_k.reduced(1)
    ctx1 = spec1.ctx
    lie = enumerate_lie_fq(spec1)
    q = ctx1.q
    dim = len(_lie_data(spec1)[0])

    if matrices is None:
        if cfg.mode == "exact":
            matrices = enumerate_group(spec1)
        else:
            matrices = [Matrix(ctx1, a) for a in
                        _shard_samples(spec1, cfg.seed, [(0, cfg.samples)])]

    results = []
    all_pass = True
    for A0 in matrices:
        degmin = min_poly_mod_p(A0).degree
        chars = onestep_fiber(A0, spec_k, lie)
        window = chars[:, max(cfg.n - d, 0):cfg.n]
        if cfg.family == "gl":
            threshold_ok = degmin > d
            expect = q ** (dim - d - 1)
            window = np.concatenate([window, chars[:, :1]], axis=1)
        else:
            threshold_ok = degmin == cfg.n
            expect = q ** (dim - d)
        _, buckets = np.unique(window.reshape(len(lie), -1), axis=0,
                               return_counts=True)
        distinct = len(np.unique(chars.reshape(len(lie), -1), axis=0))
        if threshold_ok:
            ok = bool(np.all(buckets == expect))
        elif cfg.family == "gl":
            # below the degree threshold the fiber chars concentrate on
            # exactly q^{(k-1) deg min} values; no analog is asserted for
            # sp, where the perturbation is traceless
            ok = distinct == q ** ((cfg.k - 1) * degmin)
        else:
            ok = True
        all_pass = all_pass and ok
        results.append({"deg_min": degmin, "hypothesis": threshold_ok,
                        "buckets": len(buckets), "distinct": distinct,
                        "pass": ok})
    return {"schema_version": SCHEMA_VERSION, "config": cfg.to_dict(),
            "fiber_size": len(lie), "results": results, "pass": all_pass}


def run_fulman_consistency(cfg):
    """Exhaustive gl or sl class frequencies against the exact formulas;
    ValueError for the other families."""
    if cfg.family not in ("gl", "sl"):
        raise ValueError("the fulman check covers gl and sl only: no %s "
                         "class census exists yet to score against "
                         "fulman_prob_%s" % (cfg.family, cfg.family))
    ctx = cfg.context()
    if ctx.k != 1:
        raise ValueError("consistency check runs at the residue level")
    census = class_census_gl(ctx, enumerate_blocks(cfg.group_spec()))
    order = sum(count for _, count in census.values())
    mismatches = []
    for key, (datum, count) in census.items():
        pr = fulman_prob_gl(datum)
        if cfg.family == "gl":
            expected = pr
        else:
            # det-1 data: the GL class sits inside SL, so its SL-frequency
            # is the GL probability scaled by [GL : SL] = q - 1
            expected = pr * (ctx.q - 1)
        if Fraction(count, order) != expected:
            mismatches.append(key)
    return {"schema_version": SCHEMA_VERSION, "config": cfg.to_dict(),
            "order": order, "classes": len(census),
            "mismatches": mismatches, "pass": not mismatches}


def group_order_at_level(spec):
    """|G(GR(p^k))| = |G(F_q)| |pool|^{(k-1) dim g} by fiber counting; the
    Lie coefficients pool is F_q, or for u the tau-fixed subfield."""
    basis, pool = _lie_data(spec)
    base = sum(len(block) for block in enumerate_blocks(spec.reduced(1)))
    return base * len(pool) ** ((spec.ctx.k - 1) * len(basis))
