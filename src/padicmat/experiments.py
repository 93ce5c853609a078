"""Statistical harness: equidistribution, congruence, and consistency checks.

Monte-Carlo runs are sharded into independent RNG streams derived from the
master seed, so the merged histogram is identical regardless of how many
workers process the shards.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import time
from fractions import Fraction

import numpy as np

from .conjugacy import class_census_gl, fulman_prob_gl
from .galois_rings import GRElem, RingContext
from .matrix_groups import (
    GroupSpec,
    Matrix,
    char_poly_batch,
    draw_haar_batch,
    enumerate_blocks,
    enumerate_group,
    inverse_batch,
    lie_combinations,
    lift_haar_batch,
    min_poly_mod_p,
    sample_haar_batch,
    _GROUP_ENTRIES,
    _fiber_table,
    _lie_data,
    _lift_level,
)
from .polynomials import (
    _vp,
    datum_value_count,
    trace_data_batch,
)

SCHEMA_VERSION = 1
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
                 min_count, max_count, runtime_ms, extra=None, verdict=True):
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

    @property
    def passed(self):
        """The Monte-Carlo verdict tv < 2.5 noise.  None (and to_dict omits
        pass) in exact mode, where the TV is the law's own and there is no
        sampling noise to judge it (to_dict omits noise too), and without a
        verdict: when the cells are not the family's value space."""
        if self.config.mode == "exact" or not self.verdict:
            return None
        return float(self.tv) < 2.5 * self.noise

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
    digest = hashlib.sha256(("%s:%d" % (seed, shard)).encode()).hexdigest()
    return random.Random(int(digest, 16))


def _shard_sizes(total, shards):
    base, rem = divmod(total, shards)
    return [base + (1 if i < rem else 0) for i in range(shards)]


def _shard_batches(cfg):
    """The nonempty shards' Haar samples, in groups of whole shards.

    Each shard is drawn on its own _shard_rng (draw_haar_batch); the draws
    of a group are lifted at once (lift_haar_batch), so the group's samples
    are its shards' sample_haar_batch arrays, concatenated in shard order.
    The groups bound the lift's and the extraction's temporaries
    (_GROUP_ENTRIES).
    """
    spec = cfg.group_spec()
    entries = spec.size ** 2 * spec.ctx.m
    group, held = [], 0
    for shard, count in enumerate(_shard_sizes(cfg.samples, cfg.shards)):
        if not count:
            continue
        if group and (held + count) * entries > _GROUP_ENTRIES:
            yield _lift_group(spec, group)
            group, held = [], 0
        group.append(draw_haar_batch(spec, _shard_rng(cfg.seed, shard),
                                     count))
        held += count
    if group:
        yield _lift_group(spec, group)


def _lift_group(spec, draws):
    residues, idx = zip(*draws)
    return lift_haar_batch(spec, np.concatenate(residues),
                           np.concatenate(idx))


def _histogram(cfg, extract):
    """Cell counts of extract over the exact group or the shards' samples.

    extract maps an (N, n, n, m) batch (an enumerate_blocks block in exact
    mode, a shard's samples otherwise) to an (N, w) array of cell keys; the
    counts are keyed by the bytes of a key row.
    """
    if cfg.mode == "exact":
        batches = enumerate_blocks(cfg.group_spec())
    else:
        batches = _shard_batches(cfg)
    hist = {}
    for a in batches:
        cells, counts = np.unique(extract(a), axis=0, return_counts=True)
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


def run_trace_equidistribution(cfg):
    """TV of the (d1,d2)-trace datum from uniform over its value space."""
    d = cfg.d1 + cfg.d2
    if cfg.mode == "montecarlo":
        if cfg.d1 and d >= cfg.n - 1:
            raise ValueError("two-sided data need d1 + d2 < n - 1")
    start = time.monotonic()
    ctx = cfg.context()
    cells = datum_value_count(ctx, cfg.d1, cfg.d2)
    hist = _histogram(cfg, lambda a: _datum_keys(ctx, a, cfg.d1, cfg.d2))
    return _tv_report(cfg, start, cells, hist,
                      {"occupied_cells": len(hist)})


def _tv_report(cfg, start, cells, hist, extra):
    """The TVReport of the counts hist over cells cells, timed from start.
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
                    int((time.monotonic() - start) * 1000), extra, verdict)


def run_single_trace(cfg, r):
    """TV of tr(M^r) over GR(p^k) from uniform."""
    if r % cfg.p == 0:
        raise ValueError("p must not divide r")
    start = time.monotonic()
    ctx = cfg.context()
    cells = ctx.q ** ctx.k if ctx.m == 1 else ctx.mod ** ctx.m

    def extract(a):
        if r > 0:
            return _power_traces(ctx, a, r)[:, -1]
        return _power_traces(ctx, inverse_batch(ctx, a), -r)[:, -1]

    return _tv_report(cfg, start, cells, _histogram(cfg, extract), {})


def run_trace_congruence(cfg):
    """Count violations of tr(M^i) = sigma(tr(M^{i/p})) mod p^{min(v, k)}."""
    p, k = cfg.p, cfg.k
    i_max = cfg.i_max or 2 * p * p
    ctx = cfg.context()
    violations = 0
    checked = 0
    # one row per power i = p, 2p, ..., checked against sigma of row i/p
    idx = np.arange(p, i_max + 1, p)
    modulus = p ** np.array([min(_vp(int(i), p), k) for i in idx],
                            dtype=np.int64)
    for a in _shard_batches(cfg):
        rows = _power_traces(ctx, a, i_max)
        delta = rows[:, idx - 1] - ctx.vec_sigma(rows[:, idx // p - 1])
        bad = np.any(delta % ctx.mod % modulus[:, None], axis=-1)
        checked += bad.size
        violations += int(np.count_nonzero(bad))
    return {"schema_version": SCHEMA_VERSION, "config": cfg.to_dict(),
            "checked": checked, "violations": violations,
            "pass": violations == 0}


def enumerate_lie_fq(spec):
    """All combinations of the Lie-algebra basis at the residue level.

    Returns the (|pool|^dim, n, n, m) array of lie_combinations, with the
    coefficient rows in itertools.product order over the pool (the first
    basis element's coefficient varies slowest).
    """
    return lie_combinations(spec, _fiber_table(spec, 1)[:, 0])


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
            rng = _shard_rng(cfg.seed, 0)
            matrices = [Matrix(ctx1, a) for a in
                        sample_haar_batch(spec1, rng, cfg.samples)]

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
