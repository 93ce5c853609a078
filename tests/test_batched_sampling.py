"""Batched Haar sampling and trace extraction against per-sample code.

The references here are the per-sample loops the batched paths replace:
the Haar sampler one matrix at a time (its Hensel section and Lie fiber on
`Matrix` arithmetic), traces from `Matrix` products, the inverse by
Cayley-Hamilton on `Matrix` arithmetic, the Frobenius-corrected datum on
`GRElem` arithmetic, and dict histograms of its key.  The harness's
matrices are referenced shard by shard: each shard's numpy stream drawn
alone (`draw_haar_streams`) and lifted.
"""

import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

from padicmat.conjugacy import charpoly_prob_gl
from padicmat.experiments import (
    ExperimentConfig,
    _shard_rng,
    _shard_sizes,
    expected_tv_noise,
    matrix_traces,
    run_single_trace,
    run_trace_congruence,
    run_trace_equidistribution,
    trace_datum_key,
    tv_to_uniform,
)
from padicmat.galois_rings import RingContext
from padicmat.matrix_groups import (
    GroupSpec,
    Matrix,
    _FIELD_TAB_CACHE,
    _is_invertible_fq,
    _randbelow_bulk,
    char_poly,
    enumerate_group,
    hensel_lift_section,
    inverse_batch,
    lie_algebra_basis,
    lift_haar_batch,
    sample_fq,
    sample_haar,
    sample_haar_batch,
)
from padicmat.polynomials import (
    DivisibilityViolation,
    datum_value_count,
    monic_polys,
    trace_data_batch,
    trace_datum_of,
)
from padicmat.streams import draw_haar_streams

F3 = RingContext(3, 1, 1)
F9 = RingContext(3, 2, 1)
Z9 = RingContext(3, 1, 2)
GR27 = RingContext(3, 1, 3)
Z25 = RingContext(5, 1, 2)
G92 = RingContext(3, 2, 2)  # GR(9, 2)


@pytest.mark.parametrize("bound", [3, 5, 7, 9, 25, 27, 243])
@pytest.mark.parametrize("count", [0, 1, 7, 1000])
def test_bulk_draws_equal_randrange_loop(bound, count):
    seed = 1000 * bound + count
    rng, ref = random.Random(seed), random.Random(seed)
    got = _randbelow_bulk(rng, bound, count)
    assert got.tolist() == [ref.randrange(bound) for _ in range(count)]
    assert rng.getstate() == ref.getstate()


def _reference_section(M, spec, k):
    """The Hensel section of M to level k, on Matrix arithmetic."""
    ctx = M.ctx.raised_context(k)
    n, p, eps = spec.size, ctx.p, ctx.p ** (k - 1)
    M0 = M.lift(k)
    eye = Matrix.identity(ctx, n)
    half = ctx.elem(pow(2, -1, ctx.mod))
    if spec.family == "gl":
        return M0
    if spec.family == "sl":
        return Matrix.diag(ctx, [M0.det().inv()] + [1] * (n - 1)) * M0
    if spec.family == "u":
        E = Matrix(ctx, (M0 * M0.conj_transpose() - eye).a // eps % p)
        return (eye + Matrix(ctx, E.scale(-half).a * eps)) * M0
    B = GroupSpec(spec.family, n, ctx, spec.sign).form
    E = Matrix(ctx, (M0.transpose() * B * M0 - B).a // eps % p)
    C = (B.inverse() * E).scale(-half)
    return M0 * (eye + Matrix(ctx, C.a * eps))


def _reference_sample_haar(spec, rng):
    """One Haar sample: the residue sample, then per level the section and
    a fiber element drawn one basis coefficient at a time."""
    M = sample_fq(spec, rng)
    ctx1 = spec.ctx.reduced_context(1)
    basis = lie_algebra_basis(spec)
    pool = [c for c in ctx1.elements()
            if spec.family != "u" or c.tau() == c]
    for level in range(2, spec.ctx.k + 1):
        M = _reference_section(M, spec, level)
        A = Matrix.zero(M.ctx, spec.size)
        for B in basis:
            c = pool[rng.randrange(len(pool))]
            A = A + Matrix(M.ctx, (B * c).a * spec.ctx.p ** (level - 1))
        M = M * (Matrix.identity(M.ctx, spec.size) + A)
    return M


def _assert_batch_equals_loop(spec, count, seed):
    rng, ref = random.Random(seed), random.Random(seed)
    got = sample_haar_batch(spec, rng, count)
    want = [_reference_sample_haar(spec, ref).a for _ in range(count)]
    n, m = spec.size, spec.ctx.m
    assert got.shape == (count, n, n, m) and got.dtype == np.int64
    for g, w in zip(got, want):
        assert np.array_equal(g, w)
    assert rng.getstate() == ref.getstate()


@pytest.mark.parametrize("ctx", [F3, Z9, GR27, Z25], ids=repr)
@pytest.mark.parametrize("n", [1, 2, 3, 4, 8])
def test_gl_batch_equals_sample_loop(ctx, n):
    # 300 samples cross several blocks of candidate chunks
    _assert_batch_equals_loop(GroupSpec("gl", n, ctx), 300, 17 * n + ctx.mod)


@pytest.mark.parametrize("count", [0, 1, 2])
def test_gl_batch_small_counts(count):
    _assert_batch_equals_loop(GroupSpec("gl", 3, GR27), count, count)


@pytest.mark.parametrize("family,size,ctx,sign", [
    ("sl", 3, Z9, None), ("sp", 4, Z9, None),
    ("so", 3, Z9, 1), ("so", 3, Z9, -1),
    ("u", 2, G92, None), ("gl", 4, G92, None),
])
def test_other_specs_batch_equals_sample_loop(family, size, ctx, sign):
    _assert_batch_equals_loop(GroupSpec(family, size, ctx, sign), 12, 5)


# family, size, (p, m), sign: every family, so of both types, u over F_9
# and F_25, sl and gl over m = 2
FAMILY_SPECS = [
    ("gl", 3, (3, 1), None), ("gl", 3, (3, 2), None),
    ("sl", 3, (3, 1), None), ("sl", 2, (3, 2), None),
    ("sp", 4, (3, 1), None), ("so", 3, (3, 1), 1), ("so", 3, (5, 1), -1),
    ("so", 4, (3, 1), -1), ("u", 2, (3, 2), None), ("u", 3, (3, 2), None),
    ("u", 2, (5, 2), None),
]
SPEC_IDS = ["%s%d-p%dm%d%s" % (f, n, p, m, {1: "+", -1: "-"}.get(s, ""))
            for f, n, (p, m), s in FAMILY_SPECS]


@pytest.mark.parametrize("count", [0, 1, 7])
@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("family,size,pm,sign", FAMILY_SPECS, ids=SPEC_IDS)
def test_batch_equals_reference_loop(family, size, pm, sign, k, count):
    spec = GroupSpec(family, size, RingContext(*pm, k), sign)
    _assert_batch_equals_loop(spec, count, 100 * k + count)


@pytest.mark.parametrize("family,size,pm,sign", FAMILY_SPECS, ids=SPEC_IDS)
def test_checked_section_passes_on_every_sampled_row(family, size, pm, sign):
    ctx = RingContext(*pm, 3)
    spec = GroupSpec(family, size, ctx, sign)
    batch = sample_haar_batch(spec, random.Random(6), 50)
    for level in (2, 3):
        below = ctx.reduced_context(level - 1)
        for a in batch:
            M = Matrix(below, a)
            lifted = hensel_lift_section(M, spec, level, check=True)
            assert lifted == _reference_section(M, spec, level)


@pytest.mark.parametrize("pm", [(3, 2), (5, 2), (3, 3), (7, 1)])
def test_rank_test_agrees_with_the_determinant(pm):
    ctx = RingContext(*pm, 1)
    rng = random.Random(pm[0] ** pm[1])
    for n in (1, 2, 3, 4):
        for _ in range(75):
            M = Matrix.random(ctx, n, rng)
            assert _is_invertible_fq(ctx, M.a) == M.det().is_unit()
        # a last row summing the others is never invertible
        a = np.array(M.a)
        a[-1] = a[:-1].sum(axis=0)
        assert not _is_invertible_fq(ctx, Matrix(ctx, a).a)


def test_rank_test_builds_no_tables_above_the_bound():
    ctx = RingContext(3, 7, 1)  # q = 2187: a determinant decides
    a = np.array(Matrix.random(ctx, 2, random.Random(5)).a)
    a[1] = 2 * a[0]
    assert not _is_invertible_fq(ctx, a)
    assert _is_invertible_fq(ctx, Matrix.identity(ctx, 2).a)
    assert ctx not in _FIELD_TAB_CACHE


@pytest.mark.parametrize("ctx", [Z9, G92], ids=repr)
def test_inverse_batch_matches_per_matrix(ctx):
    rng = random.Random(3)
    spec = GroupSpec("gl", 3, ctx)
    batch = sample_haar_batch(spec, rng, 20)
    inv = inverse_batch(ctx, batch)
    eye = Matrix.identity(ctx, 3)
    for a, b in zip(batch, inv):
        assert Matrix(ctx, a) * Matrix(ctx, b) == eye
        assert Matrix(ctx, b) == _reference_inverse(Matrix(ctx, a))


# ---------------------------------------------------------------------------
# per-sample references for the experiments


def _reference_inverse(M):
    """Cayley-Hamilton on Matrix arithmetic, one matrix at a time."""
    c = char_poly(M)
    eye = Matrix.identity(M.ctx, M.n)
    acc = eye
    for j in range(M.n - 1, 0, -1):
        acc = M * acc + eye.scale(c.coeff(j))
    return acc.scale(-c.coeff(0).inv())


def _reference_traces(M, d1, d2):
    out = []
    for base, count in ((_reference_inverse(M) if d1 else M, d1), (M, d2)):
        P = Matrix.identity(M.ctx, M.n)
        traces = []
        for _ in range(count):
            P = P * base
            traces.append(P.trace())
        out.append(traces)
    return out


def _reference_datum_key(ctx, pos, neg):
    """TraceDatum.key() of the corrected datum, one GRElem at a time."""
    p, k = ctx.p, ctx.k
    entries = []
    for sign, traces in ((1, pos), (-1, neg)):
        for idx, t in enumerate(traces, start=1):
            v, j = 0, idx
            while j % p == 0:
                j //= p
                v += 1
            if v >= k:
                continue
            a = t - traces[idx // p - 1].sigma() if v else t
            assert a.valuation() >= v
            entries.append((sign * idx, a.coeffs.tobytes()))
    return (len(neg), len(pos), tuple(sorted(entries)))


def _reference_matrices(cfg):
    spec = cfg.group_spec()
    if cfg.mode == "exact":
        yield from enumerate_group(spec)
        return
    for shard, count in enumerate(_shard_sizes(cfg.samples, cfg.shards)):
        draws = draw_haar_streams(spec, [(_shard_rng(cfg.seed, shard), count)])
        for a in lift_haar_batch(spec, *draws):
            yield Matrix(spec.ctx, a)


def _reference_report(cfg, cells, key):
    hist = {}
    for M in _reference_matrices(cfg):
        k = key(M)
        hist[k] = hist.get(k, 0) + 1
    n = sum(hist.values())
    tv = tv_to_uniform(hist, cells)
    noise = expected_tv_noise(cells, n)
    report = {"N": n, "cell_count": cells, "tv": float(tv), "noise": noise,
              "min_count": min(hist.values()), "max_count": max(hist.values()),
              "pass": float(tv) < 2.5 * noise, "occupied_cells": len(hist)}
    if cfg.mode == "exact":
        # an exact law carries no Monte-Carlo verdict and no sampling noise
        del report["pass"], report["noise"]
    return report


def _reference_law_fields(cfg, key, r, noise):
    """exact_tv, law_tv and pass of a gl single-trace report, judged against
    the exact law of tr(M^r): over F_q every char poly f, with probability
    charpoly_prob_gl(f), gives tr(C_f^r) on its companion C_f, and each
    value over GR(p^k) has its residue's probability over its q^(k-1)
    lifts."""
    ctx = cfg.context()
    field = RingContext(ctx.p, ctx.m, 1)
    law = {}
    for f in monic_polys(field, cfg.n):
        if f.coeff(0).is_zero():
            continue
        C = Matrix.from_rows(field, [
            [field.one() if i == j + 1 else field.zero()
             for j in range(cfg.n - 1)] + [-f.coeff(i)]
            for i in range(cfg.n)])
        neg, pos = _reference_traces(C, max(-r, 0), max(r, 0))
        t = (pos or neg)[-1].coeffs.tobytes()
        law[t] = law.get(t, 0) + charpoly_prob_gl(f)
    q, spread = field.q, field.q ** (ctx.k - 1)
    exact_tv = sum(abs(law.get(np.array(t).tobytes(), 0) - Fraction(1, q))
                   for t in itertools.product(range(ctx.p), repeat=ctx.m))
    hist = {}
    for M in _reference_matrices(cfg):
        hist[key(M)] = hist.get(key(M), 0) + 1
    n = sum(hist.values())
    law_tv = 0
    for cell in itertools.product(range(ctx.mod), repeat=ctx.m):
        cell = np.array(cell)
        pr = law.get((cell % ctx.p).tobytes(), 0) / spread
        law_tv += abs(Fraction(hist.get(cell.tobytes(), 0), n) - pr)
    return {"exact_tv": float(exact_tv / 2), "law_tv": float(law_tv / 2),
            "pass": float(law_tv / 2) < 2.5 * noise}


def _fields(report):
    d = report.to_dict()
    del d["runtime_ms"]
    return d


@pytest.mark.parametrize("n,ctx,d1,d2,samples,mode", [
    (4, Z9, 0, 2, 400, "montecarlo"),
    (5, F3, 1, 2, 300, "montecarlo"),
    (3, GR27, 0, 3, 200, "montecarlo"),
    (3, G92, 0, 1, 40, "montecarlo"),
    (2, G92, 0, 3, 40, "montecarlo"),  # the Frobenius correction at i = 3
    (4, Z9, 1, 1, 5, "montecarlo"),  # fewer samples than shards
    (2, Z9, 1, 1, 0, "exact"),
    (2, F3, 0, 3, 0, "exact"),
])
def test_trace_equidistribution_matches_per_sample(n, ctx, d1, d2, samples,
                                                   mode):
    cfg = ExperimentConfig("gl", n, ctx.p, m=ctx.m, k=ctx.k, d1=d1, d2=d2,
                           samples=samples, seed=11, mode=mode)
    cells = datum_value_count(ctx, d1, d2)

    def key(M):
        neg, pos = _reference_traces(M, d1, d2)
        return _reference_datum_key(ctx, pos, neg)

    want = _reference_report(cfg, cells, key)
    got = _fields(run_trace_equidistribution(cfg))
    assert {f: got[f] for f in want} == want
    assert got["config"] == cfg.to_dict()


@pytest.mark.parametrize("family,n,ctx,r,samples,mode", [
    ("gl", 5, GR27, 4, 300, "montecarlo"),
    ("gl", 3, Z9, -2, 300, "montecarlo"),
    ("gl", 2, Z25, -1, 200, "montecarlo"),
    ("gl", 3, Z9, 2, 3, "montecarlo"),
    ("sp", 2, Z9, 2, 60, "montecarlo"),
    ("gl", 2, Z9, -2, 0, "exact"),
])
def test_single_trace_matches_per_sample(family, n, ctx, r, samples, mode):
    cfg = ExperimentConfig(family, n, ctx.p, m=ctx.m, k=ctx.k,
                           samples=samples, seed=4, mode=mode)
    cells = ctx.mod ** ctx.m

    def key(M):
        neg, pos = _reference_traces(M, max(-r, 0), max(r, 0))
        return (pos or neg)[-1].coeffs.tobytes()

    want = _reference_report(cfg, cells, key)
    del want["occupied_cells"]
    if family == "gl" and mode == "montecarlo":
        want.update(_reference_law_fields(cfg, key, r, want["noise"]))
    got = _fields(run_single_trace(cfg, r))
    assert {f: got[f] for f in want} == want
    assert set(got) == set(want) | {"schema_version", "config"}


@pytest.mark.parametrize("family,n,ctx,sign", [
    ("gl", 4, Z9, 1), ("gl", 3, GR27, 1), ("sp", 4, Z25, 1),
    ("so", 3, Z9, -1), ("u", 2, G92, 1),
])
def test_congruence_matches_per_sample(family, n, ctx, sign):
    cfg = ExperimentConfig(family, n, ctx.p, m=ctx.m, k=ctx.k, sign=sign,
                           samples=40, seed=9)
    p, k = ctx.p, ctx.k
    i_max = 2 * p * p
    checked = violations = 0
    for M in _reference_matrices(cfg):
        _, traces = _reference_traces(M, 0, i_max)
        for i in range(p, i_max + 1, p):
            v, j = 0, i
            while j % p == 0:
                j //= p
                v += 1
            delta = traces[i - 1] - traces[i // p - 1].sigma()
            checked += 1
            violations += delta.valuation() < min(v, k)
    rep = run_trace_congruence(cfg)
    assert (rep["checked"], rep["violations"]) == (checked, violations)
    assert rep["pass"] == (violations == 0)


@pytest.mark.parametrize("ctx", [GR27, G92], ids=repr)
@pytest.mark.parametrize("d1,d2", [(0, 3), (2, 2), (1, 0), (3, 9)])
def test_batch_of_one_api_matches_reference(ctx, d1, d2):
    rng = random.Random(8)
    spec = GroupSpec("gl", 4, ctx)
    for _ in range(5):
        M = sample_haar(spec, rng)
        neg, pos = _reference_traces(M, d1, d2)
        want = _reference_datum_key(ctx, pos, neg)
        assert matrix_traces(M, d1, d2) == (neg, pos)
        assert trace_datum_key(M, d1, d2) == want
        assert trace_datum_of(pos, neg).key() == want


def test_divisibility_is_checked_on_every_row():
    # tr(M^3) = sigma(tr(M)) mod 3 fails in the second sequence only
    pos = np.array([[[1], [0], [1]], [[1], [0], [2]]], dtype=np.int64)
    indices, entries = trace_data_batch(Z9, pos[:1], pos[:1, :0])
    assert indices == [1, 2, 3] and entries[0, :, 0].tolist() == [1, 0, 0]
    with pytest.raises(DivisibilityViolation):
        trace_data_batch(Z9, pos, pos[:, :0])
