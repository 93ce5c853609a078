"""The draw phase of the Haar sampler and the shard groups of the harness.

The isometry sampler keeps two growing eliminations in place of a fresh
row reduction per column and per candidate; its determinant is read off
one of them.  The references are the completion with one-shot reductions
(_solve_affine_tab per column, _rref per candidate) on the same stream,
det_batch, and the Gram matrix of each sample.  The
harness lifts and extracts once per group of whole shards; the reference
is one sample_haar_batch call per shard.
"""

import random

import numpy as np
import pytest

from padicmat import experiments
from padicmat import matrix_groups as mg
from padicmat.experiments import (
    ExperimentConfig,
    _cell_counts,
    _group_samples,
    _histogram,
    _power_traces,
    _shard_groups,
    _shard_rng,
    _shard_sizes,
    run_trace_congruence,
)
from padicmat.galois_rings import RingContext
from padicmat.matrix_groups import (
    GroupSpec,
    _echelon_insert,
    _field_index,
    _field_tables,
    _rref,
    _sample_isometry,
    _solve_affine_tab,
    det_batch,
    draw_haar_batch,
    lift_haar_batch,
    sample_fq,
    sample_haar_batch,
)

F3 = RingContext(3, 1, 1)
F5 = RingContext(5, 1, 1)
F9 = RingContext(3, 2, 1)
F25 = RingContext(5, 2, 1)

# SO_3^+-, SO_4^+-, SO_5^+- over F_3 and F_5
SO_SPECS = [(n, ctx, sign) for ctx in (F3, F5) for n in (3, 4, 5)
            for sign in (1, -1)]


def _gram(spec, a):
    """M^t B M, or M M* for u, over the residue field."""
    ctx = spec.ctx
    if spec.family == "u":
        return ctx.mat_mul(a, np.swapaxes(ctx.vec_tau(a), -3, -2))
    return ctx.mat_mul(ctx.mat_mul(np.swapaxes(a, -3, -2), spec.form.a), a)


def _isometries(spec, count, seed):
    rng = random.Random(seed)
    draws = [_sample_isometry(spec, spec.ctx, rng) for _ in range(count)]
    return np.stack([a for a, _ in draws]), [det for _, det in draws]


@pytest.mark.parametrize("n,ctx,sign", SO_SPECS,
                         ids=["so%d%s-F%d" % (n, "+-"[sign < 0], ctx.q)
                              for n, ctx, sign in SO_SPECS])
def test_echelon_determinant_matches_det_batch(n, ctx, sign):
    spec = GroupSpec("so", n, ctx, sign)
    a, dets = _isometries(spec, 200, 10 * n + ctx.q + sign)
    assert np.all(_gram(spec, a) == spec.form.a)
    assert _field_index(ctx, det_batch(ctx, a)).tolist() == dets
    # the orthogonal group splits into its two determinants
    assert set(dets) == {1, _field_tables(ctx).neg[1]}


@pytest.mark.parametrize("family,n,ctx", [
    ("sp", 4, F3), ("sp", 6, F5), ("u", 2, F9), ("u", 3, F9), ("u", 2, F25),
])
def test_isometry_gram_and_determinant_other_forms(family, n, ctx):
    spec = GroupSpec(family, n, ctx)
    a, dets = _isometries(spec, 200, n * ctx.q)
    assert np.all(_gram(spec, a) == spec.form.a)  # u's form is I
    assert _field_index(ctx, det_batch(ctx, a)).tolist() == dets


def _reference_isometry(spec, ctx, rng):
    """The column completion with a fresh Gram system per column
    (_solve_affine_tab) and a fresh _rref per candidate."""
    tab = _field_tables(ctx)
    add, mul, conj = tab.add, tab.mul, tab.conj
    n = spec.size
    B = _field_index(ctx, spec.form.a).tolist()
    cols = []
    for j in range(n):
        rows, rhs = [], []
        for i, ci in enumerate(cols):
            if spec.family == "u":
                rows.append([conj[c] for c in ci])
                rhs.append(int(i == j))
            else:
                row = []
                for jj in range(n):
                    acc = 0
                    for t in range(n):
                        acc = add[acc][mul[ci[t]][B[t][jj]]]
                    row.append(acc)
                rows.append(row)
                rhs.append(B[i][j])
        particular, null = _solve_affine_tab(tab, rows, rhs, n)
        while True:
            v = list(particular)
            for bvec in null:
                mc = mul[rng.randrange(ctx.q)]
                v = [add[a][mc[b]] for a, b in zip(v, bvec)]
            val = 0
            for i in range(n):
                for t in range(n):
                    left = conj[v[i]] if spec.family == "u" else v[i]
                    b = int(i == t) if spec.family == "u" else B[i][t]
                    val = add[val][mul[mul[left][b]][v[t]]]
            want = 1 if spec.family == "u" else B[j][j]
            if val == want and len(_rref(tab, cols + [v])[0]) > j:
                break
        cols.append(v)
    return tab.coeffs[np.array(cols).T]


ISOMETRY_SPECS = [("so", n, ctx, sign) for n, ctx, sign in SO_SPECS] + [
    ("sp", 2, F3, None), ("sp", 4, F5, None), ("sp", 6, F3, None),
    ("u", 2, F9, None), ("u", 3, F9, None), ("u", 2, F25, None),
]


SIGNS = {1: "+", -1: "-", None: ""}


@pytest.mark.parametrize("family,n,ctx,sign", ISOMETRY_SPECS,
                         ids=["%s%d%s-F%d" % (f, n, SIGNS[s], ctx.q)
                              for f, n, ctx, s in ISOMETRY_SPECS])
def test_isometry_stream_matches_fresh_reductions(family, n, ctx, sign):
    spec = GroupSpec(family, n, ctx, sign)
    rng, ref = random.Random(n * ctx.q), random.Random(n * ctx.q)
    for _ in range(40):
        a, _ = _sample_isometry(spec, ctx, rng)
        assert np.array_equal(a, _reference_isometry(spec, ctx, ref))
    assert rng.getstate() == ref.getstate()


@pytest.mark.parametrize("ctx", [F3, F5, F9, F25], ids=lambda c: "F%d" % c.q)
def test_echelon_insert_is_the_rref(ctx):
    # rows inserted one at a time, each independent of those before, give
    # the reduced row echelon form of _rref: the same rows and pivots
    tab = _field_tables(ctx)
    rng = random.Random(ctx.q)
    for _ in range(30):
        width = rng.randrange(2, 9)
        rows, system = [], []
        for _ in range(rng.randrange(1, width + 1)):
            row = [rng.randrange(ctx.q) for _ in range(width)]
            if len(_rref(tab, rows + [row])[0]) == len(rows):
                continue
            rows.append(row)
            system = _echelon_insert(tab, system, row)
        red, pivots = _rref(tab, rows)
        assert sorted(system) == sorted(zip(pivots, red))


def test_sample_fq_is_the_draw_of_the_batch():
    # sample_fq and draw_haar_batch at k = 1 read the same stream, and sl's
    # lift is its scaling of row 0
    for family, n, ctx, sign in (("sl", 3, F5, None), ("so", 4, F3, -1),
                                 ("sp", 4, F3, None), ("u", 2, F9, None),
                                 ("gl", 3, F9, None)):
        spec = GroupSpec(family, n, ctx, sign)
        rng, ref = random.Random(n), random.Random(n)
        residues, idx = draw_haar_batch(spec, rng, 25)
        assert idx.shape == (25, 0, 0)
        want = [sample_fq(spec, ref).a for _ in range(25)]
        assert np.array_equal(lift_haar_batch(spec, residues, idx), want)
        assert rng.getstate() == ref.getstate()


# ---------------------------------------------------------------------------
# draws without determinants, one section per level and group


class _Counter:
    def __init__(self, monkeypatch, name):
        self.calls = 0
        fn = getattr(mg, name)

        def counted(*args, **kwargs):
            self.calls += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(mg, name, counted)


@pytest.mark.parametrize("n,sign", [(3, 1), (3, -1), (4, -1)])
def test_so_draws_take_no_determinant(monkeypatch, n, sign):
    spec = GroupSpec("so", n, RingContext(3, 1, 2), sign)
    sample_haar_batch(spec, random.Random(1), 2)  # caches
    dets = _Counter(monkeypatch, "det_batch")
    draw_haar_batch(spec, random.Random(2), 60)
    sample_fq(spec, random.Random(3))
    assert dets.calls == 0


def test_sl_section_once_per_level_and_group(monkeypatch):
    cfg = ExperimentConfig("sl", 3, 3, k=3, samples=2000, seed=4)
    sections = _Counter(monkeypatch, "_section_batch")
    groups = len(list(_shard_batches(cfg)))
    # 2000 SL_3 samples hold 18 000 entries: two groups of whole shards
    assert groups == 2
    assert sections.calls == 3 * groups  # the residue scaling and two levels


# ---------------------------------------------------------------------------
# groups of whole shards against one batch per shard


def _shard_batches(cfg):
    return [_group_samples(cfg, group) for group in _shard_groups(cfg)]


def _per_shard(cfg):
    spec = cfg.group_spec()
    for shard, count in enumerate(_shard_sizes(cfg.samples, cfg.shards)):
        if count:
            yield sample_haar_batch(spec, _shard_rng(cfg.seed, shard), count)


def _one_shard_groups(cfg):
    return [[(shard, count)] for shard, count
            in enumerate(_shard_sizes(cfg.samples, cfg.shards)) if count]


def _trace_rows(ctx, a):
    return _cell_counts(_power_traces(ctx, a, 3).reshape(len(a), -1))


# family, n, (p, m, k), sign, samples: each splits into two or more groups
GROUPED = [
    ("gl", 3, (3, 1, 2), 1, 1900), ("gl", 2, (3, 2, 2), 1, 2100),
    ("sl", 3, (3, 1, 3), 1, 1900), ("sp", 4, (3, 1, 2), 1, 1100),
    ("so", 3, (5, 1, 2), -1, 1900), ("u", 2, (3, 2, 2), 1, 2100),
    ("gl", 5, (3, 1, 3), 1, 4000), ("sp", 2, (3, 1, 2), 1, 17),
]


@pytest.mark.parametrize("family,n,pmk,sign,samples", GROUPED,
                         ids=["%s%d-%d^%d,%d-%d" % (f, n, p, k, m, s)
                              for f, n, (p, m, k), _, s in GROUPED])
def test_groups_equal_one_batch_per_shard(monkeypatch, family, n, pmk, sign,
                                          samples):
    p, m, k = pmk
    cfg = ExperimentConfig(family, n, p, m=m, k=k, sign=sign,
                           samples=samples, seed=21)
    groups = _shard_batches(cfg)
    shards = list(_per_shard(cfg))
    if samples > 1000:
        assert 1 < len(groups) < len(shards)
    assert np.array_equal(np.concatenate(groups), np.concatenate(shards))
    entries = n * n * m
    assert all(len(g) * entries <= experiments._GROUP_ENTRIES for g in groups)

    grouped_hist = _histogram(cfg, 1, _trace_rows)
    grouped_congruence = run_trace_congruence(cfg)
    monkeypatch.setattr(experiments, "_shard_groups", _one_shard_groups)
    assert _histogram(cfg, 1, _trace_rows) == grouped_hist
    assert run_trace_congruence(cfg) == grouped_congruence


def test_a_shard_above_the_cap_is_its_own_group():
    # 250 GL_8 samples hold 16 000 entries, so no two shards fit together
    cfg = ExperimentConfig("gl", 8, 3, k=2, samples=4000, seed=2)
    groups = list(_shard_batches(cfg))
    assert [len(g) for g in groups] == [250] * 16
    cfg = ExperimentConfig("gl", 9, 3, samples=3300, seed=2)
    assert [len(g) for g in _shard_batches(cfg)] == [207] * 4 + [206] * 12
