"""Batched enumeration, Berkowitz and class census against per-matrix code."""

import itertools
import random

import numpy as np
import pytest

from padicmat import conjugacy
from padicmat.experiments import ExperimentConfig, run_fulman_consistency
from padicmat.galois_rings import RingContext
from padicmat.matrix_groups import (
    GroupSpec,
    Matrix,
    char_poly,
    char_poly_batch,
    enumerate_group,
)

F3 = RingContext(3, 1, 1)
F9 = RingContext(3, 2, 1)
Z9 = RingContext(3, 1, 2)
G92 = RingContext(3, 2, 2)  # GR(9, 2)
Z27 = RingContext(3, 1, 3)


def _reference_is_member(spec, M):
    """The per-matrix membership formulas, on Matrix arithmetic."""
    one = spec.ctx.one()
    if spec.family == "gl":
        return M.det().is_unit()
    if spec.family == "sl":
        return M.det() == one
    if spec.family == "sp":
        return M.transpose() * spec.form * M == spec.form
    if spec.family == "so":
        return (M.transpose() * spec.form * M == spec.form
                and M.det() == one)
    return M * M.conj_transpose() == Matrix.identity(spec.ctx, spec.size)


def _reference_enumerate(spec):
    """One candidate at a time, in itertools.product order."""
    ctx, n = spec.ctx, spec.size
    out = []
    for flat in itertools.product(range(ctx.mod), repeat=n * n * ctx.m):
        M = Matrix(ctx, np.array(flat, dtype=np.int64).reshape(n, n, ctx.m))
        if _reference_is_member(spec, M):
            out.append(M)
    return out


def _brute_force_enumerate(spec):
    """member_mask over every candidate of the ring, in blocks, in
    itertools.product order: the vectorized brute force that enumerate_group
    ran at every level before it lifted the residue-level members."""
    ctx, n = spec.ctx, spec.size
    width = n * n * ctx.m
    count = ctx.mod ** width
    place = ctx.mod ** np.arange(width - 1, -1, -1, dtype=np.int64)
    out = []
    for start in range(0, count, 2 ** 14):
        index = np.arange(start, min(start + 2 ** 14, count))
        block = (index[:, None] // place % ctx.mod).reshape(-1, n, n, ctx.m)
        out.extend(Matrix(ctx, a) for a in block[spec.member_mask(block)])
    return out


@pytest.mark.parametrize("family,size,ctx,sign", [
    ("gl", 2, F3, None), ("sl", 2, F3, None),
    ("gl", 2, Z9, None), ("sl", 2, Z9, None),
    ("sp", 2, F3, None),
    ("so", 3, F3, 1), ("so", 3, F3, -1),
    ("u", 2, F9, None),
    ("sp", 2, Z9, None),
    ("so", 2, Z9, 1), ("so", 2, Z9, -1),
    ("u", 1, G92, None),
    ("gl", 1, Z27, None), ("sl", 2, Z27, None),
])
def test_enumerate_group_matches_per_candidate_loop(family, size, ctx, sign):
    # the per-candidate loop is the reference up to 3^9 candidates; SL_2(Z/27)
    # (27^4) is checked against the vectorized brute force alone
    spec = GroupSpec(family, size, ctx, sign)
    got = enumerate_group(spec)
    want = _brute_force_enumerate(spec)
    assert len(got) == len(want) > 0
    assert got == want  # same matrices in the same order
    if ctx.mod ** (size * size * ctx.m) <= 3 ** 9:
        assert want == _reference_enumerate(spec)


@pytest.mark.parametrize("ctx", [Z9, G92])
def test_char_poly_batch_rows_match_char_poly(ctx):
    rng = np.random.default_rng(11)
    for n in (1, 2, 3, 4):
        a = rng.integers(0, ctx.mod, size=(2, 3, n, n, ctx.m))
        batch = char_poly_batch(ctx, a)
        assert batch.shape == (2, 3, n + 1, ctx.m)
        for i, j in itertools.product(range(2), range(3)):
            f = char_poly(Matrix(ctx, a[i, j]))
            assert [c.coeffs.tolist() for c in f.coeffs] == batch[i, j].tolist()


def test_member_mask_agrees_with_reference_on_random_batches():
    rng = random.Random(4)
    for family, size, ctx, sign in (("gl", 3, G92, None), ("sl", 2, G92, None),
                                    ("sp", 4, Z9, None), ("so", 3, Z9, -1),
                                    ("u", 2, G92, None)):
        spec = GroupSpec(family, size, ctx, sign)
        mats = [Matrix.random(ctx, size, rng) for _ in range(20)]
        mats.append(Matrix.identity(ctx, size))
        mask = spec.member_mask(np.stack([M.a for M in mats]))
        assert mask.tolist() == [_reference_is_member(spec, M) for M in mats]
        assert mask[-1]


@pytest.mark.parametrize("family,order,classes", [
    ("gl", 5760, 80),  # q^2 - 1 classes in GL_2(F_9)
    ("sl", 720, 11),
])
def test_fulman_consistency_over_f9(family, order, classes):
    rep = run_fulman_consistency(ExperimentConfig(family, 2, 3, m=2,
                                                  mode="exact"))
    assert (rep["order"], rep["classes"], rep["mismatches"]) == (
        order, classes, [])
    assert rep["pass"]


def test_census_factors_each_char_poly_once(monkeypatch):
    calls = []
    real = conjugacy.factor

    def counting(f):
        calls.append(f)
        return real(f)

    monkeypatch.setattr(conjugacy, "factor", counting)
    rep = run_fulman_consistency(ExperimentConfig("gl", 3, 3, mode="exact"))
    assert (rep["order"], rep["classes"], rep["mismatches"]) == (11232, 24, [])
    # 18 distinct char polys f with f(0) != 0 over F_3 of degree 3
    assert len(calls) == len({f for f in calls}) <= 18


def test_class_of_matrix_matches_census_over_f9():
    spec = GroupSpec("gl", 2, F9)
    group = enumerate_group(spec)
    census = conjugacy.class_census_gl(F9, [np.stack([M.a for M in group])])
    counts = {}
    for M in group[::37]:
        d = conjugacy.class_of_matrix_gl(M)
        assert d.char_poly() == char_poly(M)
        counts[d.canonical()] = census[d.canonical()][1]
    assert sum(count for _, count in census.values()) == len(group)
    assert all(count > 0 for count in counts.values())


def test_census_rejects_singular_and_non_field_input():
    with pytest.raises(ValueError):
        conjugacy.class_of_matrix_gl(Matrix.zero(F3, 2))
    with pytest.raises(ValueError):
        conjugacy.class_of_matrix_gl(Matrix.identity(Z9, 2))
