"""The batched class census against the per-matrix rank loop it replaced.

`class_census_gl` reads each block's classes off one Berkowitz pass, one
`_rank_batch` per repeated prime and one count of the distinct (char poly,
rank profile) rows.  The reference below is the census as it ran before:
grouped by char poly, with one `_rref` per matrix per power of phi(M).  The
two must give the same dict: the same classes, counts and order.
"""

import collections

import numpy as np
import pytest

from padicmat import conjugacy, matrix_groups
from padicmat.conjugacy import ConjClassDatum, Partition, class_census_gl
from padicmat.galois_rings import RingContext
from padicmat.matrix_groups import (
    GroupSpec,
    Matrix,
    char_poly,
    char_poly_batch,
    enumerate_blocks,
    _field_index,
    _field_tables,
    _rref,
)
from padicmat.polynomials import Poly, factor

F3 = RingContext(3, 1, 1)
F5 = RingContext(5, 1, 1)
F9 = RingContext(3, 2, 1)


def _reference_census(ctx, blocks):
    """The census one matrix at a time: per char poly and prime, the ranks
    of phi(M)^j by _rref until they reach n - e deg phi."""
    tab = _field_tables(ctx)
    factored = {}
    counts = collections.Counter()
    for a in blocks:
        chars = char_poly_batch(ctx, a)
        keys, which = np.unique(_field_index(ctx, chars), axis=0,
                                return_inverse=True)
        which = which.reshape(-1)
        for u, key in enumerate(keys):
            mask = which == u
            key = key.tobytes()
            if key not in factored:
                factored[key] = factor(
                    Poly(ctx, chars[np.argmax(mask)].tolist()))
            parts = zip(*[_reference_partitions(ctx, tab, a[mask], phi, e)
                          for phi, e in factored[key]])
            counts.update((key, lams) for lams in parts)
    census = {}
    for (key, lams), count in counts.items():
        datum = ConjClassDatum("gl", ctx, {
            phi: (Partition(lam), {})
            for (phi, _), lam in zip(factored[key], lams)})
        census[datum.canonical()] = (datum, count)
    return census


def _reference_partitions(ctx, tab, a, phi, e):
    n, d = a.shape[-3], phi.degree
    floor = n - e * d
    eye = np.eye(n, dtype=np.int64)[:, :, None]
    P = np.zeros_like(a)
    for c in reversed(phi.coeffs):
        P = (ctx.mat_mul(P, a) + eye * c.coeffs) % ctx.mod
    out = []
    for M in P:
        dual, rank, Q = [], n, M
        while rank > floor:
            r = len(_rref(tab, _field_index(ctx, Q).tolist())[0])
            assert (rank - r) % d == 0 and floor <= r < rank
            dual.append((rank - r) // d)
            rank, Q = r, ctx.mat_mul(Q, M)
        out.append(Partition(dual).dual().parts)
    return out


def _assert_same_census(ctx, blocks):
    got = class_census_gl(ctx, blocks)
    want = _reference_census(ctx, blocks)
    assert list(got) == list(want)  # the same classes in the same order
    for key, (datum, count) in want.items():
        assert got[key][0] == datum and got[key][1] == count
    return got


def _companion(ctx, coeffs):
    """Companion matrix of the monic polynomial with the low coefficients
    coeffs (constant first), over m = 1."""
    n = len(coeffs)
    a = np.zeros((n, n, 1), dtype=np.int64)
    a[np.arange(1, n), np.arange(n - 1), 0] = 1
    a[:, n - 1, 0] = [-c % ctx.p for c in coeffs]
    return a


def _random_members(ctx, n, count, seed):
    a = np.random.default_rng(seed).integers(0, ctx.p, size=(count, n, n, 1))
    return a[GroupSpec("gl", n, ctx).member_mask(a)]


def _gl4_f3_blocks():
    """A random GL_4(F_3) block with hand-built matrices in its middle, and
    a block of the hand-built ones alone.  They have repeated primes: x^2 + 1
    twice as one Jordan block (partition (2)) and as two (partition
    (1, 1)), x - 1 four times, and x - 1, x + 1 twice each."""
    C = _companion(F3, [1, 0])  # x^2 + 1
    diag_cc = np.zeros((4, 4, 1), dtype=np.int64)
    diag_cc[:2, :2], diag_cc[2:, 2:] = C, C
    hand = [
        _companion(F3, [1, 0, 2, 0]),  # (x^2 + 1)^2
        diag_cc,
        _companion(F3, [1, 2, 0, 2]),  # (x - 1)^4 = x^4 + 2x^3 + 2x + 1
        np.eye(4, dtype=np.int64)[:, :, None],
        _companion(F3, [1, 0, 1, 0]),  # (x - 1)^2 (x + 1)^2 = x^4 - 2x^2 + 1
        2 * np.eye(4, dtype=np.int64)[:, :, None],
    ]
    a = _random_members(F3, 4, 400, 7)
    return [np.concatenate([a[:100], np.stack(hand), a[100:]]),
            np.stack(hand * 3)]


@pytest.mark.parametrize("family,n,ctx", [
    ("gl", 2, F9), ("gl", 3, F3), ("sl", 3, F3),
])
def test_census_of_enumerated_groups_matches_reference(family, n, ctx):
    blocks = list(enumerate_blocks(GroupSpec(family, n, ctx)))
    census = _assert_same_census(ctx, blocks)
    assert sum(c for _, c in census.values()) == sum(len(b) for b in blocks)


def test_census_of_gl4_f3_with_repeated_quadratics_matches_reference():
    blocks = _gl4_f3_blocks()
    _assert_same_census(F3, blocks)
    hand = class_census_gl(F3, blocks[1:])
    x2p1 = Poly(F3, [1, 0, 1])
    for a, parts in ((blocks[1][0], (2,)), (blocks[1][1], (1, 1))):
        datum = conjugacy.class_of_matrix_gl(Matrix(F3, a))
        assert datum.entries[x2p1][0].parts == parts
        assert hand[datum.canonical()][1] == 3
    M = Matrix(F3, blocks[1][2])
    assert char_poly(M) == Poly(F3, [2, 1]) ** 4  # really (x - 1)^4


def test_census_of_random_gl4_f5_block_matches_reference():
    a = _random_members(F5, 4, 600, 11)
    _assert_same_census(F5, [a[:200], a[200:]])


def test_census_runs_one_rank_pass_per_block_and_repeated_prime(monkeypatch):
    def no_rref(tab, rows):
        raise AssertionError("the census reduced a single system")

    passes = []
    real = conjugacy._rank_batch

    def counting(tab, a):
        passes.append(len(a))
        return real(tab, a)

    monkeypatch.setattr(matrix_groups, "_rref", no_rref)
    monkeypatch.setattr(conjugacy, "_rank_batch", counting)
    assert not hasattr(conjugacy, "_rref")
    blocks = _gl4_f3_blocks()
    class_census_gl(F3, blocks)
    expect = sum(len({phi for M in block
                      for phi, e in factor(char_poly(Matrix(F3, M)))
                      if e > 1})
                 for block in blocks)
    assert len(passes) == expect > len(blocks)
