"""The table-index _rref against GRElem eliminations over F_3, F_5, F_9, F_25.

The references below are the element-by-element eliminations that the
package used before every residue-field row reduction moved onto the
indices of _field_tables: a reduced row echelon form, its nullspace, and
the minimal polynomial by echelon rows that carry their combination of
powers.  They run on GRElem arithmetic only.
"""

import random

import numpy as np
import pytest

from padicmat.char_derivative import dchar_map, _index_rows, _split_fixed
from padicmat.galois_rings import GRElem, RingContext
from padicmat.matrix_groups import (
    GroupSpec,
    Matrix,
    lie_algebra_basis,
    min_poly_mod_p,
    sample_fq,
    _field_tables,
    _rref,
    _solve_affine_tab,
)
from padicmat.polynomials import Poly

F3 = RingContext(3, 1, 1)
F5 = RingContext(5, 1, 1)
F9 = RingContext(3, 2, 1)
F25 = RingContext(5, 2, 1)
FIELDS = [F3, F5, F9, F25]


def rref_reference(rows):
    """Reduced row echelon form of GRElem rows; returns (rows, pivots)."""
    rows = [list(r) for r in rows]
    pivots = []
    r = 0
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(rows))
                    if not rows[i][c].is_zero()), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = rows[r][c].inv()
        rows[r] = [a * inv for a in rows[r]]
        for i in range(len(rows)):
            if i != r and not rows[i][c].is_zero():
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows[:r], pivots


def nullspace_reference(ctx, rows):
    """Nullspace basis of GRElem rows, free columns in increasing order."""
    ncols = len(rows[0])
    red, pivots = rref_reference(rows)
    basis = []
    for fc in range(ncols):
        if fc in pivots:
            continue
        vec = [ctx.zero()] * ncols
        vec[fc] = ctx.one()
        for prow, pc in zip(red, pivots):
            vec[pc] = -prow[fc]
        basis.append(vec)
    return basis


def min_poly_reference(M):
    """Minimal polynomial of M mod p, one power at a time."""
    M = M.reduce(1)
    ctx, n = M.ctx, M.n
    powers = [Matrix.identity(ctx, n)]
    rows = []  # echelon rows, each with its combination of powers
    for r in range(1, n + 2):
        powers.append(powers[-1] * M)
        vec = [powers[r - 1].entry(i, j) for i in range(n) for j in range(n)]
        comb = [ctx.one() if t == r - 1 else ctx.zero() for t in range(r)]
        for prow, pcomb, piv in rows:
            c = vec[piv]
            if not c.is_zero():
                vec = [a - c * b for a, b in zip(vec, prow)]
                pad = pcomb + [ctx.zero()] * (r - len(pcomb))
                comb = [a - c * b for a, b in zip(comb, pad)]
        nz = next((t for t, a in enumerate(vec) if not a.is_zero()), None)
        if nz is None:
            return Poly(ctx, comb)
        pivinv = vec[nz].inv()
        vec = [a * pivinv for a in vec]
        comb = [a * pivinv for a in comb]
        rows.append((vec, comb, nz))
    raise RuntimeError("no annihilator found")


def lie_basis_reference(spec):
    """sp/so Lie algebra: nullspace of X -> B X + X^t B over F_q."""
    ctx = spec.ctx.reduced_context(1)
    n = spec.size
    B = spec.form.reduce(1) if spec.ctx.k > 1 else spec.form
    cols = []
    for i in range(n):
        for j in range(n):
            a = np.zeros((n, n, ctx.m), dtype=np.int64)
            a[i, j, 0] = 1
            E = Matrix(ctx, a)
            C = B * E + E.transpose() * B
            cols.append([C.entry(s, t) for s in range(n) for t in range(n)])
    system = [list(r) for r in zip(*cols)]
    return [Matrix.from_rows(ctx, [vec[i * n:(i + 1) * n] for i in range(n)])
            for vec in nullspace_reference(ctx, system)]


def random_rows(ctx, rng, nrows, ncols, rank):
    """nrows x ncols GRElem rows of rank <= rank, zero rows included."""
    left = [[ctx.random_elem(rng) for _ in range(rank)] for _ in range(nrows)]
    right = [[ctx.random_elem(rng) for _ in range(ncols)] for _ in range(rank)]
    rows = [[sum((a * right[t][c] for t, a in enumerate(row)), ctx.zero())
             for c in range(ncols)] for row in left]
    rows[rng.randrange(nrows)] = [ctx.zero()] * ncols
    return rows


@pytest.mark.parametrize("ctx", FIELDS, ids=lambda c: "F%d" % c.q)
def test_rref_matches_reference(ctx):
    rng = random.Random(ctx.q)
    tab = _field_tables(ctx)
    for _ in range(20):
        nrows, ncols = rng.randrange(1, 7), rng.randrange(1, 7)
        rows = random_rows(ctx, rng, nrows, ncols, rng.randrange(0, 5))
        red, pivots = rref_reference(rows)
        assert _rref(tab, _index_rows(ctx, rows)) == (_index_rows(ctx, red), pivots)


@pytest.mark.parametrize("ctx", FIELDS, ids=lambda c: "F%d" % c.q)
def test_solve_affine_matches_reference(ctx):
    rng = random.Random(100 + ctx.q)
    tab = _field_tables(ctx)
    for _ in range(20):
        ncols = rng.randrange(1, 6)
        rows = random_rows(ctx, rng, rng.randrange(1, 5), ncols,
                           rng.randrange(0, 4))
        rhs = [ctx.random_elem(rng) for _ in rows]
        aug = [r + [b] for r, b in zip(rows, rhs)]
        red, pivots = rref_reference(aug)
        got = _solve_affine_tab(tab, _index_rows(ctx, rows),
                                _index_rows(ctx, [rhs])[0], ncols)
        if ncols in pivots:
            assert got is None
            continue
        particular = [ctx.zero()] * ncols
        for prow, pc in zip(red, pivots):
            particular[pc] = prow[ncols]
        assert got == (_index_rows(ctx, [particular])[0],
                       _index_rows(ctx, nullspace_reference(ctx, rows)))


def _min_poly_cases(ctx, rng):
    for n in range(1, 6):
        for _ in range(4):
            yield Matrix.random(ctx, n, rng)
        c = ctx.random_elem(rng)
        yield Matrix.identity(ctx, n).scale(c)  # scalar, min poly x - c
        # nilpotent: strictly upper triangular, conjugated by a unit matrix
        a = np.array(Matrix.random(ctx, n, rng).a)
        a[np.tril_indices(n)] = 0
        g = sample_fq(GroupSpec("gl", n, ctx), rng)
        yield g * Matrix(ctx, a) * g.inverse()
    # the zero matrix and a Jordan-block sum with repeated eigenvalue
    yield Matrix.zero(ctx, 3)
    yield Matrix.from_rows(ctx, [[1, 1, 0, 0], [0, 1, 0, 0],
                                 [0, 0, 1, 0], [0, 0, 0, 2]])


@pytest.mark.parametrize("ctx", FIELDS, ids=lambda c: "F%d" % c.q)
def test_min_poly_matches_reference(ctx):
    rng = random.Random(200 + ctx.q)
    for M in _min_poly_cases(ctx, rng):
        assert min_poly_mod_p(M) == min_poly_reference(M), M


def test_min_poly_of_ring_matrices_reduces_first():
    rng = random.Random(7)
    for ctx in (RingContext(3, 1, 2), RingContext(3, 2, 2)):
        for _ in range(10):
            M = Matrix.random(ctx, 3, rng)
            assert min_poly_mod_p(M) == min_poly_reference(M)


@pytest.mark.parametrize("ctx", FIELDS, ids=lambda c: "F%d" % c.q)
def test_lie_algebra_basis_matches_reference(ctx):
    for family, size, sign in (("sp", 2, None), ("sp", 4, None),
                               ("so", 3, 1), ("so", 3, -1), ("so", 4, -1)):
        spec = GroupSpec(family, size, ctx, sign)
        assert lie_algebra_basis(spec) == lie_basis_reference(spec)


@pytest.mark.parametrize("family,size,ctx,sign", [
    ("gl", 3, F3, None), ("gl", 3, F5, None), ("sl", 3, F9, None),
    ("sp", 4, F3, None), ("sp", 2, F25, None), ("so", 3, F5, 1),
    ("so", 4, F3, -1), ("u", 2, F9, None), ("u", 2, F25, None),
])
def test_image_rref_matches_reference(family, size, ctx, sign):
    spec = GroupSpec(family, size, ctx, sign)
    rng = random.Random(size * ctx.q)
    for _ in range(8):
        lm = dchar_map(sample_fq(spec, rng), spec)
        coeffs = _split_fixed(ctx, lm.coeffs) if family == "u" else lm.coeffs
        rows = [[GRElem(ctx, c) for c in row] for row in coeffs]
        red, _ = rref_reference([r for r in rows
                                 if any(not a.is_zero() for a in r)])
        assert lm.image_rref() == _index_rows(ctx, red)
