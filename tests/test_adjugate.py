"""One determinant and one adjugate, against independent references.

Every determinant, inverse and adjugate of xI - M in the package comes
from one Berkowitz pass (char_poly_batch) and one Horner recurrence
(adjugate_batch), and dchar_map builds Adj(x - A0) once per matrix.  The
references below are the bodies they replaced: the adjugate as a loop of
Matrix products, the inverse as a loop over the batch array, and dchar as
one adjugate per Lie-basis element with its value split into tau-fixed
components one GRElem at a time.  The determinant is checked against
sympy's integer determinant and against the Leibniz formula on GRElem,
which share nothing with Berkowitz.
"""

import itertools
import random

import numpy as np
import pytest
import sympy

from padicmat.char_derivative import (
    dchar_map,
    dchar_poly,
    dchar_poly_noncentral,
    dtrace_functional,
    generic_adjugate_pm,
    _index_rows,
)
from padicmat.galois_rings import RingContext
from padicmat.matrix_groups import (
    GroupSpec,
    Matrix,
    adjugate_batch,
    adjugate_x_minus,
    char_poly,
    char_poly_batch,
    inverse_batch,
    lie_algebra_basis,
    poly_matrix_entry,
    sample_fq,
    sample_haar_batch,
    _field_tables,
    _rref,
)
from padicmat.polynomials import Poly

F3 = RingContext(3, 1, 1)
F5 = RingContext(5, 1, 1)
F9 = RingContext(3, 2, 1)
Z9 = RingContext(3, 1, 2)
Z25 = RingContext(5, 1, 2)
Z27 = RingContext(3, 1, 3)
G92 = RingContext(3, 2, 2)  # GR(9, 2)
G272 = RingContext(3, 2, 3)  # GR(27, 2)
# m = 1 and m = 2 at levels k = 1, 2, 3
BATCH_CONTEXTS = [F3, Z9, Z27, F9, G92, G272]


# ---------------------------------------------------------------------------
# references


def adjugate_reference(M):
    """[B_0, ..., B_{n-1}] by the Horner recurrence on Matrix arithmetic."""
    ctx, n = M.ctx, M.n
    c = char_poly(M)
    B = [None] * n
    B[n - 1] = Matrix.identity(ctx, n)
    for j in range(n - 1, 0, -1):
        B[j - 1] = M * B[j] + Matrix.identity(ctx, n).scale(c.coeff(j))
    return B


def inverse_batch_reference(ctx, a):
    """M (M^{n-1} + c_{n-1} M^{n-2} + ... + c_1 I) = -c_0 I over the batch."""
    n = a.shape[-3]
    c = char_poly_batch(ctx, a)
    diag = np.arange(n)
    acc = Matrix.identity(ctx, n).a
    for j in range(n - 1, 0, -1):
        acc = ctx.mat_mul(a, acc)
        acc[..., diag, diag, :] += c[..., j, None, :]
        acc %= ctx.mod
    scale = -ctx.vec_inv(c[..., 0, :]) % ctx.mod
    return ctx.vec_mul(acc, scale[..., None, None, :])


def dchar_poly_reference(A0, A1):
    """tr(Adj(x - A0) A0 A1), one adjugate per call."""
    prod = A0 * A1
    return Poly(A0.ctx, [(Bj * prod).trace() for Bj in adjugate_reference(A0)])


def dchar_noncentral_reference(A0, A1):
    """x * tr(Adj(x - A0) A1), one adjugate per call."""
    ctx = A0.ctx
    return Poly(ctx, [ctx.zero()] + [(Bj * A1).trace()
                                     for Bj in adjugate_reference(A0)])


def poly_to_vector_reference(f, ctx, n, split_fixed):
    """Coefficients of f below x^n; for the unitary family each F_{q^2}
    coefficient c is split into (c + tau c) / 2 and (c - tau c) / (2 iota)."""
    coeffs = [f.coeff(i) for i in range(n)]
    if not split_fixed:
        return coeffs
    iota = next(a for a in ctx.units() if a.tau() == -a)
    inv2 = ctx.elem(pow(2, -1, ctx.mod))
    out = []
    for c in coeffs:
        out.append((c + c.tau()) * inv2)
        out.append((c - c.tau()) * inv2 * iota.inv())
    return out


def image_reference(ctx, polys, n, split_fixed):
    rows = [poly_to_vector_reference(f, ctx, n, split_fixed) for f in polys]
    return _rref(_field_tables(ctx), _index_rows(ctx, rows))[0]


def det_leibniz(M):
    """sum over permutations s of sign(s) prod_i M[i, s(i)], on GRElem."""
    ctx, n = M.ctx, M.n
    total = ctx.zero()
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j]
                         for i in range(n) for j in range(i + 1, n))
        term = ctx.elem((-1) ** inversions)
        for i, j in enumerate(perm):
            term = term * M.entry(i, j)
        total = total + term
    return total


# ---------------------------------------------------------------------------
# the determinant oracle


def _det_cases(ctx, n, rng):
    """Random matrices, one with a repeated row (singular), one with a row
    times p (determinant not a unit) and one with a row times p^(k-1)."""
    out = []
    for _ in range(6):
        a = np.array(Matrix.random(ctx, n, rng).a)
        out.append(a)
        if n > 1:
            sing = a.copy()
            sing[-1] = sing[0]
            out.append(sing)
        for e in range(1, ctx.k):
            low = a.copy()
            low[0] = low[0] * ctx.p ** e
            out.append(low)
    return [Matrix(ctx, a) for a in out]


@pytest.mark.parametrize("ctx", [Z9, Z27, Z25], ids=repr)
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_det_matches_sympy_integer_det(ctx, n):
    rng = random.Random(100 * ctx.mod + n)
    seen_singular = seen_nonunit = False
    for M in _det_cases(ctx, n, rng):
        want = int(sympy.Matrix(M.a[:, :, 0].tolist()).det()) % ctx.mod
        got = M.det()
        assert got.coeffs.tolist() == [want]
        seen_singular |= want == 0
        seen_nonunit |= want % ctx.p == 0 and want != 0
    assert seen_nonunit and (seen_singular or n == 1)


@pytest.mark.parametrize("ctx", [F9, G92], ids=repr)
@pytest.mark.parametrize("n", [1, 2, 3])
def test_det_matches_leibniz(ctx, n):
    rng = random.Random(10 * ctx.mod + n)
    seen_singular = False
    for M in _det_cases(ctx, n, rng):
        want = det_leibniz(M)
        assert M.det() == want
        seen_singular |= want.is_zero()
    assert seen_singular or n == 1


# ---------------------------------------------------------------------------
# adjugate_batch and inverse_batch against the loops they replaced


@pytest.mark.parametrize("ctx", BATCH_CONTEXTS, ids=repr)
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_adjugate_batch_matches_matrix_loop(ctx, n):
    rng = random.Random(ctx.mod * ctx.m + n)
    a = np.array([Matrix.random(ctx, n, rng).a for _ in range(6)])
    a = a.reshape(2, 3, n, n, ctx.m)
    c, B = adjugate_batch(ctx, a)
    assert B.shape == (2, 3, n, n, n, ctx.m)
    assert np.array_equal(c, char_poly_batch(ctx, a))
    for i, j in itertools.product(range(2), range(3)):
        M = Matrix(ctx, a[i, j])
        want = adjugate_reference(M)
        assert [Matrix(ctx, b) for b in B[i, j]] == want
        assert adjugate_x_minus(M) == want
        gen = generic_adjugate_pm(M)
        assert all(gen[r][s] == poly_matrix_entry(want, r, s)
                   for r in range(n) for s in range(n))


@pytest.mark.parametrize("ctx", BATCH_CONTEXTS, ids=repr)
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_inverse_batch_matches_array_loop(ctx, n):
    rng = random.Random(ctx.mod * ctx.m + 7 * n)
    a = sample_haar_batch(GroupSpec("gl", n, ctx), rng, 6)
    a = a.reshape(2, 3, n, n, ctx.m)
    inv = inverse_batch(ctx, a)
    assert np.array_equal(inv, inverse_batch_reference(ctx, a))
    eye = Matrix.identity(ctx, n)
    for i, j in itertools.product(range(2), range(3)):
        assert Matrix(ctx, a[i, j]) * Matrix(ctx, inv[i, j]) == eye


# ---------------------------------------------------------------------------
# dchar_map and dtrace_functional against one adjugate per basis element


SPECS = [(fam, n, ctx, sign)
         for ctx in (F3, F5)
         for fam, n, sign in (("gl", 2, None), ("gl", 3, None),
                              ("sl", 3, None), ("sp", 4, None),
                              ("so", 3, 1), ("so", 3, -1),
                              ("so", 4, 1), ("so", 4, -1))]
SPECS += [("u", 2, F9, None), ("u", 3, F9, None)]


@pytest.mark.parametrize("family,n,ctx,sign", SPECS,
                         ids=["%s%d%s-F%d" % (f, n, "" if s is None else
                                              "+" if s == 1 else "-", c.q)
                              for f, n, c, s in SPECS])
def test_dchar_map_matches_per_basis_reference(family, n, ctx, sign):
    spec = GroupSpec(family, n, ctx, sign)
    basis = lie_algebra_basis(spec)
    split = family == "u"
    rng = random.Random(31 * n + ctx.q)
    for _ in range(4):
        A0 = sample_fq(spec, rng)
        lm = dchar_map(A0, spec)
        want = [dchar_poly_reference(A0, X) for X in basis]
        assert lm.coeffs.shape == (len(basis), n, ctx.m)
        assert lm.columns == want
        assert lm.image_rref() == image_reference(ctx, want, n, split)
        for X in basis:
            assert dchar_poly(A0, X) == dchar_poly_reference(A0, X)
            assert (dchar_poly_noncentral(A0, X)
                    == dchar_noncentral_reference(A0, X))
        for r in (1, 2, 3, -1):
            lt = dtrace_functional(A0, r, spec)
            P = A0 ** r
            want = [Poly(ctx, [ctx.elem(r) * (P * X).trace()]) for X in basis]
            assert lt.columns == want
            assert lt.image_rref() == image_reference(ctx, want, n, split)

