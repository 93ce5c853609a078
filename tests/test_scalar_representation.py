"""GRElem's scalar arithmetic on Python ints agrees with the batch helpers.

A scalar holds its coefficients as a tuple of m Python ints; batches stay
int64 arrays.  The differential test runs each scalar operation and the
matching numpy helper (vec_mul, vec_pow, vec_inv, vec_sigma, vec_tau) on
the same coefficients, over fields, the rings Z/p^k and Galois rings, with
units, non-units and zero.  The scan, with the standard library's `ast` as
in test_no_sample_loop.py, keeps numpy off the scalar hot paths.
"""

import ast
import pathlib
import random

import numpy as np
import pytest

from padicmat.galois_rings import GRElem, NonUnitError, RingContext

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "padicmat"

# F_3, Z/9, Z/27, Z/25, F_9, GR(9,2), GR(27,2)
RINGS = [(3, 1, 1), (3, 1, 2), (3, 1, 3), (5, 1, 2), (3, 2, 1), (3, 2, 2),
         (3, 2, 3)]


def _rows(elems):
    return [list(a.ints) for a in elems]


@pytest.mark.parametrize("p,m,k", RINGS, ids=lambda v: str(v))
def test_scalar_ops_match_the_batch_helpers(p, m, k):
    ctx = RingContext(p, m, k)
    mod = ctx.mod
    rng = random.Random(100 * p + 10 * m + k)
    elems = list(ctx.elements())
    arr = np.array([a.coeffs for a in elems])
    assert _rows(elems) == arr.tolist()
    assert all(a.coeffs.dtype == np.int64 and not a.coeffs.flags.writeable
               and a.coeffs.tobytes() == row.tobytes()
               for a, row in zip(elems, arr))

    pairs = [(rng.choice(elems), rng.choice(elems)) for _ in range(400)]
    pairs += [(ctx.zero(), elems[-1]), (ctx.elem(p), ctx.elem(p))]
    A = np.array([a.coeffs for a, _ in pairs])
    B = np.array([b.coeffs for _, b in pairs])
    assert _rows(a + b for a, b in pairs) == ((A + B) % mod).tolist()
    assert _rows(a - b for a, b in pairs) == ((A - B) % mod).tolist()
    assert _rows(a * b for a, b in pairs) == ctx.vec_mul(A, B).tolist()
    assert _rows(-a for a in elems) == (-arr % mod).tolist()
    for e in (0, 1, 2, 5, ctx.q + 1):
        want = np.broadcast_to(ctx.vec_pow(arr, e), arr.shape)
        assert _rows(a ** e for a in elems) == want.tolist()

    units = [a for a in elems if a.is_unit()]
    assert [a.is_unit() for a in elems] == np.any(arr % p, axis=1).tolist()
    assert [a.is_zero() for a in elems] == (~np.any(arr, axis=1)).tolist()
    assert len(units) == (ctx.q - 1) * ctx.q ** (k - 1)
    U = np.array([a.coeffs for a in units])
    assert _rows(a.inv() for a in units) == ctx.vec_inv(U).tolist()
    assert _rows(a ** -2 for a in units) == ctx.vec_pow(
        ctx.vec_inv(U), 2).tolist()
    for a in elems:
        if not a.is_unit():
            with pytest.raises(NonUnitError):
                a.inv()
            with pytest.raises(NonUnitError):
                ctx.vec_inv(a.coeffs)

    assert _rows(a.sigma() for a in elems) == ctx.vec_sigma(arr).tolist()
    if m % 2 == 0:
        assert _rows(a.tau() for a in elems) == ctx.vec_tau(arr).tolist()
    else:
        with pytest.raises(ValueError):
            elems[1].tau()
        with pytest.raises(ValueError):
            ctx.vec_tau(arr)

    # valuation: the largest j <= k with p^j dividing every coefficient
    want = [max(j for j in range(k + 1) if not np.any(row % p ** j))
            for row in arr]
    assert [a.valuation() for a in elems] == want

    # equality and hashing agree with a construction from the array
    for a, row in zip(elems, arr):
        b = GRElem(ctx, row)
        assert a == b and hash(a) == hash(b) and a.ints == b.ints
    assert len(set(elems)) == len(elems)


@pytest.mark.parametrize("p,m,k", [(3, 1, 2), (3, 2, 2)])
def test_scalars_mix_with_ints_and_refuse_foreign_rings(p, m, k):
    ctx = RingContext(p, m, k)
    a = ctx.generator() + 2
    assert a + 1 == 1 + a == a + ctx.one()
    assert 3 * a == a * np.int64(3) == a + a + a
    assert (1 - a) == ctx.one() - a
    assert ctx.elem(ctx.mod + 2) == 2
    other = RingContext(p, m, k + 1)
    assert RingContext(p, m, k) == ctx
    assert a * RingContext(p, m, k).one() == a
    with pytest.raises(ValueError):
        a + other.one()


# the scalar methods that must not touch numpy: (file, class, methods)
SCALAR_PATHS = [
    ("galois_rings.py", "GRElem",
     ("__add__", "__sub__", "__neg__", "__mul__", "__pow__", "inv",
      "is_zero", "is_unit", "valuation", "__eq__", "__hash__")),
    ("galois_rings.py", "RingContext", ("_mul_ints", "_pow_ints", "elem")),
    ("polynomials.py", "Poly", ("__init__", "__divmod__", "__mul__")),
]


def _numpy_lines(fn):
    return [node.lineno for node in ast.walk(fn)
            if isinstance(node, ast.Name) and node.id in ("np", "numpy")]


def test_scalar_paths_do_not_call_numpy():
    found, seen = {}, set()
    for fname, cls, methods in SCALAR_PATHS:
        tree = ast.parse((SRC / fname).read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and node.name == cls:
                for fn in node.body:
                    if isinstance(fn, ast.FunctionDef) and fn.name in methods:
                        seen.add((cls, fn.name))
                        lines = _numpy_lines(fn)
                        if lines:
                            found[cls, fn.name] = lines
    assert seen == {(cls, name) for _, cls, methods in SCALAR_PATHS
                    for name in methods}
    assert found == {}
