import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from padicmat.galois_rings import (
    RingContext, GRElem, NonUnitError, ContextMismatchError,
    default_defining_poly, decode_elem,
)


def test_default_defining_polys():
    # frozen table: lexicographically smallest monic irreducibles
    assert default_defining_poly(3, 1) == (0, 1)
    assert default_defining_poly(3, 2) == (1, 0, 1)          # x^2 + 1
    assert default_defining_poly(5, 2) == (1, 1, 1)          # x^2 + x + 1
    assert default_defining_poly(3, 3) == (1, 0, 2, 1)       # x^3 + 2x^2 + 1
    assert default_defining_poly(7, 2) == (1, 0, 1)          # x^2 + 1
    assert default_defining_poly(3, 4) == (1, 0, 1, 1, 1)    # x^4+x^3+x^2+1


def test_defining_poly_irreducible_oracle():
    import sympy
    x = sympy.symbols("x")
    for p, m in [(3, 2), (3, 3), (3, 4), (5, 2), (5, 3), (7, 2)]:
        c = default_defining_poly(p, m)
        f = sympy.Poly([c[i] for i in range(m, -1, -1)], x, modulus=p)
        assert f.is_irreducible


@pytest.fixture(scope="module")
def gr92():
    return RingContext(3, 2, 2)  # GR(9, 2), 81 elements


def test_element_and_unit_counts(gr92):
    elems = list(gr92.elements())
    assert len(elems) == 81  # p^(km)
    units = [a for a in elems if a.is_unit()]
    assert len(units) == 3 ** ((2 - 1) * 2) * (3 ** 2 - 1)  # p^((k-1)m)(q-1)


def test_ring_axioms_exhaustive_small():
    ctx = RingContext(3, 1, 2)  # Z/9
    elems = list(ctx.elements())
    for a in elems:
        for b in elems:
            assert a + b == b + a
            assert a * b == b * a
            assert (a - b) + b == a
    one = ctx.one()
    for a in elems:
        assert a * one == a
        assert a + ctx.zero() == a


def test_inverse_exhaustive(gr92):
    one = gr92.one()
    n_units = 0
    for a in gr92.elements():
        if a.is_unit():
            assert a * a.inv() == one
            n_units += 1
        else:
            with pytest.raises(NonUnitError):
                a.inv()
    assert n_units == 72


def test_sigma_is_frobenius_lift(gr92):
    # sigma fixes Z/p^k, has order m, and reduces to x -> x^p mod p
    zeta = gr92.generator()
    assert zeta.sigma().reduce(1) == (zeta ** 3).reduce(1)
    for a in gr92.elements():
        assert a.sigma().sigma() == a  # order m = 2
        b = a.sigma()
        assert b.reduce(1) == (a.reduce(1)) ** 3
    assert gr92.elem(5).sigma() == gr92.elem(5)


def test_sigma_is_ring_homomorphism(gr92):
    rng = random.Random(7)
    for _ in range(200):
        a = gr92.random_elem(rng)
        b = gr92.random_elem(rng)
        assert (a + b).sigma() == a.sigma() + b.sigma()
        assert (a * b).sigma() == a.sigma() * b.sigma()


def test_sigma_fixed_points_are_base_ring():
    ctx = RingContext(3, 2, 3)
    fixed = [a for a in ctx.elements() if a.sigma() == a]
    assert len(fixed) == 27  # exactly Z/p^k
    assert all(not any(a.coeffs[1:]) for a in fixed)


def test_tau_involution():
    ctx = RingContext(3, 2, 2)
    for a in ctx.elements():
        assert a.tau().tau() == a
        assert a.tau() == a.sigma()  # m = 2: tau = sigma^1
    with pytest.raises(ValueError):
        RingContext(3, 3, 1).one().tau()


def test_vec_tau_is_sigma_to_half_the_degree():
    ctx = RingContext(3, 4, 2)
    a = np.random.default_rng(0).integers(0, ctx.mod, (50, 4))
    assert np.array_equal(ctx.vec_tau(a), ctx.vec_sigma(ctx.vec_sigma(a)))
    assert np.array_equal(ctx.vec_tau(ctx.vec_tau(a)), a)
    assert not np.array_equal(ctx.vec_tau(a), a)
    with pytest.raises(ValueError):
        RingContext(3, 3, 1).vec_tau(a[:, :3])


def test_valuation(gr92):
    assert gr92.zero().valuation() == 2
    assert gr92.one().valuation() == 0
    assert gr92.elem(3).valuation() == 1
    assert gr92.elem([3, 6]).valuation() == 1
    assert gr92.elem([0, 1]).valuation() == 0
    for a in gr92.elements():
        for b in gr92.elements():
            if not (a * b).is_zero():
                assert (a * b).valuation() == min(
                    a.valuation() + b.valuation(), gr92.k)


def test_reduce_is_homomorphism(gr92):
    rng = random.Random(11)
    for _ in range(200):
        a = gr92.random_elem(rng)
        b = gr92.random_elem(rng)
        assert (a * b).reduce(1) == a.reduce(1) * b.reduce(1)
        assert (a + b).reduce(1) == a.reduce(1) + b.reduce(1)
        assert a.sigma().reduce(1) == a.reduce(1).sigma()


def test_lift_reduce_roundtrip(gr92):
    for a in RingContext(3, 2, 1).elements():
        assert a.lift(2).reduce(1) == a


def test_field_case_matches_sympy():
    # multiplication in F_9 against sympy's GF(9) minimal polynomial arithmetic
    import sympy
    ctx = RingContext(3, 2, 1)
    x = sympy.symbols("x")
    f = sympy.Poly(x ** 2 + 1, x, modulus=3)
    rng = random.Random(3)
    for _ in range(50):
        a = ctx.random_elem(rng)
        b = ctx.random_elem(rng)
        pa = sympy.Poly([int(a.coeffs[1]), int(a.coeffs[0])], x, modulus=3)
        pb = sympy.Poly([int(b.coeffs[1]), int(b.coeffs[0])], x, modulus=3)
        pr = (pa * pb) % f
        want = [int(c) % 3 for c in reversed(pr.all_coeffs())]
        want += [0] * (2 - len(want))
        assert list((a * b).coeffs) == want


def test_unit_group_order():
    ctx = RingContext(5, 2, 1)  # F_25
    g = None
    one = ctx.one()
    # multiplicative order of every unit divides q - 1
    for a in ctx.units():
        assert a ** 24 == one


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 26), min_size=3, max_size=3),
       st.lists(st.integers(0, 26), min_size=3, max_size=3))
def test_mul_associative_hypothesis(ca, cb):
    ctx = RingContext(3, 3, 3)
    a, b = ctx.elem(ca), ctx.elem(cb)
    c = ctx.elem([5, 7, 11])
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


def test_encode_decode_roundtrip(gr92):
    for a in list(gr92.elements())[:20]:
        assert decode_elem(a.encode()) == a
    assert gr92.elem([4, 7]).encode() == "4,7 @ GR(3^2,2)"


def test_context_mismatch_raises():
    a = RingContext(3, 2, 2).one()
    b = RingContext(3, 2, 1).one()
    with pytest.raises(ContextMismatchError):
        a + b


def test_power_consistency(gr92):
    rng = random.Random(5)
    for _ in range(30):
        a = gr92.random_elem(rng)
        acc = gr92.one()
        for e in range(6):
            assert a ** e == acc
            acc = acc * a
        if a.is_unit():
            assert a ** -1 == a.inv()


@pytest.mark.parametrize("pmk", [(3, 1, 2), (3, 2, 1), (3, 2, 2), (5, 3, 1)])
def test_vec_mul_and_mat_mul_broadcast(pmk):
    ctx = RingContext(*pmk)
    elems = list(ctx.elements())[:9]
    coeffs = np.array([e.coeffs for e in elems])
    table = ctx.vec_mul(coeffs[:, None], coeffs[None, :])
    assert table.shape == (9, 9, ctx.m)
    for i, a in enumerate(elems):
        for j, b in enumerate(elems):
            assert GRElem(ctx, table[i, j]) == a * b
    rng = random.Random(17)
    A = np.array([[ctx.random_elem(rng).coeffs for _ in range(3)]
                  for _ in range(2)])
    Bs = np.array([[[ctx.random_elem(rng).coeffs for _ in range(4)]
                    for _ in range(3)] for _ in range(5)])
    prod = ctx.mat_mul(A, Bs)
    assert prod.shape == (5, 2, 4, ctx.m)
    for s in range(5):
        for i in range(2):
            for j in range(4):
                want = sum((GRElem(ctx, A[i, t]) * GRElem(ctx, Bs[s, t, j])
                            for t in range(3)), ctx.zero())
                assert GRElem(ctx, prod[s, i, j]) == want
