"""The polynomial kernel against the GRElem loops it replaced.

`Poly` arithmetic, `factor`, `radical`, the irreducibility test and the
irreducible tables run on the int kernel in `galois_rings`.  The
references below are the routines they replaced, written on lists of
GRElem coefficients with scalar GRElem arithmetic only: the schoolbook
product, long division with a trim after each step, Euclid's gcd, the
trial-division sieve for the irreducible tables, and trial division for
factors.  `_ref_euler_phi` counts the residues coprime to H, as
`_euler_phi_poly` did before it used the product formula.
"""

import functools
import itertools
import random

import pytest

from padicmat.galois_rings import (
    ContextMismatchError, NonUnitError, RingContext, default_defining_poly)
from padicmat.polynomials import (
    EnumerationBound, HayesClassGroup, Poly, _euler_phi_poly, factor,
    interval_membership, irreducible_polys, is_irreducible, monic_polys,
    radical)

F3 = RingContext(3, 1, 1)
F5 = RingContext(5, 1, 1)
F9 = RingContext(3, 2, 1)
Z9 = RingContext(3, 1, 2)
Z27 = RingContext(3, 1, 3)
GR92 = RingContext(3, 2, 2)


# ---- references on lists of GRElem coefficients, low degree first ----

def _trim(cs):
    cs = list(cs)
    while cs and cs[-1].is_zero():
        cs.pop()
    return cs


def _ref_sub(ctx, a, b):
    n = max(len(a), len(b))
    a = list(a) + [ctx.zero()] * (n - len(a))
    b = list(b) + [ctx.zero()] * (n - len(b))
    return _trim(x - y for x, y in zip(a, b))


def _ref_mul(ctx, a, b):
    if not a or not b:
        return []
    out = [ctx.zero()] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    return _trim(out)


def _ref_divmod(ctx, a, b):
    if not b:
        raise ZeroDivisionError("division by zero polynomial")
    db = len(b) - 1
    lead_inv = b[-1].inv()
    q = [ctx.zero()] * max(0, len(a) - db)
    rem = list(a)
    while len(rem) > db:
        c = rem.pop() * lead_inv
        shift = len(rem) - db
        q[shift] = c
        for j in range(db):
            rem[shift + j] = rem[shift + j] - c * b[j]
        rem = _trim(rem)
    return _trim(q), rem


def _ref_gcd(ctx, a, b):
    while b:
        a, b = b, _ref_divmod(ctx, a, b)[1]
    if not a:
        return a
    inv = a[-1].inv()
    return [c * inv for c in a]


def _ref_monics(ctx, n):
    for tail in itertools.product(list(ctx.elements()), repeat=n):
        yield list(tail) + [ctx.one()]


@functools.lru_cache(maxsize=None)
def _ref_irreducibles(ctx, d):
    lower = [g for e in range(1, d // 2 + 1) for g in _ref_irreducibles(ctx, e)]
    return tuple(tuple(f) for f in _ref_monics(ctx, d)
                 if all(_ref_divmod(ctx, f, g)[1] for g in lower))


def _ref_is_irreducible(ctx, f):
    n = len(f) - 1
    return n >= 1 and all(_ref_divmod(ctx, f, g)[1]
                          for e in range(1, n // 2 + 1)
                          for g in _ref_irreducibles(ctx, e))


def _ref_factor(ctx, f):
    out = []
    rem = list(f)
    d = 1
    while len(rem) > 1:
        if d > (len(rem) - 1) // 2:
            out.append((tuple(rem), 1))
            break
        for g in _ref_irreducibles(ctx, d):
            mult = 0
            while True:
                quo, r = _ref_divmod(ctx, rem, g)
                if r:
                    break
                rem, mult = quo, mult + 1
            if mult:
                out.append((g, mult))
        d += 1
    return sorted(out, key=lambda item: (
        len(item[0]), tuple(c.ints for c in item[0])))


def _ref_radical(ctx, f):
    acc = [ctx.one()]
    for g, _ in _ref_factor(ctx, f):
        acc = _ref_mul(ctx, acc, list(g))
    return acc


def _ref_euler_phi(H):
    ctx, h = H.ctx, list(H.coeffs)
    if H.degree == 0:
        return 1
    count = 0
    for tail in itertools.product(list(ctx.elements()), repeat=H.degree):
        r = _trim(tail)
        g = h if not r else _ref_gcd(ctx, r, h)
        count += len(g) == 1
    return count


def _random_poly(ctx, rng):
    deg = rng.randrange(-1, 7)
    return Poly(ctx, [ctx.random_elem(rng) for _ in range(deg + 1)])


# ---- arithmetic ----

@pytest.mark.parametrize("ctx", [F3, Z9, Z27, F9, GR92], ids=repr)
def test_arithmetic_matches_grelem_loops(ctx):
    rng = random.Random(1601)
    polys = [Poly(ctx, []), Poly(ctx, [1]), Poly(ctx, [ctx.p]),
             Poly(ctx, [0, 1])] + [_random_poly(ctx, rng) for _ in range(40)]
    for f in polys:
        a = list(f.coeffs)
        assert (f ** 3).coeffs == tuple(_ref_mul(ctx, _ref_mul(ctx, a, a), a))
        assert f.derivative().coeffs == tuple(
            _trim(i * a[i] for i in range(1, len(a))))
        x0, value = ctx.random_elem(rng), ctx.zero()
        for c in reversed(a):
            value = value * x0 + c
        assert f(x0) == value
    for f, g in itertools.product(polys, repeat=2):
        a, b = list(f.coeffs), list(g.coeffs)
        assert (f * g).coeffs == tuple(_ref_mul(ctx, a, b))
        assert (f - g).coeffs == tuple(_ref_sub(ctx, a, b))
        try:
            want = _ref_divmod(ctx, a, b)
        except (ZeroDivisionError, NonUnitError) as exc:
            with pytest.raises(type(exc)):
                divmod(f, g)
        else:
            quo, rem = divmod(f, g)
            assert (quo.coeffs, rem.coeffs) == tuple(map(tuple, want))
        if ctx.k == 1:
            assert f.gcd(g).coeffs == tuple(_ref_gcd(ctx, a, b))


def test_refusals_survive_the_kernel():
    f = Poly(Z9, [1, 2, 1])
    with pytest.raises(ContextMismatchError):
        f * Poly(Z27, [1, 1])
    with pytest.raises(ContextMismatchError):
        divmod(f, Poly(F3, [1, 1]))
    with pytest.raises(ContextMismatchError):
        f + Poly(GR92, [1])
    with pytest.raises(NonUnitError):
        divmod(f, Poly(Z9, [1, 3]))       # 3x + 1: leading 3 is not a unit
    with pytest.raises(NonUnitError):
        divmod(Poly(Z9, [1]), Poly(Z9, [0, 0, 6]))
    with pytest.raises(ZeroDivisionError):
        divmod(f, Poly(Z9, []))
    with pytest.raises(ZeroDivisionError):
        f % 0
    with pytest.raises(ContextMismatchError):
        interval_membership(Poly(F3, [1, 1]), Poly(Z9, [1, 1]), 1)
    with pytest.raises(ContextMismatchError):
        interval_membership(f, Poly(F3, [1, 1]), 1, reversed_=True)
    with pytest.raises(ValueError):
        is_irreducible(f)                 # Z/9 is not a field
    assert not is_irreducible(Poly(Z9, [2]))


# ---- factor, radical and irreducibility ----

@pytest.mark.parametrize("ctx,top", [(F3, 6), (F5, 4), (F9, 3)], ids=repr)
def test_factor_radical_irreducibility_match_trial_division(ctx, top):
    assert irreducible_polys(ctx, 0) == []
    for d in range(1, top + 1):
        assert [g.coeffs for g in irreducible_polys(ctx, d)] == list(
            _ref_irreducibles(ctx, d))
    for n in range(top + 1):
        for f in monic_polys(ctx, n):
            a = list(f.coeffs)
            assert [(g.coeffs, e) for g, e in factor(f)] == _ref_factor(ctx, a)
            assert radical(f).coeffs == tuple(_ref_radical(ctx, a))
            assert is_irreducible(f) == _ref_is_irreducible(ctx, a)


def test_is_irreducible_ignores_the_leading_unit():
    for f in irreducible_polys(F5, 2):
        assert is_irreducible(f * 3)
        assert not is_irreducible(f * f * 2)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_default_defining_poly_is_the_first_irreducible(p):
    fp = RingContext(p, 1, 1)
    for m in range(1, 5):
        first = next(f for f in _ref_monics(fp, m)
                     if _ref_is_irreducible(fp, f))
        assert default_defining_poly(p, m) == tuple(c.ints[0] for c in first)


@pytest.mark.parametrize("ctx,top", [(F3, 4), (F5, 2), (F9, 2)], ids=repr)
def test_euler_phi_product_formula_matches_enumeration(ctx, top):
    for n in range(top + 1):
        for H in monic_polys(ctx, n):
            assert _euler_phi_poly(H) == _ref_euler_phi(H)
    assert _euler_phi_poly(Poly(ctx, [2])) == 1


@pytest.mark.parametrize("ctx,l", [(RingContext(11, 1, 1), 1),
                                   (RingContext(5, 2, 1), 0)], ids=repr)
def test_hayes_groups_build_past_the_irreducible_table_cap(ctx, l):
    """Fields with q > 9 have no irreducible tables, and phi(H) needs none;
    the constructor checks phi(H) against the residues coprime to H."""
    q, x = ctx.q, Poly(ctx, [0, 1])
    with pytest.raises(EnumerationBound):
        irreducible_polys(ctx, 1)
    irr = next(f for f in monic_polys(ctx, 2) if is_irreducible(f))
    for H, phi in ((x * x, q * q - q), (x * (x + 1), (q - 1) ** 2),
                   (irr, q * q - 1)):
        assert HayesClassGroup(ctx, l, H).order == q ** l * phi


# ---- interval membership ----

def _ref_membership(h, g, width, reversed_):
    """deg(g - h) < width for monic h of g's degree, as a GRElem loop."""
    ctx, n = g.ctx, g.degree
    if not (h.is_monic() and h.degree == n):
        return False
    a = list(h.coeffs)
    if reversed_:
        if not a[0].is_unit():
            return False
        inv = a[0].inv()
        a = [c * inv for c in reversed(a)]
    return len(_ref_sub(ctx, list(g.coeffs), a)) - 1 < width


def test_interval_membership_matches_the_difference_degree():
    rng = random.Random(1606)
    hs = [h for n in range(4) for h in monic_polys(Z9, n)]
    gs = [g for g in hs if g.degree <= 1]
    gs += rng.sample([g for g in hs if g.degree == 2], 8)
    gs += rng.sample([g for g in hs if g.degree == 3], 8)
    gs.append(Poly(Z9, [3, 1, 0, 1]))          # non-unit constant term
    hits = 0
    for h, g in itertools.product(hs, gs):
        for reversed_ in (False, True):
            for width in range(-1, 5):
                got = interval_membership(h, g, width, reversed_)
                assert got == _ref_membership(h, g, width, reversed_)
                hits += got
    assert hits > 1000
