"""One Fulman product over one orbit walk against the per-family references.

The references below are the per-family class laws that `conjugacy` had
before its four Fulman bodies became one product: one body per family, a
pairing walk (`_ref_merge_pairs`) for the probabilities and `so_epsilon`,
and a slot loop each for `enumerate_data` and `min_poly_joint`, with the
datum checks and signed partitions they read.  The sweep compares exact
`Fraction`s on every enumerated datum, the data's order, `so_epsilon` and
`min_poly_joint` on every distinct char poly.
"""

import itertools
import math
from fractions import Fraction

import pytest

from padicmat.char_derivative import WittClass
from padicmat.conjugacy import (
    ConjClassDatum,
    _fulman_exponent,
    _is_pm1,
    _minus_plane_witt,
    _phi_key,
    _standard_form_witt,
    enumerate_data,
    family_prob,
    fulman_prob_gl,
    fulman_prob_so,
    fulman_prob_sp,
    fulman_prob_u,
    min_poly_joint,
    order_gl,
    order_o,
    order_sp,
    order_u,
    partitions_of,
    so_epsilon,
)
from padicmat.galois_rings import RingContext
from padicmat.polynomials import (
    factor,
    irreducible_polys,
    reciprocal,
    skew_reciprocal,
)

F3 = RingContext(3, 1, 1)
F5 = RingContext(5, 1, 1)
F9 = RingContext(3, 2, 1)

# ---------------------------------------------------------------------------
# references: the per-family laws


def _ref_check(family, entries):
    """The datum checks, per entry; ValueError for an invalid datum."""
    entries = {phi: (lam, signs) for phi, (lam, signs) in entries.items()
               if lam.parts}
    for phi, (lam, signs) in entries.items():
        if phi.coeff(0).is_zero():
            raise ValueError("x cannot divide the char poly of a unit")
        if family in ("gl", "sl", "u") and signs:
            raise ValueError("signs only decorate sp/so data")
        if family in ("sp", "so") and not _is_pm1(phi):
            r = reciprocal(phi)
            if r not in entries or entries[r][0] != lam:
                raise ValueError("reciprocal pairing violated")
            if signs:
                raise ValueError("signs only decorate x -+ 1 parts")
        if family == "u":
            r = skew_reciprocal(phi)
            if r not in entries or entries[r][0] != lam:
                raise ValueError("skew-reciprocal pairing violated")
        if family in ("sp", "so") and _is_pm1(phi):
            want_parity = 1 if family == "sp" else 0
            for i in lam.part_sizes():
                if i % 2 == want_parity and lam.m(i) % 2:
                    raise ValueError(
                        "parts of size %d need even multiplicity" % i)
                decorated = (i % 2 == 0) if family == "sp" else (i % 2 == 1)
                if decorated != (i in signs):
                    raise ValueError("sign decoration mismatch at %d" % i)
    size = sum(lam.size * phi.degree for phi, (lam, _) in entries.items())
    if family == "sp" and size % 2:
        raise ValueError("symplectic data have even size")


def _ref_merge_pairs(datum, conj):
    seen = set()
    for phi, (lam, signs) in sorted(datum.entries.items(), key=_phi_key):
        if phi in seen:
            continue
        if _is_pm1(phi) and datum.family in ("sp", "so"):
            seen.add(phi)
            yield phi, lam, signs, "pm1"
            continue
        r = conj(phi)
        if r == phi:
            seen.add(phi)
            yield phi, lam, signs, "self"
        else:
            seen.add(phi)
            seen.add(r)
            yield phi, lam, signs, "pair"


def ref_fulman_prob_gl(datum, q=None):
    q = q or datum.ctx.q
    denom = 1
    for phi, (lam, _) in datum.entries.items():
        Q = q ** phi.degree
        dual = lam.dual()
        denom *= Q ** sum(dp * dp for dp in dual.parts)
        for i in lam.part_sizes():
            mi = lam.m(i)
            num = 1
            for j in range(1, mi + 1):
                num *= Q ** j - 1
            denom = Fraction(denom) * Fraction(num, Q ** (mi * (mi + 1) // 2))
    return 1 / Fraction(denom)


def _ref_finish_prob(q, q_exp, orders):
    assert q_exp.denominator == 1
    denom = q ** int(q_exp)
    for t in orders:
        denom *= t
    return Fraction(1, denom)


def ref_fulman_prob_sp(datum, q=None):
    q = q or datum.ctx.q
    q_exp = Fraction(0)
    orders = []
    for phi, lam, signs, kind in _ref_merge_pairs(datum, reciprocal):
        d = phi.degree
        e = _fulman_exponent(lam)
        if kind == "pm1":
            q_exp += d * e
            for i in lam.part_sizes():
                mi = lam.m(i)
                if i % 2 == 1:
                    orders.append(order_sp(mi, q))
                else:
                    q_exp += Fraction(mi, 2)
                    orders.append(order_o(mi, signs[i], q))
        elif kind == "self":
            q_exp += d * e
            for i in lam.part_sizes():
                orders.append(order_u(lam.m(i), q ** (d // 2)))
        else:
            q_exp += 2 * d * e
            for i in lam.part_sizes():
                orders.append(order_gl(lam.m(i), q ** d))
    return _ref_finish_prob(q, q_exp, orders)


def ref_fulman_prob_so(datum, q=None):
    q = q or datum.ctx.q
    q_exp = Fraction(0)
    orders = []
    for phi, lam, signs, kind in _ref_merge_pairs(datum, reciprocal):
        d = phi.degree
        e = _fulman_exponent(lam)
        if kind == "pm1":
            q_exp += d * e
            for i in lam.part_sizes():
                mi = lam.m(i)
                if i % 2 == 1:
                    orders.append(order_o(mi, signs[i], q))
                else:
                    q_exp -= Fraction(mi, 2)
                    orders.append(order_sp(mi, q))
        elif kind == "self":
            q_exp += d * e
            for i in lam.part_sizes():
                orders.append(order_u(lam.m(i), q ** (d // 2)))
        else:
            q_exp += 2 * d * e
            for i in lam.part_sizes():
                orders.append(order_gl(lam.m(i), q ** d))
    return _ref_finish_prob(q, q_exp, orders)


def ref_fulman_prob_u(datum, q=None):
    if not q:
        q = math.isqrt(datum.ctx.q)
    q_exp = Fraction(0)
    orders = []
    for phi, lam, signs, kind in _ref_merge_pairs(datum, skew_reciprocal):
        d = phi.degree
        e = _fulman_exponent(lam)
        if kind == "self":
            q_exp += 2 * d * e
            for i in lam.part_sizes():
                orders.append(order_u(lam.m(i), q ** d))
        else:
            q_exp += 4 * d * e
            for i in lam.part_sizes():
                orders.append(order_gl(lam.m(i), q ** (2 * d)))
    return _ref_finish_prob(q, q_exp, orders)


REF_PROB = {"gl": ref_fulman_prob_gl, "sp": ref_fulman_prob_sp,
            "so": ref_fulman_prob_so, "u": ref_fulman_prob_u}
PROB = {"gl": fulman_prob_gl, "sp": fulman_prob_sp,
        "so": fulman_prob_so, "u": fulman_prob_u}


def ref_so_epsilon(datum):
    q = datum.ctx.q
    total = WittClass(q, 0, 0)
    for phi, lam, signs, kind in _ref_merge_pairs(datum, reciprocal):
        if kind == "pm1":
            for i in lam.part_sizes():
                if i % 2 == 1:
                    total = total + _standard_form_witt(q, lam.m(i), signs[i])
        elif kind == "self":
            for i in lam.part_sizes():
                if i * lam.m(i) % 2:
                    total = total + _minus_plane_witt(q)
    for sign in (1, -1):
        if _standard_form_witt(q, datum.size, sign) == total:
            return sign
    raise AssertionError("no standard form matches")


def _ref_signed_partitions(n, family):
    want_parity = 1 if family == "sp" else 0
    for lam in partitions_of(n):
        ok = all(lam.m(i) % 2 == 0 for i in lam.part_sizes()
                 if i % 2 == want_parity)
        if not ok:
            continue
        decorated = [i for i in lam.part_sizes() if i % 2 != want_parity]
        for chosen in itertools.product((1, -1), repeat=len(decorated)):
            yield lam, dict(zip(decorated, chosen))


def _ref_slot_choices(family, phi, rphi, w):
    if family in ("sp", "so") and _is_pm1(phi):
        return [{phi: (lam, signs)}
                for lam, signs in _ref_signed_partitions(w, family)]
    if rphi is None:
        return [{phi: (lam, {})} for lam in partitions_of(w)]
    return [{phi: (lam, {}), rphi: (lam, {})} for lam in partitions_of(w)]


def _ref_datum(family, ctx, entries):
    """The datum of entries, or None when the reference checks refuse it."""
    try:
        _ref_check(family, entries)
    except ValueError:
        return None
    return ConjClassDatum(family, ctx, entries)


def ref_enumerate_data(family, ctx, n):
    conj = skew_reciprocal if family == "u" else reciprocal
    primes = [phi for d in range(1, n + 1) for phi in irreducible_polys(ctx, d)
              if not phi.coeff(0).is_zero()]
    primes.sort(key=_phi_key)
    slots = []
    seen = set()
    for phi in primes:
        if phi in seen:
            continue
        if family in ("gl", "sl"):
            slots.append((phi, None, phi.degree))
            seen.add(phi)
            continue
        r = conj(phi)
        if r == phi:
            slots.append((phi, None, phi.degree))
            seen.add(phi)
        else:
            slots.append((phi, r, 2 * phi.degree))
            seen.add(phi)
            seen.add(r)

    def rec(idx, remaining):
        if remaining == 0:
            yield {}
            return
        if idx == len(slots):
            return
        phi, rphi, unit = slots[idx]
        yield from rec(idx + 1, remaining)
        for w in range(1, remaining // unit + 1):
            for entry in _ref_slot_choices(family, phi, rphi, w):
                for rest in rec(idx + 1, remaining - w * unit):
                    d = dict(rest)
                    d.update(entry)
                    yield d

    for entries in rec(0, n):
        if family == "sp" and not entries:
            continue
        datum = _ref_datum(family, ctx, entries)
        if datum is not None:
            yield datum


def ref_min_poly_joint(n, family, q, h):
    fac = dict(factor(h))
    conj = skew_reciprocal if family == "u" else reciprocal
    slots = []
    seen = set()
    for phi in sorted(fac, key=_phi_key):
        if phi in seen:
            continue
        if family in ("gl", "sl") or _is_pm1(phi) or conj(phi) == phi:
            slots.append((phi, None, fac[phi]))
            seen.add(phi)
        else:
            r = conj(phi)
            assert fac.get(r) == fac[phi]
            slots.append((phi, r, fac[phi]))
            seen.add(phi)
            seen.add(r)
    out = {}
    for combo in itertools.product(*[
            _ref_slot_choices(family, phi, rphi, e) for phi, rphi, e in slots]):
        entries = {}
        for entry in combo:
            entries.update(entry)
        datum = _ref_datum(family, h.ctx, entries)
        if datum is not None:
            degmin = datum.min_poly().degree
            out[degmin] = out.get(degmin, Fraction(0)) + REF_PROB[family](
                datum, q)
    return out


# ---------------------------------------------------------------------------
# the sweep

CASES = ([("gl", F3, n) for n in range(1, 5)]
         + [("sp", F3, n) for n in (2, 4, 6)]
         + [("sp", F5, n) for n in (2, 4)]
         + [("so", F3, n) for n in range(1, 6)]
         + [("so", F5, n) for n in range(1, 5)]
         + [("u", F9, n) for n in range(1, 4)])


@pytest.fixture(scope="module")
def sweep():
    """(family, ctx, n, data, reference data) per case."""
    return [(family, ctx, n, list(enumerate_data(family, ctx, n)),
             list(ref_enumerate_data(family, ctx, n)))
            for family, ctx, n in CASES]


def test_enumerate_data_order_matches_the_slot_loop(sweep):
    total = 0
    for family, ctx, n, data, ref in sweep:
        assert ([d.canonical() for d in data]
                == [d.canonical() for d in ref]), (family, ctx.q, n)
        total += len(data)
    assert total == 739


def test_one_product_matches_the_family_bodies_exactly(sweep):
    for family, ctx, n, data, _ in sweep:
        total = Fraction(0)
        for d in data:
            want = REF_PROB[family](d)
            got = PROB[family](d)
            assert type(got) is Fraction and got == want, d
            assert family_prob(d) == want
            if family != "so":
                total += got
        if family != "so":
            assert total == 1, (family, ctx.q, n)


def test_so_epsilon_matches_the_pairing_walk(sweep):
    for family, _, _, data, _ in sweep:
        if family == "so":
            for d in data:
                assert so_epsilon(d) == ref_so_epsilon(d), d


def test_min_poly_joint_matches_on_every_char_poly(sweep):
    count = 0
    for family, _, n, data, _ in sweep:
        for h in dict.fromkeys(d.char_poly() for d in data):
            assert (min_poly_joint(n, family, None, h)
                    == ref_min_poly_joint(n, family, None, h)), (family, h)
            count += 1
    assert count == 291
