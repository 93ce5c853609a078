import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from padicmat.galois_rings import RingContext
from padicmat.polynomials import (
    Poly, monomial, x_poly, from_int_coeffs, monic_polys,
    reciprocal, skew_reciprocal, star_conjugate,
    is_palindromic, palindromic_basis, palindromic_polys,
    star_symmetric_polys, skew_palindromic_polys, is_skew_palindromic,
    to_palindromic, from_palindromic,
    hayes_label, HayesClassGroup, hayes_characters, root_of_unity_sum_is_zero,
    interval_membership,
    coeffs_to_traces, trace_datum_of, TraceDatum, DivisibilityViolation,
    newton_ambiguity, datum_value_count,
    traces_to_interval_family, traces_to_hayes_family,
    factor, radical, is_irreducible, irreducible_polys,
    count_with_radical_dividing, count_small_radical,
)

F3 = RingContext(3, 1, 1)
F5 = RingContext(5, 1, 1)
F9 = RingContext(3, 2, 1)
Z9 = RingContext(3, 1, 2)   # GR(9,1)


def rand_poly(ctx, deg, rng, monic=False):
    cs = [ctx.random_elem(rng) for _ in range(deg)]
    cs.append(ctx.one() if monic else ctx.random_elem(rng))
    return Poly(ctx, cs)


# ---- arithmetic ----

def test_basic_arith():
    f = from_int_coeffs(F3, [1, 1])        # x + 1
    g = from_int_coeffs(F3, [2, 1])        # x + 2
    assert f * g == from_int_coeffs(F3, [2, 0, 1])   # x^2 + 2
    assert (f + g) == from_int_coeffs(F3, [0, 2])


def test_divmod_roundtrip():
    rng = random.Random(1)
    for _ in range(100):
        f = rand_poly(Z9, rng.randrange(1, 5), rng, monic=True)
        g = rand_poly(Z9, rng.randrange(0, 5), rng)
        r = rand_poly(Z9, f.degree - 1, rng) if f.degree >= 1 else Poly(Z9, [])
        q2, r2 = divmod(f * g + r, f)
        assert q2 == g and r2 == r


def test_gcd():
    f = from_int_coeffs(F5, [4, 0, 1])     # x^2 - 1
    g = from_int_coeffs(F5, [4, 1])        # x - 1
    assert f.gcd(g) == g
    with pytest.raises(ValueError):
        from_int_coeffs(Z9, [1, 1]).gcd(from_int_coeffs(Z9, [1]))


def test_eval_and_derivative():
    f = from_int_coeffs(F5, [1, 2, 3])
    assert f(2) == F5.elem(1 + 4 + 12)
    assert f.derivative() == from_int_coeffs(F5, [2, 6])


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(0, 8), min_size=1, max_size=4),
       st.lists(st.integers(0, 8), min_size=1, max_size=4),
       st.lists(st.integers(0, 8), min_size=1, max_size=4))
def test_mul_associative_distributive(a, b, c):
    fa, fb, fc = (from_int_coeffs(Z9, t) for t in (a, b, c))
    assert (fa * fb) * fc == fa * (fb * fc)
    assert fa * (fb + fc) == fa * fb + fa * fc


# ---- reciprocal / palindromic ----

def test_reciprocal():
    f = from_int_coeffs(F5, [3, 2, 1])
    assert reciprocal(f) == from_int_coeffs(F5, [2, 4, 1])
    g = from_int_coeffs(F5, [4, 1])   # x - 1
    assert reciprocal(g) == g
    rng = random.Random(2)
    for _ in range(200):
        f = rand_poly(F9, rng.randrange(1, 5), rng, monic=True)
        if not f.coeff(0).is_unit():
            continue
        assert reciprocal(reciprocal(f)) == f
        g = rand_poly(F9, rng.randrange(1, 4), rng, monic=True)
        if g.coeff(0).is_unit():
            assert reciprocal(f * g) == reciprocal(f) * reciprocal(g)


def test_skew_reciprocal():
    rng = random.Random(3)
    # base-field coefficients: tau acts trivially, so skew = plain reciprocal
    f = from_int_coeffs(F9, [1, 2, 1])
    assert skew_reciprocal(f) == reciprocal(f)
    for _ in range(200):
        f = rand_poly(F9, rng.randrange(1, 5), rng, monic=True)
        if f.coeff(0).is_unit():
            assert skew_reciprocal(skew_reciprocal(f)) == f
    # x - alpha is self-skew-reciprocal iff alpha has norm 1
    for alpha in F9.units():
        f = Poly(F9, [-alpha, F9.one()])
        fixed = skew_reciprocal(f) == f
        assert fixed == (alpha * alpha.tau() == F9.one())


def test_palindromic_detection():
    f = from_int_coeffs(F3, [1, 2, 1])   # x^2 - x + 1 over F_3
    assert is_palindromic(f, 2)
    assert not is_palindromic(from_int_coeffs(F3, [1, 2]), 2)


def test_palindromic_space_dimension():
    # dim of the n-palindromics of degree < n is ceil((n-1)/2)
    for n in range(2, 8):
        basis = palindromic_basis(F3, n)
        assert len(basis) == (n - 1 + 1) // 2
        for b in basis:
            assert is_palindromic(b, n)
    polys = list(palindromic_polys(F3, 6))
    assert len(polys) == 27
    assert len(set(p.coeffs for p in polys)) == 27
    brute = [f for f in _all_polys_below(F3, 6) if is_palindromic(f, 6)]
    assert len(brute) == 27


def test_signed_palindromic_space():
    # x^n f(1/x) = -f pairs a_{n-i} = -a_i and kills the middle coefficient
    for n in range(2, 8):
        basis = palindromic_basis(F3, n, -1)
        assert len(basis) == (n - 1) // 2
        for b in basis:
            assert all(b.coeff(n - i) == -b.coeff(i) for i in range(n + 1))
    brute = [f for f in _all_polys_below(F3, 6)
             if all(f.coeff(6 - i) == -f.coeff(i) for i in range(7))]
    assert len(brute) == 3 ** len(palindromic_basis(F3, 6, -1)) == 9


def _all_polys_below(ctx, n):
    for tail in itertools.product(list(ctx.elements()), repeat=n):
        yield Poly(ctx, list(tail))


def test_star_symmetric_space():
    # n = 3 over F_9: everything is h + h* with h(0) = 0, deg h <= 1
    got = {f.coeffs for f in star_symmetric_polys(F9, 3)}
    brute = {f.coeffs for f in _all_polys_below(F9, 3)
             if star_conjugate(f, 3) == f}
    assert got == brute
    assert len(got) == 9  # q^2 choices of the x-coefficient
    # even case carries the extra tau-fixed middle coefficient
    got4 = {f.coeffs for f in star_symmetric_polys(F9, 4)}
    brute4 = {f.coeffs for f in _all_polys_below(F9, 4)
              if star_conjugate(f, 4) == f}
    assert got4 == brute4


def test_skew_palindromic_space():
    alpha = next(a for a in F9.units()
                 if a * a.tau() == F9.one() and a != F9.one())
    got = {f.coeffs for f in skew_palindromic_polys(F9, 3, alpha)}
    brute = {f.coeffs for f in _all_polys_below(F9, 3)
             if is_skew_palindromic(f, 3, alpha)}
    assert got == brute and len(got) == 9


def test_to_palindromic_even():
    g = from_int_coeffs(F3, [2, 1])   # x - 1
    assert to_palindromic(g, 2) == from_int_coeffs(F3, [1, 2, 1])


def test_palindromic_roundtrip_exhaustive():
    for n in (2, 3, 4, 5, 6):
        half = n // 2 if n % 2 == 0 else (n - 1) // 2
        images = set()
        for g in monic_polys(F3, half):
            f = to_palindromic(g, n)
            assert f.is_monic() and f.degree == n and is_palindromic(f, n)
            assert from_palindromic(f, n) == g
            images.add(f.coeffs)
        # image is all monic n-palindromics of degree n
        target = {f.coeffs for f in monic_polys(F3, n) if is_palindromic(f, n)}
        assert images == target
        if n == 4:
            assert len(images) == 9


# ---- Hayes classes and characters ----

def test_hayes_label_padding_example():
    H = x_poly(F3)
    f = from_int_coeffs(F3, [1, 0, 0, 1, 0, 1])   # x^5 + x^3 + 1
    g = from_int_coeffs(F3, [1, 1, 0, 1])         # x^3 + x + 1
    assert hayes_label(f, 2, H) == hayes_label(g, 2, H)
    assert hayes_label(f, 3, H) != hayes_label(g, 3, H)


def test_hayes_label_definition():
    H = x_poly(F3)
    rng = random.Random(4)
    for _ in range(50):
        f = rand_poly(F3, 5, rng, monic=True)
        t = rand_poly(F3, 1, rng)   # deg(x*t) < deg f - l = 3
        g = f + x_poly(F3) * t      # same low residue mod x, same window
        assert hayes_label(f, 2, H) == hayes_label(g, 2, H)


def test_hayes_unit_group_order():
    assert HayesClassGroup(F3, 1, x_poly(F3)).order == 6
    for l, H in [(0, Poly(F3, [1])), (1, Poly(F3, [1])), (2, x_poly(F3)),
                 (1, from_int_coeffs(F3, [0, 0, 1])), (0, from_int_coeffs(F3, [1, 1]))]:
        grp = HayesClassGroup(F3, l, H)
        assert len(grp.elements()) == grp.order


def test_hayes_label_multiplicative():
    # label(f g) is a function of (label f, label g)
    for l, H in [(1, x_poly(F3)), (2, Poly(F3, [1])), (1, from_int_coeffs(F3, [0, 0, 1]))]:
        seen = {}
        polys = [f for n in (l + max(1, H.degree), l + H.degree + 2)
                 for f in monic_polys(F3, n)
                 if H.degree == 0 or f.gcd(H).degree == 0]
        for f in polys[:40]:
            for g in polys[:40]:
                key = (hayes_label(f, l, H), hayes_label(g, l, H))
                val = hayes_label(f * g, l, H)
                assert seen.setdefault(key, val) == val


def test_hayes_characters_trivial_group():
    chars = hayes_characters(F3, 0, Poly(F3, [1]))
    assert len(chars) == 1 and chars[0].is_trivial()


def test_hayes_characters_full_dual_and_orthogonality():
    H = x_poly(F3)
    chars = hayes_characters(F3, 1, H)
    assert len(chars) == 6
    assert sum(1 for c in chars if c.is_trivial()) == 1
    grp = chars[0].group
    # second orthogonality: sum over chi of chi(f) conj(chi(g))
    reps = grp.elements()
    for f in reps:
        for g in reps:
            exps = [(c.exponent(f) - c.exponent(g)) % c.modulus for c in chars]
            if grp.label(f) == grp.label(g):
                assert all(e == 0 for e in exps)
            else:
                assert root_of_unity_sum_is_zero(exps, chars[0].modulus)
    # first orthogonality: sum over monic degree n >= l + deg H
    for chi in chars:
        exps = []
        n_zero = 0
        for f in monic_polys(F3, 3):
            e = chi.exponent(f)
            if e is None:
                n_zero += 1
            else:
                exps.append(e)
        if chi.is_trivial():
            assert all(e == 0 for e in exps)
            assert len(exps) == 27 - n_zero
        else:
            assert root_of_unity_sum_is_zero(exps, chi.modulus)


def test_palindromic_character_sums():
    # short-interval characters (deg H = 0) summed over palindromics
    for n in (3, 4, 5, 6):
        delta = (n - 1 + 1) // 2
        for l in range(1, delta + 1):
            for chi in hayes_characters(F3, l, Poly(F3, [1])):
                exps = [chi.exponent(monomial(F3, n) + f)
                        for f in palindromic_polys(F3, n)]
                if chi.is_trivial():
                    assert all(e == 0 for e in exps)
                    assert len(exps) == 3 ** delta
                else:
                    assert root_of_unity_sum_is_zero(exps, chi.modulus)


def test_skew_palindromic_character_sums():
    alpha = next(a for a in F9.units()
                 if a * a.tau() == F9.one() and a != F9.one())
    for n in (3, 4):
        delta = (n - 1 + 1) // 2
        for chi in hayes_characters(F9, 1, Poly(F9, [1])):
            exps = [chi.exponent(monomial(F9, n) + f)
                    for f in skew_palindromic_polys(F9, n, alpha)]
            if chi.is_trivial():
                assert all(e == 0 for e in exps)
            else:
                assert root_of_unity_sum_is_zero(exps, chi.modulus)


def test_odd_palindromic_factor_constant():
    # chi on odd-degree palindromics: chi(f) = chi(x+1) chi(even part)
    xp1 = from_int_coeffs(F3, [1, 1])
    for chi in hayes_characters(F3, 1, Poly(F3, [1])):
        for f0 in monic_polys(F3, 2):
            f = to_palindromic(f0, 4)
            g = xp1 * f
            assert chi.exponent(g) == (chi.exponent(xp1) + chi.exponent(f)) % chi.modulus


# ---- intervals ----

def test_interval_membership():
    g = rand_poly(Z9, 2, random.Random(5), monic=True)
    assert interval_membership(g, g, 1)
    count = sum(interval_membership(h, g, 2) for h in monic_polys(Z9, 3))
    g3 = Poly(Z9, list(g.coeffs[:2]) + [Z9.zero(), Z9.one()])
    count = sum(interval_membership(h, g3, 2) for h in monic_polys(Z9, 3))
    assert count == 81  # (p^k)^width free low coefficients
    h = g3 + monomial(Z9, 2)
    assert not interval_membership(h, g3, 2)
    assert interval_membership(h, g3, 3)


def test_interval_membership_reversed():
    g = from_int_coeffs(F3, [1, 2, 1, 1])
    for h in monic_polys(F3, 3):
        if not h.coeff(0).is_unit():
            assert not interval_membership(h, g, 2, reversed_=True)
        else:
            assert interval_membership(h, g, 2, reversed_=True) == \
                interval_membership(reciprocal(h), g, 2)


# ---- Newton machinery ----

def _companion_traces(f, d):
    # independent oracle: powers of the companion matrix over Z/p^k
    n = f.degree
    mod = f.ctx.mod
    assert f.ctx.m == 1
    C = np.zeros((n, n), dtype=np.int64)
    for i in range(1, n):
        C[i, i - 1] = 1
    for i in range(n):
        C[i, n - 1] = (-int(f.coeff(i).coeffs[0])) % mod
    out = []
    P = np.eye(n, dtype=np.int64)
    for _ in range(d):
        P = P @ C % mod
        out.append(f.ctx.elem(int(np.trace(P))))
    return out


def test_coeffs_to_traces_quadratic():
    rng = random.Random(6)
    for _ in range(50):
        e1, e2 = Z9.random_elem(rng), Z9.random_elem(rng)
        f = Poly(Z9, [e2, e1, Z9.one()])
        t = coeffs_to_traces(f, 2)
        assert t[0] == -e1
        assert t[1] == e1 * e1 - 2 * e2


def test_coeffs_to_traces_all_roots_one():
    for n in (2, 3, 4):
        f = from_int_coeffs(F3, [2, 1]) ** n   # (x-1)^n
        for t in coeffs_to_traces(f, 6):
            assert t == F3.elem(n)


def test_coeffs_to_traces_companion_oracle():
    rng = random.Random(7)
    for _ in range(100):
        n = rng.randrange(2, 5)
        f = rand_poly(Z9, n, rng, monic=True)
        assert coeffs_to_traces(f, n + 2) == _companion_traces(f, n + 2)


def test_trace_datum_identity():
    n = 4
    traces = [Z9.elem(n)] * 6
    datum = trace_datum_of(traces)
    assert datum.entries[3] == Z9.elem(n) - Z9.elem(n).sigma()
    assert datum.entries[3] == Z9.zero()
    assert 9 not in datum.entries  # p^k | 9 dropped
    assert sorted(datum.entries) == [1, 2, 3, 4, 5, 6]


def test_trace_datum_unipotent():
    # M = [[1,1],[0,1]] over GR(9,1): all power traces are 2
    traces = [Z9.elem(2), Z9.elem(2), Z9.elem(2)]
    datum = trace_datum_of(traces)
    assert datum.entries[3] == Z9.zero()
    assert datum.entries[3].valuation() >= 1


def test_trace_datum_divisibility_violation():
    with pytest.raises(DivisibilityViolation):
        trace_datum_of([Z9.elem(0), Z9.elem(0), Z9.elem(1)])


def test_datum_value_count():
    # (d, k, q) = (3, 2, 3): q^{kd-S} = 3^5 = 243 by enumeration
    assert newton_ambiguity(3, 3, 2) == 1
    assert datum_value_count(Z9, 0, 3) == 243
    count = 0
    for a1 in Z9.elements():
        for a2 in Z9.elements():
            for a3 in Z9.elements():
                try:
                    TraceDatum(Z9, 0, 3, {1: a1, 2: a2, 3: a3})
                    count += 1
                except DivisibilityViolation:
                    pass
    assert count == 243


def test_interval_family_field_case():
    # k = 1: S = 0, a single interval
    traces = [F3.elem(1), F3.elem(2)]
    width, reps = traces_to_interval_family(trace_datum_of(traces), 4)
    assert width == 2 and len(reps) == 1


def test_interval_family_size_paper_example():
    # p = 3, d = 7, k = 2: S = 2, family of 9
    traces = [Z9.elem(8)] * 7
    width, reps = traces_to_interval_family(trace_datum_of(traces), 8)
    assert width == 1 and len(reps) == 9
    assert len({r.coeffs for r in reps}) == 9


def test_interval_family_roundtrip():
    # n = d = 3 over GR(9,1): width-0 family of 3 containing f itself,
    # every member reproducing the same datum
    for f in itertools.islice(monic_polys(Z9, 3), 0, 729, 7):
        datum = trace_datum_of(coeffs_to_traces(f, 3))
        width, reps = traces_to_interval_family(datum, 3)
        assert width == 0 and len(reps) == 3
        assert any(r == f for r in reps)
        for r in reps:
            assert trace_datum_of(coeffs_to_traces(r, 3)) == datum


def test_interval_families_partition():
    # distinct length-2 data give disjoint interval families (n = 3, GR(9,1))
    seen = {}
    for f in monic_polys(Z9, 3):
        datum = trace_datum_of(coeffs_to_traces(f, 2))
        width, reps = traces_to_interval_family(datum, 3)
        assert width == 1
        hits = [r for r in reps if interval_membership(f, r, width)]
        assert len(hits) == 1
        seen.setdefault(datum, set()).add(f.coeffs)
    # family sizes: q^S * (q^k)^width polynomials per datum
    for datum, members in seen.items():
        assert len(members) == 3 ** newton_ambiguity(2, 3, 2) * 9


def test_hayes_family_two_sided():
    # (d1, d2) = (1, 1), n = 3 over F_3: family size q^{0+0+1} = 3;
    # chars of invertible companions agree with exactly one representative
    by_datum = {}
    for f in monic_polys(F3, 3):
        if not f.coeff(0).is_unit():
            continue
        pos = coeffs_to_traces(f, 1)
        neg = coeffs_to_traces(reciprocal(f), 1)
        datum = trace_datum_of(pos, neg)
        l, H, reps = traces_to_hayes_family(datum, 3)
        assert l == 1 and H == monomial(F3, 2) and len(reps) == 3
        hits = [r for r in reps if hayes_label(f, l, H) == hayes_label(r, l, H)]
        assert len(hits) == 1
        by_datum.setdefault(datum.key(), set()).add(hayes_label(f, l, H))
    # distinct data land in distinct Hayes classes
    all_labels = [lab for labs in by_datum.values() for lab in labs]
    assert len(all_labels) == len(set(all_labels))


# ---- factorization / radical ----

def test_factor_and_radical():
    xm1 = from_int_coeffs(F3, [2, 1])
    xp1 = from_int_coeffs(F3, [1, 1])
    f = xm1 ** 3 * xp1
    assert radical(f) == xm1 * xp1
    assert factor(f) == [(xp1, 1), (xm1, 3)] or dict(factor(f)) == {xm1: 3, xp1: 1}
    g = from_int_coeffs(F3, [1, 0, 1])  # x^2 + 1 irreducible over F_3
    assert radical(g) == g
    assert is_irreducible(g)
    assert radical(xp1 ** 3) == xp1  # derivative-zero branch: (x+1)^3 = x^3+1


def test_irreducible_counts():
    # number of monic irreducibles of degree n over F_q: Gauss's formula
    assert len(irreducible_polys(F3, 1)) == 3
    assert len(irreducible_polys(F3, 2)) == 3
    assert len(irreducible_polys(F3, 3)) == 8
    assert len(irreducible_polys(F3, 4)) == 18
    assert len(irreducible_polys(F9, 2)) == 36


def test_factor_random_roundtrip():
    rng = random.Random(8)
    for _ in range(50):
        f = rand_poly(F3, rng.randrange(1, 7), rng, monic=True)
        acc = Poly(F3, [1])
        for g, e in factor(f):
            assert is_irreducible(g)
            acc = acc * g ** e
        assert acc == f


def _reference_factor(f):
    """Trial division with a remainder and then a quotient per hit, until
    d > deg rem / 2: the factor routine before it took one divmod per trial
    and stopped at deg rem < 2d, kept as the reference."""
    out = []
    rem = f
    d = 1
    while rem.degree >= 1:
        if d > rem.degree // 2:
            out.append((rem, 1))
            break
        for g in irreducible_polys(f.ctx, d):
            mult = 0
            while (rem % g).is_zero():
                rem = rem // g
                mult += 1
            if mult:
                out.append((g, mult))
        d += 1
    merged = {}
    for g, e in out:
        merged[g] = merged.get(g, 0) + e
    return sorted(merged.items(), key=lambda item: (
        item[0].degree, tuple(c.ints for c in item[0].coeffs)))


@pytest.mark.parametrize("ctx,top", [(F3, 6), (F5, 4)])
def test_factor_matches_reference_on_every_small_monic(ctx, top):
    for n in range(top + 1):
        for f in monic_polys(ctx, n):
            assert factor(f) == _reference_factor(f)


def test_count_with_radical_dividing():
    xm1 = from_int_coeffs(F3, [2, 1])
    xp1 = from_int_coeffs(F3, [1, 1])
    for n in range(1, 8):
        assert count_with_radical_dividing(xm1, n) == 1
        assert count_with_radical_dividing(xm1 * xp1, n) == n + 1


def test_count_small_radical_brute_force():
    for d in (1, 2):
        brute = sum(1 for f in monic_polys(F3, 6) if radical(f).degree <= d)
        assert count_small_radical(F3, 6, d) == brute
