"""Conjugacy-class data and exact class-probability formulas.

Conjugacy classes of the classical groups over F_q are parameterized by
assigning a partition to each monic irreducible polynomial (with sign
decorations and pairing constraints depending on the family).  This module
provides the partition bookkeeping, reads the class datum off a matrix, and
evaluates the exact class probabilities (Fulman's product formulas and the
Reiner characteristic-polynomial law) in rational arithmetic.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np

from .char_derivative import WittClass
from .galois_rings import RingContext
from .matrix_groups import (
    char_poly_batch,
    _field_index,
    _field_tables,
    _rank_batch,
)
from .polynomials import (
    Poly,
    factor,
    irreducible_polys,
    reciprocal,
    skew_reciprocal,
)


# ---------------------------------------------------------------------------
# partitions


class Partition:
    """Weakly decreasing positive integer parts."""

    __slots__ = ("parts",)

    def __init__(self, parts):
        ps = tuple(sorted((int(p) for p in parts), reverse=True))
        if any(p <= 0 for p in ps):
            raise ValueError("parts must be positive")
        self.parts = ps

    @property
    def size(self):
        return sum(self.parts)

    @property
    def max_part(self):
        return self.parts[0] if self.parts else 0

    def m(self, i):
        """Number of parts of size i."""
        return sum(1 for p in self.parts if p == i)

    def part_sizes(self):
        """Distinct part sizes, descending."""
        return sorted(set(self.parts), reverse=True)

    def dual(self):
        if not self.parts:
            return Partition([])
        return Partition([sum(1 for p in self.parts if p >= j)
                          for j in range(1, self.parts[0] + 1)])

    def __eq__(self, other):
        return isinstance(other, Partition) and self.parts == other.parts

    def __hash__(self):
        return hash(self.parts)

    def __repr__(self):
        return "Partition(%s)" % (list(self.parts),)


def partitions_of(n):
    """All partitions of n (n = 0 gives the empty partition)."""
    if n == 0:
        yield Partition([])
        return

    def rec(remaining, maximum):
        if remaining == 0:
            yield []
            return
        for first in range(min(remaining, maximum), 0, -1):
            for rest in rec(remaining - first, first):
                yield [first] + rest

    for parts in rec(n, n):
        yield Partition(parts)


# Fulman's exponent: sum_{h<i} h m_h m_i + (1/2) sum_i (i-1) m_i^2,
# equal to (1/2) sum_i ((lambda'_i)^2 - m_i^2).
def _fulman_exponent(lam):
    sizes = sorted(set(lam.parts))
    e = Fraction(0)
    for a, h in enumerate(sizes):
        mh = lam.m(h)
        e += Fraction((h - 1) * mh * mh, 2)
        for i in sizes[a + 1:]:
            e += h * mh * lam.m(i)
    return e


# ---------------------------------------------------------------------------
# group orders (exact integers)


def order_gl(n, q):
    out = 1
    for i in range(n):
        out *= q ** n - q ** i
    return out


def order_sp(n, q):
    """|Sp_n(F_q)|, n even."""
    if n % 2:
        raise ValueError("symplectic groups have even rank")
    l = n // 2
    out = q ** (l * l)
    for i in range(1, l + 1):
        out *= q ** (2 * i) - 1
    return out


def order_o(n, sign, q):
    """|O_n^sign(F_q)|; for odd n both signs have the same order."""
    if n == 0:
        return 1
    if n % 2:
        l = (n - 1) // 2
        out = 2 * q ** (l * l)
        for i in range(1, l + 1):
            out *= q ** (2 * i) - 1
        return out
    l = n // 2
    out = 2 * q ** (l * (l - 1)) * (q ** l - sign)
    for i in range(1, l):
        out *= q ** (2 * i) - 1
    return out


def order_u(n, q):
    """|U_n(F_q)| for the extension F_{q^2}/F_q."""
    out = q ** (n * (n - 1) // 2)
    for i in range(1, n + 1):
        out *= q ** i - (-1) ** i
    return out


# ---------------------------------------------------------------------------
# class data


class ConjClassDatum:
    """family tag + map from monic irreducible phi to (Partition, signs).

    signs is a dict {part size: +-1} for the decorated part sizes (even
    sizes for sp, odd sizes for so; empty otherwise).
    """

    def __init__(self, family, ctx, entries):
        if family not in ("gl", "sl", "sp", "so", "u"):
            raise ValueError("unknown family")
        self.family = family
        self.ctx = ctx
        norm = {}
        for phi, val in entries.items():
            lam, signs = val if isinstance(val, tuple) else (val, {})
            if lam.parts:
                norm[phi] = (lam, dict(signs))
        self.entries = norm
        self._validate()

    @property
    def size(self):
        return sum(lam.size * phi.degree
                   for phi, (lam, _) in self.entries.items())

    def _validate(self):
        fam = self.family
        for phi, (lam, signs) in self.entries.items():
            if not phi.is_monic() or phi.degree < 1:
                raise ValueError("keys must be monic irreducibles")
            if phi.coeff(0).is_zero():
                raise ValueError("x cannot divide the char poly of a unit")
            if fam in ("gl", "sl", "u") and signs:
                raise ValueError("signs only decorate sp/so data")
            if fam in ("sp", "so") and not _is_pm1(phi):
                r = reciprocal(phi)
                if r not in self.entries or self.entries[r][0] != lam:
                    raise ValueError("reciprocal pairing violated")
                if signs:
                    raise ValueError("signs only decorate x -+ 1 parts")
            if fam == "u":
                r = skew_reciprocal(phi)
                if r not in self.entries or self.entries[r][0] != lam:
                    raise ValueError("skew-reciprocal pairing violated")
            if fam in ("sp", "so") and _is_pm1(phi):
                want_parity = 1 if fam == "sp" else 0
                for i in lam.part_sizes():
                    if i % 2 == want_parity and lam.m(i) % 2:
                        raise ValueError(
                            "parts of size %d need even multiplicity" % i)
                    decorated = (i % 2 == 0) if fam == "sp" else (i % 2 == 1)
                    if decorated != (i in signs):
                        raise ValueError("sign decoration mismatch at %d" % i)
                    if i in signs and signs[i] not in (1, -1):
                        raise ValueError("signs are +-1")
        if fam == "sp" and self.size % 2:
            raise ValueError("symplectic data have even size")

    def char_poly(self):
        out = Poly(self.ctx, [1])
        for phi, (lam, _) in sorted(self.entries.items(), key=_phi_key):
            out = out * phi ** lam.size
        return out

    def min_poly(self):
        out = Poly(self.ctx, [1])
        for phi, (lam, _) in sorted(self.entries.items(), key=_phi_key):
            out = out * phi ** lam.max_part
        return out

    def canonical(self):
        parts = []
        for phi, (lam, signs) in sorted(self.entries.items(), key=_phi_key):
            cs = ".".join(str(v) for c in phi.coeffs for v in c.ints)
            sg = ",".join("%d%s" % (i, "+" if signs[i] > 0 else "-")
                          for i in sorted(signs))
            parts.append("%s:%s:%s" % (cs, ",".join(map(str, lam.parts)), sg))
        return "%s/%s" % (self.family, "|".join(parts))

    def __eq__(self, other):
        return (isinstance(other, ConjClassDatum)
                and self.family == other.family
                and self.ctx == other.ctx
                and self.entries == {
                    p: (l, dict(s)) for p, (l, s) in other.entries.items()})

    def __repr__(self):
        return "ConjClassDatum(%s)" % self.canonical()


def _phi_key(item):
    phi = item[0] if isinstance(item, tuple) else item
    return (phi.degree, tuple(v for c in phi.coeffs for v in c.ints))


def _is_pm1(phi):
    ctx = phi.ctx
    return phi == Poly(ctx, [-1, 1]) or phi == Poly(ctx, [1, 1])


def class_of_matrix_gl(M):
    """Conjugacy class datum of an invertible matrix over a field context."""
    [(datum, _)] = class_census_gl(M.ctx, [M.a[None]]).values()
    return datum


def class_census_gl(ctx, blocks):
    """Conjugacy classes of the invertible matrices in blocks over a field.

    blocks is an iterable of (N, n, n, m) arrays.  Returns a dict mapping
    each class's canonical string to (datum, count), in the order the
    classes first appear: block by block, and within a block by char poly
    (in np.unique order), then by matrix.  Each block takes a few batch
    passes:

    - one char_poly_batch, whose distinct char polys are each factored
      once per census;
    - a prime phi of multiplicity 1 has the part (1), since the rank of
      phi(M) is forced to n - deg phi, so it needs no rank;
    - for each prime phi repeated in some char poly of the block, one
      _rank_batch over the powers phi(M)^j, j < e, of the block's matrices
      with multiplicity e >= 2 at phi; the ranks fall by multiples of deg
      phi down to n - e deg phi, and the drops over deg phi are the dual
      partition of phi's part;
    - one count of the distinct rows (char poly, ranks) (_unique_rows),
      which counts the classes rather than the matrices.

    Each Partition and datum is built once per class.
    """
    if ctx.k != 1:
        raise ValueError("class data live at the residue level")
    tab = _field_tables(ctx)
    factored = {}  # char poly key -> its factorization, for this census
    counts = {}  # (char poly key, parts per prime) -> count
    for a in blocks:
        n = a.shape[-3]
        chars = char_poly_batch(ctx, a)
        keys, first, which, _ = _unique_rows(_field_index(ctx, chars))
        keys = [key.tobytes() for key in keys]
        repeated = {}  # phi -> its multiplicity in each char poly of keys
        for u, (key, i) in enumerate(zip(keys, first)):
            if key not in factored:
                g = Poly(ctx, chars[i].tolist())
                if g.coeff(0).is_zero():
                    raise ValueError("matrix is not invertible")
                factored[key] = factor(g)
            for phi, e in factored[key]:
                if e > 1:
                    repeated.setdefault(
                        phi, np.zeros(len(keys), dtype=np.intp))[u] = e
        columns, start = [which[:, None]], {}
        for phi, e in repeated.items():
            start[phi] = sum(c.shape[1] for c in columns)
            columns.append(_power_ranks(ctx, tab, a, phi, e[which]))
        rows = np.concatenate(columns, axis=1)
        classes, first, _, count = _unique_rows(rows)
        for c in np.lexsort((first, classes[:, 0])):
            key = keys[classes[c, 0]]
            lams = tuple(
                _parts_from_ranks(n, phi.degree, e, classes[
                    c, start[phi]:start[phi] + e - 1].tolist())
                if e > 1 else (1,)
                for phi, e in factored[key])
            counts[key, lams] = counts.get((key, lams), 0) + int(count[c])
    census = {}
    for (key, lams), count in counts.items():
        datum = ConjClassDatum("gl", ctx, {
            phi: (Partition(lam), {})
            for (phi, _), lam in zip(factored[key], lams)})
        census[datum.canonical()] = (datum, count)
    return census


def _unique_rows(x):
    """np.unique(x, axis=0) for a 2-d int array, with the index of each
    distinct row's first appearance, the inverse and the counts: one
    lexsort, several times faster than np.unique's sort of row records."""
    order = np.lexsort(x.T[::-1])
    x = x[order]
    new = np.ones(len(x), dtype=bool)
    new[1:] = np.any(x[1:] != x[:-1], axis=1)
    inverse = np.empty(len(x), dtype=np.intp)
    inverse[order] = np.cumsum(new) - 1
    return (x[new], order[new], inverse,
            np.diff(np.append(np.flatnonzero(new), len(x))))


def _power_ranks(ctx, tab, a, phi, e):
    """Ranks of phi(M)^j, j = 1 .. max(e) - 1, for the matrices M of the
    batch a whose multiplicity e at the prime phi is at least 2 (e holds
    one per matrix), as an (N, max(e) - 1) array; -1 for the others.  One
    _rank_batch runs over all the powers.  Past the matrix's own e - 1 the
    rank stays at n - e deg phi, so a class still gives one row."""
    n, live = a.shape[-3], np.flatnonzero(e > 1)
    eye = np.eye(n, dtype=np.int64)[:, :, None]
    P = np.zeros_like(a[live])
    for c in reversed(phi.coeffs):
        P = (ctx.mat_mul(P, a[live]) + eye * c.coeffs) % ctx.mod
    powers = [P]
    for _ in range(2, e.max()):
        powers.append(ctx.mat_mul(powers[-1], P))
    ranks = _rank_batch(tab, _field_index(ctx, np.concatenate(powers)))
    out = np.full((len(a), len(powers)), -1, dtype=np.intp)
    out[live] = ranks.reshape(len(powers), len(live)).T
    return out


def _parts_from_ranks(n, d, e, ranks):
    """Parts of the partition at a prime of degree d and multiplicity e,
    from the ranks of phi(M)^j, j = 1 .. e - 1: the rank drops from n down
    to n - e d, divided by d, are the dual partition."""
    ranks = [n] + ranks + [n - e * d]
    drops = [r - s for r, s in zip(ranks, ranks[1:])]
    if any(x % d or x < 0 for x in drops) or drops != sorted(drops,
                                                             reverse=True):
        raise RuntimeError("rank profile not a dual partition of e deg phi")
    dual = [x // d for x in drops if x]
    return tuple(sum(1 for x in dual if x >= i)
                 for i in range(1, dual[0] + 1))


# ---------------------------------------------------------------------------
# Fulman probabilities


def _merge_pairs(datum, conj):
    """Iterate entries once per reciprocal pair; yields
    (phi, lam, signs, kind) with kind in ('pm1', 'self', 'pair')."""
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


def fulman_prob_gl(datum, q=None):
    """Probability of the class in GL_n(F_q), exact."""
    if datum.family != "gl":
        raise ValueError("gl datum required")
    q = q or datum.ctx.q
    denom = 1
    for phi, (lam, _) in datum.entries.items():
        Q = q ** phi.degree
        dual = lam.dual()
        denom *= Q ** sum(dp * dp for dp in dual.parts)
        for i in lam.part_sizes():
            mi = lam.m(i)
            # (1/Q)_m = prod_{j=1..m} (1 - Q^{-j}), cleared of denominators
            num = 1
            for j in range(1, mi + 1):
                num *= Q ** j - 1
            denom = Fraction(denom) * Fraction(num, Q ** (mi * (mi + 1) // 2))
    return 1 / Fraction(denom)


def _finish_prob(q, q_exp, orders):
    if q_exp.denominator != 1:
        raise RuntimeError("non-integral q-exponent; invalid datum")
    denom = q ** int(q_exp)
    for t in orders:
        denom *= t
    return Fraction(1, denom)


def fulman_prob_sp(datum, q=None):
    """Probability of the class in Sp_{2n}(F_q), exact."""
    if datum.family != "sp":
        raise ValueError("sp datum required")
    q = q or datum.ctx.q
    q_exp = Fraction(0)
    orders = []
    for phi, lam, signs, kind in _merge_pairs(datum, reciprocal):
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
        else:  # pair: both factors carry the exponent; |GL|^(1/2) each
            q_exp += 2 * d * e
            for i in lam.part_sizes():
                orders.append(order_gl(lam.m(i), q ** d))
    return _finish_prob(q, q_exp, orders)


def fulman_prob_so(datum, q=None):
    """Probability of the class in O_n^eps(F_q) (eps = so_epsilon(datum)).

    For phi = x -+ 1 the factor is |O^mu| on odd part sizes and
    q^{-m/2}|Sp_m| on even ones (matching the sign convention: signs sit on
    odd sizes, even sizes have even multiplicity and carry the symplectic
    factor; the identity class then gets probability 1/|O^eps| exactly).
    """
    if datum.family != "so":
        raise ValueError("so datum required")
    q = q or datum.ctx.q
    q_exp = Fraction(0)
    orders = []
    for phi, lam, signs, kind in _merge_pairs(datum, reciprocal):
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
    return _finish_prob(q, q_exp, orders)


def fulman_prob_u(datum, q=None):
    """Probability of the class in U_n(F_q); coefficients live in F_{q^2}."""
    if datum.family != "u":
        raise ValueError("u datum required")
    ctx = datum.ctx
    if ctx.m % 2:
        raise ValueError("unitary data need a quadratic-extension context")
    if not q:
        q = math.isqrt(ctx.q)
        if q * q != ctx.q:
            raise ValueError("not a perfect square")
    q_exp = Fraction(0)
    orders = []
    for phi, lam, signs, kind in _merge_pairs(datum, skew_reciprocal):
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
    return _finish_prob(q, q_exp, orders)


# ---------------------------------------------------------------------------
# which O^eps an so datum belongs to


def _minus_plane_witt(q):
    """Witt class of the 2-dim anisotropic form <1, -delta>."""
    return WittClass(q, 1, 1) if q % 4 == 1 else WittClass(q, 2, 0)


def _standard_form_witt(q, n, sign):
    """Witt class of the standard type-`sign` form of rank n."""
    if n % 2:
        w = WittClass(q, 1, 0) if sign == 1 else WittClass(q, 0, 1)
        return w
    if sign == 1:
        return WittClass(q, 0, 0)
    return _minus_plane_witt(q)


def so_epsilon(datum):
    """The type eps of the orthogonal group O_n^eps containing the class."""
    if datum.family != "so":
        raise ValueError("so datum required")
    q = datum.ctx.q
    total = WittClass(q, 0, 0)
    for phi, lam, signs, kind in _merge_pairs(datum, reciprocal):
        if kind == "pm1":
            for i in lam.part_sizes():
                if i % 2 == 1:
                    total = total + _standard_form_witt(q, lam.m(i), signs[i])
                # even sizes contribute hyperbolically
        elif kind == "self":
            # one anisotropic plane per odd i m(i), whatever deg phi is
            for i in lam.part_sizes():
                if i * lam.m(i) % 2:
                    total = total + _minus_plane_witt(q)
        # pairs are hyperbolic
    n = datum.size
    for sign in (1, -1):
        if _standard_form_witt(q, n, sign) == total:
            return sign
    raise RuntimeError("no standard form matches the datum's Witt class")


# ---------------------------------------------------------------------------
# datum enumeration


def prime_enum(q, maxdeg):
    """Monic irreducibles over F_q up to maxdeg, sorted by (degree, coeffs)."""
    ctx = _field_context(q)
    out = []
    for d in range(1, maxdeg + 1):
        batch = sorted(irreducible_polys(ctx, d), key=_phi_key)
        out.extend(batch)
    return out


def _field_context(q):
    p = _smallest_prime_factor(q)
    m = 0
    t = q
    while t > 1:
        if t % p:
            raise ValueError("q must be a prime power")
        t //= p
        m += 1
    return RingContext(p, m, 1)


def _smallest_prime_factor(n):
    d = 2
    while d * d <= n:
        if n % d == 0:
            return d
        d += 1
    return n


def _signed_partitions(n, family):
    """(Partition, signs) pairs valid for lambda_{x -+ 1} in sp/so."""
    want_parity = 1 if family == "sp" else 0
    for lam in partitions_of(n):
        ok = all(lam.m(i) % 2 == 0 for i in lam.part_sizes()
                 if i % 2 == want_parity)
        if not ok:
            continue
        decorated = [i for i in lam.part_sizes() if i % 2 != want_parity]
        for chosen in itertools.product((1, -1), repeat=len(decorated)):
            yield lam, dict(zip(decorated, chosen))


def enumerate_data(family, ctx, n):
    """All valid class data of the given total size, as a generator."""
    if family == "u":
        conj = skew_reciprocal
    else:
        conj = reciprocal
    primes = [phi for phi in
              (irreducible_polys(ctx, d) for d in range(1, n + 1))
              for phi in phi]
    primes = [phi for phi in primes if not phi.coeff(0).is_zero()]
    primes.sort(key=_phi_key)
    # group into orbit representatives under the pairing
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
            if r in seen:
                continue
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
        for rest in rec(idx + 1, remaining):
            yield rest
        max_w = remaining // unit
        for w in range(1, max_w + 1):
            choices = _slot_choices(family, phi, rphi, w)
            for entry in choices:
                for rest in rec(idx + 1, remaining - w * unit):
                    d = dict(rest)
                    d.update(entry)
                    yield d

    for entries in rec(0, n):
        if family == "sp" and not entries:
            continue
        try:
            yield ConjClassDatum(family, ctx, entries)
        except ValueError:
            continue


def _slot_choices(family, phi, rphi, w):
    """Entry dicts putting total weight w (per orbit unit) on this slot."""
    if family in ("sp", "so") and _is_pm1(phi):
        return [{phi: (lam, signs)}
                for lam, signs in _signed_partitions(w, family)]
    if rphi is None:
        return [{phi: (lam, {})} for lam in partitions_of(w)]
    return [{phi: (lam, {}), rphi: (lam, {})} for lam in partitions_of(w)]


def family_prob(datum, q=None):
    return {
        "gl": fulman_prob_gl,
        "sp": fulman_prob_sp,
        "so": fulman_prob_so,
        "u": fulman_prob_u,
    }[datum.family](datum, q)


# ---------------------------------------------------------------------------
# char poly and min poly laws


def charpoly_prob_gl(f):
    """Pr[char(M) = f] for Haar M in GL_n(F_q), n = deg f, exact."""
    if not f.is_monic():
        raise ValueError("f must be monic")
    if f.coeff(0).is_zero():
        raise ValueError("f(0) = 0 never happens for invertible matrices")
    q = f.ctx.q
    out = Fraction(1)
    for phi, e in factor(f):
        m = phi.degree
        out *= Fraction(q ** (m * e * (e - 1)), order_gl(e, q ** m))
    return out


def min_poly_joint(n, family, q, h):
    """Map deg min -> Pr[deg min = that AND char = h], exact."""
    ctx = h.ctx
    if h.degree != n:
        raise ValueError("deg h must equal n")
    fac = dict(factor(h))
    conj = skew_reciprocal if family == "u" else reciprocal
    # partition choices per pairing orbit
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
            if fac.get(r) != fac[phi]:
                raise ValueError("char poly invalid for the family")
            slots.append((phi, r, fac[phi]))
            seen.add(phi)
            seen.add(r)

    out = {}
    for combo in itertools.product(*[
            _slot_choices(family, phi, rphi, e) for phi, rphi, e in slots]):
        entries = {}
        for entry in combo:
            entries.update(entry)
        try:
            datum = ConjClassDatum(family, ctx, entries)
        except ValueError:
            continue
        degmin = datum.min_poly().degree
        out[degmin] = out.get(degmin, Fraction(0)) + family_prob(datum, q)
    return out

