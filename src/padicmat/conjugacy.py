"""Conjugacy-class data and exact class-probability formulas.

Conjugacy classes of the classical groups over F_q are parameterized by
assigning a partition to each monic irreducible polynomial (with sign
decorations and pairing constraints depending on the family).  This module
provides the partition bookkeeping, reads the class datum off a matrix, and
evaluates the exact class probabilities in rational arithmetic: one Fulman
product (_fulman_prob) serves gl, sp, so and u, with one factor per orbit of
the pairing phi <-> phi* (_orbits), and the Reiner characteristic-polynomial
law.  Enumeration and the min-poly law walk the same orbits.
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
    _field_arrays,
    _field_index,
    _rank_batch,
)
from .polynomials import (
    Poly,
    factor,
    irreducible_polys,
    is_irreducible,
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
        fam, entries = self.family, self.entries
        for phi, (_, signs) in entries.items():
            if not phi.is_monic() or not is_irreducible(phi):
                raise ValueError("keys must be monic irreducibles")
            if phi.coeff(0).is_zero():
                raise ValueError("x cannot divide the char poly of a unit")
            if signs and fam not in ("sp", "so"):
                raise ValueError("signs only decorate sp/so data")
            if signs and not _is_pm1(phi):
                raise ValueError("signs only decorate x -+ 1 parts")
        for phi, partner in _orbits(fam, entries):
            lam, signs = entries[phi]
            if partner is not None and (partner not in entries
                                        or entries[partner][0] != lam):
                raise ValueError("%s pairing violated" % (
                    "skew-reciprocal" if fam == "u" else "reciprocal"))
            if fam not in ("sp", "so") or not _is_pm1(phi):
                continue
            for i in lam.part_sizes():
                if not _decorated(fam, i) and lam.m(i) % 2:
                    raise ValueError(
                        "parts of size %d need even multiplicity" % i)
                if _decorated(fam, i) != (i in signs):
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


def _orbits(family, primes):
    """The orbits of the pairing phi <-> phi* on the primes, one
    (phi, partner) each in _phi_key order of phi; partner is None when
    phi* = phi.  phi* is the reciprocal for sp and so, the skew reciprocal
    for u; gl and sl pair nothing.  A partner need not be among primes."""
    seen = set()
    for phi in sorted(primes, key=_phi_key):
        if phi in seen:
            continue
        partner = None
        if family in ("sp", "so"):
            partner = reciprocal(phi)
        elif family == "u":
            partner = skew_reciprocal(phi)
        if partner == phi:
            partner = None
        seen.add(partner)
        yield phi, partner


def _decorated(family, i):
    """Whether parts of size i at x -+ 1 carry a sign in an sp or so datum:
    even i in sp, odd i in so.  The other sizes need even multiplicity."""
    return i % 2 == (0 if family == "sp" else 1)


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
    tab = _field_arrays(ctx)
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


def _fulman_prob(datum, family, q):
    """Fulman's probability of the class of a gl, sp, so or u datum in its
    group (O_n^eps with eps = so_epsilon(datum) for so), exact.

    One factor per pairing orbit; d is deg phi, doubled for u (a degree-d
    prime over F_{q^2} counts as degree 2d over F_q), e is
    _fulman_exponent(lambda) and m runs over the multiplicities of lambda:
    - a gl prime or a pair {phi, phi*}: q^{2de} prod |GL_m(q^d)|;
    - a self-paired prime: q^{de} prod |U_m(q^{d/2})|;
    - x -+ 1 in sp and so: q^{de} times |O^sign_m| for each decorated size
      and |Sp_m| for each other size; each even size shifts e by +m/2 in
      sp and -m/2 in so (so the identity of O^eps has probability
      1/|O^eps| exactly).
    The probability is one over the product of the factors.
    """
    if datum.family != family:
        raise ValueError("%s datum required" % family)
    ctx = datum.ctx
    if family == "u":
        if ctx.m % 2:
            raise ValueError("unitary data need a quadratic-extension context")
        if not q:
            q = math.isqrt(ctx.q)
            if q * q != ctx.q:
                raise ValueError("not a perfect square")
    q = q or ctx.q
    q_exp, denom = Fraction(0), 1
    for phi, partner in _orbits(family, datum.entries):
        lam, signs = datum.entries[phi]
        d = phi.degree * (2 if family == "u" else 1)
        e = _fulman_exponent(lam)
        if family in ("sp", "so") and _is_pm1(phi):
            q_exp += d * e
            for i in lam.part_sizes():
                m = lam.m(i)
                if i % 2 == 0:
                    q_exp += Fraction(m if family == "sp" else -m, 2)
                denom *= (order_o(m, signs[i], q) if _decorated(family, i)
                          else order_sp(m, q))
        elif partner is None and family != "gl":
            q_exp += d * e
            for i in lam.part_sizes():
                denom *= order_u(lam.m(i), q ** (d // 2))
        else:
            q_exp += 2 * d * e
            for i in lam.part_sizes():
                denom *= order_gl(lam.m(i), q ** d)
    if q_exp.denominator != 1:
        raise RuntimeError("non-integral q-exponent; invalid datum")
    return Fraction(1, q ** int(q_exp) * denom)


def fulman_prob_gl(datum, q=None):
    """Probability of the class in GL_n(F_q), exact."""
    return _fulman_prob(datum, "gl", q)


def fulman_prob_sp(datum, q=None):
    """Probability of the class in Sp_{2n}(F_q), exact."""
    return _fulman_prob(datum, "sp", q)


def fulman_prob_so(datum, q=None):
    """Probability of the class in O_n^eps(F_q) (eps = so_epsilon(datum))."""
    return _fulman_prob(datum, "so", q)


def fulman_prob_u(datum, q=None):
    """Probability of the class in U_n(F_q); coefficients live in F_{q^2}."""
    return _fulman_prob(datum, "u", q)


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
    for phi, partner in _orbits("so", datum.entries):
        lam, signs = datum.entries[phi]
        for i in lam.part_sizes():
            if i in signs:  # the decorated (odd) sizes at x -+ 1
                total = total + _standard_form_witt(q, lam.m(i), signs[i])
            elif partner is None and i * lam.m(i) % 2:
                # another self-reciprocal phi: one anisotropic plane per
                # odd i m(i), whatever deg phi is
                total = total + _minus_plane_witt(q)
        # even sizes at x -+ 1 and pairs are hyperbolic
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
    for lam in partitions_of(n):
        sizes = lam.part_sizes()
        if any(lam.m(i) % 2 for i in sizes if not _decorated(family, i)):
            continue
        decorated = [i for i in sizes if _decorated(family, i)]
        for chosen in itertools.product((1, -1), repeat=len(decorated)):
            yield lam, dict(zip(decorated, chosen))


def enumerate_data(family, ctx, n):
    """All valid class data of the given total size, as a generator."""
    primes = [phi for d in range(1, n + 1) for phi in irreducible_polys(ctx, d)
              if not phi.coeff(0).is_zero()]
    # a pair {phi, phi*} weighs 2 deg phi per unit of |lambda|
    slots = [(phi, partner, phi.degree * (1 if partner is None else 2))
             for phi, partner in _orbits(family, primes)]

    def rec(idx, remaining):
        if remaining == 0:
            yield {}
            return
        if idx == len(slots):
            return
        phi, partner, unit = slots[idx]
        for rest in rec(idx + 1, remaining):
            yield rest
        max_w = remaining // unit
        for w in range(1, max_w + 1):
            choices = _slot_choices(family, phi, partner, w)
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


def _slot_choices(family, phi, partner, w):
    """Entry dicts putting total weight w (per orbit unit) on this slot."""
    if family in ("sp", "so") and _is_pm1(phi):
        return [{phi: (lam, signs)}
                for lam, signs in _signed_partitions(w, family)]
    if partner is None:
        return [{phi: (lam, {})} for lam in partitions_of(w)]
    return [{phi: (lam, {}), partner: (lam, {})} for lam in partitions_of(w)]


def family_prob(datum, q=None):
    """Probability of the class in its family's group, exact."""
    return _fulman_prob(datum, _law_family(datum.family), q)


def _law_family(family):
    """family if Fulman's product covers it, else a ValueError: an sl datum
    is a GL class of determinant 1, which may split into several SL
    classes, so it fixes no SL class probability."""
    if family not in ("gl", "sp", "so", "u"):
        raise ValueError("no class law for family %s: Fulman's product "
                         "covers gl, sp, so and u" % family)
    return family


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
    _law_family(family)
    ctx = h.ctx
    if h.degree != n:
        raise ValueError("deg h must equal n")
    fac = dict(factor(h))
    choices = []  # partition choices per pairing orbit
    for phi, partner in _orbits(family, fac):
        if partner is not None and fac.get(partner) != fac[phi]:
            raise ValueError("char poly invalid for the family")
        choices.append(_slot_choices(family, phi, partner, fac[phi]))
    out = {}
    for combo in itertools.product(*choices):
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

