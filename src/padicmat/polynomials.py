"""Univariate polynomials over Galois rings.

Provides dense polynomial arithmetic, reciprocal and palindromic structure,
coefficient-window ("Hayes") equivalence classes and their characters over
finite fields, the Newton correspondence between power traces and
characteristic-polynomial coefficients, and radical counting.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

from .galois_rings import (
    GRElem, ContextMismatchError, _elem, _padd, _pdivmod, _pgcd,
    _pirreducible, _pmul, _ppow, _ptrim)


class DivisibilityViolation(ValueError):
    """A trace sequence that no matrix over the ring can realize."""


class EnumerationBound(ValueError):
    """A brute-force enumeration exceeds the configured size cap."""


class Poly:
    """Dense univariate polynomial; coeffs[i] is the coefficient of x^i.

    The polynomial is held as its polynomial-kernel coefficients (see
    `galois_rings`): ints for m = 1, tuples of m ints for m > 1, with no
    zero leading coefficient.  All arithmetic runs on them; `coeffs` and
    `coeff` are GRElem views, built when they are read.
    """

    __slots__ = ("ctx", "_ints", "_elems")

    def __init__(self, ctx, coeffs):
        ints = []
        for c in coeffs:
            if not isinstance(c, GRElem):
                c = ctx.elem(c)
            elif c.ctx is not ctx and c.ctx != ctx:
                raise ContextMismatchError("coefficient from a different ring")
            ints.append(c.ints[0] if ctx.m == 1 else c.ints)
        self.ctx = ctx
        self._ints = tuple(_ptrim(ctx, ints))
        self._elems = None

    @property
    def coeffs(self):
        if self._elems is None:
            self._elems = tuple([_coeff_elem(self.ctx, c) for c in self._ints])
        return self._elems

    @property
    def degree(self):
        return len(self._ints) - 1

    def is_zero(self):
        return not self._ints

    def is_monic(self):
        return bool(self._ints) and self._ints[-1] == self.ctx._c1

    def coeff(self, i):
        if 0 <= i < len(self._ints):
            return _coeff_elem(self.ctx, self._ints[i])
        return self.ctx.zero()

    def _wrap(self, other):
        if isinstance(other, Poly):
            if other.ctx is not self.ctx and other.ctx != self.ctx:
                raise ContextMismatchError("different ring contexts")
            return other
        return Poly(self.ctx, [other])

    def __add__(self, other):
        return _poly(self.ctx, _padd(self.ctx, self._ints,
                                     self._wrap(other)._ints))

    __radd__ = __add__

    def __sub__(self, other):
        return _poly(self.ctx, _padd(self.ctx, self._ints,
                                     self._wrap(other)._ints, -1))

    def __rsub__(self, other):
        return self._wrap(other) - self

    def __neg__(self):
        return _poly(self.ctx, _padd(self.ctx, (), self._ints, -1))

    def __mul__(self, other):
        return _poly(self.ctx, _pmul(self.ctx, self._ints,
                                     self._wrap(other)._ints))

    __rmul__ = __mul__

    def __pow__(self, e):
        return _poly(self.ctx, _ppow(self.ctx, self._ints, e))

    def __divmod__(self, other):
        q, r = _pdivmod(self.ctx, self._ints, self._wrap(other)._ints)
        return _poly(self.ctx, q), _poly(self.ctx, r)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __call__(self, a):
        # f(a) is the remainder of f modulo x - a
        ctx = self.ctx
        x_minus_a = _padd(ctx, (ctx._c0, ctx._c1), Poly(ctx, [a])._ints, -1)
        r = _pdivmod(ctx, self._ints, x_minus_a)[1]
        return _coeff_elem(ctx, r[0]) if r else ctx.zero()

    def derivative(self):
        ctx, mod = self.ctx, self.ctx.mod
        if ctx.m == 1:
            ints = [i * c % mod for i, c in enumerate(self._ints)]
        else:
            ints = [tuple([i * v % mod for v in c])
                    for i, c in enumerate(self._ints)]
        return _poly(ctx, _ptrim(ctx, ints[1:]))

    def gcd(self, other):
        if self.ctx.k != 1:
            raise ValueError("gcd is only defined over field contexts")
        return _poly(self.ctx, _pgcd(self.ctx, self._ints,
                                     self._wrap(other)._ints))

    def sigma(self):
        return Poly(self.ctx, [c.sigma() for c in self.coeffs])

    def reduce(self, k):
        return Poly(self.ctx.reduced_context(k), [c.reduce(k) for c in self.coeffs])

    def lift(self, k):
        return Poly(self.ctx.raised_context(k), [c.lift(k) for c in self.coeffs])

    def shift(self, t):
        """Multiply by x^t."""
        if self.is_zero():
            return self
        return _poly(self.ctx, (self.ctx._c0,) * t + self._ints)

    def __eq__(self, other):
        if not isinstance(other, Poly):
            if not isinstance(other, (int, GRElem)):
                return False
            other = self._wrap(other)
        return self._ints == other._ints and (other.ctx is self.ctx
                                              or other.ctx == self.ctx)

    def __hash__(self):
        return hash((self.ctx, self.coeffs))

    def encode(self):
        if self.is_zero():
            return "0 @ %r" % self.ctx
        parts = []
        for i, c in enumerate(self.coeffs):
            cs = ",".join(str(v) for v in c.ints)
            if self.ctx.m > 1:
                cs = "(%s)" % cs
            parts.append(cs if i == 0 else "%s*x^%d" % (cs, i))
        return " + ".join(parts) + " @ %r" % self.ctx

    def __repr__(self):
        return self.encode()


def _poly(ctx, ints):
    """The Poly of trimmed polynomial-kernel coefficients (no checks)."""
    f = object.__new__(Poly)
    f.ctx = ctx
    f._ints = tuple(ints)
    f._elems = None
    return f


@functools.lru_cache(maxsize=4096)
def _coeff_elem(ctx, c):
    """The GRElem of a kernel coefficient; GRElems are immutable, so the
    views of every Poly share them."""
    return _elem(ctx, (c,) if ctx.m == 1 else c)


def x_poly(ctx):
    return Poly(ctx, [0, 1])


def monomial(ctx, t, c=1):
    if t < 0:
        raise ValueError("monomial degree t must be nonnegative, not %d" % t)
    return Poly(ctx, [0] * t + [c])


def from_int_coeffs(ctx, ints):
    """Polynomial with coefficients from base-ring integers."""
    return Poly(ctx, [ctx.elem(int(c)) for c in ints])


def monic_polys(ctx, n):
    """All monic polynomials of degree n over the context, lexicographically."""
    for f in _monic_ints(ctx, n):
        yield _poly(ctx, f)


def _coeff_values(ctx):
    """Every kernel coefficient, in the order of ctx.elements()."""
    return [c.ints[0] if ctx.m == 1 else c.ints for c in ctx.elements()]


def _monic_ints(ctx, n):
    one = (ctx._c1,)
    for tail in itertools.product(_coeff_values(ctx), repeat=n):
        yield tail + one


# ---------------------------------------------------------------------------
# reciprocal / palindromic structure


def reciprocal(f):
    """x^deg(f) f(1/x) / f(0); an involution on monics with unit constant."""
    ctx = f.ctx
    c0 = f._ints[0] if f._ints else ctx._c0
    return _poly(ctx, _pmul(ctx, f._ints[::-1], [ctx._inv_coeff(c0)]))


def skew_reciprocal(f):
    """Like reciprocal but with tau applied to the coefficients first."""
    cs = [c.tau() for c in f.coeffs]
    c0_inv = cs[0].inv()
    return Poly(f.ctx, [c * c0_inv for c in reversed(cs)])


def star_conjugate(f, n):
    """x^n tau(f)(1/x) for deg f <= n (no constant-term normalization)."""
    if f.degree > n:
        raise ValueError("degree exceeds n")
    return Poly(f.ctx, [f.coeff(n - i).tau() for i in range(n + 1)])


def is_palindromic(f, n):
    """x^n f(1/x) == f, for deg f <= n."""
    if f.degree > n:
        raise ValueError("degree exceeds n")
    return all(f.coeff(i) == f.coeff(n - i) for i in range(n + 1))


def palindromic_basis(ctx, n, eps=1):
    """Basis of {f of degree < n : x^n f(1/x) = eps f} for eps = +-1.

    The constant term is forced to zero and coefficients pair up as
    a_{n-i} = eps a_i; the middle one (n even) is free for eps = 1 only.
    """
    basis = []
    for i in range(1, (n + 1) // 2):
        basis.append(monomial(ctx, i) + monomial(ctx, n - i, eps))
    if n % 2 == 0 and n >= 2 and eps == 1:
        basis.append(monomial(ctx, n // 2))
    return basis


def palindromic_polys(ctx, n):
    """All n-palindromic polynomials of degree < n."""
    basis = palindromic_basis(ctx, n)
    for coeffs in itertools.product(list(ctx.elements()), repeat=len(basis)):
        acc = Poly(ctx, [])
        for c, b in zip(coeffs, basis):
            acc = acc + c * b
        yield acc


def star_symmetric_polys(ctx, n):
    """All f of degree < n with x^n tau(f)(1/x) = f.

    Every such f is h + h* (n odd) or h + c x^{n/2} + h* with c tau-fixed
    (n even), where deg h <= (n-1)/2 and h(0) = 0.
    """
    h_top = (n - 1) // 2
    elems = list(ctx.elements())
    tau_fixed = [a for a in elems if a.tau() == a]
    for hc in itertools.product(elems, repeat=h_top):
        h = Poly(ctx, [ctx.zero()] + list(hc))
        base = h + star_conjugate(h, n)
        if n % 2 == 0:
            for c in tau_fixed:
                yield base + c * monomial(ctx, n // 2)
        else:
            yield base


@functools.lru_cache(maxsize=None)
def hilbert90_beta(ctx, alpha):
    """Some beta with tau(beta)/beta = alpha, for alpha of norm 1; the units
    are scanned once per (ring, alpha)."""
    if not (alpha * alpha.tau() == ctx.one()):
        raise ValueError("alpha must have norm 1")
    for beta in ctx.units():
        if beta.tau() == alpha * beta:
            return beta
    raise ValueError("no Hilbert-90 solution found")


def skew_palindromic_polys(ctx, n, alpha):
    """All f of degree < n with x^n tau(f)(1/x) = tau(alpha) f."""
    beta = hilbert90_beta(ctx, alpha)
    beta_inv = beta.inv()
    for g in star_symmetric_polys(ctx, n):
        yield beta_inv * g


def is_skew_palindromic(f, n, alpha):
    if not (alpha * alpha.tau() == f.ctx.one()):
        raise ValueError("alpha must have norm 1")
    return star_conjugate(f, n) == alpha.tau() * f


def to_palindromic(g, n):
    """g(x + 1/x) x^{n/2} for even n; (x+1) g(x + 1/x) x^{(n-1)/2} for odd n.

    Sends monic g of degree floor(n/2) (even n) or floor(n/2) (odd n, i.e.
    degree (n-1)/2) bijectively onto the monic n-palindromics of degree n.
    """
    ctx = g.ctx
    x2p1 = Poly(ctx, [1, 0, 1])  # x^2 + 1
    if n % 2 == 0:
        half = n // 2
        if g.degree != half:
            raise ValueError("need deg g = n/2")
        acc = Poly(ctx, [])
        for j in range(half + 1):
            acc = acc + g.coeff(j) * (x2p1 ** j).shift(half - j)
        return acc
    half = (n - 1) // 2
    if g.degree != half:
        raise ValueError("need deg g = (n-1)/2")
    acc = Poly(ctx, [])
    for j in range(half + 1):
        acc = acc + g.coeff(j) * (x2p1 ** j).shift(half - j)
    return Poly(ctx, [1, 1]) * acc


def from_palindromic(f, n):
    """Inverse of to_palindromic on monic n-palindromics of degree n."""
    ctx = f.ctx
    if f.degree != n or not f.is_monic() or not is_palindromic(f, n):
        raise ValueError("input must be monic n-palindromic of degree n")
    if n % 2 == 1:
        q, r = divmod(f, Poly(ctx, [1, 1]))
        if not r.is_zero():
            raise ValueError("odd-degree palindromic must vanish at -1")
        return from_palindromic(q, n - 1)
    half = n // 2
    x2p1 = Poly(ctx, [1, 0, 1])
    rem = f
    g = [ctx.zero()] * (half + 1)
    for j in range(half, -1, -1):
        c = rem.coeff(half + j)
        g[j] = c
        rem = rem - c * (x2p1 ** j).shift(half - j)
    if not rem.is_zero():
        raise ValueError("not in the image")
    return Poly(ctx, g)


# ---------------------------------------------------------------------------
# Hayes (coefficient-window + residue) equivalence


def hayes_label(f, l, H):
    """The Hayes class of monic f as kernel coefficient tuples (window,
    residue): window[j - 1] is the coefficient of x^{deg f - j}, 0 when
    deg f < j, for j = 1..l, and residue is f mod H (empty if deg H < 1)."""
    if not f.is_monic():
        raise ValueError("label defined for monic polynomials")
    window = (f._ints[-2::-1] + (f.ctx._c0,) * l)[:l]
    residue = _pdivmod(f.ctx, f._ints, H._ints)[1] if H.degree >= 1 else ()
    return window, tuple(residue)


def _euler_phi_poly(H):
    """Order of (F_q[x]/H)^x for monic H over a field context: the product
    of q^(e deg phi) - q^((e - 1) deg phi) over the prime powers phi^e of H."""
    if H.degree == 0:
        return 1
    q, out = H.ctx.q, 1
    for phi, e in _factor_ints(H, every_monic=True):
        d = len(phi) - 1
        out *= q ** (e * d) - q ** ((e - 1) * d)
    return out


class HayesClassGroup:
    """The group of Hayes classes of monics coprime to H, for a field context.

    A class is an integer id: its index in the list of labels, which runs
    over the windows and then the residues coprime to H.  Two labels
    multiply directly, so the group never builds a representative: the
    windows w, v multiply as (1 + w_1 t + ... + w_l t^l)(1 + v_1 t + ...)
    mod t^{l+1}, with t = 1/x, and the residues multiply mod H.
    """

    def __init__(self, ctx, l, H, bound=10 ** 4):
        if ctx.k != 1:
            raise ValueError("Hayes class group only over field contexts")
        if l < 0:
            raise ValueError("window length l must be nonnegative, not %d" % l)
        if not H.is_monic() and H.degree != 0:
            raise ValueError("H must be monic or a nonzero constant")
        self.ctx, self.l, self.H = ctx, l, H
        self.order = ctx.q ** l * _euler_phi_poly(H)
        if self.order > bound:
            raise EnumerationBound("unit group too large: %d" % self.order)
        coeffs = _coeff_values(ctx)
        residues = [tuple(_ptrim(ctx, list(r)))
                    for r in itertools.product(coeffs, repeat=H.degree)]
        residues = [r for r in residues if len(_pgcd(ctx, r, H._ints)) == 1]
        self._labels = [(w, r) for w in itertools.product(coeffs, repeat=l)
                        for r in residues]
        if len(self._labels) != self.order:
            raise RuntimeError("%d class representatives, expected %d"
                               % (len(self._labels), self.order))
        self._ids = {lab: i for i, lab in enumerate(self._labels)}

    def label(self, f):
        return hayes_label(f, self.l, self.H)

    def elements(self):
        """The canonical representatives in id order: the monics of degree
        l + deg H with each class's window and residue."""
        ctx, H = self.ctx, self.H._ints
        reps = []
        for window, residue in self._labels:
            # top is 0 below x^{deg H}; adding residue - top mod H sets f mod H
            top = (ctx._c0,) * (len(H) - 1) + window[::-1] + (ctx._c1,)
            low = _padd(ctx, residue, _pdivmod(ctx, top, H)[1], -1)
            reps.append(_poly(ctx, _padd(ctx, top, low)))
        return reps

    def _mul(self, a, b):
        """The id of the product of the classes with ids a and b."""
        ctx, l = self.ctx, self.l
        (w, r), (v, s) = self._labels[a], self._labels[b]
        wv = _pmul(ctx, (ctx._c1,) + w, (ctx._c1,) + v)[1:l + 1]
        rs = _pdivmod(ctx, _pmul(ctx, r, s), self.H._ints)[1]
        return self._ids[(tuple(wv) + (ctx._c0,) * (l - len(wv)), tuple(rs))]

    @functools.cached_property
    def _structure(self):
        """(orders, log): G = prod Z/n_i over the orders n_i, and log[i] is
        the exponent tuple of the class with id i.

        Greedy: the next generator is an element g of largest order t
        modulo the subgroup S found so far.  Then g^t lies in S with
        exponents divisible by t, and dividing g by their t-th root gives
        a generator of order exactly t, independent of S.
        """
        ident = self._ids[self.label(_poly(self.ctx, [self.ctx._c1]))]
        # powers[g] = [g, g^2, ..., g^{ord g} = identity]
        powers = []
        for g in range(self.order):
            chain = [g]
            while chain[-1] != ident:
                chain.append(self._mul(chain[-1], g))
            powers.append(chain)
        gens, orders, log = [], [], {ident: ()}

        def order_mod(g):
            return next(t for t, h in enumerate(powers[g], 1) if h in log)

        while len(log) < self.order:
            adj = g = max(range(self.order), key=order_mod)
            t = order_mod(g)
            for h, n_h, e in zip(gens, orders, log[powers[g][t - 1]]):
                if e % t:
                    raise RuntimeError("basis adjustment failed")
                k = (-(e // t)) % n_h
                if k:
                    adj = self._mul(adj, powers[h][k - 1])
            gens.append(adj)
            orders.append(t)
            new = {}
            for s, exps in log.items():
                for e in range(t):
                    new[s] = exps + (e,)
                    s = self._mul(s, adj)
            log = new
        return orders, [log[i] for i in range(self.order)]


class HayesCharacter:
    """A character of the Hayes class group, stored as exact exponents.

    The value on f is the root of unity exp(2*pi*i*exponent(f)/modulus);
    exponent(f) is None when f is not coprime to H (character value 0).
    """

    def __init__(self, group, exps):
        self.group = group
        self._orders, self._log = group._structure
        self.modulus = math.lcm(*self._orders)
        self.exps = tuple(exps)  # value exp(2 pi i c_i/n_i) on generator i

    def exponent(self, f):
        if not f.is_monic() or f.gcd(self.group.H).degree != 0:
            return None
        E, log = self.modulus, self._log[self.group._ids[self.group.label(f)]]
        return sum((E // n) * c * e
                   for n, c, e in zip(self._orders, self.exps, log)) % E

    def is_trivial(self):
        return all(c % n == 0 for n, c in zip(self._orders, self.exps))

    def __repr__(self):
        return "HayesCharacter(exps=%r, modulus=%d)" % (self.exps, self.modulus)


def hayes_characters(ctx, l, H, bound=10 ** 4):
    """The full dual group of the Hayes class group (size q^l phi(H))."""
    group = HayesClassGroup(ctx, l, H, bound=bound)
    return [HayesCharacter(group, exps)
            for exps in itertools.product(*map(range, group._structure[0]))]


# -- exact root-of-unity sums --


def _int_polymul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return out


def _int_polydiv_exact(a, b):
    a = list(a)
    q = [0] * (len(a) - len(b) + 1)
    for i in range(len(a) - len(b), -1, -1):
        c = a[i + len(b) - 1]
        if c % b[-1]:
            raise RuntimeError("integer polynomial division is not exact")
        c //= b[-1]
        q[i] = c
        for j in range(len(b)):
            a[i + j] -= c * b[j]
    if any(a):
        raise RuntimeError("integer polynomial division leaves a remainder")
    return q


@functools.lru_cache(maxsize=None)
def cyclotomic_int_poly(E):
    """Coefficients of the E-th cyclotomic polynomial, low to high."""
    num = [1]
    den = [1]
    for d in range(1, E + 1):
        if E % d:
            continue
        mu = _moebius(E // d)
        term = [-1] + [0] * (d - 1) + [1]  # x^d - 1
        if mu == 1:
            num = _int_polymul(num, term)
        elif mu == -1:
            den = _int_polymul(den, term)
    return tuple(_int_polydiv_exact(num, den))


def _moebius(n):
    result = 1
    d = 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            result = -result
        d += 1
    if n > 1:
        result = -result
    return result


def root_of_unity_sum_is_zero(exponents, E):
    """Whether sum of exp(2 pi i e/E) over the multiset of exponents is 0."""
    counts = [0] * E
    for e in exponents:
        counts[e % E] += 1
    phi = list(cyclotomic_int_poly(E))
    # reduce the count polynomial mod Phi_E over Z (Phi_E is monic)
    for i in range(len(counts) - 1, len(phi) - 2, -1):
        c = counts[i]
        if c:
            counts[i] = 0
            for j in range(len(phi) - 1):
                counts[i - (len(phi) - 1) + j] -= c * phi[j]
    return all(v == 0 for v in counts)


# ---------------------------------------------------------------------------
# intervals


def interval_membership(h, g, width, reversed_=False):
    """h lies in the width-'width' interval around g.

    Membership means h monic of the same degree as g with deg(g - h) < width;
    the reversed variant requires h(0) invertible and tests x^n h(1/x)/h(0).
    """
    if h.ctx is not g.ctx and h.ctx != g.ctx:
        raise ContextMismatchError("different ring contexts")
    a, b = h._ints, g._ints
    if not a or len(a) != len(b) or a[-1] != h.ctx._c1:
        return False
    if reversed_:
        if not h.coeff(0).is_unit():
            return False
        a = reciprocal(h)._ints
    # h and g have the same degree n, so deg(g - h) < width exactly when
    # their coefficients agree at every index from width to n
    return width >= 0 and a[width:] == b[width:]


# ---------------------------------------------------------------------------
# Newton's identities: coefficients <-> power traces


def coeffs_to_traces(f, d):
    """Power sums of the roots of monic f, indices 1..d, via Newton.

    Uses t_i = -i e_i - sum_{j<i} e_j t_{i-j} (with e_j = coeff of
    x^{n-j}), which stays inside the coefficient ring.
    """
    if not f.is_monic():
        raise ValueError("f must be monic")
    ctx = f.ctx
    n = f.degree
    e = [f.coeff(n - j) for j in range(0, n + 1)]  # e[0] = 1
    t = [ctx.zero()] * (d + 1)
    for i in range(1, d + 1):
        acc = ctx.zero()
        for j in range(1, min(i, n) + 1):
            if j == i:
                acc = acc + i * e[j]
            else:
                acc = acc + e[j] * t[i - j]
        t[i] = -acc
    return t[1:]


def newton_ambiguity(d, p, k):
    """S(d,k) = sum over j=1..k of floor(d/p^j)."""
    return sum(d // p ** j for j in range(1, k + 1))


class TraceDatum:
    """Frobenius-corrected trace sequence of a matrix over GR(p^k).

    entries[i] = tr(M^i) - sigma(tr(M^{i/p})) if p | i else tr(M^i), for
    0 != i in [-d1, d2] with p^k not dividing i; every entry satisfies
    v(entries[i]) >= min(v_p(i), k).
    """

    __slots__ = ("ctx", "d1", "d2", "entries")

    def __init__(self, ctx, d1, d2, entries):
        self.ctx = ctx
        self.d1 = d1
        self.d2 = d2
        self.entries = dict(entries)
        p, k = ctx.p, ctx.k
        for i, a in self.entries.items():
            v = _vp(abs(i), p)
            if min(v, k) >= k:
                raise ValueError("index divisible by p^k must be dropped")
            if a.valuation() < min(v, k):
                raise DivisibilityViolation(
                    "entry at index %d has valuation %d < %d"
                    % (i, a.valuation(), min(v, k)))

    @property
    def length(self):
        return self.d1 + self.d2

    def key(self):
        return (self.d1, self.d2,
                tuple(sorted((i, a.coeffs.tobytes())
                             for i, a in self.entries.items())))

    def __eq__(self, other):
        return (isinstance(other, TraceDatum) and self.ctx == other.ctx
                and self.key() == other.key())

    def __hash__(self):
        return hash((self.ctx, self.key()))

    def __repr__(self):
        body = ", ".join("%d: %r" % (i, self.entries[i])
                         for i in sorted(self.entries))
        return "TraceDatum(d1=%d, d2=%d, {%s})" % (self.d1, self.d2, body)


def _vp(i, p):
    v = 0
    while i % p == 0:
        i //= p
        v += 1
    return v


def trace_datum_of(pos_traces, neg_traces=None):
    """Build the corrected datum from raw traces tr(M^i), i = 1..d2 (and
    optionally tr(M^-i), i = 1..d1); the batch-of-one trace_data_batch."""
    neg_traces = neg_traces or []
    ctx = (pos_traces or neg_traces)[0].ctx

    def stack(traces):
        return np.array([t.ints for t in traces],
                        dtype=np.int64).reshape(len(traces), ctx.m)

    indices, entries = trace_data_batch(ctx, stack(pos_traces),
                                        stack(neg_traces))
    return TraceDatum(ctx, len(neg_traces), len(pos_traces),
                      {i: GRElem(ctx, a) for i, a in zip(indices, entries)})


def trace_data_batch(ctx, pos, neg):
    """The entries of TraceDatum for a batch of trace sequences, as arrays.

    pos is the (..., d2, m) array of tr(M^i), i = 1..d2, and neg the
    (..., d1, m) array of tr(M^-i).  Returns the kept indices (1..d2, then
    -1..-d1, skipping those divisible by p^k) and the (..., len, m) array
    of their entries, reduced.  Raises DivisibilityViolation when an entry
    of any sequence has valuation below min(v_p(i), k).
    """
    p, k, mod = ctx.p, ctx.k, ctx.mod
    indices = []
    entries = []
    for sign, traces in ((1, pos), (-1, neg)):
        for idx in range(1, traces.shape[-2] + 1):
            v = _vp(idx, p)
            if v >= k:
                continue
            a = traces[..., idx - 1, :] % mod
            if v:
                a = (a - ctx.vec_sigma(traces[..., idx // p - 1, :])) % mod
                if np.any(a % p ** v):
                    raise DivisibilityViolation(
                        "entry at index %d has valuation < %d"
                        % (sign * idx, v))
            indices.append(sign * idx)
            entries.append(a)
    if not entries:
        return indices, np.zeros(pos.shape[:-2] + (0, ctx.m), dtype=np.int64)
    return indices, np.stack(entries, axis=-2)


def datum_value_count(ctx, d1, d2):
    """Number of distinct (d1,d2)-trace-datum values: q^{k d - S1 - S2}."""
    p, k, q = ctx.p, ctx.k, ctx.q
    d = d1 + d2
    return q ** (k * d - newton_ambiguity(d1, p, k) - newton_ambiguity(d2, p, k))


def _datum_coefficient_choices(ctx, entries, d):
    """All coefficient prefixes (e_1..e_d) compatible with a one-sided datum.

    entries maps i in 1..d (p^k not dividing i) to the corrected value a_i.
    Yields exactly q^{S(d,k)} tuples.
    """
    p, k, m, mod = ctx.p, ctx.k, ctx.m, ctx.mod
    # raw traces: t_i = a_i + sigma(t_{i/p}) for p | i; a_i = 0 at dropped i
    t = [None] * (d + 1)
    for i in range(1, d + 1):
        a = entries.get(i, ctx.zero())
        if i % p == 0:
            t[i] = a + t[i // p].sigma()
        else:
            t[i] = a

    results = []

    def rec(i, e):
        if i > d:
            results.append(tuple(e))
            return
        # Newton: i e_i = -(t_i + sum_{j<i} e_j t_{i-j})
        rhs = -t[i]
        for j in range(1, i):
            rhs = rhs - e[j - 1] * t[i - j]
        v = min(_vp(i, p), k)
        if rhs.valuation() < v:
            raise DivisibilityViolation("Newton step unsolvable at index %d" % i)
        if v >= k:
            if not rhs.is_zero():
                raise DivisibilityViolation("Newton step unsolvable at index %d" % i)
            for cand in ctx.elements():
                rec(i + 1, e + [cand])
            return
        u = ctx.elem(i // p ** _vp(i, p))
        base = ctx.elem([c // p ** v for c in rhs.ints]) * u.inv()
        step = p ** (k - v)
        for w in itertools.product(range(p ** v), repeat=m):
            cand = base + ctx.elem([step * wi for wi in w])
            rec(i + 1, e + [cand])

    rec(1, [])
    return results


def traces_to_interval_family(datum, n):
    """Interval family equivalent to a one-sided trace datum.

    Returns (width, reps): a matrix M of size n has this trace datum iff
    char(M) lies in the width-wide interval around exactly one rep. The
    family has q^{S(d,k)} members with disjoint intervals; unconstrained
    trailing coefficients of the representatives are set to 0.
    """
    if datum.d1 != 0:
        raise ValueError("one-sided datum required; use traces_to_hayes_family")
    ctx, d = datum.ctx, datum.d2
    if d > n:
        raise ValueError("datum longer than the matrix size")
    reps = []
    for e in _datum_coefficient_choices(ctx, datum.entries, d):
        f = monomial(ctx, n)
        for j, ej in enumerate(e, start=1):
            f = f + ej * monomial(ctx, n - j)
        reps.append(f)
    return n - d, reps


def traces_to_hayes_family(datum, n):
    """Hayes-class family equivalent to a two-sided trace datum.

    Returns (l, H, reps) with l = d2 and H = x^{d1+1}: an invertible M of
    size n has this datum iff char(M) is Hayes-equivalent to exactly one rep.
    The family has q^{S(d1,k)+S(d2,k)+k} members (the constant coefficient
    of the characteristic polynomial is unconstrained, giving the q^k).
    """
    ctx, d1, d2 = datum.ctx, datum.d1, datum.d2
    if d1 + d2 >= n:
        raise ValueError("need d1 + d2 < n")
    pos = {i: a for i, a in datum.entries.items() if i > 0}
    neg = {-i: a for i, a in datum.entries.items() if i < 0}
    tops = _datum_coefficient_choices(ctx, pos, d2)
    bots = _datum_coefficient_choices(ctx, neg, d1)
    reps = []
    for e_top in tops:
        f0 = monomial(ctx, n)
        for j, ej in enumerate(e_top, start=1):
            f0 = f0 + ej * monomial(ctx, n - j)
        for e_bot in bots:
            # e_bot are the leading coefficients of char(M^{-1}) =
            # x^n char(M)(1/x) / char(M)(0), so coeff_j(char M) = c0 * e'_j
            for c0 in ctx.elements():
                f = f0 + c0
                for j, ej in enumerate(e_bot, start=1):
                    f = f + (c0 * ej) * monomial(ctx, j)
                reps.append(f)
    H = monomial(ctx, d1 + 1)
    return d2, H, reps


# ---------------------------------------------------------------------------
# factorization over fields (trial division at desk scale) and radicals

_IRR_CACHE_MAX_DEG = 8
_IRR_CACHE_MAX_Q = 9


@functools.lru_cache(maxsize=None)
def _irreducibles_cached(ctx, deg):
    """The monic irreducibles of degree deg, in monic_polys order, by
    Ben-Or's test."""
    if ctx.k != 1:
        raise ValueError("irreducible enumeration needs a field context")
    if deg > _IRR_CACHE_MAX_DEG or ctx.q > _IRR_CACHE_MAX_Q:
        raise EnumerationBound("irreducible cache capped at degree %d, q <= %d"
                               % (_IRR_CACHE_MAX_DEG, _IRR_CACHE_MAX_Q))
    return tuple(_poly(ctx, f) for f in _monic_ints(ctx, deg)
                 if _pirreducible(ctx, f))


def irreducible_polys(ctx, deg):
    """All monic irreducibles of the exact degree over a field context."""
    return list(_irreducibles_cached(ctx, deg))


def is_irreducible(f):
    if f.degree < 1:
        return False
    if f.ctx.k != 1:
        raise ValueError("irreducibility test needs a field context")
    ctx = f.ctx
    return _pirreducible(ctx, _pmul(ctx, f._ints,
                                    [ctx._inv_coeff(f._ints[-1])]))


def _factor_ints(f, every_monic=False):
    """Trial division of monic f: (prime, mult) pairs of kernel coefficient
    tuples, sorted by (degree, coefficients).

    The divisors tried are the irreducible tables, or with every_monic all
    monics, which needs no table and so no cap on q or the degree: when
    degree d is tried, rem has no factor of lower degree left, so only the
    primes of degree d can divide it.
    """
    ctx = f.ctx
    if ctx.k != 1:
        raise ValueError("factorization only over field contexts")
    if not f.is_monic():
        raise ValueError("f must be monic")
    out = []
    rem = f._ints
    d = 1
    # trial division by the primes of degree d while deg rem >= 2d; below
    # that, rem has no factor of degree < d left, so it is 1 or prime
    while len(rem) > 2 * d:
        divisors = (_monic_ints(ctx, d) if every_monic else
                    (p._ints for p in _irreducibles_cached(ctx, d)))
        for g in divisors:
            mult = 0
            quo, r = _pdivmod(ctx, rem, g)
            while not r:
                rem, mult = quo, mult + 1
                quo, r = _pdivmod(ctx, rem, g)
            if mult:
                out.append((g, mult))
            if len(rem) <= 2 * d:
                break
        d += 1
    if len(rem) > 1:
        out.append((tuple(rem), 1))
    return sorted(out, key=lambda item: (len(item[0]), item[0]))


def factor(f):
    """Factorization of monic f over a field context: list of (prime, mult),
    sorted by (degree, coefficients).

    Trial division runs on the polynomial kernel's coefficient ints (see
    `galois_rings`); Polys are built only for the primes returned.
    """
    return [(_poly(f.ctx, g), e) for g, e in _factor_ints(f)]


def radical(f):
    """Product of the distinct monic irreducible divisors of monic f."""
    ctx = f.ctx
    acc = [ctx._c1]
    for g, _ in _factor_ints(f):
        acc = _pmul(ctx, acc, g)
    return _poly(ctx, acc)


def count_with_radical_dividing(g, n):
    """Number of monic degree-n f with rad(f) | g, for squarefree monic g."""
    degs = [p.degree for p, _ in factor(g)]
    return _count_compositions(degs, n, minimum=0)


def _count_compositions(degs, n, minimum):
    # number of (e_i >= minimum) with sum e_i * degs[i] = n
    dp = [0] * (n + 1)
    dp[0] = 1
    for d in degs:
        ndp = [0] * (n + 1)
        for tot in range(n + 1):
            if dp[tot] == 0:
                continue
            e = minimum
            while tot + e * d <= n:
                ndp[tot + e * d] += dp[tot]
                e += 1
        dp = ndp
    return dp[n]


def count_small_radical(ctx, n, d):
    """Number of monic degree-n f over F_q with deg rad(f) <= d."""
    if ctx.k != 1:
        raise ValueError("field context required")
    total = 0
    for gd in range(1, d + 1):
        for g in monic_polys(ctx, gd):
            fs = _factor_ints(g)
            if any(e > 1 for _, e in fs):
                continue
            degs = [len(p) - 1 for p, _ in fs]
            total += _count_compositions(degs, n, minimum=1)
    return total
