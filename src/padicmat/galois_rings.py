"""Exact arithmetic in Galois rings GR(p^k, m).

GR(p^k, m) is the unramified degree-m extension of Z/p^k; the case k=1 is
the finite field F_q with q = p^m. Elements are stored in the polynomial
basis of a fixed monic defining polynomial that is irreducible mod p and
shared across all k for a given (p, m).
"""

from __future__ import annotations

import functools
import itertools

import numpy as np


class NonUnitError(ArithmeticError):
    pass


class ContextMismatchError(ValueError):
    pass


# ---- the polynomial kernel ----
#
# A polynomial over GR(p^k, m) is a little-endian sequence of coefficients:
# ints in [0, p^k) when m = 1, and tuples of m such ints (GRElem.ints) when
# m > 1.  Every function returns a list with no zero leading coefficient.
# Poly, factor, radical and the irreducibility test all run on this kernel;
# it lives here because default_defining_poly needs the test.


def _ptrim(ctx, a):
    while a and a[-1] == ctx._c0:
        a.pop()
    return a


def _padd(ctx, a, b, sign=1):
    """a + sign * b, for sign = +-1."""
    mod = ctx.mod
    pairs = itertools.zip_longest(a, b, fillvalue=ctx._c0)
    if ctx.m == 1:
        return _ptrim(ctx, [(u + sign * v) % mod for u, v in pairs])
    return _ptrim(ctx, [tuple([(s + sign * t) % mod for s, t in zip(u, v)])
                        for u, v in pairs])


def _pmul(ctx, a, b):
    if not a or not b:
        return []
    mod = ctx.mod
    if ctx.m == 1:
        out = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b, i):
                    out[j] += ai * bj
        return _ptrim(ctx, [c % mod for c in out])
    out = [ctx._c0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b, i):
            out[j] = tuple([(u + v) % mod for u, v
                            in zip(out[j], ctx._mul_ints(ai, bj))])
    return _ptrim(ctx, out)


def _pdivmod(ctx, a, b):
    """(quotient, remainder) of a by b.  Raises ZeroDivisionError for b = 0
    and NonUnitError when b's leading coefficient is not a unit."""
    if not b:
        raise ZeroDivisionError("division by zero polynomial")
    db = len(b) - 1
    inv = ctx._c1 if b[-1] == ctx._c1 else ctx._inv_coeff(b[-1])
    rem = list(a)
    top = len(rem) - db
    quo = [ctx._c0] * top
    mod = ctx.mod
    if ctx.m == 1:
        # rem stays unreduced until the end; a leading coefficient is
        # reduced when it is popped, before it makes a quotient digit
        low = b[:db]
        for shift in range(top - 1, -1, -1):
            c = rem.pop() * inv % mod
            if c:
                quo[shift] = c
                for j, bj in enumerate(low, shift):
                    rem[j] -= c * bj
        return quo, _ptrim(ctx, [r % mod for r in rem])
    mul, one = ctx._mul_ints, ctx._c1
    for shift in range(top - 1, -1, -1):
        c = rem.pop()
        if inv != one:
            c = mul(c, inv)
        if any(c):
            quo[shift] = c
            for j in range(db):
                rem[shift + j] = tuple([(u - v) % mod for u, v
                                        in zip(rem[shift + j], mul(c, b[j]))])
    return quo, _ptrim(ctx, rem)


def _pgcd(ctx, a, b):
    """Monic gcd over a field context (the empty list for a = b = 0)."""
    while b:
        a, b = b, _pdivmod(ctx, a, b)[1]
    if not a:
        return []
    return _pmul(ctx, a, [ctx._inv_coeff(a[-1])])


def _ppow(ctx, a, e, f=None):
    """a^e for e >= 0, reduced mod f (of degree >= 1) when f is given."""
    def mul(g, h):
        gh = _pmul(ctx, g, h)
        return gh if f is None else _pdivmod(ctx, gh, f)[1]

    result = [ctx._c1]
    while e:
        if e & 1:
            result = mul(result, a)
        e >>= 1
        if e:
            a = mul(a, a)
    return result


def _pirreducible(ctx, f):
    """Ben-Or's test over a field context F_q: monic f of degree n >= 1 is
    irreducible iff gcd(x^(q^j) - x, f) = 1 for every j <= n/2.  A
    reducible f has a prime factor of some degree j <= n/2, which divides
    x^(q^j) - x; a nontrivial gcd at j < n is a product of such factors."""
    x = [ctx._c0, ctx._c1]
    y = x
    for _ in range((len(f) - 1) // 2):
        y = _ppow(ctx, y, ctx.q, f)
        if len(_pgcd(ctx, f, _padd(ctx, y, x, -1))) > 1:
            return False
    return len(f) > 1


def _is_prime(n):
    return n > 1 and all(n % d for d in range(2, int(n ** 0.5) + 1))


@functools.lru_cache(maxsize=None)
def default_defining_poly(p, m):
    """Lexicographically smallest monic irreducible of degree m over F_p.

    Low coefficients (c0, ..., c_{m-1}) are compared lexicographically.
    For example (3, 2) -> x^2 + 1 and (5, 2) -> x^2 + x + 1.
    """
    if m == 1:
        return (0, 1)
    fp = RingContext(p, 1, 1)
    # lex order on (c0, ..., c_{m-1}): last coefficient varies fastest
    for c in itertools.product(range(p), repeat=m):
        if _pirreducible(fp, c + (1,)):
            return c + (1,)
    raise RuntimeError("no irreducible polynomial found")


_INT64_LIMIT = 2 ** 63


class RingContext:
    """Immutable description of GR(p^k, m) with precomputed tables."""

    def __init__(self, p, m, k, defining_poly=None):
        if p < 3 or not _is_prime(p):
            raise ValueError("p must be an odd prime")
        if m < 1 or k < 1:
            raise ValueError("m and k must be >= 1")
        self.p = p
        self.m = m
        self.k = k
        self.q = p ** m
        self.mod = p ** k
        # int64 products of residues: a ring product sums 2m - 1 of them,
        # a matrix product over an inner size s sums s of them
        if (2 * m - 1) * self.mod ** 2 >= _INT64_LIMIT:
            raise ValueError("GR(%d^%d,%d) products overflow int64"
                             % (p, k, m))
        self._max_inner = (_INT64_LIMIT - 1) // self.mod ** 2
        if defining_poly is None:
            defining_poly = default_defining_poly(p, m)
        defining_poly = tuple(int(c) % self.mod for c in defining_poly)
        if len(defining_poly) != m + 1 or defining_poly[m] != 1:
            raise ValueError("defining_poly must be monic of degree m")
        if m > 1 and not _pirreducible(RingContext(p, 1, 1),
                                       [c % p for c in defining_poly]):
            raise ValueError("defining_poly must be irreducible mod p")
        self.defining_poly = defining_poly
        self._build_tables()

    def _build_tables(self):
        p, m, mod = self.p, self.m, self.mod
        # reduction of x^t (t = 0..2m-2) to the polynomial basis, mod p^k
        red = np.zeros((2 * m - 1 if m > 1 else 1, m), dtype=np.int64)
        for t in range(m):
            red[t, t] = 1
        if m > 1:
            xm = [(-c) % mod for c in self.defining_poly[:m]]  # x^m reduced
            cur = list(xm)
            for t in range(m, 2 * m - 1):
                red[t] = cur
                # x^{t+1} = x * x^t; reduce the overflow coefficient via x^m
                lead = cur[m - 1]
                cur = [(v + lead * xm[i]) % mod
                       for i, v in enumerate([0] + cur[:-1])]
        self._red = red
        self._red_rows = red[m:].tolist()
        self._sigma_mat = None
        self._zeros = (0,) * (m - 1)
        # zero and one as coefficients of the polynomial kernel
        self._c0, self._c1 = ((0, 1) if m == 1
                              else ((0,) * m, (1,) + self._zeros))
        self._hash = hash((p, m, self.k, self.defining_poly))

    # ---- vectorized coefficient helpers (arrays of shape (..., m)) ----

    def vec_mul(self, a, b):
        """Entrywise ring product; the leading axes broadcast."""
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        if self.m == 1:
            return (a * b) % self.mod
        return self._product(a, b, np.multiply)

    def mat_mul(self, a, b):
        """Matrix product of (..., r, s, m) and (..., s, t, m) arrays.

        Refuses (ValueError) an inner size s with s * p^(2k) >= 2^63, where
        the int64 sums would wrap.
        """
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        if a.shape[-2] > self._max_inner:
            raise ValueError("inner size %d overflows int64 over %r"
                             % (a.shape[-2], self))
        if self.m == 1:
            return (a[..., 0] @ b[..., 0] % self.mod)[..., None]
        return self._product(a, b, np.matmul)

    def _product(self, a, b, op):
        # op on every coefficient pair, collected by degree in x, then the
        # degrees m..2m-2 folded back through the defining polynomial
        m, mod = self.m, self.mod
        full = None
        for i in range(m):
            for j in range(m):
                term = op(a[..., i], b[..., j]) % mod
                if full is None:
                    full = np.zeros(term.shape + (2 * m - 1,), dtype=np.int64)
                full[..., i + j] += term
        return (full % mod) @ self._red % mod

    def vec_pow(self, a, e):
        result = np.zeros(self.m, dtype=np.int64)
        result[0] = 1
        base = np.asarray(a, dtype=np.int64) % self.mod
        while e:
            if e & 1:
                result = self.vec_mul(result, base)
            base = self.vec_mul(base, base)
            e >>= 1
        return result

    def vec_inv(self, a):
        """Inverse of each coefficient vector (last axis) of a."""
        a = np.asarray(a, dtype=np.int64) % self.mod
        if not np.all(np.any(a % self.p, axis=-1)):
            raise NonUnitError("not a unit")
        # invert in the residue field, then Hensel: x <- x(2 - a x)
        ctx1 = self if self.k == 1 else self.reduced_context(1)
        x = ctx1.vec_pow(a % self.p, self.q - 2).astype(np.int64)
        level = 1
        while level < self.k:
            ax = self.vec_mul(a, x)
            two_minus = (-ax) % self.mod
            two_minus[..., 0] = (two_minus[..., 0] + 2) % self.mod
            x = self.vec_mul(x, two_minus)
            level *= 2
        return x % self.mod

    @property
    def sigma_mat(self):
        """Matrix of the Frobenius automorphism on the polynomial basis."""
        if self._sigma_mat is None:
            m, mod = self.m, self.mod
            if m == 1:
                self._sigma_mat = np.eye(1, dtype=np.int64)
            else:
                zeta = np.zeros(m, dtype=np.int64)
                zeta[1] = 1
                # Newton-lift zeta^p to the root of the defining polynomial
                # congruent to zeta^p mod p
                root = self.vec_pow(zeta, self.p)
                f = self.defining_poly
                for _ in range(self.k.bit_length() + 1):
                    fx = np.zeros(m, dtype=np.int64)
                    dfx = np.zeros(m, dtype=np.int64)
                    xp = np.zeros(m, dtype=np.int64)
                    xp[0] = 1
                    for i in range(m + 1):
                        fx = (fx + f[i] * xp) % mod
                        if i < m:
                            dfx = (dfx + f[i + 1] * (i + 1) * xp) % mod
                            xp = self.vec_mul(xp, root)
                    root = (root - self.vec_mul(fx, self.vec_inv(dfx))) % mod
                cols = []
                acc = np.zeros(m, dtype=np.int64)
                acc[0] = 1
                for _ in range(m):
                    cols.append(acc.copy())
                    acc = self.vec_mul(acc, root)
                self._sigma_mat = np.stack(cols, axis=1) % mod
        return self._sigma_mat

    def vec_sigma(self, a):
        return np.asarray(a, dtype=np.int64) @ self.sigma_mat.T % self.mod

    def vec_tau(self, a):
        """tau = sigma^(m/2), the involution of an even extension degree m,
        on each coefficient vector (last axis) of a."""
        if self.m % 2:
            raise ValueError("tau needs an even extension degree")
        for _ in range(self.m // 2):
            a = self.vec_sigma(a)
        return a

    # ---- scalar helpers on tuples of m ints in [0, p^k) ----

    def _mul_ints(self, a, b):
        """Ring product of two coefficient tuples, for m > 1."""
        m, mod = self.m, self.mod
        full = [0] * (2 * m - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    full[i + j] += ai * bj
        out = full[:m]
        for row, c in zip(self._red_rows, full[m:]):
            if c:
                for i, r in enumerate(row):
                    out[i] += c * r
        return tuple([v % mod for v in out])

    def _inv_coeff(self, c):
        """Inverse of a polynomial-kernel coefficient (an int for m = 1, a
        tuple for m > 1); NonUnitError unless it is a unit."""
        if self.m == 1:
            if c % self.p == 0:
                raise NonUnitError("not a unit")
            return pow(c, -1, self.mod)
        if not any(a % self.p for a in c):
            raise NonUnitError("not a unit")
        # a^(|GR(p^k, m)^x| - 1) is the inverse of the unit a
        return self._pow_ints(c, (self.q - 1) * self.q ** (self.k - 1) - 1)

    def _pow_ints(self, a, e):
        """a^e for a coefficient tuple a and e >= 0, for m > 1."""
        result = (1,) + self._zeros
        while e:
            if e & 1:
                result = self._mul_ints(result, a)
            a = self._mul_ints(a, a)
            e >>= 1
        return result

    # ---- context utilities ----

    @functools.lru_cache(maxsize=None)
    def reduced_context(self, k):
        if not 1 <= k <= self.k:
            raise ValueError("k out of range")
        if k == self.k:
            return self
        return RingContext(self.p, self.m, k, self.defining_poly)

    @functools.lru_cache(maxsize=None)
    def raised_context(self, k):
        if k < self.k:
            raise ValueError("k must be >= current level")
        if k == self.k:
            return self
        return RingContext(self.p, self.m, k, self.defining_poly)

    def elem(self, coeffs):
        mod = self.mod
        if isinstance(coeffs, int):
            return _elem(self, (coeffs % mod,) + self._zeros)
        c = tuple([int(v) % mod for v in coeffs])
        if len(c) != self.m:
            raise ValueError("expected %d coefficients" % self.m)
        return _elem(self, c)

    def zero(self):
        return _elem(self, (0,) + self._zeros)

    def one(self):
        return _elem(self, (1,) + self._zeros)

    def generator(self):
        """The image of x (a generator of the extension) as an element."""
        if self.m == 1:
            return self.one()
        return _elem(self, (0, 1) + self._zeros[1:])

    def elements(self):
        """All p^(km) elements, in lexicographic coefficient order."""
        # coefficient 0 varies fastest
        for c in itertools.product(range(self.mod), repeat=self.m):
            yield _elem(self, c[::-1])

    def units(self):
        for a in self.elements():
            if a.is_unit():
                yield a

    def random_elem(self, rng):
        return self.elem([rng.randrange(self.mod) for _ in range(self.m)])

    def __eq__(self, other):
        return other is self or (
            isinstance(other, RingContext)
            and (self.p, self.m, self.k, self.defining_poly)
            == (other.p, other.m, other.k, other.defining_poly))

    def __hash__(self):
        return self._hash

    def __repr__(self):
        if self.k == 1:
            return "F_%d" % self.q
        return "GR(%d^%d,%d)" % (self.p, self.k, self.m)


class GRElem:
    """An element of GR(p^k, m).

    `ints` is the little-endian coefficient vector as a tuple of m Python
    ints in [0, p^k), and all scalar arithmetic runs on it; `coeffs` is the
    same vector as a read-only int64 array, for the batch code.
    """

    __slots__ = ("ctx", "ints", "_array")

    def __init__(self, ctx, coeffs):
        arr = np.asarray(coeffs, dtype=np.int64) % ctx.mod
        if arr.shape != (ctx.m,):
            raise ValueError("expected %d coefficients" % ctx.m)
        arr.setflags(write=False)
        self.ctx = ctx
        self.ints = tuple(arr.tolist())
        self._array = arr

    @property
    def coeffs(self):
        if self._array is None:
            arr = np.array(self.ints, dtype=np.int64)
            arr.setflags(write=False)
            self._array = arr
        return self._array

    def _check(self, other):
        if isinstance(other, GRElem):
            if other.ctx is not self.ctx and other.ctx != self.ctx:
                raise ContextMismatchError("different ring contexts")
            return other
        if isinstance(other, (int, np.integer)):
            return self.ctx.elem(int(other))
        return None

    def __add__(self, other):
        other = self._check(other)
        if other is None:
            return NotImplemented
        ctx, mod = self.ctx, self.ctx.mod
        if ctx.m == 1:
            return _elem(ctx, ((self.ints[0] + other.ints[0]) % mod,))
        return _elem(ctx, tuple([(a + b) % mod for a, b
                                 in zip(self.ints, other.ints)]))

    __radd__ = __add__

    def __sub__(self, other):
        other = self._check(other)
        if other is None:
            return NotImplemented
        ctx, mod = self.ctx, self.ctx.mod
        if ctx.m == 1:
            return _elem(ctx, ((self.ints[0] - other.ints[0]) % mod,))
        return _elem(ctx, tuple([(a - b) % mod for a, b
                                 in zip(self.ints, other.ints)]))

    def __rsub__(self, other):
        other = self._check(other)
        if other is None:
            return NotImplemented
        return other - self

    def __neg__(self):
        mod = self.ctx.mod
        return _elem(self.ctx, tuple([-a % mod for a in self.ints]))

    def __mul__(self, other):
        other = self._check(other)
        if other is None:
            return NotImplemented
        ctx = self.ctx
        if ctx.m == 1:
            return _elem(ctx, (self.ints[0] * other.ints[0] % ctx.mod,))
        return _elem(ctx, ctx._mul_ints(self.ints, other.ints))

    __rmul__ = __mul__

    def __pow__(self, e):
        if e < 0:
            return self.inv() ** (-e)
        ctx = self.ctx
        if ctx.m == 1:
            return _elem(ctx, (pow(self.ints[0], e, ctx.mod),))
        return _elem(ctx, ctx._pow_ints(self.ints, e))

    def inv(self):
        ctx = self.ctx
        if ctx.m == 1:
            return _elem(ctx, (ctx._inv_coeff(self.ints[0]),))
        return _elem(ctx, ctx._inv_coeff(self.ints))

    def is_unit(self):
        p = self.ctx.p
        return any(a % p for a in self.ints)

    def is_zero(self):
        return not any(self.ints)

    def valuation(self):
        """Largest j <= k with p^j dividing every coefficient; k for zero."""
        if self.is_zero():
            return self.ctx.k
        p = self.ctx.p
        v = 0
        c = self.ints
        while not any(a % p for a in c):
            c = [a // p for a in c]
            v += 1
        return v

    def sigma(self):
        if self.ctx.m == 1:
            return self
        return GRElem(self.ctx, self.ctx.vec_sigma(self.coeffs))

    def tau(self):
        return GRElem(self.ctx, self.ctx.vec_tau(self.coeffs))

    def reduce(self, k):
        ctx2 = self.ctx.reduced_context(k)
        return _elem(ctx2, tuple([a % ctx2.mod for a in self.ints]))

    def lift(self, k):
        """Entrywise lift to level k (the coefficients are reused verbatim)."""
        return _elem(self.ctx.raised_context(k), self.ints)

    def __eq__(self, other):
        if isinstance(other, GRElem):
            return ((other.ctx is self.ctx or other.ctx == self.ctx)
                    and self.ints == other.ints)
        if isinstance(other, int):
            return self.ints == self.ctx.elem(other).ints
        return False

    def __hash__(self):
        return hash(self.ints)

    def encode(self):
        return "%s @ GR(%d^%d,%d)" % (
            ",".join(str(c) for c in self.ints),
            self.ctx.p, self.ctx.k, self.ctx.m)

    def __repr__(self):
        return self.encode()


def _elem(ctx, ints):
    """The GRElem of an already-reduced tuple of m ints (no checks)."""
    e = object.__new__(GRElem)
    e.ctx = ctx
    e.ints = ints
    e._array = None
    return e


def decode_elem(text, ctx=None):
    """Parse the canonical "c0,c1,... @ GR(p^k,m)" encoding."""
    body, tag = text.split("@")
    tag = tag.strip()
    if not (tag.startswith("GR(") and tag.endswith(")")):
        raise ValueError("malformed ring tag %r" % tag)
    pk, m = tag[3:-1].split(",")
    p, k = pk.split("^")
    parsed = RingContext(int(p), int(m), int(k)) if ctx is None else ctx
    coeffs = [int(c) for c in body.strip().split(",")]
    return parsed.elem(coeffs)
