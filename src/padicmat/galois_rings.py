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


def _fp_polymul(a, b, p):
    # dense little-endian coefficient lists over F_p
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return out


def _fp_polymod(a, f, p):
    # remainder of a modulo monic f, over F_p
    a = list(a)
    df = len(f) - 1
    for i in range(len(a) - 1, df - 1, -1):
        c = a[i] % p
        if c:
            a[i] = 0
            for j in range(df):
                a[i - df + j] = (a[i - df + j] - c * f[j]) % p
    while len(a) > df:
        a.pop()
    while len(a) < df:
        a.append(0)
    return a


def _fp_modpow_x(e, f, p):
    # x^e modulo monic f over F_p, by square and multiply
    result = [1] + [0] * (len(f) - 2)
    base = _fp_polymod([0, 1] + [0] * max(0, len(f) - 3), f, p)
    while e:
        if e & 1:
            result = _fp_polymod(_fp_polymul(result, base, p), f, p)
        base = _fp_polymod(_fp_polymul(base, base, p), f, p)
        e >>= 1
    return result


def _fp_poly_gcd(a, b, p):
    a, b = list(a), list(b)
    while any(c % p for c in b):
        while b and b[-1] % p == 0:
            b.pop()
        inv = pow(b[-1], p - 2, p)
        r = list(a)
        for i in range(len(r) - 1, len(b) - 2, -1):
            if len(r) < len(b):
                break
            c = (r[-1] * inv) % p
            if c:
                for j in range(len(b)):
                    r[len(r) - len(b) + j] = (r[len(r) - len(b) + j] - c * b[j]) % p
            r.pop()
            if len(r) < len(b):
                break
        a, b = b, r
    while a and a[-1] % p == 0:
        a.pop()
    return a


def _is_irreducible_fp(coeffs, p):
    """Monic polynomial (little-endian, leading coeff 1) irreducible over F_p."""
    m = len(coeffs) - 1
    if m == 1:
        return True
    # x^(p^m) == x mod f, and gcd(x^(p^(m/l)) - x, f) = 1 for primes l | m
    xq = _fp_modpow_x(p ** m, coeffs, p)
    target = [0, 1] + [0] * (m - 2)
    if xq != target[: m]:
        return False
    for l in {d for d in range(2, m + 1) if m % d == 0 and _is_prime(d)}:
        sub = _fp_modpow_x(p ** (m // l), coeffs, p)
        diff = [(sub[i] - (1 if i == 1 else 0)) % p for i in range(m)]
        g = _fp_poly_gcd(coeffs, diff + [0], p)
        if len(g) > 1:
            return False
    return True


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
    for idx in range(p ** m):
        # lex order on (c0, ..., c_{m-1}): last coefficient varies fastest
        c = [(idx // p ** (m - 1 - j)) % p for j in range(m)]
        cand = c + [1]
        if _is_irreducible_fp(cand, p):
            return tuple(cand)
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
        if m > 1 and not _is_irreducible_fp([c % p for c in defining_poly], p):
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
        if not self.is_unit():
            raise NonUnitError("not a unit")
        ctx = self.ctx
        if ctx.m == 1:
            return _elem(ctx, (pow(self.ints[0], -1, ctx.mod),))
        # a^(|GR(p^k, m)^x| - 1) is the inverse of the unit a
        order = (ctx.q - 1) * ctx.q ** (ctx.k - 1)
        return _elem(ctx, ctx._pow_ints(self.ints, order - 1))

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
