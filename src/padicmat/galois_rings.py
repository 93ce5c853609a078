"""Exact arithmetic in Galois rings GR(p^k, m).

GR(p^k, m) is the unramified degree-m extension of Z/p^k; the case k=1 is
the finite field F_q with q = p^m. Elements are stored in the polynomial
basis of a fixed monic defining polynomial that is irreducible mod p and
shared across all k for a given (p, m).
"""

from __future__ import annotations

import functools

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
        self._sigma_mat = None

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
        if self.m == 1 and a.size == 1:
            out = np.empty_like(a)
            out.flat[0] = pow(int(a.flat[0]), -1, self.mod)
            return out
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
        if isinstance(coeffs, int):
            c = np.zeros(self.m, dtype=np.int64)
            c[0] = coeffs % self.mod
            return GRElem(self, c)
        c = np.asarray(list(coeffs), dtype=np.int64) % self.mod
        if c.shape != (self.m,):
            raise ValueError("expected %d coefficients" % self.m)
        return GRElem(self, c)

    def zero(self):
        return self.elem(0)

    def one(self):
        return self.elem(1)

    def generator(self):
        """The image of x (a generator of the extension) as an element."""
        c = np.zeros(self.m, dtype=np.int64)
        if self.m > 1:
            c[1] = 1
        else:
            c[0] = 1
        return GRElem(self, c)

    def elements(self):
        """All p^(km) elements, in lexicographic coefficient order."""
        for idx in range(self.mod ** self.m):
            c = []
            t = idx
            for _ in range(self.m):
                c.append(t % self.mod)
                t //= self.mod
            yield self.elem(c)

    def units(self):
        for a in self.elements():
            if a.is_unit():
                yield a

    def random_elem(self, rng):
        return self.elem([rng.randrange(self.mod) for _ in range(self.m)])

    def __eq__(self, other):
        return (isinstance(other, RingContext)
                and (self.p, self.m, self.k, self.defining_poly)
                == (other.p, other.m, other.k, other.defining_poly))

    def __hash__(self):
        return hash((self.p, self.m, self.k, self.defining_poly))

    def __repr__(self):
        if self.k == 1:
            return "F_%d" % self.q
        return "GR(%d^%d,%d)" % (self.p, self.k, self.m)


class GRElem:
    """An element of GR(p^k, m); little-endian coefficient vector."""

    __slots__ = ("ctx", "coeffs")

    def __init__(self, ctx, coeffs):
        self.ctx = ctx
        self.coeffs = np.asarray(coeffs, dtype=np.int64) % ctx.mod
        self.coeffs.setflags(write=False)

    def _check(self, other):
        if isinstance(other, (int, np.integer)):
            other = self.ctx.elem(int(other))
        elif not isinstance(other, GRElem):
            return None
        if other.ctx != self.ctx:
            raise ContextMismatchError("different ring contexts")
        return other

    def __add__(self, other):
        other = self._check(other)
        if other is None:
            return NotImplemented
        return GRElem(self.ctx, self.coeffs + other.coeffs)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._check(other)
        if other is None:
            return NotImplemented
        return GRElem(self.ctx, self.coeffs - other.coeffs)

    def __rsub__(self, other):
        other = self._check(other)
        if other is None:
            return NotImplemented
        return other - self

    def __neg__(self):
        return GRElem(self.ctx, -self.coeffs)

    def __mul__(self, other):
        other = self._check(other)
        if other is None:
            return NotImplemented
        return GRElem(self.ctx, self.ctx.vec_mul(self.coeffs, other.coeffs))

    __rmul__ = __mul__

    def __pow__(self, e):
        if e < 0:
            return self.inv() ** (-e)
        return GRElem(self.ctx, self.ctx.vec_pow(self.coeffs, e))

    def inv(self):
        return GRElem(self.ctx, self.ctx.vec_inv(self.coeffs))

    def is_unit(self):
        return bool(np.any(self.coeffs % self.ctx.p))

    def is_zero(self):
        return not np.any(self.coeffs)

    def valuation(self):
        """Largest j <= k with p^j dividing every coefficient; k for zero."""
        if self.is_zero():
            return self.ctx.k
        v = 0
        c = self.coeffs
        while not np.any(c % self.ctx.p):
            c = c // self.ctx.p
            v += 1
        return v

    def sigma(self):
        return GRElem(self.ctx, self.ctx.vec_sigma(self.coeffs))

    def tau(self):
        return GRElem(self.ctx, self.ctx.vec_tau(self.coeffs))

    def reduce(self, k):
        ctx2 = self.ctx.reduced_context(k)
        return GRElem(ctx2, self.coeffs % ctx2.mod)

    def lift(self, k):
        """Entrywise lift to level k (the coefficients are reused verbatim)."""
        return GRElem(self.ctx.raised_context(k), self.coeffs)

    def __eq__(self, other):
        if isinstance(other, int):
            other = self.ctx.elem(other)
        return (isinstance(other, GRElem) and self.ctx == other.ctx
                and np.array_equal(self.coeffs, other.coeffs))

    def __hash__(self):
        return hash((self.ctx, self.coeffs.tobytes()))

    def encode(self):
        return "%s @ GR(%d^%d,%d)" % (
            ",".join(str(int(c)) for c in self.coeffs),
            self.ctx.p, self.ctx.k, self.ctx.m)

    def __repr__(self):
        return self.encode()


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
