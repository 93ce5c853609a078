"""The five matrix families over F_q and GR(p^k).

Membership tests, standard forms, Lie algebras, exact uniform sampling via
the residue-field sampler plus level-by-level unipotent fibers, and the
division-free matrix algebra: one Berkowitz pass (char_poly_batch) is the
source of every determinant, and one Horner recurrence on it
(adjugate_batch) of every adjugate of xI - M and every inverse; plus the
minimal polynomial over the residue field.
"""

from __future__ import annotations

import collections
import functools

import numpy as np

from .galois_rings import GRElem, ContextMismatchError
from .polynomials import Poly

FAMILIES = ("gl", "sl", "sp", "so", "u")


class MembershipError(ValueError):
    pass


class Matrix:
    """Square matrix over GR(p^k, m); backed by an int array (n, n, m)."""

    __slots__ = ("ctx", "a")

    def __init__(self, ctx, a):
        self.ctx = ctx
        self.a = np.asarray(a, dtype=np.int64) % ctx.mod
        if self.a.ndim != 3 or self.a.shape[0] != self.a.shape[1] \
                or self.a.shape[2] != ctx.m:
            raise ValueError("expected shape (n, n, m)")
        self.a.setflags(write=False)

    # -- constructors --

    @classmethod
    def zero(cls, ctx, n):
        return cls(ctx, np.zeros((n, n, ctx.m), dtype=np.int64))

    @classmethod
    def identity(cls, ctx, n):
        a = np.zeros((n, n, ctx.m), dtype=np.int64)
        a[np.arange(n), np.arange(n), 0] = 1
        return cls(ctx, a)

    @classmethod
    def from_rows(cls, ctx, rows):
        """rows of GRElem (or ints, taken as base-ring scalars)."""
        n = len(rows)
        a = np.zeros((n, n, ctx.m), dtype=np.int64)
        for i, row in enumerate(rows):
            if len(row) != n:
                raise ValueError("not square")
            for j, e in enumerate(row):
                if not isinstance(e, GRElem):
                    e = ctx.elem(e)
                elif e.ctx != ctx:
                    raise ContextMismatchError("entry from a different ring")
                a[i, j] = e.ints
        return cls(ctx, a)

    @classmethod
    def diag(cls, ctx, entries):
        n = len(entries)
        a = np.zeros((n, n, ctx.m), dtype=np.int64)
        for i, e in enumerate(entries):
            if not isinstance(e, GRElem):
                e = ctx.elem(e)
            a[i, i] = e.ints
        return cls(ctx, a)

    @classmethod
    def random(cls, ctx, n, rng):
        """Entries from n^2 m draws rng.randrange(ctx.mod), in row-major
        order with an entry's coefficients consecutive (_randbelow_bulk)."""
        return cls(ctx, _randbelow_bulk(rng, ctx.mod, n * n * ctx.m)
                   .reshape(n, n, ctx.m))

    @classmethod
    def block_diag(cls, blocks):
        ctx = blocks[0].ctx
        n = sum(b.n for b in blocks)
        a = np.zeros((n, n, ctx.m), dtype=np.int64)
        at = 0
        for b in blocks:
            a[at:at + b.n, at:at + b.n] = b.a
            at += b.n
        return cls(ctx, a)

    # -- basics --

    @property
    def n(self):
        return self.a.shape[0]

    def entry(self, i, j):
        return GRElem(self.ctx, self.a[i, j])

    def rows(self):
        return [[self.entry(i, j) for j in range(self.n)] for i in range(self.n)]

    def __eq__(self, other):
        return (isinstance(other, Matrix) and self.ctx == other.ctx
                and np.array_equal(self.a, other.a))

    def __hash__(self):
        return hash((self.ctx, self.a.tobytes()))

    def __add__(self, other):
        self._chk(other)
        return Matrix(self.ctx, self.a + other.a)

    def __sub__(self, other):
        self._chk(other)
        return Matrix(self.ctx, self.a - other.a)

    def __neg__(self):
        return Matrix(self.ctx, -self.a)

    def _chk(self, other):
        if not isinstance(other, Matrix) or other.ctx != self.ctx:
            raise ContextMismatchError("matrix operands must share a context")

    def scale(self, c):
        if not isinstance(c, GRElem):
            c = self.ctx.elem(c)
        return Matrix(self.ctx, self.ctx.vec_mul(self.a, c.coeffs))

    def __mul__(self, other):
        if isinstance(other, GRElem):
            return self.scale(other)
        self._chk(other)
        return Matrix(self.ctx, self.ctx.mat_mul(self.a, other.a))

    def __pow__(self, e):
        if e < 0:
            return self.inverse() ** (-e)
        acc = Matrix.identity(self.ctx, self.n)
        base = self
        while e:
            if e & 1:
                acc = acc * base
            base = base * base
            e >>= 1
        return acc

    def transpose(self):
        return Matrix(self.ctx, self.a.transpose(1, 0, 2))

    def sigma(self):
        return Matrix(self.ctx, self.a @ self.ctx.sigma_mat.T % self.ctx.mod)

    def tau(self):
        return Matrix(self.ctx, self.ctx.vec_tau(self.a))

    def conj_transpose(self):
        """M* = tau(M)^t, for quadratic-extension contexts."""
        return self.tau().transpose()

    def trace(self):
        return GRElem(self.ctx, self.a[np.arange(self.n), np.arange(self.n)].sum(axis=0))

    def reduce(self, k):
        ctx2 = self.ctx.reduced_context(k)
        return Matrix(ctx2, self.a % ctx2.mod)

    def lift(self, k):
        return Matrix(self.ctx.raised_context(k), self.a)

    def det(self):
        """The batch-of-one case of det_batch."""
        return GRElem(self.ctx, det_batch(self.ctx, self.a))

    def is_unit(self):
        return self.det().is_unit()

    def inverse(self):
        """The batch-of-one case of inverse_batch."""
        return Matrix(self.ctx, inverse_batch(self.ctx, self.a))

    def encode(self):
        """The batch-of-one case of encode_batch."""
        return encode_batch(self.a[None])[0]

    def __repr__(self):
        return "Matrix(%r, [%s])" % (self.ctx, self.encode())


def encode_batch(a):
    """The text of each matrix of an (N, r, c, m) batch: rows joined by
    ';', entries by ',' and an entry's coefficients by ':'."""
    a = np.asarray(a)
    r, c, m = a.shape[-3:]
    text = ";".join([",".join([":".join(["%d"] * m)] * c)] * r)
    rows = a.reshape(len(a), r * c * m).tolist()
    return [text % tuple(row) for row in rows]


def decode_matrix(ctx, text):
    rows = []
    for rtext in text.split(";"):
        row = []
        for etext in rtext.split(","):
            row.append(ctx.elem([int(v) for v in etext.split(":")]))
        rows.append(row)
    return Matrix.from_rows(ctx, rows)


# ---------------------------------------------------------------------------
# characteristic polynomial (Berkowitz, division-free) and friends


def char_poly(M):
    """Monic char poly of M; the batch-of-one case of char_poly_batch."""
    ctx = M.ctx
    return Poly(ctx, char_poly_batch(ctx, M.a).tolist())


def char_poly_batch(ctx, a):
    """Char polys of a batch of matrices by Berkowitz (1984), any GR(p^k, m).

    Maps an (..., n, n, m) array to the (..., n + 1, m) array of coefficient
    vectors, constant term first.  No divisions: the char poly of the
    leading (i+1)-block is T c, where c is that of the leading i-block and T
    is the lower-triangular Toeplitz matrix with first column
    (1, -a_ii, -R C, -R A C, ..., -R A^{i-1} C) for the block A bordered by
    the row R, the column C and the corner a_ii.
    """
    a = np.asarray(a, dtype=np.int64)
    mul = ctx.mat_mul
    batch, n = a.shape[:-3], a.shape[-3]
    c = np.zeros(batch + (1, 1, ctx.m), dtype=np.int64)  # leading coeff first
    c[..., 0, 0, 0] = 1
    for i in range(n):
        v = np.zeros(batch + (i + 3, ctx.m), dtype=np.int64)  # T's column, 0
        v[..., 0, 0] = 1
        v[..., 1, :] = -a[..., i, i, :]
        if i:
            krylov = [a[..., :i, i:i + 1, :]]  # the columns A^j C
            for _ in range(i - 1):
                krylov.append(mul(a[..., :i, :i, :], krylov[-1]))
            row = mul(a[..., i:i + 1, :i, :], np.concatenate(krylov, axis=-2))
            v[..., 2:i + 2, :] = -row[..., 0, :, :]
        c = mul(v[..., _toeplitz_index(i + 2), :] % ctx.mod, c)
    return c[..., ::-1, 0, :]


def det_batch(ctx, a):
    """Determinants of an (..., n, n, m) batch: (-1)^n times the constant
    coefficient of its char polys, as an (..., m) array."""
    a = np.asarray(a, dtype=np.int64)
    return (-1) ** a.shape[-3] * char_poly_batch(ctx, a)[..., 0, :] % ctx.mod


def _adjugate_steps(ctx, a, c):
    """B_{n-1}, ..., B_0, the coefficients of Adj(xI - M) for an
    (..., n, n, m) batch a with char polys c, one at a time, by the Horner
    recurrence B_{n-1} = I, B_{j-1} = M B_j + c_j I."""
    n = a.shape[-3]
    diag = np.arange(n)
    Bj = np.zeros(a.shape, dtype=np.int64)
    Bj[..., diag, diag, 0] = 1
    yield Bj
    for j in range(n - 1, 0, -1):
        Bj = ctx.mat_mul(a, Bj)
        Bj[..., diag, diag, :] += c[..., j, None, :]
        Bj %= ctx.mod
        yield Bj


def adjugate_batch(ctx, a):
    """(c, B): the char polys c = char_poly_batch(ctx, a) of an
    (..., n, n, m) batch, and the (..., n, n, n, m) array B of Adj(xI - M),
    B[..., j, :, :, :] the coefficient of x^j (_adjugate_steps)."""
    a = np.asarray(a, dtype=np.int64)
    n = a.shape[-3]
    c = char_poly_batch(ctx, a)
    B = np.empty(a.shape[:-3] + (n,) + a.shape[-3:], dtype=np.int64)
    for j, Bj in zip(range(n - 1, -1, -1), _adjugate_steps(ctx, a, c)):
        B[..., j, :, :, :] = Bj
    return c, B


def inverse_batch(ctx, a):
    """Inverses of an (..., n, n, m) batch as -B_0 / c_0 (_adjugate_steps,
    keeping one B_j at a time): the only division is by the determinant;
    NonUnitError when one is not a unit."""
    a = np.asarray(a, dtype=np.int64)
    c = char_poly_batch(ctx, a)
    for B0 in _adjugate_steps(ctx, a, c):
        pass
    scale = -ctx.vec_inv(c[..., 0, :]) % ctx.mod
    return ctx.vec_mul(B0, scale[..., None, None, :])


@functools.lru_cache(maxsize=None)
def _toeplitz_index(rows):
    """Index of a lower-triangular Toeplitz (rows, rows - 1) matrix into its
    first column followed by one zero entry (index rows)."""
    s, t = np.ogrid[:rows, :rows - 1]
    return np.where(s >= t, s - t, rows)


def adjugate_x_minus(M):
    """Adj(xI - M) as a list of matrix coefficients [B_0, ..., B_{n-1}];
    the batch-of-one case of adjugate_batch."""
    return [Matrix(M.ctx, b) for b in adjugate_batch(M.ctx, M.a)[1]]


def poly_matrix_entry(B, i, j):
    """Entry (i, j) of a matrix-coefficient polynomial as a Poly."""
    ctx = B[0].ctx
    return Poly(ctx, [Bt.entry(i, j) for Bt in B])


def min_poly_mod_p(M):
    """Minimal polynomial of the residue-field reduction of M.

    The columns vec(M^t), t = 0..n, are reduced together.  The first d
    powers are independent and M^d is not (d <= n by Cayley-Hamilton), so
    the pivots are the columns 0..d-1 and the reduced column d holds the
    coefficients of M^d in I, M, ..., M^{d-1}.
    """
    M = M.reduce(1)
    ctx, n = M.ctx, M.n
    tab = _field_tables(ctx)
    powers = [Matrix.identity(ctx, n).a]
    for _ in range(n):
        powers.append(ctx.mat_mul(powers[-1], M.a))
    cols = _field_index(ctx, np.stack(powers).reshape(n + 1, n * n, ctx.m))
    red, pivots = _rref(tab, cols.T.tolist())
    d = len(pivots)
    coeffs = [tab.neg[row[d]] for row in red] + [1]
    return Poly(ctx, tab.coeffs[coeffs].tolist())


# ---------------------------------------------------------------------------
# group specifications and standard forms


def anti_identity(ctx, n):
    """Lambda_n: ones on the anti-diagonal."""
    a = np.zeros((n, n, ctx.m), dtype=np.int64)
    a[np.arange(n), n - 1 - np.arange(n), 0] = 1
    return Matrix(ctx, a)


def nonsquare_unit(ctx):
    """A fixed non-square unit of the residue field, lifted."""
    return ctx.elem(_nonsquare_coeffs(ctx.reduced_context(1)))


@functools.lru_cache(maxsize=None)
def _nonsquare_coeffs(ctx1):
    # the first unit of ctx1.units() that is not a square, scanned once
    # per residue field
    squares = {u * u for u in ctx1.units()}
    for u in ctx1.units():
        if u not in squares:
            return u.ints
    raise RuntimeError("no non-square found")


def quadratic_character(a):
    """chi_2 of a unit of the residue field: +1 for squares, -1 otherwise."""
    a = a.reduce(1) if a.ctx.k > 1 else a
    if not a.is_unit():
        return 0
    return 1 if a ** ((a.ctx.q - 1) // 2) == a.ctx.one() else -1


def symplectic_form(ctx, size):
    if size % 2:
        raise ValueError("symplectic size must be even")
    h = size // 2
    a = np.zeros((size, size, ctx.m), dtype=np.int64)
    for i in range(h):
        a[i, h + i, 0] = 1
        a[h + i, i, 0] = (-1) % ctx.mod
    return Matrix(ctx, a)


def orthogonal_form(ctx, n, sign):
    """The standard symmetric form of size n and type sign.

    Odd n: anti-diagonal ones with middle entry 1 (+) or delta (-).
    Even n: anti-diagonal ones (+), or with the middle 2x2 block replaced
    by diag(1, -delta) (-). The type is chi_2(det(K) (-1)^{floor(n/2)}).
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    K = anti_identity(ctx, n)
    if sign == 1:
        return K
    delta = nonsquare_unit(ctx)
    a = np.array(K.a)
    h = n // 2
    if n % 2 == 1:
        a[h, h] = delta.coeffs
    else:
        a[h - 1, h] = 0
        a[h, h - 1] = 0
        a[h - 1, h - 1] = ctx.one().coeffs
        a[h, h] = (-delta).coeffs
    return Matrix(ctx, a)


def form_type(K):
    """chi_2(det(K) (-1)^{floor(n/2)}) for a symmetric form K."""
    n = K.n
    return quadratic_character(K.det() * K.ctx.elem((-1) ** (n // 2)))


class GroupSpec:
    """One of the five families at a fixed size over a fixed context."""

    def __init__(self, family, size, ctx, sign=None):
        if family not in FAMILIES:
            raise ValueError("unknown family %r" % family)
        if family == "sp" and size % 2:
            raise ValueError("sp needs even size")
        if family == "so" and sign not in (1, -1):
            raise ValueError("so needs sign +1 or -1")
        if family != "so" and sign is not None:
            raise ValueError("sign is only meaningful for so")
        if family == "u" and ctx.m % 2:
            raise ValueError("u needs a quadratic-extension context")
        self.family = family
        self.size = size
        self.ctx = ctx
        self.sign = sign
        if family == "sp":
            self.form = symplectic_form(ctx, size)
        elif family == "so":
            self.form = orthogonal_form(ctx, size, sign)
        elif family == "u":
            self.form = Matrix.identity(ctx, size)
        else:
            self.form = None

    def reduced(self, k):
        return GroupSpec(self.family, self.size, self.ctx.reduced_context(k),
                         self.sign)

    def is_member(self, M):
        if M.ctx != self.ctx or M.n != self.size:
            return False
        return bool(self.member_mask(M.a)[()])

    def member_mask(self, a):
        """Which matrices of the (..., n, n, m) batch a are members.

        gl, sl and so read the determinant off the constant coefficient of
        the batch's char polys; sp, so and u compare the form products.
        """
        ctx, fam = self.ctx, self.family
        mul = ctx.mat_mul
        a = np.asarray(a, dtype=np.int64)
        ok = np.ones(a.shape[:-3], dtype=bool)
        if fam in ("sp", "so"):
            B = self.form.a
            ok = np.all(mul(mul(np.swapaxes(a, -3, -2), B), a) == B,
                        axis=(-3, -2, -1))
        elif fam == "u":
            eye = Matrix.identity(ctx, self.size).a
            ok = np.all(mul(a, _conj_transpose(ctx, a)) == eye,
                        axis=(-3, -2, -1))
        if fam in ("gl", "sl", "so"):
            det = det_batch(ctx, a)
            if fam == "gl":
                ok = np.any(det % ctx.p, axis=-1)
            else:
                ok &= np.all(det == ctx.one().coeffs, axis=-1)
        return ok

    def __repr__(self):
        tag = self.family + ("+" if self.sign == 1 else "-" if self.sign == -1 else "")
        return "GroupSpec(%s_%d over %r)" % (tag, self.size, self.ctx)


# ---------------------------------------------------------------------------
# Lie algebras


def lie_algebra_basis(spec):
    """Basis matrices of the Lie algebra over the residue field.

    The span is over F_q for gl/sl/sp/so and over the tau-fixed subfield
    for u (whose defining condition X* = -X is only semilinear over F_q).
    """
    ctx = spec.ctx.reduced_context(1)
    n = spec.size
    fam = spec.family
    if fam == "gl":
        return [_unit_matrix(ctx, n, i, j) for i in range(n) for j in range(n)]
    if fam == "sl":
        basis = [_unit_matrix(ctx, n, i, j)
                 for i in range(n) for j in range(n) if i != j]
        for i in range(n - 1):
            basis.append(_unit_matrix(ctx, n, i, i)
                         - _unit_matrix(ctx, n, n - 1, n - 1))
        return basis
    if fam == "u":
        iota = _tau_odd_unit(ctx)
        one = ctx.one()
        basis = []
        for i in range(n):
            basis.append(_scaled_unit(ctx, n, i, i, iota))
        for i in range(n):
            for j in range(i + 1, n):
                for b in (one, iota):
                    basis.append(_scaled_unit(ctx, n, i, j, b)
                                 - _scaled_unit(ctx, n, j, i, b.tau()))
        return basis
    # sp / so: solve B X + X^t B = 0 by row reduction over F_q; unknown
    # (i, j) is the entry X_ij, and its column of the system is B E + E^t B
    # for the unit matrix E = E_ij, both in row-major order
    B = spec.form.a % ctx.mod
    E = np.zeros((n * n, n, n, ctx.m), dtype=np.int64)
    E[np.arange(n * n), np.arange(n * n) // n, np.arange(n * n) % n, 0] = 1
    C = ctx.mat_mul(B, E) + ctx.mat_mul(np.swapaxes(E, -3, -2), B)
    system = _field_index(ctx, C.reshape(n * n, n * n, ctx.m)).T.tolist()
    tab = _field_tables(ctx)
    null = _nullspace(tab, *_rref(tab, system), n * n)
    return [Matrix(ctx, tab.coeffs[vec].reshape(n, n, ctx.m)) for vec in null]


@functools.lru_cache(maxsize=None)
def _tau_odd_unit(ctx):
    """The first unit iota of ctx.elements() with tau(iota) = -iota; the
    units are scanned once per residue field."""
    return next(a for a in ctx.units() if a.tau() == -a)


def _unit_matrix(ctx, n, i, j):
    a = np.zeros((n, n, ctx.m), dtype=np.int64)
    a[i, j, 0] = 1
    return Matrix(ctx, a)


def _scaled_unit(ctx, n, i, j, c):
    a = np.zeros((n, n, ctx.m), dtype=np.int64)
    a[i, j] = c.coeffs
    return Matrix(ctx, a)


# ---------------------------------------------------------------------------
# exact uniform sampling


def sample_fq(spec, rng):
    """Exactly uniform sample from G(F_q) (residue-field level).

    One residue draw (_draw_fq); sl then scales row 0 by the inverse
    determinant (_section_batch).
    """
    ctx = spec.ctx.reduced_context(1)
    spec1 = spec if spec.ctx.k == 1 else spec.reduced(1)
    a = _draw_fq(spec1, ctx, rng)
    if spec.family == "sl":
        a = _section_batch(spec1, ctx, a)
    return Matrix(ctx, a)


def _draw_fq(spec, ctx, rng):
    """sample_fq's draws over the residue field ctx, as an (n, n, m) array
    that for sl is any invertible matrix, not yet scaled to determinant 1.

    gl and sl redraw a uniform matrix (Matrix.random's draws) until it has
    full rank (_is_invertible_fq), so no candidate pays a determinant.
    sp, so and u complete a form isometry column by column
    (_sample_isometry); so redraws it until the determinant read off that
    completion is 1.
    """
    if spec.family in ("gl", "sl"):
        n = spec.size
        while True:
            a = _randbelow_bulk(rng, ctx.mod, n * n * ctx.m)
            a = a.reshape(n, n, ctx.m)
            if _is_invertible_fq(ctx, a):
                return a
    while True:
        a, det = _sample_isometry(spec, ctx, rng)
        if spec.family != "so" or det == 1:
            return a


def _is_invertible_fq(ctx, a):
    """Whether the reduced (n, n, m) matrix a over the residue field ctx has
    full rank, by _rref on the field tables (over m = 1 on a's entries);
    above _FIELD_TAB_MAX_Q, whether its determinant is a unit, so that no
    q^2 tables are built for the test."""
    if ctx.q > _FIELD_TAB_MAX_Q:
        return bool(np.any(det_batch(ctx, a) % ctx.p))
    rows = a[..., 0] if ctx.m == 1 else _field_index(ctx, a)
    red, _ = _rref(_field_tables(ctx), rows.tolist())
    return len(red) == len(a)


_FieldTables = collections.namedtuple(
    "_FieldTables", "coeffs add mul neg inv conj")
_FIELD_TAB_CACHE = {}
# the gl/sl rank test (_is_invertible_fq) builds the field tables up to this q;
# above it their q^2 cost outweighs a determinant per candidate
_FIELD_TAB_MAX_Q = 729


def _field_tables(ctx):
    """Index arithmetic of the residue field ctx (k = 1).

    Element i is the i-th of ctx.elements(): coefficient t is digit t of i
    in base p, so index 0 is zero and index 1 is one.  coeffs is the
    (q, m) array of coefficient vectors; add and mul are q x q nested
    lists, neg, inv (-1 at zero) and conj (tau, or the identity for odd m)
    lists of length q.  Every residue-field elimination runs on these
    indices: _rref for the isometry sampler, min_poly_mod_p, the Lie
    algebras and the images of char_derivative, and _rank_batch for the
    class census.  The price is 2 q^2 table entries: the build takes
    0.04 s and 12 MiB of peak memory at q = 243, 0.6 s and 126 MiB at
    q = 729, and grows as q^2 beyond, so the splitting fields of
    verify_image(extend=True) stop at q = 729.
    """
    tab = _FIELD_TAB_CACHE.get(ctx)
    if tab is None:
        coeffs = _field_coeffs(ctx)
        mul = _field_index(ctx, ctx.vec_mul(coeffs[:, None], coeffs[None]))
        inv = np.argmax(mul == 1, axis=1)
        inv[0] = -1
        conj = ctx.vec_tau(coeffs) if ctx.m % 2 == 0 else coeffs
        tab = _FieldTables(
            coeffs,
            _field_index(ctx, coeffs[:, None] + coeffs[None]).tolist(),
            mul.tolist(), _field_index(ctx, -coeffs).tolist(), inv.tolist(),
            _field_index(ctx, conj).tolist())
        _FIELD_TAB_CACHE[ctx] = tab
    return tab


_FIELD_ARR_CACHE = {}


def _field_arrays(ctx):
    """_field_tables(ctx) with every table a numpy array, for the batched
    eliminations (_rank_batch, _draw_isometries).  Cached per context."""
    arr = _FIELD_ARR_CACHE.get(ctx)
    if arr is None:
        arr = _FieldTables(*map(np.asarray, _field_tables(ctx)))
        _FIELD_ARR_CACHE[ctx] = arr
    return arr


def _field_coeffs(ctx):
    """The (q, m) coefficient vectors of the residue field ctx in
    ctx.elements() order: coefficient t of element i is digit t of i in
    base p."""
    return np.arange(ctx.q)[:, None] // ctx.p ** np.arange(ctx.m) % ctx.p


def _field_index(ctx, a):
    """Table index of each coefficient vector (last axis) of a, mod p."""
    return a % ctx.p @ ctx.p ** np.arange(ctx.m)


def _rref(tab, rows):
    """Reduced row echelon form of rows of field-table indices (see
    _field_tables); returns (the nonzero reduced rows, their pivots)."""
    add, mul, neg, inv = tab.add, tab.mul, tab.neg, tab.inv
    rows = [list(r) for r in rows]
    pivots = []
    r = 0
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        iv = mul[inv[rows[r][c]]]
        rows[r] = [iv[a] for a in rows[r]]
        mrow = rows[r]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                fr = mul[neg[rows[i][c]]]
                rows[i] = [add[a][fr[b]] for a, b in zip(rows[i], mrow)]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows[:r], pivots


def _rank_batch(tab, a):
    """Rank of each matrix of the (N, r, c) batch a of field-table indices,
    with tab the context's _field_arrays: one forward elimination over the
    whole batch, column by column, that keeps only the pivot counts; _rref
    is the single-system elimination that returns the reduced rows."""
    add, mul, neg, inv = tab.add, tab.mul, tab.neg, tab.inv
    a = np.array(a, dtype=np.intp)
    rank = np.zeros(len(a), dtype=np.intp)
    rows = np.arange(a.shape[1])
    for c in range(a.shape[2]):
        cand = (a[:, :, c] != 0) & (rows >= rank[:, None])
        t = np.flatnonzero(cand.any(axis=1))
        if not t.size:
            continue
        r, piv = rank[t], cand[t].argmax(axis=1)
        prow = a[t, piv]
        a[t, piv] = a[t, r]
        a[t, r] = prow
        # zero column c below row r: row_i - (a_ic / a_rc) row_r
        f = mul[a[t, :, c], inv[prow[:, c]][:, None]] * (rows > r[:, None])
        a[t] = add[a[t], neg[mul[f[:, :, None], prow[:, None, :]]]]
        rank[t] += 1
    return rank


def _nullspace(tab, red, pivots, ncols):
    """Nullspace basis in ncols unknowns of a system reduced by _rref.

    The rows may carry further columns past ncols (a right-hand side);
    they are ignored, and every pivot must lie below ncols.
    """
    null = []
    for fc in range(ncols):
        if fc in pivots:
            continue
        vec = [0] * ncols
        vec[fc] = 1
        for prow, pc in zip(red, pivots):
            vec[pc] = tab.neg[prow[fc]]
        null.append(vec)
    return null


def _solve_affine_tab(tab, rows, rhs, ncols):
    """One solution and a nullspace basis of rows * v = rhs; None if none.

    The augmented system is reduced once: when it is consistent, its
    reduced rows without the last column are those of the coefficients.
    """
    red, pivots = _rref(tab, [list(r) + [b] for r, b in zip(rows, rhs)])
    if ncols in pivots:
        return None
    particular = [0] * ncols
    for prow, pc in zip(red, pivots):
        particular[pc] = prow[ncols]
    return particular, _nullspace(tab, red, pivots, ncols)


_ISOMETRY_FORM_CACHE = {}


def _isometry_form(spec, ctx):
    """(B, by_row, by_col): the field-table index rows of spec's form over
    the residue field ctx, and its nonzero entries as (index, entry) pairs
    per row and per column.  Cached per (family, size, ctx, sign)."""
    key = (spec.family, spec.size, ctx, spec.sign)
    if key not in _ISOMETRY_FORM_CACHE:
        B = _field_index(ctx, spec.form.a).tolist()
        by_row = [[(t, b) for t, b in enumerate(row) if b] for row in B]
        by_col = [[(t, row[c]) for t, row in enumerate(B) if row[c]]
                  for c in range(len(B))]
        _ISOMETRY_FORM_CACHE[key] = (B, by_row, by_col)
    return _ISOMETRY_FORM_CACHE[key]


def _sample_isometry(spec, ctx, rng):
    """Uniform matrix over the field ctx whose column Gram matrix is the
    form, and its determinant: an (n, n, m) array and a field-table index.

    Column j is uniform on the affine solutions of its pairings with the
    columns before it, redrawn until its self-pairing is right and it is
    independent of them.  Two eliminations grow with the accepted columns
    c_i.  The pairing system keeps the reduced echelon form of the rows
    [c_i^t B | B_i] (for u, [c_i^* | e_i]); column n + j of those rows is
    column j's right-hand side, so it yields the particular solution and the
    nullspace basis of _solve_affine_tab without a fresh _rref.  A
    candidate is reduced against the normalized echelon of the columns;
    a nonzero remainder makes it independent, and the determinant is the
    product of those remainders' pivots times the sign of the pivot
    permutation.
    """
    tab = _field_tables(ctx)
    add, mul, neg, inv, conj = tab.add, tab.mul, tab.neg, tab.inv, tab.conj
    q = len(add)
    n = spec.size
    unitary = spec.family == "u"
    B, by_row, by_col = _isometry_form(spec, ctx)
    system = []  # (pivot, row of width 2n) of the pairing system
    echelon = []  # (pivot, normalized row) of the accepted columns
    cols = []
    det = 1
    for j in range(n):
        red = [row for _, row in system]
        pivots = [pc for pc, _ in system]
        particular = [0] * n
        for row, pc in zip(red, pivots):
            particular[pc] = row[n + j]
        null = _nullspace(tab, red, pivots, n)
        want = 1 if unitary else B[j][j]
        while True:
            v = particular
            for c, bvec in zip(_randbelow_list(rng, q, len(null)), null):
                if c:
                    mc = mul[c]
                    v = [add[a][mc[b]] for a, b in zip(v, bvec)]
            val = 0
            if unitary:
                for a in v:
                    val = add[val][mul[conj[a]][a]]
            else:
                for i, entries in enumerate(by_row):
                    if v[i]:
                        acc = 0
                        for t, b in entries:
                            acc = add[acc][mul[b][v[t]]]
                        val = add[val][mul[v[i]][acc]]
            if val != want:
                continue
            r = v
            for pc, erow in echelon:
                if r[pc]:
                    f = mul[neg[r[pc]]]
                    r = [add[a][f[b]] for a, b in zip(r, erow)]
            pc = next((t for t, a in enumerate(r) if a), None)
            if pc is not None:
                break
        cols.append(v)
        det = mul[det][r[pc]]
        iv = mul[inv[r[pc]]]
        echelon.append((pc, [iv[a] for a in r]))
        if j + 1 < n:
            system = _echelon_insert(tab, system, _pairing_row(
                tab, v, j, unitary, B, by_col))
    # the remainders, their pivots moved onto the diagonal, are triangular
    perm = [pc for pc, _ in echelon]
    swaps = sum(a > b for i, a in enumerate(perm) for b in perm[i + 1:])
    if swaps % 2:
        det = neg[det]
    return tab.coeffs[np.array(cols).T], det


def _pairing_row(tab, v, j, unitary, B, by_col):
    """The row [v^t B | B_j] (for u, [v^* | e_j]) of the pairing system."""
    add, mul = tab.add, tab.mul
    n = len(v)
    if unitary:
        return [tab.conj[a] for a in v] + [int(t == j) for t in range(n)]
    row = []
    for entries in by_col:
        acc = 0
        for t, b in entries:
            acc = add[acc][mul[v[t]][b]]
        row.append(acc)
    return row + B[j]


def _echelon_insert(tab, system, row):
    """The reduced echelon form, as (pivot, row) pairs, of system's rows
    and one more row independent of them: the row is reduced against the
    system, normalized at its first nonzero entry, and that column is then
    cleared from the other rows."""
    add, mul, neg = tab.add, tab.mul, tab.neg
    for pc, srow in system:
        if row[pc]:
            f = mul[neg[row[pc]]]
            row = [add[a][f[b]] for a, b in zip(row, srow)]
    pc = next(t for t, a in enumerate(row) if a)
    iv = mul[tab.inv[row[pc]]]
    row = [iv[a] for a in row]
    out = []
    for spc, srow in system:
        if srow[pc]:
            f = mul[neg[srow[pc]]]
            srow = [add[a][f[b]] for a, b in zip(srow, row)]
        out.append((spc, srow))
    out.append((pc, row))
    return out


def _conj_transpose(ctx, a):
    """M* = tau(M)^t for each matrix of the (..., n, n, m) batch a."""
    return np.swapaxes(ctx.vec_tau(a), -3, -2)


def hensel_lift_section(M, spec, to_level, check=True):
    """Deterministic member of G at to_level reducing to the member M.

    The batch-of-one case of _section_batch.  With check, the input and
    the output are tested for membership and a failure raises
    MembershipError; the sampler calls _section_batch unchecked.
    """
    k = to_level
    if M.ctx.k != k - 1:
        raise ValueError("input must live at level to_level - 1")
    ctx = M.ctx.raised_context(k)
    if check and not GroupSpec(spec.family, spec.size, M.ctx,
                               spec.sign).is_member(M):
        raise MembershipError("input is not a member at its level")
    out = Matrix(ctx, _section_batch(spec, ctx, M.a[None])[0])
    if check and not GroupSpec(spec.family, spec.size, ctx,
                               spec.sign).is_member(out):
        raise MembershipError("the section is not a member at level %d" % k)
    return out


def _section_batch(spec, ctx, a):
    """hensel_lift_section over a (..., n, n, m) batch, unchecked.

    a holds members at level ctx.k - 1, read verbatim at level ctx.k.  gl
    keeps them; sl scales row 0 by the inverse determinant (at the residue
    level too, where sample_fq passes any invertible matrix).  For sp and so
    the error M^t B M - B, for u the error M M* - I, is p^{k-1} E, and the
    correction I - p^{k-1} B^{-1} E / 2 (on the right), resp.
    I - p^{k-1} E / 2 (on the left), cancels it.
    """
    a = np.asarray(a, dtype=np.int64)
    fam, mul = spec.family, ctx.mat_mul
    if fam == "gl":
        return a
    if fam == "sl":
        a = np.array(a)
        a[..., 0, :, :] = ctx.vec_mul(
            a[..., 0, :, :], ctx.vec_inv(det_batch(ctx, a))[..., None, :])
        return a
    p, eps = ctx.p, ctx.p ** (ctx.k - 1)
    eye = Matrix.identity(ctx, spec.size).a
    half = pow(2, -1, ctx.mod)
    if fam == "u":
        err = mul(a, _conj_transpose(ctx, a)) - eye
        corr = -half * (err % ctx.mod // eps % p)
        return mul((eye + corr * eps) % ctx.mod, a)
    form = GroupSpec(fam, spec.size, ctx, spec.sign)
    B = form.form.a
    err = mul(mul(np.swapaxes(a, -3, -2), B), a) - B
    corr = -half * mul(_form_inverse(form).a, err % ctx.mod // eps % p)
    return mul(a, (eye + corr % ctx.mod * eps) % ctx.mod)


def sample_haar(spec, rng):
    """Exactly uniform sample from G(GR(p^k)); the batch-of-one case of
    sample_haar_batch."""
    return Matrix(spec.ctx, sample_haar_batch(spec, rng, 1)[0])


def sample_haar_batch(spec, rng, count):
    """count exactly uniform samples from G(GR(p^k)), as one array.

    Returns the (count, n, n, m) int64 array: the lift phase
    (lift_haar_batch) applied to the draw phase (draw_haar_batch).  Each
    sample is a residue sample (sample_fq), then one unipotent fiber per
    level: the members at level j over a fixed member at level j-1 are
    exactly M_section (I + p^{j-1} A1) with A1 ranging over the Lie algebra
    span.
    """
    return lift_haar_batch(spec, *draw_haar_batch(spec, rng, count))


def draw_haar_batch(spec, rng, count):
    """The draw phase of sample_haar_batch: everything it reads from rng.

    Returns (a, idx).  a is the (count, n, n, m) int64 array of residue
    samples, sl's not yet scaled to determinant 1 (_draw_fq).  idx holds the
    indices into _lie_data(spec)'s pool of the fiber coefficients, in basis
    order, of the levels left to the lift: a (count, k - 1, dim) array.  Per
    sample the draws are its residue sample's, then its (k - 1) * dim fiber
    indices, each rng.randrange(len(pool)) (one _randbelow_bulk call); for
    m = 1 the pool is F_p in order, so the draws are randrange(p).  This is
    the scalar reference on random.Random; draw_haar_streams is the batched
    draw on numpy streams.
    """
    ctx, n, k = spec.ctx, spec.size, spec.ctx.k
    spec1 = spec if k == 1 else spec.reduced(1)
    ctx1 = ctx.reduced_context(1)
    basis, pool = _lie_data(spec) if k > 1 else ((), ())
    a = np.empty((count, n, n, ctx.m), dtype=np.int64)
    idx = np.empty((count, k - 1, len(basis)), dtype=np.intp)
    for i in range(count):
        a[i] = _draw_fq(spec1, ctx1, rng)
        if len(basis):
            idx[i].flat = _randbelow_bulk(rng, len(pool), idx[i].size)
    return a, idx


def lift_haar_batch(spec, a, idx):
    """The lift phase of sample_haar_batch over draw_haar_batch's draws.

    a holds matrices at level k - levels, idx the fiber indices of the
    levels above.  At the residue level, where sl's draws need not have
    determinant 1, sl's row 0 is scaled by the inverse determinant; then
    for each level left to the lift, one lie_combinations and one level
    step (_lift_level) run over the whole batch.  The draws of several
    batches may be concatenated and lifted at once.  The leading axes of
    a (..., n, n, m) and idx (..., levels, dim) broadcast: a (B, 1, ...)
    batch against (1, F, ...) fiber indices scales and sections each
    member of a once and gives the (B, F, ...) lifts.
    """
    ctx, k = spec.ctx, spec.ctx.k
    first = k + 1 - idx.shape[-2]
    if spec.family == "sl" and first == 2:
        a = _section_batch(spec.reduced(1), ctx.reduced_context(1), a)
    for level in range(first, k + 1):
        a = _lift_level(spec, ctx.reduced_context(level), a,
                        lie_combinations(spec, idx[..., level - first, :]))
    return a


def _lift_level(spec, ctx, a, fiber):
    """The level step: the section (_section_batch) of each member of a at
    level ctx.k - 1 times I + p^{ctx.k - 1} A1, A1 the residue matrix of
    fiber at its batch position (a and fiber broadcast)."""
    step = np.asarray(fiber, dtype=np.int64) * ctx.p ** (ctx.k - 1)
    step[..., range(spec.size), range(spec.size), 0] += 1
    return ctx.mat_mul(_section_batch(spec, ctx, a), step)


# below this many values _randbelow_bulk draws them by _randbelow_list: a
# numpy pass over the words costs about as much as 64 getrandbits calls
_BULK_MIN = 64


def _randbelow_list(rng, bound, count):
    """[rng.randrange(bound) for _ in range(count)], as a list drawn the
    way CPython's randrange draws each value: getrandbits of bound's bit
    length, again while the result is >= bound."""
    bits, width = rng.getrandbits, bound.bit_length()
    out = []
    for _ in range(count):
        r = bits(width)
        while r >= bound:
            r = bits(width)
        out.append(r)
    return out


def _randbelow_bulk(rng, bound, count):
    """[rng.randrange(bound) for _ in range(count)] as one array.

    CPython's randrange(bound) keeps the top bound.bit_length() bits of
    a 32-bit Mersenne-Twister word and draws again while they are >= bound.
    The words come from getrandbits(32 w), least significant word first.
    Each word yields at most one value, so w = the values still missing
    never draws a word past the last one the loop would use, and rng ends
    in the loop's state.  Fewer than _BULK_MIN values are drawn one at a
    time (_randbelow_list).  Values are in the smallest unsigned dtype.
    """
    if not 0 < bound < 2 ** 32:
        raise ValueError("bound must be in 1 .. 2^32 - 1")
    dtype = np.min_scalar_type(bound - 1)
    if count < _BULK_MIN:
        return np.array(_randbelow_list(rng, bound, count), dtype)
    shift = 32 - bound.bit_length()
    parts = [np.empty(0, dtype=np.uint32)]
    missing = count
    while missing:
        words = rng.getrandbits(32 * missing).to_bytes(4 * missing, "little")
        vals = np.frombuffer(words, dtype="<u4") >> shift
        vals = vals[vals < bound]
        parts.append(vals)
        missing -= len(vals)
    return np.concatenate(parts).astype(dtype)


_FORM_INV_CACHE = {}


def _form_inverse(spec):
    key = (spec.family, spec.size, spec.ctx, spec.sign)
    if key not in _FORM_INV_CACHE:
        _FORM_INV_CACHE[key] = spec.form.inverse()
    return _FORM_INV_CACHE[key]


_LIE_CACHE = {}


def _lie_data(spec):
    """(basis, pool): the Lie algebra of spec over its residue field.

    basis is the (dim, n^2, m) array of lie_algebra_basis(spec), each
    matrix flattened row-major.  pool is the (|pool|, m) array of the
    coefficients a combination may take, in ctx1.elements() order: all of
    F_q, or for u the tau-fixed subfield.  Cached per residue context.
    """
    ctx1 = spec.ctx.reduced_context(1)
    key = (spec.family, spec.size, ctx1, spec.sign)
    if key not in _LIE_CACHE:
        n, m = spec.size, ctx1.m
        basis = lie_algebra_basis(spec)
        basis = np.array([b.a for b in basis], dtype=np.int64).reshape(
            len(basis), n * n, m)
        pool = _field_coeffs(ctx1)
        if spec.family == "u":
            pool = pool[np.all(ctx1.vec_tau(pool) == pool, axis=1)]
        _LIE_CACHE[key] = (basis, pool)
    return _LIE_CACHE[key]


def lie_combinations(spec, idx):
    """The Lie-algebra elements sum_t pool[idx[..., t]] basis[t].

    idx is an (..., dim) array of indices into _lie_data(spec)'s pool; the
    result is the (..., n, n, m) array of residue matrices, one ring
    product of each coefficient row with the basis.
    """
    basis, pool = _lie_data(spec)
    ctx1 = spec.ctx.reduced_context(1)
    n = spec.size
    comb = ctx1.mat_mul(pool[idx][..., None, :, :], basis)
    return comb.reshape(idx.shape[:-1] + (n, n, ctx1.m))


def _fiber_table(spec):
    """Every tuple of indices into _lie_data(spec)'s pool for one level's
    fiber, as the (|pool|^dim, dim) array in itertools.product order;
    ValueError above 10^6 tuples."""
    basis, pool = _lie_data(spec)
    size, width = len(pool), len(basis)
    if size ** width > 10 ** 6:
        raise ValueError("Lie-algebra fiber too large to enumerate")
    place = size ** np.arange(width - 1, -1, -1, dtype=np.int64)
    return np.arange(size ** width)[:, None] // place % size


# candidates tested per block by enumerate_blocks
_ENUM_BLOCK = 1024
# the most matrix entries (count * n^2 * m) in a group of whole shards or in
# a block of whole residues' members (enumerate_blocks), unless one has more
_GROUP_ENTRIES = 2 ** 14


def enumerate_group(spec):
    """All members at the spec's own level (tiny sizes only), in
    itertools.product order over the entries and their coefficients."""
    a = np.concatenate(list(enumerate_blocks(spec)))
    order = np.lexsort(a.reshape(len(a), -1).T[::-1])
    return [Matrix(spec.ctx, M) for M in a[order]]


def enumerate_blocks(spec):
    """The members of enumerate_group as (N, n, n, m) arrays, by blocks:
    every residue-level candidate is tested (member_mask), then one level
    at a time each member one level down is lifted (lift_haar_batch) with
    every fiber of the level, so each level's step runs once per member of
    the level below.  ValueError above 10^6 candidates or members."""
    ctx, n = spec.ctx, spec.size
    width = n * n * ctx.m
    if ctx.k > 1:
        lower = np.concatenate(list(enumerate_blocks(
            spec.reduced(ctx.k - 1))))
        idx = _fiber_table(spec)[:, None]
        if len(lower) * len(idx) > 10 ** 6:
            raise ValueError("enumeration too large")
        step = max(1, _GROUP_ENTRIES // (len(idx) * width))
        for start in range(0, len(lower), step):
            block = lower[start:start + step]
            yield lift_haar_batch(spec, block[:, None],
                                  idx[None]).reshape(-1, n, n, ctx.m)
        return
    count = ctx.mod ** width
    if count > 10 ** 6:
        raise ValueError("enumeration too large")
    place = ctx.mod ** np.arange(width - 1, -1, -1, dtype=np.int64)
    for start in range(0, count, _ENUM_BLOCK):
        index = np.arange(start, min(start + _ENUM_BLOCK, count))
        block = (index[:, None] // place % ctx.mod).reshape(-1, n, n, ctx.m)
        yield block[spec.member_mask(block)]
