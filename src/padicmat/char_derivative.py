"""Derivative of the characteristic polynomial along the Lie algebra.

For a member A0 of G(F_q), the level-k members above a fixed level-(k-1)
member differ by unipotent factors I + p^{k-1} A1, and

    char(A0 (I + p^{k-1} A1)) = char(A0) - p^{k-1} dchar_{A0}(A1)

exactly, where dchar_{A0}(A1) = tr(Adj(x - A0) A0 A1).  This module computes
that linear map on the Lie algebra, its image, the predicted image for each
family (a scaled polynomial / palindromic / skew-palindromic space), explicit
block representatives of conjugacy classes with closed-form adjugates, the
join operators, and Witt-class bookkeeping for the orthogonal family.
"""

from __future__ import annotations

import math

import numpy as np

from .galois_rings import GRElem, RingContext
from .matrix_groups import (
    GroupSpec,
    Matrix,
    adjugate_batch,
    anti_identity,
    char_poly,
    min_poly_mod_p,
    nonsquare_unit,
    orthogonal_form,
    quadratic_character,
    symplectic_form,
    _field_index,
    _field_tables,
    _lie_data,
    _rref,
    _tau_odd_unit,
)
from .polynomials import (
    Poly, hilbert90_beta, monomial, palindromic_basis, x_poly)


# ---------------------------------------------------------------------------
# the map and its image


def dchar_poly(A0, A1):
    """tr(Adj(x - A0) A0 A1) as a Poly of degree < n; dchar_map's
    one-column case."""
    return _coeffs_poly(A0.ctx, _dchar_coeffs(A0, A1.a[None])[0])


def dchar_poly_noncentral(A0, A1):
    """x * tr(Adj(x - A0) A1); equals dchar_poly when tr(A1) = 0."""
    ctx = A0.ctx
    adj = adjugate_batch(ctx, A0.a)[1]
    return x_poly(ctx) * _coeffs_poly(
        ctx, _trace_pairing(ctx, adj, A1.a[None])[0])


def _dchar_coeffs(A0, X):
    """tr(Adj(x - A0) A0 X[t]) as a (len(X), n, m) array, one adjugate."""
    ctx = A0.ctx
    adj = adjugate_batch(ctx, A0.a)[1]
    return _trace_pairing(ctx, adj, ctx.mat_mul(A0.a, X))


def _trace_pairing(ctx, left, right):
    """tr(left[j] right[t]) as a (len(right), len(left), m) array: the sum
    of left[j][a, b] right[t][b, a], one ring product of the flattened
    transposes of right with the flattened left."""
    rt = np.swapaxes(right, -3, -2).reshape(len(right), -1, ctx.m)
    lt = left.reshape(len(left), -1, ctx.m)
    return ctx.mat_mul(rt, np.swapaxes(lt, 0, 1))


def _coeffs_poly(ctx, coeffs):
    """The Poly with coefficient vectors the rows of coeffs, constant first."""
    return Poly(ctx, coeffs.tolist())


def _lie_stack(spec):
    """lie_algebra_basis(spec) as one (dim, n, n, m) array."""
    basis = _lie_data(spec)[0]
    return basis.reshape(len(basis), spec.size, spec.size, basis.shape[-1])


class LinearMapOnLie:
    """dchar (or dtrace) evaluated on a Lie-algebra basis.

    coeffs[t] holds the coefficient vectors (constant first) of the value
    on basis element t, in a (dim, n, m) array; columns[t] is that value as
    a Poly.  For the unitary family the span is over the tau-fixed
    subfield; elsewhere over the context field.
    """

    def __init__(self, spec, A0, coeffs):
        self.spec = spec
        self.A0 = A0
        self.coeffs = coeffs

    @property
    def columns(self):
        return [_coeffs_poly(self.A0.ctx, c) for c in self.coeffs]

    def image_rref(self):
        return _canonical_rows(self.A0.ctx, self.coeffs,
                               self.spec.family == "u")

    @property
    def rank(self):
        return len(self.image_rref())


def _split_fixed(ctx, coeffs):
    """The (..., w, m) array over F_{q^2} as the (..., 2w, m) array of its
    tau-fixed parts: c becomes (c + tau c) / 2, (c - tau c) / (2 iota)."""
    half, tau = pow(2, -1, ctx.mod), ctx.vec_tau(coeffs)
    odd = ctx.vec_mul((coeffs - tau) * half, _tau_odd_unit(ctx).inv().coeffs)
    return np.stack([(coeffs + tau) * half % ctx.mod, odd], axis=-2).reshape(
        coeffs.shape[:-2] + (-1, ctx.m))


def _poly_coeffs(ctx, polys, n):
    """The (len(polys), n, m) array of the coefficients below x^n."""
    return np.array([[f.coeff(i).ints for i in range(n)] for f in polys],
                    dtype=np.int64).reshape(len(polys), n, ctx.m)


def _index_rows(ctx, rows):
    """Rows of GRElem over the field ctx as rows of _field_tables indices."""
    return [_field_index(ctx, np.array([a.ints for a in r])).tolist()
            for r in rows]


def _canonical_rows(ctx, coeffs, split_fixed):
    """The reduced rows (field-table indices) spanning the rows of the
    (r, n, m) array, split into tau-fixed parts first for the unitary
    family."""
    if split_fixed:
        coeffs = _split_fixed(ctx, coeffs)
    return _rref(_field_tables(ctx), _field_index(ctx, coeffs).tolist())[0]


def dchar_map(A0, spec):
    """dchar_{A0} on the Lie basis of spec: one Adj(x - A0), and every
    column in one ring product with the stacked A0 X_t."""
    if not spec.is_member(A0):
        raise ValueError("A0 is not a member of the group")
    return LinearMapOnLie(spec, A0, _dchar_coeffs(A0, _lie_stack(spec)))


def dtrace_functional(A0, r, spec):
    """A1 -> r tr(A0^r A1), packaged as a rank <= 1 map (constant polys)."""
    X = _lie_stack(spec)
    coeffs = np.zeros((len(X), A0.n, A0.ctx.m), dtype=np.int64)
    coeffs[:, :1] = _trace_pairing(A0.ctx, (A0 ** r).scale(r).a[None], X)
    return LinearMapOnLie(spec, A0, coeffs)


# ---------------------------------------------------------------------------
# predicted images


def predicted_image(A0, spec):
    """Basis (list of Poly) of the predicted image of dchar_{A0}."""
    ctx = A0.ctx
    if ctx.k != 1:
        raise ValueError("predicted_image works at the residue level")
    n = spec.size
    g = char_poly(A0)
    h = min_poly_mod_p(A0)
    co = g // h
    d = h.degree
    fam = spec.family
    if fam == "gl":
        return [co * monomial(ctx, j) for j in range(d)]
    if fam == "sl":
        return [co * monomial(ctx, j) for j in range(1, d)]
    if fam in ("sp", "so"):
        # the min poly satisfies x^d h(1/x) = eps h with eps = h(0) = +-1;
        # the image carries the same symmetry type
        eps = h.coeff(0)
        return [co * b for b in palindromic_basis(ctx, d, eps)]
    # unitary: F_q J + (char/min) * (h(0)-skew-palindromic, degree < d)
    iota = _tau_odd_unit(ctx)
    J = co * (h - monomial(ctx, d) + Poly(ctx, [h.coeff(0)])) * iota
    out = [J]
    alpha = h.coeff(0)
    for b in _skew_palindromic_basis(ctx, d, alpha):
        out.append(co * b)
    return out


def _star_symmetric_basis(ctx, n):
    """F_q-basis of {f in F_{q^2}[x], deg < n : x^n tau(f)(1/x) = f}."""
    iota = _tau_odd_unit(ctx)
    out = []
    for i in range(1, (n + 1) // 2):
        for c in (ctx.one(), iota):
            out.append(monomial(ctx, i, c) + monomial(ctx, n - i, c.tau()))
    if n % 2 == 0 and n >= 2:
        out.append(monomial(ctx, n // 2))  # middle coefficient tau-fixed
    return out


def _skew_palindromic_basis(ctx, n, alpha):
    """F_q-basis of {f, deg < n : x^n tau(f)(1/x) = tau(alpha) f}."""
    beta = hilbert90_beta(ctx, alpha)
    beta_inv = beta.inv()
    return [b * beta_inv for b in _star_symmetric_basis(ctx, n)]


def verify_image(A0, spec, extend=False):
    """Check computed image == predicted image; returns (ok, report dict)."""
    if extend and spec.ctx.m == 1:
        lift = _splitting_extension(A0, spec)
        if lift is not None:
            A0, spec = lift
    lm = dchar_map(A0, spec)
    computed = lm.image_rref()
    ctx = A0.ctx
    n = spec.size
    predicted = _canonical_rows(
        ctx, _poly_coeffs(ctx, predicted_image(A0, spec), n),
        spec.family == "u")
    ok = computed == predicted
    report = {
        "family": spec.family,
        "n": spec.size,
        "q": ctx.q,
        "a0_digest": A0.encode(),
        "rank_computed": len(computed),
        "rank_predicted": len(predicted),
        "pass": ok,
    }
    return ok, report


def _splitting_extension(A0, spec):
    """Re-embed A0 over F_{q^l} where its char poly splits.

    None when it splits over F_q already, or when l > 6 or q^l > 729: the
    image is reduced over _field_tables indices, whose q^2 tables stop
    there.  Rank and reduced rows do not change under field extension, so
    the check over F_q that runs instead sees the same computed image.
    """
    from .polynomials import factor

    g = char_poly(A0.reduce(1) if A0.ctx.k > 1 else A0)
    l = math.lcm(*(phi.degree for phi, _ in factor(g)))
    if l == 1 or l > 6 or spec.ctx.q ** l > 729:
        return None
    ectx = RingContext(spec.ctx.p, l, 1)
    a = np.zeros((spec.size, spec.size, l), dtype=np.int64)
    a[:, :, 0] = A0.a[:, :, 0]
    M = Matrix(ectx, a)
    return M, GroupSpec(spec.family, spec.size, ectx, spec.sign)


# ---------------------------------------------------------------------------
# Witt classes


class WittClass:
    """Element of the Witt group of F_q, tracked as (#squares, #non-squares)
    of a diagonalization, reduced to a canonical tag."""

    TAGS = ("0", "1", "d", "1-d")

    def __init__(self, q, n_square, n_nonsquare):
        self.q = q
        if q % 4 == 1:
            key = (n_square % 2, n_nonsquare % 2)
            self.tag = {(0, 0): "0", (1, 0): "1",
                        (0, 1): "d", (1, 1): "1-d"}[key]
        else:
            key = (n_square - n_nonsquare) % 4
            self.tag = {0: "0", 1: "1", 2: "1-d", 3: "d"}[key]

    def __add__(self, other):
        if self.q != other.q:
            raise ValueError("mixed fields")
        a1, b1 = self._counts()
        a2, b2 = other._counts()
        return WittClass(self.q, a1 + a2, b1 + b2)

    def _counts(self):
        if self.q % 4 == 1:
            return {"0": (0, 0), "1": (1, 0),
                    "d": (0, 1), "1-d": (1, 1)}[self.tag]
        # q = 3 (mod 4): the class is determined by (a - b) mod 4
        return {"0": (0, 0), "1": (1, 0), "1-d": (2, 0), "d": (3, 0)}[self.tag]

    def __eq__(self, other):
        return isinstance(other, WittClass) and (self.q, self.tag) == (other.q, other.tag)

    def __hash__(self):
        return hash((self.q, self.tag))

    def __repr__(self):
        return "WittClass(q=%d, <%s>)" % (self.q, self.tag)


def witt_class_of_form(K):
    """Witt class of a nondegenerate symmetric matrix over F_q."""
    ctx = K.ctx
    diag = _diagonalize_form(K)[1]
    ns = sum(1 for dv in diag if quadratic_character(dv) == 1)
    nn = sum(1 for dv in diag if quadratic_character(dv) == -1)
    if ns + nn != len(diag):
        raise ValueError("degenerate form")
    return WittClass(ctx.q, ns, nn)


def _diagonalize_form(K):
    """P with P^t K P diagonal; returns (P as column list, diagonal values)."""
    ctx, n = K.ctx, K.n
    G = [[K.entry(i, j) for j in range(n)] for i in range(n)]
    basis = [[ctx.one() if t == i else ctx.zero() for t in range(n)]
             for i in range(n)]

    def bform(u, v):
        return sum((u[i] * G[i][j] * v[j] for i in range(n) for j in range(n)),
                   ctx.zero())

    cols, diag = [], []
    while basis:
        v = next((b for b in basis if not bform(b, b).is_zero()), None)
        if v is None:
            # all basis vectors isotropic; some cross term must be nonzero
            found = None
            for i in range(len(basis)):
                for j in range(i + 1, len(basis)):
                    if not bform(basis[i], basis[j]).is_zero():
                        found = [a + b for a, b in zip(basis[i], basis[j])]
                        break
                if found:
                    break
            if found is None:
                break  # remaining space is in the radical
            v = found
        qv = bform(v, v)
        cols.append(v)
        diag.append(qv)
        qv_inv = qv.inv()
        newbasis = []
        for b in basis:
            c = bform(v, b) * qv_inv
            w = [a - c * s for a, s in zip(b, v)]
            if any(not a.is_zero() for a in w):
                newbasis.append(w)
        # keep an independent subset
        basis = _independent_subset(ctx, newbasis, n - len(cols))
    return cols, diag


def _independent_subset(ctx, vecs, want):
    """The first `want` of vecs that are independent of those before them."""
    _, pivots = _rref(_field_tables(ctx), list(zip(*_index_rows(ctx, vecs))))
    return [vecs[c] for c in pivots[:want]]


def _sqrt_table(ctx):
    tbl = {}
    for u in ctx.elements():
        tbl.setdefault(u * u, u)
    return tbl


def congruence_transform(G, K):
    """X with X^t G X = K, for congruent nondegenerate symmetric forms."""
    ctx, n = G.ctx, G.n
    PG = _normalized_diagonalizer(G)
    PK = _normalized_diagonalizer(K)
    X = PG * PK.inverse()
    if not X.transpose() * G * X == K:
        raise ValueError("forms are not congruent")
    return X


def _normalized_diagonalizer(K):
    """P with P^t K P = diag(1,...,1[,delta]) (delta count 0 or 1)."""
    ctx, n = K.ctx, K.n
    cols, diag = _diagonalize_form(K)
    if len(cols) != n:
        raise ValueError("degenerate form")
    sqrt = _sqrt_table(ctx)
    delta = nonsquare_unit(ctx)
    norm_cols = []
    classes = []
    for v, dv in zip(cols, diag):
        if quadratic_character(dv) == 1:
            s = sqrt[dv].inv()
            cls = 1
        else:
            s = sqrt[dv * delta.inv()].inv()
            cls = -1
        norm_cols.append(([a * s for a in v], cls))
        classes.append(cls)
    # order: squares first, then delta entries
    norm_cols.sort(key=lambda t: t[1], reverse=True)
    cols = [c for c, _ in norm_cols]
    n_delta = sum(1 for _, cls in norm_cols if cls == -1)
    # reduce delta pairs: T^t diag(delta, delta) T = I_2
    if n_delta >= 2:
        T = _delta_pair_transform(ctx, delta)
        while n_delta >= 2:
            i = n - n_delta
            j = i + 1
            vi, vj = cols[i], cols[j]
            cols[i] = [T[0][0] * a + T[1][0] * b for a, b in zip(vi, vj)]
            cols[j] = [T[0][1] * a + T[1][1] * b for a, b in zip(vi, vj)]
            n_delta -= 2
    P = Matrix.from_rows(ctx, [[cols[j][i] for j in range(n)]
                               for i in range(n)])
    return P


def _delta_pair_transform(ctx, delta):
    """2x2 T over F_q with T^t diag(delta, delta) T = I.

    Columns (a, b) and (-b, a) with delta (a^2 + b^2) = 1; the cross term
    vanishes automatically."""
    for a in ctx.elements():
        for b in ctx.elements():
            if delta * (a * a + b * b) == ctx.one():
                return [[a, -b], [b, a]]
    raise RuntimeError("no norm-one vector found (impossible for q odd)")


# ---------------------------------------------------------------------------
# explicit representatives


class Block:
    """One primary block of a representative recipe."""

    def __init__(self, btype, alpha, m, sign=None):
        if btype not in ("I", "II", "III"):
            raise ValueError("block type must be I, II or III")
        self.btype = btype
        self.alpha = alpha
        self.m = m
        self.sign = sign

    def __repr__(self):
        return "Block(%s, alpha=%r, m=%d, sign=%r)" % (
            self.btype, self.alpha, self.m, self.sign)


class RepresentativeRecipe:
    def __init__(self, family, blocks):
        if family not in ("gl", "sp", "so"):
            raise ValueError("recipes support gl, sp and so")
        self.family = family
        self.blocks = list(blocks)


def jordan_block(ctx, m, alpha):
    a = np.zeros((m, m, ctx.m), dtype=np.int64)
    for i in range(m):
        a[i, i] = alpha.coeffs
        if i + 1 < m:
            a[i, i + 1, 0] = 1
    return Matrix(ctx, a)


def _validate_block(family, blk, ctx):
    alpha = blk.alpha if isinstance(blk.alpha, GRElem) else ctx.elem(blk.alpha)
    is_pm1 = alpha == ctx.one() or alpha == -ctx.one()
    if family == "sp":
        if blk.btype == "II" and (not is_pm1 or blk.m % 2 == 0):
            raise ValueError("sp type II needs alpha = +-1 and odd m")
        if blk.btype == "III" and (not is_pm1 or blk.sign not in (1, -1)):
            raise ValueError("sp type III needs alpha = +-1 and a sign")
    if family == "so":
        if blk.btype == "II" and (not is_pm1 or blk.m % 2 == 1):
            raise ValueError("so type II needs alpha = +-1 and even m")
        if blk.btype == "III":
            if not is_pm1:
                raise ValueError("so type III needs alpha = +-1")
            if blk.sign == -1:
                raise ValueError(
                    "so type III with minus sign (Witt type <d>) has no "
                    "base-field representative; use an even-degree extension")
    if not alpha.is_unit():
        raise ValueError("alpha must be a unit")
    return alpha


def _sp_block_matrix(ctx, blk):
    alpha = blk.alpha
    m = blk.m
    if blk.btype in ("I", "II"):
        J = jordan_block(ctx, m, alpha)
        return Matrix.block_diag([J.inverse(), J.transpose()])
    # type III: [[alpha J_m(1)^{-1}, 0], [a S, alpha J_m(1)^t]]
    J1 = jordan_block(ctx, m, ctx.one())
    P = J1.inverse().scale(alpha)
    Q = J1.transpose().scale(alpha)
    a_val = ctx.one() if blk.sign == 1 else \
        ctx.elem((-1) ** m) * ctx.elem(2) * nonsquare_unit(ctx)
    S = _sp_S_matrix(ctx, m)
    n2 = 2 * m
    arr = np.zeros((n2, n2, ctx.m), dtype=np.int64)
    arr[:m, :m] = P.a
    arr[m:, m:] = Q.a
    arr[m:, :m] = S.scale(a_val).a
    return Matrix(ctx, arr)


def _sp_S_matrix(ctx, m):
    """First row alternates 1, -1, ...; all other rows zero."""
    a = np.zeros((m, m, ctx.m), dtype=np.int64)
    for j in range(m):
        a[0, j] = (ctx.elem((-1) ** j)).coeffs
    return Matrix(ctx, a)


def _so_type3_coupling(ctx, m, alpha):
    """(v, C) completing [[J_m(a), e_m, C], [0, a, v], [0, 0, J~]] to an
    isometry of the anti-diagonal form, where J~ is the anti-transpose of
    J_m(a)^{-1}.  The isometry condition determines v linearly and C up to
    an additive kernel; W = -v v^t / 2 is the symmetric choice."""
    J = jordan_block(ctx, m, alpha)
    Jat = _anti_transpose(J.inverse())
    LJ = anti_identity(ctx, m) * Jat
    malpha = -alpha
    v = [malpha * LJ.entry(m - 1, j) for j in range(m)]
    R = Matrix.from_rows(ctx, [[-(v[i] * v[j]) for j in range(m)]
                               for i in range(m)])
    half = ctx.elem(pow(2, -1, ctx.mod))
    W = R.scale(half)
    C = LJ.inverse().transpose() * W
    return v, C, Jat


def _so_block_matrix(ctx, blk):
    """Returns (matrix, preserved standard-shape form)."""
    alpha = blk.alpha
    m = blk.m
    if blk.btype in ("I", "II"):
        J = jordan_block(ctx, m, alpha)
        Jinv_at = _anti_transpose(J.inverse())
        M = Matrix.block_diag([J, Jinv_at])
        return M, anti_identity(ctx, 2 * m)
    # type III, Witt type <1>
    n = 2 * m + 1
    arr = np.zeros((n, n, ctx.m), dtype=np.int64)
    arr[m, m] = alpha.coeffs
    if m:
        J = jordan_block(ctx, m, alpha)
        v, C, Jat = _so_type3_coupling(ctx, m, alpha)
        arr[:m, :m] = J.a
        arr[m - 1, m] = ctx.one().coeffs  # u = (0,...,0,1)^t
        arr[:m, m + 1:] = C.a
        for j in range(m):
            arr[m, m + 1 + j] = v[j].coeffs
        arr[m + 1:, m + 1:] = Jat.a
    return Matrix(ctx, arr), anti_identity(ctx, n)


def _anti_transpose(M):
    return Matrix(M.ctx, M.a[::-1, ::-1].transpose(1, 0, 2))


def triangular_join(A, B):
    """Join of two standard-form symplectic matrices, in standard
    coordinates (the interleaving permutation of the block construction)."""
    ctx = A.ctx
    if A.n % 2 or B.n % 2:
        raise ValueError("symplectic matrices have even size")
    na, nb = A.n // 2, B.n // 2
    n = na + nb
    arr = np.zeros((2 * n, 2 * n, ctx.m), dtype=np.int64)
    # coordinate order: (A top, B top, A bottom, B bottom)
    sl = {"at": slice(0, na), "bt": slice(na, n),
          "ab": slice(n, n + na), "bb": slice(n + na, 2 * n)}
    arr[sl["at"], sl["at"]] = A.a[:na, :na]
    arr[sl["at"], sl["ab"]] = A.a[:na, na:]
    arr[sl["ab"], sl["at"]] = A.a[na:, :na]
    arr[sl["ab"], sl["ab"]] = A.a[na:, na:]
    arr[sl["bt"], sl["bt"]] = B.a[:nb, :nb]
    arr[sl["bt"], sl["bb"]] = B.a[:nb, nb:]
    arr[sl["bb"], sl["bt"]] = B.a[nb:, :nb]
    arr[sl["bb"], sl["bb"]] = B.a[nb:, nb:]
    return Matrix(ctx, arr)


def orthogonal_join(A, KA, B, KB):
    """(C, K): C preserves the standard form K of the summed Witt type."""
    ctx = A.ctx
    n = A.n + B.n
    G = Matrix.block_diag([KA, KB])
    w = witt_class_of_form(KA) + witt_class_of_form(KB)
    K = None
    for sign in (1, -1):
        cand = orthogonal_form(ctx, n, sign)
        if witt_class_of_form(cand) == w:
            K = cand
            break
    if K is None:
        raise RuntimeError("no standard form of the required Witt type")
    X = congruence_transform(G, K)
    C = X.inverse() * Matrix.block_diag([A, B]) * X
    return C, K


def build_representative(recipe, ctx):
    """Member matrix (and form for sp/so) realizing the recipe's class."""
    fam = recipe.family
    if not recipe.blocks:
        raise ValueError("empty recipe")
    if fam == "gl":
        blocks = []
        for blk in recipe.blocks:
            alpha = blk.alpha if isinstance(blk.alpha, GRElem) else ctx.elem(blk.alpha)
            if not alpha.is_unit():
                raise ValueError("alpha must be a unit")
            blocks.append(jordan_block(ctx, blk.m, alpha))
        return Matrix.block_diag(blocks), None
    if fam == "sp":
        M = None
        for blk in recipe.blocks:
            nblk = Block(blk.btype, _validate_block(fam, blk, ctx),
                         blk.m, blk.sign)
            piece = _sp_block_matrix(ctx, nblk)
            M = piece if M is None else triangular_join(M, piece)
        return M, symplectic_form(ctx, M.n)
    # so
    M, K = None, None
    for blk in recipe.blocks:
        nblk = Block(blk.btype, _validate_block(fam, blk, ctx),
                     blk.m, blk.sign)
        piece, pform = _so_block_matrix(ctx, nblk)
        if M is None:
            M, K = piece, pform
        else:
            M, K = orthogonal_join(M, K, piece, pform)
    return M, K


# ---------------------------------------------------------------------------
# closed-form adjugates


def _binpow(ctx, alpha, e):
    """(x - alpha)^e as a Poly."""
    return (x_poly(ctx) - Poly(ctx, [alpha])) ** max(e, 0)


def closed_form_X(ctx, e, alpha):
    """Adj(x - J_e(alpha)): entry (i,j) = (x-alpha)^{e-1-(j-i)} for j >= i."""
    zero = Poly(ctx, [])
    return [[_binpow(ctx, alpha, e - 1 - (j - i)) if j >= i else zero
             for j in range(e)] for i in range(e)]


def closed_form_Y(ctx, e, alpha):
    """Adj(x - J_e(alpha)^{-1}): upper triangular; diagonal
    (x-1/alpha)^{e-1}, and at offset d >= 1 the entry
    (-1)^d alpha^{-(d+1)} x^{d-1} (x-1/alpha)^{e-d-1}."""
    zero = Poly(ctx, [])
    ainv = alpha.inv()
    out = [[zero] * e for _ in range(e)]
    for i in range(e):
        for j in range(i, e):
            d = j - i
            if d == 0:
                out[i][j] = _binpow(ctx, ainv, e - 1)
            else:
                c = ctx.elem((-1) ** d) * ainv ** (d + 1)
                out[i][j] = monomial(ctx, d - 1, c) * _binpow(ctx, ainv, e - d - 1)
    return out


def _pm_scale(P, c):
    return [[f * Poly(f.ctx, [c]) for f in row] for row in P]


def _pm_mul(P, Q):
    ctx = P[0][0].ctx
    rows, inner, cols = len(P), len(Q), len(Q[0])
    out = [[Poly(ctx, []) for _ in range(cols)] for _ in range(rows)]
    for i in range(rows):
        for j in range(cols):
            s = Poly(ctx, [])
            for t in range(inner):
                s = s + P[i][t] * Q[t][j]
            out[i][j] = s
    return out


def _pm_transpose(P):
    return [list(r) for r in zip(*P)]


def _pm_anti_transpose(P):
    return [list(r) for r in zip(*[row[::-1] for row in P[::-1]])]


def _pm_from_matrix(M):
    rows, cols = M.a.shape[0], M.a.shape[1]
    return [[Poly(M.ctx, [M.entry(i, j)]) for j in range(cols)]
            for i in range(rows)]


def _pm_block(blocks):
    """Assemble a block grid of poly matrices."""
    ctx = None
    for row in blocks:
        for b in row:
            if b is not None:
                ctx = b[0][0].ctx
    rows = []
    for brow in blocks:
        height = max(len(b) for b in brow if b is not None)
        for r in range(height):
            row = []
            for b in brow:
                if b is None:
                    raise ValueError("all blocks must be given")
                row.extend(b[r])
            rows.append(row)
    return rows


def _pm_scale_poly(P, f):
    return [[g * f for g in row] for row in P]


def closed_form_adjugate(family, blk, ctx):
    """Adj(x - representative) for a single block, from the closed forms."""
    alpha = blk.alpha if isinstance(blk.alpha, GRElem) else ctx.elem(blk.alpha)
    blk = Block(blk.btype, alpha, blk.m, blk.sign)
    _validate_block(family, blk, ctx)
    m = blk.m
    if family == "sp":
        if blk.btype in ("I", "II"):
            Y = _pm_scale_poly(closed_form_Y(ctx, m, alpha),
                               _binpow(ctx, alpha, m))
            Xt = _pm_scale_poly(_pm_transpose(closed_form_X(ctx, m, alpha)),
                                _binpow(ctx, alpha.inv(), m))
            return _pm_block([[Y, _pm_zero(ctx, m, m)],
                              [_pm_zero(ctx, m, m), Xt]])
        # type III: P = alpha J_m(1)^{-1} = D J_m(alpha)^{-1} D^{-1},
        # Q = alpha J_m(1)^t = (D J_m(alpha) D^{-1})^t with D = diag(alpha^i)
        a_val = ctx.one() if blk.sign == 1 else \
            ctx.elem((-1) ** m) * ctx.elem(2) * nonsquare_unit(ctx)
        Y = _pm_conj_diag(closed_form_Y(ctx, m, alpha), alpha)
        X = _pm_conj_diag(closed_form_X(ctx, m, alpha), alpha)
        Xt = _pm_transpose(X)
        S = _pm_from_matrix(_sp_S_matrix(ctx, m))
        low = _pm_scale(_pm_mul(_pm_mul(Xt, S), Y), a_val)
        return _pm_block([
            [_pm_scale_poly(Y, _binpow(ctx, alpha, m)), _pm_zero(ctx, m, m)],
            [low, _pm_scale_poly(Xt, _binpow(ctx, alpha, m))]])
    if family == "so":
        if blk.btype in ("I", "II"):
            X = _pm_scale_poly(closed_form_X(ctx, m, alpha),
                               _binpow(ctx, alpha.inv(), m))
            Yat = _pm_scale_poly(_pm_anti_transpose(closed_form_Y(ctx, m, alpha)),
                                 _binpow(ctx, alpha, m))
            return _pm_block([[X, _pm_zero(ctx, m, m)],
                              [_pm_zero(ctx, m, m), Yat]])
        # type III (size 2m+1): x - A = [[x - J_{m+1}(alpha), -S0],
        #                                [0, x - J_m(alpha)^{-at}]]
        X1 = closed_form_X(ctx, m + 1, alpha)
        Yat = _pm_anti_transpose(closed_form_Y(ctx, m, alpha))
        S0 = _so_S0_pm(ctx, m, alpha)
        upper_right = _pm_mul(_pm_mul(X1, S0), Yat)
        return _pm_block([
            [_pm_scale_poly(X1, _binpow(ctx, alpha, m)), upper_right],
            [_pm_zero(ctx, m, m + 1),
             _pm_scale_poly(Yat, _binpow(ctx, alpha, m + 1))]])
    raise ValueError("closed forms cover sp and so blocks")


def _so_S0_pm(ctx, m, alpha):
    """The (m+1) x m coupling block of the so type-III representative,
    as a poly-matrix."""
    v, C, _ = _so_type3_coupling(ctx, m, alpha)
    rows = [[Poly(ctx, [C.entry(i, j)]) for j in range(m)] for i in range(m)]
    rows.append([Poly(ctx, [vj]) for vj in v])
    return rows


def _pm_zero(ctx, r, c):
    return [[Poly(ctx, []) for _ in range(c)] for _ in range(r)]


def _pm_conj_diag(P, alpha):
    """D P D^{-1} with D = diag(1, alpha, alpha^2, ...)."""
    ctx = P[0][0].ctx
    e = len(P)
    out = [[Poly(ctx, []) for _ in range(e)] for _ in range(e)]
    for i in range(e):
        for j in range(e):
            c = alpha ** (i - j)
            out[i][j] = P[i][j] * Poly(ctx, [c])
    return out


def generic_adjugate_pm(M):
    """Adj(xI - M) as a poly-matrix, for comparison with the closed forms."""
    B = adjugate_batch(M.ctx, M.a)[1]
    return [[_coeffs_poly(M.ctx, B[:, i, j]) for j in range(M.n)]
            for i in range(M.n)]
