"""The draw phase of the Haar sampler on numpy streams, batched over them.

matrix_groups.draw_haar_batch draws one sample at a time on random.Random
and stays the scalar reference.  Here every stream is a numpy Generator,
one per Monte-Carlo shard, and one pass draws the residues of many streams
at once: a batched rank or determinant test for gl and sl, and a batched
isometry completion for sp, so and u.  Every value comes from the bit
generator's raw words (_draw_below), so a stream's samples depend only on
its generator, its count and the group, never on the streams drawn with it.
"""

from __future__ import annotations

import math

import numpy as np

from .matrix_groups import (
    GroupSpec,
    Matrix,
    _FIELD_TAB_MAX_Q,
    _GROUP_ENTRIES,
    _field_arrays,
    _field_index,
    _lie_data,
    _rank_batch,
)


def draw_haar_streams(spec, streams):
    """The draw phase of sample_haar_batch over several numpy streams at once.

    streams is a list of (generator, count): np.random.Generator objects and
    how many samples each gives.  Returns (a, idx) for lift_haar_batch, as
    draw_haar_batch does, with each stream's samples in stream order.  Each
    generator first gives its (count, k - 1, dim) fiber indices, below
    len(pool) (_draw_below), then its residue draws: gl and sl keep each
    generator's first count invertible candidates (_draw_invertible); sp, so
    and u complete form isometries (_draw_isometries).  Every value a stream
    reads is a prefix of its own _draw_below stream, so its samples depend
    only on its generator, its count and the spec: never on the streams
    drawn with it, nor on how the batch is split into passes.
    """
    ctx, n, k = spec.ctx, spec.size, spec.ctx.k
    spec1 = spec if k == 1 else spec.reduced(1)
    ctx1 = ctx.reduced_context(1)
    gens = [gen for gen, _ in streams]
    counts = [count for _, count in streams]
    basis, pool = _lie_data(spec) if k > 1 else ((), ())
    idx = np.concatenate(
        [_draw_below(gen, len(pool), count * (k - 1) * len(basis))
         for gen, count in streams] or [np.empty(0, dtype=np.intp)])
    idx = idx.astype(np.intp).reshape(sum(counts), k - 1, len(basis))
    if spec.family in ("gl", "sl"):
        a = _draw_invertible(ctx1, n, gens, counts)
    else:
        owner = np.repeat(np.arange(len(streams)), counts)
        a = _draw_isometries(spec1, ctx1, gens, owner)
    return a.astype(np.int64), idx


# the most raw words _draw_below takes from a bit generator at once
_RAW_WORDS = 2 ** 14


def _draw_below(gen, bound, count):
    """count values uniform on 0 .. bound - 1 from the numpy Generator gen.

    Each value is the top bits of one 64-bit word of gen's bit generator
    (random_raw), as many as bound - 1 has, drawn again while it is >= bound:
    NEP 19 keeps BitGenerator streams stable across numpy versions, and
    Generator methods not.  A pass draws only the words still missing, at
    most _RAW_WORDS, so no word past the last value is drawn, and successive
    calls give the values of one call for their total.  Values are in the
    smallest unsigned dtype.
    """
    shift = np.uint64(64 - max(1, (bound - 1).bit_length()))
    dtype = np.min_scalar_type(max(bound - 1, 0))
    parts, missing = [np.empty(0, dtype=dtype)], count
    while missing:
        vals = gen.bit_generator.random_raw(min(missing, _RAW_WORDS)) >> shift
        parts.append(vals[vals < bound].astype(dtype))
        missing -= len(parts[-1])
    return np.concatenate(parts)


def _draw_invertible(ctx, n, gens, counts):
    """counts[i] invertible n x n matrices over the residue field ctx from
    gens[i], as one (sum(counts), n, n, m) array in generator order.

    A candidate is n^2 m values below p (_draw_below), read as
    Matrix.random reads its draws.  Each generator short of its count draws
    a block of candidates, sized from the acceptance prod (1 - q^-i) with a
    margin of three standard deviations; one test (_invertible_mask) covers
    the blocks of all generators, and each keeps its first candidates of
    full rank, in draw order.  Only a generator still short draws again.
    """
    q, m = ctx.q, ctx.m
    accept = math.prod(1 - q ** -i for i in range(1, n + 1))
    kept = [[] for _ in gens]
    need = list(counts)
    while any(need):
        live = [i for i, c in enumerate(need) if c]
        blocks = [_draw_below(gens[i], ctx.p, n * n * m * math.ceil(
            (need[i] + 3 * math.sqrt(need[i]) + 2) / accept)).reshape(
                -1, n, n, m) for i in live]
        ok = np.split(_invertible_mask(ctx, np.concatenate(blocks)),
                      np.cumsum([len(b) for b in blocks[:-1]]))
        for i, block, good in zip(live, blocks, ok):
            kept[i].append(block[good][:need[i]])
            need[i] -= len(kept[i][-1])
    return np.concatenate([np.empty((0, n, n, m), dtype=np.int64)]
                          + [a for parts in kept for a in parts])


def _invertible_mask(ctx, a):
    """Which matrices of the (N, n, n, m) batch a over the residue field ctx
    are invertible, in passes of at most _GROUP_ENTRIES entries.  Over
    m > 1, up to _FIELD_TAB_MAX_Q, the ranks (_rank_batch) on the field
    tables decide; over F_p, and above that q, gl's member_mask does (the
    determinant): over F_p it is plain int matrix products, which outrun
    the table lookups."""
    n = a.shape[-3]
    step = max(1, _GROUP_ENTRIES // (n * n * ctx.m))
    gl = GroupSpec("gl", n, ctx)
    out = []
    for start in range(0, len(a), step):
        block = a[start:start + step]
        if ctx.m == 1 or ctx.q > _FIELD_TAB_MAX_Q:
            out.append(gl.member_mask(block))
        else:
            out.append(_rank_batch(_field_arrays(ctx),
                                   _field_index(ctx, block)) == n)
    return np.concatenate([np.empty(0, dtype=bool)] + out)


class _ShardValues:
    """Values below bound from each of several generators, taken in rounds.

    Generator i's values are its _draw_below stream, in order, however the
    rounds fall: take(owner, width) gives each row of owner (ascending
    generator indices) the next width values of its generator, a
    generator's rows in order.  A buffer grows from its own generator's
    needs only, and its surplus is never read.
    """

    def __init__(self, gens, bound, sizes):
        self.gens, self.bound = gens, bound
        self.bufs = [_draw_below(gen, bound, size)
                     for gen, size in zip(gens, sizes)]
        self.pos = np.zeros(len(gens), dtype=np.intp)
        self._pack()

    def _pack(self):
        self.size = np.array([len(b) for b in self.bufs], dtype=np.intp)
        self.start = np.cumsum(self.size) - self.size
        self.flat = np.concatenate(self.bufs)

    def take(self, owner, width):
        count = np.bincount(owner, minlength=len(self.gens)) * width
        short = np.flatnonzero(self.pos + count > self.size)
        for i in short:
            more = max(self.pos[i] + count[i] - self.size[i], self.size[i])
            self.bufs[i] = np.concatenate(
                [self.bufs[i], _draw_below(self.gens[i], self.bound, more)])
        if short.size:
            self._pack()
        rank = np.arange(len(owner)) - np.searchsorted(owner, owner)
        at = self.start[owner] + self.pos[owner] + rank * width
        self.pos += count
        return self.flat[at[:, None] + np.arange(width)]


def _draw_isometries(spec, ctx, gens, owner):
    """One isometry of spec's form over the residue field ctx per entry of
    owner, the index of the generator it draws from (ascending), as an
    (N, n, n, m) array.

    _sample_isometry's column completion, run over all samples at once on
    _field_arrays indices, each sample with its own pivots.  For column j
    every sample holds the reduced echelon form of its pairing system
    [c_i^t B | B_i] (for u, [c_i^* | e_i]) over the accepted columns c_i:
    its n - j free coordinates are drawn below q, and column n + j of the
    system gives the pivot coordinates of that affine solution.  Each
    round, a sample still open draws `tries` candidates and keeps the
    first whose self-pairing is B_jj and whose remainder against the
    reduced echelon of its accepted columns is nonzero; tries is the size
    of the set the self-pairing ranges over (1 for sp, q for so, the fixed
    field's size for u), so a round accepts about as often for every form.
    The determinant is the product of the remainders' pivots times the
    sign of the pivot permutation; so's det -1 draws are multiplied by the
    reflection _so_reflection, which maps them one-to-one onto SO.
    """
    F = _Field(ctx)
    n, N = spec.size, len(owner)
    fam = spec.family
    B = _field_index(ctx, spec.form.a)
    tries = {"sp": 1, "so": ctx.q, "u": math.isqrt(ctx.q)}[fam]
    per_gen = np.bincount(owner, minlength=len(gens))
    values = _ShardValues(gens, ctx.q, tries * n * (n + 1) * per_gen)
    rows = np.arange(N)
    cols = np.zeros((N, n, n), dtype=np.intp)  # cols[s, j] is column j
    ech = np.zeros((N, n, n), dtype=np.intp)  # rref of the accepted columns
    epiv = np.zeros((N, n), dtype=np.intp)
    system = np.zeros((N, 0, 2 * n), dtype=np.intp)
    spiv = np.zeros((N, 0), dtype=np.intp)
    det = np.ones(N, dtype=np.intp)

    def left(v):
        return F.tab.conj[v] if fam == "u" else v

    for j in range(n):
        w = n - j
        pivot = np.zeros((N, n), dtype=bool)
        pivot[rows[:, None], spiv] = True
        free = np.argsort(pivot, axis=1, kind="stable")[:, :w]
        red = np.take_along_axis(system[:, :, :n], free[:, None, :], axis=2)
        todo = rows
        while todo.size:
            A = len(todo)
            c = values.take(owner[todo], tries * w).reshape(A, tries, w)
            c = c.astype(np.intp)
            v = np.zeros((A, tries, n), dtype=np.intp)
            np.put_along_axis(v, np.broadcast_to(
                free[todo, None, :], c.shape), c, axis=2)
            # pivot coordinates: the right-hand side minus the free terms
            np.put_along_axis(
                v, np.broadcast_to(spiv[todo, None, :], (A, tries, j)),
                F.sub(system[todo, None, :, n + j],
                      F.matmul(red[todo, None], c[..., None])[..., 0]),
                axis=2)
            ok = F.matmul(F.matmul(left(v)[..., None, :], B),
                          v[..., None])[..., 0, 0] == B[j, j]
            # the remainder against the reduced echelon of the columns
            f = np.take_along_axis(v, np.broadcast_to(
                epiv[todo, None, :j], (A, tries, j)), axis=2)
            r = F.sub(v, F.matmul(f[:, :, None, :],
                                  ech[todo, None, :j])[:, :, 0])
            ok &= np.any(r != 0, axis=-1)
            done = ok.any(axis=1)
            first = ok.argmax(axis=1)[done]
            s = todo[done]
            v, r = v[done, first], r[done, first]
            pc = np.argmax(r != 0, axis=1)
            lead = r[np.arange(len(s)), pc]
            det[s] = F.mul(det[s], lead)
            r = F.mul(F.tab.inv[lead][:, None], r)
            e = ech[s, :j]
            ech[s, :j] = F.sub(e, F.mul(e[np.arange(len(s)), :, pc][..., None],
                                        r[:, None, :]))
            ech[s, j], epiv[s, j], cols[s, j] = r, pc, v
            todo = todo[~done]
        if j + 1 < n:
            row = np.concatenate([F.matmul(left(cols[:, j]), B),
                                  np.broadcast_to(B[j], (N, n))], axis=1)
            f = np.take_along_axis(row, spiv, axis=1)
            row = F.sub(row, F.matmul(f[:, None, :], system)[:, 0])
            pc = np.argmax(row != 0, axis=1)
            row = F.mul(F.tab.inv[row[rows, pc]][:, None], row)
            system = F.sub(system, F.mul(system[rows, :, pc][..., None],
                                         row[:, None, :]))
            system = np.concatenate([system, row[:, None]], axis=1)
            spiv = np.concatenate([spiv, pc[:, None]], axis=1)
    a = F.tab.coeffs[cols.transpose(0, 2, 1)]
    if fam == "so":
        swaps = np.triu(epiv[:, :, None] > epiv[:, None, :], 1).sum((1, 2))
        flip = np.flatnonzero((det == 1) == (swaps % 2 == 1))
        a[flip] = ctx.mat_mul(a[flip], _so_reflection(spec, ctx))
    return a


class _Field:
    """Arithmetic on the field-table indices (_field_arrays) of the residue
    field ctx, elementwise with broadcasting.  Over m = 1 an index is its
    element, so products and sums are plain ints mod p, which outrun the
    table lookups that every other field uses."""

    def __init__(self, ctx):
        self.ctx, self.tab = ctx, _field_arrays(ctx)
        self.p = ctx.p if ctx.m == 1 else None

    def mul(self, a, b):
        return a * b % self.p if self.p else self.tab.mul[a, b]

    def sub(self, a, b):
        return (a - b) % self.p if self.p else self.tab.add[a, self.tab.neg[b]]

    def matmul(self, a, b):
        """The matrix product a @ b, on the ring's own products for m > 1."""
        if self.p:
            return a @ b % self.p
        prod = self.tab.mul[a[..., :, :, None], b[..., None, :, :]]
        return _field_index(self.ctx, self.tab.coeffs[prod].sum(axis=-3))


_REFLECTION_CACHE = {}


def _so_reflection(spec, ctx):
    """The reflection x -> x - 2 B(x, v) / B(v, v) v of so's form B over
    the residue field ctx, as an (n, n, m) array of determinant -1: v is
    the first basis vector with B(v, v) != 0 (for odd n the middle one),
    else e_0 + e_{n-1}, with B(v, v) = 2.  Cached per (size, ctx, sign)."""
    key = (spec.size, ctx, spec.sign)
    if key not in _REFLECTION_CACHE:
        n, mul = spec.size, ctx.mat_mul
        K = spec.form.a % ctx.mod
        v = np.zeros((n, 1, ctx.m), dtype=np.int64)
        square = [i for i in range(n) if K[i, i].any()]
        v[[square[0]] if square else [0, n - 1], 0, 0] = 1
        Kv = mul(K, v)
        vKv = mul(np.swapaxes(v, 0, 1), Kv)[0, 0]
        scale = ctx.vec_mul(2, ctx.vec_inv(vKv))
        R = Matrix.identity(ctx, n).a - ctx.vec_mul(
            mul(v, np.swapaxes(Kv, 0, 1)), scale)
        _REFLECTION_CACHE[key] = R % ctx.mod
    return _REFLECTION_CACHE[key]
