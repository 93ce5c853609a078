import random
from collections import Counter

import numpy as np
import pytest
from scipy.stats import chisquare

from padicmat.galois_rings import RingContext
from padicmat.matrix_groups import (
    GroupSpec,
    Matrix,
    adjugate_x_minus,
    char_poly,
    decode_matrix,
    enumerate_group,
    form_type,
    hensel_lift_section,
    lie_algebra_basis,
    min_poly_mod_p,
    nonsquare_unit,
    orthogonal_form,
    poly_matrix_entry,
    quadratic_character,
    sample_fq,
    sample_haar,
    sample_haar_batch,
    symplectic_form,
    _field_tables,
)
from padicmat.polynomials import Poly, from_int_coeffs

F3 = RingContext(3, 1, 1)
F5 = RingContext(5, 1, 1)
F9 = RingContext(3, 2, 1)
Z9 = RingContext(3, 1, 2)
G92 = RingContext(3, 2, 2)  # GR(9, 2): p=3, m=2, k=2


def test_matmul_against_schoolbook():
    rng = random.Random(7)
    for ctx in (F3, Z9, F9, G92):
        A = Matrix.random(ctx, 3, rng)
        B = Matrix.random(ctx, 3, rng)
        C = A * B
        for i in range(3):
            for j in range(3):
                want = sum((A.entry(i, t) * B.entry(t, j) for t in range(3)),
                           ctx.zero())
                assert C.entry(i, j) == want


def test_inverse_roundtrip():
    rng = random.Random(3)
    for ctx in (F3, Z9, G92):
        for _ in range(10):
            M = Matrix.random(ctx, 3, rng)
            if not M.is_unit():
                continue
            assert M * M.inverse() == Matrix.identity(ctx, 3)
            assert M.inverse() * M == Matrix.identity(ctx, 3)


def test_det_multiplicative_and_bareiss_vs_charpoly():
    rng = random.Random(5)
    for _ in range(20):
        A = Matrix.random(Z9, 4, rng)
        B = Matrix.random(Z9, 4, rng)
        assert (A * B).det() == A.det() * B.det()
        c = char_poly(A)
        assert A.det() == Z9.elem((-1) ** 4) * c.coeff(0)


def test_char_poly_of_companion_matrix():
    rng = random.Random(11)
    for ctx in (F3, Z9, F9, G92):
        for _ in range(5):
            cs = [ctx.random_elem(rng) for _ in range(4)]
            f = Poly(ctx, cs + [ctx.one()])
            n = 4
            rows = [[ctx.zero()] * n for _ in range(n)]
            for i in range(1, n):
                rows[i][i - 1] = ctx.one()
            for i in range(n):
                rows[i][n - 1] = -cs[i]
            C = Matrix.from_rows(ctx, rows)
            assert char_poly(C) == f


def test_char_poly_sympy_oracle():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(13)
    x = sympy.Symbol("x")
    for _ in range(10):
        M = Matrix.random(Z9, 4, rng)
        ints = [[int(M.a[i, j, 0]) for j in range(4)] for i in range(4)]
        cp = sympy.Matrix(ints).charpoly(x)
        want = [int(c) % 9 for c in reversed(cp.all_coeffs())]
        got = [int(char_poly(M).coeff(i).coeffs[0]) for i in range(5)]
        assert got == want


def test_cayley_hamilton():
    rng = random.Random(17)
    for ctx in (Z9, G92):
        M = Matrix.random(ctx, 3, rng)
        c = char_poly(M)
        acc = Matrix.zero(ctx, 3)
        for j in range(c.degree, -1, -1):
            acc = acc * M + Matrix.identity(ctx, 3).scale(c.coeff(j))
        assert acc == Matrix.zero(ctx, 3)


def test_adjugate_recurrence_identity():
    # (xI - M) Adj(xI - M) = char(M) I, coefficient by coefficient
    rng = random.Random(19)
    for ctx in (Z9, F9):
        for n in (2, 3, 4):
            M = Matrix.random(ctx, n, rng)
            c = char_poly(M)
            B = adjugate_x_minus(M)
            for j in range(n + 1):
                Bj = B[j] if j < n else Matrix.zero(ctx, n)
                Bjm1 = B[j - 1] if j >= 1 else Matrix.zero(ctx, n)
                assert Bjm1 - M * Bj == Matrix.identity(ctx, n).scale(c.coeff(j))


def test_adjugate_matches_cofactors_2x2():
    rng = random.Random(23)
    M = Matrix.random(Z9, 2, rng)
    adj = adjugate_x_minus(M)
    # Adj([[x-a,-b],[-c,x-d]]) = [[x-d, b],[c, x-a]]
    a, b = M.entry(0, 0), M.entry(0, 1)
    c, d = M.entry(1, 0), M.entry(1, 1)
    assert poly_matrix_entry(adj, 0, 0) == Poly(Z9, [-d, Z9.one()])
    assert poly_matrix_entry(adj, 0, 1) == Poly(Z9, [b])
    assert poly_matrix_entry(adj, 1, 0) == Poly(Z9, [c])
    assert poly_matrix_entry(adj, 1, 1) == Poly(Z9, [-a, Z9.one()])


def test_min_poly_divides_char_and_annihilates():
    rng = random.Random(29)
    for ctx in (F3, F9):
        for _ in range(10):
            M = Matrix.random(ctx, 4, rng)
            mp = min_poly_mod_p(M)
            cp = char_poly(M)
            assert cp % mp == Poly(ctx, [])
            acc = Matrix.zero(ctx, 4)
            for j in range(mp.degree, -1, -1):
                acc = acc * M + Matrix.identity(ctx, 4).scale(mp.coeff(j))
            assert acc == Matrix.zero(ctx, 4)


def test_min_poly_examples():
    # repeated eigenvalue on a diagonal matrix drops the multiplicity
    M = Matrix.diag(F3, [1, 2, 1])
    assert min_poly_mod_p(M) == from_int_coeffs(F3, [2, 0, 1])
    # identity has minimal polynomial x - 1
    assert min_poly_mod_p(Matrix.identity(F3, 4)) == from_int_coeffs(F3, [-1, 1])
    # min poly of a GR matrix is computed on its residue reduction
    M = Matrix.from_rows(Z9, [[1, 3], [0, 1]])
    assert min_poly_mod_p(M) == from_int_coeffs(F3, [-1, 1])


def test_symplectic_form_properties():
    for ctx in (F3, Z9):
        for size in (2, 4, 6):
            O = symplectic_form(ctx, size)
            assert O.transpose() == -O
            assert O * O == -Matrix.identity(ctx, size)
    with pytest.raises(ValueError):
        symplectic_form(F3, 3)


def test_orthogonal_form_types():
    for ctx in (F3, F5):
        for n in (2, 3, 4, 5):
            for sign in (1, -1):
                K = orthogonal_form(ctx, n, sign)
                assert K.transpose() == K
                assert form_type(K) == sign


def test_quadratic_character():
    sq = {(u * u).coeffs.tobytes() for u in F5.units()}
    for u in F5.units():
        want = 1 if u.coeffs.tobytes() in sq else -1
        assert quadratic_character(u) == want
    assert quadratic_character(nonsquare_unit(F5)) == -1


def test_group_orders_by_enumeration():
    assert len(enumerate_group(GroupSpec("gl", 2, F3))) == 48
    assert len(enumerate_group(GroupSpec("sl", 2, F3))) == 24
    assert len(enumerate_group(GroupSpec("sp", 2, F3))) == 24
    assert len(enumerate_group(GroupSpec("so", 2, F3, 1))) == 2
    assert len(enumerate_group(GroupSpec("so", 2, F3, -1))) == 4
    assert len(enumerate_group(GroupSpec("u", 1, F9))) == 4


def test_sp2_column_completions():
    # 8 choices of nonzero first column, then 3 valid second columns each
    O = symplectic_form(F3, 2)
    total = 0
    firsts = 0
    import itertools
    for c0 in itertools.product(range(3), repeat=2):
        if c0 == (0, 0):
            continue
        firsts += 1
        v0 = [F3.elem(c0[0]), F3.elem(c0[1])]
        count = 0
        for c1 in itertools.product(range(3), repeat=2):
            v1 = [F3.elem(c1[0]), F3.elem(c1[1])]
            pair = sum((v0[i] * sum((O.entry(i, j) * v1[j] for j in range(2)),
                                    F3.zero()) for i in range(2)), F3.zero())
            if pair == F3.one():
                count += 1
        assert count == 3
        total += count
    assert firsts == 8 and total == 24


def test_lie_algebra_dimensions():
    cases = [
        ("gl", 3, None, F3, 9),
        ("sl", 3, None, F3, 8),
        ("sp", 2, None, F3, 3),
        ("sp", 4, None, F3, 10),
        ("so", 3, 1, F3, 3),
        ("so", 4, 1, F3, 6),
        ("so", 4, -1, F3, 6),
        ("u", 2, None, F9, 4),
        ("u", 3, None, F9, 9),
    ]
    for fam, size, sign, ctx, dim in cases:
        assert len(lie_algebra_basis(GroupSpec(fam, size, ctx, sign))) == dim


def test_lie_algebra_generates_level_fibers():
    # I + p^{k-1} X must be a member at level k for every basis element X
    for fam, size, sign, pm in [("gl", 3, None, (3, 1)), ("sl", 3, None, (3, 1)),
                                ("sp", 4, None, (3, 1)), ("so", 3, 1, (3, 1)),
                                ("so", 4, -1, (3, 1)), ("u", 2, None, (3, 2))]:
        p, m = pm
        ctx = RingContext(p, m, 2)
        spec = GroupSpec(fam, size, ctx, sign)
        for X in lie_algebra_basis(spec):
            M = Matrix.identity(ctx, size) + Matrix(ctx, X.a * p)
            assert spec.is_member(M), (fam, size, sign)


def _chisq_ok(counts, n_draws, n_cells):
    observed = np.zeros(n_cells)
    for idx, c in enumerate(counts.values()):
        observed[idx] = c
    assert len(counts) <= n_cells
    stat, pval = chisquare(observed)
    return pval > 0.001


def test_sample_fq_uniform_small_groups():
    rng = random.Random(101)
    cases = [
        ("sl", 2, None, F3),
        ("sp", 2, None, F3),
        ("so", 2, -1, F3),
        ("u", 1, None, F9),
        ("gl", 1, None, F5),
    ]
    for fam, size, sign, ctx in cases:
        spec = GroupSpec(fam, size, ctx, sign)
        group = enumerate_group(spec)
        draws = 400 * len(group)
        counts = Counter()
        for _ in range(draws):
            M = sample_fq(spec, rng)
            assert spec.is_member(M)
            counts[M] += 1
        assert set(counts) <= set(group)
        assert _chisq_ok(counts, draws, len(group)), (fam, size, sign)


def test_sample_fq_membership_larger():
    rng = random.Random(103)
    for fam, size, sign, ctx in [("gl", 4, None, F9), ("sl", 4, None, F3),
                                 ("sp", 6, None, F3), ("so", 5, -1, F5),
                                 ("u", 3, None, F9)]:
        spec = GroupSpec(fam, size, ctx, sign)
        for _ in range(3):
            assert spec.is_member(sample_fq(spec, rng))


def test_hensel_section_is_injective_and_within_group():
    spec1 = GroupSpec("sl", 2, F3)
    spec = GroupSpec("sl", 2, Z9)
    lifted = set()
    for M in enumerate_group(spec1):
        L = hensel_lift_section(M, spec, 2)
        assert spec.is_member(L)
        assert L.reduce(1) == M
        lifted.add(L)
    assert len(lifted) == 24


def test_level_two_fiber_size_sl2():
    # |SL_2(Z/9)| = |SL_2(F_3)| * 3^dim(sl_2) and every member factors as
    # section(reduction) * (I + 3 A1)
    spec = GroupSpec("sl", 2, Z9)
    members = enumerate_group(spec)
    assert len(members) == 24 * 27
    fiber = [M for M in members if M.reduce(1) == Matrix.identity(F3, 2)]
    assert len(fiber) == 27
    sec = hensel_lift_section(Matrix.identity(F3, 2), spec, 2)
    seen = set()
    for X_coeffs in range(27):
        c = [X_coeffs % 3, (X_coeffs // 3) % 3, (X_coeffs // 9) % 3]
        basis = lie_algebra_basis(spec)
        A = Matrix.zero(Z9, 2)
        for ci, B in zip(c, basis):
            A = A + Matrix(Z9, B.a * 3 * ci)
        seen.add(sec * (Matrix.identity(Z9, 2) + A))
    assert seen == set(fiber)


def test_sample_haar_membership_all_families():
    rng = random.Random(107)
    cases = [
        ("gl", 3, None, RingContext(3, 1, 3)),
        ("sl", 3, None, RingContext(3, 1, 2)),
        ("sp", 4, None, RingContext(3, 1, 2)),
        ("so", 3, 1, RingContext(5, 1, 2)),
        ("so", 4, -1, RingContext(3, 1, 2)),
        ("u", 2, None, RingContext(3, 2, 2)),
    ]
    for fam, size, sign, ctx in cases:
        spec = GroupSpec(fam, size, ctx, sign)
        for _ in range(5):
            M = sample_haar(spec, rng)
            assert M.ctx == ctx
            assert spec.is_member(M), (fam, size, sign)


@pytest.mark.parametrize("pm", [(7, 1), (3, 2), (5, 2), (3, 3)])
def test_field_tables_match_element_arithmetic(pm):
    ctx = RingContext(*pm, 1)
    tab = _field_tables(ctx)
    elems = list(ctx.elements())
    assert [list(c) for c in tab.coeffs] == [list(e.coeffs) for e in elems]
    for i, a in enumerate(elems):
        assert elems[tab.neg[i]] == -a
        assert tab.inv[i] == -1 if i == 0 else elems[tab.inv[i]] == a.inv()
        assert elems[tab.conj[i]] == (a.tau() if ctx.m % 2 == 0 else a)
        for j, b in enumerate(elems):
            assert elems[tab.add[i][j]] == a + b
            assert elems[tab.mul[i][j]] == a * b


def test_caches_follow_the_defining_polynomial():
    # F_9 and GR(9, 2) built on x^2 + 2x + 2 instead of the default x^2 + 1:
    # the field tables and the Lie data of the default ring must not leak in
    rng = random.Random(11)
    sample_haar(GroupSpec("u", 2, G92), rng)
    spec = GroupSpec("u", 2, RingContext(3, 2, 1, (2, 2, 1)))
    assert all(spec.is_member(sample_fq(spec, rng)) for _ in range(20))
    spec2 = GroupSpec("u", 2, RingContext(3, 2, 2, (2, 2, 1)))
    assert all(spec2.is_member(sample_haar(spec2, rng)) for _ in range(5))


def test_sample_haar_uniform_so2_level2():
    ctx = RingContext(3, 1, 2)
    spec = GroupSpec("so", 2, ctx, 1)
    group = enumerate_group(spec)
    assert len(group) == 6  # 2 at the residue level, fiber of size 3
    rng = random.Random(109)
    counts = Counter(sample_haar(spec, rng) for _ in range(3000))
    assert set(counts) <= set(group)
    assert _chisq_ok(counts, 3000, len(group))


def test_sample_haar_uniform_sl2_level2():
    ctx = RingContext(3, 1, 2)
    spec = GroupSpec("sl", 2, ctx)
    group = enumerate_group(spec)
    assert len(group) == 648
    batch = sample_haar_batch(spec, random.Random(113), 30000)
    # one batch reads the stream of 30 000 batch-of-one calls
    rng = random.Random(113)
    assert all(np.array_equal(a, sample_haar(spec, rng).a) for a in batch[:50])
    counts = Counter(Matrix(ctx, a) for a in batch)
    assert set(counts) <= set(group)
    observed = np.array([counts.get(M, 0) for M in group], dtype=float)
    stat, pval = chisquare(observed)
    assert pval > 0.001


def test_group_closure_under_product_and_inverse():
    rng = random.Random(127)
    cases = [
        ("sp", 4, None, RingContext(3, 1, 2)),
        ("so", 3, -1, RingContext(3, 1, 2)),
        ("u", 2, None, RingContext(3, 2, 2)),
        ("sl", 3, None, RingContext(5, 1, 2)),
    ]
    for fam, size, sign, ctx in cases:
        spec = GroupSpec(fam, size, ctx, sign)
        for _ in range(20):
            A = sample_haar(spec, rng)
            B = sample_haar(spec, rng)
            assert spec.is_member(A * B)
            assert spec.is_member(A.inverse())


def test_negative_trace_identities():
    rng = random.Random(131)
    # Sp and SO: M is conjugate to M^{-t}, so tr(M^{-j}) = tr(M^j)
    for fam, size, sign in [("sp", 4, None), ("so", 3, 1), ("so", 4, -1)]:
        ctx = RingContext(3, 1, 2)
        spec = GroupSpec(fam, size, ctx, sign)
        for _ in range(5):
            M = sample_haar(spec, rng)
            Minv = M.inverse()
            for j in range(1, 5):
                assert (Minv ** j).trace() == (M ** j).trace()
    # U: M^{-1} = M*, so tr(M^{-j}) = tau(tr(M^j))
    ctx = RingContext(3, 2, 2)
    spec = GroupSpec("u", 2, ctx)
    for _ in range(5):
        M = sample_haar(spec, rng)
        Minv = M.inverse()
        for j in range(1, 5):
            assert (Minv ** j).trace() == (M ** j).trace().tau()


def test_encode_decode_roundtrip():
    rng = random.Random(137)
    for ctx in (F3, Z9, G92):
        M = Matrix.random(ctx, 3, rng)
        assert decode_matrix(ctx, M.encode()) == M
    M = Matrix.from_rows(F3, [[1, 2], [0, 1]])
    assert M.encode() == "1,2;0,1"


def test_so_form_fixed_across_levels():
    for sign in (1, -1):
        K1 = orthogonal_form(F3, 4, sign)
        K2 = orthogonal_form(Z9, 4, sign)
        assert np.array_equal(K1.a, K2.a % 3)
        assert form_type(K2) == sign


def test_so_minus_spec_scans_the_units_once_per_residue_field(monkeypatch):
    from padicmat import matrix_groups
    matrix_groups._nonsquare_coeffs.cache_clear()
    scans = []
    units = RingContext.units

    def counted(ctx):
        scans.append(ctx)
        return units(ctx)

    monkeypatch.setattr(RingContext, "units", counted)
    ctx = RingContext(7, 1, 2)
    first = GroupSpec("so", 3, ctx, -1)
    assert scans
    del scans[:]
    # the same context, and its residue field, find the cached non-square
    assert GroupSpec("so", 3, ctx, -1).form == first.form
    assert np.array_equal(first.reduced(1).form.a, first.form.a % 7)
    assert scans == []
    assert quadratic_character(nonsquare_unit(ctx)) == -1


def test_tau_odd_unit_scans_the_units_once_per_residue_field(monkeypatch):
    from padicmat import matrix_groups
    from padicmat.char_derivative import dchar_map
    matrix_groups._tau_odd_unit.cache_clear()
    scans = []
    units = RingContext.units

    def counted(ctx):
        scans.append(ctx)
        return units(ctx)

    monkeypatch.setattr(RingContext, "units", counted)
    iota = matrix_groups._tau_odd_unit(F9)
    assert scans == [F9]
    assert iota.is_unit() and iota.tau() == -iota
    # the unitary image splits each coefficient through the cached iota
    spec = GroupSpec("u", 2, F9)
    rng = random.Random(8)
    for _ in range(5):
        dchar_map(sample_fq(spec, rng), spec).image_rref()
    assert matrix_groups._tau_odd_unit(F9) == iota
    assert scans == [F9]


def test_spec_validation():
    with pytest.raises(ValueError):
        GroupSpec("sp", 3, F3)
    with pytest.raises(ValueError):
        GroupSpec("so", 3, F3)
    with pytest.raises(ValueError):
        GroupSpec("u", 2, F3)
    with pytest.raises(ValueError):
        GroupSpec("gl", 2, F3, sign=1)
    with pytest.raises(ValueError):
        GroupSpec("xx", 2, F3)
