import random

import pytest

from padicmat.char_derivative import (
    Block,
    RepresentativeRecipe,
    WittClass,
    build_representative,
    closed_form_X,
    closed_form_Y,
    closed_form_adjugate,
    congruence_transform,
    dchar_map,
    dchar_poly,
    dchar_poly_noncentral,
    dtrace_functional,
    generic_adjugate_pm,
    orthogonal_join,
    predicted_image,
    triangular_join,
    verify_image,
    witt_class_of_form,
    _canonical_rows,
    _poly_coeffs,
)
from padicmat.galois_rings import RingContext
from padicmat.matrix_groups import (
    GroupSpec,
    Matrix,
    char_poly,
    enumerate_group,
    form_type,
    hensel_lift_section,
    lie_algebra_basis,
    min_poly_mod_p,
    orthogonal_form,
    sample_fq,
    symplectic_form,
)
from padicmat.polynomials import Poly, from_int_coeffs, x_poly

F3 = RingContext(3, 1, 1)
F5 = RingContext(5, 1, 1)
F9 = RingContext(3, 2, 1)


def _image_span(ctx, polys, n, split=False):
    return _canonical_rows(ctx, _poly_coeffs(ctx, polys, n), split)


# -- image theorems --


def test_image_exhaustive_gl2_f3():
    spec = GroupSpec("gl", 2, F3)
    count = 0
    for M in enumerate_group(spec):
        ok, report = verify_image(M, spec)
        assert ok, report
        count += 1
    assert count == 48


def test_image_exhaustive_sl2_f3():
    spec = GroupSpec("sl", 2, F3)
    count = 0
    for M in enumerate_group(spec):
        ok, report = verify_image(M, spec)
        assert ok, report
        count += 1
    assert count == 24


@pytest.mark.parametrize("family,n,ctx,sign", [
    ("sp", 4, F3, None),
    ("so", 3, F3, 1),
    ("so", 3, F3, -1),
    ("u", 2, F9, None),
    ("u", 3, F9, None),
])
def test_image_sampled(family, n, ctx, sign):
    spec = GroupSpec(family, n, ctx, sign)
    rng = random.Random(20260826)
    for _ in range(200):
        M = sample_fq(spec, rng)
        ok, report = verify_image(M, spec)
        assert ok, report


def test_image_rank_equals_prediction():
    rng = random.Random(5)
    spec = GroupSpec("gl", 3, F3)
    for _ in range(50):
        M = sample_fq(spec, rng)
        d = min_poly_mod_p(M).degree
        assert dchar_map(M, spec).rank == d


def test_image_extension_field_rerun():
    # matrices with irreducible char poly get re-verified after splitting
    rng = random.Random(9)
    spec = GroupSpec("gl", 2, F3)
    seen_ext = 0
    for _ in range(40):
        M = sample_fq(spec, rng)
        ok, report = verify_image(M, spec, extend=True)
        assert ok, report
        if report["q"] > 3:
            seen_ext += 1
    assert seen_ext > 0


def test_unitary_image_contains_skew_direction():
    # the rank-one tau-odd summand is present: rank = deg min, not deg min - 1
    rng = random.Random(13)
    spec = GroupSpec("u", 2, F9)
    for _ in range(30):
        M = sample_fq(spec, rng)
        assert dchar_map(M, spec).rank == min_poly_mod_p(M).degree


# -- the consistency identity --


@pytest.mark.parametrize("family,n,ctx,sign", [
    ("gl", 3, F3, None),
    ("sl", 3, F3, None),
    ("sp", 4, F3, None),
    ("so", 3, F3, 1),
    ("u", 2, F9, None),
])
def test_consistency_identity_level2(family, n, ctx, sign):
    # char(A0~ (I + p A1)) - char(A0~) = -p dchar_{A0}(A1) exactly mod p^2
    spec = GroupSpec(family, n, ctx, sign)
    rng = random.Random(77)
    basis = lie_algebra_basis(spec)
    p = ctx.p
    for _ in range(200):
        A0 = sample_fq(spec, rng)
        A1 = basis[rng.randrange(len(basis))]
        A0L = hensel_lift_section(A0, spec, 2)
        ctx2 = A0L.ctx
        A1L = Matrix(ctx2, A1.a.copy())
        U = Matrix.identity(ctx2, n) + A1L.scale(ctx2.elem(p))
        lhs = char_poly(A0L * U) - char_poly(A0L)
        d = dchar_poly(A0, A1)
        rhs = Poly(ctx2, [d.coeff(i).lift(2) * ctx2.elem(-p)
                          for i in range(n + 1)])
        assert lhs == rhs


def test_noncentral_form_agrees_on_traceless():
    # x tr(Adj(x - A0) A1) = tr(Adj(x - A0) A0 A1) when tr A1 = 0
    rng = random.Random(3)
    for family, n, ctx, sign in [("sp", 4, F3, None), ("so", 3, F3, 1)]:
        spec = GroupSpec(family, n, ctx, sign)
        basis = lie_algebra_basis(spec)
        for _ in range(20):
            A0 = sample_fq(spec, rng)
            for A1 in basis:
                assert A1.trace().is_zero()
                assert dchar_poly(A0, A1) == dchar_poly_noncentral(A0, A1)


# -- trace functionals --


def test_dtrace_vanishes_at_r_equal_p():
    spec = GroupSpec("gl", 2, F3)
    for M in enumerate_group(spec):
        lm = dtrace_functional(M, 3, spec)
        assert lm.rank == 0


def test_dtrace_nonvanishing_for_unit_r():
    spec = GroupSpec("gl", 2, F3)
    for M in enumerate_group(spec):
        for r in (1, 2, 4):
            lm = dtrace_functional(M, r, spec)
            assert lm.rank == 1


# -- invariance --


@pytest.mark.parametrize("family,n,ctx,sign", [
    ("gl", 3, F3, None),
    ("sp", 4, F3, None),
    ("so", 3, F3, 1),
    ("u", 2, F9, None),
])
def test_image_conjugation_invariant(family, n, ctx, sign):
    spec = GroupSpec(family, n, ctx, sign)
    rng = random.Random(101)
    for _ in range(100):
        M = sample_fq(spec, rng)
        g = sample_fq(spec, rng)
        M2 = g * M * g.inverse()
        assert dchar_map(M, spec).image_rref() == dchar_map(M2, spec).image_rref()


def test_join_law_symplectic():
    A, _ = build_representative(RepresentativeRecipe("sp", [Block("I", 2, 2)]), F5)
    B, _ = build_representative(
        RepresentativeRecipe("sp", [Block("III", 1, 1, 1)]), F5)
    C = triangular_join(A, B)
    specA = GroupSpec("sp", A.n, F5)
    specB = GroupSpec("sp", B.n, F5)
    specC = GroupSpec("sp", C.n, F5)
    assert specC.is_member(C)
    gA, gB = char_poly(A), char_poly(B)
    lhs = _image_span(F5, dchar_map(C, specC).columns, C.n)
    rhs = _image_span(
        F5,
        [gB * f for f in dchar_map(A, specA).columns]
        + [gA * f for f in dchar_map(B, specB).columns],
        C.n)
    assert lhs == rhs


def test_join_law_orthogonal():
    A, KA = build_representative(RepresentativeRecipe("so", [Block("I", 2, 1)]), F5)
    B, KB = build_representative(RepresentativeRecipe("so", [Block("III", 1, 1)]), F5)
    C, KC = orthogonal_join(A, KA, B, KB)
    specA = GroupSpec("so", A.n, F5, form_type(KA))
    specB = GroupSpec("so", B.n, F5, form_type(KB))
    specC = GroupSpec("so", C.n, F5, form_type(KC))
    assert specC.is_member(C)
    gA, gB = char_poly(A), char_poly(B)
    lhs = _image_span(F5, dchar_map(C, specC).columns, C.n)
    rhs = _image_span(
        F5,
        [gB * f for f in dchar_map(A, specA).columns]
        + [gA * f for f in dchar_map(B, specB).columns],
        C.n)
    assert lhs == rhs


# -- Witt classes and congruence --


def test_witt_addition_q3():
    one = WittClass(3, 1, 0)
    assert (one + one).tag == "1-d"
    zero = WittClass(3, 0, 0)
    assert (one + zero) == one
    d = WittClass(3, 0, 1)
    assert (one + d).tag == "0"  # <1, d> is hyperbolic when -1 is not a square
    # the four classes form Z/4 generated by <1> when q = 3 (mod 4)
    acc = zero
    tags = []
    for _ in range(4):
        acc = acc + one
        tags.append(acc.tag)
    assert tags == ["1", "1-d", "d", "0"]


def test_witt_addition_q5():
    # q = 1 (mod 4): Klein four group
    one = WittClass(5, 1, 0)
    d = WittClass(5, 0, 1)
    assert (one + one).tag == "0"
    assert (d + d).tag == "0"
    assert (one + d).tag == "1-d"


def test_witt_class_of_standard_forms():
    # anti-diagonal identity of even size is hyperbolic
    from padicmat.matrix_groups import anti_identity
    assert witt_class_of_form(anti_identity(F3, 4)).tag == "0"
    assert witt_class_of_form(anti_identity(F5, 2)).tag == "0"
    assert witt_class_of_form(anti_identity(F3, 3)).tag == "1"
    assert witt_class_of_form(orthogonal_form(F3, 3, -1)).tag == "d"
    plus = witt_class_of_form(orthogonal_form(F3, 4, 1))
    minus = witt_class_of_form(orthogonal_form(F3, 4, -1))
    assert plus != minus


def test_congruence_transform():
    rng = random.Random(31)
    for ctx in (F3, F5):
        for n in (2, 3, 4):
            for sign in (1, -1):
                K = orthogonal_form(ctx, n, sign)
                # conjugate K by a random invertible matrix, then recover it
                while True:
                    T = Matrix.random(ctx, n, rng)
                    try:
                        T.inverse()
                        break
                    except Exception:
                        continue
                G = T.transpose() * K * T
                X = congruence_transform(G, K)
                assert X.transpose() * G * X == K


def test_congruence_transform_rejects_inequivalent():
    G = orthogonal_form(F3, 3, 1)
    K = orthogonal_form(F3, 3, -1)
    with pytest.raises(ValueError):
        congruence_transform(G, K)


# -- representatives --


def test_sp_type1_smallest_example():
    M, K = build_representative(
        RepresentativeRecipe("sp", [Block("I", 2, 1)]), F3)
    assert M == Matrix.diag(F3, [2, 2])
    assert K == symplectic_form(F3, 2)


@pytest.mark.parametrize("ctx,blk", [
    (F5, Block("I", 2, 3)),
    (F3, Block("II", -1, 3)),
    (F5, Block("III", 1, 3, 1)),
    (F5, Block("III", -1, 2, -1)),
])
def test_sp_blocks_are_members(ctx, blk):
    M, K = build_representative(RepresentativeRecipe("sp", [blk]), ctx)
    spec = GroupSpec("sp", M.n, ctx)
    assert spec.is_member(M)
    alpha = ctx.elem(blk.alpha)
    if blk.btype == "III":
        # one full Jordan block: min poly (x - alpha)^{2m}
        assert min_poly_mod_p(M) == (x_poly(ctx) - Poly(ctx, [alpha])) ** (2 * blk.m)


@pytest.mark.parametrize("ctx,blk", [
    (F5, Block("I", 2, 2)),
    (F3, Block("II", 1, 2)),
    (F3, Block("III", 1, 1)),
    (F3, Block("III", -1, 1)),
    (F5, Block("III", 1, 2)),
    (F5, Block("III", -1, 3)),
])
def test_so_blocks_preserve_form(ctx, blk):
    M, K = build_representative(RepresentativeRecipe("so", [blk]), ctx)
    assert M.transpose() * K * M == K
    alpha = ctx.elem(blk.alpha)
    if blk.btype == "III":
        n = 2 * blk.m + 1
        assert witt_class_of_form(K).tag == "1"
        assert min_poly_mod_p(M) == (x_poly(ctx) - Poly(ctx, [alpha])) ** n


def test_block_validation():
    with pytest.raises(ValueError):
        build_representative(RepresentativeRecipe("sp", [Block("II", -1, 2)]), F3)
    with pytest.raises(ValueError):
        build_representative(RepresentativeRecipe("so", [Block("II", 1, 3)]), F3)
    with pytest.raises(ValueError):
        build_representative(RepresentativeRecipe("so", [Block("III", 1, 1, -1)]), F3)
    with pytest.raises(ValueError):
        RepresentativeRecipe("u", [Block("I", 2, 1)])


def test_multi_block_recipes():
    M, K = build_representative(
        RepresentativeRecipe("sp", [Block("I", 2, 2), Block("III", 1, 1, 1),
                                    Block("II", -1, 1)]),
        F5)
    spec = GroupSpec("sp", M.n, F5)
    assert M.n == 8  # sizes 4 + 2 + 2
    assert spec.is_member(M)
    # char poly is the product over blocks
    x = x_poly(F5)
    expected = ((x - 2) ** 2 * (x - F5.elem(2).inv()) ** 2
                * (x - 1) ** 2 * (x + 1) ** 2)
    assert char_poly(M) == expected

    M, K = build_representative(
        RepresentativeRecipe("so", [Block("I", 2, 1), Block("III", 1, 1)]), F5)
    assert M.n == 5
    assert M.transpose() * K * M == K
    spec = GroupSpec("so", 5, F5, form_type(K))
    assert spec.is_member(M)


def test_gl_recipe():
    M, _ = build_representative(
        RepresentativeRecipe("gl", [Block("I", 2, 2), Block("I", 1, 1)]), F3)
    x = x_poly(F3)
    assert char_poly(M) == (x - 2) ** 2 * (x - 1)
    assert min_poly_mod_p(M) == (x - 2) ** 2 * (x - 1)


# -- closed-form adjugates --


def test_closed_form_X_smallest():
    alpha = F3.elem(2)
    X = closed_form_X(F3, 2, alpha)
    xm = x_poly(F3) - Poly(F3, [alpha])
    assert X[0][0] == xm and X[1][1] == xm
    assert X[0][1] == Poly(F3, [1])
    assert X[1][0].is_zero()


def test_closed_form_Y_is_adjugate_of_inverse_jordan():
    from padicmat.char_derivative import jordan_block
    for ctx, alpha, e in [(F3, 2, 3), (F5, 3, 4)]:
        a = ctx.elem(alpha)
        J = jordan_block(ctx, e, a)
        gen = generic_adjugate_pm(J.inverse())
        Y = closed_form_Y(ctx, e, a)
        assert Y == gen


@pytest.mark.parametrize("family,ctx,blk", [
    ("sp", F5, Block("I", 2, 3)),
    ("sp", F5, Block("II", 1, 3)),
    ("sp", F3, Block("II", -1, 3)),
    ("sp", F5, Block("III", 1, 3, 1)),
    ("sp", F5, Block("III", -1, 2, -1)),
    ("so", F5, Block("I", 2, 2)),
    ("so", F3, Block("II", 1, 2)),
    ("so", F3, Block("III", -1, 1)),
    ("so", F5, Block("III", 1, 2)),
])
def test_closed_form_adjugate_matches_generic(family, ctx, blk):
    M, _ = build_representative(RepresentativeRecipe(family, [blk]), ctx)
    cf = closed_form_adjugate(family, blk, ctx)
    gen = generic_adjugate_pm(M)
    assert cf == gen


def test_representative_images_match_prediction():
    # the explicit representatives satisfy the image theorems too
    for family, ctx, blk, sign in [
            ("sp", F3, Block("III", 1, 1, 1), None),
            ("sp", F5, Block("I", 2, 2), None),
            ("so", F5, Block("III", 1, 1), None)]:
        M, K = build_representative(RepresentativeRecipe(family, [blk]), ctx)
        sgn = form_type(K) if family == "so" else None
        spec = GroupSpec(family, M.n, ctx, sgn)
        ok, report = verify_image(M, spec)
        assert ok, report


def test_hilbert90_beta_scans_the_units_once_per_ring_and_alpha(monkeypatch):
    from padicmat import matrix_groups, polynomials
    spec = GroupSpec("u", 2, F9)
    rng = random.Random(8)
    samples = [sample_fq(spec, rng) for _ in range(12)]
    alphas = [min_poly_mod_p(A0).coeff(0) for A0 in samples]
    assert len(set(alphas)) < len(alphas)
    matrix_groups._tau_odd_unit(F9)  # its scan has its own test
    polynomials.hilbert90_beta.cache_clear()
    scans = []
    units = RingContext.units

    def counted(ctx):
        scans.append(ctx)
        return units(ctx)

    monkeypatch.setattr(RingContext, "units", counted)
    for _ in range(2):
        for A0 in samples:
            predicted_image(A0, spec)
    assert scans == [F9] * len(set(alphas))
    beta = polynomials.hilbert90_beta(F9, alphas[0])
    assert beta.tau() == alphas[0] * beta
    assert scans == [F9] * len(set(alphas))
