"""Arithmetic that would be wrong refuses instead: int64 bounds, non-units
in a batch, malformed encodings, and the Hensel section's membership check."""

import random

import numpy as np
import pytest

from padicmat import cli, matrix_groups
from padicmat.conjugacy import (
    ConjClassDatum,
    Partition,
    family_prob,
    fulman_prob_u,
    min_poly_joint,
)
from padicmat.galois_rings import NonUnitError, RingContext, decode_elem
from padicmat.matrix_groups import (
    GroupSpec,
    Matrix,
    MembershipError,
    hensel_lift_section,
    inverse_batch,
    sample_fq,
)
from padicmat.polynomials import Poly

Z9 = RingContext(3, 1, 2)


def test_largest_level_below_the_int64_bound():
    R = RingContext(3, 1, 19)
    assert R.elem(-1) * R.elem(-1) == R.one()
    big = R.elem(R.mod - 2)
    assert (big * big).coeffs[0] == 4  # (-2)^2


@pytest.mark.parametrize("p,m,k", [(3, 1, 20), (3, 4, 19), (5, 1, 14)])
def test_contexts_past_the_int64_bound_refuse(p, m, k):
    # (2m - 1) p^(2k) >= 2^63; GR(3^19, 3) is 5 * 3^38 < 2^63
    with pytest.raises(ValueError):
        RingContext(p, m, k)


def test_extension_degree_counts_in_the_bound():
    # GR(3^19, 3): a product sums 5 = 2m - 1 int64 products of residues
    R = RingContext(3, 3, 19)
    c = [R.mod - 1, R.mod - 2, R.mod - 3]
    full = [0] * 5
    for i in range(3):
        for j in range(3):
            full[i + j] += c[i] * c[j]
    f = R.defining_poly
    for t in (4, 3):  # x^t = -x^(t-3) (f_0 + f_1 x + f_2 x^2)
        lead, full[t] = full[t], 0
        for s in range(3):
            full[t - 3 + s] -= lead * f[s]
    want = [v % R.mod for v in full[:3]]
    assert (R.elem(c) * R.elem(c)).coeffs.tolist() == want


def test_mat_mul_refuses_an_inner_size_past_the_bound():
    R = RingContext(3, 1, 19)  # (2^63 - 1) // 3^38 = 6
    rng = random.Random(1)
    a = np.array([[rng.randrange(R.mod) for _ in range(6)] for _ in range(6)],
                 dtype=np.int64)
    want = [[sum(int(a[i, t]) * int(a[t, j]) for t in range(6)) % R.mod
             for j in range(6)] for i in range(6)]
    assert R.mat_mul(a[..., None], a[..., None])[..., 0].tolist() == want
    b = np.ones((7, 7, 1), dtype=np.int64)
    with pytest.raises(ValueError):
        R.mat_mul(b, b)


def test_cli_refuses_an_overflowing_level(capsys):
    assert cli.dispatch(["tv", "--family", "gl", "--n", "2", "--p", "3",
                         "--k", "20", "--d", "1", "--samples", "5",
                         "--seed", "1"]) == 2
    assert "overflow" in capsys.readouterr().err


def test_vec_inv_tests_units_per_row():
    assert Z9.vec_inv([[1], [2]]).tolist() == [[1], [5]]
    with pytest.raises(NonUnitError):
        Z9.vec_inv([[1], [3]])
    singular = np.zeros((2, 2, 2, 1), dtype=np.int64)
    singular[:, 0, 0, 0] = singular[:, 1, 1, 0] = 1
    singular[1, 1, 1, 0] = 3
    with pytest.raises(NonUnitError):
        inverse_batch(Z9, singular)


@pytest.mark.parametrize("text", ["1,2 @ Z(9)", "1 @ GR(3^2,1", "1 @ 3"])
def test_decode_elem_refuses_a_malformed_tag(text):
    with pytest.raises(ValueError):
        decode_elem(text)


def test_encode_text():
    M = Matrix(RingContext(3, 2, 2), np.arange(8).reshape(2, 2, 2))
    assert M.encode() == "0:1,2:3;4:5,6:7"


def _sp4_member_with_correction():
    """A member of Sp_4(F_3) whose verbatim lift to Z/9 is not a member."""
    spec1 = GroupSpec("sp", 4, RingContext(3, 1, 1))
    spec2 = GroupSpec("sp", 4, Z9)
    rng = random.Random(6)
    while True:
        M = sample_fq(spec1, rng)
        if not spec2.is_member(M.lift(2)):
            return M, spec2


def test_hensel_section_checks_its_output(monkeypatch):
    M, spec = _sp4_member_with_correction()
    assert spec.is_member(hensel_lift_section(M, spec, 2))
    monkeypatch.setattr(matrix_groups, "_form_inverse",
                        lambda s: Matrix.identity(s.ctx, s.size))
    with pytest.raises(MembershipError):
        hensel_lift_section(M, spec, 2, check=True)
    out = hensel_lift_section(M, spec, 2, check=False)
    assert not spec.is_member(out)


def test_hensel_section_checks_its_input():
    spec = GroupSpec("sp", 4, Z9)
    with pytest.raises(MembershipError):
        hensel_lift_section(Matrix.zero(RingContext(3, 1, 1), 4), spec, 2)


def test_no_class_law_for_sl():
    # an sl datum is a GL class of det 1, which may split in SL
    F3 = RingContext(3, 1, 1)
    x_minus_1 = Poly(F3, [-1, 1])
    datum = ConjClassDatum("sl", F3, {x_minus_1: Partition([1, 1])})
    with pytest.raises(ValueError, match="family sl"):
        family_prob(datum)
    with pytest.raises(ValueError, match="family sl"):
        min_poly_joint(2, "sl", 3, x_minus_1 ** 2)
    with pytest.raises(ValueError, match="family xx"):
        min_poly_joint(2, "xx", 3, x_minus_1 ** 2)


def test_class_laws_check_the_family_first():
    F3 = RingContext(3, 1, 1)
    datum = ConjClassDatum("gl", F3, {Poly(F3, [-1, 1]): Partition([1])})
    with pytest.raises(ValueError, match="u datum required"):
        fulman_prob_u(datum)  # before it finds F_3 is no F_{q^2}


def test_min_poly_joint_refuses_an_unpaired_char_poly():
    F5 = RingContext(5, 1, 1)
    x_minus_2 = Poly(F5, [-2, 1])  # its reciprocal is x - 3
    with pytest.raises(ValueError, match="char poly invalid"):
        min_poly_joint(2, "sp", 5, x_minus_2 ** 2)


def test_class_datum_refuses_a_reducible_key():
    # (x - 1)^2 is monic of degree 2 but no prime: it would score as one
    F3 = RingContext(3, 1, 1)
    x_minus_1 = Poly(F3, [-1, 1])
    for key in (x_minus_1 ** 2, Poly(F3, [1])):
        with pytest.raises(ValueError, match="keys must be monic irreducibles"):
            ConjClassDatum("gl", F3, {key: Partition((1,))})
