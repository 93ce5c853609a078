import itertools
from fractions import Fraction

import pytest

from padicmat.galois_rings import RingContext
from padicmat.polynomials import Poly, factor
from padicmat.matrix_groups import (
    GroupSpec,
    Matrix,
    char_poly,
    enumerate_group,
    min_poly_mod_p,
)
from padicmat.char_derivative import Block, RepresentativeRecipe, build_representative
from padicmat.conjugacy import (
    ConjClassDatum,
    Partition,
    charpoly_prob_gl,
    class_of_matrix_gl,
    enumerate_data,
    family_prob,
    fulman_prob_gl,
    fulman_prob_so,
    fulman_prob_sp,
    fulman_prob_u,
    min_poly_joint,
    order_gl,
    order_o,
    order_sp,
    order_u,
    partitions_of,
    prime_enum,
    so_epsilon,
)

F3 = RingContext(3, 1, 1)
F9 = RingContext(3, 2, 1)


def P3(coeffs):
    return Poly(F3, coeffs)


class TestPartition:
    def test_basics(self):
        lam = Partition([1, 3, 2, 3])
        assert lam.parts == (3, 3, 2, 1)
        assert lam.size == 9
        assert lam.m(3) == 2 and lam.m(1) == 1 and lam.m(4) == 0

    def test_dual_involution(self):
        for lam in partitions_of(7):
            assert lam.dual().dual() == lam

    def test_dual_example(self):
        assert Partition([3, 1]).dual() == Partition([2, 1, 1])

    def test_count(self):
        # p(n) for n = 0..8
        counts = [sum(1 for _ in partitions_of(n)) for n in range(9)]
        assert counts == [1, 1, 2, 3, 5, 7, 11, 15, 22]


class TestOrders:
    def test_gl(self):
        assert order_gl(2, 3) == 48
        assert order_gl(3, 2) == 168

    def test_sp(self):
        assert order_sp(2, 3) == 24  # Sp_2 = SL_2
        assert order_sp(4, 3) == 51840

    def test_o(self):
        assert order_o(1, 1, 3) == 2 and order_o(1, -1, 3) == 2
        assert order_o(2, 1, 3) == 4   # dihedral on a hyperbolic plane
        assert order_o(2, -1, 3) == 8
        assert order_o(3, 1, 3) == 48

    def test_u(self):
        assert order_u(1, 3) == 4
        assert order_u(2, 3) == 96


class TestDatumValidation:
    def test_rejects_x(self):
        with pytest.raises(ValueError):
            ConjClassDatum("gl", F3, {P3([0, 1]): Partition([1])})

    def test_rejects_signs_on_gl(self):
        with pytest.raises(ValueError):
            ConjClassDatum("gl", F3, {P3([-1, 1]): (Partition([2]), {2: 1})})

    def test_sp_parity(self):
        # odd part sizes need even multiplicity for x -+ 1
        with pytest.raises(ValueError):
            ConjClassDatum("sp", F3, {P3([-1, 1]): Partition([1])})
        ConjClassDatum("sp", F3, {P3([-1, 1]): Partition([1, 1])})

    def test_sp_sign_slots(self):
        # even sizes must carry a sign, odd sizes must not
        with pytest.raises(ValueError):
            ConjClassDatum("sp", F3, {P3([-1, 1]): Partition([2])})
        with pytest.raises(ValueError):
            ConjClassDatum(
                "sp", F3, {P3([-1, 1]): (Partition([1, 1]), {1: 1})})

    def test_so_parity(self):
        with pytest.raises(ValueError):
            ConjClassDatum("so", F3, {P3([-1, 1]): (Partition([2]), {})})
        ConjClassDatum("so", F3, {P3([-1, 1]): (Partition([2, 2]), {})})

    def test_reciprocal_pairing(self):
        # x - 2 has reciprocal x - 2^{-1} = x - 2 over F_3? 2^{-1} = 2, so
        # x + 1 is self-reciprocal-paired with itself only via x -+ 1 rules;
        # use a genuine pair over F_5 instead
        F5 = RingContext(5, 1, 1)
        phi = Poly(F5, [-2, 1])          # root 2
        rphi = Poly(F5, [-3, 1])         # root 1/2 = 3
        with pytest.raises(ValueError):
            ConjClassDatum("sp", F5, {phi: Partition([1]),
                                      rphi: Partition([1, 1])})
        d = ConjClassDatum("sp", F5, {phi: Partition([1]),
                                      rphi: Partition([1])})
        assert d.size == 2

    def test_char_and_min(self):
        d = ConjClassDatum("gl", F3, {P3([-1, 1]): Partition([2, 1]),
                                      P3([1, 1]): Partition([1])})
        assert d.char_poly() == P3([-1, 1]) ** 3 * P3([1, 1])
        assert d.min_poly() == P3([-1, 1]) ** 2 * P3([1, 1])


class TestClassOfMatrix:
    def test_identity(self):
        d = class_of_matrix_gl(Matrix.identity(F3, 3))
        assert d.entries[P3([-1, 1])][0] == Partition([1, 1, 1])

    def test_jordan(self):
        M = Matrix.from_rows(F3, [[1, 1, 0], [0, 1, 0], [0, 0, 1]])
        d = class_of_matrix_gl(M)
        assert d.entries[P3([-1, 1])][0] == Partition([2, 1])

    def test_exhaustive_gl2_consistency(self):
        spec = GroupSpec("gl", 2, F3)
        for M in enumerate_group(spec):
            d = class_of_matrix_gl(M)
            assert d.char_poly() == char_poly(M)
            assert d.min_poly() == min_poly_mod_p(M)


class TestFulmanGL:
    def test_identity_gl2(self):
        d = ConjClassDatum("gl", F3, {P3([-1, 1]): Partition([1, 1])})
        assert fulman_prob_gl(d) == Fraction(1, 48)

    def test_sums_to_one(self):
        for n in (1, 2, 3):
            total = sum(fulman_prob_gl(d)
                        for d in enumerate_data("gl", F3, n))
            assert total == 1

    def test_class_sizes_exhaustive_gl2(self):
        # probability times |GL_2(F_3)| is the integer class size, and the
        # sizes agree with brute-force conjugation orbits
        spec = GroupSpec("gl", 2, F3)
        group = list(enumerate_group(spec))
        counts = {}
        for M in group:
            counts.setdefault(class_of_matrix_gl(M).canonical(), []).append(M)
        assert sum(len(v) for v in counts.values()) == 48
        for key, members in counts.items():
            d = class_of_matrix_gl(members[0])
            size = fulman_prob_gl(d) * 48
            assert size.denominator == 1
            assert int(size) == len(members)
            # orbit check: conjugates of the first member fill the class
            M = members[0]
            orbit = set()
            for g in group:
                orbit.add((g * M * g.inverse()).encode())
            assert len(orbit) == len(members)

    def test_jordan_block_class_size(self):
        d = ConjClassDatum("gl", F3, {P3([-1, 1]): Partition([2])})
        size = fulman_prob_gl(d) * order_gl(2, 3)
        assert size == 8  # centralizer of J_2(1) has order 6


class TestFulmanSp:
    def test_minus_identity(self):
        d = ConjClassDatum("sp", F3, {P3([1, 1]): Partition([1, 1])})
        assert fulman_prob_sp(d) == Fraction(1, 24)

    def test_unipotent_sp2(self):
        for s in (1, -1):
            d = ConjClassDatum("sp", F3, {P3([-1, 1]): (Partition([2]),
                                                        {2: s})})
            assert fulman_prob_sp(d) == Fraction(1, 6)

    def test_sums_to_one(self):
        for n in (2, 4):
            total = sum(fulman_prob_sp(d)
                        for d in enumerate_data("sp", F3, n))
            assert total == 1

    def test_class_sizes_sp2_exhaustive(self):
        # Sp_2 = SL_2; group data at size 2 must reproduce the SL_2(F_3)
        # class sizes, after merging data that fuse in SL_2.
        spec = GroupSpec("sl", 2, F3)
        group = list(enumerate_group(spec))
        assert len(group) == 24
        by_char_min = {}
        for M in group:
            key = (char_poly(M).coeffs, min_poly_mod_p(M).coeffs)
            by_char_min[key] = by_char_min.get(key, 0) + 1
        for d in enumerate_data("sp", F3, 2):
            key = (d.char_poly().coeffs, d.min_poly().coeffs)
            assert key in by_char_min
            size = fulman_prob_sp(d) * 24
            assert size.denominator == 1
            assert int(size) <= by_char_min[key]


class TestFulmanSO:
    def test_identity_classes(self):
        dP = ConjClassDatum("so", F3, {P3([-1, 1]): (Partition([1, 1]),
                                                     {1: 1})})
        assert so_epsilon(dP) == 1
        assert fulman_prob_so(dP) == Fraction(1, 4)
        dM = ConjClassDatum("so", F3, {P3([-1, 1]): (Partition([1, 1]),
                                                     {1: -1})})
        assert so_epsilon(dM) == -1
        assert fulman_prob_so(dM) == Fraction(1, 8)

    def test_rotation_in_minus_form(self):
        d = ConjClassDatum("so", F3, {P3([1, 0, 1]): Partition([1])})
        assert so_epsilon(d) == -1
        assert fulman_prob_so(d) == Fraction(1, 4)

    def test_regular_unipotent_o3(self):
        d = ConjClassDatum("so", F3, {P3([-1, 1]): (Partition([3]), {3: 1})})
        assert fulman_prob_so(d) == Fraction(1, 6)
        assert fulman_prob_so(d) * order_o(3, so_epsilon(d), 3) == 8

    def test_sums_to_one_both_types(self):
        for n in (1, 2, 3):
            for sign in (1, -1):
                total = sum(fulman_prob_so(d)
                            for d in enumerate_data("so", F3, n)
                            if so_epsilon(d) == sign)
                assert total == 1

    @pytest.mark.parametrize("q,n", [(3, 4), (3, 5), (3, 6), (5, 4)])
    def test_unit_mass_and_integer_class_sizes(self, q, n):
        # a self-reciprocal prime of any degree puts one anisotropic plane
        # per odd i m(i) into the Witt class; at n = 4 over F_3 the quartic
        # classes of x^4+x^3+x^2+x+1 sit in O_4^-
        ctx = RingContext(q, 1, 1)
        mass = {1: Fraction(0), -1: Fraction(0)}
        for d in enumerate_data("so", ctx, n):
            sign = so_epsilon(d)
            pr = fulman_prob_so(d)
            mass[sign] += pr
            assert (pr * order_o(n, sign, q)).denominator == 1, d
        assert mass == {1: 1, -1: 1}


class TestFulmanU:
    def test_u1_classes(self):
        data = list(enumerate_data("u", F9, 1))
        assert len(data) == 4
        assert all(fulman_prob_u(d) == Fraction(1, 4) for d in data)

    def test_sums_to_one(self):
        for n in (1, 2):
            total = sum(fulman_prob_u(d) for d in enumerate_data("u", F9, n))
            assert total == 1


class TestRepresentativeRoundTrip:
    def test_gl_recipe_matches_datum(self):
        recipe = RepresentativeRecipe("gl", [
            Block("I", 1, 2), Block("I", 2, 1)])
        M, _ = build_representative(recipe, F3)
        d = class_of_matrix_gl(M)
        assert d.char_poly() == char_poly(M)
        assert d.min_poly() == min_poly_mod_p(M)
        assert d.entries[P3([-1, 1])][0] == Partition([2])
        assert d.entries[P3([-2, 1])][0] == Partition([1])

    def test_sp_recipe_char_min(self):
        recipe = RepresentativeRecipe("sp", [Block("III", 1, 1, sign=1)])
        M, _ = build_representative(recipe, F3)
        d = class_of_matrix_gl(M)
        assert d.char_poly() == char_poly(M)
        assert d.min_poly() == min_poly_mod_p(M)


class TestCharpolyProb:
    def test_irreducible_quadratic(self):
        assert charpoly_prob_gl(P3([1, 0, 1])) == Fraction(1, 8)

    def test_square_of_linear(self):
        assert charpoly_prob_gl(P3([-1, 1]) ** 2) == Fraction(3, 16)

    def test_sums_to_one_deg2(self):
        total = Fraction(0)
        for a in range(3):
            for b in range(1, 3):
                total += charpoly_prob_gl(P3([b, a, 1]))
        assert total == 1

    def test_marginal_of_fulman(self):
        # summing class probabilities with fixed char poly recovers the
        # characteristic-polynomial law
        by_char = {}
        for d in enumerate_data("gl", F3, 2):
            key = d.char_poly().coeffs
            by_char[key] = by_char.get(key, Fraction(0)) + fulman_prob_gl(d)
        for a in range(3):
            for b in range(1, 3):
                f = P3([b, a, 1])
                assert by_char[f.coeffs] == charpoly_prob_gl(f)


class TestMinPolyJoint:
    def test_square_of_linear(self):
        h = P3([-1, 1]) ** 2
        mj = min_poly_joint(2, "gl", 3, h)
        assert mj[1] == Fraction(1, 48)
        assert mj[2] == Fraction(1, 6)
        assert sum(mj.values()) == charpoly_prob_gl(h)

    def test_irreducible_char(self):
        h = P3([1, 0, 1])
        mj = min_poly_joint(2, "gl", 3, h)
        assert set(mj) == {2}
        assert mj[2] == charpoly_prob_gl(h)

    def test_min_equals_char_dominates_gl6(self, capsys):
        # qualitative check: for GL_6(F_3) with a squarefree irreducible
        # char poly the min poly equals it with probability 1, and for
        # (x - 1)^6 most of the mass sits at full degree
        h = P3([-1, 1]) ** 6
        mj = min_poly_joint(6, "gl", 3, h)
        total = sum(mj.values())
        print("GL_6 (x-1)^6: P(deg min = 6 | char)",
              float(mj[6] / total))
        assert mj[6] / total > Fraction(1, 2)


class TestEnumeration:
    def test_prime_counts(self):
        # number of monic irreducibles of degree d over F_q is
        # (1/d) sum_{e | d} mu(e) q^{d/e}
        pe = prime_enum(3, 4)
        by_deg = {}
        for p in pe:
            by_deg[p.degree] = by_deg.get(p.degree, 0) + 1
        assert by_deg == {1: 3, 2: 3, 3: 8, 4: 18}

    def test_prime_order(self):
        pe = prime_enum(3, 1)
        ints = [[int(v) for c in p.coeffs for v in c.coeffs] for p in pe]
        assert ints == [[0, 1], [1, 1], [2, 1]]

    def test_enumeration_counts_vs_exhaustive(self):
        # number of GL_2(F_3) class data equals the number of conjugacy
        # classes found by exhaustive conjugation
        spec = GroupSpec("gl", 2, F3)
        keys = {class_of_matrix_gl(M).canonical()
                for M in enumerate_group(spec)}
        assert len(list(enumerate_data("gl", F3, 2))) == len(keys)


class TestCSV:
    def test_table(self):
        data = list(enumerate_data("gl", F3, 1))
        assert len(data) == 2
        assert sum(family_prob(d) for d in data) == 1

    def test_family_prob_dispatch(self):
        d = ConjClassDatum("sp", F3, {P3([1, 1]): Partition([1, 1])})
        assert family_prob(d) == fulman_prob_sp(d)
