"""Acceptance suite: one test per criterion, one verdict line each.

Run with `pytest -v` to see the per-criterion pass/fail lines.
"""

import hashlib
import itertools
import random
import time
from fractions import Fraction

from scipy.stats import chisquare

from padicmat.galois_rings import RingContext
from padicmat.polynomials import (
    HayesClassGroup,
    Poly,
    count_small_radical,
    count_with_radical_dividing,
    hayes_characters,
    interval_membership,
    monic_polys,
    monomial,
    palindromic_polys,
    radical,
    root_of_unity_sum_is_zero,
    skew_palindromic_polys,
    traces_to_interval_family,
    x_poly,
)
from padicmat.matrix_groups import (
    GroupSpec,
    Matrix,
    char_poly,
    enumerate_group,
    form_type,
    lie_algebra_basis,
    min_poly_mod_p,
    sample_haar,
)
from padicmat.char_derivative import (
    Block,
    RepresentativeRecipe,
    build_representative,
    closed_form_adjugate,
    closed_form_X,
    generic_adjugate_pm,
    jordan_block,
    verify_image,
)
from padicmat.conjugacy import (
    ConjClassDatum,
    charpoly_prob_gl,
    class_of_matrix_gl,
    enumerate_data,
    fulman_prob_gl,
    fulman_prob_so,
    fulman_prob_sp,
    fulman_prob_u,
    min_poly_joint,
    so_epsilon,
)
from padicmat.experiments import (
    ExperimentConfig,
    run_onestep_check,
    run_single_trace,
    run_trace_congruence,
    run_trace_equidistribution,
    trace_datum_key,
)

F3 = RingContext(3, 1, 1)
F5 = RingContext(5, 1, 1)
F9 = RingContext(3, 2, 1)


def verdict(num, ok, text):
    print("CRITERION %2d: %s - %s" % (num, "PASS" if ok else "FAIL", text))
    assert ok, "criterion %d failed: %s" % (num, text)


def test_criterion_01_trace_congruence():
    start = time.monotonic()
    total_violations = 0
    total_checked = 0
    for family, sign in (("gl", 1), ("sl", 1), ("sp", 1), ("so", 1),
                         ("u", 1)):
        per_family = 0
        for p, k in ((3, 2), (3, 3), (5, 2), (5, 3)):
            m = 2 if family == "u" else 1
            n = {"u": 2, "so": 3, "sl": 3}.get(family, 4)
            cfg = ExperimentConfig(family, n, p, m=m, k=k, sign=sign,
                                   samples=2500, seed=100 + p + k)
            rep = run_trace_congruence(cfg)
            total_violations += rep["violations"]
            total_checked += rep["checked"]
            per_family += 2500
        assert per_family == 10 ** 4
    elapsed = time.monotonic() - start
    verdict(1, total_violations == 0 and elapsed < 120,
            "trace congruence: %d checks, %d violations, %.0fs"
            % (total_checked, total_violations, elapsed))


def test_criterion_02_image_theorems():
    start = time.monotonic()
    bad = 0
    checked = 0
    for M in enumerate_group(GroupSpec("gl", 2, F3)):
        ok, _ = verify_image(M, GroupSpec("gl", 2, F3))
        bad += not ok
        checked += 1
    for M in enumerate_group(GroupSpec("sl", 2, F3)):
        ok, _ = verify_image(M, GroupSpec("sl", 2, F3))
        bad += not ok
        checked += 1
    assert checked == 48 + 24
    rng = random.Random(2024)
    for spec in (GroupSpec("sp", 4, F3), GroupSpec("so", 3, F3, 1),
                 GroupSpec("so", 3, F3, -1), GroupSpec("u", 2, F9),
                 GroupSpec("u", 3, F9)):
        for _ in range(200):
            ok, _ = verify_image(sample_haar(spec, rng), spec)
            bad += not ok
            checked += 1
    elapsed = time.monotonic() - start
    verdict(2, bad == 0 and elapsed < 60,
            "image theorems: %d matrices, %d mismatches, %.0fs"
            % (checked, bad, elapsed))


def test_criterion_03_onestep_lemma():
    rep_gl = run_onestep_check(
        ExperimentConfig("gl", 2, 3, k=2, d2=1, mode="exact"))
    rep_sp = run_onestep_check(
        ExperimentConfig("sp", 2, 3, k=2, d2=1, mode="exact"))
    hyp = [r["hypothesis"] for r in rep_gl["results"]]
    both_branches = 0 < sum(hyp) < len(hyp)
    verdict(3, rep_gl["pass"] and rep_sp["pass"] and both_branches,
            "one-step lemma: GL_2 %d matrices (both branches), Sp_2 %d, "
            "exact counts" % (len(rep_gl["results"]),
                              len(rep_sp["results"])))


def test_criterion_04_fulman_formulas():
    start = time.monotonic()
    ok = True
    for n in (1, 2, 3):
        ok &= sum(fulman_prob_gl(d)
                  for d in enumerate_data("gl", F3, n)) == 1
    for n in (2, 4):
        ok &= sum(fulman_prob_sp(d)
                  for d in enumerate_data("sp", F3, n)) == 1
    for n in (1, 2, 3):
        for sign in (1, -1):
            ok &= sum(fulman_prob_so(d)
                      for d in enumerate_data("so", F3, n)
                      if so_epsilon(d) == sign) == 1
    for n in (1, 2):
        ok &= sum(fulman_prob_u(d)
                  for d in enumerate_data("u", F9, n)) == 1
    # exhaustive class frequencies in GL_2(F_3)
    counts = {}
    reps = {}
    for M in enumerate_group(GroupSpec("gl", 2, F3)):
        key = class_of_matrix_gl(M).canonical()
        counts[key] = counts.get(key, 0) + 1
        reps.setdefault(key, M)
    for key, c in counts.items():
        ok &= fulman_prob_gl(class_of_matrix_gl(reps[key])) == Fraction(c, 48)
    # SL_2(F_3) = Sp_2(F_3): symplectic datum masses match the class sizes
    sl_counts = {}
    for M in enumerate_group(GroupSpec("sl", 2, F3)):
        key = (char_poly(M).coeffs, min_poly_mod_p(M).coeffs)
        sl_counts[key] = sl_counts.get(key, 0) + 1
    sp_masses = {}
    for d in enumerate_data("sp", F3, 2):
        key = (d.char_poly().coeffs, d.min_poly().coeffs)
        sp_masses[key] = sp_masses.get(key, Fraction(0)) + fulman_prob_sp(d)
    ok &= set(sp_masses) == set(sl_counts)
    for key, mass in sp_masses.items():
        ok &= mass * 24 == sl_counts[key]
    elapsed = time.monotonic() - start
    verdict(4, ok and elapsed < 60,
            "Fulman formulas: exact unit masses + exhaustive GL_2/Sp_2 "
            "frequencies, %.0fs" % elapsed)


def test_criterion_05_reiner_law():
    # exhaustive char-poly frequencies in GL_2(F_3)
    freq = {}
    for M in enumerate_group(GroupSpec("gl", 2, F3)):
        key = char_poly(M).coeffs
        freq[key] = freq.get(key, 0) + 1
    ok = len(freq) == 6
    for key, c in freq.items():
        f = Poly(F3, list(key))
        ok &= charpoly_prob_gl(f) == Fraction(c, 48)
    for n in (1, 2, 3):
        total = sum(charpoly_prob_gl(f) for f in monic_polys(F3, n)
                    if not f.coeff(0).is_zero())
        ok &= total == 1
    verdict(5, ok, "Reiner law: 6 quadratics exact, unit mass for n <= 3")


def test_criterion_06_newton_hayes_correspondence():
    start = time.monotonic()
    GR9 = RingContext(3, 1, 2)
    spec = GroupSpec("gl", 2, GR9)
    group = enumerate_group(spec)
    assert len(group) == 3888
    by_datum = {}
    for M in group:
        key = trace_datum_key(M, 0, 2)
        by_datum.setdefault(key, []).append(char_poly(M))
    # regenerate the datum from a member and fetch its interval family;
    # membership must characterize exactly the chars sharing the datum
    from padicmat.experiments import matrix_traces
    from padicmat.polynomials import trace_datum_of
    all_chars = [char_poly(M) for M in group]
    ok = True
    seen_reps = set()
    for M in group[:: max(1, len(group) // 500)] + group[-1:]:
        _, pos = matrix_traces(M, 0, 2)
        datum = trace_datum_of(pos)
        width, reps = traces_to_interval_family(datum, 2)
        in_family = {g.coeffs for g in all_chars
                     if any(interval_membership(g, r, width) or g == r
                            for r in reps)}
        same_datum = {g.coeffs for g in by_datum[datum.key()]}
        ok &= in_family == same_datum
        seen_reps.add(tuple(r.coeffs for r in reps))
    elapsed = time.monotonic() - start
    verdict(6, ok, "Newton/Hayes: datum classes = interval families over "
            "all 3888 members of GL_2(GR(9)), %.0fs" % elapsed)


def test_criterion_07_hayes_machinery():
    start = time.monotonic()
    x = x_poly(F3)
    ok = True
    # unit-group orders q^l phi(H)
    for l, H, expected in ((1, x, 6), (2, x, 18), (1, x * x, 18)):
        ok &= HayesClassGroup(F3, l, H).order == expected
    # both orthogonality relations for (l, H) = (1, x)
    chars = hayes_characters(F3, 1, x)
    grp = chars[0].group
    for f in grp.elements():
        for g in grp.elements():
            exps = [(c.exponent(f) - c.exponent(g)) % c.modulus
                    for c in chars]
            if grp.label(f) == grp.label(g):
                ok &= all(e == 0 for e in exps)
            else:
                ok &= root_of_unity_sum_is_zero(exps, chars[0].modulus)
    for chi in chars:
        exps = [chi.exponent(f) for f in monic_polys(F3, 3)
                if chi.exponent(f) is not None]
        if chi.is_trivial():
            ok &= all(e == 0 for e in exps)
        else:
            ok &= root_of_unity_sum_is_zero(exps, chi.modulus)
    # palindromic character sums, n <= 6, over F_3 and F_9
    for ctx in (F3, F9):
        for n in range(3, 7):
            delta = n // 2
            max_l = delta if ctx is F3 else 1
            for l in range(1, max_l + 1):
                for chi in hayes_characters(ctx, l, Poly(ctx, [1])):
                    exps = [chi.exponent(monomial(ctx, n) + f)
                            for f in palindromic_polys(ctx, n)]
                    if chi.is_trivial():
                        ok &= all(e == 0 for e in exps)
                    else:
                        ok &= root_of_unity_sum_is_zero(exps, chi.modulus)
    # skew-palindromic sums over F_9 (norm-one twist alpha != 1)
    alpha = next(a for a in F9.units()
                 if a * a.tau() == F9.one() and a != F9.one())
    for n in range(3, 7):
        for chi in hayes_characters(F9, 1, Poly(F9, [1])):
            exps = [chi.exponent(monomial(F9, n) + f)
                    for f in skew_palindromic_polys(F9, n, alpha)]
            if chi.is_trivial():
                ok &= all(e == 0 for e in exps)
            else:
                ok &= root_of_unity_sum_is_zero(exps, chi.modulus)
    elapsed = time.monotonic() - start
    verdict(7, ok, "Hayes machinery: orders, orthogonality, palindromic "
            "and skew sums exact, %.0fs" % elapsed)


def test_criterion_08_closed_form_adjugates():
    start = time.monotonic()
    ok = True
    cases = 0
    for ctx in (F3, F5):
        # gl blocks: Adj(x - J_m(alpha)) from the closed triangular form
        for m in (1, 2, 3):
            for a in (1, -1, 2):
                J = jordan_block(ctx, m, ctx.elem(a))
                cf = closed_form_X(ctx, m, ctx.elem(a))
                gen = generic_adjugate_pm(J)
                ok &= cf == gen
                cases += 1
        blocks = []
        for m in (1, 2, 3):
            for a in (1, -1, 2):
                blocks.append(("sp", Block("I", a, m)))
                blocks.append(("so", Block("I", a, m)))
            for a in (1, -1):
                if m % 2 == 1:
                    blocks.append(("sp", Block("II", a, m)))
                else:
                    blocks.append(("so", Block("II", a, m)))
                for sign in (1, -1):
                    blocks.append(("sp", Block("III", a, m, sign)))
                blocks.append(("so", Block("III", a, m, 1)))
        for family, blk in blocks:
            M, _ = build_representative(
                RepresentativeRecipe(family, [blk]), ctx)
            cf = closed_form_adjugate(family, blk, ctx)
            gen = generic_adjugate_pm(M)
            ok &= cf == gen
            cases += 1
    elapsed = time.monotonic() - start
    verdict(8, ok, "closed-form adjugates: %d block cases exact, %.0fs"
            % (cases, elapsed))


def test_criterion_09_radical_counting():
    start = time.monotonic()
    ok = True
    # brute-force census of radicals by degree, n <= 8
    for n in range(1, 9):
        by_raddeg = {}
        rad_by_poly = []
        for f in monic_polys(F3, n):
            r = radical(f)
            by_raddeg[r.degree] = by_raddeg.get(r.degree, 0) + 1
            rad_by_poly.append((f, r))
        for d in range(1, 5):
            brute = sum(c for deg, c in by_raddeg.items() if deg <= d)
            ok &= count_small_radical(F3, n, d) == brute
        # F_g against the same census for a few squarefree g
        xm1 = Poly(F3, [-1, 1])
        xp1 = Poly(F3, [1, 1])
        irr2 = Poly(F3, [1, 0, 1])
        for g in (xm1, xm1 * xp1, irr2, xm1 * irr2):
            brute = sum(1 for f, r in rad_by_poly if g % r == Poly(F3, []))
            ok &= count_with_radical_dividing(g, n) == brute
    elapsed = time.monotonic() - start
    verdict(9, ok, "radical counting: n <= 8, d <= 4 exact vs brute force, "
            "%.0fs" % elapsed)


def test_criterion_10_sampler_exactness():
    start = time.monotonic()
    GR27 = RingContext(3, 1, 3)
    ok = True
    worst_p = 1.0
    N = 48000
    for spec in (GroupSpec("sl", 2, F3), GroupSpec("sp", 2, F3),
                 GroupSpec("so", 2, F3, 1), GroupSpec("so", 2, F3, -1),
                 GroupSpec("u", 1, F9), GroupSpec("gl", 1, GR27)):
        group = enumerate_group(spec)
        index = {M.encode(): i for i, M in enumerate(group)}
        counts = [0] * len(group)
        # a stable digest of the spec, as in experiments._shard_rng: the
        # built-in str hash is salted per process
        rng = random.Random(int(hashlib.sha256(
            repr(spec).encode()).hexdigest(), 16))
        for _ in range(N):
            counts[index[sample_haar(spec, rng).encode()]] += 1
        pval = chisquare(counts).pvalue
        worst_p = min(worst_p, pval)
        ok &= pval > 0.001
    # lifting fibers: members of SL_2(GR(9)) per residue member = q^dim
    GR9 = RingContext(3, 1, 2)
    level2 = enumerate_group(GroupSpec("sl", 2, GR9))
    dim = len(lie_algebra_basis(GroupSpec("sl", 2, F3)))
    fibers = {}
    for M in level2:
        key = M.reduce(1).encode()
        fibers[key] = fibers.get(key, 0) + 1
    ok &= len(fibers) == 24 and all(c == 3 ** dim for c in fibers.values())
    elapsed = time.monotonic() - start
    verdict(10, ok, "sampler exactness: chi-square min p = %.3f over 6 "
            "groups at N = 48000; SL_2 lift fibers = 27, %.0fs"
            % (worst_p, elapsed))


def test_criterion_11a_statistical_equidistribution_gl8():
    start = time.monotonic()
    cfg = ExperimentConfig("gl", 8, 3, k=2, d2=2, samples=10 ** 5, seed=7)
    rep = run_trace_equidistribution(cfg)
    elapsed = time.monotonic() - start
    verdict(11, float(rep.tv) < 0.05 and elapsed < 300,
            "GL_8(GR(9)) length-2 datum: TV = %.4f < 0.05 over %d cells, "
            "%.0fs" % (float(rep.tv), rep.cell_count, elapsed))


def test_criterion_11b_statistical_equidistribution_gl5():
    # The stated threshold assumes tr(M^4) is uniform at n = 5; the exact
    # law (summing the char-poly probabilities over all quintics) has
    # TV = 0.027314 from uniform, carried unchanged to GR(27) by the
    # level recursion, so this criterion cannot be met by any correct
    # sampler. See the decisions ledger for the full analysis.
    start = time.monotonic()
    cfg = ExperimentConfig("gl", 5, 3, k=3, samples=10 ** 5, seed=7)
    rep = run_single_trace(cfg, 4)
    elapsed = time.monotonic() - start
    verdict(11, float(rep.tv) < 0.02 and elapsed < 300,
            "GL_5(GR(27)) trace of M^4: TV = %.4f vs stated bound 0.02 "
            "(exact distribution has TV 0.0273; unattainable), %.0fs"
            % (float(rep.tv), elapsed))
