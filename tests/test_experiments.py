import json
from fractions import Fraction

import numpy as np
import pytest

from padicmat.galois_rings import RingContext
from padicmat.matrix_groups import (
    GroupSpec,
    Matrix,
    enumerate_group,
    hensel_lift_section,
    lie_algebra_basis,
    _field_index,
)
from padicmat.experiments import (
    ExperimentConfig,
    TVReport,
    enumerate_lie_fq,
    expected_tv_noise,
    group_order_at_level,
    matrix_traces,
    onestep_fiber,
    run_fulman_consistency,
    run_onestep_check,
    run_single_trace,
    run_trace_congruence,
    run_trace_equidistribution,
    tv_to_uniform,
    _gl_trace_law,
    _histogram,
    _law_tvs,
    _trace_cells,
)
from padicmat.polynomials import Poly, hayes_label, x_poly
from padicmat import cli

F3 = RingContext(3, 1, 1)
GR9 = RingContext(3, 1, 2)


class TestTVDistance:
    def test_uniform(self):
        assert tv_to_uniform({0: 1, 1: 1}, 4) == Fraction(1, 2)


class TestCongruence:
    def test_unipotent_power_oracle(self):
        # tr(M^3) = sigma(tr(M)) mod 3 for the standard unipotent over GR(9)
        M = Matrix.from_rows(GR9, [[1, 1], [0, 1]])
        P = M * M * M
        assert (P.trace() - M.trace().sigma()).valuation() >= 1

    def test_diagonal_reduces_to_frobenius(self):
        for a in (1, 2, 4, 5, 7, 8):
            M = Matrix.diag(GR9, [GR9.elem(a), GR9.elem(1)])
            P = M * M * M
            assert (P.trace() - M.trace().sigma()).valuation() >= 1

    def test_all_families_no_violations(self):
        for family, n, sign in (("gl", 2, 1), ("sl", 2, 1), ("sp", 2, 1),
                                ("so", 3, 1), ("u", 2, 1)):
            m = 2 if family == "u" else 1
            cfg = ExperimentConfig(family, n, 3, m=m, k=2, sign=sign,
                                   samples=40, seed=3)
            rep = run_trace_congruence(cfg)
            assert rep["pass"] and rep["violations"] == 0


class TestOneStep:
    def test_gl2_exhaustive(self):
        cfg = ExperimentConfig("gl", 2, 3, k=2, d2=1, mode="exact")
        rep = run_onestep_check(cfg)
        assert rep["pass"]
        assert rep["fiber_size"] == 81
        hyp = [r["hypothesis"] for r in rep["results"]]
        # both branches occur: +-identity fall below the degree threshold
        assert sum(hyp) == 46 and len(hyp) - sum(hyp) == 2

    def test_gl_identity_concentration(self):
        cfg = ExperimentConfig("gl", 2, 3, k=2, d2=1, mode="exact")
        I = Matrix.identity(F3, 2)
        rep = run_onestep_check(cfg, matrices=[I])
        r = rep["results"][0]
        assert not r["hypothesis"]
        assert r["distinct"] == 3  # q^{(k-1) deg min} with deg min = 1
        assert rep["pass"]

    def test_gl_regular_counts(self):
        cfg = ExperimentConfig("gl", 2, 3, k=2, d2=1, mode="exact")
        M = Matrix.from_rows(F3, [[0, 1], [1, 1]])
        rep = run_onestep_check(cfg, matrices=[M])
        r = rep["results"][0]
        assert r["hypothesis"] and r["pass"]
        assert r["buckets"] * 9 == 81  # q^{dim - d - 1} = 9 per class

    @pytest.mark.parametrize("d", [1, 2])
    def test_gl_buckets_are_hayes_classes(self, d):
        # the buckets are read off the coefficient arrays; hayes_label with
        # H = x is the reference: same partition of every fiber, same counts
        spec1 = GroupSpec("gl", 2, F3)
        spec2 = GroupSpec("gl", 2, GR9)
        lie = enumerate_lie_fq(spec1)
        cfg = ExperimentConfig("gl", 2, 3, k=2, d2=d, mode="exact")
        results = run_onestep_check(cfg)["results"]
        for A0, r in zip(enumerate_group(spec1), results):
            chars = onestep_fiber(A0, spec2, lie)
            by_label, by_key = {}, {}
            for t, f in enumerate(chars):
                g = Poly(GR9, [GR9.elem(list(c)) for c in f])
                by_label.setdefault(hayes_label(g, d, x_poly(GR9)), set()).add(t)
                key = (f[2 - d:2].tobytes(), f[0].tobytes())
                by_key.setdefault(key, set()).add(t)
            assert sorted(map(sorted, by_label.values())) \
                == sorted(map(sorted, by_key.values()))
            assert r["buckets"] == len(by_label)
            if r["hypothesis"]:
                assert r["pass"] == all(len(c) == 3 ** (3 - d)
                                        for c in by_label.values())

    def test_sp2_exhaustive(self):
        cfg = ExperimentConfig("sp", 2, 3, k=2, d2=1, mode="exact")
        rep = run_onestep_check(cfg)
        assert rep["pass"]
        assert rep["fiber_size"] == 27

    def test_lie_fiber_matches_lift_count(self):
        # members of SL_2(GR(9)) above a fixed residue member = q^{dim}
        spec1 = GroupSpec("sl", 2, F3)
        spec2 = GroupSpec("sl", 2, GR9)
        lie = enumerate_lie_fq(spec1)
        assert len(lie) == 3 ** len(lie_algebra_basis(spec1))
        level2 = enumerate_group(spec2)
        base = enumerate_group(spec1)
        assert len(level2) == len(base) * len(lie)


class TestEquidistribution:
    def test_exact_counts_sum_to_group_order(self):
        cfg = ExperimentConfig("gl", 1, 3, k=2, d2=1, mode="exact")
        rep = run_trace_equidistribution(cfg)
        assert rep.n_samples == 6  # units of GR(9)
        assert rep.cell_count == 9
        # n = 1 sits below every theorem's range; value reported only
        assert 0 <= float(rep.tv) <= 1

    def test_montecarlo_small(self):
        cfg = ExperimentConfig("gl", 3, 3, d2=1, samples=3000, seed=7)
        rep = run_trace_equidistribution(cfg)
        assert rep.cell_count == 3
        assert float(rep.tv) < 2.5 * expected_tv_noise(3, 3000)

    def test_deterministic_across_runs(self):
        def run():
            cfg = ExperimentConfig("sl", 2, 3, d2=1, samples=400, seed=11)
            return run_trace_equidistribution(cfg)
        a, b = run(), run()
        assert a.tv == b.tv and a.min_count == b.min_count

    def test_exact_mode_reports_no_verdict(self, capsys):
        # the exact TV of (tr M) on GL_2(GR(9)) is 1/24: a law, not a sample,
        # so no Monte-Carlo pass/fail is attached, and the CLI exits 0
        cfg = ExperimentConfig("gl", 2, 3, k=2, d2=1, mode="exact")
        rep = run_trace_equidistribution(cfg)
        assert rep.tv == Fraction(1, 24)
        assert rep.passed is None and "pass" not in rep.to_dict()
        assert cli.dispatch(["tv", "--family", "gl", "--n", "2", "--p", "3",
                             "--k", "2", "--d", "1", "--mode", "exact"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["tv"] == float(Fraction(1, 24)) and "pass" not in out
        assert "pass" not in run_single_trace(cfg, 1).to_dict()

    def test_group_order_level_formula(self):
        spec = GroupSpec("sl", 2, GR9)
        assert group_order_at_level(spec) == len(enumerate_group(spec))

    @pytest.mark.parametrize("family,size,m,sign,order", [
        ("gl", 2, 1, None, 3888), ("sl", 2, 1, None, 648),
        ("sp", 2, 1, None, 648), ("so", 3, 1, 1, 648), ("so", 3, 1, -1, 648),
        ("u", 1, 2, None, 12), ("u", 2, 2, None, 7776)])
    def test_group_order_counts_the_pool_at_level_2(self, family, size, m,
                                                    sign, order):
        # u's fiber coefficients lie in the tau-fixed subfield: |U_1(GR(9,
        # 2))| = 4 * 3 and |U_2(GR(9, 2))| = 96 * 3^4, not q^dim per residue
        spec = GroupSpec(family, size, RingContext(3, m, 2), sign)
        assert group_order_at_level(spec) == len(enumerate_group(spec)) \
            == order


class TestSingleTrace:
    def test_rejects_p_divisible_power(self):
        cfg = ExperimentConfig("gl", 2, 3, samples=10, seed=1)
        with pytest.raises(ValueError):
            run_single_trace(cfg, 3)

    def test_exact_gl1(self):
        cfg = ExperimentConfig("gl", 1, 3, k=2, mode="exact")
        rep = run_single_trace(cfg, 1)
        assert rep.n_samples == 6 and rep.cell_count == 9

    def test_montecarlo(self):
        # r = 4 < n = 6 is inside the single-trace theorem's range, and at
        # n = 6 the exact trace-4 law is within noise of uniform
        cfg = ExperimentConfig("gl", 6, 3, samples=4000, seed=5)
        rep = run_single_trace(cfg, 4)
        assert float(rep.tv) < 2.5 * rep.noise

    @pytest.mark.parametrize("n,p,m,r", [
        (1, 3, 1, 1), (2, 3, 1, 1), (3, 3, 1, 2), (3, 3, 1, -1),
        (2, 5, 1, -2), (2, 3, 2, 2), (1, 3, 2, -1),
    ])
    def test_gl_trace_law_is_the_enumerated_law(self, n, p, m, r):
        cfg = ExperimentConfig("gl", n, p, m=m, k=1, mode="exact")
        hist = _histogram(cfg, 1, _trace_cells, r)
        total = sum(hist.values())
        want = {int(_field_index(cfg.context(), np.frombuffer(
            key, dtype=np.int64))): Fraction(count, total)
            for key, count in hist.items()}
        # M -> M^-1 keeps Haar measure: tr(M^-r) has the law of tr(M^r)
        assert _gl_trace_law(p, m, n, abs(r)) == want

    def test_gl_is_judged_against_its_exact_law(self):
        # tr(M^2) on GL_3 is 19/312 = 0.061 from uniform, while 2.5 noise
        # at 20 000 samples is 0.021: against uniform every seed fails
        cfg = ExperimentConfig("gl", 3, 3, k=2, samples=20000, seed=1)
        rep = run_single_trace(cfg, 2).to_dict()
        assert rep["exact_tv"] == float(Fraction(19, 312))
        assert rep["tv"] > 2.5 * rep["noise"] > rep["law_tv"]
        assert rep["pass"]

    def test_counts_off_the_exact_law_fail(self):
        # uniform counts are exact_tv from the law, above 2.5 noise
        cfg = ExperimentConfig("gl", 3, 3, k=2, samples=18000, seed=1)
        ctx = cfg.context()
        hist = {np.array([t]).tobytes(): 2000 for t in range(9)}
        exact_tv, law_tv = _law_tvs(ctx, hist, _gl_trace_law(3, 1, 3, 2))
        assert exact_tv == law_tv == Fraction(19, 312)
        rep = TVReport(cfg, 9, 18000, 0, expected_tv_noise(9, 18000), 2000,
                       2000, 0, law_tv=law_tv)
        assert rep.passed is False

    def test_gl_above_the_law_cap_is_judged_against_uniform(self):
        cfg = ExperimentConfig("gl", 7, 3, samples=200, seed=2)
        rep = run_single_trace(cfg, 1).to_dict()
        assert "law_tv" not in rep and "exact_tv" not in rep
        assert rep["pass"] == (rep["tv"] < 2.5 * rep["noise"])

    def test_trace_p_minus_frobenius_multiple_of_p(self):
        # tr(M^p) - sigma(tr(M)) is always divisible by p
        import random
        spec = GroupSpec("gl", 3, GR9)
        rng = random.Random(4)
        from padicmat.matrix_groups import sample_haar
        for _ in range(60):
            M = sample_haar(spec, rng)
            neg, pos = matrix_traces(M, 0, 3)
            assert (pos[2] - pos[0].sigma()).valuation() >= 1


class TestFulmanConsistency:
    def test_gl2(self):
        rep = run_fulman_consistency(ExperimentConfig("gl", 2, 3,
                                                      mode="exact"))
        assert rep["pass"] and rep["order"] == 48 and rep["classes"] == 8

    def test_sl2(self):
        rep = run_fulman_consistency(ExperimentConfig("sl", 2, 3,
                                                      mode="exact"))
        assert rep["pass"] and rep["order"] == 24


class TestReports:
    def test_json_schema(self):
        cfg = ExperimentConfig("gl", 2, 3, d2=1, samples=100, seed=2)
        rep = run_trace_equidistribution(cfg)
        d = json.loads(rep.to_json())
        assert d["schema_version"] == 2
        assert d["config"]["family"] == "gl"
        assert set(d) >= {"cell_count", "N", "tv", "noise", "pass",
                          "runtime_ms"}

    def test_config_roundtrip_reruns_identically(self):
        cfg = ExperimentConfig("gl", 2, 3, d2=1, samples=300, seed=13)
        rep = run_trace_equidistribution(cfg)
        cfg2 = ExperimentConfig.from_dict(json.loads(rep.to_json())["config"])
        rep2 = run_trace_equidistribution(cfg2)
        assert rep2.tv == rep.tv


class TestCli:
    def test_tv(self, capsys):
        code = cli.dispatch(["tv", "--family", "gl", "--n", "2", "--p", "3",
                             "--d", "1", "--samples", "500", "--seed", "7"])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["pass"]

    @pytest.mark.parametrize("flags", [
        ["--family", "u", "--n", "3", "--m", "2", "--k", "2", "--d", "2"],
        ["--family", "so", "--n", "3", "--k", "2", "--d", "1"]])
    def test_tv_on_u_and_so_gives_no_verdict_on_gl_cells(self, capsys, flags):
        # the cells are GL's datum values, which u and so do not fill
        code = cli.dispatch(["tv", "--p", "3", "--samples", "400",
                             "--seed", "3"] + flags)
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert "pass" not in out and out["noise"] > 0
        assert out["value_space"].startswith("GL's")

    @pytest.mark.parametrize("flags", [
        ["--family", "u", "--n", "2", "--m", "2", "--samples", "2000"],
        ["--family", "so", "--n", "3", "--samples", "500"]])
    def test_single_trace_on_u_and_so_gives_no_verdict_on_gl_cells(
            self, capsys, flags):
        code = cli.dispatch(["single-trace", "--p", "3", "--k", "2",
                             "--r", "2", "--seed", "1"] + flags)
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert "pass" not in out and out["noise"] > 0
        assert out["value_space"].startswith("GL's")

    @pytest.mark.parametrize("flags", [
        ["--family", "so", "--n", "3", "--p", "3"],
        ["--family", "u", "--n", "2", "--p", "3", "--m", "2"]])
    def test_fulman_refuses_families_without_a_census(self, capsys, flags):
        assert cli.dispatch(["fulman"] + flags) == 2
        out, err = capsys.readouterr()
        assert out == "" and "class census" in err

    @pytest.mark.parametrize("flags", [
        ["--n", "1", "--d", "2", "--mode", "exact"],
        ["--n", "2", "--d", "3", "--samples", "2", "--seed", "1"]])
    def test_onestep_sp_refuses_d_above_half_the_size(self, capsys, flags):
        # Sp's char poly is palindromic: only size/2 top coefficients are free
        assert cli.dispatch(["onestep", "--family", "sp", "--p", "3",
                             "--k", "2"] + flags) == 2
        out, err = capsys.readouterr()
        assert out == "" and "palindromic" in err
        assert cli.dispatch(["onestep", "--family", "sp", "--n", "1",
                             "--p", "3", "--k", "2", "--d", "1",
                             "--mode", "exact"]) == 0

    def test_congruence_sp(self, capsys):
        code = cli.dispatch(["congruence", "--family", "sp", "--n", "1",
                             "--p", "3", "--k", "2", "--samples", "30",
                             "--seed", "1"])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["violations"] == 0

    def test_image_check_u(self, capsys):
        code = cli.dispatch(["image-check", "--family", "u", "--n", "2",
                             "--p", "3", "--m", "2", "--samples", "20",
                             "--seed", "5"])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["pass"]

    @pytest.mark.parametrize("sign", ["1", "-1"])
    def test_so3_over_z9_is_exact_through_the_lift(self, capsys, sign):
        # 9^9 candidates, 648 members: the residue-level members times the
        # Lie fiber; the exact TV is ROADMAP item 1's 11/36 on 7 of 9 cells
        flags = ["--family", "so", "--n", "3", "--p", "3", "--k", "2",
                 "--sign", sign]
        assert cli.dispatch(["enumerate"] + flags) == 0
        assert json.loads(capsys.readouterr().out)["order"] == 648
        assert cli.dispatch(["tv"] + flags + ["--d", "1",
                                              "--mode", "exact"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["tv"] == float(Fraction(11, 36))
        assert (out["N"], out["occupied_cells"]) == (648, 7)

    def test_enumerate_gl3_over_z9_still_refuses(self, capsys):
        # 11232 * 3^9 members, above the 10^6 bound
        assert cli.dispatch(["enumerate", "--family", "gl", "--n", "3",
                             "--p", "3", "--k", "2"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "too large" in err

    def test_fulman_and_enumerate(self, capsys):
        assert cli.dispatch(["fulman", "--family", "sl", "--n", "2",
                             "--p", "3"]) == 0
        assert cli.dispatch(["enumerate", "--family", "so", "--n", "2",
                             "--p", "3", "--sign", "-1"]) == 0
        outs = capsys.readouterr().out.strip().split("\n")
        assert json.loads(outs[0])["order"] == 24
        assert json.loads(outs[1])["order"] == 4

    def test_hayes(self, capsys):
        assert cli.dispatch(["hayes", "--p", "3", "--l", "1",
                             "--h-deg", "1"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["order"] == 6 and out["characters"] == 6

    def test_usage_error(self, capsys):
        assert cli.dispatch(["tv", "--family", "gl"]) == 2
        assert cli.dispatch(["nope"]) == 2

    def test_missing_seed_is_usage_error(self, capsys):
        assert cli.dispatch(["tv", "--family", "gl", "--n", "2",
                             "--p", "3", "--d", "1"]) == 2

    def test_mode_only_where_read(self, capsys):
        # congruence is Monte-Carlo only: --mode exact with no seed must not
        # run from an unseeded stream
        assert cli.dispatch(["congruence", "--family", "sp", "--n", "1",
                             "--p", "3", "--k", "2", "--samples", "5",
                             "--mode", "exact"]) == 2
        assert cli.dispatch(["image-check", "--family", "gl", "--n", "2",
                             "--p", "3", "--samples", "1", "--seed", "1",
                             "--mode", "montecarlo"]) == 2
        assert cli.dispatch(["tv", "--family", "gl", "--n", "2", "--p", "3",
                             "--d", "1", "--samples", "5", "--seed", "1",
                             "--format", "csv"]) == 2
        assert capsys.readouterr().out == ""

    def test_config_file_with_flag_override(self, tmp_path, capsys):
        p = tmp_path / "cfg.txt"
        p.write_text("family: gl\nn: 2\np: 3\nd: 1\nsamples: 200\nseed: 9\n")
        code = cli.dispatch(["tv", "--config", str(p), "--seed", "11"])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["N"] == 200

    def test_output_file(self, tmp_path, capsys):
        out = tmp_path / "rep.json"
        code = cli.dispatch(["single-trace", "--family", "gl", "--n", "2",
                             "--p", "3", "--r", "2", "--samples", "200",
                             "--seed", "3", "--out", str(out)])
        # n = 2, r = 2 is outside the theorem's range; either verdict is a
        # valid run, only usage errors would exit 2
        assert code in (0, 1)
        data = json.loads(out.read_text())
        assert data["config"]["seed"] == 3
        capsys.readouterr()

    def test_onestep(self, capsys):
        code = cli.dispatch(["onestep", "--family", "gl", "--n", "2",
                             "--p", "3", "--k", "2", "--d", "1",
                             "--mode", "exact"])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["pass"]

    def test_sample(self, capsys):
        code = cli.dispatch(["sample", "--family", "gl", "--n", "2",
                             "--p", "3", "--samples", "3", "--seed", "1"])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["pass"] and len(out["samples"]) == 3

    def test_sample_out_keeps_matrices_off_stdout(self, tmp_path, capsys):
        path = tmp_path / "samples.json"
        code = cli.dispatch(["sample", "--family", "gl", "--n", "2",
                             "--p", "3", "--samples", "3", "--seed", "1",
                             "--out", str(path)])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["pass"] and "samples" not in out
        assert len(json.loads(path.read_text())["samples"]) == 3
