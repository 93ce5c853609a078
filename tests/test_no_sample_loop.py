"""src/padicmat runs no batch-of-one function in a loop.

`sample_haar` is the batch-of-one case of `sample_haar_batch`.  A loop of
`sample_haar` calls inside the package would run the lift phase (Hensel
section, Lie fiber) once per sample instead of once per batch, so the
package defines it and never calls it.  Likewise `adjugate_x_minus` is the
batch-of-one case of `adjugate_batch`, and `dchar_poly` and
`dchar_poly_noncentral` are one-column cases of `dchar_map`, which builds
one adjugate per matrix; and the Berkowitz constant coefficient is the one
determinant, so no Bareiss elimination is defined.  `class_of_matrix_gl`
is the batch-of-one case of `class_census_gl`, whose ranks come from one
`_rank_batch` per block and repeated prime, so conjugacy has no use for
the single-system `_rref`.  The scan uses the standard library's `ast`, as
test_no_asserts.py does.  Polynomials follow the same rule one level
down: `factor` and `radical` run on the int polynomial kernel in
`galois_rings`, never on scalar GRElem arithmetic, and that kernel has no
twin there.  The Hayes class group multiplies its labels on the same
kernel, with no Poly or GRElem operator.  The harness draws on per-shard
numpy streams (`streams.draw_haar_streams`): no Monte-Carlo subcommand
reaches the scalar sampler on `random.Random`, and `sample_haar_batch` is
called only by `sample_haar`.
"""

import ast
import pathlib

import pytest

from padicmat import cli, galois_rings, matrix_groups, polynomials
from padicmat.galois_rings import GRElem, RingContext

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "padicmat"


def _uses(tree, name):
    """Lines that call or import name."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            f = node.func
            if getattr(f, "id", None) == name or getattr(f, "attr", None) == name:
                yield node.lineno
        elif isinstance(node, ast.ImportFrom):
            if any(alias.name == name for alias in node.names):
                yield node.lineno


def test_sample_haar_is_defined_once_and_never_called():
    uses, defs = {}, []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        lines = list(_uses(tree, "sample_haar"))
        if lines:
            uses[path.name] = lines
        defs += [path.name for node in ast.walk(tree)
                 if isinstance(node, ast.FunctionDef)
                 and node.name == "sample_haar"]
    assert uses == {}
    assert defs == ["matrix_groups.py"]


def test_batch_of_one_adjugates_are_never_called():
    uses = {}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        for name in ("adjugate_x_minus", "dchar_poly",
                     "dchar_poly_noncentral"):
            lines = list(_uses(tree, name))
            if lines:
                uses[path.name, name] = lines
    assert uses == {}


def test_no_second_determinant():
    defs = [(path.name, node.name) for path in sorted(SRC.glob("*.py"))
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.FunctionDef) and "bareiss" in node.name]
    assert defs == []


def test_batch_of_one_class_datum_is_never_called():
    uses = {}
    for path in sorted(SRC.glob("*.py")):
        lines = list(_uses(ast.parse(path.read_text()), "class_of_matrix_gl"))
        if lines:
            uses[path.name] = lines
    assert uses == {}


def test_conjugacy_makes_no_single_system_elimination():
    tree = ast.parse((SRC / "conjugacy.py").read_text())
    assert list(_uses(tree, "_rref")) == []


def test_factor_and_radical_make_no_scalar_arithmetic(monkeypatch):
    def refuse(*args):
        raise AssertionError("scalar GRElem arithmetic")

    for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
                 "__rmul__"):
        monkeypatch.setattr(GRElem, name, refuse)
    with pytest.raises(AssertionError):
        RingContext(3, 1, 1).one() * 2
    # the irreducible tables are rebuilt under the patch as well
    polynomials._irreducibles_cached.cache_clear()
    for ctx in (RingContext(3, 1, 1), RingContext(3, 2, 1)):
        for n in range(5):
            for f in polynomials.monic_polys(ctx, n):
                polynomials.factor(f)
                polynomials.radical(f)


def test_hayes_group_makes_no_scalar_or_poly_arithmetic(monkeypatch):
    # the class group multiplies labels on the kernel; a Poly or GRElem
    # operator inside it would bring back a Poly product per group product
    def refuse(*args):
        raise AssertionError("scalar or Poly arithmetic")

    for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
                 "__rmul__"):
        monkeypatch.setattr(GRElem, name, refuse)
    for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
                 "__rmul__", "__mod__", "__divmod__", "__floordiv__",
                 "__pow__", "__neg__"):
        monkeypatch.setattr(polynomials.Poly, name, refuse)
    x = polynomials.x_poly(RingContext(3, 1, 1))
    with pytest.raises(AssertionError):
        x * x
    for ctx, l, h_deg, top in ((RingContext(3, 1, 1), 2, 2, 4),
                               (RingContext(3, 2, 1), 1, 1, 2)):
        H = polynomials.monomial(ctx, h_deg)
        group = polynomials.HayesClassGroup(ctx, l, H)
        assert len(group.elements()) == group.order
        chars = polynomials.hayes_characters(ctx, l, H)
        assert len(chars) == group.order
        for n in range(top + 1):
            for f in polynomials.monic_polys(ctx, n):
                for chi in chars[:5]:
                    chi.exponent(f)


def test_galois_rings_has_no_second_polynomial_kernel():
    for name in ("_fp_polymul", "_fp_polymod", "_fp_poly_gcd",
                 "_fp_modpow_x", "_is_irreducible_fp"):
        assert not hasattr(galois_rings, name)
    # one irreducibility test: every caller goes through Ben-Or's test
    callers = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.FunctionDef) and list(
                    _uses(node, "_pirreducible")):
                callers.add(node.name)
    assert callers == {"default_defining_poly", "__init__", "is_irreducible",
                       "_irreducibles_cached"}


def test_sample_haar_batch_is_called_by_sample_haar_only():
    callers = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef):
                if list(_uses(node, "sample_haar_batch")):
                    callers.append((path.name, node.name))
            elif isinstance(node, ast.ImportFrom) and list(
                    _uses(node, "sample_haar_batch")):
                callers.append((path.name, "import"))
    assert callers == [("matrix_groups.py", "sample_haar")]


# family, --n, --m, --sign: the CLI's Sp_{2n} convention for sp
GUARDED = [("gl", 3, 1, 1), ("sl", 3, 1, 1), ("sp", 2, 1, 1), ("so", 3, 1, 1),
           ("so", 3, 1, -1), ("u", 2, 2, 1)]


@pytest.mark.parametrize("family,n,m,sign", GUARDED,
                         ids=["%s%d%s" % (f, n, "+-"[s < 0] if f == "so"
                                          else "") for f, n, _, s in GUARDED])
def test_monte_carlo_runs_never_reach_the_scalar_sampler(
        monkeypatch, capsys, family, n, m, sign):
    def refuse(*args, **kwargs):
        raise AssertionError("the scalar sampler ran")

    for name in ("draw_haar_batch", "_draw_fq", "_sample_isometry",
                 "_randbelow_bulk", "_randbelow_list"):
        monkeypatch.setattr(matrix_groups, name, refuse)
    flags = ["--family", family, "--n", str(n), "--p", "3", "--m", str(m),
             "--sign", str(sign), "--seed", "11", "--samples", "40"]
    runs = [["tv", "--k", "2", "--d", "1"], ["single-trace", "--k", "2",
                                             "--r", "1"],
            ["congruence", "--k", "2"], ["sample", "--k", "2"],
            ["image-check", "--k", "1", "--samples", "5"]]
    if family in ("gl", "sp"):
        runs.append(["onestep", "--k", "2", "--d", "1", "--samples", "3"])
    for argv in runs:
        # a statistical verdict may go either way at 40 samples (exit 1);
        # a draw from the scalar sampler raises through dispatch
        assert cli.dispatch(argv[:1] + flags + argv[1:]) in (0, 1), argv
    capsys.readouterr()
    spec = matrix_groups.GroupSpec("gl", 2, galois_rings.RingContext(3, 1, 1))
    with pytest.raises(AssertionError):
        matrix_groups.sample_haar_batch(spec, None, 1)
