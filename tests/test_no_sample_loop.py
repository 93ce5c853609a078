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
kernel, with no Poly or GRElem operator.
"""

import ast
import pathlib

import pytest

from padicmat import galois_rings, polynomials
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
