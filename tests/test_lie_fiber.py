"""The Lie fiber as one array, against the Matrix-sum loop it replaced.

`enumerate_lie_fq` builds every combination of the Lie-algebra basis with
one ring product of the coefficient rows and the basis array.  The
reference below sums `Matrix.scale` terms over `itertools.product` of the
coefficient pool, read off `ctx.elements()` (the tau-fixed ones for u).
"""

import itertools
import random

import numpy as np
import pytest

from padicmat.experiments import enumerate_lie_fq
from padicmat.galois_rings import RingContext
from padicmat.matrix_groups import (
    GroupSpec,
    Matrix,
    lie_algebra_basis,
    lie_combinations,
)

F3 = RingContext(3, 1, 1)
F9 = RingContext(3, 2, 1)


def _reference_pool(spec):
    ctx1 = spec.ctx.reduced_context(1)
    if spec.family == "u":
        return [a for a in ctx1.elements() if a.tau() == a]
    return list(ctx1.elements())


def _reference_fiber(spec):
    ctx1 = spec.ctx.reduced_context(1)
    basis = lie_algebra_basis(spec)
    out = []
    for coeffs in itertools.product(_reference_pool(spec), repeat=len(basis)):
        A = Matrix.zero(ctx1, spec.size)
        for c, B in zip(coeffs, basis):
            A = A + B.scale(c)
        out.append(A.a)
    return np.stack(out)


SPECS = [
    ("gl", 2, F3, None),
    ("sl", 2, F3, None),
    ("sp", 2, F3, None),
    ("so", 3, F3, 1),
    ("so", 3, F3, -1),
    ("u", 2, F9, None),
]
IDS = ["gl2-F3", "sl2-F3", "sp2-F3", "so3+-F3", "so3--F3", "u2-F9"]


@pytest.mark.parametrize("family,size,ctx,sign", SPECS, ids=IDS)
def test_enumerate_lie_fq_matches_matrix_sums(family, size, ctx, sign):
    spec = GroupSpec(family, size, ctx, sign)
    got = enumerate_lie_fq(spec)
    want = _reference_fiber(spec)
    assert got.shape == want.shape
    assert got.dtype == np.int64
    assert np.array_equal(got, want)


@pytest.mark.parametrize("family,size,ctx,sign", SPECS, ids=IDS)
def test_lie_combinations_members_of_the_algebra(family, size, ctx, sign):
    # a random combination at a higher level: I + p A1 is a member at k = 2
    spec = GroupSpec(family, size, RingContext(ctx.p, ctx.m, 2), sign)
    pool = _reference_pool(spec)
    dim = len(lie_algebra_basis(spec))
    rng = random.Random(7)
    idx = np.array([[rng.randrange(len(pool)) for _ in range(dim)]
                    for _ in range(5)])
    A1 = lie_combinations(spec, idx)
    eye = Matrix.identity(spec.ctx, size).a
    assert spec.member_mask(eye + A1 * ctx.p).all()
