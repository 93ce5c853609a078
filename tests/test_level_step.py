"""One level step for every lift by a Lie fiber.

The sampler's lift, gl's block sampler, the exact enumeration above the
residue level and the one-step fiber each multiply a section by
I + p^{j-1} A1 through `matrix_groups._lift_level`; a counting wrapper
records the level of every call.
"""

import collections
import random

import numpy as np
import pytest

from padicmat import experiments, matrix_groups
from padicmat.experiments import enumerate_lie_fq, onestep_fiber
from padicmat.galois_rings import RingContext
from padicmat.matrix_groups import (
    GroupSpec,
    Matrix,
    draw_haar_batch,
    enumerate_blocks,
    enumerate_group,
    lift_haar_batch,
)

Z9 = RingContext(3, 1, 2)
Z27 = RingContext(3, 1, 3)


@pytest.fixture
def steps(monkeypatch):
    """The levels of the _lift_level calls, in order."""
    calls = []
    real = matrix_groups._lift_level

    def counting(spec, ctx, a, fiber):
        calls.append(ctx.k)
        return real(spec, ctx, a, fiber)

    monkeypatch.setattr(matrix_groups, "_lift_level", counting)
    monkeypatch.setattr(experiments, "_lift_level", counting)
    return calls


def test_lift_haar_batch_steps_once_per_level(steps):
    spec = GroupSpec("sp", 2, Z27)
    a, idx = draw_haar_batch(spec, random.Random(1), 5)
    lift_haar_batch(spec, a, idx)
    assert steps == [2, 3]


def test_gl_blocks_step_once_per_level_and_block(steps):
    # gl over m = 1 lifts each block of drawn chunks as it is drawn, and
    # the drawn chunk is the fiber
    a, _ = draw_haar_batch(GroupSpec("gl", 3, Z27), random.Random(2), 5)
    assert len(a) == 5
    assert steps and steps == [2, 3] * (len(steps) // 2)


def test_enumeration_steps_above_the_residue_level_only(steps):
    list(enumerate_blocks(GroupSpec("sl", 2, RingContext(3, 1, 1))))
    assert steps == []
    list(enumerate_blocks(GroupSpec("sl", 2, Z9)))
    assert steps == [2]


def test_onestep_fiber_is_one_step(steps):
    F3 = Z9.reduced_context(1)
    lie = enumerate_lie_fq(GroupSpec("gl", 2, F3))
    onestep_fiber(Matrix.identity(F3, 2), GroupSpec("gl", 2, Z9), lie)
    assert steps == [2]
    with pytest.raises(ValueError):  # a residue matrix is not at level 2
        onestep_fiber(Matrix.identity(F3, 2), GroupSpec("gl", 2, Z27), lie)


def test_experiments_no_longer_imports_the_checked_section():
    assert not hasattr(experiments, "hensel_lift_section")


@pytest.mark.parametrize("sign", [1, -1])
def test_so3_over_z9_members_are_distinct_and_members(sign):
    spec = GroupSpec("so", 3, Z9, sign)
    a = np.stack([M.a for M in enumerate_group(spec)])
    assert len(a) == len(np.unique(a.reshape(len(a), -1), axis=0)) == 648
    assert spec.member_mask(a).all()


@pytest.mark.parametrize("family,ctx", [("sl", Z27), ("sp", Z27),
                                        ("gl", Z9)])
def test_enumeration_sections_each_residue_once(monkeypatch, family, ctx):
    # the residues broadcast against the fiber table: sl's residue-level
    # scaling and the level-2 section run once per residue, and only the
    # levels above see every member
    sections = collections.Counter()
    real = matrix_groups._section_batch

    def counting(spec, ctx, a):
        sections[ctx.k] += int(np.prod(np.shape(a)[:-3]))
        return real(spec, ctx, a)

    spec = GroupSpec(family, 2, ctx)
    residues = sum(len(b) for b in enumerate_blocks(spec.reduced(1)))
    monkeypatch.setattr(matrix_groups, "_section_batch", counting)
    members = sum(len(b) for b in enumerate_blocks(spec))
    assert members == residues * 3 ** ((ctx.k - 1) * (4 if family == "gl"
                                                      else 3))
    expect = {2: residues, 3: members} if ctx.k == 3 else {2: residues}
    if family == "sl":
        expect[1] = residues
    assert dict(sections) == expect
