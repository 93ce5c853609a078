"""The batched draw on per-shard numpy streams (`streams.draw_haar_streams`).

Exactness: 48 000 draws of each small group, spread over 16 shard streams
and lifted as the harness lifts them, must pass a chi-square test against
the uniform law on the enumerated group (p > 0.001).  SO_2 and SO_3 of both
types go through the reflection that maps det -1 draws onto SO; GL_1(GR(27))
goes through the lift.  Membership: every sample of every `haar_forms`
benchmark config is a member.  Independence: a shard's samples are the
same alone, in its run's group of whole shards, and in any other group.
"""

import numpy as np
import pytest
from scipy.stats import chisquare

from padicmat.experiments import (
    ExperimentConfig,
    _group_samples,
    _shard_groups,
    _shard_rng,
    _shard_samples,
)
from padicmat.galois_rings import RingContext
from padicmat.matrix_groups import GroupSpec, enumerate_group, lift_haar_batch
from padicmat.streams import _draw_below, _ShardValues, draw_haar_streams

F3 = RingContext(3, 1, 1)
F9 = RingContext(3, 2, 1)
GR27 = RingContext(3, 1, 3)

EXACT = [
    ("sl", 2, F3, None), ("sp", 2, F3, None), ("gl", 2, F3, None),
    ("so", 2, F3, 1), ("so", 2, F3, -1), ("so", 3, F3, 1), ("so", 3, F3, -1),
    ("u", 1, F9, None), ("gl", 1, GR27, None),
]
SIGNS = {1: "+", -1: "-", None: ""}


@pytest.mark.parametrize(
    "family,n,ctx,sign", EXACT,
    ids=["%s%d%s-%d^%d" % (f, n, SIGNS[s], c.q, c.k) for f, n, c, s in EXACT])
def test_stream_draws_are_uniform_on_the_group(family, n, ctx, sign):
    spec = GroupSpec(family, n, ctx, sign)
    group = enumerate_group(spec)
    index = {M.a.tobytes(): i for i, M in enumerate(group)}
    seed = 1000 + EXACT.index((family, n, ctx, sign))
    a = _shard_samples(spec, seed, [(shard, 3000) for shard in range(16)])
    counts = np.bincount([index[M.tobytes()] for M in a],
                         minlength=len(group))
    assert counts.sum() == 48000
    assert chisquare(counts).pvalue > 0.001


def _haar_forms_configs():
    """The group of every haar_forms benchmark job: the congruence sweep,
    the image checks, the GL_4(GR(9,2)) tv and the three sample jobs."""
    out = []
    for family in ("gl", "sl", "sp", "so", "u"):
        for p, k in ((3, 2), (3, 3), (5, 2), (5, 3)):
            size = {"u": 2, "so": 3, "sl": 3}.get(family, 4)
            out.append((family, size, (p, 2 if family == "u" else 1, k)))
    out += [("sp", 2, (3, 1, 1)), ("so", 3, (3, 1, 1)), ("u", 2, (3, 2, 1)),
            ("gl", 4, (3, 2, 2)), ("sp", 4, (3, 1, 3)), ("so", 3, (3, 1, 3)),
            ("u", 2, (3, 2, 2))]
    return out


@pytest.mark.parametrize("family,size,pmk", _haar_forms_configs(),
                         ids=lambda v: str(v))
def test_every_haar_forms_sample_is_a_member(family, size, pmk):
    spec = GroupSpec(family, size, RingContext(*pmk),
                     1 if family == "so" else None)
    a = _shard_samples(spec, 5, [(shard, 13) for shard in range(16)])
    assert a.shape == (208, size, size, pmk[1]) and a.dtype == np.int64
    assert spec.member_mask(a).all()


# family, n, (p, m, k), sign, samples: each splits into two or more groups
GROUPED = [
    ("gl", 3, (3, 1, 2), None, 1900), ("sl", 3, (3, 1, 3), None, 1900),
    ("gl", 2, (3, 2, 2), None, 2100), ("sp", 4, (3, 1, 2), None, 1100),
    ("so", 3, (5, 1, 2), -1, 1900), ("so", 4, (3, 1, 1), 1, 1100),
    ("u", 2, (3, 2, 2), None, 2100),
]


@pytest.mark.parametrize("family,n,pmk,sign,samples", GROUPED,
                         ids=["%s%d%s-%d^%d,%d" % (f, n, SIGNS[s], p, k, m)
                              for f, n, (p, m, k), s, _ in GROUPED])
def test_a_shard_draws_the_same_in_any_group(family, n, pmk, sign, samples):
    p, m, k = pmk
    cfg = ExperimentConfig(family, n, p, m=m, k=k, sign=sign,
                           samples=samples, seed=-3)
    spec = cfg.group_spec()
    groups = _shard_groups(cfg)
    assert len(groups) > 1
    alone = {shard: _shard_samples(spec, cfg.seed, [(shard, count)])
             for group in groups for shard, count in group}
    for group in groups:
        got = np.split(_group_samples(cfg, group),
                       np.cumsum([count for _, count in group])[:-1])
        for (shard, _), a in zip(group, got):
            assert np.array_equal(a, alone[shard])
    # the odd shards together, in a group the run never forms
    odd = [(shard, count) for group in groups for shard, count in group
           if shard % 2]
    got = np.split(_shard_samples(spec, cfg.seed, odd),
                   np.cumsum([count for _, count in odd])[:-1])
    for (shard, _), a in zip(odd, got):
        assert np.array_equal(a, alone[shard])


def test_a_stream_of_no_samples_draws_nothing():
    spec = GroupSpec("so", 3, RingContext(3, 1, 2), 1)
    gens = [np.random.default_rng(s) for s in range(3)]
    a, idx = draw_haar_streams(spec, [(gens[0], 0), (gens[1], 4),
                                      (gens[2], 0)])
    assert a.shape == (4, 3, 3, 1) and idx.shape == (4, 1, 3)
    assert gens[0].bit_generator.state == \
        np.random.default_rng(0).bit_generator.state
    assert spec.member_mask(lift_haar_batch(spec, a, idx)).all()


@pytest.mark.parametrize("bound", [2, 3, 5, 9, 25, 243, 2 ** 20 + 1])
def test_draw_below_is_top_bit_rejection_on_raw_words(bound):
    # each value is the top bits of one raw word, redrawn while too large;
    # the values of successive calls are those of one call
    gen, ref = np.random.default_rng(bound), np.random.default_rng(bound)
    got = np.concatenate([_draw_below(gen, bound, c) for c in (0, 1, 7, 300)])
    bits = (bound - 1).bit_length()
    want = []
    while len(want) < 308:
        word = int(ref.bit_generator.random_raw())
        if word >> (64 - bits) < bound:
            want.append(word >> (64 - bits))
    assert got.tolist() == want
    assert gen.bit_generator.state == ref.bit_generator.state


def test_shard_values_read_each_stream_in_order():
    # rows of one generator take its next values in order, whatever the
    # rounds, and a buffer that runs short grows from its own stream only
    values = _ShardValues([np.random.default_rng(s) for s in range(3)], 5,
                          [4, 0, 2])
    got = {0: [], 1: [], 2: []}
    for owner, width in (([0, 0, 2], 3), ([1, 2, 2, 2], 2), ([0], 5)):
        rows = values.take(np.array(owner), width)
        for shard, row in zip(owner, rows.tolist()):
            got[shard] += row
    for shard in range(3):
        want = _draw_below(np.random.default_rng(shard), 5, len(got[shard]))
        assert got[shard] == want.tolist()


def test_shard_rng_takes_every_int_seed():
    # the sha256 of "seed:shard" seeds PCG64, so negative seeds work and
    # each (seed, shard) pair has its own stream
    words = {(seed, shard): int(_shard_rng(seed, shard).bit_generator
                                .random_raw())
             for seed in (-7, 0, 7) for shard in (0, 1)}
    assert len(set(words.values())) == 6
    assert words[7, 1] == int(_shard_rng(7, 1).bit_generator.random_raw())
