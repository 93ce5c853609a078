"""Golden streams: sample_haar at fixed seeds returns fixed matrices.

sample_haar_batch gives the same matrices on the same stream, in one batch
or in uneven batches.  The batched draw on numpy streams
(streams.draw_haar_streams) has goldens of its own: the first eight
samples of shard 0 of each seed (experiments._shard_rng), lifted.

Each digest is the SHA-256 prefix of the `encode()` lines of eight
consecutive samples drawn from one `random.Random(seed)`.  A change to the
sampler, the isometry column completion, the Hensel section, the Lie fiber
or the determinant used by the GL/SL rejection shows up here as a new
stream.  U_2(F_121) has a residue field above 81 elements; GL_4(GR(9,2))
decides unit determinants over F_9 through the characteristic polynomial.
SL_3(Z/27) and GL_3(Z/9) walk the Lie fiber over F_3, where the
coefficient pool is F_p in order; SL_2(GR(25,2)) walks it over F_25 and
scales row 0 by the inverse determinant.
"""

import hashlib
import random

import pytest

from padicmat.experiments import _shard_rng
from padicmat.galois_rings import RingContext
from padicmat.matrix_groups import (
    GroupSpec,
    Matrix,
    encode_batch,
    lift_haar_batch,
    sample_haar,
    sample_haar_batch,
)
from padicmat.streams import draw_haar_streams

STREAMS = [
    # family, size, (p, m, k), sign, seed, digest
    ("sp", 4, (3, 1, 3), None, 2024, "a71ef2bfd9a72b25e8dcfbce6d6dce5e"),
    ("so", 3, (3, 1, 2), 1, 2025, "139d2051cdb1afd1863d21495bca0bd3"),
    ("so", 3, (3, 1, 2), -1, 2026, "d1fb810395f61245884fd6605dffc951"),
    ("u", 2, (3, 2, 2), None, 2027, "2b494a4bdba2b582367b9e4a3d9e4446"),
    ("u", 2, (11, 2, 1), None, 2028, "63142400546a999597b7eedd7dbecfce"),
    ("gl", 4, (3, 2, 2), None, 2029, "3a19d15601864e8708f6338ad621f0ba"),
    ("sl", 3, (3, 1, 3), None, 2030, "6da5978ee36277058c480575db6bed4d"),
    ("gl", 3, (3, 1, 2), None, 2031, "67584e5a1b4fb27d6b0e6d9dcb4e9c57"),
    ("sl", 2, (5, 2, 2), None, 2032, "9c4eff757345c4f8c85207b63a9c2103"),
]


IDS = ["sp4-GR27", "so3+-GR9", "so3--GR9", "u2-GR9_2", "u2-F121",
       "gl4-GR9_2", "sl3-GR27", "gl3-Z9", "sl2-GR25_2"]


@pytest.mark.parametrize("family,size,pmk,sign,seed,digest", STREAMS, ids=IDS)
def test_sample_haar_golden_stream(family, size, pmk, sign, seed, digest):
    spec = GroupSpec(family, size, RingContext(*pmk), sign)
    rng = random.Random(seed)
    h = hashlib.sha256()
    for _ in range(8):
        h.update(sample_haar(spec, rng).encode().encode() + b"\n")
    assert h.hexdigest()[:32] == digest


@pytest.mark.parametrize("batches", [(8,), (3, 5)], ids=["8", "3+5"])
@pytest.mark.parametrize("family,size,pmk,sign,seed,digest", STREAMS, ids=IDS)
def test_sample_haar_batch_golden_stream(family, size, pmk, sign, seed,
                                         digest, batches):
    spec = GroupSpec(family, size, RingContext(*pmk), sign)
    rng = random.Random(seed)
    h = hashlib.sha256()
    for count in batches:
        for a in sample_haar_batch(spec, rng, count):
            h.update(Matrix(spec.ctx, a).encode().encode() + b"\n")
    assert h.hexdigest()[:32] == digest


# the digests of draw_haar_streams on _shard_rng(seed, 0), in STREAMS order
SHARD_DIGESTS = [
    "ef8e98434ec2b9e68dab1c3bb27c3aea", "e5e9635ea506c0439ee05bd9be63d360",
    "b57ce5b4b227fb451bbeacfd598d618b", "cf293a5ffd6f8f4806c6817028b4ba8f",
    "ea470fd5c5f0e0fd5f995e36d14f8f2d", "33a040b2495f1680f71d1010bfe251c6",
    "2270ec4b876142eeeeff6aee7fa9a4da", "325fb48cff1b5016136eee9598a3c8c8",
    "afc3316ee6a286df9bd53798c292f70f",
]


@pytest.mark.parametrize("family,size,pmk,sign,seed,digest",
                         [row[:5] + (d,)
                          for row, d in zip(STREAMS, SHARD_DIGESTS)], ids=IDS)
def test_shard_stream_golden(family, size, pmk, sign, seed, digest):
    spec = GroupSpec(family, size, RingContext(*pmk), sign)
    a = lift_haar_batch(spec, *draw_haar_streams(
        spec, [(_shard_rng(seed, 0), 8)]))
    h = hashlib.sha256()
    for line in encode_batch(a):
        h.update(line.encode() + b"\n")
    assert h.hexdigest()[:32] == digest
