"""Golden streams: sample_haar at fixed seeds returns fixed matrices.

sample_haar_batch gives the same matrices on the same stream, in one batch
or in uneven batches.

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

from padicmat.galois_rings import RingContext
from padicmat.matrix_groups import (
    GroupSpec,
    Matrix,
    sample_haar,
    sample_haar_batch,
)

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
