"""Exact linear algebra and random matrix statistics over Galois rings."""

__version__ = "0.1.0"

from . import (  # noqa: F401
    galois_rings,
    polynomials,
    matrix_groups,
    streams,
    char_derivative,
    conjugacy,
    experiments,
    cli,
)
