"""Shared constructions for the test suite, independent of the catalog module."""

from fractions import Fraction as Fr
from math import lcm

import numpy as np

from periform.linalg import PQF, TangentVector, int_matrix
from periform.periodic import generalized_min, gradient_p


def e8_gram() -> PQF:
    """Gram of the even-coordinate-system basis of the E8 root lattice."""
    basis = [
        [2, 0, 0, 0, 0, 0, 0, 0],
        [-1, 1, 0, 0, 0, 0, 0, 0],
        [0, -1, 1, 0, 0, 0, 0, 0],
        [0, 0, -1, 1, 0, 0, 0, 0],
        [0, 0, 0, -1, 1, 0, 0, 0],
        [0, 0, 0, 0, -1, 1, 0, 0],
        [0, 0, 0, 0, 0, -1, 1, 0],
        [Fr(1, 2)] * 8,
    ]
    rows = [
        [sum(basis[i][k] * basis[j][k] for k in range(8)) for j in range(8)]
        for i in range(8)
    ]
    return PQF.from_rows(rows)


def stack(vectors) -> tuple[np.ndarray, int]:
    """(matrix, den): row k of matrix / den is the weighted flattening of
    vectors[k], the way ``voronoi_domain`` holds a cone."""
    coords = [v.flatten(weighted=True) for v in vectors]
    den = lcm(*(c.denominator for row in coords for c in row))
    return int_matrix([[c.numerator * (den // c.denominator) for c in row] for row in coords]), den


def det_target(x) -> TangentVector:
    """The determinant gradient (Q^{-1}, 0) that eutaxy places in the domain."""
    return TangentVector.make(x.q.inverse(), [[0] * x.d for _ in range(x.m - 1)])


def constraint_value(x, triple) -> Fr:
    """p_{i,j,v}(X) = Q[w] for w = t_i - t_j - v, as ``x.q.value(rep.w)``
    reads it at a representation, for any triple (i, j, v)."""
    i, j, v = triple
    if len(v) != x.d:
        raise IndexError("integer vector length mismatch")
    return x.q.value([a - b - c for a, b, c in zip(x.translate(i), x.translate(j), v)])


def gradients(x) -> list:
    """The Voronoi domain generators as tangent vectors: gradient_p at each rep."""
    return [gradient_p(x, rep) for rep in generalized_min(x).reps]


def sized_document(d: int, m: int) -> dict:
    """A PFORM document: identity Q of dimension d with m translates."""
    q = [[str(int(i == j)) for j in range(d)] for i in range(d)]
    t = [[f"{k}/{m}"] + ["0"] * (d - 1) for k in range(1, m)]
    return {"format": "pform/1", "d": d, "m": m, "Q": q, "t": t}
