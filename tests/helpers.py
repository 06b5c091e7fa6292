"""Shared constructions for the test suite, independent of the catalog module."""

import os
import subprocess
import sys
from fractions import Fraction as Fr
from math import lcm
from pathlib import Path

import numpy as np

import periform
from periform.certify import _classify
from periform.linalg import PQF, TangentVector, int_matrix, integer_row
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


def goal_row(target: TangentVector) -> tuple[list[int], int]:
    """(goal, gden): the weighted flattening of ``target`` as goal / gden in
    integers, the way ``voronoi_domain`` holds the target."""
    gden, goal = integer_row(target.flatten(weighted=True))
    return goal, gden


def classify_rows(matrix, den, target: TangentVector):
    """``_classify`` of ``target`` against the cone of matrix / den."""
    return _classify(matrix, den, *goal_row(target), target.d, target.m)


def run_python(code, *, optimize=False, stdin=None, extra_path=(), args=(), timeout=120):
    """Run ``code`` (source text, or the path of a script) in a fresh
    interpreter that imports periform from the tree these tests import it
    from, plus ``extra_path``; ``args`` follow the code on the command line.
    Output comes back as text."""
    src = Path(periform.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(map(str, [src, *extra_path])))
    target = ["-c", code] if isinstance(code, str) else [str(code)]
    return subprocess.run(
        [sys.executable, *(["-O"] if optimize else []), *target, *args],
        input=stdin, env=env, capture_output=True, text=True, timeout=timeout,
    )


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
