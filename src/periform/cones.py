"""Cones spanned by integer rows, exactly: nearest points and minimal faces.

A cone is given by the rows of an integer matrix over one common denominator
``den`` (of any type ``linalg.int_type`` names), and a target, the goal, by
one integer row over its own denominator ``gden``.  Products of two entries
may pass int64, so every exact sum of products is taken in Python ints.

``project_to_cone`` is a Lawson-Hanson style nonnegative least squares
active-set iteration in exact rationals, warm-started from the positive
columns of a float nnls (``FloatImage.support``).  It answers every cone
question there is: its residual decides membership and is the separator of
a target outside, and ``minimal_face`` runs it on a few related targets to
find the minimal face that holds a member, with strictly positive weights
when that face is the whole cone.  Floats only steer: every number returned
is exact, and the caller verifies whatever it certifies, so the float
solver, ``nnls``, only has to be fast on the small, equilibrated problems
``FloatImage`` builds.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from operator import mul
from typing import Sequence

import numpy as np

from .linalg import int_matrix, integer_row, log2_magnitude, solve_exact

__all__ = ["ConeProjection", "project_to_cone", "minimal_face", "FloatImage"]

_SUPPORT_WEIGHT = 1e-12  # float nnls weights above this make the warm start
_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class ConeProjection:
    """sum_k coeffs[k] * row k / den is the cone point nearest to the goal, and
    ``residual`` / ``scale`` that point minus the goal, in integers
    (``scale`` > 0), in the goal's coordinates.
    """

    coeffs: tuple[Fraction, ...]
    residual: tuple[int, ...]
    scale: int


def _dot(a: Sequence[int], b: Sequence[int]) -> int:
    return sum(map(mul, a, b))


def _primitive(rows: list[list[int]]) -> tuple[list[int], list[list[int]]]:
    """(g, p): p[k] = rows[k] / g[k], the primitive integer vector on the ray
    of each nonzero row (g[k] = 1 for a zero row)."""
    gcds = [gcd(*row) or 1 for row in rows]
    return gcds, [[v // g for v in row] for row, g in zip(rows, gcds)]


_NO_SHIFT = -(1 << 62)  # the magnitude of 0 in FloatImage: below every other


def _scaled_float(n: int, d: int, k: int) -> float:
    """float(n / d * 2^k), correctly rounded, with no out-of-range float on the way."""
    return (n << k) / d if k >= 0 else n / (d << -k)


def project_to_cone(
    matrix: np.ndarray,
    den: int,
    goal: Sequence[int],
    gden: int,
    metric: Sequence[int],
    warm: Sequence[int] = (),
) -> ConeProjection:
    """Exact nearest point to goal / gden in the cone of the rows of matrix / den.

    Distances are in the inner product sum_i metric_i a_i b_i / 2 (see
    ``linalg.metric_weights``).  ``warm`` guesses the active set.  The result
    satisfies, verified exactly before returning: <row, residual> >= 0 for
    every row and <point, residual> = 0.

    Each row enters as the primitive integer vector r_k = row_k / g_k on its
    ray, which moves neither the point nor the residual.  The normal
    equations on an active set read sum_j beta_j <r_i, r_j> = <r_i, goal> in
    the doubled metric, for beta_k = coeffs_k g_k gden / den.
    """
    gcds, rows = _primitive(matrix.tolist())
    n = len(rows)
    if not n:
        raise ValueError("cone needs at least one generator")
    wrows = [[w * v for w, v in zip(metric, row)] for row in rows]
    rhs = [_dot(wr, goal) for wr in wrows]

    def solve_active(active: list[int]) -> list[Fraction]:
        """Normal equations on the active set; always consistent for a Gram system."""
        if not active:
            return []
        gram = [[_dot(wrows[i], rows[j]) for j in active] for i in active]
        sol = solve_exact(gram, [rhs[i] for i in active])
        if sol is None:  # cannot happen: Gram normal equations are consistent
            raise RuntimeError("inconsistent normal equations in cone projection")
        return list(sol)

    def combine(beta: dict[int, Fraction]) -> tuple[int, list[int]]:
        """(s, p): p = s * sum_k beta_k row_k in integers."""
        s, ints = integer_row(list(beta.values()))
        p = [0] * len(goal)
        for k, c in zip(beta, ints):
            p = [a + c * v for a, v in zip(p, rows[k])]
        return s, p

    alpha: dict[int, Fraction] = {}
    if warm:
        warm = sorted(warm)
        sol = solve_active(warm)
        if all(c >= 0 for c in sol):
            alpha = {i: c for i, c in zip(warm, sol) if c > 0}

    def inner_restore(passive: list[int], alpha: dict[int, Fraction]):
        # Re-solve on the passive set until all coefficients are nonnegative;
        # each theta-step removes at least one index, so this terminates.
        while passive:
            beta = solve_active(passive)
            if all(c >= 0 for c in beta):
                return {i: c for i, c in zip(passive, beta) if c > 0}
            theta = None
            for i, c in zip(passive, beta):
                if c < 0:
                    ai = alpha.get(i, Fraction(0))
                    t = ai / (ai - c)
                    if theta is None or t < theta:
                        theta = t
            new_alpha = {}
            for i, c in zip(passive, beta):
                ai = alpha.get(i, Fraction(0))
                val = ai + theta * (c - ai)
                if val > 0:
                    new_alpha[i] = val
            alpha = new_alpha
            passive = sorted(alpha)
        return {}

    last_state = None
    for _ in range(200 + 20 * n):
        active = sorted(alpha)
        # s * <r_i, b - point> in integers, over the rows off the active set.
        s, p = combine(alpha)
        worst = None
        worst_val = 0
        for i in range(n):
            if i in alpha:
                continue
            w = s * rhs[i] - _dot(wrows[i], p)
            if w > worst_val:
                worst_val = w
                worst = i
        if worst is None:
            break
        state = (tuple(active), worst)
        if state == last_state:
            raise RuntimeError("cone projection stalled on a degenerate set")
        last_state = state
        alpha = inner_restore(sorted(set(active) | {worst}), alpha)
    else:
        raise RuntimeError("cone projection failed to converge")

    # point = p / (s gden) and residual = point - goal / gden, exactly.
    s, p = combine(alpha)
    res = [a - s * v for a, v in zip(p, goal)]
    if any(_dot(wr, res) < 0 for wr in wrows):
        raise RuntimeError("cone projection residual is negative on a generator")
    if _dot([w * v for w, v in zip(metric, p)], res) != 0:
        raise RuntimeError("cone projection residual is not orthogonal to the point")
    factor = Fraction(den, gden)
    return ConeProjection(
        tuple(factor / g * alpha.get(i, 0) for i, g in enumerate(gcds)), tuple(res), s * gden
    )


def minimal_face(
    matrix: np.ndarray, den: int, goal: Sequence[int], gden: int, coeffs: Sequence[Fraction]
) -> tuple[tuple[int, ...], tuple[Fraction, ...] | None]:
    """(F, alpha): the rows that carry weight in some nonnegative combination
    equal to goal / gden, and, when F is every row, weights alpha > 0 with
    sum_k alpha_k row_k / den = goal / gden (None otherwise).

    ``coeffs`` >= 0 reproduce the goal: they are the coefficients of a
    ``project_to_cone`` of the goal with zero residual.  Face descent runs on
    C' = cone(rows, -goal), each ray scaled to the primitive integer vector
    r_k on it, so that r_n is on -goal.  For T = every row, project
    -sum_{k in T} r_k onto C'.  A nonzero residual y has <y, r> >= 0 on every
    ray, hence <y, goal> = 0 and y vanishes on F; and <y, y> = sum_{k in T}
    <y, r_k>, so y is positive on some r_k of T, which are off F and leave T.
    A zero residual reads -sum_T r_k = sum_k c_k r_k + mu r_n: for mu > 0,
    (1 + c_k) / mu weighs r_k in a combination equal to -r_n, and for mu = 0
    adding 1 + c to ``coeffs`` keeps the goal; either way T = F, after at most
    1 + |off F| projections, each warm-started by a float nnls of its own.

    Neither F nor the weights depend on the inner product or on a scaling of
    the coordinates: the projections take the plain dot product, after each
    coordinate is scaled by a power of two up to the bit length of the
    largest, so a form rescaled by a power of two gives the same problem.
    """
    n, dim = matrix.shape
    rays = matrix.tolist() + [[-v for v in goal]]
    bits = [max(abs(ray[i]) for ray in rays).bit_length() for i in range(dim)]
    shifts = [max(bits) - e for e in bits]
    gcds, prim = _primitive([[v << k for v, k in zip(ray, shifts)] for ray in rays])
    cone, metric = int_matrix(prim), (1,) * dim
    image = FloatImage(cone, 1)
    face = list(range(n))
    while True:
        target = [-sum(prim[k][i] for k in face) for i in range(dim)]
        proj = project_to_cone(cone, 1, target, 1, metric, image.support(target, 1))
        y = proj.residual
        if not any(y):
            break
        off = {k for k in face if _dot(y, prim[k]) > 0}
        if not off:  # cannot happen: <y, y> > 0 is a sum over T
            raise RuntimeError("face descent dropped no generator")
        face = [k for k in face if k not in off]
    if len(face) < n:
        return tuple(face), None
    c, mu = proj.coeffs[:n], proj.coeffs[n]
    # Weight w on r_k is weight w den / gcds[k] on row k / den, and -r_n is
    # (goal / gden) gden / gcds[n] in the scaled coordinates.
    base, f = ((0,) * n, Fraction(gcds[n], gden) / mu) if mu else (coeffs, 1)
    return tuple(face), tuple(a + (1 + ck) * f * den / g for a, ck, g in zip(base, c, gcds))


def nnls(a: np.ndarray, b: np.ndarray) -> np.ndarray | None:
    """x >= 0 minimising |a x - b|, or None at the iteration limit, 3n for n
    columns.

    The active-set method of Lawson and Hanson (*Solving Least Squares
    Problems*, SIAM 1995, ch. 23) on the normal equations, as in Bro and De
    Jong (*J. Chemometrics* 11, 1997).  An outer step moves the column of
    largest gradient w = a^t (b - a x) into the passive set P, unless its
    Schur complement on P is within rounding of 0 (the column lies in the
    span of P); inner steps walk back from the solution on P to the first
    weight that reaches 0 and drop it.  As in Lawson and Hanson, each column
    moved in and each walk back counts one iteration.
    """
    n = a.shape[1]
    ata, atb = a.T @ a, a.T @ b
    tol = 10 * max(a.shape) * _EPS
    x, p, w = np.zeros(n), [], atb.copy()  # p: the passive columns, in entry order
    iterations = 0
    while True:
        while True:
            t = int(w.argmax())
            if w[t] <= tol:
                return x
            if not p:  # the first column needs no solve
                y, schur = 0.0, ata[t, t]
                break
            # Block elimination: the solution on p + [t] from the one on p.
            g = ata[p, t]
            y = np.linalg.solve(ata[p][:, p], g)
            schur = ata[t, t] - g @ y
            if schur > tol * ata[t, t]:
                break
            w[t] = 0
        p.append(t)
        z = x[p]
        z[-1] = w[t] / schur
        z[:-1] -= z[-1] * y
        while True:
            iterations += 1
            if iterations == 3 * n:
                return None
            if (z > 0).all():
                break
            xp, neg = x[p], np.flatnonzero(z <= 0)
            steps = xp[neg] / (xp[neg] - z[neg])
            k = steps.argmin()
            xp += steps[k] * (z - xp)
            xp[neg[k]] = 0
            x[p] = np.maximum(xp, 0)
            p = [j for j, v in zip(p, xp.tolist()) if v > 0]
            z = np.linalg.solve(ata[p][:, p], atb[p])
        x[p] = z
        w = atb - ata @ x
        w[p] = 0


class FloatImage:
    """The rows of a cone in floating point, equilibrated by powers of two.

    Row k of matrix / den is generator k, a column of the float problem.
    Coordinate i is scaled by 2^-row_shift[i] and generator j by
    2^-col_shift[j], so that each row and column has its largest entry near
    1, and a target by a power of two after the row scaling.  The shifts
    come from the distinct exact values in lowest terms, and each distinct
    pair of a value and its shift is converted once.  Positive scalings
    of rows, columns and target change neither whether the target lies in
    the cone, nor in which face; and a form rescaled by a power of two gives
    the same float problem.
    """

    def __init__(self, matrix: np.ndarray, den: int):
        values, where = np.unique(matrix, return_inverse=True)
        where = where.reshape(matrix.shape)
        mag = np.array([log2_magnitude(Fraction(v, den)) if v else _NO_SHIFT
                        for v in values.tolist()])[where]
        row_shift = mag.max(axis=0, initial=_NO_SHIFT)
        row_shift[row_shift == _NO_SHIFT] = 0
        col_shift = (mag - row_shift).max(axis=1, initial=_NO_SHIFT)
        col_shift[col_shift < _NO_SHIFT // 2] = 0
        self.row_shift = row_shift.tolist()
        # One float per distinct (value, shift) pair, coded as one integer.
        shift = row_shift + col_shift[:, None]
        least = int(shift.min(initial=0))
        span = int(shift.max(initial=0)) - least + 1
        pairs, back = np.unique(where * span + (shift - least), return_inverse=True)
        vals = values.tolist()
        table = np.array([_scaled_float(vals[p // span], den, -least - p % span)
                          for p in pairs.tolist()])
        self.a = table[back].reshape(matrix.shape).T.copy()

    def support(self, goal: Sequence[int], gden: int) -> tuple[int, ...]:
        """The columns ``nnls`` of goal / gden onto the cone weighs above
        ``_SUPPORT_WEIGHT``: the warm start of the exact projection, () when
        ``nnls`` stops at its iteration limit.  Magnitudes read the lowest
        terms."""
        exact = [Fraction(v, gden) for v in goal]
        shift = max((log2_magnitude(v) - r for v, r in zip(exact, self.row_shift) if v),
                    default=0)
        b = np.array([
            _scaled_float(v.numerator, v.denominator, -r - shift)
            for v, r in zip(exact, self.row_shift)
        ])
        weights = nnls(self.a, b)
        if weights is None:
            return ()
        return tuple(int(j) for j in np.flatnonzero(weights > _SUPPORT_WEIGHT))
