"""Cones spanned by integer rows, exactly: nearest points and positive combinations.

A cone is given by the rows of an integer matrix over one common denominator
``den`` (of any type ``linalg.int_type`` names), and a target by its
coordinates as Fractions.  Products of two entries may pass int64, so every
exact sum of products is taken in Python ints.

``project_to_cone`` is a Lawson-Hanson style nonnegative least squares
active-set iteration in exact rationals, warm-started from the positive
columns of a float nnls.  ``FloatImage`` holds an equilibrated float copy of
a cone and a target: its nnls residual tells whether the target is clearly
outside, and its ``positive_combination`` proposes strictly positive weights
for a target in the relative interior: scipy's HiGHS solves the
relative-interior LP in floating point, and the weights are then rounded and
repaired in exact arithmetic on an independent set of rows (Applegate, Cook,
Dash & Espinoza, *Exact solutions to linear programming problems*, 2007).
Floats only steer: every number returned is exact, and the caller verifies
whatever it certifies.  scipy.optimize is imported on first use, because
importing it costs more than most certificates.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Sequence

import numpy as np

from .linalg import independent_rows_modp, integer_row, log2_magnitude, solve_exact

__all__ = ["ConeProjection", "project_to_cone", "FloatImage"]

_RELINT_MARGIN = 1e-9  # smaller float margins are left to the exact simplex
_DYADIC_BITS = 40  # non-basic float weights are rounded to multiples of 2^-40
_SUPPORT_WEIGHT = 1e-12  # float nnls weights above this make the warm start


@dataclass(frozen=True)
class ConeProjection:
    """point = sum_k coeffs[k] * row k / den, the cone point nearest to the target.

    ``point`` and ``residual`` = point - target are coordinates like the
    target's.
    """

    point: tuple[Fraction, ...]
    coeffs: tuple[Fraction, ...]
    residual: tuple[Fraction, ...]


def _dot(a: Sequence[int], b: Sequence[int]) -> int:
    return sum(map(mul, a, b))


def _scaled_float(n: int, d: int, k: int) -> float:
    """float(n / d * 2^k), correctly rounded, with no out-of-range float on the way."""
    return (n << k) / d if k >= 0 else n / (d << -k)


def _pow2(k: int) -> Fraction:
    return Fraction(1 << k) if k >= 0 else Fraction(1, 1 << -k)


def project_to_cone(
    matrix: np.ndarray,
    den: int,
    goal: Sequence[Fraction],
    metric: Sequence[int],
    warm: Sequence[int] = (),
) -> ConeProjection:
    """Exact nearest point to ``goal`` in the cone of the rows of matrix / den.

    Distances are in the inner product sum_i metric_i a_i b_i / 2 (see
    ``linalg.metric_weights``).  ``warm`` guesses the active set.  The result
    satisfies, verified exactly before returning: <row, residual> >= 0 for
    every row and <point, residual> = 0.

    With goal = b / gscale for integers b, the normal equations on an active
    set A, multiplied by 2 den^2, read sum_j beta_j <r_i, r_j> = <r_i, b> in
    the integer rows r and the doubled metric, for beta = coeffs * gscale / den.
    """
    rows = matrix.tolist()
    n = len(rows)
    if not n:
        raise ValueError("cone needs at least one generator")
    wrows = [[w * v for w, v in zip(metric, row)] for row in rows]
    gscale, b = integer_row(goal)
    rhs = [_dot(wr, b) for wr in wrows]

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
        p = [0] * len(b)
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

    # point = p / (s gscale) and residual = point - goal, exactly.
    s, p = combine(alpha)
    res = [a - s * v for a, v in zip(p, b)]
    if any(_dot(wr, res) < 0 for wr in wrows):
        raise RuntimeError("cone projection residual is negative on a generator")
    if _dot([w * v for w, v in zip(metric, p)], res) != 0:
        raise RuntimeError("cone projection residual is not orthogonal to the point")
    scale = s * gscale
    factor = Fraction(den, gscale)
    return ConeProjection(
        tuple(Fraction(v, scale) for v in p),
        tuple(factor * alpha.get(i, 0) for i in range(n)),
        tuple(Fraction(v, scale) for v in res),
    )


class FloatImage:
    """Rows and target in floating point, equilibrated by powers of two.

    Row k of matrix / den is generator k, a column of the float problem.
    Coordinate i is scaled by 2^-row_shift[i] and generator j by
    2^-col_shift[j], so that each row and column has its largest entry near
    1, and the target by 2^-goal_shift after the row scaling.  The shifts
    come from the exact values in lowest terms.  Positive scalings of rows,
    columns and target change neither whether the target lies in the cone,
    nor in its relative interior, nor in which face; and a form rescaled by
    a power of two gives the same float problem.
    """

    def __init__(self, matrix: np.ndarray, den: int, goal: Sequence[Fraction]):
        self.matrix, self.den, self.goal = matrix, den, tuple(goal)
        self.rows = matrix.tolist()
        mags = [[log2_magnitude(Fraction(v, den)) if v else None for v in row]
                for row in self.rows]
        row_shift = [
            max((mag[i] for mag in mags if mag[i] is not None), default=0)
            for i in range(len(self.goal))
        ]
        self.col_shift = [
            max((v - r for v, r in zip(mag, row_shift) if v is not None), default=0)
            for mag in mags
        ]
        self.goal_shift = max(
            (log2_magnitude(v) - r for v, r in zip(self.goal, row_shift) if v),
            default=0,
        )
        self.a = np.array([
            [_scaled_float(row[i], den, -r - s) for row, s in zip(self.rows, self.col_shift)]
            for i, r in enumerate(row_shift)
        ])
        self.b = np.array([
            _scaled_float(v.numerator, v.denominator, -r - self.goal_shift)
            for v, r in zip(self.goal, row_shift)
        ])

    def residual(self) -> tuple[float, tuple[int, ...]]:
        """(r, support): the nnls residual of the target onto the cone,
        relative to the target, and the columns the nnls weighs positively,
        the warm start of the exact projection.

        (0.0, ()) when nnls stops at its iteration limit, which leaves the
        question to the relative-interior LP and the exact path behind it.
        """
        from scipy.optimize import nnls

        try:
            weights, rnorm = nnls(self.a, self.b)
        except RuntimeError:
            return 0.0, ()
        support = tuple(int(j) for j in np.flatnonzero(weights > _SUPPORT_WEIGHT))
        bnorm = float(np.linalg.norm(self.b))
        return (rnorm / bnorm if bnorm > 0 else 0.0), support

    def positive_combination(self) -> tuple[Fraction, ...] | None:
        """Proposed exact weights alpha > 0 with sum_k alpha_k row_k / den = target,
        unverified.

        HiGHS solves max mu s.t. sum beta_g g + mu * sum(gens) = target,
        beta >= 0, 0 <= mu <= 1, on the float image.  Rows independent mod
        RANK_PRIME, taken in order of falling float weight and no more than
        there are coordinates, are basic.  The other weights are rounded to
        dyadic rationals and the basic ones solved for exactly.  None when
        the float LP finds no margin or the exact system has no solution.
        """
        from scipy.optimize import linprog

        rows = self.rows
        n = len(rows)
        cost = np.zeros(n + 1)
        cost[-1] = -1.0
        res = linprog(
            cost,
            A_eq=np.column_stack([self.a, self.a.sum(axis=1)]),
            b_eq=self.b,
            bounds=[(0, None)] * n + [(0, 1)],
            method="highs",
        )
        if res.status != 0 or not res.x[-1] >= _RELINT_MARGIN:
            return None
        # w_j weighs column j scaled by 2^-col_shift[j] against the target
        # scaled by 2^-goal_shift, so alpha_j = w_j * 2^(goal_shift - col_shift[j]).
        weights = res.x[:n] + res.x[-1]
        order = [int(j) for j in np.argsort(-weights, kind="stable")]
        basic = [order[k] for k in independent_rows_modp(self.matrix[order], len(self.goal))]
        alpha: list[Fraction | None] = [None] * n
        rest = [self.den * v for v in self.goal]  # den * target - sum of the non-basic rows
        for j in sorted(set(range(n)) - set(basic)):
            units = round(float(weights[j]) * 2 ** _DYADIC_BITS)
            alpha[j] = units * _pow2(self.goal_shift - self.col_shift[j] - _DYADIC_BITS)
            for i, c in enumerate(rows[j]):
                if c:
                    rest[i] -= alpha[j] * c
        sol = solve_exact([[rows[j][i] for j in basic] for i in range(len(rest))], rest)
        if sol is None:
            return None
        for j, v in zip(basic, sol):
            alpha[j] = v
        return tuple(alpha)
