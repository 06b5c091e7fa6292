"""Cones over tangent vectors, exactly: nearest points and positive combinations.

``project_to_cone`` is a Lawson-Hanson style nonnegative least squares
active-set iteration in exact rationals, seeded by a floating-point run of
scipy's nnls.  ``FloatImage`` holds an equilibrated float copy of a cone
and a target: its nnls residual tells whether the target is clearly outside,
and its ``positive_combination`` proposes strictly positive weights for a
target in the relative interior: scipy's HiGHS solves the relative-interior
LP in floating point, and the weights are then rounded and repaired in exact
arithmetic on an independent set of columns (Applegate, Cook, Dash &
Espinoza, *Exact solutions to linear programming problems*, 2007).  Floats
only steer: every number returned is exact, and the caller verifies
whatever it certifies.  scipy.optimize is imported on first use, because
importing it costs more than most certificates.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import sqrt
from typing import Sequence

import numpy as np

from .linalg import (
    SymForm,
    TangentVector,
    independent_rows_modp,
    inner,
    int_matrix,
    integer_row,
    log2_magnitude,
    solve_exact,
)

__all__ = ["ConeProjection", "project_to_cone", "FloatImage"]

_RELINT_MARGIN = 1e-9  # smaller float margins are left to the exact simplex
_DYADIC_BITS = 40  # non-basic float weights are rounded to multiples of 2^-40


@dataclass(frozen=True)
class ConeProjection:
    """point = sum coeffs[i] * generators[i], the cone point nearest to target."""

    point: TangentVector
    coeffs: tuple[Fraction, ...]
    residual: TangentVector  # point - target


def _scaled_float(v: Fraction, k: int) -> float:
    """float(v * 2^k), correctly rounded, with no out-of-range float on the way."""
    n, d = v.numerator, v.denominator
    return (n << k) / d if k >= 0 else n / (d << -k)


def _pow2(k: int) -> Fraction:
    return Fraction(1 << k) if k >= 0 else Fraction(1, 1 << -k)


def _float_coords(v: TangentVector) -> np.ndarray:
    """Euclidean coordinates of v * 2^-k, with 2^k the size of v's largest entry.

    Dot products of two images equal the exact inner product up to the two
    powers of two, so cones, rays and directions keep their float shape at
    any scale of the form.
    """
    shift = -max((log2_magnitude(c) for c in v.flatten() if c), default=0)
    out = []
    d = v.qpart.d
    k = 0
    s2 = sqrt(2.0)
    for i in range(d):
        out.append(_scaled_float(v.qpart.upper[k], shift))
        k += 1
        for _ in range(i + 1, d):
            out.append(s2 * _scaled_float(v.qpart.upper[k], shift))
            k += 1
    for col in v.tcols:
        out.extend(_scaled_float(c, shift) for c in col)
    return np.array(out)


class _GramCache:
    def __init__(self, gens: Sequence[TangentVector], target: TangentVector):
        self.gens = gens
        self.target = target
        self._gg: dict[tuple[int, int], Fraction] = {}
        self._gt: dict[int, Fraction] = {}

    def gg(self, i: int, j: int) -> Fraction:
        key = (i, j) if i <= j else (j, i)
        if key not in self._gg:
            self._gg[key] = inner(self.gens[key[0]], self.gens[key[1]])
        return self._gg[key]

    def gt(self, i: int) -> Fraction:
        if i not in self._gt:
            self._gt[i] = inner(self.gens[i], self.target)
        return self._gt[i]


def _solve_active(cache: _GramCache, active: list[int]) -> list[Fraction]:
    """Normal equations on the active set; always consistent for a Gram system."""
    if not active:
        return []
    mat = [[cache.gg(i, j) for j in active] for i in active]
    rhs = [cache.gt(i) for i in active]
    sol = solve_exact(mat, rhs)
    if sol is None:  # cannot happen: Gram normal equations are consistent
        raise RuntimeError("inconsistent normal equations in cone projection")
    return list(sol)


def _combine(
    gens: Sequence[TangentVector], active: Sequence[int], coeffs: Sequence[Fraction]
) -> TangentVector:
    d, m = gens[0].d, gens[0].m
    out = TangentVector.make(SymForm.zero(d), [[0] * d for _ in range(m - 1)])
    for idx, c in zip(active, coeffs):
        if c != 0:
            out = out.add(gens[idx].scale(c))
    return out


def project_to_cone(
    generators: Sequence[TangentVector], target: TangentVector
) -> ConeProjection:
    """Exact nearest point to ``target`` in cone(generators).

    The result satisfies, verified exactly before returning:
    <g, residual> >= 0 for every generator and <point, residual> = 0.
    """
    gens = list(generators)
    if not gens:
        raise ValueError("cone needs at least one generator")
    cache = _GramCache(gens, target)
    n = len(gens)

    # Floating warm start for the active set.
    from scipy.optimize import nnls

    a = np.column_stack([_float_coords(g) for g in gens])
    try:
        coeffs_f, _ = nnls(a, _float_coords(target))
        warm = [i for i in range(n) if coeffs_f[i] > 1e-12]
    except RuntimeError:  # nnls iteration limit
        warm = []

    alpha: dict[int, Fraction] = {}
    if warm:
        sol = _solve_active(cache, warm)
        if all(c >= 0 for c in sol):
            alpha = {i: c for i, c in zip(warm, sol) if c > 0}

    def inner_restore(passive: list[int], alpha: dict[int, Fraction]):
        # Re-solve on the passive set until all coefficients are nonnegative;
        # each theta-step removes at least one index, so this terminates.
        while passive:
            beta = _solve_active(cache, passive)
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
        point = _combine(gens, active, [alpha[i] for i in active])
        worst = None
        worst_val = Fraction(0)
        for i in range(n):
            if i in alpha:
                continue
            w = cache.gt(i) - inner(gens[i], point)
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

    active = sorted(alpha)
    coeffs = tuple(alpha.get(i, Fraction(0)) for i in range(n))
    point = _combine(gens, active, [alpha[i] for i in active])
    residual = point.sub(target)
    # Exact optimality certificate.
    if any(inner(g, residual) < 0 for g in gens):
        raise RuntimeError("cone projection residual is negative on a generator")
    if inner(point, residual) != 0:
        raise RuntimeError("cone projection residual is not orthogonal to the point")
    return ConeProjection(point, coeffs, residual)


class FloatImage:
    """Generators and target in floating point, equilibrated by powers of two.

    Coordinate i is scaled by 2^-row_shift[i] and generator j by
    2^-col_shift[j], so that each row and column has its largest entry near
    1, and the target by 2^-goal_shift after the row scaling.  Positive
    scalings of rows, columns and target change neither whether the target
    lies in the cone, nor in its relative interior, nor in which face; and a
    form rescaled by a power of two gives the same float problem.
    """

    def __init__(self, generators: Sequence[TangentVector], target: TangentVector):
        self.cols = [g.flatten() for g in generators]
        self.goal = target.flatten()
        dim = len(self.goal)
        row_shift = [
            max((log2_magnitude(c[i]) for c in self.cols if c[i]), default=0)
            for i in range(dim)
        ]
        self.col_shift = [
            max((log2_magnitude(v) - r for v, r in zip(c, row_shift) if v), default=0)
            for c in self.cols
        ]
        self.goal_shift = max(
            (log2_magnitude(v) - r for v, r in zip(self.goal, row_shift) if v),
            default=0,
        )
        self.a = np.array([
            [_scaled_float(c[i], -row_shift[i] - s) for c, s in zip(self.cols, self.col_shift)]
            for i in range(dim)
        ])
        self.b = np.array([
            _scaled_float(v, -r - self.goal_shift) for v, r in zip(self.goal, row_shift)
        ])

    def residual(self) -> float:
        """nnls residual of the target onto the cone, relative to the target.

        0.0 when nnls stops at its iteration limit, which leaves the question
        to the relative-interior LP and the exact path behind it.
        """
        from scipy.optimize import nnls

        try:
            _, rnorm = nnls(self.a, self.b)
        except RuntimeError:
            return 0.0
        bnorm = float(np.linalg.norm(self.b))
        return rnorm / bnorm if bnorm > 0 else 0.0

    def positive_combination(self, limit: int) -> tuple[Fraction, ...] | None:
        """Proposed exact weights alpha > 0 with sum alpha_g g = target, unverified.

        HiGHS solves max mu s.t. sum beta_g g + mu * sum(gens) = target,
        beta >= 0, 0 <= mu <= 1, on the float image.  At most ``limit``
        columns independent mod RANK_PRIME, taken in order of falling float
        weight, are basic.  The other weights are rounded to dyadic rationals
        and the basic ones solved for exactly.  None when the float LP finds
        no margin or the exact system has no solution.
        """
        from scipy.optimize import linprog

        cols, goal = self.cols, self.goal
        n, dim = len(cols), len(goal)
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
        picked = independent_rows_modp(
            int_matrix([integer_row(cols[j]) for j in order]), limit
        )
        basic = [order[k] for k in picked]
        alpha: list[Fraction | None] = [None] * n
        rest = list(goal)
        for j in sorted(set(range(n)) - set(basic)):
            units = round(float(weights[j]) * 2 ** _DYADIC_BITS)
            alpha[j] = units * _pow2(self.goal_shift - self.col_shift[j] - _DYADIC_BITS)
            for i, c in enumerate(cols[j]):
                if c:
                    rest[i] -= alpha[j] * c
        sol = solve_exact([[cols[j][i] for j in basic] for i in range(dim)], rest)
        if sol is None:
            return None
        for j, v in zip(basic, sol):
            alpha[j] = v
        return tuple(alpha)
