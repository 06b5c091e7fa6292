"""Exact rational simplex for the small certificate LPs.

Standard form min c^t x subject to A x = b, x >= 0, solved by the two-phase
tableau method with Bland's rule, entirely in Fractions.  Verdicts here are
cone-membership facts, so no tolerances are involved anywhere.

On infeasibility the phase-1 dual comes back as a Farkas certificate y with
y^t A <= 0 (componentwise) and y^t b > 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

__all__ = ["LPResult", "solve_lp"]

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


@dataclass(frozen=True)
class LPResult:
    status: str
    x: tuple[Fraction, ...] | None = None
    objective: Fraction | None = None
    farkas: tuple[Fraction, ...] | None = None


class _Tableau:
    def __init__(self, rows, rhs, ncols):
        self.rows = rows            # list of lists, one per constraint
        self.rhs = rhs              # list, kept >= 0
        self.ncols = ncols
        self.basis: list[int] = []  # basic column index per row
        self.cost: list[Fraction] = []
        self.cost_rhs = Fraction(0)

    def set_cost(self, c: Sequence[Fraction]) -> None:
        # Reduced cost row for the current basis: c_j - y^t A_j.
        self.cost = list(c)
        self.cost_rhs = Fraction(0)
        for r, bj in enumerate(self.basis):
            cb = c[bj]
            if cb == 0:
                continue
            row = self.rows[r]
            for j in range(self.ncols):
                if row[j] != 0:
                    self.cost[j] -= cb * row[j]
            self.cost_rhs -= cb * self.rhs[r]

    def pivot(self, r: int, j: int) -> None:
        row = self.rows[r]
        piv = row[j]
        inv = Fraction(1) / piv
        self.rows[r] = row = [v * inv for v in row]
        self.rhs[r] *= inv
        for k, other in enumerate(self.rows):
            if k != r and other[j] != 0:
                f = other[j]
                self.rows[k] = [a - f * b for a, b in zip(other, row)]
                self.rhs[k] -= f * self.rhs[r]
        if self.cost[j] != 0:
            f = self.cost[j]
            self.cost = [a - f * b for a, b in zip(self.cost, row)]
            self.cost_rhs -= f * self.rhs[r]
        self.basis[r] = j

    def run_bland(self, eligible) -> str:
        while True:
            enter = next(
                (j for j in range(self.ncols) if eligible(j) and self.cost[j] < 0),
                None,
            )
            if enter is None:
                return OPTIMAL
            leave = None
            best = None
            for r, row in enumerate(self.rows):
                if row[enter] > 0:
                    ratio = self.rhs[r] / row[enter]
                    key = (ratio, self.basis[r])
                    if best is None or key < best:
                        best = key
                        leave = r
            if leave is None:
                return UNBOUNDED
            self.pivot(leave, enter)


def solve_lp(
    a_rows: Sequence[Sequence[Fraction]],
    b: Sequence[Fraction],
    c: Sequence[Fraction],
) -> LPResult:
    """min c^t x s.t. A x = b, x >= 0, exactly."""
    m = len(a_rows)
    n = len(c)
    if any(len(r) != n for r in a_rows) or len(b) != m:
        raise ValueError("inconsistent LP dimensions")

    rows = [[Fraction(v) for v in r] for r in a_rows]
    rhs = [Fraction(v) for v in b]
    flip = []
    for r in range(m):
        if rhs[r] < 0:
            rows[r] = [-v for v in rows[r]]
            rhs[r] = -rhs[r]
            flip.append(-1)
        else:
            flip.append(1)

    # Phase 1: artificial columns n .. n+m-1.
    t = _Tableau(
        [rows[r] + [Fraction(int(k == r)) for k in range(m)] for r in range(m)],
        rhs,
        n + m,
    )
    t.basis = [n + r for r in range(m)]
    t.set_cost([Fraction(0)] * n + [Fraction(1)] * m)
    if t.run_bland(lambda j: True) != OPTIMAL:
        raise RuntimeError("phase 1 is bounded below by 0, yet unbounded")
    phase1_value = -t.cost_rhs
    if phase1_value > 0:
        # Farkas: y = c_B^t B^{-1}, read off the artificial columns.
        y = []
        for i in range(m):
            yi = Fraction(0)
            for r, bj in enumerate(t.basis):
                if bj >= n:
                    yi += t.rows[r][n + i]
            y.append(flip[i] * yi)
        return LPResult(INFEASIBLE, farkas=tuple(y))

    # Drive leftover artificials out of the basis (they sit at value 0).
    drop_rows = []
    for r in range(m):
        if t.basis[r] >= n:
            j = next((jj for jj in range(n) if t.rows[r][jj] != 0), None)
            if j is None:
                drop_rows.append(r)
            else:
                t.pivot(r, j)
    if drop_rows:
        keep = [r for r in range(m) if r not in drop_rows]
        t.rows = [t.rows[r] for r in keep]
        t.rhs = [t.rhs[r] for r in keep]
        t.basis = [t.basis[r] for r in keep]

    t.set_cost([Fraction(v) for v in c] + [Fraction(0)] * m)
    status = t.run_bland(lambda j: j < n)
    if status == UNBOUNDED:
        return LPResult(UNBOUNDED)
    x = [Fraction(0)] * n
    for r, bj in enumerate(t.basis):
        if bj < n:
            x[bj] = t.rhs[r]
    objective = sum((ci * xi for ci, xi in zip(c, x)), Fraction(0))
    return LPResult(OPTIMAL, x=tuple(x), objective=objective)
