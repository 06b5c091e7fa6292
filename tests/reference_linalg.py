"""The exact eliminations ``periform`` ran before ``linalg.echelon``.

``row_echelon`` (the ``Fraction`` reduced echelon form) with the
``solve_exact`` built on it, ``solve`` and ``inverse`` (forward and back
substitution with the ``Fraction`` L and D of a ``PQF``, which ``pivots`` and
``lower`` build from its integral factors) and ``det_bareiss`` are kept here
unchanged, as the reference that the fraction-free eliminator must match.
Only the methods became functions of the object they read.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from periform.linalg import PQF, LDLResult, RatLike, SymForm, _frac

__all__ = ["row_echelon", "solve_exact", "pivots", "lower", "solve", "inverse", "det_bareiss"]


def row_echelon(rows: list[list[Fraction]]) -> tuple[int, list[int], list[list[Fraction]]]:
    """In-place reduced echelon form; returns (rank, pivot columns, matrix)."""
    if not rows:
        return 0, [], rows
    ncols = len(rows[0])
    rank = 0
    pivcols: list[int] = []
    for col in range(ncols):
        piv = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = Fraction(1) / rows[rank][col]
        rows[rank] = [v * inv for v in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col] != 0:
                f = rows[r][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        pivcols.append(col)
        rank += 1
        if rank == len(rows):
            break
    return rank, pivcols, rows


def solve_exact(
    matrix: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]
) -> tuple[Fraction, ...] | None:
    """Solve a square or rectangular rational system; None if inconsistent.

    For underdetermined systems an arbitrary solution (free vars = 0) comes
    back, which is all the cone code needs.
    """
    nrows = len(matrix)
    if nrows == 0:
        return ()
    ncols = len(matrix[0])
    aug = [list(row) + [rhs[i]] for i, row in enumerate(matrix)]
    rank, pivcols, aug = row_echelon(aug)
    for r in range(rank, nrows):
        if aug[r][ncols] != 0:
            return None
    if ncols in pivcols:
        return None
    x = [Fraction(0)] * ncols
    for r, pc in enumerate(pivcols):
        x[pc] = aug[r][ncols]
    return tuple(x)


def pivots(self: LDLResult) -> tuple[Fraction, ...]:
    d = self.minors
    return tuple(Fraction(d[k + 1], d[k] * self.den) for k in range(len(d) - 1))


def lower(self: LDLResult) -> tuple[tuple[Fraction, ...], ...]:
    d, n = self.minors, len(self.lam)
    # Rows past the first minor <= 0 were never reached: no unit diagonal.
    return tuple(
        tuple(Fraction(row[j], d[j + 1]) if j < len(row)
              else Fraction(int(i == j < len(d) - 1)) for j in range(n))
        for i, row in enumerate(self.lam)
    )


def solve(self: PQF, b: Sequence[RatLike]) -> tuple[Fraction, ...]:
    """Solve Q x = b exactly via the LDL factors."""
    return _solve(self, [b])[0]


def inverse(self: PQF) -> SymForm:
    d = self.d
    cols = _solve(self, [[int(i == j) for i in range(d)] for j in range(d)])
    return SymForm.from_rows([[cols[j][i] for j in range(d)] for i in range(d)])


def _solve(self: PQF, rhs: Sequence[Sequence[RatLike]]) -> list[tuple[Fraction, ...]]:
    """x with Q x = b for each b in ``rhs``, from L and D built once."""
    d, low, piv = self.d, lower(self.ldl), pivots(self.ldl)
    out = []
    for b in rhs:
        y = [_frac(v) for v in b]
        # Forward: L z = b
        for i in range(d):
            for j in range(i):
                y[i] -= low[i][j] * y[j]
        for i in range(d):
            y[i] /= piv[i]
        # Back: L^t x = z
        for i in reversed(range(d)):
            for j in range(i + 1, d):
                y[i] -= low[j][i] * y[j]
        out.append(tuple(y))
    return out


def det_bareiss(rows: Sequence[Sequence[int]]) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("matrix not square")
    m = [list(r) for r in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]
