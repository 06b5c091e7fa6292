"""LLL as it was before it started from the form's own LDL factorisation.

``lll_reduce`` (with its lazy ``compute_gso``), ``Unimodular.inverse`` (an
echelon of [U | I]) and the uncached reduction ``reduce`` are kept here
unchanged, as the reference that ``periform.lattices`` must match: the same
reduced form, U, U^-1 and ``_Reduction`` fields, or the same ``ValueError``.
Only the imports are absolute, and ``reduce`` is ``_reduce`` without the
form keeping its result.  ``ldl`` is the ``Fraction`` elimination that ``periform.linalg`` ran
before it factored in integers, so the reference shares no factorisation
with the code it checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import floor, lcm
from typing import Sequence

from periform.lattices import LLL_DELTA, MAX_PIVOT_SPAN_BITS, _Reduction
from periform.linalg import PQF, SymForm
from reference_linalg import det_bareiss, row_echelon

__all__ = ["Unimodular", "ldl", "lll_reduce", "reduce"]


def ldl(q: SymForm) -> tuple[tuple[tuple[Fraction, ...], ...], tuple[Fraction, ...], bool]:
    """(lower, pivots, is_positive_definite): exact LDL^t without pivoting,
    stopped by the first pivot <= 0."""
    d = q.d
    a = [list(row) for row in q.rows()]
    lower = [[Fraction(0)] * d for _ in range(d)]
    pivots: list[Fraction] = []
    for k in range(d):
        piv = a[k][k]
        pivots.append(piv)
        lower[k][k] = Fraction(1)
        if piv <= 0:
            return tuple(tuple(r) for r in lower), tuple(pivots), False
        for i in range(k + 1, d):
            lower[i][k] = a[i][k] / piv
        for i in range(k + 1, d):
            lik = lower[i][k]
            if lik == 0:
                continue
            for j in range(k + 1, i + 1):
                a[i][j] -= lik * piv * lower[j][k]
            for j in range(i + 1, d):
                a[i][j] -= lik * a[k][j]
        for i in range(k + 1, d):
            a[k][i] = Fraction(0)
            a[i][k] = Fraction(0)
    return tuple(tuple(r) for r in lower), tuple(pivots), True


@dataclass(frozen=True)
class Unimodular:
    """An integer basis change; rows form the matrix, |det| = 1."""

    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if abs(det_bareiss(self.rows)) != 1:
            raise ValueError("matrix is not unimodular")

    @property
    def d(self) -> int:
        return len(self.rows)

    def column(self, j: int) -> tuple[int, ...]:
        return tuple(row[j] for row in self.rows)

    def apply(self, x: Sequence[int]) -> tuple[int, ...]:
        """U x for a column vector x."""
        return tuple(sum(row[j] * x[j] for j in range(self.d)) for row in self.rows)

    def inverse(self) -> "Unimodular":
        """U^-1 from the reduced echelon form of [U | I], which is [I | U^-1]."""
        n = self.d
        _, _, ech = row_echelon([
            [Fraction(v) for v in row] + [Fraction(int(i == j)) for j in range(n)]
            for i, row in enumerate(self.rows)
        ])
        return Unimodular(tuple(tuple(int(v) for v in row[n:]) for row in ech))


def lll_reduce(q: PQF) -> tuple[PQF, Unimodular]:
    """LLL-reduce a positive definite Gram matrix with delta = LLL_DELTA.

    Returns (Qred, U) with Qred = U^t Q U, size-reduced and satisfying the
    Lovasz condition on the exact rational Gram-Schmidt data.
    """
    d = q.d
    g = [[q.form.entry(i, j) for j in range(d)] for i in range(d)]
    ucols = [[int(i == j) for i in range(d)] for j in range(d)]
    if d == 1:
        return q, Unimodular(((1,),))

    mu = [[Fraction(0)] * d for _ in range(d)]
    bstar = [Fraction(0)] * d

    def compute_gso(k: int) -> None:
        bstar[k] = g[k][k]
        for j in range(k):
            u = g[k][j]
            for i in range(j):
                u -= mu[j][i] * mu[k][i] * bstar[i]
            mu[k][j] = u / bstar[j]
            bstar[k] -= mu[k][j] * mu[k][j] * bstar[j]

    def translate(k: int, j: int, r: int) -> None:
        # b_k <- b_k - r b_j, applied to Gram, transform and mu rows.
        if r == 0:
            return
        gkk = g[k][k] - 2 * r * g[k][j] + r * r * g[j][j]
        for i in range(d):
            if i != k:
                v = g[k][i] - r * g[j][i]
                g[k][i] = v
                g[i][k] = v
        g[k][k] = gkk
        for i in range(d):
            ucols[k][i] -= r * ucols[j][i]
        for i in range(j):
            mu[k][i] -= r * mu[j][i]
        mu[k][j] -= r

    def size_reduce(k: int, j: int) -> None:
        mukj = mu[k][j]
        if 2 * abs(mukj) > 1:
            r = floor(mukj + Fraction(1, 2))
            translate(k, j, r)

    def swap(k: int) -> None:
        g[k], g[k - 1] = g[k - 1], g[k]
        for row in g:
            row[k], row[k - 1] = row[k - 1], row[k]
        ucols[k], ucols[k - 1] = ucols[k - 1], ucols[k]
        for j in range(k - 1):
            mu[k][j], mu[k - 1][j] = mu[k - 1][j], mu[k][j]
        muu = mu[k][k - 1]
        bnew = bstar[k] + muu * muu * bstar[k - 1]
        mu[k][k - 1] = muu * bstar[k - 1] / bnew
        bstar[k] = bstar[k - 1] * bstar[k] / bnew
        bstar[k - 1] = bnew
        for i in range(k + 1, kmax + 1):
            t = mu[i][k]
            mu[i][k] = mu[i][k - 1] - muu * t
            mu[i][k - 1] = t + mu[k][k - 1] * mu[i][k]

    compute_gso(0)
    kmax = 0
    k = 1
    while k < d:
        if k > kmax:
            kmax = k
            compute_gso(k)
        size_reduce(k, k - 1)
        if bstar[k] < (LLL_DELTA - mu[k][k - 1] * mu[k][k - 1]) * bstar[k - 1]:
            swap(k)
            k = max(k - 1, 1)
        else:
            for j in range(k - 2, -1, -1):
                size_reduce(k, j)
            k += 1

    qred = PQF(SymForm.from_rows(g))
    urows = tuple(tuple(ucols[j][i] for j in range(d)) for i in range(d))
    return qred, Unimodular(urows)


def reduce(q: PQF) -> _Reduction:
    qred, u = lll_reduce(q)
    den = lcm(*(v.denominator for v in qred.form.upper))
    gram = tuple(tuple(int(v * den) for v in row) for row in qred.form.rows())
    lower, pivots, _ = ldl(qred.form)
    top = max(pivots)
    if min(pivots) * 2 ** MAX_PIVOT_SPAN_BITS < top:
        raise ValueError(
            "the LDL pivots of the LLL-reduced form span more than "
            f"2^{MAX_PIVOT_SPAN_BITS}, beyond what the float enumeration resolves"
        )
    scale = Fraction(2) ** (top.denominator.bit_length() - top.numerator.bit_length())
    return _Reduction(
        u=u.rows,
        uinv=u.inverse().rows,
        gram=gram,
        den=den,
        scale=scale,
        dvec=tuple(float(p * scale) for p in pivots),
        lmat=tuple(tuple(float(v) for v in row) for row in lower),
    )
