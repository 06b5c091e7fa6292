"""Lattice algorithmics: LLL reduction and shortest/closest vector enumeration.

Each form is LLL-reduced once; shortest and closest vector searches on it
then share that reduction.  LLL updates the integer Gram den * Q of
``SymForm.integer_rows`` and starts from the Gram-Schmidt data (mu, B*) of
the LDL factorisation the form already carries; it returns U and U^-1 as
integer rows, so a reduction factors only the reduced form, once.  One walker visits the
lattice points of the reduced form with floating-point bounds (radii inflated
by 1 + 2^-20) on the reduced Gram scaled exactly by a power of two, so the
float bounds do not depend on the scale of the form.  A vector is accepted
only after exact integer evaluation, so the returned minima and minimizer
sets are exact and complete.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import floor, sqrt
from operator import mul
from typing import Sequence

import numpy as np

from .linalg import PQF, SymForm, RatLike, integer_row

__all__ = [
    "ShortVecResult",
    "CloseVecResult",
    "lll_reduce",
    "shortest_vectors",
    "closest_vectors",
]

RADIUS_INFLATION = 1.0 + 2.0 ** -20
# The Lovasz constant of lll_reduce: the classic 3/4 of Lenstra, Lenstra and
# Lovasz (1982).
LLL_DELTA = Fraction(3, 4)
# Reductions kept: one generalized_min asks for its form's reduction for the
# SVP and again for every CVP pair, and improve's _accept re-reduces the
# candidate that improvement_step accepted.
_REDUCE_CACHE_SIZE = 64
# The walker runs on the reduced Gram scaled so its largest LDL pivot lies in
# (1/2, 2).  A pivot 2^52 times smaller than the largest is below the float
# rounding unit of the largest, and its level's bounds admit ever more
# candidates; the walk refuses such forms.
MAX_PIVOT_SPAN_BITS = 52

IntRows = tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class ShortVecResult:
    """Arithmetical minimum and all minimizers, one per +/- pair."""

    min: Fraction
    vectors: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class CloseVecResult:
    """Minimal value of Q[x - c] over Z^d and every x attaining it."""

    min: Fraction
    vectors: tuple[tuple[int, ...], ...]


# ---------------------------------------------------------------------------
# LLL on the integer Gram matrix.
# ---------------------------------------------------------------------------


def lll_reduce(q: PQF) -> tuple[PQF, IntRows, IntRows]:
    """LLL-reduce a positive definite Gram matrix with delta = LLL_DELTA.

    Returns (Qred, U, U^-1), U and U^-1 as integer rows, with Qred = U^t Q U
    size-reduced and satisfying the Lovasz condition on the exact rational
    Gram-Schmidt data.  That data starts as the LDL factors Q carries
    (mu = L, B* = D) and is kept current for every row; U^-1 is built
    alongside U.  The Gram updates run on the integer Gram den * Q, so only
    mu and B* are rational.
    """
    d = q.d
    den, rows = q.form.integer_rows()
    g = [list(row) for row in rows]
    mu = [list(row) for row in q.ldl.lower]
    bstar = list(q.ldl.pivots)
    ucols = [[int(i == j) for i in range(d)] for j in range(d)]
    uinv = [[int(i == j) for j in range(d)] for i in range(d)]

    def size_reduce(k: int, j: int) -> None:
        # b_k <- b_k - r b_j, applied to Gram, U, U^-1 and mu; |mu_kj| > 1/2
        # makes r nonzero.
        if 2 * abs(mu[k][j]) <= 1:
            return
        r = floor(mu[k][j] + Fraction(1, 2))
        gkk = g[k][k] - 2 * r * g[k][j] + r * r * g[j][j]
        for i in range(d):
            if i != k:
                v = g[k][i] - r * g[j][i]
                g[k][i] = v
                g[i][k] = v
        g[k][k] = gkk
        for i in range(d):
            ucols[k][i] -= r * ucols[j][i]
            uinv[j][i] += r * uinv[k][i]
        for i in range(j):
            mu[k][i] -= r * mu[j][i]
        mu[k][j] -= r

    def swap(k: int) -> None:
        g[k], g[k - 1] = g[k - 1], g[k]
        for row in g:
            row[k], row[k - 1] = row[k - 1], row[k]
        ucols[k], ucols[k - 1] = ucols[k - 1], ucols[k]
        uinv[k], uinv[k - 1] = uinv[k - 1], uinv[k]
        for j in range(k - 1):
            mu[k][j], mu[k - 1][j] = mu[k - 1][j], mu[k][j]
        muu = mu[k][k - 1]
        bnew = bstar[k] + muu * muu * bstar[k - 1]
        mu[k][k - 1] = muu * bstar[k - 1] / bnew
        bstar[k] = bstar[k - 1] * bstar[k] / bnew
        bstar[k - 1] = bnew
        for i in range(k + 1, d):
            t = mu[i][k]
            mu[i][k] = mu[i][k - 1] - muu * t
            mu[i][k - 1] = t + mu[k][k - 1] * mu[i][k]

    k = 1
    while k < d:
        size_reduce(k, k - 1)
        if bstar[k] < (LLL_DELTA - mu[k][k - 1] * mu[k][k - 1]) * bstar[k - 1]:
            swap(k)
            k = max(k - 1, 1)
        else:
            for j in range(k - 2, -1, -1):
                size_reduce(k, j)
            k += 1

    upper = tuple(Fraction(g[i][j], den) for i in range(d) for j in range(i, d))
    urows = tuple(tuple(ucols[j][i] for j in range(d)) for i in range(d))
    return PQF(SymForm(d, upper)), urows, tuple(map(tuple, uinv))


# ---------------------------------------------------------------------------
# Enumeration.
# ---------------------------------------------------------------------------


def _enumerate(
    dvec: Sequence[float],
    lmat: Sequence[Sequence[float]],
    center: list[float],
    radius: float,
    half: bool,
) -> list[tuple[int, ...]]:
    """Collect integer points with float value <= radius (dynamically shrunk).

    ``half`` keeps only one representative per +/- pair when the center is
    zero, by forcing the highest not-yet-zero level nonnegative; the all-zero
    point is skipped in that mode.
    """
    d = len(dvec)
    centered = any(c != 0.0 for c in center)
    out: list[tuple[int, ...]] = []
    x = [0] * d
    acc = [0.0] * (d + 1)  # acc[k]: value contributed by levels >= k
    lo = [0] * d
    hi = [0] * d
    ck = [0.0] * d
    best = radius

    def init_level(k: int) -> None:
        s = center[k]
        for i in range(k + 1, d):
            s -= lmat[i][k] * (x[i] - center[i])
        ck[k] = s
        rem = best - acc[k + 1]
        if rem < 0.0:
            lo[k], hi[k] = 0, -1
        else:
            spread = sqrt(rem / dvec[k])
            lo[k] = int(np.ceil(s - spread - 1e-9))
            hi[k] = int(np.floor(s + spread + 1e-9))
            if (
                half
                and not centered
                and lo[k] < 0
                and all(x[i] == 0 for i in range(k + 1, d))
            ):
                lo[k] = 0
        x[k] = lo[k]

    k = d - 1
    init_level(k)
    while True:
        if x[k] > hi[k]:
            k += 1
            if k >= d:
                break
            x[k] += 1
            continue
        diff = x[k] - ck[k]
        val = acc[k + 1] + dvec[k] * diff * diff
        if val > best:
            x[k] += 1
            continue
        if k == 0:
            if not (half and not centered and not any(x)):
                out.append(tuple(x))
                nb = val * RADIUS_INFLATION
                if nb < best:
                    best = nb
            x[0] += 1
            continue
        acc[k] = val
        k -= 1
        init_level(k)
    return out


def _max_abs(rows: Sequence[Sequence[int]]) -> int:
    return max(max(map(max, rows)), -min(map(min, rows)))


def _int64_operands(
    m_rows: Sequence[Sequence[int]], xs: Sequence[Sequence[int]], degree: int
) -> tuple[np.ndarray, np.ndarray] | None:
    """M and X as int64 arrays, or None if a product could overflow.

    Each entry of M x (``degree`` 1) or of x^t M x (``degree`` 2) sums
    d^degree terms of size at most max|x|^degree max|M|.
    """
    d = len(m_rows)
    if (d * _max_abs(xs)) ** degree * _max_abs(m_rows) >= 2 ** 62:
        return None
    return np.array(m_rows, dtype=np.int64), np.array(xs, dtype=np.int64)


def _apply_rows(
    m_rows: Sequence[Sequence[int]], xs: Sequence[Sequence[int]]
) -> list[tuple[int, ...]]:
    """M x for each integer vector x, exactly."""
    arrays = _int64_operands(m_rows, xs, 1)
    if arrays is None:
        return [tuple(sum(map(mul, row, x)) for row in m_rows) for x in xs]
    ma, xa = arrays
    return list(map(tuple, (xa @ ma.T).tolist()))


def _exact_values(
    m_rows: Sequence[Sequence[int]], xs: Sequence[Sequence[int]]
) -> list[int]:
    """x^t M x for each integer vector x, exactly."""
    if not xs:
        return []
    arrays = _int64_operands(m_rows, xs, 2)
    if arrays is None:
        return [sum(map(mul, x, mx)) for x, mx in zip(xs, _apply_rows(m_rows, xs))]
    ma, xa = arrays
    return np.einsum("ij,jk,ik->i", xa, ma, xa).tolist()


@dataclass(frozen=True)
class _Reduction:
    """A form's LLL reduction with what every walk over it needs.

    ``gram / den`` is the reduced Gram Qred = U^t Q U exactly.  ``u`` maps
    reduced coordinates to the form's (x = U y) and ``uinv`` back.  ``dvec``
    and ``lmat`` are the float LDL factors of ``scale * Qred``, where the
    power of two ``scale`` puts the largest pivot in (1/2, 2).
    """

    u: IntRows
    uinv: IntRows
    gram: IntRows
    den: int
    scale: Fraction
    dvec: tuple[float, ...]
    lmat: tuple[tuple[float, ...], ...]

    def radius(self, value: Fraction) -> float:
        """A walk radius admitting every point of exact value <= ``value``."""
        return float(value * self.scale) * RADIUS_INFLATION


@lru_cache(maxsize=_REDUCE_CACHE_SIZE)
def _reduce(q: PQF) -> _Reduction:
    qred, u, uinv = lll_reduce(q)
    den, gram = qred.form.integer_rows()
    res = qred.ldl
    top = max(res.pivots)
    if min(res.pivots) * 2 ** MAX_PIVOT_SPAN_BITS < top:
        raise ValueError(
            "the LDL pivots of the LLL-reduced form span more than "
            f"2^{MAX_PIVOT_SPAN_BITS}, beyond what the float enumeration resolves"
        )
    scale = Fraction(2) ** (top.denominator.bit_length() - top.numerator.bit_length())
    return _Reduction(
        u=u,
        uinv=uinv,
        gram=gram,
        den=den,
        scale=scale,
        dvec=tuple(float(p * scale) for p in res.pivots),
        lmat=tuple(tuple(float(v) for v in row) for row in res.lower),
    )


def _positive_first(y: tuple[int, ...]) -> tuple[int, ...]:
    first = next(v for v in y if v)
    return y if first > 0 else tuple(-v for v in y)


def shortest_vectors(q: PQF) -> ShortVecResult:
    """Exact arithmetical minimum lambda(Q) and the full Min Q up to sign.

    Canonical representatives have their first nonzero coordinate positive;
    vectors come back lexicographically sorted.
    """
    red = _reduce(q)
    init = Fraction(min(red.gram[i][i] for i in range(q.d)), red.den)
    cands = _enumerate(red.dvec, red.lmat, [0.0] * q.d, red.radius(init), half=True)
    vals = _exact_values(red.gram, cands)
    best = min(vals)
    winners = [x for x, v in zip(cands, vals) if v == best]
    vectors = sorted(map(_positive_first, _apply_rows(red.u, winners)))
    return ShortVecResult(Fraction(best, red.den), tuple(vectors))


def closest_vectors(q: PQF, c: Sequence[RatLike]) -> CloseVecResult:
    """Exact minimum of Q[x - c] over x in Z^d, with all minimizers (ties kept)."""
    cvec = [Fraction(v) for v in c]
    if len(cvec) != q.d:
        raise ValueError("target length mismatch")
    red = _reduce(q)
    # The target in reduced coordinates is cnum / cden, integers throughout.
    cden, cint = integer_row(cvec)
    (cnum,) = _apply_rows(red.uinv, [cint])
    babai = tuple((2 * n + cden) // (2 * cden) for n in cnum)
    vden = red.den * cden * cden
    (init,) = _exact_values(red.gram, [[cden * b - n for b, n in zip(babai, cnum)]])
    center = [n / cden for n in cnum]
    cands = _enumerate(
        red.dvec, red.lmat, center, red.radius(Fraction(init, vden)), half=False
    )
    if not cands:  # the Babai point itself is always inside the radius
        cands = [babai]
    shifted = [[cden * xi - n for xi, n in zip(x, cnum)] for x in cands]
    vals = _exact_values(red.gram, shifted)
    best = min(vals)
    winners = [x for x, v in zip(cands, vals) if v == best]
    return CloseVecResult(
        Fraction(best, vden), tuple(sorted(_apply_rows(red.u, winners)))
    )
