"""Lattice algorithmics: LLL reduction and shortest/closest vector enumeration.

The first walk on a ``PQF`` stores its LLL reduction in the form's
``reduction`` slot, where later walks on that object read it; nothing is kept
between objects.  LLL is de Weger's integral variant: it updates the
integer Gram den * Q that the ``PQF`` keeps, starting from the leading minors
and integral Gram-Schmidt coefficients of the form's own factorisation, and
ends with those of the reduced form, so a reduction factors nothing.  It
returns U and U^-1 as integer rows.  Its Lovasz constant is 99/100 (Schnorr
and Euchner, 1994), not 3/4: on that basis the Leech walk visits 2 157 620
nodes instead of 3 157 319.

Two walkers visit the lattice points of the reduced form with floating-point
bounds (radii inflated by 1 + 2^-20) on the reduced Gram scaled exactly by a
power of two, so the float bounds do not depend on the scale of the form.
``_walk_nodes`` takes one tree node per Python step, ``_walk_levels`` one
chunk of a tree level per numpy step at 35-110 us, so ``_enumerate`` picks
it from ``BATCH_MIN_DIM`` = 12 levels on.  Node against level walker in ms,
for shortest vectors, then for one ``closest_vectors`` walk (CPython 3.11,
numpy 2.4, a shared 2-core x86-64 VM, two runs): d <= 4, 0.01-0.02 / 0.2-0.3
both; E8, 0.69-0.76 / 0.53-0.67, 0.13-0.14 / 0.47-0.54; Lambda9, 0.58 /
0.62-0.70, 0.11 / 0.56; D12, 0.84-1.5 / 0.47-1.1, 0.18-0.31 / 0.50-0.92;
K12, 2.4-4.5 / 0.59-1.3, 0.07-0.14 / 0.41-0.80; D16, 2.4-4.3 / 0.78-1.6,
0.55-0.97 / 0.80-1.5; Leech, 5 300-7 200 / 230-320, 180-270 / 40-60.  So
closest-vector walks with d >= 12 and few nodes run 1.5-6 times slower level
by level, by under 1 ms, where the dense lattices gain seconds.

Candidates stay integer arrays: a vector is accepted only after exact
integer evaluation, in float64 BLAS while float64 holds every partial sum
(up to 2^53), else in one einsum in ``linalg.int_type`` of a bound on them,
so the returned minima and minimizer sets are exact and complete.  Leech's
98 280 minimal vectors take a few MB as an array, against 23 MB as tuples.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import ceil, floor, sqrt
from operator import mul
from typing import Sequence

import numpy as np

from .linalg import (
    FLOAT_EXACT,
    PQF,
    LDLResult,
    RatLike,
    affine_rows,
    int_matrix,
    int_type,
    integer_row,
    max_abs,
    small_ints,
)

__all__ = [
    "VecResult",
    "lll_reduce",
    "shortest_vectors",
    "closest_vectors",
]

RADIUS_INFLATION = 1.0 + 2.0 ** -20
# The Lovasz constant of lll_reduce; the module docstring gives the reason.
LLL_DELTA = Fraction(99, 100)
# The walker runs on the reduced Gram scaled so its largest LDL pivot lies in
# (1/2, 2).  A pivot 2^52 times smaller than the largest is below the float
# rounding unit of the largest, and its level's bounds admit ever more
# candidates; the walk refuses such forms.
MAX_PIVOT_SPAN_BITS = 52
# Walks of at least this many levels run level by level in numpy
# (_walk_levels), smaller ones node by node in Python (_walk_nodes); see the
# module docstring for the measurements behind it.
BATCH_MIN_DIM = 12
# Partial centers per chunk of the level walker, k + 1 per node at level k.
_FLOAT_BUDGET = 2048 * 24
# Exact products with every partial sum at most FLOAT_EXACT run in float64
# BLAS, _ROW_BLOCK rows at a time; x^t M x needs _FLOAT_MIN_TERMS terms, too.
_FLOAT_MIN_TERMS = 256
_ROW_BLOCK = 4096

IntRows = tuple[tuple[int, ...], ...]


@dataclass(frozen=True, eq=False)
class VecResult:
    """The least value of Q[x] (shortest vectors, one per +/- pair) or of
    Q[x - c] (closest vectors) over Z^d, and every x attaining it.

    ``array`` holds the minimizers as integer rows in ``int_type`` of their
    largest |entry| (Leech's Min Q: int8); ``vectors`` is the same as tuples,
    built when read.
    """

    min: Fraction
    array: np.ndarray

    @cached_property
    def vectors(self) -> tuple[tuple[int, ...], ...]:
        return tuple(map(tuple, self.array.tolist()))


# ---------------------------------------------------------------------------
# LLL on the integer Gram matrix.
# ---------------------------------------------------------------------------


def lll_reduce(q: PQF) -> tuple[PQF, IntRows, IntRows]:
    """LLL-reduce a positive definite Gram matrix with delta = LLL_DELTA.

    Returns (Qred, U, U^-1), U and U^-1 as integer rows, with Qred = U^t Q U
    size-reduced and satisfying the Lovasz condition on the exact
    Gram-Schmidt data.  This is de Weger's integral LLL (Cohen, Algorithm
    2.6.7) on the integer Gram den * Q: the data is the leading minors d_i
    and lam_kj = d_{j+1} mu_kj that Q's ``ldl`` holds, kept current for
    every row with exact integer divisions, so nothing in the loop is
    rational.  U^-1 is built alongside U, and Qred comes back with its
    final (d, lam) as its factorisation; its rational entries are built
    only when read, which ``_reduce`` never does.
    """
    d = q.d
    den = q.den
    g = [list(row) for row in q.gram]
    dm = list(q.ldl.minors)
    lam = [list(row) for row in q.ldl.lam]
    ucols = [[int(i == j) for i in range(d)] for j in range(d)]
    uinv = [[int(i == j) for j in range(d)] for i in range(d)]
    # The Lovasz test B*_k < (delta - mu_{k,k-1}^2) B*_{k-1}, with B*_k =
    # dm[k+1] / dm[k] and mu_{k,k-1} = lam[k][k-1] / dm[k], times
    # dden dm[k] dm[k-1] > 0.
    dnum, dden = LLL_DELTA.numerator, LLL_DELTA.denominator

    def size_reduce(k: int, j: int) -> None:
        # b_k <- b_k - r b_j, applied to Gram, U, U^-1 and lam; |mu_kj| > 1/2
        # makes r = floor(mu_kj + 1/2) nonzero.
        dj, lk, lj = dm[j + 1], lam[k], lam[j]
        if 2 * abs(lk[j]) <= dj:
            return
        r = (2 * lk[j] + dj) // (2 * dj)
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
            lk[i] -= r * lj[i]
        lk[j] -= r * dj

    def swap(k: int) -> None:
        g[k], g[k - 1] = g[k - 1], g[k]
        for row in g:
            row[k], row[k - 1] = row[k - 1], row[k]
        ucols[k], ucols[k - 1] = ucols[k - 1], ucols[k]
        uinv[k], uinv[k - 1] = uinv[k - 1], uinv[k]
        lk, lk1 = lam[k], lam[k - 1]
        for j in range(k - 1):
            lk[j], lk1[j] = lk1[j], lk[j]
        lkk = lk[k - 1]
        b = (dm[k - 1] * dm[k + 1] + lkk * lkk) // dm[k]
        for i in range(k + 1, d):
            li = lam[i]
            t = li[k]
            li[k] = (dm[k + 1] * li[k - 1] - lkk * t) // dm[k]
            li[k - 1] = (b * t + lkk * li[k]) // dm[k + 1]
        dm[k] = b

    k = 1
    while k < d:
        size_reduce(k, k - 1)
        lkk = lam[k][k - 1]
        if dden * dm[k + 1] * dm[k - 1] < dnum * dm[k] * dm[k] - dden * lkk * lkk:
            swap(k)
            k = max(k - 1, 1)
        else:
            for j in range(k - 2, -1, -1):
                size_reduce(k, j)
            k += 1

    # U^t (den Q) U = g has the content of den * Q, which is prime to den, so
    # (den, g) are the integer rows of Qred.
    qred = PQF.from_factors(
        den, tuple(map(tuple, g)), LDLResult(den, tuple(dm), tuple(map(tuple, lam)))
    )
    urows = tuple(tuple(ucols[j][i] for j in range(d)) for i in range(d))
    return qred, urows, tuple(map(tuple, uinv))


# ---------------------------------------------------------------------------
# Enumeration.
# ---------------------------------------------------------------------------


def _enumerate(
    dvec: Sequence[float],
    lmat: Sequence[Sequence[float]],
    center: Sequence[float],
    radius: float,
    half: bool,
) -> np.ndarray:
    """Integer points with float value <= radius (dynamically shrunk), as an
    (n, d) integer array in the walk's order.

    ``half`` keeps only one representative per +/- pair when the center is
    zero, by forcing the highest not-yet-zero level nonnegative; the all-zero
    point is skipped in that mode.  Both walkers return the same points in
    the same order; the dimension picks the faster one.
    """
    walk = _walk_levels if len(dvec) >= BATCH_MIN_DIM else _walk_nodes
    return walk(dvec, lmat, center, radius, half)


def _walk_nodes(
    dvec: Sequence[float],
    lmat: Sequence[Sequence[float]],
    center: Sequence[float],
    radius: float,
    half: bool,
) -> np.ndarray:
    """``_enumerate`` one tree node per Python step."""
    d = len(dvec)
    skip_zero = half and not any(center)
    out: list[tuple[int, ...]] = []
    x = [0] * d
    acc = [0.0] * (d + 1)  # acc[k]: value contributed by levels >= k
    zero = [True] * (d + 1)  # zero[k]: x_i == 0 for every level i >= k
    lo = [0] * d
    hi = [0] * d
    ck = [0.0] * d
    best = radius

    def init_level(k: int) -> None:
        s = center[k]
        for i in range(d - 1, k, -1):
            s -= lmat[i][k] * (x[i] - center[i])
        ck[k] = s
        # acc[k + 1] <= best: it is 0 at the top level, and below that the
        # value just checked against best, which only leaves shrink.
        spread = sqrt((best - acc[k + 1]) / dvec[k])
        lo[k] = ceil(s - spread - 1e-9)
        hi[k] = floor(s + spread + 1e-9)
        if skip_zero and lo[k] < 0 and zero[k + 1]:
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
            if not (skip_zero and zero[1] and x[0] == 0):
                out.append(tuple(x))
                nb = val * RADIUS_INFLATION
                if nb < best:
                    best = nb
            x[0] += 1
            continue
        acc[k] = val
        zero[k] = zero[k + 1] and x[k] == 0
        k -= 1
        init_level(k)
    return np.array(out, dtype=np.int64).reshape(len(out), d)


def _walk_levels(
    dvec: Sequence[float],
    lmat: Sequence[Sequence[float]],
    center: Sequence[float],
    radius: float,
    half: bool,
) -> np.ndarray:
    """``_enumerate`` one chunk of nodes of one tree level per numpy step.

    A depth-first stack holds chunks of n nodes of one level k: the link
    (x_{k+1}, parent index, parent chunk's link) that leaves read their
    x_{k+1..d-1} back by, the partial centers of levels 0..k as a (k + 1) x n
    array of at most _FLOAT_BUDGET floats (or one node), the value of the
    levels above k and one flag: node 0 has every level above k zero.  With
    ``half`` that node is node 0 of the first chunk at its level, as its
    first child is x = 0 at value 0, always kept.  A chunk's children come at
    once, in the node walker's order and by its float operations.  The
    node walker shrinks the radius after each leaf; here a leaf is kept iff its
    value is at most the radius shrunk by every leaf before it (the same
    leaves), and inner levels prune with the radius of the last leaf batch,
    which only adds nodes whose leaves are all dropped.
    """
    d = len(dvec)
    skip_zero = half and not any(center)
    lower = np.array(lmat)
    cen = np.array(center, dtype=float)
    best = radius
    leaves = []
    stack = [(d - 1, None, cen[:, None], np.zeros(1), skip_zero)]
    while stack:
        k, link, cs, acc, zero = stack.pop()
        ck = cs[k]
        rem = best - acc
        spread = np.sqrt(np.maximum(rem, 0.0) / dvec[k])
        lo = np.ceil(ck - spread - 1e-9)
        if zero:
            lo[0] = 0.0
        counts = np.floor(ck + spread + 1e-9) - lo + 1.0
        counts[rem < 0.0] = 0.0
        counts = np.maximum(counts, 0.0, out=counts).astype(np.int64)
        total = int(counts.sum())
        if not total:
            continue
        parent = np.repeat(np.arange(len(acc)), counts)
        starts = lo.astype(np.int64) - (np.cumsum(counts) - counts)
        xk = np.arange(total) + starts[parent]
        diff = xk - ck[parent]
        val = acc[parent] + dvec[k] * diff * diff
        keep = val <= best
        if k == 0 and zero:
            keep[0] = False
        if not keep.all():
            parent, xk, val = parent[keep], xk[keep], val[keep]
        if k == 0:
            if len(val):
                bound = np.minimum.accumulate(np.concatenate(([best], val * RADIUS_INFLATION)))
                keep = val <= bound[:-1]
                cols, idx = [xk[keep]], parent[keep]
                while link is not None:
                    xs, up, link = link
                    cols.append(xs[idx])
                    idx = up[idx]
                leaves.append(small_ints(np.column_stack(cols)))
                best = float(bound[-1])
            continue
        cs = cs[:k].take(parent, axis=1)
        cs -= lower[k, :k, None] * (xk - cen[k])
        step = max(_FLOAT_BUDGET // k, 1)
        for s in reversed(range(0, len(val), step)):
            t = s + step
            stack.append((k - 1, (xk[s:t], parent[s:t], link), cs[:, s:t], val[s:t],
                          zero and s == 0))
    if not leaves:
        return np.zeros((0, d), np.int64)
    return np.concatenate(leaves)


class _IntMatrix:
    """An integer matrix M with max|M| and, where float64 holds M, M in
    float64, taken once for the exact products below."""

    def __init__(self, m: np.ndarray):
        self.m, self.top = m, max_abs(m)
        self.mf = m.astype(float) if self.top <= FLOAT_EXACT else None

    def apply_rows(self, xs: np.ndarray, xtop: int) -> np.ndarray:
        """M x for each integer row x of ``xs``, exactly, with |x_i| <= ``xtop``.

        Each entry sums as many terms as M has columns, each at most xtop max|M|,
        so no partial sum passes that bound: ``_exact_rows`` sums in float64, or
        an einsum in the bound's ``int_type``, which widens X as it goes.
        """
        bound = self.m.shape[1] * max(xtop, 1) * self.top
        if bound > FLOAT_EXACT:
            return np.einsum("ij,kj->ik", xs, self.m, dtype=int_type(bound), casting="unsafe")
        return _exact_rows(xs, bound, lambda x: x @ self.mf.T)

    def exact_values(self, xs: np.ndarray, xtop: int) -> np.ndarray:
        """x^t M x for each integer row x of ``xs``, exactly, with |x_i| <= ``xtop``,
        as ``apply_rows`` computes M x: d^2 terms of at most xtop^2 max|M|.  One
        einsum is faster than the float path below _FLOAT_MIN_TERMS terms."""
        bound = (self.m.shape[1] * max(xtop, 1)) ** 2 * self.top
        if bound > FLOAT_EXACT or xs.size * len(self.m) < _FLOAT_MIN_TERMS:
            return np.einsum("ij,jk,ik->i", xs, self.m, xs, dtype=int_type(bound), casting="unsafe")
        return _exact_rows(xs, bound, lambda x: (x @ self.mf * x).sum(axis=1))


def _exact_rows(xs: np.ndarray, bound: int, product) -> np.ndarray:
    """``product`` of float64 blocks of ``xs`` in ``int_type(bound)``: exact in
    any summation order, as float64 holds every integer up to bound <= 2^53."""
    if len(xs) <= _ROW_BLOCK:
        return product(xs.astype(float)).astype(int_type(bound))
    starts = range(0, len(xs), _ROW_BLOCK)
    return np.concatenate([_exact_rows(xs[s : s + _ROW_BLOCK], bound, product) for s in starts])


@dataclass(frozen=True)
class _Reduction:
    """A form's LLL reduction with what every walk over it needs.

    ``gram / den`` is the reduced Gram Qred = U^t Q U exactly.  ``u`` maps
    reduced coordinates to the form's (x = U y) and ``uinv`` back.  The
    three are integer arrays as ``int_matrix`` gives.  ``dvec`` and ``lmat``
    are the float LDL factors of ``scale * Qred``, where the power of two
    ``scale`` puts the largest pivot in (1/2, 2).  The Gram and U as
    ``_IntMatrix`` are built on first use.
    """

    u: np.ndarray
    uinv: np.ndarray
    gram: np.ndarray
    den: int
    scale: Fraction
    dvec: tuple[float, ...]
    lmat: tuple[tuple[float, ...], ...]

    def radius(self, num: int, den: int) -> float:
        """A walk radius admitting every point of exact value <= num / den.

        Integer true division rounds correctly, as float() of the Fraction
        does, and needs no gcd on the tall heights of ``improve``'s forms.
        """
        scaled = num * self.scale.numerator / (den * self.scale.denominator)
        return scaled * RADIUS_INFLATION

    gram_products = cached_property(lambda self: _IntMatrix(self.gram))
    u_products = cached_property(lambda self: _IntMatrix(self.u))


def _reduce(q: PQF) -> _Reduction:
    """Reduce ``q`` and keep the reduction in its ``reduction`` slot."""
    qred, u, uinv = lll_reduce(q)
    n, den = q.d, qred.den
    dm, lam = qred.ldl.minors, qred.ldl.lam
    # Pivot k is dm[k+1] / (dm[k] den); pivots are compared by
    # cross-multiplying, and read as floats by integer true division, which
    # rounds correctly, as float() of their Fractions does.
    top = low = 0
    for k in range(1, n):
        if dm[k + 1] * dm[top] > dm[top + 1] * dm[k]:
            top = k
        if dm[k + 1] * dm[low] < dm[low + 1] * dm[k]:
            low = k
    if (dm[low + 1] * dm[top]) << MAX_PIVOT_SPAN_BITS < dm[top + 1] * dm[low]:
        raise ValueError(
            "the LDL pivots of the LLL-reduced form span more than "
            f"2^{MAX_PIVOT_SPAN_BITS}, beyond what the float enumeration resolves"
        )
    big = Fraction(dm[top + 1], dm[top] * den)
    e = big.denominator.bit_length() - big.numerator.bit_length()
    up, down = (1 << e, 1) if e >= 0 else (1, 1 << -e)
    q.reduction = _Reduction(
        u=int_matrix(u),
        uinv=int_matrix(uinv),
        gram=int_matrix(qred.gram),
        den=den,
        scale=Fraction(up, down),
        dvec=tuple(dm[k + 1] * up / (dm[k] * den * down) for k in range(n)),
        lmat=tuple(
            tuple(lam[i][j] / dm[j + 1] if j < i else float(i == j) for j in range(n))
            for i in range(n)
        ),
    )
    return q.reduction


def _positive_first(xs: np.ndarray) -> np.ndarray:
    """Each row times the sign of its first nonzero entry."""
    lead = xs[np.arange(len(xs)), (xs != 0).argmax(axis=1)]
    return np.where((lead < 0)[:, None], -xs, xs)


def _minimizers(xs: np.ndarray, vals: np.ndarray) -> tuple[int, np.ndarray]:
    """The least of ``vals`` and the rows of ``xs`` that attain it."""
    if len(vals) == 1:
        return int(vals[0]), xs
    best = vals.min()
    return int(best), xs[vals == best]


def _lex_sorted(xs: np.ndarray) -> np.ndarray:
    return xs[np.lexsort(xs.T[::-1])] if len(xs) > 1 else xs


def shortest_vectors(q: PQF) -> VecResult:
    """Exact arithmetical minimum lambda(Q) and the full Min Q up to sign.

    Canonical representatives have their first nonzero coordinate positive;
    vectors come back lexicographically sorted.
    """
    red = q.reduction or _reduce(q)
    init = int(red.gram.diagonal().min())
    cands = _enumerate(red.dvec, red.lmat, [0.0] * q.d, red.radius(init, red.den), half=True)
    top = max_abs(cands)
    best, winners = _minimizers(cands, red.gram_products.exact_values(cands, top))
    xs = small_ints(red.u_products.apply_rows(winners, top))
    return VecResult(Fraction(best, red.den), _lex_sorted(_positive_first(xs)))


def closest_vectors(q: PQF, c: Sequence[RatLike], bound: Fraction | None = None) -> VecResult:
    """Exact minimum of Q[x - c] over x in Z^d, with all minimizers (ties kept).
    With ``bound``, only a minimum above it may come back inexact, as some larger value."""
    cvec = [Fraction(v) for v in c]
    if len(cvec) != q.d:
        raise ValueError("target length mismatch")
    red = q.reduction or _reduce(q)
    # The target in reduced coordinates is babai + r / cden, integers
    # throughout, with babai the nearest integer point and |r| <= cden / 2; the
    # walk runs around r / cden.
    cden, cint = integer_row(cvec)
    cnum = [sum(map(mul, row, cint)) for row in red.uinv.tolist()]
    babai = [(2 * n + cden) // (2 * cden) for n in cnum]
    r = [n - cden * b for n, b in zip(cnum, babai)]
    vden = red.den * cden * cden
    init = sum(map(mul, r, (sum(map(mul, row, r)) for row in red.gram.tolist())))
    radius = red.radius(init, vden)
    if bound is not None:
        radius = min(radius, red.radius(bound.numerator, bound.denominator))
    cands = _enumerate(red.dvec, red.lmat, [n / cden for n in r], radius, half=False)
    if not len(cands):  # the Babai point is inside every radius but the bound
        cands = np.zeros((1, q.d), np.int64)
    top = max_abs(cands)
    shifted = affine_rows(cands, cden, [-n for n in r], top)
    vals = red.gram_products.exact_values(shifted, cden * top + max(map(abs, r)))
    best, winners = _minimizers(cands, vals)
    xs = red.u_products.apply_rows(winners, top)
    if any(babai):
        ubabai = [sum(map(mul, row, babai)) for row in red.u.tolist()]
        xs = affine_rows(xs, 1, ubabai, q.d * top * red.u_products.top)
    return VecResult(Fraction(best, vden), _lex_sorted(small_ints(xs)))
