"""Periodic forms: the parameter space of m-translate lattice packings.

A periodic form X = (Q, t) is a positive definite Gram matrix Q together
with m-1 translation columns in fractional coordinates; the m-th translate
sits at the origin and is never stored.  This module computes the
generalized arithmetical minimum, packing density, and the first and second
order data of the minimum constraints.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import floor, isqrt, pi

import numpy as np

from .lattices import closest_vectors, shortest_vectors
from .linalg import (
    PQF,
    RatLike,
    SymForm,
    TangentVector,
    affine_rows,
    integer_row,
)

__all__ = [
    "PeriodicForm",
    "MinRep",
    "MinBlock",
    "GenMinResult",
    "DensityReport",
    "OverlapError",
    "generalized_min",
    "density",
    "gradient_p",
    "hessian_quadratic",
    "rescale_to_min_one",
    "unit_ball_volume",
]


class OverlapError(ValueError):
    """Raised where a computation requires lambda(X) > 0 but translates meet."""


def _fractional(v: Fraction) -> Fraction:
    return v - floor(v)


@dataclass(frozen=True)
class PeriodicForm:
    """X = (Q, t) with translations reduced mod 1 on ingestion.

    ``minimum`` is lambda(X) with Min X, filled by the first
    ``generalized_min`` of this object and read by every later one (as
    ``PQF.reduction`` holds the form's LLL reduction).  Equality, hashing and
    repr read only (q, tcols), so equal but distinct objects each compute
    their own minimum.
    """

    q: PQF
    tcols: tuple[tuple[Fraction, ...], ...]
    minimum: GenMinResult | None = field(default=None, init=False, compare=False, repr=False)

    @staticmethod
    def make(q: PQF, tcols: Sequence[Sequence[RatLike]] = ()) -> "PeriodicForm":
        cols = tuple(
            tuple(_fractional(Fraction(v)) for v in col) for col in tcols
        )
        if any(len(c) != q.d for c in cols):
            raise ValueError("translation column length mismatch")
        return PeriodicForm(q, cols)

    @staticmethod
    def lattice(q: PQF) -> "PeriodicForm":
        return PeriodicForm(q, ())

    @property
    def d(self) -> int:
        return self.q.d

    @property
    def m(self) -> int:
        return len(self.tcols) + 1

    def translate(self, i: int) -> tuple[Fraction, ...]:
        """t_i for 1 <= i <= m; t_m is the implicit origin."""
        if not 1 <= i <= self.m:
            raise IndexError(f"translate index {i} out of range 1..{self.m}")
        if i == self.m:
            return (Fraction(0),) * self.d
        return self.tcols[i - 1]

    def with_q(self, q: PQF) -> "PeriodicForm":
        return PeriodicForm(q, self.tcols)

    def add_tangent(self, n: TangentVector, eps: RatLike = 1) -> "PeriodicForm":
        """X + eps N; raises ValueError if the Q-part leaves the PD cone.

        Translations are deliberately not wrapped mod 1 here: a tangent step
        must stay on the chart of X, or derivative checks along it break.
        """
        if n.d != self.d or n.m != self.m:
            raise ValueError("tangent vector lives in a different space")
        epsf = Fraction(eps)
        q_new = PQF(self.q.form.add(n.qpart.scale(epsf)))
        cols = tuple(
            tuple(a + epsf * b for a, b in zip(col, ncol))
            for col, ncol in zip(self.tcols, n.tcols)
        )
        return PeriodicForm(q_new, cols)


@dataclass(frozen=True)
class MinRep:
    """One representation w = t_i - t_j - v of the generalized minimum.

    Canonical form: i <= j; for i = j the first nonzero coordinate of w is
    positive.  Each constraint Q[w] is stored once: never its mirror
    (j, i, -v), and the diagonal class, Q[v] for every i = j, as i = j = 1.
    """

    i: int
    j: int
    v: tuple[int, ...]
    w: tuple[Fraction, ...]

    def key(self):
        return (self.i, self.j, self.v)


@dataclass(frozen=True, eq=False)
class MinBlock:
    """The representations w = t - v of the minimum for one pair i <= j.

    t = t_i - t_j, and the rows of ``vs`` are the integer v in ascending
    order, as the lattice walks return them: a fixed-width integer array
    (int8 for small vectors) or Python ints; the one block with i = j is
    (1, 1), stands for all pairs (i, i), and has t = 0 and v = -x for each
    canonical shortest vector x.
    """

    i: int
    j: int
    t: tuple[Fraction, ...]
    vs: np.ndarray


class _RepView(Sequence):
    """The MinReps of a list of blocks, built on the first item access."""

    def __init__(self, blocks: tuple[MinBlock, ...]):
        self._blocks = blocks

    def __len__(self) -> int:
        return sum(len(b.vs) for b in self._blocks)

    def __getitem__(self, k):
        return self._reps[k]

    @cached_property
    def _reps(self) -> tuple[MinRep, ...]:
        return tuple(MinRep(b.i, b.j, v, tuple(a - c for a, c in zip(b.t, v)))
                     for b in self._blocks for v in map(tuple, b.vs.tolist()))

    def __eq__(self, other) -> bool:
        return isinstance(other, Sequence) and list(self) == list(other)


@dataclass(frozen=True)
class GenMinResult:
    """lambda(X) and Min X as blocks, in canonical (i, j, v) order."""

    lam: Fraction
    blocks: tuple[MinBlock, ...]

    @cached_property
    def reps(self) -> Sequence[MinRep]:
        """Min X as MinReps, built only when an item is read."""
        return _RepView(self.blocks)


def generalized_min(x: PeriodicForm) -> GenMinResult:
    """lambda(X) and the complete canonical set of its representations,
    computed on the first call for this object and kept in ``x.minimum``.

    One SVP gives the block (1, 1) for all pairs i = j, whose Q[v] do not
    depend on i.  A pair i < j with t_i - t_j = r + k, r in [0, 1)^d and k
    integral, takes the minimizers of one CVP per class r, capped at the SVP
    minimum and shifted by k; blocks are built only for the pairs whose class
    attains lambda.  lambda = 0 is a reportable state for intersecting
    translates, not an error.
    """
    if x.minimum is not None:
        return x.minimum
    d = x.d
    svp = shortest_vectors(x.q)
    # v = -x: ascending v is descending x.
    lattice_vs = -svp.array[::-1]
    # t_i is ts[i - 1] / den.  With f_i = ts[i - 1] mod den, the digits of
    # codes[i - 1] - codes[j - 1] in base 2 den, each in (-den, den), are
    # f_i - f_j: one integer names the fractional part of t_i - t_j.
    den, flat = integer_row([v for col in x.tcols for v in col])
    ts = [flat[s : s + d] for s in range(0, len(flat), d)] + [[0] * d]
    base = 2 * den
    codes = [sum(a % den * base ** c for c, a in enumerate(t)) for t in ts]
    diffs = [[ci - cj for cj in codes[i + 1 :]] for i, ci in enumerate(codes)]
    cvps, classes = {}, {}  # class r -> its CVP; difference code -> (r, CVP)
    for code in set().union(*diffs):
        r, rest = [], code
        for _ in range(d):
            rest, digit = divmod(rest, base)
            rest += digit >= den
            r.append(digit % den)
        r = tuple(r)
        if r not in cvps:
            cvps[r] = closest_vectors(x.q, [Fraction(c, den) for c in r], svp.min)
        classes[code] = (r, cvps[r])
    lam = min([svp.min] + [cvp.min for cvp in cvps.values()])
    minimal = {code: rc for code, rc in classes.items() if rc[1].min == lam}
    blocks = [MinBlock(1, 1, (Fraction(0),) * d, lattice_vs)] if svp.min == lam else []
    for i, row in enumerate(diffs, 1):
        for j, code in enumerate(row, i + 1):
            if code not in minimal:
                continue
            r, cvp = minimal[code]
            k = [(a - b - c) // den for a, b, c in zip(ts[i - 1], ts[j - 1], r)]
            t = tuple(a - b for a, b in zip(x.translate(i), x.translate(j)))
            vs = affine_rows(cvp.array, 1, k) if any(k) else cvp.array
            blocks.append(MinBlock(i, j, t, vs))
    object.__setattr__(x, "minimum", GenMinResult(lam, tuple(blocks)))
    return x.minimum


def unit_ball_volume(d: int) -> float:
    """vol B^d by the half-integer recurrence v_d = 2 pi v_{d-2} / d."""
    if d < 0:
        raise ValueError("dimension must be nonnegative")
    vols = [1.0, 2.0]
    for k in range(2, d + 1):
        vols.append(2.0 * pi * vols[k - 2] / k)
    return vols[d]


def _sqrt_fraction(v: Fraction) -> float:
    """Floating square root of a nonnegative rational, good to ~15 digits."""
    if v < 0:
        raise ValueError("negative value")
    if v == 0:
        return 0.0
    scale = 10 ** 40
    n = v.numerator * v.denominator * scale ** 2
    return float(Fraction(isqrt(n), v.denominator * scale))


@dataclass(frozen=True)
class DensityReport:
    lam: Fraction
    det: Fraction
    m: int
    center_density_squared: Fraction
    delta_over_ball: float
    delta: float


def density(x: PeriodicForm, lam: Fraction | None = None) -> DensityReport:
    """Packing density data; exact where possible.

    center_density_squared = m^2 lambda^d / (4^d det) is the exact rational
    square of delta / vol B^d; the floating fields are derived from it.
    A form with lambda = 0 (overlapping translates) reports zeros.
    """
    if lam is None:
        lam = generalized_min(x).lam
    det = x.q.det()
    d, m = x.d, x.m
    center2 = Fraction(m * m) * lam ** d / (Fraction(4) ** d * det)
    dob = _sqrt_fraction(center2)
    return DensityReport(lam, det, m, center2, dob, dob * unit_ball_volume(d))


def _constraint(x: PeriodicForm, rep) -> tuple[int, int, list[Fraction]]:
    """(i, j, w = t_i - t_j - v) of a MinRep or of an (i, j, v) triple."""
    i, j, v = (rep.i, rep.j, rep.v) if isinstance(rep, MinRep) else rep
    if len(v) != x.d:
        raise IndexError("integer vector length mismatch")
    return i, j, [a - b - int(c) for a, b, c in zip(x.translate(i), x.translate(j), v)]


def gradient_p(x: PeriodicForm, rep) -> TangentVector:
    """grad p_{i,j,v} at X: (w w^t, ..., 2Qw at column i, ..., -2Qw at j, ...).

    Columns with index m are omitted (the last translate is pinned), and for
    i = j the translational part vanishes.
    """
    i, j, w = _constraint(x, rep)
    qpart = SymForm.outer(w)
    cols = [[Fraction(0)] * x.d for _ in range(x.m - 1)]
    if i != j:
        qw = x.q.matvec(w)
        if i != x.m:
            cols[i - 1] = [c + 2 * val for c, val in zip(cols[i - 1], qw)]
        if j != x.m:
            cols[j - 1] = [c - 2 * val for c, val in zip(cols[j - 1], qw)]
    return TangentVector.make(qpart, cols)


def hessian_quadratic(x: PeriodicForm, rep, n: TangentVector) -> Fraction:
    """Hessian of p_{i,j,v} at X as a quadratic form, evaluated on N.

    Equals 2 Q[u] + 4 u^t Q^N w with u = t_i^N - t_j^N (and t_m^N = 0).
    """
    if n.d != x.d or n.m != x.m:
        raise ValueError("tangent vector lives in a different space")
    i, j, w = _constraint(x, rep)

    def ncol(k: int) -> tuple[Fraction, ...]:
        return ((Fraction(0),) * x.d) if k == x.m else n.tcols[k - 1]

    u = [a - b for a, b in zip(ncol(i), ncol(j))]
    qnw = n.qpart.matvec(w)
    return 2 * x.q.value(u) + 4 * sum(
        (ui * qi for ui, qi in zip(u, qnw)), Fraction(0)
    )


def rescale_to_min_one(x: PeriodicForm) -> PeriodicForm:
    """Scale Q by 1/lambda(X); translations are untouched, density is not.

    X itself when lambda(X) = 1, so its form keeps its reduction.  Scaling Q
    moves no minimizer, so the scaled copy keeps Min X: its ``minimum`` holds
    the same blocks with lambda = 1, and no lattice is walked for it.
    """
    gen_min = generalized_min(x)
    if gen_min.lam == 0:
        raise OverlapError("cannot rescale a form with lambda = 0")
    if gen_min.lam == 1:
        return x
    scaled = x.with_q(x.q.scale(Fraction(1) / gen_min.lam))
    object.__setattr__(scaled, "minimum", GenMinResult(Fraction(1), gen_min.blocks))
    return scaled
