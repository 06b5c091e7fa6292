"""Exact rational linear algebra for symmetric forms and tangent vectors.

All certificate-bearing arithmetic in the package goes through this module
and stays in ``fractions.Fraction`` or Python ints.  A full rank is proved by
an integer Y with Y A strictly diagonally dominant, other ranks modulo a
prime and then exactly over Q.  Floats decide nothing: a float left inverse
proposes Y, whose product is then exact (float64 BLAS under 2^53).  Symmetric
matrices are stored as their upper triangle, so symmetry holds by
construction and the inner product doubles off-diagonal contributions.
``SymForm.integer_rows`` is the one place a form's denominators are cleared:
LLL, congruences and the Voronoi domain all work on the integer Gram den * Q
it returns, which a ``PQF`` keeps.  A form is factored once, in integers:
the leading minors of den * Q and the Gram-Schmidt coefficients they make
integral (``LDLResult``).  Every other exact elimination over Q (Q^-1,
``solve_exact``, ``rank_complement``) is ``echelon``, fraction-free
Gauss-Jordan on integer rows: no Fraction is formed until the result is
read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, frexp, lcm
from operator import mul
from typing import Iterable, Sequence, Union

import numpy as np

Rat = Fraction
RatLike = Union[int, Fraction]

__all__ = [
    "SymForm",
    "PQF",
    "congruence",
    "TangentVector",
    "LDLResult",
    "factor_gram",
    "ldl",
    "inner",
    "rank_span",
    "rank_complement",
    "echelon",
    "ambient_dim",
    "metric_weights",
    "RANK_PRIME",
    "int_type",
    "max_abs",
    "int_matrix",
    "small_ints",
    "affine_rows",
    "independent_rows_modp",
    "integer_row",
    "log2_magnitude",
]

RANK_PRIME = 2147483647  # 2^31 - 1: a product of two residues fits in int64
_MODP_CHUNK = 1024  # rows reduced together by one vectorized elimination step
FLOAT_EXACT = 2 ** 53  # float64 holds every integer up to here: BLAS sums below it are exact
# The fixed-width integer types of int_type, narrowest first, with the
# largest |value| each holds.
_INT_TYPES = tuple((t, int(np.iinfo(t).max)) for t in (np.int8, np.int16, np.int32, np.int64))


def _frac(v: RatLike) -> Fraction:
    if isinstance(v, Fraction):
        return v
    if isinstance(v, int):
        return Fraction(v)
    raise TypeError(f"expected int or Fraction, got {type(v).__name__}")


def _tri_index(d: int, i: int, j: int) -> int:
    # Row-major position of (i, j), i <= j, inside the packed upper triangle.
    return i * d - i * (i - 1) // 2 + (j - i)


@dataclass(frozen=True)
class SymForm:
    """A d x d symmetric matrix of rationals, upper triangle only."""

    d: int
    upper: tuple[Fraction, ...]

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("dimension must be >= 1")
        if len(self.upper) != self.d * (self.d + 1) // 2:
            raise ValueError("wrong number of upper-triangle entries")

    @staticmethod
    def from_rows(rows: Sequence[Sequence[RatLike]]) -> "SymForm":
        d = len(rows)
        if any(len(r) != d for r in rows):
            raise ValueError("matrix not square")
        for i in range(d):
            for j in range(i + 1, d):
                if _frac(rows[i][j]) != _frac(rows[j][i]):
                    raise ValueError(f"matrix not symmetric at ({i},{j})")
        upper = tuple(_frac(rows[i][j]) for i in range(d) for j in range(i, d))
        return SymForm(d, upper)

    @staticmethod
    def zero(d: int) -> "SymForm":
        return SymForm(d, (Fraction(0),) * (d * (d + 1) // 2))

    @staticmethod
    def identity(d: int) -> "SymForm":
        one, zero = Fraction(1), Fraction(0)
        return SymForm(d, tuple(one if i == j else zero for i in range(d) for j in range(i, d)))

    @staticmethod
    def outer(x: Sequence[RatLike]) -> "SymForm":
        """The rank-1 form x x^t."""
        xs = [_frac(v) for v in x]
        d = len(xs)
        return SymForm(d, tuple(xs[i] * xs[j] for i in range(d) for j in range(i, d)))

    def entry(self, i: int, j: int) -> Fraction:
        if i > j:
            i, j = j, i
        return self.upper[_tri_index(self.d, i, j)]

    def rows(self) -> tuple[tuple[Fraction, ...], ...]:
        return tuple(
            tuple(self.entry(i, j) for j in range(self.d)) for i in range(self.d)
        )

    def matvec(self, x: Sequence[RatLike]) -> tuple[Fraction, ...]:
        xs = [_frac(v) for v in x]
        if len(xs) != self.d:
            raise ValueError("vector length mismatch")
        return tuple(
            sum((self.entry(i, j) * xs[j] for j in range(self.d)), Fraction(0))
            for i in range(self.d)
        )

    def value(self, x: Sequence[RatLike]) -> Fraction:
        """Q[x] = x^t Q x."""
        xs = [_frac(v) for v in x]
        acc = Fraction(0)
        for i in range(self.d):
            acc += self.entry(i, i) * xs[i] * xs[i]
            for j in range(i + 1, self.d):
                acc += 2 * self.entry(i, j) * xs[i] * xs[j]
        return acc

    def trace_inner(self, other: "SymForm") -> Fraction:
        """<Q, Q'> = trace(Q Q'): off-diagonal entries count twice."""
        if self.d != other.d:
            raise ValueError("dimension mismatch")
        acc = Fraction(0)
        k = 0
        for i in range(self.d):
            acc += self.upper[k] * other.upper[k]
            k += 1
            for _ in range(i + 1, self.d):
                acc += 2 * self.upper[k] * other.upper[k]
                k += 1
        return acc

    def scale(self, c: RatLike) -> "SymForm":
        cf = _frac(c)
        return SymForm(self.d, tuple(cf * v for v in self.upper))

    def add(self, other: "SymForm") -> "SymForm":
        if self.d != other.d:
            raise ValueError("dimension mismatch")
        return SymForm(self.d, tuple(a + b for a, b in zip(self.upper, other.upper)))

    def sub(self, other: "SymForm") -> "SymForm":
        return self.add(other.scale(-1))

    def is_zero(self) -> bool:
        return all(v == 0 for v in self.upper)

    def integer_rows(self) -> tuple[int, tuple[tuple[int, ...], ...]]:
        """(den, rows): rows = den * Q in Python ints, den the lcm of the
        entries' denominators."""
        den, upper = integer_row(self.upper)
        d = self.d
        return den, tuple(
            tuple(upper[_tri_index(d, min(i, j), max(i, j))] for j in range(d))
            for i in range(d)
        )


@dataclass(frozen=True, slots=True)
class LDLResult:
    """Q = L diag(D) L^t, kept as the integral Gram-Schmidt data of den * Q.

    ``minors`` are the leading principal minors d_0 = 1, d_1, ... of the
    integer Gram den * Q, up to and including the first that is not
    positive; ``lam[k][j]`` = d_{j+1} L_kj is an integer for every column j
    eliminated before that minor.  D_k = d_{k+1} / (d_k den) and
    L_kj = lam[k][j] / d_{j+1}, but nothing in the package forms these
    Fractions: LLL and the walks read the integers, and solving with Q goes
    through ``echelon``.
    """

    den: int
    minors: tuple[int, ...]
    lam: tuple[tuple[int, ...], ...]

    @property
    def is_positive_definite(self) -> bool:
        return len(self.minors) > len(self.lam) and self.minors[-1] > 0


def factor_gram(den: int, rows: Sequence[Sequence[int]]) -> LDLResult:
    """The LDLResult of the integer Gram ``rows`` = den * Q, one column at a
    time (de Weger 1987; Cohen, Algorithm 2.6.7).

    By Sylvester's identity every division is exact while the minors before
    it are nonzero; the first minor <= 0 stops the elimination, since a
    positive definite form has only positive leading minors.
    """
    n = len(rows)
    d = [1]
    lam: list[list[int]] = [[] for _ in range(n)]
    for j in range(n):
        lj = lam[j]
        u = rows[j][j]
        for i in range(j):
            u = (d[i + 1] * u - lj[i] * lj[i]) // d[i]
        d.append(u)
        if u <= 0:
            break
        for k in range(j + 1, n):
            lk = lam[k]
            u = rows[k][j]
            for i in range(j):
                u = (d[i + 1] * u - lk[i] * lj[i]) // d[i]
            lk.append(u)
    return LDLResult(den, tuple(d), tuple(map(tuple, lam)))


def ldl(q: SymForm) -> LDLResult:
    """Exact LDL^t of a symmetric rational matrix, without pivoting, as the
    integral data of its integer Gram (``LDLResult``).

    For positive definite input Q = L diag(D) L^t holds exactly.  The first
    pivot <= 0 stops the decomposition with ``is_positive_definite = False``:
    a positive definite form has only positive pivots in any order.
    """
    return factor_gram(*q.integer_rows())


@dataclass(init=False, repr=False, unsafe_hash=True, slots=True)
class PQF:
    """A positive definite quadratic form with its integral Gram-Schmidt data.

    ``den`` and ``gram`` are ``SymForm.integer_rows`` of the form, taken
    once: LLL, the walks, congruences and the Voronoi domain read the
    integer Gram den * Q there.  ``ldl`` factors it once; its positive
    leading minors are the positive-definiteness check, and ``det`` and
    ``lattices.lll_reduce`` read them.  ``inverse`` is one ``echelon`` of
    [den * Q | I].  ``form``, the rational entries, is built when first read,
    and ``reduction`` by the first lattice walk on this object.  Equality and
    hashing read only (den, gram), which ``integer_rows`` makes unique.
    """

    den: int
    gram: tuple[tuple[int, ...], ...]
    ldl: LDLResult = field(compare=False)
    reduction: object = field(compare=False)
    _form: SymForm | None = field(compare=False)

    def __init__(self, form: SymForm):
        den, gram = form.integer_rows()
        res = factor_gram(den, gram)
        if not res.is_positive_definite:
            raise ValueError("form is not positive definite")
        self._form, self.den, self.gram, self.ldl, self.reduction = form, den, gram, res, None

    @staticmethod
    def from_factors(den: int, gram: tuple[tuple[int, ...], ...], res: LDLResult) -> "PQF":
        """The PQF of gram / den from data known to be its own: (den, gram) its
        ``integer_rows`` and ``res`` their factorisation, with positive
        minors.  Nothing is checked, so only a caller that computed them
        exactly may pass them, as ``lattices.lll_reduce`` does."""
        q = object.__new__(PQF)
        q._form, q.den, q.gram, q.ldl, q.reduction = None, den, gram, res, None
        return q

    @staticmethod
    def from_rows(rows: Sequence[Sequence[RatLike]]) -> "PQF":
        return PQF(SymForm.from_rows(rows))

    @property
    def form(self) -> SymForm:
        if self._form is None:
            self._form = SymForm(self.d, tuple(Fraction(v, self.den)
                                               for i, row in enumerate(self.gram) for v in row[i:]))
        return self._form

    @property
    def d(self) -> int:
        return len(self.gram)

    def det(self) -> Fraction:
        return Fraction(self.ldl.minors[-1], self.den ** self.d)

    def value(self, x: Sequence[RatLike]) -> Fraction:
        return self.form.value(x)

    def matvec(self, x: Sequence[RatLike]) -> tuple[Fraction, ...]:
        return self.form.matvec(x)

    def inverse(self) -> SymForm:
        """Q^-1 = den adj(G) / det(G) for G = den * Q: the echelon of [G | I]
        is [det(G) I | adj(G)], G being positive definite."""
        d = self.d
        _, _, rows, det = echelon([[*g, *(int(i == j) for j in range(d))]
                                   for i, g in enumerate(self.gram)])
        return SymForm(d, tuple(Fraction(self.den * rows[i][d + j], det)
                                for i in range(d) for j in range(i, d)))

    def congruent(self, u_cols: Sequence[Sequence[int]]) -> "PQF":
        """U^t Q U for an integer matrix U given by columns, from the integer
        Gram; U must have independent columns."""
        return congruence(self.den, self.gram, u_cols)

    def scale(self, c: RatLike) -> "PQF":
        cf = _frac(c)
        if cf <= 0:
            raise ValueError("scale factor must be positive")
        return PQF(self.form.scale(cf))

    def __repr__(self) -> str:
        return f"PQF({self.form.rows()!r})"


def congruence(den: int, gram: Sequence[Sequence[int]], u_cols: Sequence[Sequence[int]]) -> PQF:
    """U^t (gram / den) U for integer rows ``gram`` and an integer matrix U
    given by columns, which must be independent; only the result is factored."""
    if len(u_cols) == 0 or any(len(c) != len(gram) for c in u_cols):
        raise ValueError("column length mismatch")
    qu = [[sum(map(mul, row, c)) for row in gram] for c in u_cols]
    n = len(u_cols)
    return PQF(SymForm(n, tuple(
        Fraction(sum(map(mul, u_cols[i], qu[j])), den) for i in range(n) for j in range(i, n)
    )))


@dataclass(frozen=True)
class TangentVector:
    """An element (Q^N, t^N) of the tangent space of d x (m) periodic forms.

    ``tcols`` holds the m-1 translation columns; the last translate is pinned
    to the origin and never stored.
    """

    qpart: SymForm
    tcols: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        if any(len(c) != self.qpart.d for c in self.tcols):
            raise ValueError("translation column length mismatch")

    @staticmethod
    def make(qpart: SymForm, tcols: Iterable[Sequence[RatLike]] = ()) -> "TangentVector":
        cols = tuple(tuple(_frac(v) for v in c) for c in tcols)
        return TangentVector(qpart, cols)

    @property
    def d(self) -> int:
        return self.qpart.d

    @property
    def m(self) -> int:
        return len(self.tcols) + 1

    def scale(self, c: RatLike) -> "TangentVector":
        cf = _frac(c)
        return TangentVector(
            self.qpart.scale(cf),
            tuple(tuple(cf * v for v in col) for col in self.tcols),
        )

    def add(self, other: "TangentVector") -> "TangentVector":
        _check_same_space(self, other)
        return TangentVector(
            self.qpart.add(other.qpart),
            tuple(
                tuple(a + b for a, b in zip(c1, c2))
                for c1, c2 in zip(self.tcols, other.tcols)
            ),
        )

    def sub(self, other: "TangentVector") -> "TangentVector":
        return self.add(other.scale(-1))

    def is_zero(self) -> bool:
        return self.qpart.is_zero() and all(
            v == 0 for col in self.tcols for v in col
        )

    def flatten(self, weighted: bool = False) -> tuple[Fraction, ...]:
        """Coordinates: packed upper triangle, then translation columns.

        With ``weighted=True`` the off-diagonal entries are doubled, so the
        plain dot product of a weighted and an unweighted flattening equals
        the inner product on the space.
        """
        out: list[Fraction] = []
        d = self.qpart.d
        k = 0
        for i in range(d):
            out.append(self.qpart.upper[k])
            k += 1
            for _ in range(i + 1, d):
                out.append(2 * self.qpart.upper[k] if weighted else self.qpart.upper[k])
                k += 1
        for col in self.tcols:
            out.extend(col)
        return tuple(out)

    @staticmethod
    def unflatten(coords: Sequence[RatLike], d: int, m: int) -> "TangentVector":
        need = d * (d + 1) // 2 + (m - 1) * d
        if len(coords) != need:
            raise ValueError("coordinate count mismatch")
        tri = tuple(_frac(v) for v in coords[: d * (d + 1) // 2])
        cols = []
        pos = d * (d + 1) // 2
        for _ in range(m - 1):
            cols.append(tuple(_frac(v) for v in coords[pos : pos + d]))
            pos += d
        return TangentVector(SymForm(d, tri), tuple(cols))


def _check_same_space(x: TangentVector, y: TangentVector) -> None:
    if x.d != y.d or x.m != y.m:
        raise ValueError(
            f"tangent vectors live in different spaces: "
            f"(d={x.d}, m={x.m}) vs (d={y.d}, m={y.m})"
        )


def inner(x: TangentVector, y: TangentVector) -> Fraction:
    """<X, X'> = trace(Q Q') + sum_i t_i^t t'_i."""
    _check_same_space(x, y)
    acc = x.qpart.trace_inner(y.qpart)
    for c1, c2 in zip(x.tcols, y.tcols):
        acc += sum((a * b for a, b in zip(c1, c2)), Fraction(0))
    return acc


def ambient_dim(d: int, m: int) -> int:
    """dim S^{d,m} = (d+1 choose 2) + (m-1) d."""
    return comb(d + 1, 2) + (m - 1) * d


def metric_weights(d: int, m: int) -> tuple[int, ...]:
    """The inner product in weighted coordinates, doubled to integers.

    Weighted coordinates (``flatten(weighted=True)``) double the off-diagonal
    entries, so <x, y> = sum_i w_i a_i b_i / 2 for the weighted coordinates a
    of x and b of y, with w_i = 1 off the diagonal and 2 elsewhere; and the
    w_i a_i / 2 are the plain coordinates of x.
    """
    tri = tuple(2 if i == j else 1 for i in range(d) for j in range(i, d))
    return tri + (2,) * ((m - 1) * d)


def echelon(rows: Sequence[Sequence[int]]) -> tuple[int, list[int], list[list[int]], int]:
    """Fraction-free Gauss-Jordan elimination of integer rows (Bareiss 1968).

    Returns (rank, pivot columns, rows, D).  Each column's pivot is the first
    nonzero entry at or below the current rank.  Every division is exact,
    since each entry stays a minor of the input.  Every pivot entry ends
    equal to the common denominator D != 0 (1 at rank 0), every other entry
    of a pivot column is 0, and the rows past the rank are zero, so
    rows[:rank] / D is the reduced echelon form of the input.
    """
    out = [list(r) for r in rows]
    ncols = len(out[0]) if out else 0
    rank, prev = 0, 1
    pivcols: list[int] = []
    for col in range(ncols):
        if rank == len(out):
            break
        piv = next((r for r in range(rank, len(out)) if out[r][col]), None)
        if piv is None:
            continue
        out[rank], out[piv] = out[piv], out[rank]
        prow = out[rank]
        p = prow[col]
        for r, row in enumerate(out):
            if r != rank:
                f = row[col]
                out[r] = ([(p * a - f * b) // prev for a, b in zip(row, prow)] if f
                          else [p * a // prev for a in row])
        pivcols.append(col)
        prev = p
        rank += 1
    return rank, pivcols, out, prev


def int_type(bound: int) -> type:
    """The narrowest of int8, int16, int32 and int64 that holds every integer
    of absolute value at most ``bound``, or ``object`` (Python ints) beyond
    int64.  Every exact integer array of the package takes its type here."""
    for dtype, top in _INT_TYPES:
        if bound <= top:
            return dtype
    return object


def max_abs(a: np.ndarray) -> int:
    """The largest |entry| of an integer array, as a Python int; 0 if empty."""
    return max(-int(a.min()), int(a.max())) if a.size else 0


def int_matrix(rows: Sequence[Sequence[int]]) -> np.ndarray:
    """Integer rows as a 2-D array in ``int_type`` of their largest |entry|."""
    return np.array(rows, dtype=int_type(max((abs(v) for row in rows for v in row), default=0)))


def small_ints(rows: np.ndarray) -> np.ndarray:
    """An integer array in ``int_type`` of its largest |entry|."""
    return rows.astype(int_type(max_abs(rows)), copy=False)


def affine_rows(
    rows: np.ndarray, a: int, b: Sequence[int], top: int | None = None
) -> np.ndarray:
    """a x + b for each integer row x, exactly, in ``int_type`` of
    |a| max|x| + max|b|.  ``top`` bounds |x| when the caller knows it."""
    if top is None:
        top = max_abs(rows)
    dtype = int_type(abs(a) * max(top, 1) + max(map(abs, b), default=0))
    return rows.astype(dtype) * a + np.array(b, dtype=dtype)


def _eliminate_modp(block: np.ndarray, row: np.ndarray, col: int) -> None:
    """Clear column ``col`` of ``block`` in place with the monic pivot ``row``."""
    factors = block[:, col]
    nz = factors != 0
    if nz.any():
        block[nz] = (block[nz] - factors[nz, None] * row[None, :]) % RANK_PRIME


def _head(rows) -> tuple[np.ndarray, np.ndarray]:
    """(indices, rows there) of the rows the rank reads first: all of at most
    k = max(``_MODP_CHUNK``, 2 ncols) rows; past k, k rows evenly spaced over
    the matrix, in order (a periodic set's rows come translate pair by pair).
    Twice as many rows as columns leave a wide domain a tall head, which
    ``_full_rank`` can prove full."""
    n, ncols = rows.shape
    k = min(n, max(_MODP_CHUNK, 2 * ncols))
    index = np.arange(k) * n // k
    return index, rows[index]


def _full_rank(head: np.ndarray) -> bool:
    """True only if the integer rows ``head`` span every column, by one exact
    check (Rump, *Acta Numerica* 19, 2010): for X a float left inverse of
    ``head`` and Y = rint(2^s X), Y head is strictly diagonally dominant, so
    nonsingular (Levy-Desplanques).  s = f - e, for max|X| < 2^e, keeps
    |Y| <= 2^f, and n ncols max|head| 2^f <= 2^52 (Y = 0 if f < 0): every
    partial sum of Y head and of a row of its absolute values is an exact
    float64.  The head may be tall: it is the ``_head`` sample, of up to
    max(1 024, 2 ncols) rows, and Y head is still ncols x ncols.  False
    declines: Python-int rows, fewer rows than columns, a failed or
    non-finite X, or no dominance."""
    n, ncols = head.shape
    if head.dtype == object or n < ncols:
        return False
    f = (FLOAT_EXACT // 2 // max(n * ncols * max_abs(head), 1)).bit_length() - 1
    a = head.astype(float)
    try:
        x = np.linalg.inv(a.T @ a) @ a.T
    except np.linalg.LinAlgError:
        return False
    xmax = max(x.max(initial=0), -x.min(initial=0))  # NaN if x holds one
    if not np.isfinite(xmax):
        return False
    np.rint(np.ldexp(x, f - frexp(xmax)[1], out=x), out=x)  # Y, in place of X
    b = np.abs(x @ a)
    return bool((b.sum(axis=1) < 2 * b.diagonal()).all())


def independent_rows_modp(rows, limit: int, head: tuple[np.ndarray, np.ndarray]) -> list[int]:
    """Indices of rows independent mod RANK_PRIME, taken greedily, at most ``limit``.

    ``rows`` is an integer array of any type ``int_type`` names, or a row
    source with its ``shape``, ``dtype`` and ``rows[index]`` (the Voronoi
    domain's ``GradientRows``, which builds only the rows read here); it is
    not modified.  The rows of one block at a time are read and reduced mod
    p, in int64 unless they are Python ints (the narrower types cannot hold
    RANK_PRIME).
    Each row is reduced against the rows taken before it and is taken when
    something is left.  A set of integer rows independent mod p is independent
    over Q, so the rank over Q is at least the length of the result.
    ``head``, as ``_head(rows)`` gives it, is the first block, with its rows
    already read and taken in their order, and the rows outside it follow in
    order, in chunks of ``_MODP_CHUNK``.
    """
    index, top = head
    order = np.delete(np.arange(rows.shape[0]), index)
    blocks = [index] + [order[s : s + _MODP_CHUNK] for s in range(0, len(order), _MODP_CHUNK)]
    taken: list[int] = []
    basis: list[tuple[np.ndarray, int]] = []
    wide = object if rows.dtype == object else np.int64
    for k, block in enumerate(blocks):
        chunk = (rows[block] if k else top).astype(wide, copy=False)
        chunk = (chunk % RANK_PRIME).astype(np.int64, copy=False)
        for brow, col in basis:
            _eliminate_modp(chunk, brow, col)
        for r in range(chunk.shape[0]):
            nzc = np.flatnonzero(chunk[r])
            if nzc.size == 0:
                continue
            col = int(nzc[0])
            inv = pow(int(chunk[r, col]), RANK_PRIME - 2, RANK_PRIME)
            row = chunk[r] * inv % RANK_PRIME
            taken.append(int(block[r]))
            if len(taken) >= limit:
                return taken
            basis.append((row, col))
            _eliminate_modp(chunk[r + 1 :], row, col)
    return taken


def integer_row(coords: Sequence[Fraction]) -> tuple[int, list[int]]:
    """(s, c): c = s * coords in integers, s the lcm of the denominators."""
    s = lcm(*(v.denominator for v in coords))
    return s, [v.numerator * (s // v.denominator) for v in coords]


def log2_magnitude(v: Fraction) -> int:
    """k with 2^(k-1) < |v| < 2^(k+1), for v != 0, from bit lengths alone."""
    return v.numerator.bit_length() - v.denominator.bit_length()


def rank_complement(rows) -> tuple[int, list[list[Fraction]]]:
    """Exact rank of an integer matrix and a basis of {c : row . c = 0 for all rows}.

    ``rows`` is an integer array or a row source, as ``independent_rows_modp``
    takes.  When ``_full_rank`` proves the ``_head`` rows (every row of a
    matrix of at most k = max(1 024, 2 ncols) rows, or k rows evenly spaced
    over a taller one) span every column, no other row is read.  Otherwise
    the rows independent mod RANK_PRIME are picked, head first, and when they
    fill the space no other row is read either.
    Otherwise every row is read at once, the reduced echelon form of the
    picked rows gives the complement, and every row is checked exactly
    against it.  A row that fails the check (the prime divided one of its
    minors) joins the picked rows, raising the rank.  The reduced echelon
    form of a row space is unique, so the result is the one an echelon over
    all rows gives.
    """
    ncols, head = rows.shape[1], _head(rows)
    if _full_rank(head[1]):
        return ncols, []
    taken = independent_rows_modp(rows, ncols, head)
    if len(taken) == ncols:
        return ncols, []
    exact = rows[np.arange(rows.shape[0])].tolist()
    while True:
        rank, pivcols, ech, den = echelon([exact[i] for i in taken])
        # den times each complement vector: den at its free column and minus
        # the echelon entries of that column at the pivot columns.
        checks = []
        for fc in (c for c in range(ncols) if c not in pivcols):
            coords = [0] * ncols
            coords[fc] = den
            for r, pc in enumerate(pivcols):
                coords[pc] = -ech[r][fc]
            checks.append(coords)
        bad = next(
            (i for i, row in enumerate(exact)
             if any(sum(map(mul, row, c)) for c in checks)),
            None,
        )
        if bad is None:
            return rank, [[Fraction(v, den) for v in c] for c in checks]
        taken.append(bad)


def rank_span(vectors: Sequence[TangentVector]) -> tuple[int, tuple[TangentVector, ...]]:
    """Exact rank of the span and a basis of its orthogonal complement.

    Orthogonality is with respect to the inner product on S^{d,m}; an empty
    input is allowed only through the typed helpers that know (d, m), so here
    it yields rank 0 with no basis information.  The vectors enter
    ``rank_complement`` as integer rows of weighted coordinates.
    """
    if not vectors:
        return 0, ()
    d, m = vectors[0].d, vectors[0].m
    for v in vectors[1:]:
        _check_same_space(vectors[0], v)
    rows = int_matrix([integer_row(v.flatten(weighted=True))[1] for v in vectors])
    rank, complement = rank_complement(rows)
    return rank, tuple(TangentVector.unflatten(c, d, m) for c in complement)


def solve_exact(
    matrix: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]
) -> tuple[Fraction, ...] | None:
    """Solve a square or rectangular rational system; None if inconsistent.

    For underdetermined systems an arbitrary solution (free vars = 0) comes
    back, which is all the cone code needs.  Each augmented row is cleared
    of denominators on its own, which leaves the solutions as they are.
    """
    if not matrix:
        return ()
    ncols = len(matrix[0])
    _, pivcols, rows, den = echelon(
        [integer_row([*row, b])[1] for row, b in zip(matrix, rhs)])
    if ncols in pivcols:
        return None
    x = [Fraction(0)] * ncols
    for r, pc in enumerate(pivcols):
        x[pc] = Fraction(rows[r][ncols], den)
    return tuple(x)
