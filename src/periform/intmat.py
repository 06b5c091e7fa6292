"""Exact integer matrix utilities: Hermite normal form and sublattices.

Everything here works on plain nested sequences of Python ints and returns
tuples, so results are hashable and safe to share between threads.
"""

from __future__ import annotations

from itertools import product
from typing import Iterator, Sequence

IntMatrix = tuple[tuple[int, ...], ...]


def transpose(a: Sequence[Sequence[int]]) -> IntMatrix:
    return tuple(zip(*a))


def row_hnf(rows: Sequence[Sequence[int]]) -> IntMatrix:
    """Row-style Hermite normal form of an integer matrix.

    Returns the nonzero rows of the upper-triangular HNF of the row span:
    pivots positive, entries above a pivot reduced into [0, pivot).
    """
    m = [list(r) for r in rows]
    nrows, ncols = len(m), len(m[0])
    rank = 0
    for col in range(ncols):
        piv = None
        for r in range(rank, nrows):
            if m[r][col] != 0:
                piv = r
                break
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        # Euclidean elimination below the pivot.
        for r in range(rank + 1, nrows):
            while m[r][col] != 0:
                q = m[rank][col] // m[r][col]
                m[rank] = [a - q * b for a, b in zip(m[rank], m[r])]
                m[rank], m[r] = m[r], m[rank]
        if m[rank][col] < 0:
            m[rank] = [-v for v in m[rank]]
        for r in range(rank):
            q = m[r][col] // m[rank][col]
            if q:
                m[r] = [a - q * b for a, b in zip(m[r], m[rank])]
        rank += 1
        if rank == nrows:
            break
    return tuple(tuple(r) for r in m[:rank])


def enumerate_sublattice_hnf(d: int, index: int) -> Iterator[IntMatrix]:
    """All sublattices of Z^d of the given index, one HNF matrix each.

    Column-style HNF: lower-triangular, positive diagonal with product equal
    to ``index``, off-diagonal entries of row i reduced modulo the diagonal.
    Columns of each matrix generate the sublattice.
    """
    if d < 1 or index < 1:
        raise ValueError("d and index must be positive")

    def diagonals(dim: int, target: int) -> Iterator[tuple[int, ...]]:
        if dim == 1:
            yield (target,)
            return
        for first in divisors(target):
            for rest in diagonals(dim - 1, target // first):
                yield (first,) + rest

    for diag in diagonals(d, index):
        # Entries below the diagonal in column j live in row i > j and are
        # reduced modulo diag[i].
        slots = [(i, j) for j in range(d) for i in range(j + 1, d)]
        ranges = [range(diag[i]) for i, _ in slots]
        for combo in product(*ranges):
            mat = [[0] * d for _ in range(d)]
            for k in range(d):
                mat[k][k] = diag[k]
            for (i, j), v in zip(slots, combo):
                mat[i][j] = v
            yield tuple(tuple(r) for r in mat)


def divisors(n: int) -> list[int]:
    small = [k for k in range(1, int(n ** 0.5) + 1) if n % k == 0]
    large = [n // k for k in reversed(small) if k * k != n]
    return small + large
