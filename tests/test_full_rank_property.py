"""A property test of the full-rank check: over generated integer matrices
it never claims a rank the exact echelon does not have, and the rank and
complement always equal the reference."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from periform.linalg import RANK_PRIME, _full_rank, echelon, rank_complement
from test_linalg import FLOAT_RANK_TWO, INT_DTYPES, reference_rank_complement


@st.composite
def integer_matrices(draw):
    """(rows, dtype): integer rows that are full rank, rank-deficient
    (repeated or combined rows) or nearly singular, with entries small or
    near 2^31 or 2^53, and a dtype that holds them: any integer type wide
    enough, or Python ints."""
    ncols = draw(st.integers(1, 6))
    full = draw(st.booleans())
    rank = ncols if full else draw(st.integers(0, ncols - 1))
    near = draw(st.sampled_from([0, 2 ** 31, 2 ** 53]))
    small = st.integers(-9, 9)
    signed = st.builds(lambda s, v: s * (near + v), st.sampled_from([-1, 1]), small)
    entry = small | signed if near else small
    # Row k of the span leads column k, so the span has full rank.
    span = [draw(st.lists(entry, min_size=ncols, max_size=ncols)) for _ in range(rank)]
    for k, row in enumerate(span):
        row[k] += 64 * (near or 1)
    rows = list(span) if full else []
    for _ in range(draw(st.integers(0, 2 * ncols))):
        if rows and draw(st.booleans()):
            rows.append(list(draw(st.sampled_from(rows))))
        else:
            coefs = draw(st.lists(st.integers(-2, 2), min_size=rank, max_size=rank))
            rows.append([sum(c * s[k] for c, s in zip(coefs, span)) for k in range(ncols)])
    if draw(st.booleans()):
        # Nearly singular: independent over Q, but dependent mod p or equal
        # in float64.
        pairs = [(1, RANK_PRIME), (2 ** 53, 2 ** 53 + 1), (3, 3 * RANK_PRIME + 1)]
        a, b = draw(st.sampled_from(pairs))
        rows += [[a] + [0] * (ncols - 1), [b] + [1] * (ncols - 1)]
    rows = draw(st.permutations(rows)) if rows else [[0] * ncols]
    top = max(abs(v) for r in rows for v in r)
    dtype = draw(st.sampled_from([t for t in INT_DTYPES if top <= np.iinfo(t).max] + [object]))
    return rows, dtype


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(integer_matrices())
@example(([[1, 0], [0, 1]], np.int8))
@example((FLOAT_RANK_TWO, np.int64))
@example(([[1, 0], [1, 2 * RANK_PRIME]], np.int64))
def test_never_accepts_a_deficient_matrix(case):
    rows, dtype = case
    matrix = np.array(rows, dtype=dtype)
    rank = echelon(rows)[0]
    if _full_rank(matrix):
        assert rank == len(rows[0])
    assert rank_complement(matrix) == reference_rank_complement(rows)
