import os
import random
import subprocess
import sys
from fractions import Fraction as Fr
from pathlib import Path

import pytest

import periform
from periform.linalg import (
    PQF,
    RANK_PRIME,
    SymForm,
    TangentVector,
    _row_echelon,
    ambient_dim,
    inner,
    ldl,
    rank_span,
    solve_exact,
)


def reconstruct(res, d):
    """L D L^t from an LDLResult, as full rational rows."""
    rows = [[Fr(0)] * d for _ in range(d)]
    for i in range(d):
        for j in range(d):
            acc = Fr(0)
            for k in range(min(i, j) + 1):
                if k < len(res.pivots):
                    acc += res.lower[i][k] * res.pivots[k] * res.lower[j][k]
            rows[i][j] = acc
    return tuple(tuple(r) for r in rows)


class TestLdl:
    def test_identity(self):
        res = ldl(SymForm.identity(2))
        assert res.is_positive_definite
        assert res.pivots == (Fr(1), Fr(1))
        assert res.lower == ((Fr(1), Fr(0)), (Fr(0), Fr(1)))

    def test_hexagonal_gram(self):
        # One step of hand elimination on [[2,1],[1,2]]: pivots 2, 3/2.
        res = ldl(SymForm.from_rows([[2, 1], [1, 2]]))
        assert res.is_positive_definite
        assert res.pivots == (Fr(2), Fr(3, 2))

    def test_indefinite(self):
        # [[1,2],[2,1]]: second pivot 1 - 4 = -3.
        res = ldl(SymForm.from_rows([[1, 2], [2, 1]]))
        assert not res.is_positive_definite
        assert res.pivots == (Fr(1), Fr(-3))

    def test_zero_pivot_with_pivoting(self):
        # A zero pivot already means not positive definite.
        res = ldl(SymForm.from_rows([[0, 1], [1, 0]]))
        assert not res.is_positive_definite
        res = ldl(SymForm.from_rows([[0, 0], [0, 1]]))
        assert not res.is_positive_definite

    def test_singular_all_zero(self):
        res = ldl(SymForm.zero(3))
        assert not res.is_positive_definite

    @pytest.mark.parametrize("seed", range(8))
    def test_roundtrip_random_pd(self, seed):
        # Random PD forms Q = B^t B + I with rational B.
        rng = random.Random(seed)
        d = rng.randint(1, 5)
        b = [[Fr(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(d)] for _ in range(d)]
        rows = [
            [sum(b[k][i] * b[k][j] for k in range(d)) + (1 if i == j else 0)
             for j in range(d)]
            for i in range(d)
        ]
        q = SymForm.from_rows(rows)
        res = ldl(q)
        assert res.is_positive_definite
        assert all(p > 0 for p in res.pivots)
        assert reconstruct(res, d) == q.rows()


class TestDetInverse:
    def test_identity(self):
        q = PQF(SymForm.identity(3))
        det, inv = q.det(), q.inverse()
        assert det == 1
        assert inv == SymForm.identity(3)

    def test_hexagonal(self):
        # Adjugate by hand: inverse of [[2,1],[1,2]] is [[2/3,-1/3],[-1/3,2/3]].
        q = PQF.from_rows([[2, 1], [1, 2]])
        det, inv = q.det(), q.inverse()
        assert det == 3
        assert inv == SymForm.from_rows([[Fr(2, 3), Fr(-1, 3)], [Fr(-1, 3), Fr(2, 3)]])

    @pytest.mark.parametrize("seed", range(6))
    def test_inverse_product_is_identity(self, seed):
        rng = random.Random(100 + seed)
        d = rng.randint(1, 5)
        b = [[Fr(rng.randint(-3, 3)) for _ in range(d)] for _ in range(d)]
        rows = [
            [sum(b[k][i] * b[k][j] for k in range(d)) + (2 if i == j else 0)
             for j in range(d)]
            for i in range(d)
        ]
        q = PQF.from_rows(rows)
        det, inv = q.det(), q.inverse()
        assert det > 0
        prod = [inv.matvec([q.form.entry(i, j) for i in range(d)]) for j in range(d)]
        for j in range(d):
            for i in range(d):
                assert prod[j][i] == (1 if i == j else 0)

    def test_non_pd_rejected(self):
        with pytest.raises(ValueError):
            PQF.from_rows([[1, 2], [2, 1]])


class TestInner:
    def test_identity_pair(self):
        x = TangentVector.make(SymForm.identity(2))
        assert inner(x, x) == 2

    def test_d1_m2(self):
        x = TangentVector.make(SymForm.from_rows([[1]]), [(2,)])
        y = TangentVector.make(SymForm.from_rows([[3]]), [(4,)])
        assert inner(x, y) == 11

    def test_zero(self):
        x = TangentVector.make(SymForm.from_rows([[5, 1], [1, 7]]), [(1, 2)])
        z = TangentVector.make(SymForm.zero(2), [(0, 0)])
        assert inner(x, z) == 0

    def test_dimension_mismatch(self):
        x = TangentVector.make(SymForm.identity(2))
        y = TangentVector.make(SymForm.identity(3))
        with pytest.raises(ValueError):
            inner(x, y)

    @pytest.mark.parametrize("seed", range(100))
    def test_positive_definite_on_random(self, seed):
        rng = random.Random(200 + seed)
        d, m = rng.randint(1, 4), rng.randint(1, 3)
        rows = [[Fr(0)] * d for _ in range(d)]
        for i in range(d):
            for j in range(i, d):
                rows[i][j] = rows[j][i] = Fr(rng.randint(-5, 5), rng.randint(1, 4))
        q = SymForm.from_rows(rows)
        cols = [tuple(Fr(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(d))
                for _ in range(m - 1)]
        x = TangentVector.make(q, cols)
        if x.is_zero():
            assert inner(x, x) == 0
        else:
            assert inner(x, x) > 0

    def test_symmetry_and_bilinearity(self):
        rng = random.Random(7)
        def rand_tv():
            q = SymForm.from_rows([[rng.randint(-3, 3) if i == j else 0 for j in range(3)] for i in range(3)])
            return TangentVector.make(q, [tuple(Fr(rng.randint(-3, 3)) for _ in range(3))])
        x, y, z = rand_tv(), rand_tv(), rand_tv()
        assert inner(x, y) == inner(y, x)
        assert inner(x.add(y.scale(Fr(2, 3))), z) == inner(x, z) + Fr(2, 3) * inner(y, z)


class TestRankSpan:
    def test_coordinate_forms(self):
        e1 = TangentVector.make(SymForm.outer([1, 0]))
        e2 = TangentVector.make(SymForm.outer([0, 1]))
        rank, null = rank_span([e1, e2])
        assert rank == 2
        assert len(null) == 1
        offdiag = null[0]
        assert offdiag.qpart.entry(0, 0) == 0
        assert offdiag.qpart.entry(1, 1) == 0
        assert offdiag.qpart.entry(0, 1) != 0

    def test_hexagonal_minimum_spans(self):
        # The three rank-1 forms of Min A_2 for [[2,1],[1,2]]: x in
        # {(1,0),(0,1),(1,-1)}.
        vecs = [TangentVector.make(SymForm.outer(x)) for x in [(1, 0), (0, 1), (1, -1)]]
        rank, null = rank_span(vecs)
        assert rank == 3
        assert null == ()

    def test_duplicates(self):
        v = TangentVector.make(SymForm.outer([1, 2]))
        rank, _ = rank_span([v, v])
        assert rank == 1

    def test_empty(self):
        rank, null = rank_span([])
        assert rank == 0 and null == ()

    @pytest.mark.parametrize("seed", range(10))
    def test_rank_plus_nullity(self, seed):
        rng = random.Random(300 + seed)
        d, m = rng.randint(1, 3), rng.randint(1, 3)
        n = rng.randint(1, 6)
        vecs = []
        for _ in range(n):
            rows = [[0] * d for _ in range(d)]
            for i in range(d):
                for j in range(i, d):
                    rows[i][j] = rows[j][i] = rng.randint(-3, 3)
            cols = [tuple(Fr(rng.randint(-3, 3)) for _ in range(d)) for _ in range(m - 1)]
            vecs.append(TangentVector.make(SymForm.from_rows(rows), cols))
        rank, null = rank_span(vecs)
        assert rank + len(null) == ambient_dim(d, m)
        # Orthogonal complement really is orthogonal, in the <.,.> sense.
        for nv in null:
            for v in vecs:
                assert inner(nv, v) == 0


def reference_rank_span(vectors):
    """rank_span by a reduced echelon over every row, exactly as before the
    modular row selection."""
    d, m = vectors[0].d, vectors[0].m
    rank, pivcols, rows = _row_echelon([list(v.flatten(weighted=True)) for v in vectors])
    ncols = ambient_dim(d, m)
    basis = []
    for fc in (c for c in range(ncols) if c not in pivcols):
        coords = [Fr(0)] * ncols
        coords[fc] = Fr(1)
        for r, pc in enumerate(pivcols):
            coords[pc] = -rows[r][fc]
        basis.append(TangentVector.unflatten(coords, d, m))
    return rank, tuple(basis)


def random_generators(rng, d, m, rat):
    """Rational combinations of a few random spanning rows, with duplicates and
    zero rows mixed in; ``rat()`` draws one rational."""
    ncols = ambient_dim(d, m)
    span = [[rat() for _ in range(ncols)] for _ in range(rng.randint(1, ncols))]
    rows = []
    for _ in range(rng.randint(1, 2 * ncols)):
        kind = rng.random()
        if kind < 0.1:
            rows.append([Fr(0)] * ncols)
        elif kind < 0.25 and rows:
            rows.append(list(rng.choice(rows)))
        else:
            coefs = [rat() for _ in span]
            rows.append([sum(c * s[k] for c, s in zip(coefs, span)) for k in range(ncols)])
    return [TangentVector.unflatten(r, d, m) for r in rows]


# Weighted flattenings (1, 0, 0) and (1, 2p, 0): dependent mod p, independent
# over Q, so the rows picked mod p miss one and the exact check must add it.
UNLUCKY = (
    TangentVector.make(SymForm(2, (Fr(1), Fr(0), Fr(0)))),
    TangentVector.make(SymForm(2, (Fr(1), Fr(RANK_PRIME), Fr(0)))),
)


class TestRankSpanReference:
    @pytest.mark.parametrize("seed", range(40))
    def test_random_rational(self, seed):
        rng = random.Random(900 + seed)
        d, m = rng.randint(1, 4), rng.randint(1, 3)
        vecs = random_generators(
            rng, d, m, lambda: Fr(rng.randint(-6, 6), rng.randint(1, 5))
        )
        assert rank_span(vecs) == reference_rank_span(vecs)

    @pytest.mark.parametrize("seed", range(4))
    def test_large_heights(self, seed):
        rng = random.Random(950 + seed)
        d, m = rng.choice([(2, 1), (1, 3), (2, 2)])
        vecs = random_generators(
            rng, d, m,
            lambda: Fr(rng.getrandbits(1500) - 2 ** 1499, rng.getrandbits(1500) | 1),
        )
        assert rank_span(vecs) == reference_rank_span(vecs)

    def test_unlucky_prime(self):
        rank, null = rank_span(UNLUCKY)
        assert rank == 2
        assert (rank, null) == reference_rank_span(UNLUCKY)

    def test_unlucky_prime_without_asserts(self):
        # The exact check is control flow, so it survives python -O.
        code = (
            "from fractions import Fraction as Fr\n"
            "from periform.linalg import RANK_PRIME, SymForm, TangentVector, rank_span\n"
            "rows = [TangentVector.make(SymForm(2, (Fr(1), Fr(c), Fr(0))))"
            " for c in (0, RANK_PRIME)]\n"
            "print(rank_span(rows)[0])\n"
        )
        src = str(Path(periform.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run(
            [sys.executable, "-O", "-c", code],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "2"


class TestSolveExact:
    def test_simple(self):
        sol = solve_exact([[Fr(2), Fr(0)], [Fr(0), Fr(4)]], [Fr(1), Fr(2)])
        assert sol == (Fr(1, 2), Fr(1, 2))

    def test_inconsistent(self):
        sol = solve_exact([[Fr(1), Fr(1)], [Fr(2), Fr(2)]], [Fr(1), Fr(3)])
        assert sol is None
