import functools
import json
import random
from fractions import Fraction as Fr
from pathlib import Path

import numpy as np
import pytest

import reference_linalg
import reference_lll
from helpers import run_python
from periform.catalog import get
from periform.linalg import (
    _MODP_CHUNK,
    _full_rank,
    _head,
    PQF,
    RANK_PRIME,
    SymForm,
    TangentVector,
    ambient_dim,
    echelon,
    independent_rows_modp,
    inner,
    int_matrix,
    ldl,
    max_abs,
    rank_complement,
    rank_span,
    solve_exact,
)
from reference_linalg import det_bareiss, lower, pivots, row_echelon


def reconstruct(res, d):
    """L D L^t from an LDLResult, as full rational rows, with L and D built
    from its (minors, lam)."""
    low, piv = lower(res), pivots(res)
    rows = [[Fr(0)] * d for _ in range(d)]
    for i in range(d):
        for j in range(d):
            acc = Fr(0)
            for k in range(min(i, j) + 1):
                if k < len(piv):
                    acc += low[i][k] * piv[k] * low[j][k]
            rows[i][j] = acc
    return tuple(tuple(r) for r in rows)


@pytest.mark.parametrize("dtype", [np.int8, np.int16, np.int32, np.int64])
def test_max_abs_at_type_minimum(dtype):
    """A type's least value -2^(b-1) has no |value| in the type; np.abs of it
    stays negative, and the bound must still be 2^(b-1)."""
    info = np.iinfo(dtype)
    assert max_abs(np.array([info.min, 3], dtype)) == 2 ** (info.bits - 1)
    assert max_abs(np.array([[info.max], [info.min + 1]], dtype)) == info.max
    assert max_abs(np.array([-3, 2], dtype)) == 3
    assert max_abs(np.zeros((0, 2), dtype)) == 0


class TestLdl:
    def test_identity(self):
        res = ldl(SymForm.identity(2))
        assert res.is_positive_definite
        assert pivots(res) == (Fr(1), Fr(1))
        assert lower(res) == ((Fr(1), Fr(0)), (Fr(0), Fr(1)))

    def test_hexagonal_gram(self):
        # One step of hand elimination on [[2,1],[1,2]]: pivots 2, 3/2.
        res = ldl(SymForm.from_rows([[2, 1], [1, 2]]))
        assert res.is_positive_definite
        assert pivots(res) == (Fr(2), Fr(3, 2))

    def test_indefinite(self):
        # [[1,2],[2,1]]: second pivot 1 - 4 = -3.
        res = ldl(SymForm.from_rows([[1, 2], [2, 1]]))
        assert not res.is_positive_definite
        assert pivots(res) == (Fr(1), Fr(-3))

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
        assert all(p > 0 for p in pivots(res))
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


def _symmetric(rows) -> SymForm:
    d = len(rows)
    return SymForm.from_rows([[rows[min(i, j)][max(i, j)] for j in range(d)] for i in range(d)])


def _gram_family(rng, d):
    """B^t B + diag(1/k) for a random rational B: positive definite."""
    b = [[Fr(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(d)] for _ in range(d)]
    return SymForm.from_rows([
        [sum(b[k][i] * b[k][j] for k in range(d)) + (Fr(1, rng.randint(1, 7)) if i == j else 0)
         for j in range(d)]
        for i in range(d)
    ])


def _factor_cases():
    """(id, form) pairs: positive definite, indefinite and singular forms of
    d = 1..6, at scales up to 2^+-1100 and heights past 1000 bits."""
    rng = random.Random("integral factors")
    cases = [
        ("d1-one", SymForm.from_rows([[1]])),
        ("d1-rational", SymForm.from_rows([[Fr(7, 3)]])),
        ("d1-zero", SymForm.zero(1)),
        ("d1-negative", SymForm.from_rows([[Fr(-2, 5)]])),
        ("hyperbolic", SymForm.from_rows([[0, 1], [1, 0]])),
        ("zero-first-pivot", SymForm.from_rows([[0, 0], [0, 1]])),
        ("zero-second-pivot", SymForm.from_rows([[1, 1], [1, 1]])),
        ("zero-middle-pivot", SymForm.from_rows([[2, 2, 1], [2, 2, 3], [1, 3, 5]])),
        ("negative-last-pivot", SymForm.from_rows([[2, 1, 0], [1, 2, 1], [0, 1, -1]])),
    ]
    cases += [(f"all-zero-{d}", SymForm.zero(d)) for d in range(1, 5)]
    for d in range(1, 7):
        for t in range(3):
            pd = _gram_family(rng, d)
            cases.append((f"pd-{d}-{t}", pd))
            cases += [(f"pd-{d}-{t}-2^{e}", pd.scale(Fr(2) ** e)) for e in (1100, -1100)]
            # Entries of about 1100 bits over denominators of about 1100 bits.
            tall = Fr(rng.getrandbits(1100) | 1, rng.getrandbits(1100) | 1)
            cases.append((f"pd-{d}-{t}-tall", pd.scale(tall)))
            # Nearly singular: a rank-1 form plus 2^-300 of the identity.
            v = [rng.randint(-9, 9) for _ in range(d)]
            eps = SymForm.identity(d).scale(Fr(1, 2 ** 300))
            cases.append((f"near-singular-{d}-{t}", SymForm.outer(v).add(eps)))
            cases.append((f"singular-{d}-{t}", SymForm.outer(v)))
            # Random symmetric forms: mostly indefinite.
            cases.append((f"symmetric-{d}-{t}", _symmetric(
                [[Fr(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(d)] for _ in range(d)])))
            cases.append((f"indefinite-{d}-{t}", pd.sub(SymForm.identity(d).scale(rng.randint(50, 500)))))
    return cases


FACTOR_CASES = _factor_cases()


class TestIntegralFactors:
    """The integral data of ``ldl`` and ``PQF`` against a Fraction elimination."""

    @pytest.mark.parametrize("form", [c for _, c in FACTOR_CASES], ids=[i for i, _ in FACTOR_CASES])
    def test_matches_fraction_ldl(self, form):
        low, piv, pd = reference_lll.ldl(form)
        res = ldl(form)
        assert (lower(res), pivots(res), res.is_positive_definite) == (low, piv, pd)
        den, rows = form.integer_rows()
        # The minors are den^k times those of Q, and lam scales L by them.
        for k, p in enumerate(piv):
            assert res.minors[k + 1] == res.minors[k] * den * p
        for i, row in enumerate(res.lam):
            assert [Fr(v) for v in row] == [
                res.minors[j + 1] * low[i][j] for j in range(len(row))]
        if not pd:
            with pytest.raises(ValueError, match="not positive definite"):
                PQF(form)
            return
        q = PQF(form)
        assert (q.den, q.gram) == (den, rows)
        assert (q.ldl.minors, q.ldl.lam) == (res.minors, res.lam)
        det = Fr(1)
        for p in piv:
            det *= p
        assert q.det() == det
        assert q.det() == Fr(det_bareiss(rows), den ** form.d)
        assert q.inverse() == reference_linalg.inverse(q)

    def test_keeps_no_fractions(self):
        """A PQF holds its integer Gram and integral factors only; inverse
        eliminates on the integer Gram."""
        q = PQF.from_rows([[2, 1], [1, 2]])
        assert not hasattr(q.ldl, "__dict__")
        assert (q.den, q.gram, q.ldl.minors, q.ldl.lam) == (1, ((2, 1), (1, 2)), (1, 2, 3), ((), (1,)))
        assert q.inverse() == SymForm.from_rows([[Fr(2, 3), Fr(-1, 3)], [Fr(-1, 3), Fr(2, 3)]])


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


def reference_rank_complement(rows):
    """rank_complement by a reduced echelon over every row, exactly as before
    the modular row selection."""
    rank, pivcols, ech = row_echelon([[Fr(v) for v in r] for r in rows])
    ncols = len(rows[0])
    basis = []
    for fc in (c for c in range(ncols) if c not in pivcols):
        coords = [Fr(0)] * ncols
        coords[fc] = Fr(1)
        for r, pc in enumerate(pivcols):
            coords[pc] = -ech[r][fc]
        basis.append(coords)
    return rank, basis


def reference_rank_span(vectors):
    d, m = vectors[0].d, vectors[0].m
    rank, basis = reference_rank_complement([v.flatten(weighted=True) for v in vectors])
    return rank, tuple(TangentVector.unflatten(c, d, m) for c in basis)


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
        out = run_python(code, optimize=True)
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "2"


class TestSolveExact:
    def test_simple(self):
        sol = solve_exact([[Fr(2), Fr(0)], [Fr(0), Fr(4)]], [Fr(1), Fr(2)])
        assert sol == (Fr(1, 2), Fr(1, 2))

    def test_inconsistent(self):
        sol = solve_exact([[Fr(1), Fr(1)], [Fr(2), Fr(2)]], [Fr(1), Fr(3)])
        assert sol is None


def _echelon_cases():
    """(id, integer rows): empty and zero input, duplicates, both rectangular
    shapes, rank-deficient rows, 1100-bit entries and a 2^1100 scale."""
    rng = random.Random("echelon")
    cases = [
        ("empty", []),
        ("no-columns", [[]]),
        ("one-zero", [[0]]),
        ("zero-rows", [[0, 0, 0], [0, 0, 0]]),
        ("zero-row-first", [[0, 0, 0], [0, 2, 1], [3, 0, 1]]),
        ("duplicates", [[1, 2, 3], [1, 2, 3], [2, 4, 6]]),
        ("swap-needed", [[0, 1], [1, 0]]),
        ("skipped-column", [[0, 1, 2], [0, 3, 4], [0, 5, 7]]),
    ]
    for t in range(60):
        nrows, ncols = rng.randint(1, 7), rng.randint(1, 7)
        top = rng.choice([1, 3, 9])
        span = [[rng.randint(-top, top) for _ in range(ncols)] for _ in range(rng.randint(1, nrows))]
        rows = []
        for _ in range(nrows):
            kind = rng.random()
            if kind < 0.1:
                rows.append([0] * ncols)
            elif kind < 0.2 and rows:
                rows.append(list(rng.choice(rows)))
            else:
                coefs = [rng.randint(-3, 3) for _ in span]
                rows.append([sum(c * s[k] for c, s in zip(coefs, span)) for k in range(ncols)])
        cases.append((f"random-{nrows}x{ncols}-{t}", rows))
        if t % 4 == 0:
            cases.append((f"random-{nrows}x{ncols}-{t}-2^1100", [[v << 1100 for v in r] for r in rows]))
            cases.append((f"random-{nrows}x{ncols}-{t}-tall", [
                [v * (rng.getrandbits(1100) | 1) + rng.getrandbits(1100) * rng.randint(-1, 1) for v in r]
                for r in rows]))
    return cases


ECHELON_CASES = _echelon_cases()


class TestEchelon:
    """``echelon`` against the Fraction reduced echelon form it replaced."""

    @pytest.mark.parametrize("rows", [c for _, c in ECHELON_CASES], ids=[i for i, _ in ECHELON_CASES])
    def test_matches_fraction_echelon(self, rows):
        before = [list(r) for r in rows]
        rank, pivcols, out, den = echelon(rows)
        assert rows == before
        ref_rank, ref_pivcols, ref = row_echelon([[Fr(v) for v in r] for r in rows])
        assert (rank, pivcols) == (ref_rank, ref_pivcols)
        assert den != 0 and all(out[r][c] == den for r, c in enumerate(pivcols))
        assert [[Fr(v, den) for v in r] for r in out[:rank]] == ref[:rank]
        assert not any(any(r) for r in out[rank:])

    def test_denominator_is_the_determinant(self):
        # [A | I] -> [D I | D A^-1], D = det A up to the sign of the row swaps.
        rng = random.Random(31)
        for _ in range(20):
            n = rng.randint(1, 6)
            a = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
            rank, pivcols, out, den = echelon([r + [int(i == j) for j in range(n)] for i, r in enumerate(a)])
            det = det_bareiss(a)
            assert rank == n
            assert (pivcols == list(range(n))) == (det != 0)
            if det:
                assert abs(den) == abs(det)


def _system_cases():
    """(id, matrix, rhs) of rational systems: square, wide, tall, singular
    consistent and inconsistent, at scales 2^+-1100 and 1100-bit heights."""
    rng = random.Random("solve_exact")
    cases = [
        ("empty", [], []),
        ("no-columns-zero", [[]], [Fr(0)]),
        ("no-columns-inconsistent", [[]], [Fr(1)]),
        ("zero-matrix", [[Fr(0), Fr(0)], [Fr(0), Fr(0)]], [Fr(0), Fr(0)]),
        ("zero-matrix-inconsistent", [[Fr(0), Fr(0)], [Fr(0), Fr(0)]], [Fr(0), Fr(1)]),
    ]
    for t in range(80):
        nrows, ncols = rng.randint(1, 6), rng.randint(1, 6)
        rat = lambda: Fr(rng.randint(-7, 7), rng.randint(1, 5))
        matrix = [[rat() for _ in range(ncols)] for _ in range(nrows)]
        x = [rat() for _ in range(ncols)]
        rhs = [sum(a * b for a, b in zip(row, x)) for row in matrix]
        if nrows > 1 and t % 3 == 0:
            # A repeated row makes the system singular; a changed right-hand
            # side on it makes it inconsistent.
            matrix[-1] = [2 * v for v in matrix[0]]
            rhs[-1] = 2 * rhs[0] + (t % 2)
        if t % 5 == 0:
            rhs = [rat() for _ in range(nrows)]
        cases.append((f"random-{nrows}x{ncols}-{t}", matrix, rhs))
        if t % 4 == 0:
            for e in (1100, -1100):
                c = Fr(2) ** e
                cases.append((f"random-{nrows}x{ncols}-{t}-2^{e}",
                              [[c * v for v in r] for r in matrix], rhs))
            tall = Fr(rng.getrandbits(1100) | 1, rng.getrandbits(1100) | 1)
            cases.append((f"random-{nrows}x{ncols}-{t}-tall",
                          [[v * tall + Fr(rng.getrandbits(1100)) for v in r] for r in matrix],
                          [v * tall for v in rhs]))
    return cases


SYSTEM_CASES = _system_cases()


class TestSolveExactReference:
    @pytest.mark.parametrize(
        "matrix, rhs", [c[1:] for c in SYSTEM_CASES], ids=[c[0] for c in SYSTEM_CASES])
    def test_matches_fraction_solve(self, matrix, rhs):
        sol = solve_exact(matrix, rhs)
        assert sol == reference_linalg.solve_exact(matrix, rhs)
        if sol is not None:
            assert all(sum(a * b for a, b in zip(row, sol)) == v for row, v in zip(matrix, rhs))

    def test_some_cases_are_inconsistent(self):
        outcomes = {reference_linalg.solve_exact(m, b) is None for _, m, b in SYSTEM_CASES}
        assert outcomes == {True, False}


CATALOG_FORMS = [("Zd", d) for d in range(1, 5)] + [("A", d) for d in range(1, 7)] + [
    ("D", d) for d in range(3, 7)] + [("Dplus", 3), ("Dplus", 5), ("Dplus", 10, "lattice"), ("E6",), ("E7",),
                                      ("E8",), ("K12",), ("Leech",), ("Lambda9",)]


class TestInverseReference:
    @pytest.mark.parametrize("params", CATALOG_FORMS, ids=lambda p: " ".join(map(str, p)))
    def test_catalog(self, params):
        form = get(*params).form
        q = form if isinstance(form, PQF) else form.q
        assert q.inverse() == reference_linalg.inverse(q)

    @pytest.mark.parametrize("case", [c for c in FACTOR_CASES if ldl(c[1]).is_positive_definite],
                             ids=lambda c: c[0])
    def test_random_pd(self, case):
        q = PQF(case[1])
        assert q.inverse() == reference_linalg.inverse(q)


# ---------------------------------------------------------------------------
# Past one chunk: 1 024 rows evenly spaced over the matrix are the head.
# ---------------------------------------------------------------------------


def _span_rows(rng, n, ncols, rank, entry):
    """n rows, each a random small combination of ``rank`` rows of entries
    drawn by ``entry()``."""
    span = [[entry() for _ in range(ncols)] for _ in range(rank)]
    return [
        [sum(c * s[k] for c, s in zip(coefs, span)) for k in range(ncols)]
        for coefs in ([rng.randint(-3, 3) for _ in span] for _ in range(n))
    ]


def _large_cases():
    """name -> (integer rows, their rank), each with more rows than one chunk."""
    rng = random.Random("past one chunk")
    n, tail = _MODP_CHUNK + 76, 76

    def small():
        return rng.randint(-9, 9)

    def tall():
        return rng.getrandbits(1100) - 2 ** 1099

    zero_head = [[0] * 8 for _ in range(_MODP_CHUNK)]
    few = _span_rows(rng, 3, 8, 3, small)
    # (1, 0) and (0, p) are independent over Q, but singular mod p.
    unlucky = [[1, 0], [0, RANK_PRIME]] + [[0, 0]] * (_MODP_CHUNK - 2)
    return {
        "full-rank": (_span_rows(rng, n, 8, 8, small), 8),
        "deficient-1": (_span_rows(rng, n, 8, 7, small), 7),
        "deficient-5": (_span_rows(rng, n, 8, 3, small), 3),
        "independent-after-head": (zero_head + _span_rows(rng, tail, 8, 8, small), 8),
        "duplicates-in-head": (
            [list(rng.choice(few)) for _ in range(_MODP_CHUNK)]
            + _span_rows(rng, tail, 8, 5, small), 8),
        "tall-2^+-1100": (
            [[v << shift for v in row]
             for row, shift in zip(_span_rows(rng, n, 6, 4, tall),
                                   (rng.choice([0, 1100]) for _ in range(n)))], 4),
        "unlucky-prime-later": (unlucky + [[0, 0]] * 50 + [[0, 1]] + [[0, 0]] * 25, 2),
        "unlucky-prime-nowhere": (unlucky + [[0, 0]] * tail, 2),
    }


LARGE_CASES = _large_cases()


@functools.cache
def large_reference(name):
    return reference_rank_complement(LARGE_CASES[name][0])


class TestPastOneChunk:
    @pytest.mark.parametrize("name", LARGE_CASES)
    def test_matches_reference(self, name):
        rows, rank = LARGE_CASES[name]
        assert len(rows) > _MODP_CHUNK
        assert large_reference(name)[0] == rank
        assert rank_complement(int_matrix(rows)) == large_reference(name)

    @pytest.mark.parametrize("name", LARGE_CASES)
    def test_taken_rows_are_independent(self, name):
        """The walk returns indices into the rows as given, not into its
        reordering: the rows they name are independent, and as many as the
        rank unless p divides a minor."""
        rows, rank = LARGE_CASES[name]
        matrix = int_matrix(rows)
        taken = independent_rows_modp(matrix, len(rows[0]), _head(matrix))
        assert len(set(taken)) == len(taken) == echelon([rows[i] for i in taken])[0]
        assert len(taken) == (1 if name == "unlucky-prime-nowhere" else rank)

    def test_tall_rows_are_python_ints(self):
        assert int_matrix(LARGE_CASES["tall-2^+-1100"][0]).dtype == object

    def test_full_rank_leaves_scipy_linalg_out(self):
        """Past one chunk the check reads the sampled rows themselves: no
        float QR orders them, so ranking never imports scipy.linalg."""
        code = (
            "import json, sys\n"
            "from periform.linalg import int_matrix, rank_complement\n"
            "rank, complement = rank_complement(int_matrix(json.load(sys.stdin)))\n"
            "print(rank, len(complement), 'scipy.linalg' in sys.modules)\n"
        )
        out = run_python(code, stdin=json.dumps(LARGE_CASES["full-rank"][0]))
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "8 0 False"


def _as_json(rank, complement):
    return [rank, [[str(v) for v in c] for c in complement]]


def large_results():
    """rank_complement of every large case, as JSON values."""
    return {name: _as_json(*rank_complement(int_matrix(rows)))
            for name, (rows, _) in LARGE_CASES.items()}


def reference_results():
    return {name: _as_json(*large_reference(name)) for name in LARGE_CASES}


# ---------------------------------------------------------------------------
# The full-rank check: a float left inverse proposes, one exact product proves.
# ---------------------------------------------------------------------------

_INV = np.linalg.inv
# Stand-ins for the inverse the check takes: the true inverse with its rows
# reversed, all zeros, all NaN, or a failure.
GARBAGE_INVERSES = ("reversed", "zero", "nan", "raise")
SMALL_CASES = {name: rows for name, rows in ECHELON_CASES if rows}


def garbage_inv(kind, calls):
    def inv(a):
        calls.append(kind)
        if kind == "raise":
            raise np.linalg.LinAlgError("inverse stand-in")
        if kind == "reversed":
            return _INV(a)[::-1]
        return np.full(a.shape, 0.0 if kind == "zero" else np.nan)

    return inv


def small_results():
    """rank_complement of every small case, as JSON values."""
    return {name: _as_json(*rank_complement(int_matrix(rows)))
            for name, rows in SMALL_CASES.items()}


@functools.cache
def small_reference_results():
    return {name: _as_json(*reference_rank_complement(rows)) for name, rows in SMALL_CASES.items()}


def checked_heads():
    """How many of the small and large cases reach the inverse: integer rows
    no fewer than their columns (a large case's head is its 1 024-row
    sample)."""
    small = [int_matrix(rows) for rows in SMALL_CASES.values()]
    large = [int_matrix(rows) for rows, _ in LARGE_CASES.values()]
    return sum(m.dtype != object and len(m) >= m.shape[1] for m in small + large)


class TestGarbageInverses:
    """The float inverse only proposes Y: whatever it returns, or if it
    fails, rank and complement are those of the exact echelon."""

    @pytest.mark.parametrize("kind", GARBAGE_INVERSES)
    def test_in_process(self, kind, monkeypatch):
        inverses = []
        monkeypatch.setattr(np.linalg, "inv", garbage_inv(kind, inverses))
        assert large_results() == reference_results()
        assert small_results() == small_reference_results()
        assert len(inverses) == checked_heads() > len(LARGE_CASES)

    def test_without_asserts(self):
        code = (
            "import json, numpy as np, test_linalg as t\n"
            "out = {}\n"
            "for kind in t.GARBAGE_INVERSES:\n"
            "    np.linalg.inv = t.garbage_inv(kind, [])\n"
            "    out[kind] = [t.large_results(), t.small_results()]\n"
            "print(json.dumps(out))\n"
        )
        out = run_python(code, optimize=True, extra_path=[Path(__file__).resolve().parent],
                         timeout=300)
        assert out.returncode == 0, out.stderr
        got = json.loads(out.stdout.strip().splitlines()[-1])
        want = [reference_results(), small_reference_results()]
        assert got == {kind: want for kind in GARBAGE_INVERSES}


INT_DTYPES = (np.int8, np.int16, np.int32, np.int64)


# Rank 1 over Q, but rank 2 in float64 (the second row rounds to 3 * 2^53 + 4):
# only the bound on the entries keeps the check from trusting the floats.
FLOAT_RANK_TWO = [[2 ** 53 + 1, 3], [3 * 2 ** 53 + 3, 9]]


class TestFullRankCheck:
    def test_accepts_full_rank_heads(self):
        """On small full-rank matrices of every integer type the check proves
        the rank itself; on Python ints it leaves the rank to the walk."""
        for dtype in INT_DTYPES:
            assert _full_rank(np.array([[1, 0], [0, 1], [1, 1]], dtype=dtype))
        assert not _full_rank(np.array([[1, 0], [0, 1]], dtype=object))

    def test_declines_where_no_product_is_exact(self):
        """The check claims a rank only from exact float products: with n
        ncols max|head| > 2^52 no Y keeps every partial sum of Y head under
        2^53, so it declines even on full-rank heads, which the walk then
        proves."""
        for size, shift, proved in ((4, 46, True), (8, 47, False), (4, 50, False), (2, 62, False)):
            head = np.eye(size, dtype=np.int64) << shift
            assert _full_rank(head) == proved
            assert rank_complement(head) == (size, [])
        assert not _full_rank(np.array(FLOAT_RANK_TWO, dtype=np.int64))
