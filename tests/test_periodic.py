import random
from fractions import Fraction as Fr
from itertools import product

import pytest

from helpers import constraint_value
from periform.linalg import PQF, SymForm, TangentVector, inner
from periform.periodic import (
    OverlapError,
    PeriodicForm,
    density,
    generalized_min,
    gradient_p,
    hessian_quadratic,
    rescale_to_min_one,
    unit_ball_volume,
)
from periform.lattices import shortest_vectors
from reference_genmin import generalized_min as reference_generalized_min

A2 = PQF.from_rows([[2, 1], [1, 2]])


def oracle_generalized_min(x: PeriodicForm, box: int):
    """Scan all pairs (i <= j) and all v with |v_k| <= box."""
    best = None
    reps = []
    for i in range(1, x.m + 1):
        for j in range(i, x.m + 1):
            ti, tj = x.translate(i), x.translate(j)
            for v in product(range(-box, box + 1), repeat=x.d):
                if i == j:
                    if not any(v):
                        continue
                    w = tuple(Fr(-c) for c in v)
                    first = next(c for c in w if c)
                    if first < 0:
                        continue  # keep one of the +/- pair
                else:
                    w = tuple(a - b - c for a, b, c in zip(ti, tj, v))
                val = x.q.value(w)
                if best is None or val < best:
                    best = val
                    reps = [(i, j, v)]
                elif val == best:
                    reps.append((i, j, v))
    return best, sorted(reps)


def random_periodic_form(rng, dmax=3, mmax=3, height=8):
    d = rng.randint(1, dmax)
    m = rng.randint(1, mmax)
    b = [[rng.randint(-2, 2) for _ in range(d)] for _ in range(d)]
    rows = [
        [sum(b[k][i] * b[k][j] for k in range(d)) + (1 if i == j else 0)
         for j in range(d)]
        for i in range(d)
    ]
    cols = [
        [Fr(rng.randint(0, height), rng.randint(1, height)) for _ in range(d)]
        for _ in range(m - 1)
    ]
    return PeriodicForm.make(PQF.from_rows(rows), cols)


def random_tangent(rng, d, m, height=4):
    rows = [[Fr(0)] * d for _ in range(d)]
    for i in range(d):
        for j in range(i, d):
            rows[i][j] = rows[j][i] = Fr(rng.randint(-height, height), rng.randint(1, 3))
    cols = [
        [Fr(rng.randint(-height, height), rng.randint(1, 3)) for _ in range(d)]
        for _ in range(m - 1)
    ]
    return TangentVector.make(SymForm.from_rows(rows), cols)


D1M2_HALF = PeriodicForm.make(PQF.from_rows([[1]]), [[Fr(1, 2)]])


class TestGeneralizedMin:
    def test_lattice_case_matches_svp(self):
        x = PeriodicForm.lattice(A2)
        res = generalized_min(x)
        assert res.lam == 2
        assert len(res.reps) == 3
        assert all(r.i == 1 and r.j == 1 for r in res.reps)
        svp = shortest_vectors(A2)
        assert {r.w for r in res.reps} == {
            tuple(Fr(c) for c in vec) for vec in svp.vectors
        }

    def test_two_point_line(self):
        res = generalized_min(D1M2_HALF)
        assert res.lam == Fr(1, 4)
        assert [r.key() for r in res.reps] == [(1, 2, (0,)), (1, 2, (1,))]
        assert res.reps[0].w == (Fr(1, 2),)
        assert res.reps[1].w == (Fr(-1, 2),)

    def test_coinciding_translates(self):
        x = PeriodicForm.make(PQF.from_rows([[1, 0], [0, 1]]), [[0, 0]])
        res = generalized_min(x)
        assert res.lam == 0

    @pytest.mark.parametrize("seed", range(15))
    def test_against_brute_force(self, seed):
        rng = random.Random(seed)
        x = random_periodic_form(rng)
        res = generalized_min(x)
        lam, reps = oracle_generalized_min(x, 10)
        assert res.lam == lam
        assert [r.key() for r in res.reps] == one_diagonal_class(reps)

    def test_diagonal_class_once(self):
        """Z^2 over 2Z x Z: lambda = 1 is attained by e2 and across the
        translates; the lattice vector is stored once, as (1, 1)."""
        x = PeriodicForm.make(PQF.from_rows([[4, 0], [0, 1]]), [[Fr(1, 2), 0]])
        res = generalized_min(x)
        assert res.lam == 1
        assert [(b.i, b.j) for b in res.blocks] == [(1, 1), (1, 2)]
        assert [r.key() for r in res.reps] == [(1, 1, (0, -1)), (1, 2, (0, 0)), (1, 2, (1, 0))]

    @pytest.mark.parametrize("seed", range(20))
    def test_m1_equals_svp(self, seed):
        rng = random.Random(100 + seed)
        x = random_periodic_form(rng, dmax=4, mmax=1)
        res = generalized_min(x)
        svp = shortest_vectors(x.q)
        assert res.lam == svp.min
        assert {tuple(int(c) for c in r.w) for r in res.reps} == set(svp.vectors)
        assert len(res.reps) == len(svp.vectors)


def one_diagonal_class(triples):
    """The (i, j, v) without the copies (i, i, v), i > 1, of the diagonal
    class: p_{i,i,v} = Q[v] for every i, and Min X stores it as (1, 1)."""
    return [t for t in triples if not t[0] == t[1] > 1]


def rep_tuples(reps):
    return one_diagonal_class([(r.i, r.j, r.v, r.w) for r in reps])


class TestMatchesReference:
    """lambda and the reps view (i, j, v, w, in order) against the old
    one-MinRep-per-representation generalized minimum, whose diagonal copies
    (i, i, v) for i > 1 the reps view does not hold."""

    def check(self, x):
        res, ref = generalized_min(x), reference_generalized_min(x)
        assert res.lam == ref.lam
        assert len(res.reps) == len(rep_tuples(ref.reps))
        assert [(r.i, r.j, r.v, r.w) for r in res.reps] == rep_tuples(ref.reps)

    @pytest.mark.parametrize("name,params", [
        ("Zd", (2,)), ("Zd", (3,)), ("A", (2,)), ("A", (3,)), ("D", (4,)),
        ("Dplus", (3,)), ("Dplus", (5,)), ("E6", ()), ("E8", ()), ("Lambda9", ()),
    ])
    def test_catalog(self, name, params):
        from periform.catalog import get

        form = get(name, *params).form
        self.check(form if isinstance(form, PeriodicForm) else PeriodicForm.lattice(form))

    def test_fluid_diamond(self):
        from periform.catalog import fluid_diamond

        self.check(fluid_diamond(Fr(1, 4)))

    def test_one_cvp_per_class(self, monkeypatch):
        """t_i - t_j of a sublattice representation of index m falls in m - 1
        classes mod Z^d, so m - 1 CVPs serve its m(m-1)/2 pairs; translates
        off the unit cube share a class through different integer shifts."""
        from periform import periodic
        from periform.catalog import get, sublattice_representation

        calls = []
        real = periodic.closest_vectors
        monkeypatch.setattr(
            periodic, "closest_vectors", lambda q, c, bound: calls.append(c) or real(q, c, bound)
        )
        d4 = get("D", 4).form
        off_cube = ((Fr(-4, 3), Fr(5, 2)), (Fr(13, 3), Fr(-3, 4)))
        for x, classes in (
            (sublattice_representation(PQF(SymForm.identity(2)), [[8, 0], [0, 1]]), 7),
            (sublattice_representation(d4, [[2, 0, 0, 0], [0, 2, 0, 0], [0, 0, 1, 0],
                                            [0, 0, 0, 1]]), 3),
            (PeriodicForm(PQF.from_rows([[2, 1], [1, 3]]), off_cube), 2),
        ):
            calls.clear()
            self.check(x)
            assert len(calls) == classes

    @pytest.mark.parametrize("seed", range(40))
    def test_random(self, seed):
        rng = random.Random(700 + seed)
        x = random_periodic_form(rng, dmax=4, mmax=3)
        s = (Fr(1), Fr(2) ** 60, Fr(1, 2 ** 60))[seed % 3]
        self.check(PeriodicForm(x.q.scale(s), x.tcols))

    def test_d4_representations(self):
        from periform.catalog import get, sublattice_representation
        from periform.intmat import enumerate_sublattice_hnf

        q = get("D", 4).form
        for index in range(1, 5):
            for h in enumerate_sublattice_hnf(4, index):
                self.check(sublattice_representation(q, h))


class TestDensity:
    def test_integer_lattice(self):
        for d in (1, 2, 3, 5):
            x = PeriodicForm.lattice(PQF(SymForm.identity(d)))
            rep = density(x)
            assert rep.center_density_squared == Fr(1, 4 ** d)
            assert abs(rep.delta_over_ball - 0.5 ** d) < 1e-12

    def test_overlap_reports_zero(self):
        x = PeriodicForm.make(PQF(SymForm.identity(2)), [[0, 0]])
        rep = density(x)
        assert rep.lam == 0
        assert rep.center_density_squared == 0
        assert rep.delta == 0.0

    def test_two_point_line(self):
        rep = density(D1M2_HALF)
        # m = 2, lambda = 1/4, det = 1: center density squared (2^2/4)(1/4) = 1/4.
        assert rep.center_density_squared == Fr(1, 4)
        assert abs(rep.delta - 1.0) < 1e-12  # balls tile the line

    def test_hexagonal_value(self):
        rep = density(PeriodicForm.lattice(A2))
        assert rep.center_density_squared == Fr(1, 12)
        assert abs(rep.delta_over_ball - 0.28867513459481287) < 1e-12

    def test_ball_volumes(self):
        assert unit_ball_volume(0) == 1.0
        assert abs(unit_ball_volume(2) - 3.141592653589793) < 1e-14
        assert abs(unit_ball_volume(3) - 4.188790204786391) < 1e-12


class TestEvalP:
    """The constraint value p_{i,j,v}(X) = Q[w], read as ``x.q.value(rep.w)``."""

    def test_direct_value(self):
        rep = generalized_min(D1M2_HALF).reps[0]
        assert rep.key() == (1, 2, (0,))
        assert D1M2_HALF.q.value(rep.w) == Fr(1, 4)

    def test_lattice_pair_is_linear_case(self):
        x = PeriodicForm.make(A2, [[Fr(1, 3), Fr(1, 3)]])
        v = (1, -2)
        assert constraint_value(x, (1, 1, v)) == x.q.value(v)
        assert constraint_value(x, (2, 2, v)) == x.q.value(v)

    @pytest.mark.parametrize("seed", range(10))
    def test_mirror_symmetry(self, seed):
        """(j, i, -v) is the same constraint as (i, j, v), and every stored
        representation attains lambda."""
        rng = random.Random(200 + seed)
        x = random_periodic_form(rng)
        i = rng.randint(1, x.m)
        j = rng.randint(1, x.m)
        v = tuple(rng.randint(-3, 3) for _ in range(x.d))
        mv = tuple(-c for c in v)
        assert constraint_value(x, (i, j, v)) == constraint_value(x, (j, i, mv))
        res = generalized_min(x)
        assert all(x.q.value(rep.w) == res.lam for rep in res.reps)

    def test_index_out_of_range(self):
        with pytest.raises(IndexError):
            constraint_value(D1M2_HALF, (1, 3, (0,)))


class TestGradient:
    def test_lattice_rep_has_zero_translation(self):
        x = PeriodicForm.make(A2, [[Fr(1, 3), Fr(2, 3)]])
        g = gradient_p(x, (1, 1, (1, 0)))
        assert g.qpart == SymForm.outer([-1, 0])
        assert all(v == 0 for col in g.tcols for v in col)

    def test_two_point_line(self):
        g = gradient_p(D1M2_HALF, (1, 2, (0,)))
        assert g.qpart == SymForm.from_rows([[Fr(1, 4)]])
        assert g.tcols == ((Fr(1),),)

    @pytest.mark.parametrize("seed", range(100))
    def test_matches_finite_differences(self, seed):
        rng = random.Random(300 + seed)
        x = random_periodic_form(rng)
        i = rng.randint(1, x.m)
        j = rng.randint(i, x.m)
        v = tuple(rng.randint(-2, 2) for _ in range(x.d))
        n = random_tangent(rng, x.d, x.m)
        g = gradient_p(x, (i, j, v))
        h = Fr(1, 100000)
        plus = constraint_value(x.add_tangent(n, h), (i, j, v))
        minus = constraint_value(x.add_tangent(n, -h), (i, j, v))
        numeric = float((plus - minus) / (2 * h))
        exact = float(inner(g, n))
        scale = max(abs(numeric), abs(exact), 1e-12)
        assert abs(numeric - exact) / scale <= 1e-6


class TestHessian:
    def test_equal_translation_columns_vanish(self):
        x = PeriodicForm.make(A2, [[Fr(1, 4), Fr(1, 2)], [Fr(3, 4), 0]])
        n = TangentVector.make(SymForm.zero(2), [[1, 2], [1, 2]])
        rep = (1, 2, (0, 0))
        assert hessian_quadratic(x, rep, n) == 0

    def test_translational_positive(self):
        x = PeriodicForm.make(A2, [[Fr(1, 4), Fr(1, 2)]])
        n = TangentVector.make(SymForm.zero(2), [[1, 0]])
        rep = (1, 2, (0, 0))
        # u = (1,0): 2 Q[u] = 4 > 0 since Q is positive definite.
        assert hessian_quadratic(x, rep, n) == 4

    @pytest.mark.parametrize("seed", range(40))
    def test_exact_cubic_expansion(self, seed):
        # p(X + sN) is a cubic with third coefficient u^t Q^N u; check the
        # whole expansion exactly at several rational s.
        rng = random.Random(400 + seed)
        x = random_periodic_form(rng)
        i = rng.randint(1, x.m)
        j = rng.randint(i, x.m)
        v = tuple(rng.randint(-2, 2) for _ in range(x.d))
        n = random_tangent(rng, x.d, x.m)
        p0 = constraint_value(x, (i, j, v))
        g = inner(gradient_p(x, (i, j, v)), n)
        h = hessian_quadratic(x, (i, j, v), n)

        def ncol(k):
            return ((Fr(0),) * x.d) if k == x.m else n.tcols[k - 1]

        u = [a - b for a, b in zip(ncol(i), ncol(j))]
        cubic = n.qpart.value(u)
        for s in (Fr(1, 7), Fr(2, 3), Fr(5)):
            ti = x.translate(i)
            tj = x.translate(j)
            w = [a - b - c for a, b, c in zip(ti, tj, v)]
            w_s = [a + s * b for a, b in zip(w, u)]
            q_s = x.q.form.add(n.qpart.scale(s))
            val = q_s.value(w_s)  # p at X + sN without mod-1 reduction
            assert val == p0 + s * g + s * s * h / 2 + s ** 3 * cubic


class TestRescale:
    def test_quarter_scale(self):
        q = PQF.from_rows([[4, 0], [0, 4]])
        x = PeriodicForm.lattice(q)
        y = rescale_to_min_one(x)
        assert y.q.form == SymForm.identity(2)

    def test_min_one_is_kept(self):
        """A form with lambda = 1 comes back as itself, reduction and all."""
        x = PeriodicForm.lattice(PQF(SymForm.identity(2)))
        assert rescale_to_min_one(x) is x

    def test_density_invariant(self):
        x = PeriodicForm.make(PQF.from_rows([[3, 1], [1, 5]]), [[Fr(1, 2), Fr(1, 3)]])
        before = density(x)
        after = density(rescale_to_min_one(x))
        assert generalized_min(rescale_to_min_one(x)).lam == 1
        assert after.center_density_squared == before.center_density_squared
        assert abs(after.delta_over_ball - before.delta_over_ball) < 1e-12

    def test_reps_unchanged_as_triples(self):
        x = PeriodicForm.make(PQF.from_rows([[3, 1], [1, 5]]), [[Fr(1, 2), Fr(1, 3)]])
        before = generalized_min(x)
        after = generalized_min(rescale_to_min_one(x))
        assert [r.key() for r in before.reps] == [r.key() for r in after.reps]

    def test_overlap_rejected(self):
        x = PeriodicForm.make(PQF(SymForm.identity(1)), [[0]])
        with pytest.raises(OverlapError):
            rescale_to_min_one(x)


class TestGradientSumIdentity:
    def test_lattice_representation_sums(self):
        # For a form representing a lattice, the gradients of all triples
        # sharing a fixed w add up to m (w w^t, 0) per canonical triple set,
        # i.e. 2m (w w^t, 0) after expanding each +/- mirror pair.
        q = PQF.from_rows([[4]])  # 2Z inside Z, as d=1 m=2
        x = PeriodicForm.make(q, [[Fr(1, 2)]])
        res = generalized_min(x)
        by_w = {}
        for rep in res.reps:
            wkey = tuple(abs(c) for c in rep.w)
            by_w.setdefault(wkey, []).append(rep)
        for wkey, reps in by_w.items():
            total = None
            for rep in reps:
                g = gradient_p(x, rep)
                total = g if total is None else total.add(g)
            expected = TangentVector.make(
                SymForm.outer([abs(c) for c in reps[0].w]),
                [[0] * x.d for _ in range(x.m - 1)],
            ).scale(x.m)
            assert total.qpart == expected.qpart
            assert all(v == 0 for col in total.tcols for v in col)
