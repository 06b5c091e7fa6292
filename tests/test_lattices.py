import importlib.util
import random
import re
import sys
import tracemalloc
from dataclasses import replace
from fractions import Fraction as Fr
from itertools import product
from pathlib import Path

import numpy as np
import pytest

import periform.lattices as lattices
import periform.linalg as linalg
import reference_lll
from reference_linalg import det_bareiss
from periform.catalog import get, sublattice_representation
from periform.linalg import PQF, SymForm
from periform.lattices import (
    closest_vectors,
    lll_reduce,
    shortest_vectors,
)
from periform.certify import NOT_EXTREME, certify, improvement_step
from periform.periodic import PeriodicForm, density, generalized_min


def random_pd_gram(rng, d, spread=3):
    """Q = B^t B + I for a random integer B: integral, PD, modest minima."""
    b = [[rng.randint(-spread, spread) for _ in range(d)] for _ in range(d)]
    rows = [
        [sum(b[k][i] * b[k][j] for k in range(d)) + (1 if i == j else 0)
         for j in range(d)]
        for i in range(d)
    ]
    return PQF.from_rows(rows)


def random_unimodular(rng, d, steps=12, bound=5):
    """Product of elementary row operations, entries clamped below ``bound``."""
    u = [[int(i == j) for j in range(d)] for i in range(d)]
    for _ in range(steps):
        i, j = rng.sample(range(d), 2) if d > 1 else (0, 0)
        if i == j:
            continue
        c = rng.choice([-1, 1])
        cand = [row[:] for row in u]
        for k in range(d):
            cand[i][k] += c * cand[j][k]
        if max(abs(v) for row in cand for v in row) <= bound:
            u = cand
    return tuple(tuple(r) for r in u)


def brute_force_svp(q: PQF, box: int):
    best = None
    vecs = []
    for x in product(range(-box, box + 1), repeat=q.d):
        if not any(x):
            continue
        v = q.value(x)
        if best is None or v < best:
            best, vecs = v, [x]
        elif v == best:
            vecs.append(x)
    canon = set()
    for x in vecs:
        first = next(v for v in x if v)
        canon.add(tuple(-v for v in x) if first < 0 else x)
    return best, tuple(sorted(canon))


def brute_force_cvp(q: PQF, c, box: int):
    best = None
    vecs = []
    for x in product(range(-box, box + 1), repeat=q.d):
        v = q.value([xi - ci for xi, ci in zip(x, c)])
        if best is None or v < best:
            best, vecs = v, [x]
        elif v == best:
            vecs.append(x)
    return best, tuple(sorted(vecs))


def e8_gram():
    """Gram of the even-coordinate-system basis of the E8 root lattice."""
    basis = [
        [2, 0, 0, 0, 0, 0, 0, 0],
        [-1, 1, 0, 0, 0, 0, 0, 0],
        [0, -1, 1, 0, 0, 0, 0, 0],
        [0, 0, -1, 1, 0, 0, 0, 0],
        [0, 0, 0, -1, 1, 0, 0, 0],
        [0, 0, 0, 0, -1, 1, 0, 0],
        [0, 0, 0, 0, 0, -1, 1, 0],
        [Fr(1, 2)] * 8,
    ]
    rows = [
        [sum(basis[i][k] * basis[j][k] for k in range(8)) for j in range(8)]
        for i in range(8)
    ]
    return PQF.from_rows(rows)


class TestLll:
    def test_identity(self):
        q = PQF(SymForm.identity(3))
        qred, u, _ = lll_reduce(q)
        assert qred.form == SymForm.identity(3)
        assert u == ((1, 0, 0), (0, 1, 0), (0, 0, 1))

    def test_one_size_reduction(self):
        qred, u, _ = lll_reduce(PQF.from_rows([[2, 2], [2, 4]]))
        assert qred.form.rows() == ((2, 0), (0, 2))
        assert abs(det_bareiss(u)) == 1

    @pytest.mark.parametrize("seed", range(12))
    def test_reduction_contract(self, seed):
        rng = random.Random(seed)
        q = random_pd_gram(rng, rng.randint(1, 6))
        qred, _, _ = assert_lll_reduced(q)
        assert qred.det() == q.det()

    def test_scrambled_leech(self):
        """Leech's Gram after 60 unimodular moves: a reduction with long
        swaps, checked on the exact data as the small forms are."""
        leech = get("Leech").form
        u = random_unimodular(random.Random("scrambled leech"), 24, steps=60)
        assert_lll_reduced(leech.congruent(list(zip(*u))))


def assert_lll_reduced(q):
    """(Qred, U, U^-1) as LLL at LLL_DELTA promises: U U^-1 = I, Qred = U^t Q U,
    and on Gram-Schmidt data recomputed in Fractions from Qred alone, every
    |mu_kj| <= 1/2 and the Lovasz condition at LLL_DELTA."""
    qred, u, uinv = lll_reduce(q)
    d = q.d
    assert [[sum(u[i][k] * uinv[k][j] for k in range(d)) for j in range(d)]
            for i in range(d)] == [[int(i == j) for j in range(d)] for i in range(d)]
    assert qred == q.congruent(list(zip(*u)))
    g = qred.form
    mu = [[Fr(0)] * d for _ in range(d)]
    bstar = [Fr(0)] * d
    for k in range(d):
        bstar[k] = g.entry(k, k)
        for j in range(k):
            val = g.entry(k, j) - sum(mu[j][i] * mu[k][i] * bstar[i] for i in range(j))
            mu[k][j] = val / bstar[j]
            bstar[k] -= mu[k][j] ** 2 * bstar[j]
    for k in range(d):
        for j in range(k):
            assert 2 * abs(mu[k][j]) <= 1
        if k > 0:
            assert bstar[k] >= (lattices.LLL_DELTA - mu[k][k - 1] ** 2) * bstar[k - 1]
    return qred, u, uinv


def random_rational_pd(rng, d):
    """Q = B^t B + diag(1/k) for a random rational B: PD, non-integral."""
    b = [[Fr(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(d)] for _ in range(d)]
    rows = [
        [sum(b[k][i] * b[k][j] for k in range(d)) + (Fr(1, rng.randint(1, 7)) if i == j else 0)
         for j in range(d)]
        for i in range(d)
    ]
    return PQF.from_rows(rows)


def improve_walk_pool(seed):
    """The ``improve-walk`` benchmark's starts at ``seed``, round 0."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # dataclasses look their module up
    spec.loader.exec_module(workloads)
    return [x.q for x, _ in workloads.ImproveWalk().inputs(seed, 0)]


def assert_matches_reference(q):
    """(Qred, U, U^-1) and the walk's reduction as the lazy-GSO LLL gives them,
    and LLL-reduced on the exact data."""
    qred, u, uinv = assert_lll_reduced(q)
    ref_qred, ref_u = reference_lll.lll_reduce(q)
    assert (qred, u) == (ref_qred, ref_u.rows)
    assert uinv == ref_u.inverse().rows
    assert abs(det_bareiss(u)) == 1
    try:
        ref = reference_lll.reduce(q)
    except ValueError as exc:
        with pytest.raises(ValueError, match=re.escape(str(exc))):
            lattices._reduce(q)
        return
    red = lattices._reduce(q)
    ints = {f: getattr(red, f) for f in ("u", "uinv", "gram")}
    assert all(a.dtype == linalg.int_type(linalg.max_abs(a)) for a in ints.values())
    assert replace(red, **{f: tuple(map(tuple, a.tolist())) for f, a in ints.items()}) == ref


REFERENCE_SCALES = {
    "1": Fr(1), "2^60": Fr(2) ** 60, "2^-60": Fr(1, 2 ** 60),
    "2^1100": Fr(2) ** 1100, "2^-1100": Fr(1, 2 ** 1100),
    "10^400": Fr(10) ** 400, "10^-400": Fr(1, 10 ** 400),
}


class TestMatchesReference:
    """The same reduction as the LLL that rebuilt the Gram-Schmidt data lazily."""

    @pytest.mark.parametrize("scale", REFERENCE_SCALES.values(), ids=REFERENCE_SCALES)
    @pytest.mark.parametrize("d", range(1, 9))
    def test_random_forms(self, d, scale):
        rng = random.Random(f"reference lll {d}")
        for _ in range(2):
            assert_matches_reference(random_pd_gram(rng, d).scale(scale))
            assert_matches_reference(random_rational_pd(rng, d).scale(scale))

    @pytest.mark.parametrize("tiny", [Fr(1, 2 ** 53), Fr(1, 2 ** 60), Fr(1, 10 ** 400)],
                             ids=["2^-53", "2^-60", "10^-400"])
    def test_pivot_span_limit(self, tiny):
        """The same ValueError where the reduced pivots span past the limit."""
        assert_matches_reference(PQF.from_rows([[tiny, 0], [0, 1]]))
        assert_matches_reference(PQF.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, tiny]]))

    @pytest.mark.parametrize("d", range(2, 7))
    def test_tall_and_nearly_singular(self, d):
        """Forms of more than 1000 bits, and a rank-1 form plus 2^-e of a
        positive definite one, where the reduced pivots may pass the limit."""
        rng = random.Random(f"hard lll {d}")
        for _ in range(2):
            q = random_rational_pd(rng, d)
            assert_matches_reference(q.scale(Fr(rng.getrandbits(1100) | 1, rng.getrandbits(1100) | 1)))
            v = [rng.randint(-9, 9) for _ in range(d)]
            for e in (20, 45, 60):
                assert_matches_reference(PQF(SymForm.outer(v).add(q.form.scale(Fr(1, 2 ** e)))))

    @pytest.mark.parametrize("seed", [1, 2])
    def test_improve_walk_pool(self, seed):
        for q in improve_walk_pool(seed):
            assert_matches_reference(q)


@pytest.mark.parametrize("seed", range(4))
def test_equality_is_equality_of_forms(seed):
    """PQF == and hash agree with equality of the rational forms, whichever
    construction made them: ``from_rows``, ``scale``, ``congruent`` and the
    ``from_factors`` result of ``lll_reduce``."""
    rng = random.Random(f"pqf equality {seed}")
    d = rng.randint(1, 5)
    q = random_rational_pd(rng, d)
    s = Fr(rng.randint(2, 9), rng.randint(1, 9))
    u = random_unimodular(rng, d)
    qred, ured, _ = lll_reduce(q)
    forms = [
        q, PQF.from_rows(q.form.rows()), q.scale(s).scale(1 / s), q.scale(s),
        PQF.from_rows([[s * v for v in row] for row in q.form.rows()]),
        q.congruent(u), PQF.from_rows(q.congruent(u).form.rows()),
        qred, q.congruent(list(zip(*ured))), PQF.from_rows(qred.form.rows()),
    ]
    for a in forms:
        for b in forms:
            same = a.form.rows() == b.form.rows()
            assert (a == b) == same
            assert not same or hash(a) == hash(b)


def test_each_object_reduces_once(monkeypatch):
    """The first walk on a form reduces it and later walks on it read that
    reduction; an equal but distinct object reduces once on its own."""
    calls = []
    real = lattices.lll_reduce

    def counting(q):
        calls.append(q)
        return real(q)

    monkeypatch.setattr(lattices, "lll_reduce", counting)
    q = random_pd_gram(random.Random(9), 5)
    twin = PQF.from_rows(q.form.rows())
    assert twin == q and twin is not q
    for form in (q, twin, q, twin):
        shortest_vectors(form)
        closest_vectors(form, [Fr(1, 3)] * 5)
    assert len(calls) == 2 and calls[0] is q and calls[1] is twin


def test_reduce_factors_nothing(monkeypatch):
    """A fresh reduction factors no form and eliminates nothing: the reduced
    form comes back with the integral Gram-Schmidt data the LLL loop kept."""
    q = random_pd_gram(random.Random(5), 6)
    calls = {"ldl": 0, "factor_gram": 0, "echelon": 0}
    for name in calls:
        real = getattr(linalg, name)

        def counting(*args, _real=real, _name=name):
            calls[_name] += 1
            return _real(*args)

        for mod in (linalg, lattices):
            if getattr(mod, name, None) is real:
                monkeypatch.setattr(mod, name, counting)
    red = lattices._reduce(q)
    assert calls == {"ldl": 0, "factor_gram": 0, "echelon": 0}
    qred, _, _ = lll_reduce(q)
    # What the loop kept is the reduced form's own factorisation.
    assert (qred.den, qred.gram) == qred.form.integer_rows()
    fresh = linalg.ldl(qred.form)
    assert (qred.ldl.minors, qred.ldl.lam) == (fresh.minors, fresh.lam)
    assert red.gram.tolist() == [list(row) for row in qred.gram]


class TestShortestVectors:
    def test_identity(self):
        res = shortest_vectors(PQF(SymForm.identity(2)))
        assert res.min == 1
        assert res.vectors == ((0, 1), (1, 0))

    def test_hexagonal(self):
        res = shortest_vectors(PQF.from_rows([[2, 1], [1, 2]]))
        assert res.min == 2
        assert len(res.vectors) == 3
        _, oracle = brute_force_svp(PQF.from_rows([[2, 1], [1, 2]]), 2)
        assert res.vectors == oracle

    def test_e8(self):
        q = e8_gram()
        assert q.det() == 1
        res = shortest_vectors(q)
        assert res.min == 2
        assert len(res.vectors) == 120

    def test_rational_entries(self):
        res = shortest_vectors(PQF.from_rows([[Fr(1, 4)]]))
        assert res.min == Fr(1, 4)
        assert res.vectors == ((1,),)

    @pytest.mark.parametrize("seed", range(10))
    def test_against_brute_force(self, seed):
        rng = random.Random(40 + seed)
        d = rng.randint(2, 4)
        q = random_pd_gram(rng, d, spread=2)
        res = shortest_vectors(q)
        bmin, bvecs = brute_force_svp(q, 8)
        assert res.min == bmin
        assert res.vectors == bvecs

    @pytest.mark.parametrize("seed", range(50))
    def test_unimodular_invariance(self, seed):
        rng = random.Random(1000 + seed)
        d = rng.randint(2, 5)
        q = random_pd_gram(rng, d, spread=2)
        u = random_unimodular(rng, d)
        qu = q.congruent(list(zip(*u)))
        res, resu = shortest_vectors(q), shortest_vectors(qu)
        assert res.min == resu.min
        # Vector sets correspond under U (up to the sign canonicalization).
        mapped = set()
        for x in resu.vectors:
            y = tuple(sum(a * b for a, b in zip(row, x)) for row in u)
            first = next(v for v in y if v)
            mapped.add(tuple(-v for v in y) if first < 0 else y)
        assert mapped == set(res.vectors)


class TestClosestVectors:
    def test_tie_by_symmetry(self):
        res = closest_vectors(PQF(SymForm.identity(2)), [Fr(1, 2), 0])
        assert res.min == Fr(1, 4)
        assert res.vectors == ((0, 0), (1, 0))

    def test_zero_target(self):
        res = closest_vectors(PQF(SymForm.identity(2)), [0, 0])
        assert res.min == 0
        assert res.vectors == ((0, 0),)

    def test_hexagonal_third(self):
        q = PQF.from_rows([[2, 1], [1, 2]])
        c = [Fr(1, 3), Fr(1, 3)]
        res = closest_vectors(q, c)
        bmin, bvecs = brute_force_cvp(q, c, 3)
        assert res.min == bmin
        assert res.vectors == bvecs

    @pytest.mark.parametrize("seed", range(10))
    def test_against_brute_force(self, seed):
        rng = random.Random(70 + seed)
        d = rng.randint(1, 3)
        q = random_pd_gram(rng, d, spread=2)
        c = [Fr(rng.randint(-8, 8), rng.randint(1, 5)) for _ in range(d)]
        res = closest_vectors(q, c)
        # Shift c into [-1, 1] range for the box oracle to be conclusive.
        bmin, bvecs = brute_force_cvp(q, c, 10)
        assert res.min == bmin
        assert res.vectors == bvecs

    @pytest.mark.parametrize("seed", range(8))
    def test_integral_shift(self, seed):
        rng = random.Random(90 + seed)
        d = rng.randint(1, 3)
        q = random_pd_gram(rng, d, spread=2)
        c = [Fr(rng.randint(-4, 4), rng.randint(1, 4)) for _ in range(d)]
        z = [rng.randint(-3, 3) for _ in range(d)]
        res = closest_vectors(q, c)
        shifted = closest_vectors(q, [ci + zi for ci, zi in zip(c, z)])
        assert res.min == shifted.min
        assert shifted.vectors == tuple(
            sorted(tuple(x + w for x, w in zip(v, z)) for v in res.vectors)
        )


class TestCappedClosestVectors:
    """``closest_vectors`` with a bound: exact, ties kept, at or below the
    bound, and some value above it otherwise."""

    @pytest.mark.parametrize("seed", range(20))
    def test_contract(self, seed):
        rng = random.Random(f"capped cvp {seed}")
        d = rng.randint(1, 4)
        q = random_pd_gram(rng, d, spread=2)
        c = [Fr(rng.randint(-8, 8), rng.randint(1, 5)) for _ in range(d)]
        full = closest_vectors(q, c)
        for bound in (full.min, full.min * Fr(rng.randint(1, 9), 10), full.min + Fr(1, 7)):
            capped = closest_vectors(q, c, bound)
            if full.min <= bound:
                assert (capped.min, capped.vectors) == (full.min, full.vectors)
            else:
                assert capped.min > bound

    @pytest.mark.parametrize("seed", range(20))
    def test_generalized_min_keeps_min_x(self, seed, monkeypatch):
        """Capping each CVP walk at the SVP minimum changes no lambda and no
        block of Min X: the same as with uncapped walks."""
        from periform import periodic

        from periform.intmat import enumerate_sublattice_hnf

        rng = random.Random(f"capped genmin {seed}")
        d = rng.randint(1, 4)
        q = random_pd_gram(rng, d, spread=2).scale(Fr(rng.randint(1, 9), rng.randint(1, 9)))
        h = rng.choice(list(enumerate_sublattice_hnf(d, rng.randint(2, 4))))
        x = sublattice_representation(q, h)
        if seed % 2:  # moved off the cosets, so some pairs come closer
            x = PeriodicForm.make(x.q, [[v + Fr(rng.randint(-2, 2), 9) for v in col]
                                        for col in x.tcols])
        capped = generalized_min(x)
        monkeypatch.setattr(periodic, "closest_vectors",
                            lambda q, c, bound: closest_vectors(q, c))
        full = generalized_min(PeriodicForm(PQF(x.q.form), x.tcols))
        assert capped.lam == full.lam
        assert [(b.i, b.j, b.t, b.vs.tolist()) for b in capped.blocks] == [
            (b.i, b.j, b.t, b.vs.tolist()) for b in full.blocks]


class TestLevelWalker:
    """The level walker returns the node walker's points in the node walker's
    order, on both sides of ``BATCH_MIN_DIM``."""

    @staticmethod
    def assert_same_walk(q, center=None, half=True, widen=1):
        """``widen`` times the shortest-vector radius: the walk then shrinks
        its radius leaf by leaf."""
        red = lattices._reduce(q)
        center = [0.0] * q.d if center is None else center
        init = int(red.gram.diagonal().min())
        args = (red.dvec, red.lmat, center, red.radius(widen * init, red.den), half)
        nodes, levels = lattices._walk_nodes(*args), lattices._walk_levels(*args)
        assert nodes.shape == levels.shape and (nodes == levels).all()
        return nodes

    @pytest.mark.parametrize(
        "d", range(lattices.BATCH_MIN_DIM - 2, lattices.BATCH_MIN_DIM + 5)
    )
    def test_random_reduced_forms(self, d):
        rng = random.Random(f"level walker {d}")
        for spread in (1, 2):
            q = random_pd_gram(rng, d, spread)
            center = [rng.random() - 0.5 for _ in range(d)]
            for c, half in ((None, True), (center, False), (center, True)):
                self.assert_same_walk(q, c, half)
                self.assert_same_walk(q, c, half, widen=4)

    @pytest.mark.parametrize("d", range(12, 17))
    def test_short_chunks(self, d, monkeypatch):
        """A budget of 3 d floats at four times the shortest-vector radius:
        chunks of 3 nodes at the top level up to 3 d at the lowest, long link
        chains, each leaf batch read back through up to d - 1 links."""
        monkeypatch.setattr(lattices, "_FLOAT_BUDGET", 3 * d)
        rng = random.Random(f"short chunks {d}")
        q = random_pd_gram(rng, d, 1)
        self.assert_same_walk(q, widen=4)
        self.assert_same_walk(q, [rng.random() - 0.5 for _ in range(d)], half=False, widen=4)

    @pytest.mark.parametrize("d", [1, 2])
    def test_no_links(self, d):
        """At d = 1 the root's children are the leaves, at d = 2 one link deep."""
        rng = random.Random(f"no links {d}")
        for _ in range(4):
            q = random_pd_gram(rng, d)
            center = [rng.random() - 0.5 for _ in range(d)]
            for c, half in ((None, True), (center, False), (center, True)):
                self.assert_same_walk(q, c, half, widen=4)

    @pytest.mark.parametrize("budget", [1, 7, lattices._FLOAT_BUDGET])
    def test_k12(self, budget, monkeypatch):
        """Budgets of 7 floats split every level, and of 1 float make every
        chunk one node and each link chain as long as the tree is deep: the
        depth-first order holds."""
        monkeypatch.setattr(lattices, "_FLOAT_BUDGET", budget)
        q = get("K12").form
        assert len(self.assert_same_walk(q)) == 378
        self.assert_same_walk(q, [0.5, -0.25] + [0.0] * 10, half=False)

    @pytest.mark.parametrize("budget", [12, 50, 200])
    def test_chunks_within_budget(self, budget, monkeypatch):
        """No chunk the walker pushes holds more partial centers than the
        budget, k + 1 per node at level k, and some level fills its chunks.
        Each push is the top of the stack at the walker's next line."""
        monkeypatch.setattr(lattices, "_FLOAT_BUDGET", budget)
        pushed = set()

        def trace(frame, event, arg):
            if frame.f_code is not lattices._walk_levels.__code__:
                return None
            stack = frame.f_locals.get("stack")
            if stack:
                pushed.add(stack[-1][2].shape)
            return trace

        outer = sys.gettrace()
        sys.settrace(trace)
        try:
            self.assert_same_walk(get("K12").form)
        finally:
            sys.settrace(outer)
        assert max(levels * nodes for levels, nodes in pushed) <= budget
        assert any(levels > 1 and nodes == budget // levels for levels, nodes in pushed)

    @pytest.mark.slow
    def test_leech(self):
        assert len(self.assert_same_walk(get("Leech").form)) == 98280

    @pytest.mark.slow
    def test_leech_memory(self):
        """One level walk over Leech peaks below 16 MB: 7.2 MB with chunks of
        2 048 nodes on every level, 11.0 MB with the float budget."""
        red = lattices._reduce(get("Leech").form)
        args = (red.dvec, red.lmat, [0.0] * 24, red.radius(int(red.gram.diagonal().min()), red.den), True)
        tracemalloc.start()
        try:
            lattices._walk_levels(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16 * 2 ** 20

    def test_zero_prefix(self):
        """Half mode on Z^12: every minimal vector is one unit vector, so each
        level below a zero prefix is cut at 0 and the zero point is skipped."""
        points = self.assert_same_walk(PQF(SymForm.identity(12)))
        assert sorted(map(tuple, points.tolist())) == sorted(
            tuple(int(i == j) for j in range(12)) for i in range(12)
        )

    def test_empty_walk(self):
        q = PQF(SymForm.identity(12))
        red = lattices._reduce(q)
        args = (red.dvec, red.lmat, [0.5] * 12, 0.1, False)
        assert lattices._walk_nodes(*args).shape == (0, 12)
        assert lattices._walk_levels(*args).shape == (0, 12)

    @pytest.mark.parametrize("s", [Fr(2) ** 1100, Fr(1, 2 ** 1100)], ids=["2^1100", "2^-1100"])
    def test_exact_fallback_at_extreme_scales(self, s):
        """At 2^1100 the reduced Gram is evaluated in Python ints, at 2^-1100
        its denominator is; the walks and the minimizers are the unscaled ones."""
        q = get("K12").form
        qs = q.scale(s)
        assert (lattices._reduce(qs).gram.dtype == object) == (s > 1)
        assert (self.assert_same_walk(qs) == self.assert_same_walk(q)).all()
        c = [Fr(1, 3), Fr(-1, 2)] + [Fr(0)] * 10
        for base, scaled in (
            (shortest_vectors(q), shortest_vectors(qs)),
            (closest_vectors(q, c), closest_vectors(qs, c)),
        ):
            assert scaled.min == s * base.min
            assert scaled.vectors == base.vectors


# The largest |value| of each integer type, and one past it, with the
# narrowest type that holds it; and the largest integer bound that float64
# products take, with its neighbours.
TYPE_EDGES = {
    "2^7-1": (2 ** 7 - 1, np.int8), "2^7": (2 ** 7, np.int16),
    "2^15-1": (2 ** 15 - 1, np.int16), "2^15": (2 ** 15, np.int32),
    "2^31-1": (2 ** 31 - 1, np.int32), "2^31": (2 ** 31, np.int64),
    "2^53-1": (2 ** 53 - 1, np.int64), "2^53": (2 ** 53, np.int64),
    "2^53+1": (2 ** 53 + 1, np.int64),
    "2^63-1": (2 ** 63 - 1, np.int64), "2^63": (2 ** 63, object),
}


@pytest.mark.parametrize("e, dtype", TYPE_EDGES.values(), ids=TYPE_EDGES)
class TestIntTypeEdges:
    """Each exact product whose bound is an edge value e lands in the type
    ``int_type(e)`` names and equals Python-int arithmetic, so a bound off by
    one, which would overflow silently exactly here, fails."""

    def test_int_type(self, e, dtype):
        assert linalg.int_type(e) is dtype

    def test_affine_rows(self, e, dtype):
        # |x| <= e - 1 and |b| <= 1: the bound e is attained with both signs.
        out = linalg.affine_rows(np.array([[e - 1, 1 - e], [0, 0]]), 1, [1, -1])
        assert out.dtype == np.dtype(dtype)
        assert out.tolist() == [[e, -e], [1, -1]]

    @pytest.mark.parametrize("sign", [1, -1])
    def test_apply_rows_and_exact_values(self, e, dtype, sign, monkeypatch):
        """Both the float64 path (where exact) and the einsum give the edge."""
        m = linalg.int_matrix([[sign * e]])
        xs = np.array([[1], [-1], [0]], dtype=np.int8)
        for min_terms in (0, lattices._FLOAT_MIN_TERMS):
            monkeypatch.setattr(lattices, "_FLOAT_MIN_TERMS", min_terms)
            rows = lattices._IntMatrix(m).apply_rows(xs, 1)
            values = lattices._IntMatrix(m).exact_values(xs, 1)
            assert rows.dtype == values.dtype == np.dtype(dtype)
            assert rows.tolist() == [[sign * e], [-sign * e], [0]]
            assert values.tolist() == [sign * e, sign * e, 0]


def python_products(m, xs):
    """M x and x^t M x for each row x, in Python ints."""
    m, xs = [list(map(int, row)) for row in m], [list(map(int, x)) for x in xs]
    mx = [[sum(a * b for a, b in zip(row, x)) for row in m] for x in xs]
    return mx, [sum(a * b for a, b in zip(x, y)) for x, y in zip(xs, mx)]


def assert_exact_products(m, xs, xtop):
    """Both products equal Python-int sums, in ``int_type`` of their bounds."""
    products = lattices._IntMatrix(m)
    rows, values = products.apply_rows(xs, xtop), products.exact_values(xs, xtop)
    k, top, big = m.shape[1], max(xtop, 1), linalg.max_abs(m)
    assert rows.dtype == np.dtype(linalg.int_type(k * top * big))
    assert values.dtype == np.dtype(linalg.int_type((k * top) ** 2 * big))
    assert rows.shape == (len(xs), len(m)) and values.shape == (len(xs),)
    assert (rows.tolist(), values.tolist()) == python_products(m, xs)
    return rows, values


@pytest.fixture
def float_small(monkeypatch):
    """Products of every size take the float64 path where it is exact."""
    monkeypatch.setattr(lattices, "_FLOAT_MIN_TERMS", 0)


@pytest.mark.usefixtures("float_small")
@pytest.mark.parametrize("r", [-1, 0, 1], ids=["2^53-1", "2^53", "2^53+1"])
class TestFloatPathEdges:
    """Bounds of 2^53 + r, reached by sums of several terms of mixed signs.
    Up to 2^53 the products run in float64, which holds every partial sum;
    at 2^53 + 1 they must not, since float64 rounds the odd sum 2^53 + 1."""

    def test_apply_rows(self, r):
        """(M x)_0 = 2^53 + r at x = (1, -1), with bound 2^53 for r <= 0."""
        h = 2 ** 52
        m = linalg.int_matrix([[h + r, -h], [h, h]])
        xs = np.array([[1, -1], [-1, 1], [1, 1], [0, 0]], dtype=np.int8)
        rows, _ = assert_exact_products(m, xs, 1)
        assert rows[:2, 0].tolist() == [2 ** 53 + r, -(2 ** 53 + r)]

    def test_exact_values(self, r):
        """x^t M x = 2^53 + r at x = (1, -1), with bound 2^53 for r <= 0."""
        h = 2 ** 51
        m = linalg.int_matrix([[h + r, -h], [-h, h]])
        xs = np.array([[1, -1], [-1, 1], [1, 1], [0, 0], [1, 0]], dtype=np.int8)
        _, values = assert_exact_products(m, xs, 1)
        assert values[:2].tolist() == [2 ** 53 + r] * 2


@pytest.mark.usefixtures("float_small")
class TestFloatPath:
    """The float64 path below 2^53 on inputs of every shape."""

    def test_object_rows(self):
        m = linalg.int_matrix([[3, -1, 2], [-1, 5, 0], [2, 0, 7]])
        xs = np.array([[3, -2, 1], [0, 0, 0], [-4, 4, 1]], dtype=object)
        assert_exact_products(m, xs, 4)

    def test_zero_rows(self):
        m = linalg.int_matrix([[2, 1, 0], [1, 2, 1], [0, -1, 2]])
        rows, values = assert_exact_products(m, np.zeros((0, 3), np.int8), 0)
        assert rows.shape == (0, 3) and values.shape == (0,)

    @pytest.mark.parametrize("n", [3, 7, 9])
    def test_blocks(self, n, monkeypatch):
        """Blocks of 3 rows: one block, a partial last block, full blocks."""
        monkeypatch.setattr(lattices, "_ROW_BLOCK", 3)
        rng = random.Random(f"float blocks {n}")
        m = linalg.int_matrix([[rng.randint(-99, 99) for _ in range(4)] for _ in range(4)])
        xs = np.array([[rng.randint(-9, 9) for _ in range(4)] for _ in range(n)], dtype=np.int8)
        assert_exact_products(m, xs, 9)


@pytest.mark.slow
def test_leech_products_memory():
    """Leech's 98 281 candidates: neither product holds more than 8 MB
    beside its output, so no float copy of all rows is made."""
    red = lattices._reduce(get("Leech").form)
    init = int(red.gram.diagonal().min())
    cands = lattices._enumerate(red.dvec, red.lmat, [0.0] * 24, red.radius(init, red.den), True)
    top = linalg.max_abs(cands)
    for f in (red.gram_products.exact_values, red.u_products.apply_rows):
        tracemalloc.start()
        try:
            out = f(cands, top)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - out.nbytes <= 8 * 2 ** 20


SCALE_FORMS = {
    "A2": lambda: get("A", 2).form,
    "D4": lambda: get("D", 4).form,
    "random3": lambda: random_pd_gram(random.Random(7), 3),
    "random4": lambda: random_pd_gram(random.Random(8), 4).scale(Fr(1, 3)),
}
SCALES = {f"2^{k}": Fr(2) ** k for k in (1, -1, 60, -60, 1100, -1100)}
SCALES.update({"10^400": Fr(10) ** 400, "10^-400": Fr(1, 10 ** 400)})
# NotExtreme starts of the improve-walk benchmark pool, (d, m) = (3, 1),
# (2, 2) and (3, 2): (Q, translation columns).
NOT_EXTREME_FORMS = {
    "3x1": ([[5, 1, 2], [1, 6, 1], [2, 1, 1]], []),
    "2x2": ([[2, 1], [1, 5]], [[0, Fr(1, 3)]]),
    "3x2": ([[6, 3, -5], [3, 5, -2], [-5, -2, 5]], [[0, 0, Fr(3, 4)]]),
}


class TestScaleInvariance:
    """Rescaling Q rescales the minimum and leaves every minimizer set alone."""

    @pytest.mark.parametrize("s", SCALES.values(), ids=SCALES.keys())
    @pytest.mark.parametrize("name", sorted(SCALE_FORMS))
    def test_scaled_form(self, name, s):
        q = SCALE_FORMS[name]()
        qs = q.scale(s)
        c = [Fr(1, 3), Fr(1, 2), Fr(-2, 5), Fr(3, 7)][: q.d]
        x = PeriodicForm.make(q, [c])
        for base, scaled in (
            (shortest_vectors(q), shortest_vectors(qs)),
            (closest_vectors(q, c), closest_vectors(qs, c)),
        ):
            assert scaled.min == s * base.min
            assert scaled.vectors == base.vectors
        base, scaled = generalized_min(x), generalized_min(x.with_q(qs))
        assert scaled.lam == s * base.lam
        assert scaled.reps == base.reps

    @pytest.mark.parametrize("s", [SCALES[k] for k in ("2^1100", "2^-1100", "10^400", "10^-400")],
                             ids=["2^1100", "2^-1100", "10^400", "10^-400"])
    @pytest.mark.parametrize("name", sorted(NOT_EXTREME_FORMS))
    def test_certify_not_extreme(self, name, s):
        """N scales like Q^{-1}, so the verified step must not start at a fixed eps."""
        rows, tcols = NOT_EXTREME_FORMS[name]
        x = PeriodicForm.make(PQF.from_rows(rows).scale(s), tcols)
        cert = certify(x)
        assert cert.verdict == NOT_EXTREME
        found = improvement_step(x, cert.improving, density(x, cert.lam))
        assert found is not None
        eps, stepped = found
        assert stepped == x.add_tangent(cert.improving, eps)
        assert density(stepped).center_density_squared > density(x).center_density_squared

    @pytest.mark.parametrize(
        "tiny", [Fr(1, 2 ** 50), Fr(1, 10 ** 400)], ids=["2^-50", "10^-400"]
    )
    def test_pivot_span(self, tiny):
        """diag(tiny, 1): the exact answer, or a ValueError naming the limit."""
        q = PQF.from_rows([[tiny, 0], [0, 1]])
        c = [Fr(1, 2), Fr(1, 2)]
        try:
            svp, cvp = shortest_vectors(q), closest_vectors(q, c)
            gm = generalized_min(PeriodicForm.make(q, [c]))
        except ValueError as exc:
            assert f"2^{lattices.MAX_PIVOT_SPAN_BITS}" in str(exc)
            return
        assert (svp.min, svp.vectors) == (tiny, ((1, 0),))
        assert cvp.min == (tiny + 1) / 4
        assert cvp.vectors == ((0, 0), (0, 1), (1, 0), (1, 1))
        assert gm.lam == tiny
        assert [(r.i, r.j, r.v) for r in gm.reps] == [(1, 1, (-1, 0))]


def test_generalized_min_reduces_each_form_once(monkeypatch):
    diag = [[2, 0, 0, 0], [0, 2, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    x = sublattice_representation(get("D", 4).form, diag)
    assert x.m == 4
    calls = []
    real = lattices.lll_reduce

    def counting(q, *args, **kwargs):
        calls.append(q)
        return real(q, *args, **kwargs)

    monkeypatch.setattr(lattices, "lll_reduce", counting)
    generalized_min(x)
    assert len(calls) == 1
