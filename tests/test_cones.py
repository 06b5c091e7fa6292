import random
from fractions import Fraction as Fr
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.optimize import nnls as reference_nnls

import periform.cones as cones
from helpers import goal_row, run_python, stack
from periform.cones import FloatImage, nnls, project_to_cone
from periform.linalg import SymForm, TangentVector, inner, int_matrix, metric_weights


def tv1(q, t):
    return TangentVector.make(SymForm.from_rows([[Fr(q)]]), [[Fr(t)]])


def project(gens, target):
    """project_to_cone on the stacked rows, with the point and the residual
    (point - target) as tangent vectors."""
    d, m = target.d, target.m
    metric = metric_weights(d, m)
    goal, gden = goal_row(target)
    proj = project_to_cone(*stack(gens), goal, gden, metric)
    residual = [Fr(r, proj.scale) for r in proj.residual]

    def tangent(coords):
        return TangentVector.unflatten([w * v / 2 for w, v in zip(metric, coords)], d, m)

    return SimpleNamespace(
        point=tangent([r + Fr(g, gden) for r, g in zip(residual, goal)]),
        coeffs=proj.coeffs,
        residual=tangent(residual),
    )


class TestProjectToCone:
    def test_point_inside_cone(self):
        gens = [tv1(1, 0), tv1(0, 1)]
        target = tv1(Fr(1, 2), Fr(1, 3))
        proj = project(gens, target)
        assert proj.residual.is_zero()
        assert proj.coeffs == (Fr(1, 2), Fr(1, 3))

    def test_single_ray(self):
        # Project (1, 0) onto the ray spanned by (4/25, 4/5): hand value.
        g = tv1(Fr(4, 25), Fr(4, 5))
        target = tv1(1, 0)
        proj = project([g], target)
        assert proj.point.qpart.entry(0, 0) == Fr(1, 26)
        assert proj.point.tcols[0][0] == Fr(5, 26)
        assert inner(g, proj.residual) == 0

    def test_apex_when_target_in_polar(self):
        g = tv1(1, 0)
        target = tv1(-3, 0)
        proj = project([g], target)
        assert proj.point.is_zero()
        assert proj.coeffs == (Fr(0),)

    def test_duplicate_generators(self):
        g = tv1(2, 1)
        target = tv1(4, 2)
        proj = project([g, g, g], target)
        assert proj.residual.is_zero()

    @pytest.mark.parametrize("seed", range(30))
    def test_projection_certificates(self, seed):
        rng = random.Random(seed)
        d = rng.randint(1, 3)
        m = rng.randint(1, 3)

        def rand_tv():
            rows = [[Fr(0)] * d for _ in range(d)]
            for i in range(d):
                for j in range(i, d):
                    rows[i][j] = rows[j][i] = Fr(rng.randint(-3, 3))
            cols = [[Fr(rng.randint(-3, 3)) for _ in range(d)] for _ in range(m - 1)]
            return TangentVector.make(SymForm.from_rows(rows), cols)

        gens = [rand_tv() for _ in range(rng.randint(1, 6))]
        if all(g.is_zero() for g in gens):
            return
        gens = [g for g in gens if not g.is_zero()]
        target = rand_tv()
        proj = project(gens, target)
        # Optimality: residual in the dual cone, orthogonal to the point.
        for g in gens:
            assert inner(g, proj.residual) >= 0
        assert inner(proj.point, proj.residual) == 0
        # Moreau: the projection is no farther than any sampled cone point.
        dist = inner(proj.residual, proj.residual)
        for _ in range(20):
            coeffs = [Fr(rng.randint(0, 4), rng.randint(1, 3)) for _ in gens]
            cand = gens[0].scale(coeffs[0])
            for g, c in zip(gens[1:], coeffs[1:]):
                cand = cand.add(g.scale(c))
            diff = cand.sub(target)
            assert inner(diff, diff) >= dist


def test_float_solves_leave_scipy_out():
    """The float nnls that steers the cone projections is periform's own: a
    fresh process that certifies Lambda9 and takes one ``improve`` step from
    a NotExtreme form calls it and never loads scipy."""
    code = (
        "import sys, periform as P, periform.cones as C\n"
        "from fractions import Fraction as Fr\n"
        "calls, real = [], C.nnls\n"
        "C.nnls = lambda a, b: calls.append(1) or real(a, b)\n"
        "x = P.PeriodicForm.make(P.PQF.from_rows([[2, 1], [1, 5]]), [[0, Fr(1, 3)]])\n"
        "verdicts = [P.certify(P.get('Lambda9').form).verdict, P.certify(x).verdict]\n"
        "steps = len(P.improve(x, steps=1).steps)\n"
        "scipy = any(k.split('.')[0] == 'scipy' for k in sys.modules)\n"
        "print(*verdicts, steps, len(calls) > 2, scipy)\n"
    )
    out = run_python(code)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["ExtremeTranslational", "NotExtreme", "1", "True", "False"]


def per_entry_image(matrix, den):
    """FloatImage's shifts and floats, one entry at a time, from the exact
    values: coordinate i and generator k scaled by 2^-row_shift[i] and
    2^-col_shift[k] so each has its largest entry in [1/2, 2)."""
    rows = matrix.tolist()

    def mag(v):
        f = Fr(v, den)
        return f.numerator.bit_length() - f.denominator.bit_length()

    dim = matrix.shape[1]
    row_shift = [max((mag(r[i]) for r in rows if r[i]), default=0) for i in range(dim)]
    col_shift = [max((mag(v) - s for v, s in zip(r, row_shift) if v), default=0) for r in rows]

    def scaled(v, k):  # float(v / den * 2^-k), correctly rounded
        return (v << -k) / den if k <= 0 else v / (den << k)

    return row_shift, [[scaled(r[i], row_shift[i] + c) for r, c in zip(rows, col_shift)]
                       for i in range(dim)]


@pytest.mark.parametrize("seed", range(12))
def test_float_image_matches_per_entry(seed):
    """One float per distinct (value, shift) pair gives the bits one float
    per entry gives: repeated values, zero rows and columns, entries
    2^+-1100 apart, Python-int matrices."""
    rng = random.Random(f"float image {seed}")
    n, dim = rng.randint(1, 30), rng.randint(1, 12)
    palette = [0] + [rng.choice([-1, 1]) * rng.randint(1, 9) << rng.choice([0, 3, 60, 1100])
                     for _ in range(rng.randint(1, 8))]
    rows = [[rng.choice(palette) for _ in range(dim)] for _ in range(n)]
    if seed % 3 == 0:
        rows[0] = [0] * dim
        for r in rows:
            r[-1] = 0
    den = rng.choice([1, 3, 2 ** 61, 10 ** 300])
    matrix = int_matrix(rows)
    for m in (matrix, matrix.astype(object)):
        image = FloatImage(m, den)
        row_shift, floats = per_entry_image(m, den)
        assert image.row_shift == row_shift
        assert image.a.tobytes() == np.array(floats, dtype=float).tobytes()


# ---------------------------------------------------------------------------
# nnls against scipy.optimize.nnls, a reference that only the tests import.
# ---------------------------------------------------------------------------


def degenerate_problems():
    rng = np.random.default_rng(7)
    a = rng.standard_normal((5, 8))
    duplicate = a.copy()
    duplicate[:, 3] = duplicate[:, 6] = a[:, 1]
    zero = a.copy()
    zero[:, 2] = 0
    return {
        "duplicate-columns": (duplicate, rng.standard_normal(5)),
        "duplicate-columns-inside": (duplicate, duplicate @ rng.random(8)),
        "zero-column": (zero, rng.standard_normal(5)),
        "on-a-face": (a, a[:, :2] @ [1.5, 0.25]),
        "on-a-ray": (a, 2 * a[:, 4]),
        "zero-target": (a, np.zeros(5)),
        "one-column-inside": (a[:, :1], 3 * a[:, 0]),
        "one-column-polar": (a[:, :1], -a[:, 0]),
        "one-by-one": (np.array([[2.0]]), np.array([3.0])),
        "small-gradient": (np.eye(3), np.array([1.0, 1e-6, -1.0])),
        "wide": (rng.standard_normal((3, 40)), rng.standard_normal(3)),
        "tall": (rng.standard_normal((40, 3)), rng.standard_normal(40)),
        "small-integers": (rng.integers(-2, 3, (6, 4)).astype(float), rng.standard_normal(6)),
    }


def check_against_reference(a, b):
    """x = nnls(a, b) meets the optimality (KKT) conditions, fits b as well as
    the reference does and, unless a weight of either lies in (0, 1e-9),
    has its support, with duplicate columns counted as their first copy."""
    x, expected = nnls(a, b), reference_nnls(a, b)[0]
    assert x is not None and x.shape == expected.shape and (x >= 0).all()
    w = a.T @ (b - a @ x)
    tol = 1e-9 * (1 + np.abs(a).max() * np.abs(b).sum())
    assert w.max() <= tol
    assert np.abs(w[x > 0]).max(initial=0) <= tol
    assert np.linalg.norm(a @ x - b) == pytest.approx(np.linalg.norm(a @ expected - b), abs=tol)
    weights = np.concatenate([x, expected])
    if ((weights > 0) & (weights < 1e-9)).any():
        return
    cols = a.T.tolist()
    first = [cols.index(col) for col in cols]
    assert ({first[j] for j in np.flatnonzero(x > cones._SUPPORT_WEIGHT)}
            == {first[j] for j in np.flatnonzero(expected > cones._SUPPORT_WEIGHT)})


@pytest.mark.parametrize("seed", range(40))
def test_nnls_matches_reference_on_random_problems(seed):
    rng = np.random.default_rng(seed)
    m, n = rng.integers(1, 13, size=2)
    check_against_reference(rng.standard_normal((m, n)), rng.standard_normal(m))


@pytest.mark.parametrize("name", sorted(degenerate_problems()))
def test_nnls_matches_reference_on_degenerate_problems(name):
    check_against_reference(*degenerate_problems()[name])


def test_support_is_empty_at_the_iteration_limit(monkeypatch):
    """When nnls stops at its iteration limit (None), the warm start is empty
    and the exact projection starts from the apex."""
    image = FloatImage(int_matrix([[1, 0], [1, 1]]), 1)
    assert image.support([2, 1], 1) == (0, 1)
    monkeypatch.setattr(cones, "nnls", lambda a, b: None)
    assert image.support([2, 1], 1) == ()
