import random
from fractions import Fraction as Fr
from types import SimpleNamespace

import numpy as np
import pytest

from helpers import goal_row, run_python, stack
from periform.cones import FloatImage, project_to_cone
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


def test_import_leaves_scipy_optimize_out():
    """scipy.optimize costs more to import than most certificates: it loads on
    the first float solve, not with the package."""
    code = "import sys, periform; print('scipy.optimize' in sys.modules)"
    out = run_python(code)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"


def test_small_domains_leave_scipy_linalg_out():
    """Certificates of small domains, as sublattice representations of A2,
    D4 and E8 (288 rows), never load scipy.linalg."""
    code = (
        "import sys, periform as P\n"
        "for name, params, h in [\n"
        "        ('A', (2,), [[1, 0], [0, 2]]),\n"
        "        ('D', (4,), [[2, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]),\n"
        "        ('E8', (), [[3 if i == j == 0 else int(i == j) for j in range(8)]\n"
        "                    for i in range(8)])]:\n"
        "    x = P.sublattice_representation(P.get(name, *params).form, h)\n"
        "    P.certify(x)\n"
        "print(len(P.voronoi_domain(x).rows), 'scipy.linalg' in sys.modules)\n"
    )
    out = run_python(code)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "288 False"


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
