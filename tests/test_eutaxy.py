"""The eutaxy path of ``certify`` against the exact simplex path it replaced.

``_classify`` (the steps of ``eutaxy_status``) must give the tag and the face
that ``reference_status`` gives, on random cones, on the edge cases random
cones rarely reach and on catalog forms, without entering the simplex, and
every witness and separator it returns must pass the exact checks written
here, independently of the ones in ``certify``.  On the boundary,
``uncertainty_space`` must give the basis that the implicit-equality LPs of
``reference_uncertainty`` give.
"""

import importlib
import json
import random
from fractions import Fraction as Fr
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.optimize

import periform.cones as cones
import periform.simplex as simplex
from helpers import classify_rows, det_target, gradients, run_python, stack
from periform.catalog import fluid_diamond
from periform.certify import (
    BOUNDARY,
    INTERIOR,
    OUTSIDE,
    certify,
    eutaxy_status,
    uncertainty_space,
    voronoi_domain,
)
from periform.linalg import PQF, SymForm, TangentVector, ambient_dim, inner
from periform.periodic import PeriodicForm
from reference_eutaxy import reference_status, reference_uncertainty

# The module, not the function the package exports under the same name.
certify_module = importlib.import_module("periform.certify")

SHAPES = ((1, 2), (2, 1), (2, 2), (3, 1), (2, 3), (3, 2))
KINDS = ("interior", "boundary", "outside", "free")
SCALES = (Fr(1), Fr(2) ** 60, Fr(2) ** -60, Fr(10) ** 400, Fr(1, 10 ** 400))


def combination(gens, weights):
    total = gens[0].scale(weights[0])
    for g, w in zip(gens[1:], weights[1:]):
        total = total.add(g.scale(w))
    return total


def is_witness(gens, target, alpha):
    return (
        len(alpha) == len(gens)
        and all(a > 0 for a in alpha)
        and combination(gens, alpha).sub(target).is_zero()
    )


def is_separator(gens, target, s):
    return inner(s, target) < 0 and all(inner(s, g) >= 0 for g in gens)


def certificate_holds(gens, target, status):
    """The exact check of whatever certificate ``status`` carries."""
    if status.tag == INTERIOR:
        return is_witness(gens, target, status.witness)
    if status.tag == OUTSIDE:
        # The nearest-point residual N is orthogonal to the cone point target + N.
        n = status.separator
        return is_separator(gens, target, n) and inner(n, n.add(target)) == 0
    return status.tag == BOUNDARY and status.face is not None


def random_cone(seed):
    """(generators, target, ambient): a seeded cone of one of four kinds.

    interior: the target is a positive combination of every generator.
    boundary: the generators lie in {f >= 0} and the target is a positive
    combination of the ones on {f = 0}.  outside: the generators lie in
    {f >= 0} and the target in {f < 0}.  free: no structure.  Some cones get
    duplicate and parallel generators, some a span short of the space, some
    1100-bit heights, and each is rescaled the way a rescaled Q rescales the
    eutaxy problem: translation coordinates by s, the target by 1/s.
    """
    rng = random.Random(seed)
    d, m = SHAPES[seed % len(SHAPES)]
    kind = KINDS[seed % len(KINDS)]
    scale = SCALES[(seed // len(KINDS)) % len(SCALES)]
    flat = rng.random() < 0.3  # translation parts zero: rank short of ambient
    dim = ambient_dim(d, m)

    def vec():
        tri = d * (d + 1) // 2
        coords = [Fr(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(dim)]
        if flat:
            coords[tri:] = [Fr(0)] * (dim - tri)
        return TangentVector.unflatten(coords, d, m)

    def positive():
        return Fr(rng.randint(1, 9), rng.randint(1, 9))

    f = vec()
    while f.is_zero():
        f = vec()
    k = rng.randint(1, dim + 3)
    if kind == "interior":
        gens = [vec() for _ in range(k)]
        target = combination(gens, [positive() for _ in gens])
    elif kind == "boundary":  # the reference takes one exact LP per generator: keep it small
        ff = inner(f, f)
        face = [g.sub(f.scale(inner(g, f) / ff)) for g in (vec() for _ in range(k // 2 + 1))]
        rest = [g.scale(-1) if inner(g, f) < 0 else g for g in (vec() for _ in range(k // 2 + 1))]
        rest = [g for g in rest if inner(g, f) > 0] or [f]
        target = combination(face, [positive() for _ in face])
        gens = face + rest
    elif kind == "outside":
        gens = [g.scale(-1) if inner(g, f) < 0 else g for g in (vec() for _ in range(k))]
        target = vec()
        target = target.sub(f.scale((inner(target, f) + positive()) / inner(f, f)))
    else:
        gens = [vec() for _ in range(k)]
        target = vec()
    gens = [g for g in gens if not g.is_zero()] or [f]
    if rng.random() < 0.4:
        gens += [gens[0], gens[-1].scale(positive())]  # duplicate and parallel
    rng.shuffle(gens)
    if seed % 5 == 4:  # heights past 1000 bits; the cone is unchanged
        gens = [g.scale(Fr(rng.getrandbits(1100) | 1, rng.getrandbits(1100) | 1))
                for g in gens]
        target = target.scale(Fr(rng.getrandbits(1100) | 1, rng.getrandbits(1100) | 1))

    def rescale(v, c):
        return TangentVector(v.qpart.scale(c), tuple(
            tuple(scale * c * t for t in col) for col in v.tcols))

    return [rescale(g, 1) for g in gens], rescale(target, 1 / scale), dim


def domain_of(gens):
    """All that ``uncertainty_space`` reads of a domain on the boundary."""
    return SimpleNamespace(rows=stack(gens)[0], d=gens[0].d, m=gens[0].m)


def classify(gens, target):
    return classify_rows(*stack(gens), target)


def forbid_simplex(monkeypatch):
    """``certify`` answers every cone question with the exact projection: a
    call into the exact simplex fails the test."""

    def no_lp(*args, **kwargs):
        raise AssertionError("the exact simplex ran")

    monkeypatch.setattr(simplex, "solve_lp", no_lp)


def count_projections(monkeypatch):
    """(membership, descent): the lists that each ``project_to_cone`` call of
    the membership test and of face descent appends to."""
    membership, descent = [], []
    for module, calls in ((certify_module, membership), (cones, descent)):
        real = module.project_to_cone

        def counting(*args, real=real, calls=calls, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(module, "project_to_cone", counting)
    return membership, descent


def check_against_reference(gens, target, monkeypatch):
    """Same tag and face as the reference, without the simplex; one membership
    projection, and face descent takes at most 1 + (generators off F(X))
    projections: none outside, one in the interior."""
    expected = reference_status(gens, target)
    forbid_simplex(monkeypatch)
    membership, descent = count_projections(monkeypatch)
    got = classify(gens, target)
    assert (got.tag, got.face) == (expected.tag, expected.face)
    assert certificate_holds(gens, target, got)
    assert len(membership) == 1
    if got.tag == OUTSIDE:
        assert descent == []
    elif got.tag == INTERIOR:
        assert len(descent) == 1
    else:
        assert 1 <= len(descent) <= 1 + len(gens) - len(got.face)
    return got


@pytest.mark.parametrize("seed", range(80))
def test_matches_exact_path(seed, monkeypatch):
    """The reference's tag and face; on the boundary U(X) takes no projection."""
    gens, target, dim = random_cone(seed)
    got = check_against_reference(gens, target, monkeypatch)
    if got.tag == BOUNDARY:
        membership, descent = count_projections(monkeypatch)
        uncertainty_space(domain_of(gens), got)
        assert membership == descent == []


@pytest.mark.parametrize("seed", [s for s in range(80) if KINDS[s % 4] != "boundary"])
def test_clear_cases_skip_the_simplex(seed, monkeypatch):
    """Interior and outside cones take one membership projection and at most
    one more: the exact simplex is never entered."""
    gens, target, dim = random_cone(seed)
    expected = reference_status(gens, target)
    if expected.tag == BOUNDARY:
        return
    forbid_simplex(monkeypatch)
    membership, descent = count_projections(monkeypatch)
    got = classify(gens, target)
    assert got.tag == expected.tag
    assert certificate_holds(gens, target, got)
    assert len(membership) + len(descent) <= 2


# ---------------------------------------------------------------------------
# Edge cases that random cones rarely reach.
# ---------------------------------------------------------------------------


def tangent(rows, *tcols):
    return TangentVector.make(SymForm.from_rows(rows), tcols)


E11, E22, E12 = tangent([[1, 0], [0, 0]]), tangent([[0, 0], [0, 1]]), tangent([[0, 1], [1, 0]])
ZERO2 = tangent([[0, 0], [0, 0]])


def d1(q, t=None):
    """A tangent vector for d = 1: m = 1 without t, m = 2 with it."""
    return tangent([[q]]) if t is None else tangent([[q]], [t])


def parallel(g):
    """g with a duplicate and parallel copies at 2^+-1100."""
    big = Fr(2) ** 1100
    return [g, g, g.scale(big), g.scale(1 / big), g.scale(3 * big)]


EDGE_CASES = {
    # A cone that holds a line: face descent meets mu = 0.
    "line-diag": ([E11, E11.scale(-1), E22, E22.scale(-1)], tangent([[3, 0], [0, Fr(-1, 2)]])),
    "line-zero": ([E11, E11.scale(-1), E22, E22.scale(-1)], ZERO2),
    "line-outside": ([E11, E11.scale(-1), E22, E22.scale(-1)], E12),
    "line-halfplane": ([E11, E11.scale(-1), E22], E11.add(E22)),
    "line-face": ([E11, E12, E11.scale(-1)], E11.scale(5)),
    # The zero target: the lineality space is F(X).
    "zero-pointed": ([E11, E22, E12.add(E11).add(E22)], ZERO2),
    "zero-d1": ([d1(1), d1(2)], d1(0)),
    # Duplicate and parallel generators at 2^+-1100.
    "parallel-interior": (parallel(E11), E11.scale(Fr(2) ** -1100)),
    "parallel-boundary": (parallel(E11) + [E22.scale(Fr(2) ** 1100)], E11),
    "parallel-outside": (parallel(E12) + [E11], E22),
    "parallel-line": (parallel(E11) + parallel(E11.scale(-1)), E11.scale(Fr(2) ** 1100)),
    # d = 1.
    "d1-interior": ([d1(2)], d1(Fr(1, 3))),
    "d1-outside": ([d1(2)], d1(-1)),
    "d1m2-interior": ([d1(1, 1), d1(1, -1)], d1(1, 0)),
    "d1m2-boundary": ([d1(1, 0), d1(0, 1), d1(1, 1)], d1(Fr(2, 7), 0)),
    "d1m2-outside": ([d1(1, 1), d1(1, -1)], d1(-1, 0)),
}


@pytest.mark.parametrize("name", EDGE_CASES)
def test_edge_cases_match_exact_path(name, monkeypatch):
    gens, target = EDGE_CASES[name]
    check_against_reference(gens, target, monkeypatch)


# ---------------------------------------------------------------------------
# The boundary: U(X) against the implicit-equality LPs of the reference.
# ---------------------------------------------------------------------------

@pytest.mark.slow
@pytest.mark.parametrize("seed", [s for s in range(200) if KINDS[s % 4] == "boundary"])
def test_boundary_uncertainty_matches_reference(seed):
    """No non-face generator is an implicit equality, so the basis is the
    complement of the face generators and the uncertainty cone is not linear.
    Slow: the reference takes one exact LP per non-face generator."""
    gens, target, dim = random_cone(seed)
    status = classify(gens, target)
    assert status.tag == BOUNDARY
    basis, is_subspace, implicit = reference_uncertainty(gens, status.face)
    assert implicit == [] and not is_subspace
    assert uncertainty_space(domain_of(gens), status) == (basis, False)


# ---------------------------------------------------------------------------
# Fallback: float solves that return garbage must not change a verdict.
# ---------------------------------------------------------------------------

GARBAGE_SEEDS = range(6, 22)


def garbage_nnls(seed=0):
    """An nnls stand-in that returns seeded nonsense of the right shape on a
    random subset of the columns, or stops at its iteration limit, for the
    membership projection and for every projection of face descent."""
    rng = np.random.default_rng(seed)

    def nnls(a, b, **kwargs):
        if rng.random() < 0.2:
            raise RuntimeError("nnls stand-in: iteration limit")
        n = a.shape[1]
        return rng.random(n) * rng.integers(0, 2, n) * 10, float(rng.random())

    return nnls


def garbage_cases():
    """(generators, target, ambient) for small catalog-free forms, the edge
    cases and random cones."""
    forms = [
        PeriodicForm.make(PQF.from_rows([[1]]), [[Fr(2, 5)]]),
        PeriodicForm.lattice(PQF.from_rows([[1, 0], [0, 2]])),
        PeriodicForm.lattice(PQF.from_rows([[2, 1, 0], [1, 2, 0], [0, 0, 2]])),
        PeriodicForm.lattice(PQF.from_rows([[2, 1], [1, 2]])),
        PeriodicForm.make(PQF.from_rows([[2, 1], [1, 5]]), [[0, Fr(1, 3)]]),
    ]
    cases = []
    for x in forms:
        cases.append((gradients(x), det_target(x), voronoi_domain(x).ambient))
    cases.append(([E11, E22], E11, 3))  # on a proper face: boundary
    cases += [(gens, target, None) for gens, target in EDGE_CASES.values()]
    cases += [random_cone(seed) for seed in GARBAGE_SEEDS]
    return cases


def garbage_verdicts():
    """[tag, face, certificate holds] per case, checked without ``assert``."""
    out = []
    for gens, target, dim in garbage_cases():
        st = classify(gens, target)
        out.append([st.tag, list(st.face or ()), bool(certificate_holds(gens, target, st))])
    return out


def exact_verdicts():
    return [
        [st.tag, list(st.face or ()), True]
        for st in (reference_status(gens, target) for gens, target, _ in garbage_cases())
    ]


def test_garbage_float_solves(monkeypatch):
    monkeypatch.setattr(scipy.optimize, "nnls", garbage_nnls())
    assert garbage_verdicts() == exact_verdicts()


def test_garbage_float_solves_without_asserts():
    """The same under python -O: the checks in certify are control flow."""
    code = (
        "import json, scipy.optimize, test_eutaxy as t\n"
        "scipy.optimize.nnls = t.garbage_nnls()\n"
        "print(json.dumps(t.garbage_verdicts()))\n"
    )
    out = run_python(code, optimize=True, extra_path=[Path(__file__).resolve().parent],
                     timeout=300)
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout.strip().splitlines()[-1]) == exact_verdicts()


# ---------------------------------------------------------------------------
# Lambda9: a large interior target off the uniform shortcut.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("s", [Fr(1, 5), Fr(5), Fr(1, 2 ** 60)], ids=["1/5", "5", "2^-60"])
def test_lambda9_interior_without_simplex(s, monkeypatch):
    x0 = fluid_diamond(0)
    x = PeriodicForm(x0.q.scale(s), x0.tcols)
    dom = voronoi_domain(x)
    forbid_simplex(monkeypatch)
    membership, descent = count_projections(monkeypatch)
    st = eutaxy_status(dom)
    assert st.tag == INTERIOR
    assert is_witness(gradients(x), det_target(x), st.witness)
    assert len(membership) == len(descent) == 1


def test_improving_direction_reuses_the_projection(monkeypatch):
    x = PeriodicForm.make(PQF.from_rows([[2, 1], [1, 5]]), [[0, Fr(1, 3)]])
    calls = []
    real = certify_module.project_to_cone

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(certify_module, "project_to_cone", counting)
    cert = certify(x)
    assert cert.eutaxy.tag == OUTSIDE
    assert cert.improving == cert.eutaxy.separator
    assert len(calls) == 1


@pytest.mark.parametrize("x", [
    PeriodicForm.make(PQF.from_rows([[1]]), [[Fr(2, 5)]]),
    PeriodicForm.lattice(PQF.from_rows([[1, 0], [0, 2]])),
], ids=["line-2/5", "diag12"])
def test_one_nnls_per_cone(x, monkeypatch):
    """The exact projection starts from the active set of the triage nnls
    instead of running a second one."""
    calls = []
    real = scipy.optimize.nnls

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(scipy.optimize, "nnls", counting)
    assert certify(x).eutaxy.tag == OUTSIDE
    assert len(calls) == 1
