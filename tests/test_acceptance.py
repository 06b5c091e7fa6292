"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines; the slow Leech criterion is opt-in via ``-m slow``.
"""

import random
import time
from fractions import Fraction as Fr

import pytest

from periform import linalg
from periform.catalog import fluid_diamond, get, sublattice_representation
from periform.certify import (
    INTERIOR,
    ISOLATED_EXTREME,
    NOT_EXTREME,
    certify,
    eutaxy_status,
    floating_components,
    periodic_extreme_by_theorem,
    strong_eutaxy,
    uncertainty_space,
    voronoi_domain,
)
from periform.improve import improve
from periform.intmat import enumerate_sublattice_hnf
from periform.lattices import shortest_vectors
from periform.linalg import PQF, SymForm, TangentVector, inner
from periform.periodic import (
    PeriodicForm,
    density,
    eval_p,
    generalized_min,
    gradient_p,
    hessian_quadratic,
)


def report(num: int, ok: bool, detail: str, elapsed: float) -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num}: {verdict} ({detail}; {elapsed:.2f}s)")
    assert ok, f"criterion {num} failed: {detail}"


def lattice(q):
    return PeriodicForm.lattice(q)


def test_criterion_1_table_densities():
    # Best lattice packings for d <= 8, delta / vol B^d to 4 decimals.
    expected = {
        ("A", 2): 0.2886,
        ("A", 3): 0.1767,
        ("D", 4): 0.125,
        ("D", 5): 0.0883,
        ("E6",): 0.0721,
        ("E7",): 0.0625,
        ("E8",): 0.0625,
    }
    t0 = time.perf_counter()
    bad = []
    for key, want in expected.items():
        entry = get(*key)
        rep = density(lattice(entry.form))
        # Table values are truncations (0.2886..., not 0.2887).
        if int(rep.delta_over_ball * 10000) != round(want * 10000):
            bad.append((key, rep.delta_over_ball, want))
    elapsed = time.perf_counter() - t0
    report(1, not bad and elapsed < 5.0, f"7 densities, errors={bad}", elapsed)


def test_criterion_2_corollary_e8_d4():
    t0 = time.perf_counter()
    e8 = get("E8").form
    d4 = get("D", 4).form
    ok = True
    detail = []
    for name, q in (("E8", e8), ("D4", d4)):
        perfect = voronoi_domain(lattice(q)).is_full_dimensional
        strong, _ = strong_eutaxy(q)
        theorem = periodic_extreme_by_theorem(q)
        if not (perfect and strong and theorem):
            ok = False
            detail.append(f"{name}: perfect={perfect} strong={strong} thm={theorem}")
    classes = len(shortest_vectors(e8).vectors)
    if classes != 120:
        ok = False
        detail.append(f"E8 classes={classes}")
    elapsed = time.perf_counter() - t0
    report(2, ok and elapsed < 30.0, "; ".join(detail) or "E8+D4 certified, 120 classes", elapsed)


def test_criterion_3_fluid_diamond():
    t0 = time.perf_counter()
    ok = True
    details = []
    for alpha in (Fr(1, 4), Fr(1, 3)):
        x = fluid_diamond(alpha)
        gm = generalized_min(x)
        dom = voronoi_domain(x)
        st = eutaxy_status(dom)
        basis, _ = uncertainty_space(dom, st)
        floating = floating_components(gm.blocks, x.m)
        good = (
            gm.lam == 2
            and st.tag == INTERIOR
            and not dom.is_full_dimensional
            and len(basis) == 9
            and floating == ((1,), (2,))
        )
        if not good:
            ok = False
            details.append(
                f"alpha={alpha}: lam={gm.lam} eutaxy={st.tag} "
                f"rank={dom.rank}/{dom.ambient} dimU={len(basis)} float={floating}"
            )
    x0 = fluid_diamond(0)
    gm0 = generalized_min(x0)
    dom0 = voronoi_domain(x0)
    st0 = eutaxy_status(dom0)
    basis0, _ = uncertainty_space(dom0, st0)
    if not (gm0.lam == 2 and len(basis0) == 1):
        ok = False
        details.append(f"alpha=0: lam={gm0.lam} dimU={len(basis0)}")
    elapsed = time.perf_counter() - t0
    report(3, ok and elapsed < 60.0, "; ".join(details) or "alpha 1/4, 1/3, 0 as expected", elapsed)


def test_criterion_4_line_certificates():
    t0 = time.perf_counter()
    half = PeriodicForm.make(PQF.from_rows([[1]]), [[Fr(1, 2)]])
    cert_half = certify(half)
    two_fifths = PeriodicForm.make(PQF.from_rows([[1]]), [[Fr(2, 5)]])
    cert_bad = certify(two_fifths)
    ok = cert_half.verdict == "IsolatedExtreme" and cert_bad.verdict == NOT_EXTREME
    detail = f"t=1/2 -> {cert_half.verdict}, t=2/5 -> {cert_bad.verdict}"
    if ok:
        before = density(two_fifths).center_density_squared
        stepped = two_fifths.add_tangent(cert_bad.improving, Fr(1, 1000))
        after = density(stepped).center_density_squared
        ok = after > before
        detail += f", delta gain at 1e-3: {ok}"
    elapsed = time.perf_counter() - t0
    report(4, ok and elapsed < 1.0, detail, elapsed)


def _random_instance(rng):
    d = rng.randint(1, 3)
    m = rng.randint(1, 3)
    b = [[rng.randint(-2, 2) for _ in range(d)] for _ in range(d)]
    rows = [
        [sum(b[k][i] * b[k][j] for k in range(d)) + (1 if i == j else 0)
         for j in range(d)]
        for i in range(d)
    ]
    cols = [
        [Fr(rng.randint(0, 7), rng.randint(1, 8)) for _ in range(d)]
        for _ in range(m - 1)
    ]
    x = PeriodicForm.make(PQF.from_rows(rows), cols)
    i = rng.randint(1, m)
    j = rng.randint(i, m)
    v = tuple(rng.randint(-2, 2) for _ in range(d))
    nrows = [[Fr(0)] * d for _ in range(d)]
    for a in range(d):
        for bb in range(a, d):
            nrows[a][bb] = nrows[bb][a] = Fr(rng.randint(-3, 3), rng.randint(1, 3))
    ncols = [
        [Fr(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(d)]
        for _ in range(m - 1)
    ]
    n = TangentVector.make(SymForm.from_rows(nrows), ncols)
    return x, (i, j, v), n


def test_criterion_5_derivatives():
    t0 = time.perf_counter()
    rng = random.Random(20260810)
    grad_bad = 0
    hess_bad = 0
    for _ in range(100):
        x, triple, n = _random_instance(rng)
        g = inner(gradient_p(x, triple), n)
        h = Fr(1, 100000)
        numeric = float(
            (eval_p(x.add_tangent(n, h), triple) - eval_p(x.add_tangent(n, -h), triple))
            / (2 * h)
        )
        # Relative where the gradient has size, absolute near zero (the
        # central difference itself carries ~1e-10 roundoff there).
        scale = max(abs(float(g)), abs(numeric), 1.0)
        if abs(numeric - float(g)) / scale > 1e-6:
            grad_bad += 1
        # Cubic Taylor remainder: r(eps) / eps^3 must be the same constant at
        # eps = 1/100 and 1/1000 (p is exactly cubic along a line).
        p0 = eval_p(x, triple)
        hq = hessian_quadratic(x, triple, n)
        ratios = []
        for eps in (Fr(1, 100), Fr(1, 1000)):
            r = eval_p(x.add_tangent(n, eps), triple) - p0 - eps * g - eps * eps * hq / 2
            ratios.append(r / eps ** 3)
        if ratios[0] != ratios[1]:
            hess_bad += 1
    elapsed = time.perf_counter() - t0
    ok = grad_bad == 0 and hess_bad == 0 and elapsed < 10.0
    report(5, ok, f"grad mismatches={grad_bad}, hessian mismatches={hess_bad}", elapsed)


def test_criterion_6_representation_invariance():
    t0 = time.perf_counter()
    cases = [("A2", get("A", 2).form, 2), ("D4", get("D", 4).form, 4)]
    checked = 0
    bad = []
    verdicts = {}
    for name, q, d in cases:
        base = density(lattice(q)).center_density_squared
        base_lam = generalized_min(lattice(q)).lam
        for index in range(1, 5):
            for h in enumerate_sublattice_hnf(d, index):
                x = sublattice_representation(q, h)
                gm = generalized_min(x)
                if gm.lam != base_lam:
                    bad.append(f"{name} index {index}: lambda changed")
                    continue
                if density(x, gm.lam).center_density_squared != base:
                    bad.append(f"{name} index {index}: density changed")
                    continue
                cert = certify(x)
                verdicts[cert.verdict] = verdicts.get(cert.verdict, 0) + 1
                if cert.verdict == NOT_EXTREME:
                    bad.append(f"{name} H={h}: NotExtreme")
                checked += 1
    elapsed = time.perf_counter() - t0
    ok = not bad and elapsed < 300.0
    report(6, ok, f"{checked} representations, verdicts={verdicts}, bad={bad[:3]}", elapsed)


def test_criterion_7_local_minimum_property():
    t0 = time.perf_counter()
    rng = random.Random(977)
    bad = []
    for key in (("A", 2), ("D", 4), ("E8",)):
        q0 = get(*key).form
        lam = shortest_vectors(q0).min
        q = q0.scale(Fr(1) / lam)  # lambda = 1 exactly
        base_det = q.det()
        minvecs = shortest_vectors(q).vectors
        d = q.d
        for _ in range(200):
            rows = [[Fr(0)] * d for _ in range(d)]
            for i in range(d):
                for j in range(i, d):
                    rows[i][j] = rows[j][i] = Fr(rng.randint(-4, 4), 32)
            m = SymForm.from_rows(rows)
            # Push into the tangent cone of the Ryshkov set at q: the value
            # on every minimal vector must be nonnegative.
            m0 = min(m.value(x) for x in minvecs)
            mprime = m.sub(q.form.scale(m0))
            if mprime.is_zero():
                continue
            eps = Fr(1, 8)
            accepted = None
            for _ in range(40):
                cand_form = q.form.add(mprime.scale(eps))
                try:
                    cand = PQF(cand_form)
                except ValueError:
                    eps /= 2
                    continue
                if shortest_vectors(cand).min >= 1:
                    accepted = cand
                    break
                eps /= 2
            if accepted is None:
                bad.append(f"{key}: no feasible step found")
                continue
            if accepted.det() <= base_det:
                bad.append(f"{key}: det {accepted.det()} <= {base_det}")
    elapsed = time.perf_counter() - t0
    report(7, not bad, f"600 feasible perturbations, bad={bad[:3]}", elapsed)


def test_criterion_8_improvement_convergence():
    t0 = time.perf_counter()
    x = lattice(PQF.from_rows([[1, 0], [0, 2]]))
    res = improve(x, steps=500)
    final = density(res.final).delta_over_ball
    elapsed = time.perf_counter() - t0
    ok = (
        len(res.steps) <= 500
        and abs(final - 0.2886) < 1e-3
        and elapsed < 30.0
    )
    report(8, ok, f"{len(res.steps)} steps to delta/volB={final:.7f}", elapsed)


@pytest.mark.slow
def test_criterion_9_leech():
    t0 = time.perf_counter()
    leech = get("Leech").form
    det = leech.det()
    res = shortest_vectors(leech)
    strong, _alpha = strong_eutaxy(leech)
    theorem = periodic_extreme_by_theorem(leech)
    elapsed = time.perf_counter() - t0
    ok = (
        det == 1
        and res.min == 4
        and len(res.vectors) == 98280
        and strong
        and theorem
        and elapsed < 900.0
    )
    report(
        9,
        ok,
        f"det={det}, min={res.min}, pairs={len(res.vectors)}, "
        f"strong={strong}, theorem={theorem}",
        elapsed,
    )


@pytest.mark.slow
def test_leech_rank_reduces_one_square(monkeypatch):
    """Leech's domain rank (98 280 rows, 300 columns) walks mod p over the
    300 rows a float QR picks from 1 024 rows evenly spaced over the whole
    matrix: the blocks handed to ``_eliminate_modp`` hold at most 300 x 300
    rows in all (44 850), where reducing the first chunk greedily hands it
    252 135."""
    cleared = []
    real = linalg._eliminate_modp

    def counting(block, row, col):
        cleared.append(block.shape[0])
        real(block, row, col)

    monkeypatch.setattr(linalg, "_eliminate_modp", counting)
    domain = voronoi_domain(lattice(get("Leech").form))
    assert domain.matrix.shape == (98280, 300)
    assert domain.rank == 300 and domain.nullspace == ()
    assert sum(cleared) <= 300 * 300


@pytest.mark.slow
@pytest.mark.parametrize("index", [2, 3])
@pytest.mark.parametrize("name", ["K12", "Leech"])
def test_over_a_sublattice_certifies(name, index, monkeypatch):
    """K12 and Leech over the sublattice diag(index, 1, ..., 1) are
    IsolatedExtreme.  The rank is found in the first block the mod-p walk
    reduces, one elimination per row taken: on Leech's 196 560 and 294 840
    rows that block is the float pick from rows spread over the whole
    matrix, where a pick from the leading rows, all from one translate
    pair, left 15 045 eliminations at index 2."""
    cleared = []
    real = linalg._eliminate_modp

    def counting(block, row, col):
        cleared.append(block.shape[0])
        real(block, row, col)

    monkeypatch.setattr(linalg, "_eliminate_modp", counting)
    q = get(name).form
    h = [[index if i == j == 0 else int(i == j) for j in range(q.d)] for i in range(q.d)]
    cert = certify(sublattice_representation(q, h))
    assert cert.verdict == ISOLATED_EXTREME
    assert cert.rank == cert.ambient
    assert len(cleared) == cert.rank - 1


@pytest.mark.slow
@pytest.mark.parametrize("index", [2, 3])
@pytest.mark.parametrize("name", ["E6", "E7", "E8"])
def test_every_representation_certifies(name, index):
    """Every representation of E6, E7 and E8 over a sublattice of index 2
    or 3 is IsolatedExtreme, with the lattice's minimum."""
    q = get(name).form
    lam = generalized_min(lattice(q)).lam
    for h in enumerate_sublattice_hnf(q.d, index):
        cert = certify(sublattice_representation(q, h))
        assert (cert.verdict, cert.lam) == (ISOLATED_EXTREME, lam), h
