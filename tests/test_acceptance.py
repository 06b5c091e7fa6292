"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines; the slow Leech criterion is opt-in via ``-m slow``.
"""

import random
import time
from fractions import Fraction as Fr

import numpy as np
import pytest

from helpers import constraint_value
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
from periform.lattices import closest_vectors, shortest_vectors
from periform.linalg import PQF, SymForm, TangentVector, inner
from periform.periodic import (
    PeriodicForm,
    density,
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
            (constraint_value(x.add_tangent(n, h), triple) - constraint_value(x.add_tangent(n, -h), triple))
            / (2 * h)
        )
        # Relative where the gradient has size, absolute near zero (the
        # central difference itself carries ~1e-10 roundoff there).
        scale = max(abs(float(g)), abs(numeric), 1.0)
        if abs(numeric - float(g)) / scale > 1e-6:
            grad_bad += 1
        # Cubic Taylor remainder: r(eps) / eps^3 must be the same constant at
        # eps = 1/100 and 1/1000 (p is exactly cubic along a line).
        p0 = constraint_value(x, triple)
        hq = hessian_quadratic(x, triple, n)
        ratios = []
        for eps in (Fr(1, 100), Fr(1, 1000)):
            r = constraint_value(x.add_tangent(n, eps), triple) - p0 - eps * g - eps * eps * hq / 2
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


def counted(monkeypatch, name):
    """The list of calls to ``linalg.<name>``, which still does its work."""
    calls, real = [], getattr(linalg, name)

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(linalg, name, counting)
    return calls


@pytest.mark.slow
def test_leech_rank_reduces_one_square(monkeypatch):
    """Leech's domain rank (98 280 rows, 300 columns) reads 1 024 rows
    evenly spaced over the whole matrix, and one exact left-inverse check on
    that 1 024 x 300 sample proves the rank full: the float pick never runs."""
    checks = counted(monkeypatch, "_full_rank")
    picks = counted(monkeypatch, "_float_pick")
    domain = voronoi_domain(lattice(get("Leech").form))
    assert domain.rows.shape == (98280, 300)
    assert domain.rank == 300 and domain.nullspace == ()
    assert [head.shape for head, in checks] == [(1024, 300)]
    assert picks == []


@pytest.mark.slow
@pytest.mark.parametrize("index", [2, 3])
@pytest.mark.parametrize("name", ["K12", "Leech"])
def test_over_a_sublattice_certifies(name, index, monkeypatch):
    """K12 and Leech over the sublattice diag(index, 1, ..., 1) are
    IsolatedExtreme.  The rank is proved on 1 024 rows spread over the
    whole matrix, by the exact left-inverse check, and the float pick never
    runs; on Leech's 147 432 and 224 964 rows a sample of the leading rows,
    all from one translate pair, could not prove it."""
    picks = counted(monkeypatch, "_float_pick")
    q = get(name).form
    h = [[index if i == j == 0 else int(i == j) for j in range(q.d)] for i in range(q.d)]
    cert = certify(sublattice_representation(q, h))
    assert cert.verdict == ISOLATED_EXTREME
    assert cert.rank == cert.ambient
    assert picks == []


@pytest.mark.slow
@pytest.mark.parametrize("index, diagonal, rows",
                         [(2, 49_128, 147_432), (3, 34_938, 224_964), (4, 32_936, 294_312)])
def test_leech_domain_holds_each_constraint_once(index, diagonal, rows):
    """Leech over diag(index, 1, ..., 1): the shortest vectors of the
    sublattice enter the domain once, as the block (1, 1), not once per
    translate (196 560, 294 840 and 393 120 rows in all), and the domain
    keeps full rank."""
    q = get("Leech").form
    h = [[index if i == j == 0 else int(i == j) for j in range(24)] for i in range(24)]
    domain = voronoi_domain(sublattice_representation(q, h))
    assert [(b.i, b.j, len(b.vs)) for b in domain.blocks if b.i == b.j] == [(1, 1, diagonal)]
    assert len(domain.rows) == rows
    assert rows + (index - 1) * diagonal == {2: 196_560, 3: 294_840, 4: 393_120}[index]
    assert domain.rank == domain.ambient


@pytest.mark.slow
@pytest.mark.parametrize("vtype", [2, 3, 4])
def test_leech_every_index_two_class_certifies(vtype):
    """Up to automorphisms, Leech has three sublattices of index 2: the
    kernels of x -> x.v mod 2 for v of type 2, 3 and 4, that is of least
    norm 4, 6 and 8 in v + 2L at the catalog's scale (Conway and Sloane,
    *SPLAG*, ch. 10).  Here v is a shortest vector s, then s + t for a
    shortest t with s.t = -1, then the v with x.v = x_1, whose kernel is
    diag(2, 1, ..., 1).  One CVP on v / 2 gives the least norm in v + 2L.
    Each representation is IsolatedExtreme at full rank, 324."""
    q = get("Leech").form
    gram = np.array(q.gram, dtype=np.int64)  # q.den == 1: the Gram is unimodular
    if vtype == 4:
        v = np.array([int(q.inverse().entry(i, 0)) for i in range(24)])
    else:
        short = shortest_vectors(q).array.astype(np.int64)
        s = short[0]
        v = s if vtype == 2 else s + short[np.flatnonzero(short @ gram @ s == -1)[0]]
    least = 4 * closest_vectors(q, [Fr(int(a), 2) for a in v]).min
    assert least == {2: 4, 3: 6, 4: 8}[vtype]
    assert vtype == 4 or q.value(v.tolist()) == least
    # x.v = x^t G v, so the kernel is {x : u.x even} for u = G v mod 2: basis
    # columns 2 e_p and e_i + u_i e_p (i != p), for a p with u_p = 1.
    u = gram @ v % 2
    p = int(np.flatnonzero(u)[0])
    h = [[int(r == c) * (2 if c == p else 1) + int(r == p != c and u[c]) for c in range(24)]
         for r in range(24)]
    assert vtype != 4 or h == [[2 if i == j == 0 else int(i == j) for j in range(24)]
                               for i in range(24)]
    cert = certify(sublattice_representation(q, h))
    assert (cert.verdict, cert.rank, cert.ambient) == (ISOLATED_EXTREME, 324, 324)


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


# The (10, 40, 4) code of P10c = 2Z^10 + C: 40 words of length 10 as bit
# masks, pairwise distance >= 4 and every weight even, found by a tabu search
# over the even-weight words and XORed with 12 so that 0 is among them.
P10C_WORDS = tuple(w ^ 12 for w in (
    12, 48, 63, 71, 106, 139, 166, 210, 221, 225, 258, 293, 329, 371, 380, 401, 414, 424,
    452, 495, 538, 547, 593, 621, 630, 640, 663, 700, 718, 763, 788, 814, 825, 863, 864,
    909, 946, 963, 984, 1013))


def test_p10c_words_are_a_code():
    assert len(set(P10C_WORDS)) == 40 and 0 in P10C_WORDS
    assert all(bin(w).count("1") % 2 == 0 for w in P10C_WORDS)
    assert min(bin(a ^ b).count("1") for a in P10C_WORDS for b in P10C_WORDS if a != b) >= 4


@pytest.mark.slow
def test_p10c_certifies_without_elimination(monkeypatch):
    """P10c at m = 40, as (4 I_10, c / 2 for c in C) with the word 0 as the
    pinned translate, is IsolatedExtreme at rank 445 of 445, with center
    density (5/128)^2; the exact left-inverse check on the 1 024 sampled
    rows proves the rank, and the float pick never runs."""
    picks = counted(monkeypatch, "_float_pick")
    cols = [[Fr((w >> k) & 1, 2) for k in range(10)] for w in P10C_WORDS if w]
    x = PeriodicForm.make(PQF(SymForm.identity(10).scale(4)), cols)
    cert = certify(x)
    assert (cert.verdict, cert.rank, cert.ambient) == (ISOLATED_EXTREME, 445, 445)
    assert density(x).center_density_squared == Fr(25, 16384)
    assert picks == []


def p10c_over(h):
    """P10c over the sublattice diag(h) of its period lattice 2Z^10: the
    points c + t, for c in {0, 1}^10 with c_k < h_k and t in C / 2, are
    H y."""
    q = PQF(SymForm.from_rows([[4 * h[i] * h[j] * int(i == j) for j in range(10)]
                               for i in range(10)]))
    corners = [c for c in range(1 << 10) if all((c >> k) & 1 < h[k] for k in range(10))]
    cols = [[(((c >> k) & 1) + Fr((w >> k) & 1, 2)) / h[k] for k in range(10)]
            for c in corners for w in P10C_WORDS]
    return PeriodicForm.make(q, [col for col in cols if any(col)])


@pytest.mark.slow
def test_p10c_over_index_two_certifies_without_elimination(monkeypatch):
    """P10c over diag(2, 1, ..., 1), at m = 80, has a domain of 845 columns,
    and its head samples 2 x 845 rows, which the exact left-inverse check
    proves full: IsolatedExtreme at rank 845 of 845, with the center density
    of P10c, and the float pick never runs."""
    picks = counted(monkeypatch, "_float_pick")
    x = p10c_over([2] + [1] * 9)
    assert x.m == 80
    cert = certify(x)
    assert (cert.verdict, cert.rank, cert.ambient) == (ISOLATED_EXTREME, 845, 845)
    assert density(x).center_density_squared == Fr(25, 16384)
    assert picks == []


@pytest.mark.slow
def test_wide_p10c_certifies_without_elimination(monkeypatch):
    """P10c over diag(2, 2, 1, ..., 1), at m = 160, has a domain of 1 645
    columns.  Its head samples 2 x 1 645 rows, which the exact left-inverse
    check proves full: IsolatedExtreme at rank 1 645 of 1 645, and the float
    pick never runs."""
    picks = counted(monkeypatch, "_float_pick")
    x = p10c_over([2, 2] + [1] * 8)
    assert x.m == 160
    cert = certify(x)
    assert (cert.verdict, cert.rank, cert.ambient) == (ISOLATED_EXTREME, 1645, 1645)
    assert picks == []
