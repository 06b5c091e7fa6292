"""The exact-simplex eutaxy path that ``certify`` used to run, kept as a reference.

``reference_status`` decides membership with one LP, the relative interior
with a second (and a pinned re-solve when the first is unbounded), and the
minimal face F(X) with one LP per generator.  ``reference_uncertainty``
finds the implicit equalities of the uncertainty cone with one LP per
non-face generator.  The tests compare the one-projection, one-LP path of
``certify`` against these.
"""

from fractions import Fraction
from typing import Sequence

from periform.certify import (
    BOUNDARY,
    INTERIOR,
    OUTSIDE,
    EutaxyStatus,
)
from periform.linalg import SymForm, TangentVector, ambient_dim, inner, rank_span
from periform.simplex import INFEASIBLE, OPTIMAL, UNBOUNDED, solve_lp


def _is_witness(
    gens: Sequence[TangentVector],
    alpha: Sequence[Fraction],
    target: TangentVector,
) -> bool:
    """Exact check: every alpha_g > 0 and sum alpha_g g == target."""
    if len(alpha) != len(gens) or not all(a > 0 for a in alpha):
        return False
    goal = target.flatten()
    total = [Fraction(0)] * len(goal)
    for g, a in zip(gens, alpha):
        for i, c in enumerate(g.flatten()):
            if c:
                total[i] += a * c
    return total == list(goal)


def _is_separator(
    gens: Sequence[TangentVector], target: TangentVector, s: TangentVector
) -> bool:
    """Exact check: <g, s> >= 0 for every generator and <target, s> < 0."""
    return inner(target, s) < 0 and all(inner(g, s) >= 0 for g in gens)


def _functional_from_coords(y: Sequence[Fraction], d: int, m: int) -> TangentVector:
    """The tangent vector s with <s, v> = dot(y, plain_flatten(v)) for all v."""
    tri = []
    pos = 0
    for i in range(d):
        tri.append(Fraction(y[pos]))
        pos += 1
        for _ in range(i + 1, d):
            tri.append(Fraction(y[pos]) / 2)
            pos += 1
    cols = []
    for _ in range(m - 1):
        cols.append(tuple(Fraction(v) for v in y[pos : pos + d]))
        pos += d
    return TangentVector(SymForm(d, tuple(tri)), tuple(cols))


def _membership_lp(
    gens: Sequence[TangentVector], target: TangentVector
) -> tuple[bool, tuple[Fraction, ...] | None, TangentVector | None]:
    """Is target in cone(gens)?  Returns (member, coefficients, separator)."""
    rows = [list(col) for col in zip(*(g.flatten() for g in gens))]
    rhs = list(target.flatten())
    res = solve_lp(rows, rhs, [Fraction(0)] * len(gens))
    if res.status == OPTIMAL:
        return True, res.x, None
    assert res.status == INFEASIBLE
    s = _functional_from_coords(res.farkas, target.d, target.m)
    if inner(s, target) > 0:
        s = s.scale(-1)
    if not _is_separator(gens, target, s):
        raise RuntimeError("the Farkas vector does not separate")
    return False, None, s


def _relint_lp(
    gens: Sequence[TangentVector], target: TangentVector
) -> tuple[Fraction, tuple[Fraction, ...]]:
    """max mu s.t. sum beta_g g + mu * sum(gens) = target, beta >= 0, mu >= 0.

    The optimum is positive exactly when the target admits an all-positive
    combination, i.e. lies in the relative interior of the cone.
    """
    n = len(gens)
    total = gens[0]
    for g in gens[1:]:
        total = total.add(g)
    cols = [g.flatten() for g in gens] + [total.flatten()]
    rows = [list(coords) for coords in zip(*cols)]
    rhs = list(target.flatten())
    cost = [Fraction(0)] * n + [Fraction(-1)]
    res = solve_lp(rows, rhs, cost)
    if res.status == UNBOUNDED:
        # mu can grow without bound, so positive combinations surely exist;
        # recover a concrete witness by pinning mu = 1.
        pinned = [row + [Fraction(0)] for row in rows]
        pinned.append([Fraction(0)] * n + [Fraction(1), Fraction(1)])
        rhs2 = rhs + [Fraction(1)]
        res2 = solve_lp(pinned, rhs2, [Fraction(0)] * (n + 2))
        assert res2.status == OPTIMAL
        beta = res2.x[:n]
        return Fraction(1), tuple(b + 1 for b in beta)
    assert res.status == OPTIMAL
    mu = res.x[n]
    beta = res.x[:n]
    return mu, tuple(b + mu for b in beta)


def _minimal_face(
    gens: Sequence[TangentVector], target: TangentVector
) -> tuple[int, ...]:
    """Indices of generators carrying positive weight in some representation."""
    n = len(gens)
    rows = [list(col) for col in zip(*(g.flatten() for g in gens))]
    rhs = list(target.flatten())
    face = []
    for k in range(n):
        cost = [Fraction(0)] * n
        cost[k] = Fraction(-1)
        res = solve_lp(rows, rhs, cost)
        if res.status == UNBOUNDED or (res.status == OPTIMAL and res.x[k] > 0):
            face.append(k)
    return tuple(face)


def _implicit_equality(
    gens: Sequence[TangentVector],
    eq_idx: Sequence[int],
    ineq_idx: Sequence[int],
    k: int,
) -> bool:
    """Is <g_k, N> = 0 forced on {N : <g_eq, N> = 0, <g_ineq, N> >= 0}?

    Solved as: maximize <g_k, N> subject to the cone constraints and the
    cap <g_k, N> <= 1; the inequality is implicit iff the optimum is 0.
    """
    d, m = gens[0].d, gens[0].m
    dim = ambient_dim(d, m)
    ineq = [i for i in ineq_idx]
    nslack = len(ineq) + 1  # one slack per inequality plus the cap
    ncols = 2 * dim + nslack
    rows = []
    rhs = []
    for i in eq_idx:
        coords = list(gens[i].flatten(weighted=True))
        rows.append(coords + [-v for v in coords] + [Fraction(0)] * nslack)
        rhs.append(Fraction(0))
    for pos, i in enumerate(ineq):
        coords = list(gens[i].flatten(weighted=True))
        slack = [Fraction(0)] * nslack
        slack[pos] = Fraction(-1)
        rows.append(coords + [-v for v in coords] + slack)
        rhs.append(Fraction(0))
    coords = list(gens[k].flatten(weighted=True))
    cap = [Fraction(0)] * nslack
    cap[-1] = Fraction(1)
    rows.append(coords + [-v for v in coords] + cap)
    rhs.append(Fraction(1))
    cost = [Fraction(0)] * ncols
    for pos, v in enumerate(coords):
        cost[pos] -= v
        cost[dim + pos] += v
    res = solve_lp(rows, rhs, cost)
    assert res.status == OPTIMAL
    return res.objective == 0


def reference_status(
    gens: Sequence[TangentVector], target: TangentVector
) -> EutaxyStatus:
    """The exact simplex: membership, then the relative interior, then F(X)."""
    member, _, separator = _membership_lp(gens, target)
    if not member:
        return EutaxyStatus(OUTSIDE, separator=separator)
    mu, alpha = _relint_lp(gens, target)
    if mu > 0:
        if not _is_witness(gens, alpha, target):
            raise RuntimeError("the relative-interior LP gave no witness")
        return EutaxyStatus(INTERIOR, witness=alpha)
    return EutaxyStatus(BOUNDARY, face=_minimal_face(gens, target))


def reference_uncertainty(
    gens: Sequence[TangentVector], face: Sequence[int]
) -> tuple[tuple[TangentVector, ...], bool, list[int]]:
    """(basis, is_subspace, implicit) for a boundary target with face F(X).

    The basis spans the orthogonal complement of the face generators and of
    the non-face generators whose inequality is an implicit equality.
    """
    face = set(face)
    others = [i for i in range(len(gens)) if i not in face]
    implicit = [k for k in others if _implicit_equality(gens, sorted(face), others, k)]
    _, basis = rank_span([gens[i] for i in sorted(face) + implicit])
    return basis, len(implicit) == len(others), implicit
