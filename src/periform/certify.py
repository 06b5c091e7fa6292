"""Local-optimality certificates for periodic forms.

The decision tree follows the first-order geometry of the density function
on the space of periodic forms: the generalized Voronoi domain (conic hull
of the active constraint gradients), membership of the determinant gradient
(Q^{-1}, 0) in it, and the uncertainty directions where first-order analysis
is silent.  Every verdict ships exact rational witnesses that third parties
can re-verify without re-solving anything.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .cones import FloatImage, project_to_cone
from .linalg import (
    PQF,
    RANK_PRIME,
    SymForm,
    TangentVector,
    ambient_dim,
    independent_rows_modp,
    inner,
    log2_magnitude,
    rank_span,
    residues,
)
from .periodic import (
    GenMinResult,
    MinRep,
    OverlapError,
    PeriodicForm,
    density,
    generalized_min,
    gradient_p,
)
from .simplex import INFEASIBLE, OPTIMAL, UNBOUNDED, solve_lp

__all__ = [
    "VoronoiDomain",
    "EutaxyStatus",
    "Certificate",
    "INTERIOR",
    "BOUNDARY",
    "OUTSIDE",
    "voronoi_domain",
    "is_m_perfect",
    "eutaxy_status",
    "strong_eutaxy",
    "improving_direction",
    "uncertainty_space",
    "translational_criterion",
    "floating_components",
    "certify",
    "periodic_extreme_by_theorem",
]

# Relative float nnls residual above which the target is taken to be outside
# the cone and sent to the exact projection; it only decides the order of
# the exact steps, never a verdict.
_TRIAGE_RESIDUAL = 1e-6

INTERIOR = "interior"
BOUNDARY = "boundary"
OUTSIDE = "outside"

ISOLATED_EXTREME = "IsolatedExtreme"
EXTREME_TRANSLATIONAL = "ExtremeTranslational"
NOT_EXTREME = "NotExtreme"
INCONCLUSIVE = "Inconclusive"


@dataclass(frozen=True)
class VoronoiDomain:
    """Conic hull of the minimum-constraint gradients at X."""

    generators: tuple[TangentVector, ...]
    reps: tuple[MinRep, ...]
    ambient: int
    rank: int
    nullspace: tuple[TangentVector, ...]

    @property
    def is_full_dimensional(self) -> bool:
        return self.rank == self.ambient


@dataclass(frozen=True)
class EutaxyStatus:
    """Position of (Q^{-1}, 0) relative to the Voronoi domain.

    interior: ``witness`` holds strictly positive coefficients, one per
    generator, reproducing the target exactly.
    boundary: ``face`` lists the generator indices of the minimal face F(X).
    outside: ``separator`` is an exact functional s with <s, g> >= 0 for all
    generators and <s, target> < 0; ``nearest`` says that s is the residual
    of the exact nearest-point projection, which ``improving_direction``
    then returns as it is.
    """

    tag: str
    witness: tuple[Fraction, ...] | None = None
    face: tuple[int, ...] | None = None
    separator: TangentVector | None = None
    nearest: bool = False


@dataclass(frozen=True)
class Certificate:
    verdict: str
    lam: Fraction
    perfect: bool
    rank: int
    ambient: int
    eutaxy: EutaxyStatus
    floating: tuple[tuple[int, ...], ...]
    improving: TangentVector | None = None
    improving_epsilon: Fraction | None = None
    uncertainty_basis: tuple[TangentVector, ...] | None = None
    uncertainty_is_subspace: bool | None = None
    translational_witness: tuple[int, int] | None = None

    @property
    def is_floating(self) -> bool:
        return len(self.floating) > 1


# ---------------------------------------------------------------------------
# The lattice case: sums and ranks over the rank-1 forms of Min Q.
# ---------------------------------------------------------------------------


def _minvec_rank1_full(vectors: Sequence[Sequence[int]], d: int) -> bool:
    """Do the forms w w^t span all of S^d?  Certified via a modular rank."""
    target = d * (d + 1) // 2
    xs = residues(vectors)
    cols = [xs[:, i] * xs[:, j] % RANK_PRIME for i in range(d) for j in range(i, d)]
    mat = np.stack(cols, axis=1)
    return len(independent_rows_modp(mat, target)) == target


def _outer_sum(vectors: Sequence[Sequence[int]], d: int) -> list[list[int]]:
    """sum of x x^t over the integer vectors, exactly.

    int64 only when n * max|x|^2 bounds every partial sum below 2^63.
    """
    try:
        xs = np.array(vectors, dtype=np.int64)
    except OverflowError:
        xs = None
    if xs is not None and len(vectors) * max(int(xs.max()), -int(xs.min())) ** 2 < 2 ** 63:
        return (xs.T @ xs).tolist()
    return [[sum(x[i] * x[j] for x in vectors) for j in range(d)] for i in range(d)]


def voronoi_domain(x: PeriodicForm, gen_min: GenMinResult | None = None) -> VoronoiDomain:
    """Generators (one per canonical minimum representation) plus rank data."""
    if gen_min is None:
        gen_min = generalized_min(x)
    if gen_min.lam == 0:
        raise OverlapError("Voronoi domain undefined for lambda = 0")
    gens = tuple(gradient_p(x, rep) for rep in gen_min.reps)
    rank, nullspace = rank_span(gens)
    return VoronoiDomain(gens, gen_min.reps, ambient_dim(x.d, x.m), rank, nullspace)


def is_m_perfect(
    x: PeriodicForm, gen_min: GenMinResult | None = None
) -> tuple[bool, int, int]:
    """(perfect, rank, ambient): is the Voronoi domain full-dimensional?"""
    if gen_min is None:
        gen_min = generalized_min(x)
    if gen_min.lam == 0:
        raise OverlapError("perfection undefined for lambda = 0")
    if x.m == 1:
        # Lattice case: generators are the rank-1 forms of Min Q, and a
        # modular full-rank certificate avoids exact elimination on large
        # minimum sets (the Leech lattice has 98280 of them).
        vecs = [tuple(int(c) for c in rep.w) for rep in gen_min.reps]
        ambient = ambient_dim(x.d, 1)
        if _minvec_rank1_full(vecs, x.d):
            return True, ambient, ambient
    dom = voronoi_domain(x, gen_min)
    return dom.is_full_dimensional, dom.rank, dom.ambient


def strong_eutaxy(
    q: PQF, min_vectors: Sequence[Sequence[int]] | None = None
) -> tuple[bool, Fraction | None]:
    """Is Q^{-1} = alpha * sum over the full Min Q (both signs) of x x^t?

    ``min_vectors`` (one per +/- pair) skips the enumeration when the caller
    already has Min Q.
    """
    if min_vectors is None:
        from .lattices import shortest_vectors

        min_vectors = shortest_vectors(q).vectors
    d = q.d
    ssum = _outer_sum(min_vectors, d)  # one representative per +/- pair
    s2 = SymForm.from_rows([[2 * ssum[i][j] for j in range(d)] for i in range(d)])
    qinv = q.inverse()
    pivot = next(
        ((i, j) for i in range(d) for j in range(i, d) if s2.entry(i, j) != 0),
        None,
    )
    if pivot is None:
        return False, None
    alpha = qinv.entry(*pivot) / s2.entry(*pivot)
    if alpha > 0 and s2.scale(alpha) == qinv:
        return True, alpha
    return False, None


# ---------------------------------------------------------------------------
# Eutaxy: position of (Q^{-1}, 0) in the domain.
# ---------------------------------------------------------------------------


def _det_gradient_target(x: PeriodicForm) -> TangentVector:
    return TangentVector.make(
        x.q.inverse(), [[0] * x.d for _ in range(x.m - 1)]
    )


def _uniform_witness(
    gens: Sequence[TangentVector], target: TangentVector
) -> Fraction | None:
    """c > 0 with c * sum(gens) = target, if it exists (strong-eutaxy shape)."""
    total = gens[0]
    for g in gens[1:]:
        total = total.add(g)
    denom = inner(total, total)
    if denom == 0:
        return None
    c = inner(target, total) / denom
    if c <= 0:
        return None
    if total.scale(c).sub(target).is_zero():
        return c
    return None


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


def _classify(
    gens: Sequence[TangentVector], target: TangentVector, ambient: int
) -> EutaxyStatus:
    """The three steps of ``eutaxy_status`` for any target and generators."""
    c = _uniform_witness(gens, target)
    if c is not None:
        return EutaxyStatus(INTERIOR, witness=(c,) * len(gens))
    image = FloatImage(gens, target)
    if image.residual() > _TRIAGE_RESIDUAL:
        n = project_to_cone(gens, target).residual
        if not n.is_zero() and _is_separator(gens, target, n):
            return EutaxyStatus(OUTSIDE, separator=n, nearest=True)
    alpha = image.positive_combination(ambient)
    if alpha is not None and _is_witness(gens, alpha, target):
        return EutaxyStatus(INTERIOR, witness=alpha)
    return _exact_status(gens, target)


def _exact_status(
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


def eutaxy_status(
    x: PeriodicForm, domain: VoronoiDomain | None = None
) -> EutaxyStatus:
    """Classify (Q^{-1}, 0) against the generalized Voronoi domain, exactly.

    Three steps; each returns only a certificate checked in exact arithmetic
    or hands over to the next:

    1. a uniform-coefficient shortcut catches the strongly eutactic shape;
    2. float triage: a float nnls of the target onto the cone.  A clearly
       nonzero residual sends it to the exact projection, whose nonzero
       residual is the separator (outside).  Otherwise a float solve of the
       relative-interior LP, repaired exactly, proposes a strictly positive
       witness (interior);
    3. the exact simplex, for whatever step 2 did not verify (the boundary,
       tiny margins): the membership LP, the relative-interior LP, and one
       LP per generator for the minimal face.

    The relative-interior test rests on the standard fact that relint of a
    finitely generated cone is the set of strictly positive combinations of
    all its generators.
    """
    if domain is None:
        domain = voronoi_domain(x)
    return _classify(domain.generators, _det_gradient_target(x), domain.ambient)


def improving_direction(
    x: PeriodicForm, domain: VoronoiDomain | None = None,
    status: EutaxyStatus | None = None,
) -> TangentVector | None:
    """A density-improving direction when (Q^{-1}, 0) is outside the domain.

    N is the nearest point to -(Q^{-1}, 0) in the dual cone P(X), obtained
    via the Moreau identity N = -(Q^{-1},0) + proj_{V(X)}((Q^{-1},0)).  An
    outside status found by that projection carries N as its separator, and
    N is returned as it is; otherwise the projection runs here.  The
    returned N satisfies, verified exactly, <g, N> >= 0 for every generator
    and <(Q^{-1},0), N> < 0.  Eutactic input yields None.
    """
    if domain is None:
        domain = voronoi_domain(x)
    if status is None:
        status = eutaxy_status(x, domain)
    if status.tag != OUTSIDE:
        return None
    if status.nearest:
        return status.separator
    target = _det_gradient_target(x)
    n = project_to_cone(domain.generators, target).residual
    if n.is_zero() or not _is_separator(domain.generators, target, n):
        raise RuntimeError("the cone projection gave no improving direction")
    return n


# ---------------------------------------------------------------------------
# Uncertainty set and the translational criterion.
# ---------------------------------------------------------------------------


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


def uncertainty_space(
    x: PeriodicForm,
    domain: VoronoiDomain | None = None,
    status: EutaxyStatus | None = None,
) -> tuple[tuple[TangentVector, ...], bool]:
    """Basis of the linear hull of the uncertainty set U(X), and linearity.

    Eutactic (interior) case: U(X) is the orthogonal complement of the
    domain span, a genuine subspace.  Boundary case: U(X) is the face of the
    dual cone orthogonal to the minimal face F(X); the basis spans its
    linear hull and ``is_subspace`` records whether the cone is linear.
    """
    if domain is None:
        domain = voronoi_domain(x)
    if status is None:
        status = eutaxy_status(x, domain)
    if status.tag == OUTSIDE:
        raise ValueError("uncertainty set is defined only inside the domain")
    if status.tag == INTERIOR:
        return domain.nullspace, True
    face = set(status.face)
    others = [i for i in range(len(domain.generators)) if i not in face]
    implicit = [
        k for k in others
        if _implicit_equality(domain.generators, sorted(face), others, k)
    ]
    span_rows = [domain.generators[i] for i in sorted(face) + implicit]
    _, basis = rank_span(span_rows)
    return basis, len(implicit) == len(others)


def translational_criterion(
    x: PeriodicForm,
    basis: Sequence[TangentVector],
    reps: Sequence[MinRep] | None = None,
) -> tuple[bool, tuple[int, int] | None]:
    """Does the hull of U(X) consist of purely translational changes fixing
    some touching pair?

    Tests containment of the linear hull in {N : Q^N = 0, t_i^N = t_j^N} for
    each pair (i, j) carrying a minimum representation; for i = j (lattice
    vectors in Min X) the condition is purely Q^N = 0.  Checking the hull is
    sufficient but possibly conservative for non-linear U(X).
    """
    if reps is None:
        reps = generalized_min(x).reps
    if not reps:
        raise OverlapError("criterion undefined without minimum representations")
    pairs = sorted({(r.i, r.j) for r in reps})
    zero = (Fraction(0),) * x.d

    def col(n: TangentVector, k: int):
        return zero if k == x.m else n.tcols[k - 1]

    for (i, j) in pairs:
        ok = True
        for n in basis:
            if not n.qpart.is_zero():
                ok = False
                break
            if i != j and col(n, i) != col(n, j):
                ok = False
                break
        if ok:
            return True, (i, j)
    return False, None


def floating_components(
    x: PeriodicForm, reps: Sequence[MinRep] | None = None
) -> tuple[tuple[int, ...], ...]:
    """Connected components of the touching graph on translate indices."""
    if reps is None:
        gm = generalized_min(x)
        if gm.lam == 0:
            raise OverlapError("touching graph undefined for lambda = 0")
        reps = gm.reps
    parent = list(range(x.m + 1))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for r in reps:
        if r.i != r.j:
            ra, rb = find(r.i), find(r.j)
            if ra != rb:
                parent[ra] = rb
    groups: dict[int, list[int]] = {}
    for i in range(1, x.m + 1):
        groups.setdefault(find(i), []).append(i)
    return tuple(sorted(tuple(sorted(g)) for g in groups.values()))


def certify(x: PeriodicForm) -> Certificate:
    """Full local-optimality analysis of a periodic form with lambda > 0.

    Decision tree: target outside the domain gives NotExtreme with a
    verified improving direction; interior plus full-dimensional domain
    gives IsolatedExtreme; otherwise the purely-translational criterion can
    still certify (possibly non-isolated) extremeness, and failing that the
    verdict is an honest Inconclusive carrying F(X) and U(X).
    """
    gm = generalized_min(x)
    if gm.lam == 0:
        raise OverlapError("certification requires lambda > 0")
    floating = floating_components(x, gm.reps)

    if x.m == 1:
        # Strongly eutactic + modular-certified perfect skips the domain
        # build entirely; essential for minimum sets the size of Leech's.
        vecs = [tuple(int(c) for c in rep.w) for rep in gm.reps]
        strong, alpha = strong_eutaxy(x.q, vecs)
        if strong:
            if _minvec_rank1_full(vecs, x.d):
                ambient = ambient_dim(x.d, 1)
                status = EutaxyStatus(
                    INTERIOR, witness=(2 * alpha,) * len(gm.reps)
                )
                return Certificate(
                    ISOLATED_EXTREME,
                    lam=gm.lam,
                    perfect=True,
                    rank=ambient,
                    ambient=ambient,
                    eutaxy=status,
                    floating=floating,
                )

    domain = voronoi_domain(x, gm)
    perfect, rank, ambient = (
        domain.is_full_dimensional,
        domain.rank,
        domain.ambient,
    )
    status = eutaxy_status(x, domain)
    base = dict(
        lam=gm.lam,
        perfect=perfect,
        rank=rank,
        ambient=ambient,
        eutaxy=status,
        floating=floating,
    )

    if status.tag == OUTSIDE:
        n = improving_direction(x, domain, status)
        eps = _verified_improvement_step(x, n, gm.lam)
        return Certificate(
            NOT_EXTREME, improving=n, improving_epsilon=eps, **base
        )
    if status.tag == INTERIOR and perfect:
        return Certificate(ISOLATED_EXTREME, **base)
    basis, is_subspace = uncertainty_space(x, domain, status)
    holds, witness = translational_criterion(x, basis, gm.reps)
    if holds:
        return Certificate(
            EXTREME_TRANSLATIONAL,
            uncertainty_basis=basis,
            uncertainty_is_subspace=is_subspace,
            translational_witness=witness,
            **base,
        )
    return Certificate(
        INCONCLUSIVE,
        uncertainty_basis=basis,
        uncertainty_is_subspace=is_subspace,
        **base,
    )


def _verified_improvement_step(
    x: PeriodicForm, n: TangentVector, lam: Fraction
) -> Fraction:
    """Backtrack eps from 2^k until delta(X + eps N) > delta(X), exactly.

    The Q-part of N scales like Q^{-1}, so a fixed start misses the
    admissible steps of a form rescaled far enough (about 2^-2200 for Q
    scaled by 2^-1100); the start 2^k is the ratio of the largest entries
    of Q and of the Q-part of N instead.  Comparison is on the exact
    rational center density squared, which is scale-invariant, so no
    rescaling enters the verdict.
    """
    before = density(x, lam).center_density_squared
    eps = Fraction(1)
    if not n.qpart.is_zero():
        eps = Fraction(2) ** (_log2_size(x.q.form) - _log2_size(n.qpart))
    for _ in range(256):
        try:
            cand = x.add_tangent(n, eps)
        except ValueError:
            eps /= 2
            continue
        if density(cand).center_density_squared > before:
            return eps
        eps /= 2
    raise RuntimeError("no verified improvement step found along N")


def _log2_size(f: SymForm) -> int:
    """log2 of the largest entry of a nonzero form, up to one."""
    return max(log2_magnitude(v) for v in f.upper if v)


def periodic_extreme_by_theorem(q: PQF) -> bool:
    """Perfect plus strongly eutactic certifies periodic extremeness for all
    representations at once, without enumerating them."""
    strong, _ = strong_eutaxy(q)
    if not strong:
        return False
    perfect, _, _ = is_m_perfect(PeriodicForm.lattice(q))
    return perfect
