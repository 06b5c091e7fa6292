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
from .simplex import OPTIMAL, solve_lp

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
# the cone and sent straight to the exact projection; it only decides whether
# the float relative-interior solve is tried, never a verdict.
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
    outside: ``separator`` is the residual s of the exact nearest-point
    projection of the target onto the domain, with <s, g> >= 0 for all
    generators and <s, target> < 0, both checked exactly; it is the
    improving direction.
    """

    tag: str
    witness: tuple[Fraction, ...] | None = None
    face: tuple[int, ...] | None = None
    separator: TangentVector | None = None


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


def _positive_support(
    gens: Sequence[TangentVector], target: TangentVector
) -> tuple[Fraction, ...]:
    """x >= 0 of largest support with sum_k x_k g_k = x_n target, n = len(gens).

    One LP over the columns v = gens + [-target] (Freund, Roundy & Todd,
    1985): maximize sum z s.t. sum_k (z + s)_k v_k = 0, z <= 1, z, s >= 0.
    Scaling up a solution shows that at every optimum z_k = 1 exactly on the
    columns positive in some solution of sum x_k v_k = 0, x >= 0, and 0
    elsewhere, so x = z + s has the largest support there is.
    """
    cols = [g.flatten() for g in gens] + [target.scale(-1).flatten()]
    k = len(cols)
    zero, one = Fraction(0), Fraction(1)
    rows = [list(coords) * 2 + [zero] * k for coords in zip(*cols)]
    for j in range(k):  # z_j + w_j = 1
        cap = [zero] * (3 * k)
        cap[j] = cap[2 * k + j] = one
        rows.append(cap)
    rhs = [zero] * (len(rows) - k) + [one] * k
    res = solve_lp(rows, rhs, [-one] * k + [zero] * (2 * k))
    if res.status != OPTIMAL:
        raise RuntimeError("the support LP has no optimum")
    return tuple(z + s for z, s in zip(res.x[:k], res.x[k : 2 * k]))


def _classify(
    gens: Sequence[TangentVector], target: TangentVector, ambient: int
) -> EutaxyStatus:
    """The three steps of ``eutaxy_status`` for any target and generators."""
    c = _uniform_witness(gens, target)
    if c is not None:
        return EutaxyStatus(INTERIOR, witness=(c,) * len(gens))
    image = FloatImage(gens, target)
    if image.residual() <= _TRIAGE_RESIDUAL:
        alpha = image.positive_combination(ambient)
        if alpha is not None and _is_witness(gens, alpha, target):
            return EutaxyStatus(INTERIOR, witness=alpha)
    return _exact_status(gens, target)


def _exact_status(
    gens: Sequence[TangentVector], target: TangentVector
) -> EutaxyStatus:
    """Membership by the exact projection, then one support LP for members."""
    n = project_to_cone(gens, target).residual
    if not n.is_zero():
        if not _is_separator(gens, target, n):
            raise RuntimeError("the cone projection gave no separator")
        return EutaxyStatus(OUTSIDE, separator=n)
    x = _positive_support(gens, target)
    if all(x):
        alpha = tuple(v / x[-1] for v in x[:-1])
        if not _is_witness(gens, alpha, target):
            raise RuntimeError("the support LP gave no witness")
        return EutaxyStatus(INTERIOR, witness=alpha)
    return EutaxyStatus(BOUNDARY, face=tuple(k for k, v in enumerate(x[:-1]) if v))


def eutaxy_status(
    x: PeriodicForm, domain: VoronoiDomain | None = None
) -> EutaxyStatus:
    """Classify (Q^{-1}, 0) against the generalized Voronoi domain, exactly.

    Three steps; each returns only a certificate checked in exact arithmetic
    or hands over to the next:

    1. a uniform-coefficient shortcut catches the strongly eutactic shape;
    2. float triage: a float nnls of the target onto the cone.  Unless its
       residual is clearly nonzero, a float solve of the relative-interior
       LP, repaired exactly, proposes a strictly positive witness (interior);
    3. the exact path, for whatever step 2 did not verify (the outside, the
       boundary, tiny margins): the exact nearest-point projection decides
       membership, and its nonzero residual is the separator (outside).  For
       a member, one exact LP finds the largest support of a nonnegative
       combination of the generators and -target that sums to zero: all of
       it gives a witness (interior), and its generators are F(X) otherwise.

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
    via the Moreau identity N = -(Q^{-1},0) + proj_{V(X)}((Q^{-1},0)).  It
    is the separator of the outside status, which ``eutaxy_status`` checked
    exactly: <g, N> >= 0 for every generator and <(Q^{-1},0), N> < 0.
    Eutactic input yields None.
    """
    if status is None:
        status = eutaxy_status(x, domain)
    if status.tag != OUTSIDE:
        return None
    return status.separator


# ---------------------------------------------------------------------------
# Uncertainty set and the translational criterion.
# ---------------------------------------------------------------------------


def uncertainty_space(
    x: PeriodicForm,
    domain: VoronoiDomain | None = None,
    status: EutaxyStatus | None = None,
) -> tuple[tuple[TangentVector, ...], bool]:
    """Basis of the linear hull of the uncertainty set U(X), and linearity.

    Eutactic (interior) case: U(X) is the orthogonal complement of the
    domain span, a genuine subspace.  Boundary case: U(X) is the face
    {N : <g, N> = 0 on F(X), <g, N> >= 0 elsewhere} of the dual cone, and
    its linear hull is the orthogonal complement of the face generators.
    No other generator is an implicit equality there: F(X) is a face of the
    polyhedral domain C, so C meets span F(X) in F(X) alone, and a
    functional exposing F(X) lies in U(X) and is positive on every other
    generator.  There is such a generator, or the target would be interior,
    so ``is_subspace`` is False.
    """
    if domain is None:
        domain = voronoi_domain(x)
    if status is None:
        status = eutaxy_status(x, domain)
    if status.tag == OUTSIDE:
        raise ValueError("uncertainty set is defined only inside the domain")
    if status.tag == INTERIOR:
        return domain.nullspace, True
    _, basis = rank_span([domain.generators[i] for i in status.face])
    return basis, False


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

    The Q-part of N scales like Q^{-1}, so the admissible steps scale like
    lam^2 (about 2^-2200 for Q scaled by 2^-1100) and a fixed start misses
    them; the start is lam^2 rounded to a power of two, exactly 1 on the
    min-one forms ``improve`` certifies.  Comparison is on the exact
    rational center density squared, which is scale-invariant, so no
    rescaling enters the verdict.
    """
    before = density(x, lam).center_density_squared
    eps = Fraction(2) ** (2 * log2_magnitude(lam))
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


def periodic_extreme_by_theorem(q: PQF) -> bool:
    """Perfect plus strongly eutactic certifies periodic extremeness for all
    representations at once, without enumerating them."""
    strong, _ = strong_eutaxy(q)
    if not strong:
        return False
    perfect, _, _ = is_m_perfect(PeriodicForm.lattice(q))
    return perfect
