"""Local-optimality certificates for periodic forms.

The decision tree follows the first-order geometry of the density function
on the space of periodic forms.  ``voronoi_domain(x)`` computes, once, every
fact about X that the later stages read: Min X, the generalized Voronoi
domain (conic hull of the active constraint gradients) with its rank and
nullspace, and the determinant gradient (Q^{-1}, 0).  Each stage then takes
only what it needs: ``eutaxy_status(domain)`` places the target in the
domain with one exact solver, the nearest-point projection of ``cones``
(membership, then face descent), ``uncertainty_space(domain, status)``
gives the directions where first-order analysis is silent, and
``translational_criterion(basis, blocks)`` may still certify them;
``certify`` chains the stages.  Every verdict ships exact rational
witnesses that third parties can re-verify without re-solving anything:
NotExtreme carries the separator, checked by dot products, and
``improvement_step`` searches for a step along it.

The package binds ``periform.certify`` to the function ``certify``; the
names of this module are imported with ``from periform.certify import ...``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import mul
from typing import Sequence

import numpy as np

from .cones import FloatImage, minimal_face, project_to_cone
from .linalg import (
    PQF,
    TangentVector,
    ambient_dim,
    factor_gram,
    inner,
    int_type,
    integer_row,
    log2_magnitude,
    max_abs,
    metric_weights,
    rank_complement,
)
from .periodic import (
    MinBlock,
    OverlapError,
    PeriodicForm,
    density,
    generalized_min,
)

__all__ = [
    "VoronoiDomain",
    "EutaxyStatus",
    "Certificate",
    "INTERIOR",
    "BOUNDARY",
    "OUTSIDE",
    "voronoi_domain",
    "eutaxy_status",
    "strong_eutaxy",
    "improving_direction",
    "uncertainty_space",
    "translational_criterion",
    "floating_components",
    "certify",
    "improvement_step",
    "periodic_extreme_by_theorem",
]

INTERIOR = "interior"
BOUNDARY = "boundary"
OUTSIDE = "outside"

ISOLATED_EXTREME = "IsolatedExtreme"
EXTREME_TRANSLATIONAL = "ExtremeTranslational"
NOT_EXTREME = "NotExtreme"
INCONCLUSIVE = "Inconclusive"


@dataclass(frozen=True, eq=False)
class VoronoiDomain:
    """Min X and the conic hull of its constraint gradients: what every later
    stage of a certificate reads.

    ``lam`` and ``blocks`` are lambda(X) > 0 and Min X (``generalized_min``);
    ``target`` is the determinant gradient (Q^{-1}, 0).  Row k of ``matrix``
    / ``den`` is the gradient at the k-th canonical representation in
    weighted coordinates (``TangentVector.flatten``).  The matrix is in
    ``linalg.int_type`` of a bound on its entries, holds Python ints when a
    column sum could pass int64, and is column-major (Fortran order).
    """

    lam: Fraction
    blocks: tuple[MinBlock, ...]
    target: TangentVector
    matrix: np.ndarray
    den: int
    d: int
    m: int
    rank: int
    nullspace: tuple[TangentVector, ...]

    @property
    def ambient(self) -> int:
        return ambient_dim(self.d, self.m)

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
    uncertainty_basis: tuple[TangentVector, ...] | None = None
    uncertainty_is_subspace: bool | None = None
    translational_witness: tuple[int, int] | None = None

    @property
    def is_floating(self) -> bool:
        return len(self.floating) > 1


# ---------------------------------------------------------------------------
# The generalized Voronoi domain: one integer row per representation.
# ---------------------------------------------------------------------------


def _gradient_matrix(x: PeriodicForm, blocks: Sequence[MinBlock]) -> tuple[np.ndarray, int]:
    """(M, den): row k of M / den is grad p at the k-th representation.

    In block (i, j), w = (c - tden v) / tden with c / tden = t_i - t_j, so a
    row holds w w^t over tden^2 (off-diagonal entries doubled) and +-2Qw
    over qden tden at columns i and j, for Q = qnum / qden, all brought to
    one denominator.  M and its products are in ``int_type`` of a bound on
    the entries (Leech: 98280 rows of 300 entries up to 1089, 59 MB as int16
    against 236 MB as int64), and in Python ints when a column sum could
    pass int64, since ``_uniform_witness`` sums the columns in int64.  M is
    column-major and filled in place, one contiguous column at a time, since
    whole-matrix temporaries would each take as much memory as M.
    """
    d, m = x.d, x.m
    tri = [(a, c) for a in range(d) for c in range(a, d)]
    nq = len(tri)
    qden, qnum = x.q.den, x.q.gram
    qmax = max(abs(v) for row in qnum for v in row)
    scaled = [integer_row(b.t) for b in blocks]  # (tden, c) per block
    den = lcm(*(t * t if b.i == b.j else t * lcm(t, qden) for b, (t, _) in zip(blocks, scaled)))
    vs = [b.vs for b in blocks]
    # wmax bounds |c - tden v|, so a Q-part entry is at most 2 wmax^2 den /
    # tden^2, and a translation entry (i != j only) 2 d qmax wmax den / (qden
    # tden).
    wmax = [max(map(abs, c)) + t * max_abs(v) for (t, c), v in zip(scaled, vs)]
    rows = sum(len(v) for v in vs)
    bound = 2 * max(
        max(den // (t * t) * w * w, 0 if b.i == b.j else den // (qden * t) * d * qmax * w)
        for b, (t, _), w in zip(blocks, scaled, wmax)
    )
    dtype = object if int_type(rows * bound) is object else int_type(bound)
    matrix = np.zeros((rows, ambient_dim(d, m)), dtype=dtype, order="F")
    start = 0
    for b, (t, c), v in zip(blocks, scaled, vs):
        # Every factor below is at most the bound, except t itself.
        wtype = dtype if dtype is object else int_type(max(bound, t))
        # Column-major, so each w[:, a] read below is contiguous; no temporary as large as w.
        w = np.multiply(v, -t, dtype=wtype, order="F")
        w += np.array(c, dtype=wtype)
        part = matrix[start : start + len(v)]
        start += len(v)
        fq = den // (t * t)
        for k, (a, c) in enumerate(tri):
            np.multiply(w[:, a], w[:, c] * (fq if a == c else 2 * fq), out=part[:, k])
        if b.i != b.j:
            grad = (w @ np.array(qnum, dtype=wtype).T) * (2 * den // (qden * t))
            part[:, nq + (b.i - 1) * d : nq + b.i * d] = grad
            if b.j != m:
                part[:, nq + (b.j - 1) * d : nq + b.j * d] = -grad
    return matrix, den


def voronoi_domain(x: PeriodicForm) -> VoronoiDomain:
    """Min X, its generators (one per canonical representation) with their
    rank and nullspace, and the target (Q^{-1}, 0), each computed once."""
    gen_min = generalized_min(x)
    if gen_min.lam == 0:
        raise OverlapError("Voronoi domain undefined for lambda = 0")
    matrix, den = _gradient_matrix(x, gen_min.blocks)
    rank, complement = rank_complement(matrix)
    nullspace = tuple(TangentVector.unflatten(c, x.d, x.m) for c in complement)
    target = TangentVector.make(x.q.inverse(), [[0] * x.d for _ in range(x.m - 1)])
    return VoronoiDomain(
        gen_min.lam, gen_min.blocks, target, matrix, den, x.d, x.m, rank, nullspace
    )


def strong_eutaxy(q: PQF) -> tuple[bool, Fraction | None]:
    """Is Q^{-1} = alpha * sum over the full Min Q (both signs) of x x^t?

    The generators of the lattice domain are x x^t, one per +/- pair, so
    this is the uniform witness c there, with alpha = c / 2.
    """
    c = _uniform_witness(voronoi_domain(PeriodicForm.lattice(q)))
    return (False, None) if c is None else (True, c / 2)


# ---------------------------------------------------------------------------
# Eutaxy: position of (Q^{-1}, 0) in the domain.
# ---------------------------------------------------------------------------


def _uniform_witness(domain: VoronoiDomain) -> Fraction | None:
    """c > 0 with c * sum(generators) = target, if it exists (strong-eutaxy shape)."""
    wide = object if domain.matrix.dtype == object else np.int64
    total = [Fraction(v, domain.den) for v in domain.matrix.sum(axis=0, dtype=wide).tolist()]
    goal = domain.target.flatten(weighted=True)
    k = next((k for k, v in enumerate(total) if v), None)
    if k is None:
        return None
    c = goal[k] / total[k]
    if c > 0 and all(c * v == g for v, g in zip(total, goal)):
        return c
    return None


def _is_witness(
    matrix: np.ndarray, den: int, alpha: Sequence[Fraction], target: TangentVector
) -> bool:
    """Exact check: every alpha_k > 0 and sum_k alpha_k row_k / den == target."""
    if len(alpha) != len(matrix) or not all(a > 0 for a in alpha):
        return False
    scale, coeffs = integer_row(alpha)
    goal = target.flatten(weighted=True)
    return all(
        sum(map(mul, coeffs, col)) * g.denominator == scale * den * g.numerator
        for col, g in zip(zip(*matrix.tolist()), goal)
    )


def _is_separator(matrix: np.ndarray, target: TangentVector, s: TangentVector) -> bool:
    """Exact check: <g, s> >= 0 for every generator and <target, s> < 0.

    A weighted row dotted with the plain coordinates of s is a positive
    multiple of <g, s>.
    """
    _, plain = integer_row(s.flatten())
    return inner(target, s) < 0 and all(sum(map(mul, row, plain)) >= 0 for row in matrix.tolist())


def _classify(matrix: np.ndarray, den: int, target: TangentVector) -> EutaxyStatus:
    """Steps 2 to 4 of ``eutaxy_status`` for any target and rows matrix / den."""
    goal = target.flatten(weighted=True)
    metric = metric_weights(target.d, target.m)
    warm = FloatImage(matrix, den).support(goal)
    proj = project_to_cone(matrix, den, goal, metric, warm)
    if any(proj.residual):
        # The plain coordinates of the residual are w_i r_i / 2.
        plain = [w * r / 2 for w, r in zip(metric, proj.residual)]
        n = TangentVector.unflatten(plain, target.d, target.m)
        if not _is_separator(matrix, target, n):
            raise RuntimeError("the cone projection gave no separator")
        return EutaxyStatus(OUTSIDE, separator=n)
    face, alpha = minimal_face(matrix, den, goal, proj.coeffs)
    if alpha is None:
        return EutaxyStatus(BOUNDARY, face=face)
    if not _is_witness(matrix, den, alpha, target):
        raise RuntimeError("face descent gave no witness")
    return EutaxyStatus(INTERIOR, witness=alpha)


def eutaxy_status(domain: VoronoiDomain) -> EutaxyStatus:
    """Classify the target (Q^{-1}, 0) against the Voronoi domain, exactly.

    One exact solver, the nearest-point projection, answers every question;
    each answer is a certificate checked in exact arithmetic:

    1. a uniform-coefficient shortcut catches the strongly eutactic shape;
    2. a float nnls of the target onto the cone proposes the active set;
    3. the exact projection, warm-started there, decides membership, and its
       nonzero residual is the separator (outside);
    4. for a member, face descent (``cones.minimal_face``) finds the
       generators that carry weight in some representation of the target:
       all of them come with a strictly positive witness (interior), and
       otherwise they are F(X) (boundary).

    The relative-interior test rests on the standard fact that relint of a
    finitely generated cone is the set of strictly positive combinations of
    all its generators.
    """
    c = _uniform_witness(domain)
    if c is not None:
        return EutaxyStatus(INTERIOR, witness=(c,) * len(domain.matrix))
    return _classify(domain.matrix, domain.den, domain.target)


def improving_direction(status: EutaxyStatus) -> TangentVector | None:
    """A density-improving direction when (Q^{-1}, 0) is outside the domain.

    N is the nearest point to -(Q^{-1}, 0) in the dual cone P(X), obtained
    via the Moreau identity N = -(Q^{-1},0) + proj_{V(X)}((Q^{-1},0)).  It
    is the separator of the outside status, which ``eutaxy_status`` checked
    exactly: <g, N> >= 0 for every generator and <(Q^{-1},0), N> < 0.
    A target in the domain yields None.
    """
    return status.separator


# ---------------------------------------------------------------------------
# Uncertainty set and the translational criterion.
# ---------------------------------------------------------------------------


def uncertainty_space(
    domain: VoronoiDomain, status: EutaxyStatus
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
    if status.tag == OUTSIDE:
        raise ValueError("uncertainty set is defined only inside the domain")
    if status.tag == INTERIOR:
        return domain.nullspace, True
    _, basis = rank_complement(domain.matrix[list(status.face)])
    return tuple(TangentVector.unflatten(c, domain.d, domain.m) for c in basis), False


def translational_criterion(
    basis: Sequence[TangentVector], blocks: Sequence[MinBlock]
) -> tuple[bool, tuple[int, int] | None]:
    """Does the hull of U(X) consist of purely translational changes fixing
    some touching pair?

    Tests containment of the linear hull in {N : Q^N = 0, t_i^N = t_j^N} for
    each pair (i, j) carrying a minimum representation; for i = j (lattice
    vectors in Min X) the condition is purely Q^N = 0.  The last translate
    is pinned, so t_m^N = 0.  Checking the hull is sufficient but possibly
    conservative for non-linear U(X).
    """
    if not blocks:
        raise OverlapError("criterion undefined without minimum representations")

    def col(n: TangentVector, k: int) -> tuple[Fraction, ...]:
        return n.tcols[k - 1] if k < n.m else (Fraction(0),) * n.d

    for i, j in sorted({(b.i, b.j) for b in blocks}):
        if all(n.qpart.is_zero() and (i == j or col(n, i) == col(n, j)) for n in basis):
            return True, (i, j)
    return False, None


def floating_components(blocks: Sequence[MinBlock], m: int) -> tuple[tuple[int, ...], ...]:
    """Connected components of the touching graph on translate indices 1..m."""
    parent = list(range(m + 1))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for b in blocks:
        if b.i != b.j:
            ra, rb = find(b.i), find(b.j)
            if ra != rb:
                parent[ra] = rb
    groups: dict[int, list[int]] = {}
    for i in range(1, m + 1):
        groups.setdefault(find(i), []).append(i)
    return tuple(sorted(tuple(sorted(g)) for g in groups.values()))


def certify(x: PeriodicForm) -> Certificate:
    """Full local-optimality analysis of a periodic form with lambda > 0.

    One Voronoi domain, then the stages that read it.  Decision tree: target
    outside the domain gives NotExtreme with the separator as the improving
    direction, and no step along it;
    interior plus full-dimensional domain gives IsolatedExtreme; otherwise
    the purely-translational criterion can still certify (possibly
    non-isolated) extremeness, and failing that the verdict is an honest
    Inconclusive carrying F(X) and U(X).  lambda = 0 raises OverlapError.
    """
    domain = voronoi_domain(x)
    status = eutaxy_status(domain)
    base = dict(
        lam=domain.lam,
        perfect=domain.is_full_dimensional,
        rank=domain.rank,
        ambient=domain.ambient,
        eutaxy=status,
        floating=floating_components(domain.blocks, domain.m),
    )

    if status.tag == OUTSIDE:
        return Certificate(NOT_EXTREME, improving=improving_direction(status), **base)
    if status.tag == INTERIOR and domain.is_full_dimensional:
        return Certificate(ISOLATED_EXTREME, **base)
    basis, is_subspace = uncertainty_space(domain, status)
    holds, witness = translational_criterion(basis, domain.blocks)
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


def improvement_step(
    x: PeriodicForm, n: TangentVector, lam: Fraction
) -> tuple[Fraction, PeriodicForm] | None:
    """Backtrack eps from 2^k until delta(X + eps N) > delta(X), exactly, and
    return eps with the form X + eps N that the comparison read.

    The Q-part of N scales like Q^{-1}, so the admissible steps scale like
    lam^2 (about 2^-2200 for Q scaled by 2^-1100) and a fixed start misses
    them; the start is lam^2 rounded to a power of two, exactly 1 on the
    min-one forms ``improve`` certifies.  Comparison is on the exact
    rational center density squared, which is scale-invariant, so no
    rescaling enters the verdict.  None after 256 halvings without a gain.

    Most halvings are decided without a lattice walk.  A representation
    (i, j, v) of the last rejected candidate's minimum stays a difference
    vector w = t_i - t_j - v of X + eps N at every eps, and
    lambda(X + eps N) <= Q_eps[w] (a zero w means the translates meet).  So
    an eps with m^2 Q_eps[w]^d <= delta^2(X) 4^d det(Q_eps) for some kept
    representation cannot gain, and is skipped; one integer factorisation
    of a multiple of Q_eps gives that det and positive definiteness.  Only
    the eps this bound cannot reject are measured by ``density``, so the
    result is the one the plain halving loop gives.
    """
    if n.d != x.d or n.m != x.m:
        raise ValueError("tangent vector lives in a different space")
    before = density(x, lam).center_density_squared
    d, m = x.d, x.m
    # With gram = s Q_eps and w = u / c in integers, the bound reads
    # gram[u]^d m^2 den(before) <= num(before) 4^d det(gram) c^(2d).
    lhs, rhs = m * m * before.denominator, before.numerator * 4 ** d
    nden, ngram = n.qpart.integer_rows()
    tden, tnum = integer_row([v for col in x.tcols for v in col])
    sden, snum = integer_row([v for col in n.tcols for v in col])
    top = 2 * log2_magnitude(lam)
    blocks: tuple[MinBlock, ...] = ()
    for k in range(top, top - 256, -1):
        # At eps = 2^k, with f = 2^max(-k, 0) and e = 2^max(k, 0) = f 2^k:
        # s = den(Q) den(N) f, and c = den(t) den(t^N) f clears the translates.
        f, e = 1 << max(-k, 0), 1 << max(k, 0)
        gram = [[nden * f * a + x.q.den * e * b for a, b in zip(qrow, nrow)]
                for qrow, nrow in zip(x.q.gram, ngram)]
        factors = factor_gram(1, gram)
        if not factors.is_positive_definite:
            continue
        if blocks:
            c = tden * sden * f
            flat = [sden * f * a + tden * e * b for a, b in zip(tnum, snum)]
            ts = [flat[i : i + d] for i in range(0, len(flat), d)] + [[0] * d]
            cap = rhs * factors.minors[-1] * c ** (2 * d)
            if any(p ** d * lhs <= cap for p in _rep_values(blocks, ts, c, gram)):
                continue
        eps = Fraction(2) ** k
        cand = x.add_tangent(n, eps)
        if density(cand).center_density_squared > before:
            return eps, cand
        blocks = generalized_min(cand).blocks
    return None


def _rep_values(blocks, ts, c, gram):
    """gram[u] for u = c (t_i - t_j - v), over the representations (i, j, v)
    of ``blocks``, where ts[i - 1] = c t_i in integers."""
    for b in blocks:
        t = [p - q for p, q in zip(ts[b.i - 1], ts[b.j - 1])]
        for v in b.vs.tolist():
            u = [a - c * vi for a, vi in zip(t, v)]
            yield sum(ui * sum(map(mul, row, u)) for ui, row in zip(u, gram))


def periodic_extreme_by_theorem(q: PQF) -> bool:
    """Perfect plus strongly eutactic certifies periodic extremeness for all
    representations at once, without enumerating them."""
    domain = voronoi_domain(PeriodicForm.lattice(q))
    return domain.is_full_dimensional and _uniform_witness(domain) is not None
