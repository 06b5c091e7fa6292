"""Iterative density improvement with its own backtracking line search.

``improve`` is kept here unchanged from before it stepped by the
certificate's verified epsilon, as the reference that ``periform.improve``
must match: the same steps, epsilons, densities, snaps, final form and
verdict.  Only the imports are absolute.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from periform.certify import (
    Certificate,
    EXTREME_TRANSLATIONAL,
    INCONCLUSIVE,
    ISOLATED_EXTREME,
    NOT_EXTREME,
    certify,
)
from periform.linalg import PQF, RatLike, SymForm, TangentVector
from periform.periodic import (
    OverlapError,
    PeriodicForm,
    density,
    generalized_min,
    rescale_to_min_one,
)

__all__ = ["ImproveStep", "ImproveResult", "improve"]

_MIN_EPS = Fraction(1, 2 ** 70)


@dataclass(frozen=True)
class ImproveStep:
    index: int
    action: str  # "improve" or "escape"
    epsilon: Fraction
    center_density_squared: Fraction
    delta_over_ball: float
    snapped: bool


@dataclass(frozen=True)
class ImproveResult:
    final: PeriodicForm
    certificate: Certificate
    steps: tuple[ImproveStep, ...]
    stalled: bool


def _snap(x: PeriodicForm, max_denominator: int) -> PeriodicForm | None:
    d = x.d
    rows = [
        [x.q.form.entry(i, j).limit_denominator(max_denominator) for j in range(d)]
        for i in range(d)
    ]
    cols = [
        [v.limit_denominator(max_denominator) for v in col] for col in x.tcols
    ]
    try:
        return PeriodicForm.make(PQF(SymForm.from_rows(rows)), cols)
    except ValueError:
        return None


def _line_search(
    x: PeriodicForm,
    direction: TangentVector,
    floor: Fraction,
    shrink: Fraction,
) -> tuple[PeriodicForm, Fraction] | None:
    """First eps in 1, shrink, shrink^2, ... with a strict density gain."""
    eps = Fraction(1)
    while eps > _MIN_EPS:
        try:
            cand = x.add_tangent(direction, eps)
        except ValueError:
            eps *= shrink
            continue
        if density(cand).center_density_squared > floor:
            return cand, eps
        eps *= shrink
    return None


def _accept(
    cand: PeriodicForm, floor: Fraction, max_denominator: int
) -> tuple[PeriodicForm, bool]:
    """Rescale to minimum one, then snap if that does not fall back below floor."""
    cand = rescale_to_min_one(cand)
    snapped = _snap(cand, max_denominator)
    if snapped is not None:
        stats = density(snapped)
        if stats.lam > 0 and stats.center_density_squared > floor:
            return snapped, True
    return cand, False


def improve(
    x: PeriodicForm,
    steps: int = 500,
    shrink: RatLike = Fraction(1, 2),
    max_denominator: int = 1024,
    seed: int | None = None,
) -> ImproveResult:
    """Drive X uphill until certified extreme, out of steps, or stalled.

    The returned trajectory carries one entry per accepted step with its
    exact center density; the final form has been re-certified after the
    last step.  Stalls (no strict gain found along any admissible
    direction) are reported, never papered over.
    """
    shrink = Fraction(shrink)
    if not 0 < shrink < 1:
        raise ValueError("shrink factor must lie in (0, 1)")
    if generalized_min(x).lam == 0:
        raise OverlapError("cannot improve a form with lambda = 0")
    rng = random.Random(seed)
    x = rescale_to_min_one(x)
    trail: list[ImproveStep] = []
    stalled = False
    cert = certify(x)
    for index in range(steps):
        if cert.verdict in (ISOLATED_EXTREME, EXTREME_TRANSLATIONAL):
            break
        floor = density(x).center_density_squared
        found = None
        action = "improve"
        if cert.verdict == NOT_EXTREME:
            found = _line_search(x, cert.improving, floor, shrink)
        elif cert.verdict == INCONCLUSIVE and cert.uncertainty_basis:
            action = "escape"
            directions = [
                basis.scale(sign)
                for basis in cert.uncertainty_basis
                for sign in (1, -1)
            ]
            rng.shuffle(directions)
            for direction in directions:
                found = _line_search(x, direction, floor, shrink)
                if found:
                    break
        if found is None:
            stalled = True
            break
        cand, eps = found
        x, was_snapped = _accept(cand, floor, max_denominator)
        stats = density(x)
        trail.append(
            ImproveStep(
                index, action, eps, stats.center_density_squared,
                stats.delta_over_ball, was_snapped,
            )
        )
        cert = certify(x)
    return ImproveResult(x, cert, tuple(trail), stalled)
