"""Iterative density improvement driven by the certificates.

Each round certifies the current form and searches for a step with
``improvement_step``: along the improving direction of a NotExtreme verdict,
or, for an Inconclusive verdict, along the uncertainty directions in turn,
where second-order gains can hide (the square lattice inside the hexagonal
basin is the classic case).
Every acceptance test is an exact rational comparison of center densities,
so the reported density sequence is strictly increasing by construction.
Iterates are snapped to denominators of at most _MAX_DENOMINATOR to keep
coordinate heights from growing without bound; a snap is kept only when it
still beats the density before the step.

Each minimum is computed once.  The line search skips the halvings that a
representation of an earlier candidate's minimum already rules out, and a
form keeps the minimum it was measured with (``PeriodicForm.minimum``):
the rescale of the accepted candidate, the certificate of the kept form and
the opening rescale of a form that an earlier call returned walk no
lattice.  Only a snap that moves the form is measured afresh.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .certify import (
    Certificate,
    EXTREME_TRANSLATIONAL,
    ISOLATED_EXTREME,
    NOT_EXTREME,
    certify,
    improvement_step,
)
from .linalg import PQF, SymForm
from .periodic import (
    DensityReport,
    PeriodicForm,
    density,
    rescale_to_min_one,
)

__all__ = ["ImproveStep", "ImproveResult", "improve"]

_MAX_DENOMINATOR = 1024


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


def _snap(x: PeriodicForm) -> PeriodicForm | None:
    """X with every entry rounded to a denominator of at most
    _MAX_DENOMINATOR, and translations wrapped mod 1; X itself, minimum and
    all, when that changes nothing; None when Q leaves the PD cone."""
    d = x.d
    rows = [
        [x.q.form.entry(i, j).limit_denominator(_MAX_DENOMINATOR) for j in range(d)]
        for i in range(d)
    ]
    cols = [
        [v.limit_denominator(_MAX_DENOMINATOR) for v in col] for col in x.tcols
    ]
    try:
        snapped = PeriodicForm.make(PQF(SymForm.from_rows(rows)), cols)
    except ValueError:
        return None
    return x if snapped == x else snapped


def _accept(
    cand: PeriodicForm, floor: Fraction
) -> tuple[PeriodicForm, bool, DensityReport]:
    """Rescale the form ``improvement_step`` verified to minimum one (from
    the minimum it was measured with), then snap if the snap still beats
    floor, the density before the step.

    Returns the kept form, whether it is the snap, and its density report.
    """
    cand = rescale_to_min_one(cand)
    snapped = _snap(cand)
    if snapped is not None:
        stats = density(snapped)
        if stats.center_density_squared > floor:
            return snapped, True, stats
    return cand, False, density(cand, Fraction(1))


def improve(
    x: PeriodicForm, steps: int = 500, seed: int = 0
) -> ImproveResult:
    """Drive X uphill until certified extreme, out of steps, or stalled.

    The returned trajectory carries one entry per accepted step with its
    exact center density; the final form has been re-certified after the
    last step, and no step is searched for from it.  Stalls (no strict gain
    found along any admissible direction) are reported, never papered over.
    ``seed`` orders the escape directions, so a run is reproducible.  A form
    with lambda = 0 raises OverlapError.
    """
    rng = random.Random(seed)
    x = rescale_to_min_one(x)
    trail: list[ImproveStep] = []
    stalled = False
    cert = certify(x)
    for index in range(steps):
        if cert.verdict in (ISOLATED_EXTREME, EXTREME_TRANSLATIONAL):
            break
        if cert.verdict == NOT_EXTREME:
            action, directions = "improve", [cert.improving]
        else:
            action = "escape"
            directions = [n.scale(sign) for n in cert.uncertainty_basis for sign in (1, -1)]
            rng.shuffle(directions)
        found = None
        for direction in directions:
            found = improvement_step(x, direction, cert.lam)
            if found is not None:
                break
        if found is None:
            stalled = True
            break
        eps, cand = found
        floor = density(x, cert.lam).center_density_squared
        x, was_snapped, stats = _accept(cand, floor)
        trail.append(
            ImproveStep(
                index, action, eps, stats.center_density_squared,
                stats.delta_over_ball, was_snapped,
            )
        )
        cert = certify(x)
    return ImproveResult(x, cert, tuple(trail), stalled)
