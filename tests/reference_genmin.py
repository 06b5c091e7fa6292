"""The generalized minimum as one sorted MinRep of Fractions per representation.

``generalized_min`` is kept here unchanged from before Min X was stored as
integer blocks, as the reference that ``periodic.generalized_min`` and its
``reps`` view must match: the same lambda, and the same (i, j, v, w) in the
same order.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from periform.lattices import closest_vectors, shortest_vectors
from periform.periodic import MinRep, PeriodicForm


@dataclass(frozen=True)
class GenMinResult:
    lam: Fraction
    reps: tuple[MinRep, ...]


def generalized_min(x: PeriodicForm) -> GenMinResult:
    """lambda(X) and the complete canonical set of its representations.

    One SVP handles all pairs i = j (each lattice vector is recorded once per
    translate index), and one CVP per pair i < j handles the rest.  lambda = 0
    is a reportable state for intersecting translates, not an error.
    """
    d, m = x.d, x.m
    parts: list[tuple[Fraction, list[MinRep]]] = []

    svp = shortest_vectors(x.q)
    lattice_reps = []
    for vec in svp.vectors:
        w = tuple(Fraction(c) for c in vec)
        v = tuple(-c for c in vec)
        for i in range(1, m + 1):
            lattice_reps.append(MinRep(i, i, v, w))
    parts.append((svp.min, lattice_reps))

    for i in range(1, m + 1):
        ti = x.translate(i)
        for j in range(i + 1, m + 1):
            tj = x.translate(j)
            target = [a - b for a, b in zip(ti, tj)]
            cvp = closest_vectors(x.q, target)
            reps = [
                MinRep(i, j, v, tuple(t - vi for t, vi in zip(target, v)))
                for v in cvp.vectors
            ]
            parts.append((cvp.min, reps))

    lam = min(p[0] for p in parts)
    reps = [r for val, rs in parts if val == lam for r in rs]
    reps.sort(key=MinRep.key)
    return GenMinResult(lam, tuple(reps))
