"""The periform benchmark workloads: inputs from a seed, timed operations, checks.

Every workload is a closed loop with one client: the next operation starts
when the previous one has returned.  Inputs are built from the catalog (or a
fixed start pool), varied by the seed in ways that must not change the
answer (a rescale, a sample, an order), and round-tripped through PFORM-JSON
before the program sees them.
Each operation's result is checked against values known independently of the
timed call; an operation fails if it raises or if any check does not hold.
"""

from __future__ import annotations

import contextlib
import random
import sys
import time
import traceback
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, ClassVar

import periform as P
from periform.certify import (
    EXTREME_TRANSLATIONAL,
    ISOLATED_EXTREME,
    NOT_EXTREME,
)
from periform.intmat import enumerate_sublattice_hnf
from periform.linalg import PQF
from periform.periodic import PeriodicForm

EXTREME = (ISOLATED_EXTREME, EXTREME_TRANSLATIONAL)


class Recorder:
    """Times operations, counts failed ones, and keeps per-workload tallies.

    ``tracer`` is switched on only while an operation (or the building of a
    traced round's inputs) runs, so the checks never show up in the trace.
    """

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.latencies: list[float] = []
        self.failed = 0
        self.tally: dict[str, int] = {}

    @contextlib.contextmanager
    def traced(self):
        """Switch the tracer, if there is one, on for the block."""
        if self.tracer is not None:
            self.tracer.enabled = True
        try:
            yield
        finally:
            if self.tracer is not None:
                self.tracer.enabled = False

    def call(self, fn: Callable, *args, **kwargs):
        """Run one timed operation; None if it raised (counted as failed)."""
        start = time.perf_counter()
        try:
            with self.traced():
                return fn(*args, **kwargs)
        except Exception:  # any raise is a failed operation, never fatal
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            return None
        finally:
            self.latencies.append(time.perf_counter() - start)

    def check(self, problems: list[str], what: str) -> None:
        """Count an operation as failed if any of its checks found a problem."""
        if problems:
            self.failed += 1
            print(f"check failed: {what}: {'; '.join(problems)}", file=sys.stderr)

    def count(self, key: str, n: int = 1) -> None:
        self.tally[key] = self.tally.get(key, 0) + n

    def peak(self, key: str, value: int) -> None:
        self.tally[key] = max(self.tally.get(key, 0), value)


def round_trip(x: PeriodicForm) -> PeriodicForm:
    """What the program sees: the form as read back from its PFORM-JSON text."""
    return P.loads(P.dumps(x))


def small_scale(rng: random.Random) -> Fraction:
    """A small positive rational; rescaling Q by it must not change a verdict."""
    return Fraction(rng.randint(1, 5), rng.randint(1, 5))


def rescaled(x: PeriodicForm, s: Fraction) -> PeriodicForm:
    return PeriodicForm(x.q.scale(s), x.tcols)


def as_form(obj) -> PeriodicForm:
    return obj if isinstance(obj, PeriodicForm) else PeriodicForm.lattice(obj)


# ---------------------------------------------------------------------------
# classics: certify on the largest catalog forms.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Classic:
    """A catalog form and the certificate it must get at scale 1."""

    name: str
    build: Callable[[], PeriodicForm]
    lam: Fraction
    verdict: str
    pairs: int | None = None  # size of the strong-eutaxy witness, if taken


CLASSICS = (
    Classic("Leech", lambda: as_form(P.get("Leech").form), Fraction(4),
            ISOLATED_EXTREME, 98280),
    Classic("Lambda9", lambda: P.fluid_diamond(0), Fraction(2),
            EXTREME_TRANSLATIONAL),
)


@dataclass
class Classics:
    """``certify`` on a few large forms, each rescaled by a seeded rational.

    Leech is the enumeration walker's and ``generalized_min``'s workload
    (98280 minimal pairs); Lambda9 is the exact simplex's (two dense LPs).
    """

    cases: tuple[Classic, ...] = CLASSICS
    name: ClassVar[str] = "classics"

    def inputs(self, seed: int, rnd: int) -> list:
        rng = random.Random(f"{self.name}:{seed}:{rnd}")
        out = []
        for case in self.cases:
            s = small_scale(rng)
            out.append((case, s, round_trip(rescaled(case.build(), s))))
        return out

    def run(self, inputs: list, rec: Recorder) -> None:
        for case, s, x in inputs:
            cert = rec.call(P.certify, x)
            if cert is None:
                continue
            problems = []
            if cert.verdict != case.verdict:
                problems.append(f"verdict {cert.verdict}, expected {case.verdict}")
            if cert.lam != case.lam * s:
                problems.append(f"lambda {cert.lam}, expected {case.lam * s}")
            if case.pairs is not None and (
                cert.eutaxy.witness is None or len(cert.eutaxy.witness) != case.pairs
            ):
                problems.append(f"expected a witness over {case.pairs} pairs")
            rec.check(problems, f"{case.name} at scale {s}")
            rec.count("certified", cert.verdict in EXTREME)
            rec.count("forms")


# ---------------------------------------------------------------------------
# sublattice-reps: many small certificates of one lattice in many charts.
# ---------------------------------------------------------------------------


@dataclass
class SublatticeReps:
    """``certify`` on every representation of A2 and D4 over sublattices of
    index <= ``max_index``, plus a seeded sample of E8 over index-2 and
    index-3 sublattices.  Every representation describes the same point set,
    so lambda and the center density must match the base lattice's.

    Nothing is rescaled here: a seeded scale changes the heights of 226 small
    forms at once, which moved the median operation time by a third between
    seeds.
    """

    bases: tuple[tuple[str, tuple], ...] = (("A", (2,)), ("D", (4,)))
    max_index: int = 4
    e8_sample: tuple[tuple[int, int], ...] = ((2, 1), (3, 1))  # (index, count)
    name: ClassVar[str] = "sublattice-reps"
    _expected: dict = field(default_factory=dict, init=False, repr=False)

    def _base(self, name: str, params: tuple) -> tuple[Fraction, Fraction]:
        """Base lattice's lambda and center density squared."""
        key = (name, params)
        if key not in self._expected:
            x = PeriodicForm.lattice(P.get(name, *params).form)
            lam = P.generalized_min(x).lam
            self._expected[key] = (lam, P.density(x, lam).center_density_squared)
        return self._expected[key]

    def inputs(self, seed: int, rnd: int) -> list:
        rng = random.Random(f"{self.name}:{seed}:{rnd}")
        jobs = []
        for name, params in self.bases:
            q = P.get(name, *params).form
            for index in range(1, self.max_index + 1):
                for h in enumerate_sublattice_hnf(q.d, index):
                    jobs.append((name, params, q, h))
        e8 = P.get("E8").form
        for index, count in self.e8_sample:
            for h in rng.sample(list(enumerate_sublattice_hnf(8, index)), count):
                jobs.append(("E8", (), e8, h))
        # Shuffled, so that a slow spell of the host lands on a mix of index
        # and dimension instead of on one contiguous class of forms.
        rng.shuffle(jobs)
        return [
            (name, params, h, round_trip(P.sublattice_representation(q, h)))
            for name, params, q, h in jobs
        ]

    def run(self, inputs: list, rec: Recorder) -> None:
        for name, params, h, x in inputs:
            cert = rec.call(P.certify, x)
            if cert is None:
                continue
            lam, delta2 = self._base(name, params)
            problems = []
            if cert.lam != lam:
                problems.append(f"lambda {cert.lam}, expected {lam}")
            elif P.density(x, cert.lam).center_density_squared != delta2:
                problems.append("center density differs from the base lattice's")
            if cert.verdict == NOT_EXTREME:
                problems.append("NotExtreme")
            rec.check(problems, f"{name}{''.join(map(str, params))} over H={h}")
            rec.count("certified", cert.verdict in EXTREME)
            rec.count("forms")


# ---------------------------------------------------------------------------
# improve-walk: thousands of tiny, height-sensitive steps.
# ---------------------------------------------------------------------------

SHAPES = ((2, 1), (3, 1), (2, 2), (3, 2))


def height_bits(x: PeriodicForm) -> int:
    """Largest bit length of any numerator or denominator in Q and t."""
    d = x.d
    values = [x.q.form.entry(i, j) for i in range(d) for j in range(i, d)]
    values += [v for col in x.tcols for v in col]
    return max(max(abs(v.numerator).bit_length(), v.denominator.bit_length())
               for v in values)


def random_start(rng: random.Random, d: int, m: int) -> PeriodicForm:
    """Q = B^t B for a small random integer B, translates with small denominators.

    A translate t_i with numerators 0..k-1 over k is never integral unless
    all numerators are 0, so lambda > 0 holds without computing it.
    """
    while True:
        b = [[rng.randint(-2, 2) for _ in range(d)] for _ in range(d)]
        rows = [[sum(b[k][i] * b[k][j] for k in range(d)) for j in range(d)]
                for i in range(d)]
        try:
            q = PQF.from_rows(rows)
        except ValueError:  # B singular
            continue
        cols = [[Fraction(rng.randint(0, 6), rng.randint(2, 7)) for _ in range(d)]
                for _ in range(m - 1)]
        if all(v == 0 for col in cols for v in col) and cols:
            continue
        return PeriodicForm.make(q, cols)


@dataclass
class ImproveWalk:
    """One ``improve(x, steps=1)`` call per operation, over a pool of starts.

    A start ends when it is certified extreme, when it stalls, when an
    iterate's height passes ``bit_cap`` bits (the known height blow-up of
    ``improve``: counted and reported, not filtered out), or after
    ``step_limit`` operations.

    The pool is fixed: ``per_shape`` starts for each (d, m) in SHAPES and the
    seeds of their steps' escape directions, drawn from a constant pool seed.
    The run's seed rescales each start.  A round's time is dominated by one
    costly step per start, the one that passes the cap (0.1 to 6 s, most for
    d = 3, m = 2), so starts that differ per seed move it a lot: random pools drawn
    per seed spread the time of a 15 s round over 14 to 22 s, and a seeded
    signed permutation of each start's basis (which changes the walk, since
    the snap and the line search are not basis-invariant) over 11 to 17 s.
    Seeding the escape directions per run still changed the number of steps
    per round by a tenth.
    """

    per_shape: int = 2
    bit_cap: ClassVar[int] = 256
    step_limit: int = 40
    pool_seed: ClassVar[str] = "improve-walk pool"
    name: ClassVar[str] = "improve-walk"

    def inputs(self, seed: int, rnd: int) -> list:
        pool = random.Random(self.pool_seed)
        starts = [(random_start(pool, d, m), pool.randrange(2 ** 32))
                  for _ in range(self.per_shape) for d, m in SHAPES]
        rng = random.Random(f"{self.name}:{seed}:{rnd}")
        return [(round_trip(rescaled(x, small_scale(rng))), step_seed)
                for x, step_seed in starts]

    def run(self, inputs: list, rec: Recorder) -> None:
        # The starts take turns, one operation each, so that a slow spell of
        # the host is spread over every shape instead of landing on one start.
        walks = [self._walk(x, step_seed, rec) for x, step_seed in inputs]
        while walks:
            walks = [walk for walk in walks if next(walk, False)]

    def _walk(self, x: PeriodicForm, step_seed: int, rec: Recorder):
        """One start; yields True after each operation until the start ends."""
        rng = random.Random(step_seed)
        floor = P.density(x).center_density_squared
        rec.count("starts")
        for _ in range(self.step_limit):
            res = rec.call(P.improve, x, steps=1, seed=rng.randrange(2 ** 32))
            if res is None:
                return
            rec.count("steps")
            problems = []
            if res.steps:
                x = res.final
                gained = P.density(x).center_density_squared
                if not gained > floor:
                    problems.append("accepted step did not raise the density")
                if gained != res.steps[-1].center_density_squared:
                    problems.append("reported density is not the form's")
                floor = gained
                rec.count("accepted")
                rec.count("snapped", res.steps[-1].snapped)
            rec.check(problems, f"improve step on d={x.d}, m={x.m}")
            bits = height_bits(x)
            rec.peak("max_bits", bits)
            if res.certificate.verdict in EXTREME:
                rec.count("certified")
                return
            if res.stalled:
                rec.count("stalled")
                return
            if bits > self.bit_cap:
                rec.count("capped")
                return
            yield True
        rec.count("unfinished")

WORKLOADS: dict[str, Callable[[], object]] = {
    "classics": Classics,
    "sublattice-reps": SublatticeReps,
    "improve-walk": ImproveWalk,
}
