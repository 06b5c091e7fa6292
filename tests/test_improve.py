import json
import random
import sys
from fractions import Fraction as Fr
from pathlib import Path

import pytest

import reference_improve
from helpers import e8_gram, run_python
from periform import lattices, periodic
from periform.catalog import get
from periform.certify import NOT_EXTREME, certify, improvement_step
from periform.improve import improve
from periform.linalg import PQF, SymForm, log2_magnitude
from periform.periodic import (
    OverlapError,
    PeriodicForm,
    density,
    generalized_min,
    rescale_to_min_one,
)

DIAG = PeriodicForm.lattice(PQF.from_rows([[1, 0], [0, 2]]))


class TestImprove:
    def test_already_extreme_takes_no_steps(self):
        x = PeriodicForm.lattice(e8_gram())
        res = improve(x, steps=10)
        assert res.steps == ()
        assert res.certificate.verdict == "IsolatedExtreme"
        assert not res.stalled

    def test_diag_reaches_hexagonal(self):
        x = PeriodicForm.lattice(PQF.from_rows([[1, 0], [0, 2]]))
        res = improve(x, steps=500)
        assert not res.stalled
        assert res.certificate.verdict == "IsolatedExtreme"
        final = density(res.final).delta_over_ball
        assert abs(final - 0.28867513459481287) < 1e-3

    def test_trajectory_strictly_increasing(self):
        x = PeriodicForm.lattice(PQF.from_rows([[1, 0], [0, 2]]))
        res = improve(x, steps=500)
        values = [s.center_density_squared for s in res.steps]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_line_translate_converges(self):
        x = PeriodicForm.make(PQF.from_rows([[1]]), [[Fr(2, 5)]])
        res = improve(x, steps=200)
        assert res.certificate.verdict == "IsolatedExtreme"
        # Certified optimum of two translates on the line: center^2 = 1/4.
        assert density(res.final).center_density_squared == Fr(1, 4)

    def test_step_budget_respected(self):
        x = PeriodicForm.lattice(PQF.from_rows([[1, 0], [0, 2]]))
        res = improve(x, steps=2)
        assert len(res.steps) <= 2

    def test_overlap_rejected(self):
        x = PeriodicForm.make(PQF(SymForm.identity(1)), [[0]])
        with pytest.raises(OverlapError):
            improve(x)

    def test_seeded_runs_reproduce(self):
        x = PeriodicForm.lattice(PQF.from_rows([[1, 0], [0, 2]]))
        r1 = improve(x, steps=500, seed=7)
        r2 = improve(x, steps=500, seed=7)
        assert [s.center_density_squared for s in r1.steps] == [
            s.center_density_squared for s in r2.steps
        ]

    def test_default_seed_is_zero(self):
        """With no seed the escape order is seed 0's, so runs reproduce."""
        res = improve(DIAG)
        assert res.final == improve(DIAG, seed=0).final
        half = Fr(1, 2)
        assert res.final.q.form.rows() == ((1, half), (half, 1))


def catalog_form(name, *params):
    form = get(name, *params).form
    return PeriodicForm.lattice(form) if isinstance(form, PQF) else form


def outcome(res):
    steps = [
        (s.index, s.action, s.epsilon, s.center_density_squared,
         s.delta_over_ball, s.snapped)
        for s in res.steps
    ]
    return steps, res.final, res.stalled, res.certificate.verdict, res.certificate.lam


class TestMatchesReference:
    """The same trajectory as the improve that ran its own line search."""

    @pytest.mark.parametrize("x, steps", [
        (DIAG, 500),
        (PeriodicForm.make(PQF.from_rows([[1]]), [[Fr(2, 5)]]), 500),
    ], ids=["diag(1,2)", "line-2/5"])
    def test_walks_to_the_end(self, x, steps):
        assert outcome(improve(x, steps=steps, seed=0)) == outcome(
            reference_improve.improve(x, steps=steps, seed=0)
        )

    # Escapes on every form; the escape of Dplus 3 at seed 2 first tries a
    # direction with no gain.
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("name, d", [("Zd", 2), ("Zd", 3), ("Dplus", 3), ("Dplus", 5)])
    def test_escapes(self, name, d, seed):
        x = catalog_form(name, d)
        assert outcome(improve(x, steps=3, seed=seed)) == outcome(
            reference_improve.improve(x, steps=3, seed=seed)
        )

    @pytest.mark.parametrize("scale", [Fr(2 ** 60), Fr(1, 2 ** 60)], ids=["2^60", "2^-60"])
    def test_rescaled(self, scale):
        x = catalog_form("Dplus", 3)
        x = x.with_q(x.q.scale(scale))
        assert outcome(improve(x, steps=3, seed=2)) == outcome(
            reference_improve.improve(x, steps=3, seed=2)
        )


def fresh(x: PeriodicForm) -> PeriodicForm:
    """An equal form that keeps no minimum, on a Q that keeps no reduction."""
    return PeriodicForm(PQF(x.q.form), x.tcols)


def record_walks(monkeypatch) -> list:
    """The Q of every lattice walk from now on, SVP and CVP alike."""
    walked = []
    for name in ("shortest_vectors", "closest_vectors"):
        real = getattr(lattices, name)

        def walk(q, *args, _real=real):
            walked.append(q)
            return _real(q, *args)

        monkeypatch.setattr(periodic, name, walk)
    return walked


class TestStepWork:
    def test_one_step_call_counts(self, monkeypatch):
        """One SVP for the start and one for the one candidate the line
        search measures.  The rescale of the candidate, its snap (equal to
        it here), both certificates and the density of the kept form walk no
        lattice."""
        x = fresh(DIAG)
        walked = record_walks(monkeypatch)
        res = improve(x, steps=1)
        assert len(res.steps) == 1 and res.steps[0].action == "improve"
        assert res.steps[0].snapped and len(walked) == 2 and walked[0] is x.q

    def test_improve_steps_by_the_certified_epsilon(self, monkeypatch):
        """A NotExtreme step takes the verified step along the certificate's
        direction, from the form that was certified."""
        module = sys.modules["periform.improve"]
        certify = module.certify
        certified = []

        def recording(x):
            certified.append((x, certify(x)))
            return certified[-1][1]

        monkeypatch.setattr(module, "certify", recording)
        res = improve(DIAG, steps=500)
        improving = [s for s in res.steps if s.action == "improve"]
        assert improving
        for s in improving:
            x, cert = certified[s.index]
            assert s.epsilon == improvement_step(x, cert.improving, density(x, cert.lam))[0]

    @pytest.mark.parametrize("steps", [1, 3])
    def test_one_search_per_not_extreme_step(self, monkeypatch, steps):
        """One step search per NotExtreme step, and none from the final form."""
        searched = []

        def recording(x, n, before):
            searched.append(x)
            return improvement_step(x, n, before)

        for mod in ("periform.improve", "periform.certify"):
            monkeypatch.setattr(sys.modules[mod], "improvement_step", recording)
        res = improve(DIAG, steps=steps)
        assert [s.action for s in res.steps] == ["improve"] * steps
        assert res.certificate.verdict == NOT_EXTREME
        assert len(searched) == steps
        assert res.final not in searched

    def test_not_extreme_without_a_step_stalls(self, monkeypatch):
        monkeypatch.setattr(sys.modules["periform.improve"], "improvement_step",
                            lambda x, n, before: None)
        res = improve(DIAG, steps=5)
        assert res.stalled and res.steps == ()
        assert res.certificate.verdict == NOT_EXTREME

    def test_direction_from_another_space_raises(self):
        line = certify(PeriodicForm.make(PQF.from_rows([[1]]), [[Fr(2, 5)]]))
        with pytest.raises(ValueError, match="different space"):
            improvement_step(DIAG, line.improving, density(DIAG))

    def test_a_returned_form_walks_nothing_again(self, monkeypatch):
        """improve from the form an earlier call returned reads the minimum
        that form keeps: neither it nor its rescaled copy is walked again."""
        res = improve(fresh(DIAG), steps=1)
        walked = record_walks(monkeypatch)
        again = improve(res.final, steps=1)
        assert len(again.steps) == 1
        start = rescale_to_min_one(res.final)
        assert res.final.q not in walked and start.q not in walked

    def test_escapes_walk_each_minimum_once(self, monkeypatch):
        """Dplus 3 at seed 2 first escapes along a direction with no gain:
        the contact bound rejects its halvings, so three steps take at most
        12 SVP walks (269 with a walk per halving) and the same steps."""
        x = fresh(catalog_form("Dplus", 3))
        walked = []
        real = lattices.shortest_vectors
        monkeypatch.setattr(periodic, "shortest_vectors",
                            lambda q: walked.append(q) or real(q))
        res = improve(x, steps=3, seed=2)
        assert len(walked) <= 12
        monkeypatch.undo()
        assert outcome(res) == outcome(reference_improve.improve(fresh(x), steps=3, seed=2))

    def test_equal_forms_each_walk_once(self, monkeypatch):
        """The minimum belongs to the object: equal but distinct forms each
        walk once, and neither walks again."""
        x, twin = (PeriodicForm.make(PQF.from_rows([[2, 1], [1, 3]]), [[Fr(1, 3), Fr(1, 2)]])
                   for _ in range(2))
        walked = record_walks(monkeypatch)
        for form in (x, twin, x, twin):
            generalized_min(form)
        assert x == twin and hash(x) == hash(twin) and repr(x) == repr(twin)
        # One SVP and one CVP for each object, none on the second call.
        assert [id(q) for q in walked] == [id(x.q)] * 2 + [id(twin.q)] * 2
        assert x.minimum is not twin.minimum
        assert (x.minimum.lam, list(x.minimum.reps)) == (twin.minimum.lam, list(twin.minimum.reps))

    def test_rescaled_copy_keeps_min_x(self, monkeypatch):
        """The scaled copy's minimum is the one a walk on it gives."""
        x = PeriodicForm.make(PQF.from_rows([[3, 1], [1, 5]]), [[Fr(1, 2), Fr(1, 3)]])
        y = rescale_to_min_one(x)
        walked = record_walks(monkeypatch)
        kept = generalized_min(y)
        assert walked == []
        walked_min = generalized_min(PeriodicForm(y.q, y.tcols))
        assert kept.lam == walked_min.lam == 1
        assert list(kept.reps) == list(walked_min.reps)


# ---------------------------------------------------------------------------
# The line search against the plain halving loop it prunes.
# ---------------------------------------------------------------------------

SCALES = [Fr(1), Fr(2 ** 60), Fr(1, 2 ** 60), Fr(10 ** 400), Fr(1, 10 ** 400)]
SCALE_IDS = ["1", "2^60", "2^-60", "10^400", "10^-400"]


def halving_step(x, n, lam):
    """The line search without the contact bound: a density at every eps.

    Returns its result and, for each eps it tried, "gain", "no gain" or
    "not PD".
    """
    before = density(x, lam).center_density_squared
    eps = Fr(2) ** (2 * log2_magnitude(lam))
    outcomes = {}
    for _ in range(256):
        try:
            cand = x.add_tangent(n, eps)
        except ValueError:
            outcomes[eps] = "not PD"
            eps /= 2
            continue
        if density(cand).center_density_squared > before:
            outcomes[eps] = "gain"
            return (eps, cand), outcomes
        outcomes[eps] = "no gain"
        eps /= 2
    return None, outcomes


def random_periodic_form(rng, d, m):
    """Q = B^t B + I for a small random B, translates with small denominators."""
    while True:
        b = [[rng.randint(-2, 2) for _ in range(d)] for _ in range(d)]
        rows = [[sum(b[k][i] * b[k][j] for k in range(d)) + (i == j) for j in range(d)]
                for i in range(d)]
        cols = [[Fr(rng.randint(0, 6), rng.randint(1, 7)) for _ in range(d)]
                for _ in range(m - 1)]
        x = PeriodicForm.make(PQF.from_rows(rows), cols)
        if generalized_min(x).lam > 0:
            return x


def line_search_case(case: int):
    """(form, its certificate) for one seeded case: a random form with d and
    m in 1..3, or an Inconclusive catalog form, at one of SCALES."""
    rng = random.Random(f"line search {case}")
    if case < 45:
        x = random_periodic_form(rng, rng.randint(1, 3), rng.randint(1, 3))
    else:
        x = catalog_form(*[("Zd", 2), ("Zd", 3), ("Dplus", 3)][case % 3])
    x = PeriodicForm(x.q.scale(SCALES[case % len(SCALES)]), x.tcols)
    return x, certify(x)


def line_search_problems(case: int) -> list[str]:
    """Where ``improvement_step`` differs from ``halving_step`` along the
    case's directions: the improving one, or each uncertainty direction
    with both signs.  Also every eps it skipped unmeasured must be one the
    halving loop rejected.  Plain control flow, so it runs under -O."""
    x, cert = line_search_case(case)
    if cert.verdict == NOT_EXTREME:
        directions = [cert.improving]
    else:
        directions = [n.scale(sign) for n in cert.uncertainty_basis or () for sign in (1, -1)]
    problems = []
    real = PeriodicForm.add_tangent
    for k, n in enumerate(directions):
        expected, outcomes = halving_step(x, n, cert.lam)
        measured = []
        PeriodicForm.add_tangent = lambda self, n, eps=1: measured.append(eps) or real(self, n, eps)
        try:
            found = improvement_step(x, n, density(x, cert.lam))
        finally:
            PeriodicForm.add_tangent = real
        if repr(found) != repr(expected):
            problems.append(f"direction {k}: {found} != {expected}")
        skipped = [eps for eps in outcomes if eps not in measured]
        if any(outcomes[eps] == "gain" for eps in skipped):
            problems.append(f"direction {k}: skipped a gain")
        if not set(measured) <= set(outcomes):
            problems.append(f"direction {k}: measured eps the halving loop never tried")
    return problems


LINE_SEARCH_CASES = range(60)


@pytest.mark.parametrize("case", LINE_SEARCH_CASES)
def test_line_search_matches_halving(case):
    assert line_search_problems(case) == []


def test_line_search_cases_have_directions():
    """The cases reach both kinds of direction, and forms with m = 1..3."""
    kinds, ms = set(), set()
    for case in LINE_SEARCH_CASES:
        x, cert = line_search_case(case)
        ms.add(x.m)
        kinds.add(cert.verdict if cert.verdict == NOT_EXTREME else
                  "uncertainty" if cert.uncertainty_basis else "none")
    assert {NOT_EXTREME, "uncertainty"} <= kinds and ms == {1, 2, 3}


def test_line_search_without_asserts():
    """The same comparison under python -O."""
    code = (
        "import json, test_improve as t\n"
        "print(json.dumps([t.line_search_problems(c) for c in t.LINE_SEARCH_CASES]))\n"
    )
    out = run_python(code, optimize=True, extra_path=[Path(__file__).resolve().parent],
                     timeout=600)
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout.strip().splitlines()[-1]) == [[]] * len(LINE_SEARCH_CASES)
