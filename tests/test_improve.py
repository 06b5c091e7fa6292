import sys
from fractions import Fraction as Fr

import pytest

import reference_improve
from helpers import e8_gram
from periform.catalog import get
from periform.certify import NOT_EXTREME, improvement_step
from periform.improve import improve
from periform.linalg import PQF, SymForm
from periform.periodic import OverlapError, PeriodicForm, density, generalized_min

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


class TestStepWork:
    def test_one_step_call_counts(self, monkeypatch):
        """No lambda pre-check, one search along N and none in certify, and
        one density of the accepted form."""
        counts = {"generalized_min": 0, "density": 0}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name, fn in (("generalized_min", generalized_min), ("density", density)):
            wrapped = counting(name, fn)
            for mod in ("periform.periodic", "periform.improve", "periform.certify"):
                if hasattr(sys.modules[mod], name):
                    monkeypatch.setattr(sys.modules[mod], name, wrapped)
        res = improve(DIAG, steps=1)
        assert len(res.steps) == 1 and res.steps[0].action == "improve"
        assert counts == {"generalized_min": 6, "density": 4}

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
            assert s.epsilon == improvement_step(x, cert.improving, cert.lam)[0]

    @pytest.mark.parametrize("steps", [1, 3])
    def test_one_search_per_not_extreme_step(self, monkeypatch, steps):
        """One step search per NotExtreme step, and none from the final form."""
        searched = []

        def recording(x, n, lam):
            searched.append(x)
            return improvement_step(x, n, lam)

        for mod in ("periform.improve", "periform.certify"):
            monkeypatch.setattr(sys.modules[mod], "improvement_step", recording)
        res = improve(DIAG, steps=steps)
        assert [s.action for s in res.steps] == ["improve"] * steps
        assert res.certificate.verdict == NOT_EXTREME
        assert len(searched) == steps
        assert res.final not in searched

    def test_not_extreme_without_a_step_stalls(self, monkeypatch):
        monkeypatch.setattr(sys.modules["periform.improve"], "improvement_step",
                            lambda x, n, lam: None)
        res = improve(DIAG, steps=5)
        assert res.stalled and res.steps == ()
        assert res.certificate.verdict == NOT_EXTREME
