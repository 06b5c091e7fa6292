import random
from fractions import Fraction as Fr

import pytest

from helpers import sized_document
from periform.formats import (
    MAX_DIGITS,
    MAX_DIMENSION,
    MAX_INDEX,
    PFormError,
    dumps,
    format_rational,
    from_document,
    loads,
    parse_rational,
    to_document,
)
from periform.linalg import PQF, SymForm
from periform.periodic import PeriodicForm


class TestRationals:
    def test_integer_omits_denominator(self):
        assert format_rational(Fr(5)) == "5"
        assert format_rational(Fr(-3)) == "-3"

    def test_fraction(self):
        assert format_rational(Fr(-7, 3)) == "-7/3"

    @pytest.mark.parametrize("s", ["1/2", "-9/4", "0", "17"])
    def test_roundtrip(self, s):
        assert format_rational(parse_rational(s)) == s

    def test_bad_inputs(self):
        for bad in ["1/0", "a/b", None, 1.5, ""]:
            with pytest.raises(PFormError):
                parse_rational(bad)

    @pytest.mark.parametrize("bad", [
        "1e3", "0.25", "1_000", True, False, "1e200000", " 1", "1 ", "+1", "1/-2",
        "1/", "/2", "--1", "\u0661", "1/2/3", "9" * (MAX_DIGITS + 1),
        "1/" + "9" * (MAX_DIGITS + 1), 10 ** MAX_DIGITS, -(10 ** MAX_DIGITS),
    ])
    def test_outside_grammar(self, bad):
        with pytest.raises(PFormError):
            parse_rational(bad)

    def test_grammar_edges(self):
        assert parse_rational("-0") == 0
        assert parse_rational("007/014") == Fr(1, 2)
        assert parse_rational(-12) == -12
        big = "9" * MAX_DIGITS
        assert parse_rational(big + "/" + big) == 1
        assert parse_rational(10 ** MAX_DIGITS - 1) == 10 ** MAX_DIGITS - 1

    @pytest.mark.parametrize("bad", ["2", 2.0, True, None])
    def test_counts_are_json_integers(self, bad):
        with pytest.raises(PFormError):
            from_document({"format": "pform/1", "d": bad, "m": 1, "Q": [["1", "0"], ["0", "1"]]})


class TestDocuments:
    def test_lattice_document(self):
        x = PeriodicForm.lattice(PQF.from_rows([[2, 1], [1, 2]]))
        doc = to_document(x)
        assert doc["format"] == "pform/1"
        assert doc["d"] == 2 and doc["m"] == 1
        assert doc["Q"] == [["2", "1"], ["1", "2"]]
        assert doc["t"] == []

    @pytest.mark.parametrize("seed", range(20))
    def test_exact_roundtrip(self, seed):
        rng = random.Random(seed)
        d = rng.randint(1, 4)
        m = rng.randint(1, 3)
        b = [[Fr(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(d)]
             for _ in range(d)]
        rows = [
            [sum(b[k][i] * b[k][j] for k in range(d)) + (1 if i == j else 0)
             for j in range(d)]
            for i in range(d)
        ]
        cols = [
            [Fr(rng.randint(0, 12), rng.randint(1, 12)) for _ in range(d)]
            for _ in range(m - 1)
        ]
        x = PeriodicForm.make(PQF.from_rows(rows), cols)
        assert loads(dumps(x)) == x

    def test_meta_carried(self):
        x = PeriodicForm.lattice(PQF(SymForm.identity(1)))
        doc = to_document(x, meta={"name": "Z1"})
        assert doc["meta"]["name"] == "Z1"

    def test_rejects_wrong_tag(self):
        with pytest.raises(PFormError):
            from_document({"format": "pform/2", "d": 1, "m": 1, "Q": [["1"]], "t": []})

    def test_rejects_asymmetric(self):
        doc = {
            "format": "pform/1", "d": 2, "m": 1,
            "Q": [["1", "0"], ["1", "1"]], "t": [],
        }
        with pytest.raises(PFormError):
            from_document(doc)

    def test_rejects_non_pd(self):
        doc = {
            "format": "pform/1", "d": 2, "m": 1,
            "Q": [["1", "2"], ["2", "1"]], "t": [],
        }
        with pytest.raises(PFormError):
            from_document(doc)

    def test_rejects_bad_t_shape(self):
        doc = {
            "format": "pform/1", "d": 2, "m": 2,
            "Q": [["1", "0"], ["0", "1"]], "t": [["1/2"]],
        }
        with pytest.raises(PFormError):
            from_document(doc)

    @pytest.mark.parametrize("d, m, q, t", [
        (2, 1, [["2", "1"], "12"], []),
        (1, 1, ["1"], []),
        (2, 2, [["1", "0"], ["0", "1"]], ["01"]),
        (1, 1, 5, []),
        (1, 2, [["1"]], None),
        (1, 2, [["1"]], [5]),
    ], ids=["Q-string-row", "Q-string-row-1x1", "t-string-row", "Q-number", "t-null",
            "t-number-row"])
    def test_rejects_non_array_rows(self, d, m, q, t):
        doc = {"format": "pform/1", "d": d, "m": m, "Q": q, "t": t}
        with pytest.raises(PFormError):
            from_document(doc)

    @pytest.mark.parametrize("d, m", [(MAX_DIMENSION + 1, 1), (1, MAX_INDEX + 1)],
                             ids=["d-above", "m-above"])
    def test_rejects_above_size_limits(self, d, m):
        with pytest.raises(PFormError, match="must lie in 1.."):
            from_document(sized_document(d, m))

    @pytest.mark.parametrize("d, m", [(MAX_DIMENSION, 1), (1, MAX_INDEX)],
                             ids=["d-at", "m-at"])
    def test_accepts_size_limits(self, d, m):
        x = from_document(sized_document(d, m))
        assert (x.d, x.m) == (d, m)

    def test_size_checked_before_rows(self):
        doc = {"format": "pform/1", "d": MAX_DIMENSION + 1, "m": 1, "Q": [["x"]]}
        with pytest.raises(PFormError, match="must lie in 1.."):
            from_document(doc)

    def test_rejects_bad_json(self):
        with pytest.raises(PFormError):
            loads("{not json")

    def test_translations_reduced_mod_one(self):
        doc = {
            "format": "pform/1", "d": 1, "m": 2,
            "Q": [["1"]], "t": [["7/2"]],
        }
        x = from_document(doc)
        assert x.tcols == ((Fr(1, 2),),)
