import hashlib
import random
from fractions import Fraction as Fr
from itertools import product

import pytest

import reference_linalg
from helpers import e8_gram
from periform.catalog import (
    CATALOG_NAMES,
    fluid_diamond,
    get,
    golay_generator_matrix,
    sublattice_representation,
)
from periform.certify import NOT_EXTREME, certify, strong_eutaxy
from periform.formats import dumps
from periform.intmat import enumerate_sublattice_hnf, row_hnf, transpose
from periform.linalg import PQF, solve_exact
from periform.lattices import shortest_vectors
from periform.periodic import PeriodicForm, density, generalized_min


def check_expected(entry):
    form = entry.form
    if isinstance(form, PeriodicForm):
        x = form
    else:
        x = PeriodicForm.lattice(form)
    gm = generalized_min(x)
    assert x.q.det() == entry.expected["det"]
    if "lam" in entry.expected:
        assert gm.lam == entry.expected["lam"]
    if "min_pairs" in entry.expected:
        if x.m == 1:
            assert len(gm.reps) == entry.expected["min_pairs"]
        else:
            assert len(shortest_vectors(x.q).vectors) == entry.expected["min_pairs"]


# SHA-256 of each entry's name, form type, dumps(form), expected, basis and
# params: a change to how the catalog builds a form must keep every byte.
ENTRY_DIGESTS = {
    "Zd 1": "b5dd99b490e9bb0e5c01ee9fdbe4afc47dba5cbf46acf8325c7db92859088a3f",
    "Zd 4": "27b098805658ed719d43e935b1656a9cd80d6f2c59dec57c3a66caf97bc5cb7b",
    "A 1": "5a6b7a6ea185e85e447a6d6c56271731bf0905215a00a29f0f990468cca148ff",
    "A 5": "720525c6292fb096c6fd60a8579499f3e0f8c15dca8872d4ab5c90df4a8cdc58",
    "D 3": "f9f15d76b1f7c19dd827f6f9364899facfa4192938b2d265ae99f324e777dc40",
    "D 9": "510326d7e308ea45c8d1843cc27f952b5008b8dac188322e6a2c4f25f246bdd5",
    "Dplus 3": "9891e66e7f696d2c434bb370c7d3390c9a5a855e6fe7b476aacb55e8059a55d8",
    "Dplus 9": "07ac8c9877fd5240d5b3022757171445d19440bee1c12c565465e59809a3ad08",
    "Dplus 8 lattice": "a5b3faa251d4950bec6dccc888b9ecfbd93441b5af1526fc5d5475e66db4ea74",
    "Dplus 12 lattice": "0534f0965ddec8b66d53968980ad201a87f943022d23becaffb946c8bcc23e5f",
    "E6": "2b687cbd9c80c29bdd5649416c90706ff3fd2effb378d851414a3acc5c0dee96",
    "E7": "dc521a495bfc5b64635300df4a8e2583af3d39d8f32aa411f82d35ccfc838bfc",
    "E8": "18b6d6944bb97c57c54531d3cb09eb02761a8ed97c26ddb4f327c38df2cf8674",
    "K12": "001478a3b7bf0492e18ea8e3a651e13e6095051c9e2aaaa4056902eaec5eab20",
    "Leech": "b54886ca1eb13a5a70a092807738625581cfd27e4017e88a10bca5c63cca187b",
    "Lambda9": "119bd27390c63d4bbd86d55bbe20bb7e57d537617407db389e66872ccd7822ba",
}


def entry_digest(entry):
    form = entry.form
    x = form if isinstance(form, PeriodicForm) else PeriodicForm.lattice(form)
    text = "\n".join([entry.name, type(form).__name__, dumps(x),
                      repr(sorted(entry.expected.items())), repr(entry.basis),
                      repr(entry.params)])
    return hashlib.sha256(text.encode()).hexdigest()


def test_entry_digests_cover_the_catalog():
    assert {key.split()[0] for key in ENTRY_DIGESTS} == set(CATALOG_NAMES)


@pytest.mark.parametrize("key", ENTRY_DIGESTS)
def test_entry_is_byte_identical(key):
    name, *params = key.split()
    params = [int(p) if p.isdigit() else p for p in params]
    assert entry_digest(get(name, *params)) == ENTRY_DIGESTS[key]


class TestGolay:
    def test_weight_distribution(self):
        gen = golay_generator_matrix()
        counts = {}
        for bits in range(4096):
            word = [0] * 24
            for i in range(12):
                if (bits >> i) & 1:
                    for j in range(24):
                        word[j] ^= gen[i][j]
            wt = sum(word)
            counts[wt] = counts.get(wt, 0) + 1
        assert counts == {0: 1, 8: 759, 12: 2576, 16: 759, 24: 1}


class TestRootLattices:
    def test_a2_gram(self):
        entry = get("A", 2)
        assert entry.form.form.rows() == ((2, 1), (1, 2))
        check_expected(entry)

    @pytest.mark.parametrize("d", [1, 2, 3, 5])
    def test_a_family(self, d):
        check_expected(get("A", d))

    @pytest.mark.parametrize("d", [3, 4, 5, 9])
    def test_d_family(self, d):
        check_expected(get("D", d))

    def test_d_basis_is_the_fixed_one(self):
        entry = get("D", 9)
        assert entry.basis[0] == tuple(
            Fr(v) for v in [1, 1, 0, 0, 0, 0, 0, 0, 0]
        )
        assert entry.basis[1] == tuple(
            Fr(v) for v in [-1, 1, 0, 0, 0, 0, 0, 0, 0]
        )

    def test_e6_e7(self):
        check_expected(get("E6"))
        check_expected(get("E7"))

    def test_e8(self):
        entry = get("E8")
        check_expected(entry)
        # Same lattice as the independent test-helper construction.
        assert entry.form.det() == e8_gram().det() == 1
        rep = density(PeriodicForm.lattice(entry.form))
        assert abs(rep.delta_over_ball - 0.0625) < 1e-12

    def test_zd(self):
        check_expected(get("Zd", 4))

    def test_k12(self):
        entry = get("K12")
        check_expected(entry)
        flag, _alpha = strong_eutaxy(entry.form)
        assert flag
        rep = density(PeriodicForm.lattice(entry.form))
        assert abs(rep.delta_over_ball - 1 / 27) < 1e-12

    def test_dplus_lattice_is_e8_at_8(self):
        entry = get("Dplus", 8, "lattice")
        assert entry.form.det() == 1
        assert shortest_vectors(entry.form).min == 2

    @pytest.mark.parametrize("d", [10, 12])
    def test_dplus_lattice_shares_root_minimum(self, d):
        entry = get("Dplus", d, "lattice")
        check_expected(entry)
        # Same minimal vectors as D_d: same minimum, same count.
        root = shortest_vectors(get("D", d).form)
        plus = shortest_vectors(entry.form)
        assert plus.min == root.min == 2
        assert len(plus.vectors) == len(root.vectors) == d * (d - 1)

    @pytest.mark.parametrize("d", [3, 4, 5, 9])
    def test_d_family_strongly_eutactic(self, d):
        flag, alpha = strong_eutaxy(get("D", d).form)
        assert flag and alpha > 0

    def test_dplus_lattice_guards(self):
        with pytest.raises(ValueError):
            get("Dplus", 9, "lattice")
        with pytest.raises(ValueError):
            get("Dplus", 6, "lattice")

    def test_dplus_periodic_form(self):
        entry = get("Dplus", 10)
        assert isinstance(entry.form, PeriodicForm)
        assert entry.form.m == 2

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            get("Foo")

    @pytest.mark.parametrize("name, params, message", [
        ("E6", (1,), "E6 takes no parameters"),
        ("A", (), "A takes exactly one parameter"),
        ("A", (2, 3), "A takes exactly one parameter"),
        ("Dplus", (3, "x"), "Dplus takes exactly one parameter"),
    ])
    def test_parameter_count(self, name, params, message):
        with pytest.raises(ValueError, match=message):
            get(name, *params)

    def test_names_listing(self):
        assert "Leech" in CATALOG_NAMES


class TestFluidDiamond:
    def test_lambda9_density(self):
        entry = get("Lambda9")
        rep = density(entry.form)
        assert abs(rep.delta_over_ball - 0.04419417382415922) < 1e-12

    def test_quarter_min_is_lattice_min(self):
        x = fluid_diamond(Fr(1, 4))
        gm = generalized_min(x)
        assert gm.lam == 2
        assert all(r.i == r.j for r in gm.reps)
        assert len(gm.reps) == 72  # Min D_9 classes, once for both translates

    def test_integral_alpha_has_extra_vectors(self):
        for alpha in (0, 1):
            x = fluid_diamond(alpha)
            gm = generalized_min(x)
            assert gm.lam == 2
            cross = [r for r in gm.reps if r.i != r.j]
            assert len(cross) == 128  # resolved by enumeration, not by count
            assert len(gm.reps) == 72 + 128

    @pytest.mark.parametrize("seed", range(20))
    def test_min_two_for_random_alpha(self, seed):
        rng = random.Random(seed)
        alpha = Fr(rng.randint(0, 30), rng.randint(1, 31))
        alpha -= alpha.__floor__()
        x = fluid_diamond(alpha)
        assert generalized_min(x).lam == 2


class TestSublatticeRepresentation:
    def test_doubled_line(self):
        x = sublattice_representation(PQF.from_rows([[1]]), [[2]])
        assert x.q.form.rows() == ((4,),)
        assert x.tcols == ((Fr(1, 2),),)

    def test_singular_rejected(self):
        with pytest.raises(ValueError):
            sublattice_representation(PQF.from_rows([[1, 0], [0, 1]]), [[1, 1], [1, 1]])

    @pytest.mark.parametrize("h", [[[1, 0]], [[1, 0], [0]], [[1, 0, 0], [0, 1, 0]]])
    def test_non_square_rejected(self, h):
        with pytest.raises(ValueError, match="H must be a d x d integer matrix"):
            sublattice_representation(PQF.from_rows([[1, 0], [0, 1]]), h)

    @pytest.mark.parametrize("h", [[[0, 0], [0, 1]], [[0, 1], [0, 2]], [[2, 4], [1, 2]]])
    def test_singular_shapes_rejected(self, h):
        with pytest.raises(ValueError, match="H is singular"):
            sublattice_representation(PQF.from_rows([[1, 0], [0, 1]]), h)

    @pytest.mark.parametrize("name, d", [("A", 2), ("D", 4)])
    def test_cosets_match_reference(self, name, d):
        """Every HNF of index <= 4, also with two columns swapped (det < 0):
        the translates are the cosets solved one by one with the Fraction
        echelon (as ``PeriodicForm.make`` reduces them), and the form is
        H^t Q H."""
        q = get(name, d).form
        rows = q.form.rows()
        for index in range(1, 5):
            for hnf in enumerate_sublattice_hnf(d, index):
                for h in (hnf, [[r[1], r[0], *r[2:]] for r in hnf]):
                    assert reference_linalg.det_bareiss(h) == (index if h is hnf else -index)
                    x = sublattice_representation(q, h)
                    hmat = [[Fr(v) for v in row] for row in h]
                    w = row_hnf(transpose(h))
                    diag = [w[i][i] for i in range(d)]
                    ref = [reference_linalg.solve_exact(hmat, [Fr(v) for v in rep])
                           for rep in product(*(range(k) for k in diag)) if any(rep)]
                    assert x.tcols == PeriodicForm.make(x.q, ref).tcols
                    assert x.q.form.rows() == tuple(
                        tuple(sum(h[k][i] * rows[k][l] * h[l][j] for k in range(d) for l in range(d))
                              for j in range(d))
                        for i in range(d))

    @pytest.mark.parametrize("seed", range(30))
    def test_preserves_min_and_density(self, seed):
        rng = random.Random(seed)
        d = rng.randint(1, 4)
        index = rng.randint(1, 4)
        b = [[rng.randint(-2, 2) for _ in range(d)] for _ in range(d)]
        rows = [
            [sum(b[k][i] * b[k][j] for k in range(d)) + (1 if i == j else 0)
             for j in range(d)]
            for i in range(d)
        ]
        q = PQF.from_rows(rows)
        hs = list(enumerate_sublattice_hnf(d, index))
        h = hs[rng.randrange(len(hs))]
        x = sublattice_representation(q, h)
        assert x.m == index
        base = PeriodicForm.lattice(q)
        assert generalized_min(x).lam == generalized_min(base).lam
        assert (
            density(x).center_density_squared
            == density(base).center_density_squared
        )

    def test_e8_over_d8(self):
        # H maps the fixed D_8 basis into E8 coordinates; index 2.
        e8 = get("E8")
        d8 = get("D", 8)
        hcols = []
        n = 8
        e8_rows = e8.basis
        mat = [[Fr(e8_rows[j][i]) for j in range(n)] for i in range(n)]
        for brow in d8.basis:
            sol = solve_exact(mat, [Fr(v) for v in brow])
            assert sol is not None and all(c.denominator == 1 for c in sol)
            hcols.append([int(c) for c in sol])
        h = [[hcols[j][i] for j in range(n)] for i in range(n)]
        x = sublattice_representation(e8.form, h)
        assert x.m == 2
        assert generalized_min(x).lam == 2
        assert (
            density(x).center_density_squared
            == density(PeriodicForm.lattice(e8.form)).center_density_squared
        )
        cert = certify(x)
        assert cert.verdict != NOT_EXTREME


class TestLeech:
    def test_leech_invariants(self):
        entry = get("Leech")
        assert entry.form.det() == 1
        res = shortest_vectors(entry.form)
        assert res.min == 4
        assert len(res.vectors) == 98280
        rep = density(PeriodicForm.lattice(entry.form))
        assert abs(rep.delta_over_ball - 1.0) < 1e-12
