import functools
import json
import random
import sys
import tracemalloc
from dataclasses import replace
from fractions import Fraction as Fr
from pathlib import Path
from types import SimpleNamespace

import pytest

import numpy as np

from helpers import classify_rows, det_target, e8_gram, goal_row, gradients, run_python, stack
from periform.certify import (
    BOUNDARY,
    EXTREME_TRANSLATIONAL,
    INCONCLUSIVE,
    INTERIOR,
    ISOLATED_EXTREME,
    NOT_EXTREME,
    OUTSIDE,
    _is_separator,
    _is_witness,
    _uniform_witness,
    GradientRows,
    certify,
    eutaxy_status,
    floating_components,
    improvement_step,
    improving_direction,
    periodic_extreme_by_theorem,
    strong_eutaxy,
    translational_criterion,
    uncertainty_space,
    voronoi_domain,
)
from periform import linalg
from periform.catalog import fluid_diamond, get, sublattice_representation
from periform.linalg import PQF, SymForm, TangentVector, inner, integer_row, metric_weights
from periform.periodic import (
    OverlapError,
    PeriodicForm,
    density,
    generalized_min,
    gradient_p,
)

A2 = PQF.from_rows([[2, 1], [1, 2]])
Z2 = PQF(SymForm.identity(2))
DIAG12 = PQF.from_rows([[1, 0], [0, 2]])
# Hexagonal plane times a scaled line: eutactic with unequal coefficients.
A2_PLUS_LINE = PQF.from_rows([[2, 1, 0], [1, 2, 0], [0, 0, 2]])

LINE_HALF = PeriodicForm.make(PQF.from_rows([[1]]), [[Fr(1, 2)]])
LINE_2_5 = PeriodicForm.make(PQF.from_rows([[1]]), [[Fr(2, 5)]])


def lattice(q):
    return PeriodicForm.lattice(q)


def status_of(x):
    return eutaxy_status(voronoi_domain(x))


def uncertainty_of(x):
    dom = voronoi_domain(x)
    return uncertainty_space(dom, eutaxy_status(dom))


def floating_of(x):
    return floating_components(generalized_min(x).blocks, x.m)


def rows_of(dom):
    """The generators of a domain as rows of weighted coordinates."""
    return {tuple(Fr(v, dom.den) for v in row) for row in dom.rows.full().tolist()}


class TestVoronoiDomain:
    def test_z2(self):
        dom = voronoi_domain(lattice(Z2))
        assert dom.rank == 2
        assert dom.ambient == 3
        assert rows_of(dom) == {
            TangentVector.make(SymForm.outer(v)).flatten(weighted=True) for v in ([1, 0], [0, 1])
        }

    def test_two_point_line(self):
        dom = voronoi_domain(LINE_HALF)
        assert dom.ambient == 2
        assert dom.rank == 2
        assert rows_of(dom) == {(Fr(1, 4), Fr(1)), (Fr(1, 4), Fr(-1))}

    def test_overlap_rejected(self):
        x = PeriodicForm.make(Z2, [[0, 0]])
        with pytest.raises(OverlapError):
            voronoi_domain(x)

    @pytest.mark.parametrize("x, dtype", [
        (LINE_HALF, np.int8),
        (LINE_2_5, np.int8),
        (PeriodicForm.make(PQF.from_rows([[9]]), [[Fr(1, 3)], [Fr(2, 3)]]), np.int16),
        (PeriodicForm.make(PQF.from_rows([[2, 1], [1, 5]]), [[0, Fr(1, 3)]]), np.int8),
        (PeriodicForm.make(A2.scale(Fr(1, 2 ** 1100)), [[Fr(1, 3), Fr(2, 3)]]), object),
        (PeriodicForm.lattice(A2.congruent([[1, 0], [2 ** 70, 1]])), object),
        (sublattice_representation(A2, [[2, 0], [1, 2]]), np.int16),
        (fluid_diamond(Fr(1, 4)), np.int8),
        (PeriodicForm.make(A2.scale(2 ** 20), [[Fr(1, 3), Fr(2, 3)]]), np.int32),
    ], ids=["line-half", "line-2/5", "3Z-three", "q25-third", "A2-2^-1100",
            "A2-sheared", "A2-index4", "fluid-1/4", "A2-2^20"])
    def test_generators_are_the_gradients(self, x, dtype):
        """The integer rows, in ``int_type`` of a bound on their entries or
        exact, are gradient_p at each rep, in order."""
        gm = generalized_min(x)
        dom = voronoi_domain(x)
        matrix = dom.rows.full()
        assert matrix.dtype == dtype
        assert len(dom.rows) == len(gm.reps)
        assert matrix.tolist() == [
            [dom.den * c for c in gradient_p(x, rep).flatten(weighted=True)]
            for rep in gm.reps
        ]

    @pytest.mark.slow
    def test_leech_matrix_memory(self):
        """Leech's 98 280 x 300 matrix, built whole, is filled in chunks of
        rows, column by column: building it holds at most 8 MB beside the
        matrix itself."""
        x = lattice(get("Leech").form)
        blocks = generalized_min(x).blocks
        tracemalloc.start()
        try:
            matrix = GradientRows(x, blocks).full()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert matrix.shape == (98280, 300) and matrix.flags.f_contiguous
        assert peak - matrix.nbytes <= 8 * 2 ** 20

    @pytest.mark.slow
    @pytest.mark.parametrize("index, limit", [(4, 150), (2, 120)])
    def test_leech_sublattice_peak_rss(self, index, limit):
        """``certify`` on Leech over diag(index, 1, ..., 1) builds no whole
        gradient matrix (147 432 x 324 int32 at index 2), so the process
        peaks under ``limit`` MB, each in a fresh interpreter.  The peak is
        the interpreter's VmHWM: its ``ru_maxrss`` would start at the RSS of
        the test process that spawned it, which Linux carries across exec."""
        code = (
            "import periform as P\n"
            f"h = [[{index} if i == j == 0 else int(i == j) for j in range(24)] for i in range(24)]\n"
            "cert = P.certify(P.sublattice_representation(P.get('Leech').form, h))\n"
            "hwm = next(s for s in open('/proc/self/status') if s.startswith('VmHWM:'))\n"
            "print(cert.verdict, hwm.split()[1])\n"
        )
        out = run_python(code, timeout=600)
        assert out.returncode == 0, out.stderr
        verdict, kib = out.stdout.split()
        assert verdict == ISOLATED_EXTREME
        assert int(kib) < limit * 1024

    def test_certify_calls_no_gradient_p(self, monkeypatch):
        """A uniform witness and a proved full rank never build a tangent vector."""
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return gradient_p(*args, **kwargs)

        for name, mod in list(sys.modules.items()):
            if name.startswith("periform") and getattr(mod, "gradient_p", None) is gradient_p:
                monkeypatch.setattr(mod, "gradient_p", counting)
        h = [[2, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [1, 0, 0, 1]]
        for x in (lattice(e8_gram()), sublattice_representation(get("D", 4).form, h)):
            assert certify(x).verdict == ISOLATED_EXTREME
        assert calls == []


def row_source_forms():
    """The A2 and D4 representations of index <= 4, Lambda9, and two forms
    whose rows are Python ints."""
    from periform.intmat import enumerate_sublattice_hnf

    for name, d in (("A", 2), ("D", 4)):
        q = get(name, d).form
        for index in range(1, 5):
            for h in enumerate_sublattice_hnf(d, index):
                yield sublattice_representation(q, h)
    yield fluid_diamond(0)
    yield PeriodicForm.make(A2.scale(Fr(1, 2 ** 1100)), [[Fr(1, 3), Fr(2, 3)]])
    yield PeriodicForm.lattice(A2.congruent([[1, 0], [2 ** 70, 1]]))


class TestGradientRows:
    def test_rows_at_any_index_are_the_full_build(self):
        """For seeded index sets, sorted or not and with repeats, the rows
        built from the blocks equal those rows of the whole matrix, in dtype
        and values, and come C-contiguous."""
        rng = np.random.default_rng(26)
        dtypes = set()
        for x in row_source_forms():
            blocks = generalized_min(x).blocks
            whole = GradientRows(x, blocks).full()
            dtypes.add(whole.dtype)
            for size in {1, len(whole) // 2, len(whole) - 1} - {0}:
                index = rng.integers(0, len(whole), size)
                for idx in (index, np.sort(index)):
                    rows = GradientRows(x, blocks)[idx]
                    assert rows.dtype == whole.dtype and rows.flags.c_contiguous
                    assert rows.tolist() == whole[idx].tolist()
        assert dtypes >= {np.dtype(object), np.dtype(np.int8), np.dtype(np.int16)}

    def test_column_sums_by_chunks(self, monkeypatch):
        """The column sums of every range of blocks from the products W^T W
        and sum(w), taken three rows at a time as Leech's are 4 096 at a
        time, in float64 or in Python ints, equal those of the kept matrix,
        build no row, and give the uniform witness read from the kept matrix;
        the matrix rebuilt three rows at a time is the kept one."""
        cases = []
        for x in row_source_forms():
            domain = voronoi_domain(x)
            cases.append((x, domain, domain.rows.full(), _uniform_witness(domain)))
        monkeypatch.setattr(sys.modules["periform.certify"], "_ROW_CHUNK", 3)
        in_float = set()
        for x, domain, whole, witness in cases:
            source = GradientRows(x, domain.blocks)
            starts = [0, *np.cumsum([len(b.vs) for b in domain.blocks]).tolist()]
            for lo in range(len(starts)):
                for hi in range(lo, len(starts)):
                    sums = whole[starts[lo] : starts[hi]].sum(axis=0, dtype=object).tolist()
                    assert source.sums(lo, hi) == domain.rows.sums(lo, hi) == sums
            in_float |= {len(b.vs) * w * w < 2 ** 53 for b, w in zip(domain.blocks, source._wmax)}
            assert _uniform_witness(replace(domain, rows=source)) == witness
            assert source._matrix is None
            rebuilt = GradientRows(x, domain.blocks).full()
            assert rebuilt.dtype == whole.dtype and rebuilt.flags.f_contiguous
            assert rebuilt.tolist() == whole.tolist()
        assert in_float == {True, False}

    def test_small_domains_build_their_rows_once(self, monkeypatch):
        """A domain of at most one rank head (1 024 rows) builds each of its
        blocks once per ``certify``, whatever verdict it reaches: the rank
        keeps the whole matrix, and the later stages read it."""
        built = []
        real = GradientRows._block_rows

        def counting(rows, k, local, *out):
            built.append((k, len(rows.blocks[k].vs[local])))
            return real(rows, k, local, *out)

        monkeypatch.setattr(GradientRows, "_block_rows", counting)
        verdicts = set()
        for x in [*row_source_forms(), lattice(Z2), get("Dplus", 3).form]:
            blocks = generalized_min(x).blocks
            assert sum(len(b.vs) for b in blocks) <= 1024
            built.clear()
            verdicts.add(certify(x).verdict)
            assert sorted(built) == [(k, len(b.vs)) for k, b in enumerate(blocks)]
        assert verdicts == {ISOLATED_EXTREME, EXTREME_TRANSLATIONAL, INCONCLUSIVE, NOT_EXTREME}

    @pytest.mark.slow
    def test_leech_builds_no_whole_matrix(self, monkeypatch):
        """``certify`` on Leech builds only the 1 024 sampled rows: the 300
        the rank takes from them prove the rank full, the column sums come
        from products of the minimal vectors, and no other row is built."""
        sizes = []
        real = GradientRows._block_rows

        def counting(rows, k, local, *out):
            sizes.append(len(rows.blocks[k].vs[local]))
            return real(rows, k, local, *out)

        monkeypatch.setattr(GradientRows, "_block_rows", counting)
        cert = certify(lattice(get("Leech").form))
        assert cert.verdict == ISOLATED_EXTREME
        assert sizes == [1024]


class TestPerfection:
    def test_a2_perfect(self):
        dom = voronoi_domain(lattice(A2))
        assert dom.is_full_dimensional and dom.rank == dom.ambient == 3

    def test_z2_not_perfect(self):
        dom = voronoi_domain(lattice(Z2))
        assert not dom.is_full_dimensional and (dom.rank, dom.ambient) == (2, 3)

    def test_e8_perfect(self):
        dom = voronoi_domain(lattice(e8_gram()))
        assert dom.is_full_dimensional and dom.rank == dom.ambient == 36

    def test_small_representations_take_no_float_pick(self, monkeypatch):
        """The 226 representations of A2 and D4 over sublattices of index <= 4
        are perfect, and so is E8 over diag(3, 1, ..., 1), a domain of 288
        rows; the exact left-inverse check proves each rank, and the float
        pick never runs."""
        from periform.intmat import enumerate_sublattice_hnf

        picks, real = [], linalg._float_pick
        monkeypatch.setattr(linalg, "_float_pick", lambda *args: picks.append(args) or real(*args))
        count = 0
        for name, d in (("A", 2), ("D", 4)):
            q = get(name, d).form
            for index in range(1, 5):
                for h in enumerate_sublattice_hnf(d, index):
                    dom = voronoi_domain(sublattice_representation(q, h))
                    assert dom.is_full_dimensional and dom.nullspace == ()
                    count += 1
        h = [[3 if i == j == 0 else int(i == j) for j in range(8)] for i in range(8)]
        dom = voronoi_domain(sublattice_representation(get("E8").form, h))
        assert len(dom.rows) == 288 and dom.rank == dom.ambient == 52
        assert (count, picks) == (226, [])


class TestEutaxyStatus:
    def test_z2_interior_with_witness(self):
        x = lattice(Z2)
        dom = voronoi_domain(x)
        st = eutaxy_status(dom)
        assert st.tag == INTERIOR
        combo = None
        for g, a in zip(gradients(x), st.witness):
            assert a > 0
            combo = g.scale(a) if combo is None else combo.add(g.scale(a))
        assert combo.qpart == SymForm.identity(2)

    def test_diag_outside_with_separator(self):
        dom = voronoi_domain(lattice(DIAG12))
        st = eutaxy_status(dom)
        assert st.tag == OUTSIDE
        s = st.separator
        target = TangentVector.make(DIAG12.inverse())
        assert inner(s, target) < 0
        for g in gradients(lattice(DIAG12)):
            assert inner(s, g) >= 0

    def test_unequal_coefficients_interior(self):
        # Forces the LP path: eutactic but not strongly eutactic.
        x = lattice(A2_PLUS_LINE)
        dom = voronoi_domain(x)
        st = eutaxy_status(dom)
        assert st.tag == INTERIOR
        target = TangentVector.make(A2_PLUS_LINE.inverse())
        combo = None
        for g, a in zip(gradients(x), st.witness):
            assert a > 0
            combo = g.scale(a) if combo is None else combo.add(g.scale(a))
        assert combo.sub(target).is_zero()

    def test_boundary_classification_synthetic(self):
        # Target on a proper face of cone{e11, e22}.
        gens = [
            TangentVector.make(SymForm.outer([1, 0])),
            TangentVector.make(SymForm.outer([0, 1])),
        ]
        target = TangentVector.make(SymForm.outer([1, 0]))
        st = classify_rows(*stack(gens), target)
        assert st.tag == BOUNDARY
        assert st.face == (0,)


def sheared(q, s):
    """The same lattice in the basis (b_1 + s b_2, b_2, ...)."""
    u = [[int(i == j) for j in range(q.d)] for i in range(q.d)]
    u[0][1] = s
    return q.congruent(u)


class TestOverflowGuard:
    """Rows held as int64 may have products past 2^63: the cone questions
    must give what they give on the same rows held as Python ints."""

    def cones(self):
        for q in (DIAG12, A2_PLUS_LINE):  # outside, interior
            x = lattice(sheared(q, 2 ** 18))
            dom = voronoi_domain(x)
            yield dom.rows.full(), dom.den, det_target(x)
        big = TangentVector.make(SymForm.outer([2 ** 17, 1]))
        matrix, den = stack([big, TangentVector.make(SymForm.outer([0, 1]))])
        yield matrix, den, big  # boundary

    def test_same_status_as_python_ints(self):
        tags = []
        for matrix, den, target in self.cones():
            assert matrix.dtype == np.int64
            assert int(np.abs(matrix).max()) > 2 ** 32
            st = classify_rows(matrix, den, target)
            assert st == classify_rows(matrix.astype(object), den, target)
            tags.append(st.tag)
        assert tags == [OUTSIDE, INTERIOR, BOUNDARY]


class TestStrongEutaxy:
    def test_zd(self):
        for d in (1, 2, 4):
            flag, alpha = strong_eutaxy(PQF(SymForm.identity(d)))
            assert flag and alpha == Fr(1, 2)

    def test_a2(self):
        flag, alpha = strong_eutaxy(A2)
        assert flag
        # Q^{-1} = alpha * S with S summed over all 6 minimal vectors.
        assert alpha == Fr(1, 6)

    def test_diag_not(self):
        flag, alpha = strong_eutaxy(DIAG12)
        assert not flag and alpha is None


class TestImprovingDirection:
    def test_eutactic_absent(self):
        assert improving_direction(status_of(lattice(Z2))) is None

    def test_line_two_fifths(self):
        n = improving_direction(status_of(LINE_2_5))
        assert n.qpart.entry(0, 0) == Fr(-25, 26)
        assert n.tcols[0][0] == Fr(5, 26)
        # Density strictly increases at eps = 1e-3.
        before = density(LINE_2_5).center_density_squared
        after = density(LINE_2_5.add_tangent(n, Fr(1, 1000))).center_density_squared
        assert after > before

    def test_diag(self):
        n = improving_direction(status_of(lattice(DIAG12)))
        assert n.qpart.entry(1, 1) < 0
        before = density(lattice(DIAG12)).center_density_squared
        x2 = lattice(DIAG12).add_tangent(n, Fr(1, 2))
        assert density(x2).center_density_squared > before


class TestUncertainty:
    def test_isolated_point_has_trivial_uncertainty(self):
        basis, is_sub = uncertainty_of(LINE_HALF)
        assert basis == ()
        assert is_sub

    def test_z2_offdiagonal_direction(self):
        basis, is_sub = uncertainty_of(lattice(Z2))
        assert is_sub
        assert len(basis) == 1
        assert basis[0].qpart.entry(0, 1) != 0

    def test_outside_rejected(self):
        with pytest.raises(ValueError):
            uncertainty_of(lattice(DIAG12))

    def test_boundary_hull_synthetic(self):
        # U for cone{e11, e22} with target e11: all N with <e11, N> = 0 and
        # <e22, N> >= 0; the hull is 2-dimensional and the cone not linear.
        gens = [
            TangentVector.make(SymForm.outer([1, 0])),
            TangentVector.make(SymForm.outer([0, 1])),
        ]
        target = TangentVector.make(SymForm.outer([1, 0]))
        matrix, den = stack(gens)
        dom = SimpleNamespace(rows=matrix, d=2, m=1)  # all a boundary status reads
        basis, is_sub = uncertainty_space(dom, classify_rows(matrix, den, target))
        assert len(basis) == 2
        assert all(inner(n, gens[0]) == 0 for n in basis)
        assert not is_sub


class TestTranslationalCriterion:
    def test_z2_fails(self):
        basis, _ = uncertainty_of(lattice(Z2))
        holds, witness = translational_criterion(basis, generalized_min(lattice(Z2)).blocks)
        assert not holds and witness is None

    def test_vacuous_holds(self):
        holds, witness = translational_criterion((), generalized_min(LINE_HALF).blocks)
        assert holds and witness is not None


@functools.cache
def exact_check_answers() -> dict:
    """What each exact check of ``certify`` answers, as JSON values, on a true
    certificate and on bad ones: weights on the cone of a generator g taken
    twice, for the target g, that are short, hold a 0 or a negative weight
    (each of these still sums to g), or are off by 1/1000; the separator of
    an outside target with its signs flipped, or zero; and
    ``translational_criterion`` on bases over the blocks (1, 2) and (1, 3) of
    three translates, the last of them pinned, with zero Q-parts but one."""
    g = TangentVector.make(SymForm.from_rows([[2, 1], [1, 3]]), [[1, Fr(1, 2)]])
    (matrix, den), (goal, gden) = stack([g, g]), goal_row(g)
    half = Fr(1, 2)
    out = {name: _is_witness(matrix, den, alpha, goal, gden) for name, alpha in (
        ("witness", (half, half)),
        ("short witness", (Fr(1),)),
        ("zero weight", (Fr(1), Fr(0))),
        ("negative weight", (Fr(2), Fr(-1))),
        ("perturbed weight", (half, half + Fr(1, 1000))),
    )}
    dom = voronoi_domain(lattice(DIAG12))
    plain = integer_row(eutaxy_status(dom).separator.flatten())[1]
    for name, s in (("separator", plain), ("flipped separator", [-v for v in plain]),
                    ("zero separator", [0] * len(plain))):
        out[name] = _is_separator(dom.rows.full(), dom.goal, s)
    blocks = [SimpleNamespace(i=1, j=2), SimpleNamespace(i=1, j=3)]
    for name, q, tcols in (("equal columns", 0, [[1, 2], [1, 2]]),
                           ("unequal columns", 0, [[1, 2], [2, 1]]),
                           ("first column zero", 0, [[0, 0], [1, 0]]),
                           ("nonzero Q-part", 1, [[1, 2], [1, 2]])):
        basis = [TangentVector.make(SymForm(2, (Fr(q), Fr(0), Fr(0))), tcols)]
        holds, witness = translational_criterion(basis, blocks)
        out[name] = [holds, witness and list(witness)]
    return out


EXACT_CHECK_ANSWERS = {
    "witness": True,
    "short witness": False,
    "zero weight": False,
    "negative weight": False,
    "perturbed weight": False,
    "separator": True,
    "flipped separator": False,
    "zero separator": False,
    "equal columns": [True, [1, 2]],
    "unequal columns": [False, None],
    "first column zero": [True, [1, 3]],
    "nonzero Q-part": [False, None],
}


class TestExactChecksReject:
    """The exact checks turn bad certificates down by control flow, so they
    do under python -O too."""

    @pytest.mark.parametrize("case", EXACT_CHECK_ANSWERS)
    def test_in_process(self, case):
        assert exact_check_answers()[case] == EXACT_CHECK_ANSWERS[case]

    def test_without_asserts(self):
        code = "import json, test_certify as t\nprint(json.dumps(t.exact_check_answers()))\n"
        out = run_python(code, optimize=True, extra_path=[Path(__file__).resolve().parent])
        assert out.returncode == 0, out.stderr
        assert json.loads(out.stdout.strip().splitlines()[-1]) == EXACT_CHECK_ANSWERS


class TestFloating:
    def test_lattice_single_block(self):
        assert floating_of(lattice(A2)) == ((1,),)

    def test_touching_pair(self):
        assert floating_of(LINE_HALF) == ((1, 2),)

    def test_permutation_invariance(self):
        # Three translates of 3Z at 0, 1/3, 2/3: chain connects everything.
        q = PQF.from_rows([[9]])
        x1 = PeriodicForm.make(q, [[Fr(1, 3)], [Fr(2, 3)]])
        x2 = PeriodicForm.make(q, [[Fr(2, 3)], [Fr(1, 3)]])
        assert floating_of(x1) == floating_of(x2) == ((1, 2, 3),)


class TestCertify:
    def test_line_half_isolated(self):
        cert = certify(LINE_HALF)
        assert cert.verdict == ISOLATED_EXTREME
        assert cert.perfect
        assert cert.eutaxy.tag == INTERIOR
        assert cert.floating == ((1, 2),)

    def test_z2_inconclusive(self):
        cert = certify(lattice(Z2))
        assert cert.verdict == INCONCLUSIVE
        assert cert.eutaxy.tag == INTERIOR
        assert not cert.perfect
        assert len(cert.uncertainty_basis) == 1

    def test_line_two_fifths_not_extreme(self):
        cert = certify(LINE_2_5)
        assert cert.verdict == NOT_EXTREME
        assert cert.improving is not None
        found = improvement_step(LINE_2_5, cert.improving, density(LINE_2_5, cert.lam))
        assert found is not None
        eps, stepped = found
        assert stepped == LINE_2_5.add_tangent(cert.improving, eps)
        before = density(LINE_2_5).center_density_squared
        assert density(stepped).center_density_squared > before

    def test_e8_isolated(self):
        cert = certify(lattice(e8_gram()))
        assert cert.verdict == ISOLATED_EXTREME
        assert cert.floating == ((1,),)
        assert cert.eutaxy.tag == INTERIOR

    def test_a2_isolated(self):
        cert = certify(lattice(A2))
        assert cert.verdict == ISOLATED_EXTREME

    def test_inconclusive_carries_uncertainty(self):
        cert = certify(lattice(A2_PLUS_LINE))
        assert cert.verdict == INCONCLUSIVE
        assert cert.uncertainty_basis
        assert cert.uncertainty_is_subspace

    @pytest.mark.parametrize("x, verdict", [
        (LINE_2_5, NOT_EXTREME),
        (lattice(DIAG12), NOT_EXTREME),
        (lattice(Z2), INCONCLUSIVE),
        (lattice(A2), ISOLATED_EXTREME),
        (fluid_diamond(Fr(1, 4)), EXTREME_TRANSLATIONAL),
    ], ids=["line-2/5", "diag12", "Z2", "A2", "fluid-1/4"])
    def test_one_min_and_no_density(self, monkeypatch, x, verdict):
        """A verdict reads one Min X and searches for no step."""
        calls = {"generalized_min": 0, "density": 0}

        def counting(name, real):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)
            return wrapper

        for name, real in (("generalized_min", generalized_min), ("density", density)):
            for mod in ("periform.periodic", "periform.certify"):
                if getattr(sys.modules[mod], name, None) is real:
                    monkeypatch.setattr(sys.modules[mod], name, counting(name, real))
        assert certify(x).verdict == verdict
        assert calls == {"generalized_min": 1, "density": 0}

    def test_overlap_rejected(self):
        with pytest.raises(OverlapError):
            certify(PeriodicForm.make(Z2, [[0, 0]]))


class TestPeriodicExtremeByTheorem:
    def test_e8(self):
        assert periodic_extreme_by_theorem(e8_gram())

    def test_a2(self):
        assert periodic_extreme_by_theorem(A2)

    def test_z2_not(self):
        assert not periodic_extreme_by_theorem(Z2)

    def test_eutactic_but_not_strongly(self):
        assert not periodic_extreme_by_theorem(A2_PLUS_LINE)


class TestLargeCoordinates:
    """A2 in the basis U = [[1, 2^k], [0, 1]]: Min Q has coordinates near 2^k,
    so x x^t passes int64 at k = 33 and x itself at k = 70."""

    @pytest.mark.parametrize("k", [33, 70])
    def test_a2_sheared(self, k):
        q = A2.congruent([[1, 0], [2 ** k, 1]])
        flag, alpha = strong_eutaxy(q)
        assert flag and alpha == Fr(1, 6)
        assert periodic_extreme_by_theorem(q)
        cert = certify(lattice(q))
        assert cert.verdict == ISOLATED_EXTREME
        assert cert.lam == 2
        assert cert.perfect and cert.rank == cert.ambient == 3


class TestWitnessSoundness:
    @pytest.mark.parametrize(
        "q",
        [Z2, A2, A2_PLUS_LINE, e8_gram()],
        ids=["Z2", "A2", "A2+line", "E8"],
    )
    def test_interior_witness_reconstructs(self, q):
        x = lattice(q)
        gm = generalized_min(x)
        st = status_of(x)
        assert st.tag == INTERIOR
        target = TangentVector.make(q.inverse())
        combo = None
        from periform.periodic import gradient_p

        for rep, a in zip(gm.reps, st.witness):
            assert a > 0
            g = gradient_p(x, rep).scale(a)
            combo = g if combo is None else combo.add(g)
        assert combo.sub(target).is_zero()


@pytest.mark.parametrize("name, d", [("A", 2), ("D", 4)])
def test_uniform_witnesses_reproduce_the_target(name, d):
    """Every representation of A2 and D4 over index <= 4 takes the uniform
    shortcut: m c on the rows of the diagonal class (1, 1), which stands for
    the m pairs (i, i), and c on the others.  Checked exactly here: every
    coefficient is positive and sum_k alpha_k row_k / den is the target."""
    from periform.intmat import enumerate_sublattice_hnf

    q = get(name, d).form
    forms = 0
    for index in range(1, 5):
        for h in enumerate_sublattice_hnf(d, index):
            x = sublattice_representation(q, h)
            domain = voronoi_domain(x)
            alpha = eutaxy_status(domain).witness
            first = domain.blocks[0]
            diag = len(first.vs) if (first.i, first.j) == (1, 1) else 0
            c = alpha[-1]
            assert alpha == (x.m * c,) * diag + (c,) * (len(alpha) - diag)
            assert len(alpha) == len(domain.rows) and all(a > 0 for a in alpha)
            rows = domain.rows.full().tolist()
            goal, gden = goal_row(det_target(x))
            for col, g in enumerate(goal):
                assert sum(a * row[col] for a, row in zip(alpha, rows)) / domain.den == Fr(g, gden)
            forms += 1
    assert forms == {2: 15, 4: 211}[d]


class TestLemmaConsistency:
    @pytest.mark.parametrize("name,params", [("Zd", (2,)), ("Zd", (3,)), ("A", (2,)), ("A", (3,)), ("D", (4,))])
    def test_strongly_eutactic_reps_are_eutactic(self, name, params):
        # Every low-index representation of a strongly eutactic lattice must
        # come out m-eutactic (interior), perfect or not.
        from periform.catalog import get, sublattice_representation
        from periform.intmat import enumerate_sublattice_hnf

        q = get(name, *params).form
        flag, _ = strong_eutaxy(q)
        assert flag
        d = q.d
        for index in (2, 3):
            for h in list(enumerate_sublattice_hnf(d, index))[:6]:
                x = sublattice_representation(q, h)
                assert status_of(x).tag == INTERIOR


class TestVoronoiSpecialization:
    def test_m1_verdict_matches_perfect_and_eutactic(self):
        # Extreme (isolated maximum) exactly when perfect and eutactic.
        cases = [A2, Z2, DIAG12, A2_PLUS_LINE, e8_gram()]
        for q in cases:
            x = lattice(q)
            cert = certify(x)
            perfect = voronoi_domain(x).is_full_dimensional
            eutactic = status_of(x).tag == INTERIOR
            assert (cert.verdict == ISOLATED_EXTREME) == (perfect and eutactic)


class TestDensityBasisInvariance:
    @pytest.mark.parametrize("seed", range(8))
    def test_center_density_under_unimodular_change(self, seed):
        import random

        from reference_linalg import det_bareiss
        from periform.periodic import density

        rng = random.Random(800 + seed)
        d = rng.randint(2, 4)
        b = [[rng.randint(-2, 2) for _ in range(d)] for _ in range(d)]
        rows = [
            [sum(b[k][i] * b[k][j] for k in range(d)) + (1 if i == j else 0)
             for j in range(d)]
            for i in range(d)
        ]
        q = PQF.from_rows(rows)
        u = [[int(i == j) for j in range(d)] for i in range(d)]
        for _ in range(8):
            i, j = rng.sample(range(d), 2)
            c = rng.choice([-1, 1])
            for k in range(d):
                u[i][k] += c * u[j][k]
        assert abs(det_bareiss(u)) == 1
        qu = q.congruent(list(zip(*u)))
        a = density(lattice(q)).center_density_squared
        bb = density(lattice(qu)).center_density_squared
        assert a == bb


def _invariance_draw(rng):
    """A seeded periodic form with d <= 4, m <= 3 and lambda > 0."""
    while True:
        d, m = rng.randint(1, 4), rng.randint(1, 3)
        b = [[rng.randint(-2, 2) for _ in range(d)] for _ in range(d)]
        rows = [[sum(b[k][i] * b[k][j] for k in range(d)) + (i == j) for j in range(d)]
                for i in range(d)]
        cols = [[Fr(rng.randint(0, 5), rng.randint(1, 6)) for _ in range(d)] for _ in range(m - 1)]
        x = PeriodicForm.make(PQF.from_rows(rows), cols)
        if generalized_min(x).lam > 0:
            return x


def _unimodular_pair(rng, d, steps=10):
    """(U, U^-1) as rows, from random elementary row operations: E U and
    U^-1 E^-1, with row_i += c row_j as E."""
    u = [[int(i == j) for j in range(d)] for i in range(d)]
    uinv = [row[:] for row in u]
    for _ in range(steps if d > 1 else 0):
        i, j = rng.sample(range(d), 2)
        c = rng.choice([-2, -1, 1, 2])
        u[i] = [a + c * b for a, b in zip(u[i], u[j])]
        for row in uinv:
            row[j] -= c * row[i]
    if d and rng.random() < 0.5:  # a reflection: det U = -1
        u[0] = [-v for v in u[0]]
        for row in uinv:
            row[0] = -row[0]
    return u, uinv


INVARIANCE_FORMS = [_invariance_draw(random.Random(f"invariance {s}")) for s in range(30)] + [
    PeriodicForm.lattice(A2), PeriodicForm.lattice(Z2), get("Dplus", 3).form,
    PeriodicForm.lattice(get("D", 4).form)]


class TestCertificateInvariance:
    """A change of basis U (translates mapped by U^-1) describes the same
    periodic set, so the certificate's verdict, lambda, rank and |Min X|
    must not change, at any scale of Q."""

    @pytest.mark.parametrize("scale", [0, 300, -300], ids=lambda e: f"2^{e}")
    @pytest.mark.parametrize("k", range(len(INVARIANCE_FORMS)))
    def test_unimodular_change(self, k, scale):
        rng = random.Random(f"change {k}")
        base = INVARIANCE_FORMS[k]
        x = PeriodicForm(base.q.scale(Fr(2) ** scale), base.tcols)
        u, uinv = _unimodular_pair(rng, x.d)
        assert all(sum(a * b for a, b in zip(r, c)) == int(i == j)
                   for i, r in enumerate(u) for j, c in enumerate(zip(*uinv)))
        y = PeriodicForm.make(
            x.q.congruent(list(zip(*u))),
            [[sum(a * t for a, t in zip(row, col)) for row in uinv] for col in x.tcols])
        cx, cy = certify(x), certify(y)
        assert (cy.verdict, cy.lam, cy.rank) == (cx.verdict, cx.lam, cx.rank)
        assert len(generalized_min(y).reps) == len(generalized_min(x).reps)

    def test_every_verdict_kind_is_drawn(self):
        verdicts = {certify(x).verdict for x in INVARIANCE_FORMS}
        assert {ISOLATED_EXTREME, NOT_EXTREME, INCONCLUSIVE} <= verdicts
