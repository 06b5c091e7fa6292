"""Named lattices and periodic sets, plus sublattice re-representation.

One congruence builds every Gram: ``_gram`` takes generator rows in ambient
coordinates and a metric (the identity, I/8 for Leech, the Eisenstein norm
for K12) and returns ``linalg.congruence`` of the metric's integer rows on
the rows, the congruence that ``sublattice_representation`` takes of Q.
Generator bases are explicit wherever a fixed basis matters downstream (D_d
feeds the fluid diamond translations, the E8 basis feeds index-2 sublattice
tests);
correctness is pinned by the expected invariants (determinant, minimum,
kissing pairs) that the test suite recomputes exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from operator import mul
from typing import Sequence

from .formats import MAX_DIMENSION, MAX_INDEX, parse_integer
from .intmat import row_hnf, transpose
from .linalg import PQF, RatLike, SymForm, congruence, echelon, integer_row, solve_exact
from .periodic import PeriodicForm

__all__ = [
    "CatalogEntry",
    "CATALOG_NAMES",
    "get",
    "fluid_diamond",
    "sublattice_representation",
    "golay_generator_matrix",
]


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    params: tuple
    form: PQF | PeriodicForm
    expected: dict = field(default_factory=dict)
    basis: tuple | None = None  # generator rows in ambient coordinates


def _gram(rows: Sequence[Sequence[RatLike]], metric: SymForm | None = None) -> PQF:
    """R M R^t for generator rows R under the metric M (the identity by
    default): one congruence on R with its denominators cleared, on the
    integer rows of M, which is never factored."""
    width = len(rows[0])
    den, flat = integer_row([v for row in rows for v in row])
    mden, mgram = (metric or SymForm.identity(width)).integer_rows()
    return congruence(mden * den * den, mgram,
                      [flat[k:k + width] for k in range(0, len(flat), width)])


def _basis(rows: Sequence[Sequence[RatLike]]) -> tuple:
    return tuple(tuple(map(Fraction, r)) for r in rows)


def _spanned(rows: Sequence[Sequence[RatLike]], expected: dict) -> tuple:
    """(form, expected, basis) of the lattice the rows span."""
    return _gram(rows), expected, _basis(rows)


# ---------------------------------------------------------------------------
# Root lattices.
# ---------------------------------------------------------------------------


def _a_gram(d: int) -> PQF:
    # 2 on the diagonal, 1 everywhere else: basis vectors at mutual 60 degrees.
    return PQF.from_rows(
        [[2 if i == j else 1 for j in range(d)] for i in range(d)]
    )


def _d_basis_rows(d: int) -> list[list[int]]:
    # Fixed basis: e1+e2, e2-e1, e3-e2, ..., ed-e(d-1).
    rows = [[0] * d for _ in range(d)]
    rows[0][0] = rows[0][1] = 1
    for i in range(1, d):
        rows[i][i] = 1
        rows[i][i - 1] = -1
    return rows


def _dplus_basis_rows(d: int) -> list[list[RatLike]]:
    # Basis of D_d union (D_d + h) with h = (1/2, ..., 1/2), d even.
    return _d_basis_rows(d)[:-1] + [[Fraction(1, 2)] * d]


def _d_plus_glue(d: int, glue: Sequence[RatLike]) -> PeriodicForm:
    """The 2-periodic set D_d union (D_d + glue) over the fixed D_d basis."""
    rows = _d_basis_rows(d)
    coords = solve_exact([[Fraction(r[i]) for r in rows] for i in range(d)],
                         [Fraction(v) for v in glue])
    return PeriodicForm.make(_gram(rows), [coords])


def _tstar_gram(arms: tuple[int, int, int]) -> PQF:
    """Cartan-style Gram of the tree with three chains sharing one center.

    Chain lengths count the center; (2,3,3), (2,3,4), (2,3,5) give E6, E7, E8.
    """
    n = sum(arms) - 2
    adj = [[0] * n for _ in range(n)]
    center = 0
    idx = 1
    for arm in arms:
        prev = center
        for _ in range(arm - 1):
            adj[prev][idx] = adj[idx][prev] = 1
            prev = idx
            idx += 1
    return PQF.from_rows(
        [[2 if i == j else adj[i][j] for j in range(n)] for i in range(n)]
    )


# ---------------------------------------------------------------------------
# Golay code and the Leech lattice.
# ---------------------------------------------------------------------------


def golay_generator_matrix() -> list[list[int]]:
    """[I | B] generator of the extended binary Golay code [24, 12, 8].

    B is the bordered quadratic-residue (Paley) block mod 11 in the
    convention with doubly-even weights; the test suite re-verifies the
    weight distribution (759 octads) by enumerating all 4096 codewords.
    """
    residues = {(k * k) % 11 for k in range(1, 11)}
    b = [[0] * 12 for _ in range(12)]
    for i in range(11):
        for j in range(11):
            b[i][j] = 0 if (j - i) % 11 in residues else 1
        b[i][11] = 1
    for j in range(11):
        b[11][j] = 1
    return [[int(i == j) for j in range(12)] + b[i] for i in range(12)]


def _leech_gram() -> PQF:
    # Z-generators in the scaling where Gram = M M^t / 8: doubled Golay
    # words, the 4,4-vectors, 8 e_1 and the odd-coset vector (-3, 1, ..., 1).
    gens: list[list[int]] = []
    for row in golay_generator_matrix():
        gens.append([2 * v for v in row])
    for k in range(1, 24):
        g = [0] * 24
        g[0] = 4
        g[k] = 4
        gens.append(g)
    g = [0] * 24
    g[0] = 8
    gens.append(g)
    gens.append([-3] + [1] * 23)
    return _gram(row_hnf(gens), SymForm.identity(24).scale(Fraction(1, 8)))


# ---------------------------------------------------------------------------
# The Coxeter-Todd lattice K12 from the hexacode over F4.
# ---------------------------------------------------------------------------

_F4_ZERO, _F4_ONE, _F4_W, _F4_W2 = (0, 0), (1, 0), (0, 1), (1, 1)


def _f4_mul(x, y):
    a, b = x
    c, d = y
    return ((a * c + b * d) % 2, (a * d + b * c + b * d) % 2)


def _f4_add(x, y):
    return ((x[0] + y[0]) % 2, (x[1] + y[1]) % 2)


def _hexacode_generators() -> list[list[tuple[int, int]]]:
    # Codewords (a, b, c, f(1), f(w), f(w^2)) with f(x) = a x^2 + b x + c.
    out = []
    for a, b, c in (
        (_F4_ONE, _F4_ZERO, _F4_ZERO),
        (_F4_ZERO, _F4_ONE, _F4_ZERO),
        (_F4_ZERO, _F4_ZERO, _F4_ONE),
    ):
        def f(x):
            return _f4_add(_f4_add(_f4_mul(a, _f4_mul(x, x)), _f4_mul(b, x)), c)

        out.append([a, b, c, f(_F4_ONE), f(_F4_W), f(_F4_W2)])
    return out


def _k12_gram() -> PQF:
    # Eisenstein vectors x in J^6 with x mod 2J in the hexacode; each
    # coordinate a + b*omega embeds as the integer pair (a, b).
    def omega_times(ab):
        a, b = ab
        return (-b, a - b)

    zgens: list[list[int]] = []
    for k in range(6):
        for unit in ((2, 0), (0, 2)):
            row = [(0, 0)] * 6
            row[k] = unit
            zgens.append([c for ab in row for c in ab])
    for word in _hexacode_generators():
        lift = [(s[0], s[1]) for s in word]
        zgens.append([c for ab in lift for c in ab])
        zgens.append([c for ab in map(omega_times, lift) for c in ab])
    # |a + b omega|^2 = a^2 - ab + b^2 on each coordinate pair.
    norm = SymForm.from_rows([[1 if i == j else Fraction(-1, 2) if i // 2 == j // 2 else 0
                               for j in range(12)] for i in range(12)])
    return _gram(row_hnf(zgens), norm)


# ---------------------------------------------------------------------------
# Fluid diamonds and sublattice representations.
# ---------------------------------------------------------------------------


def fluid_diamond(alpha: RatLike) -> PeriodicForm:
    """The 2-periodic set D_9 union (D_9 + (1/2, ..., 1/2, alpha)).

    Integral alpha yields a representation of the densest known packing
    lattice in dimension 9; the generalized minimum is 2 for every alpha.
    """
    return _d_plus_glue(9, [Fraction(1, 2)] * 8 + [Fraction(alpha)])


def sublattice_representation(q: PQF, h: Sequence[Sequence[int]]) -> PeriodicForm:
    """Represent the lattice of Q over the sublattice with basis columns H.

    Returns X = (H^t Q H, t) whose translation columns are the nonzero coset
    representatives of Z^d / H Z^d in H-coordinates; X describes the same
    point set, so its minimum and center density match Q's exactly.
    """
    d = q.d
    h = [list(map(int, row)) for row in h]
    if len(h) != d or any(len(r) != d for r in h):
        raise ValueError("H must be a d x d integer matrix")
    # [H | I] reduces to [D I | D H^-1] with D = +-det H when H is nonsingular.
    _, pivcols, rows, det = echelon([row + [int(i == j) for j in range(d)]
                                     for i, row in enumerate(h)])
    if pivcols[-1] >= d:
        raise ValueError("H is singular")
    if abs(det) > MAX_INDEX:
        raise ValueError(f"the index |det H| is above {MAX_INDEX}")
    hcols = transpose(h)
    q_sub = q.congruent(hcols)
    # Column span of H = row span of H^t; its row HNF is upper triangular,
    # so the cosets of Z^d are the integer boxes under the diagonal.
    w = row_hnf(hcols)
    tcols = [
        tuple(Fraction(sum(map(mul, row[d:], rep)), det) for row in rows)
        for rep in product(*(range(w[i][i]) for i in range(d)))
        if any(rep)
    ]
    if len(tcols) != abs(det) - 1:
        raise RuntimeError("the coset count does not match the index")
    return PeriodicForm.make(q_sub, tcols)


# ---------------------------------------------------------------------------
# The public catalog.
# ---------------------------------------------------------------------------


def _expect(det: int, lam: int | None = None, min_pairs: int | None = None) -> dict:
    """The invariants the test suite recomputes: det Q and, where given, the
    minimum and the number of minimal vector pairs."""
    out = {"det": Fraction(det)}
    if lam is not None:
        out["lam"] = Fraction(lam)
    if min_pairs is not None:
        out["min_pairs"] = min_pairs
    return out


# name -> (least dimension, or None for a form without parameters; builder
# of (form, expected, basis) from the dimension, if it takes one).
_CATALOG = {
    "Zd": (1, lambda d: (PQF(SymForm.identity(d)), _expect(1, 1, d), None)),
    "A": (1, lambda d: (_a_gram(d), _expect(d + 1, 2, d * (d + 1) // 2), None)),
    "D": (3, lambda d: _spanned(_d_basis_rows(d), _expect(4, 2, d * (d - 1)))),
    "Dplus": (3, lambda d: (_d_plus_glue(d, [Fraction(1, 2)] * d), _expect(4),
                            _basis(_d_basis_rows(d)))),
    "E6": (None, lambda: (_tstar_gram((2, 3, 3)), _expect(3, 2, 36), None)),
    "E7": (None, lambda: (_tstar_gram((2, 3, 4)), _expect(2, 2, 63), None)),
    "E8": (None, lambda: _spanned(_dplus_basis_rows(8), _expect(1, 2, 120))),
    "K12": (None, lambda: (_k12_gram(), _expect(729, 4, 378), None)),
    "Leech": (None, lambda: (_leech_gram(), _expect(1, 4, 98280), None)),
    "Lambda9": (None, lambda: (fluid_diamond(0), _expect(4, 2), None)),
}

CATALOG_NAMES = tuple(_CATALOG)


def get(name: str, *params) -> CatalogEntry:
    """Catalog lookup; unknown names raise KeyError, bad parameters ValueError.

    ``Dplus d`` is the 2-periodic form over D_d; ``Dplus d lattice`` is the
    index-2 overlattice Gram, defined for even d >= 8.
    """
    if name not in _CATALOG:
        raise KeyError(f"unknown catalog name: {name!r}")
    if name == "Dplus" and len(params) == 2 and params[1] == "lattice":
        d = parse_integer(params[0])
        if not 8 <= d <= MAX_DIMENSION or d % 2:
            raise ValueError(f"the Dplus lattice variant needs even 8 <= d <= {MAX_DIMENSION}")
        expected = _expect(1, 2, d * (d - 1) if d >= 10 else None)
        return CatalogEntry(name, (d, "lattice"), *_spanned(_dplus_basis_rows(d), expected))
    least, build = _CATALOG[name]
    if least is None:
        if params:
            raise ValueError(f"{name} takes no parameters")
        return CatalogEntry(name, (), *build())
    if len(params) != 1:
        raise ValueError(f"{name} takes exactly one parameter (the dimension)")
    d = parse_integer(params[0])
    if not least <= d <= MAX_DIMENSION:
        raise ValueError(f"{name} requires {least} <= dimension <= {MAX_DIMENSION}")
    return CatalogEntry(name, (d,), *build(d))
