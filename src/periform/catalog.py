"""Named lattices and periodic sets, plus sublattice re-representation.

Gram matrices are built from explicit generator bases wherever a fixed basis
matters downstream (D_d feeds the fluid diamond translations, the E8 basis
feeds index-2 sublattice tests); correctness is pinned by the expected
invariants (determinant, minimum, kissing pairs) that the test suite
recomputes exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from operator import mul
from typing import Sequence

from .formats import MAX_DIMENSION, MAX_INDEX, parse_integer
from .intmat import row_hnf, transpose
from .linalg import PQF, RatLike, SymForm, echelon, solve_exact
from .periodic import PeriodicForm

__all__ = [
    "CatalogEntry",
    "CATALOG_NAMES",
    "get",
    "fluid_diamond",
    "sublattice_representation",
    "golay_generator_matrix",
]

CATALOG_NAMES = (
    "Zd", "A", "D", "Dplus", "E6", "E7", "E8", "K12", "Leech", "Lambda9",
)


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    params: tuple
    form: object  # PQF or PeriodicForm
    expected: dict = field(default_factory=dict)
    basis: tuple | None = None  # generator rows in ambient coordinates


def _gram_from_rows(rows: Sequence[Sequence[RatLike]]) -> PQF:
    n = len(rows)
    width = len(rows[0])
    g = [
        [
            sum((Fraction(rows[i][k]) * Fraction(rows[j][k]) for k in range(width)),
                Fraction(0))
            for j in range(n)
        ]
        for i in range(n)
    ]
    return PQF.from_rows(g)


def _coords_in_row_basis(
    rows: Sequence[Sequence[RatLike]], point: Sequence[RatLike]
) -> tuple[Fraction, ...]:
    """c with sum_i c_i rows[i] = point."""
    n = len(rows)
    mat = [[Fraction(rows[j][i]) for j in range(n)] for i in range(len(point))]
    sol = solve_exact(mat, [Fraction(v) for v in point])
    if sol is None:
        raise ValueError("point not in the span of the basis")
    return sol


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


def _dplus_basis_rows(d: int) -> list[list[Fraction]]:
    # Basis of D_d union (D_d + h) with h = (1/2, ..., 1/2), d even.
    rows: list[list[Fraction]] = []
    first = [Fraction(0)] * d
    first[0] = first[1] = Fraction(1)
    rows.append(first)
    for i in range(1, d - 1):
        r = [Fraction(0)] * d
        r[i] = Fraction(1)
        r[i - 1] = Fraction(-1)
        rows.append(r)
    rows.append([Fraction(1, 2)] * d)
    return rows


def _e8_basis_rows() -> list[list[Fraction]]:
    return _dplus_basis_rows(8)


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
    basis = row_hnf(gens)
    rows = [
        [Fraction(sum(basis[i][k] * basis[j][k] for k in range(24)), 8)
         for j in range(24)]
        for i in range(24)
    ]
    return PQF.from_rows(rows)


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
    basis = row_hnf(zgens)

    def eis_inner(x, y):
        total = Fraction(0)
        for k in range(6):
            a, b = x[2 * k], x[2 * k + 1]
            c, d = y[2 * k], y[2 * k + 1]
            total += Fraction(2 * a * c + 2 * b * d - a * d - b * c, 2)
        return total

    rows = [[eis_inner(basis[i], basis[j]) for j in range(12)] for i in range(12)]
    return PQF.from_rows(rows)


# ---------------------------------------------------------------------------
# Fluid diamonds and sublattice representations.
# ---------------------------------------------------------------------------


def fluid_diamond(alpha: RatLike) -> PeriodicForm:
    """The 2-periodic set D_9 union (D_9 + (1/2, ..., 1/2, alpha)).

    Integral alpha yields a representation of the densest known packing
    lattice in dimension 9; the generalized minimum is 2 for every alpha.
    """
    rows = _d_basis_rows(9)
    q = _gram_from_rows(rows)
    t_alpha = [Fraction(1, 2)] * 8 + [Fraction(alpha)]
    coords = _coords_in_row_basis(rows, t_alpha)
    return PeriodicForm.make(q, [coords])


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


def _dim_param(params, minimum: int, name: str) -> int:
    if len(params) != 1:
        raise ValueError(f"{name} takes exactly one parameter (the dimension)")
    d = parse_integer(params[0])
    if not minimum <= d <= MAX_DIMENSION:
        raise ValueError(f"{name} requires {minimum} <= dimension <= {MAX_DIMENSION}")
    return d


def get(name: str, *params) -> CatalogEntry:
    """Catalog lookup; unknown names raise KeyError.

    ``Dplus d`` is the 2-periodic form over D_d; ``Dplus d lattice`` is the
    index-2 overlattice Gram, defined for even d >= 8.
    """
    if name == "Zd":
        d = _dim_param(params, 1, "Zd")
        form = PQF(SymForm.identity(d))
        return CatalogEntry(
            name, (d,), form,
            {"det": Fraction(1), "lam": Fraction(1), "min_pairs": d},
        )
    if name == "A":
        d = _dim_param(params, 1, "A")
        return CatalogEntry(
            name, (d,), _a_gram(d),
            {"det": Fraction(d + 1), "lam": Fraction(2),
             "min_pairs": d * (d + 1) // 2},
        )
    if name == "D":
        d = _dim_param(params, 3, "D")
        rows = _d_basis_rows(d)
        return CatalogEntry(
            name, (d,), _gram_from_rows(rows),
            {"det": Fraction(4), "lam": Fraction(2), "min_pairs": d * (d - 1)},
            basis=tuple(tuple(map(Fraction, r)) for r in rows),
        )
    if name == "Dplus":
        if len(params) == 2 and params[1] == "lattice":
            d = parse_integer(params[0])
            if not 8 <= d <= MAX_DIMENSION or d % 2:
                raise ValueError(
                    f"the Dplus lattice variant needs even 8 <= d <= {MAX_DIMENSION}"
                )
            rows = _dplus_basis_rows(d)
            expected = {"det": Fraction(1), "lam": Fraction(2)}
            if d >= 10:
                expected["min_pairs"] = d * (d - 1)
            return CatalogEntry(
                name, (d, "lattice"), _gram_from_rows(rows), expected,
                basis=tuple(tuple(r) for r in rows),
            )
        d = _dim_param(params, 3, "Dplus")
        rows = _d_basis_rows(d)
        q = _gram_from_rows(rows)
        half = [Fraction(1, 2)] * d
        form = PeriodicForm.make(q, [_coords_in_row_basis(rows, half)])
        return CatalogEntry(
            name, (d,), form, {"det": Fraction(4)},
            basis=tuple(tuple(map(Fraction, r)) for r in rows),
        )
    if name == "E6":
        _no_params(params, "E6")
        return CatalogEntry(
            name, (), _tstar_gram((2, 3, 3)),
            {"det": Fraction(3), "lam": Fraction(2), "min_pairs": 36},
        )
    if name == "E7":
        _no_params(params, "E7")
        return CatalogEntry(
            name, (), _tstar_gram((2, 3, 4)),
            {"det": Fraction(2), "lam": Fraction(2), "min_pairs": 63},
        )
    if name == "E8":
        _no_params(params, "E8")
        rows = _e8_basis_rows()
        return CatalogEntry(
            name, (), _gram_from_rows(rows),
            {"det": Fraction(1), "lam": Fraction(2), "min_pairs": 120},
            basis=tuple(tuple(r) for r in rows),
        )
    if name == "K12":
        _no_params(params, "K12")
        return CatalogEntry(
            name, (), _k12_gram(),
            {"det": Fraction(729), "lam": Fraction(4), "min_pairs": 378},
        )
    if name == "Leech":
        _no_params(params, "Leech")
        return CatalogEntry(
            name, (), _leech_gram(),
            {"det": Fraction(1), "lam": Fraction(4), "min_pairs": 98280},
        )
    if name == "Lambda9":
        _no_params(params, "Lambda9")
        return CatalogEntry(
            name, (), fluid_diamond(0), {"det": Fraction(4), "lam": Fraction(2)},
        )
    raise KeyError(f"unknown catalog name: {name!r}")


def _no_params(params, name: str) -> None:
    if params:
        raise ValueError(f"{name} takes no parameters")
