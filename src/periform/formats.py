"""PFORM-JSON v1: the file format for periodic forms.

A document is a JSON object {"format": "pform/1", "d": ..., "m": ...,
"Q": [[...]], "t": [[...]], "meta": {...}} with every rational written as
the string "p/q" (the "/q" omitted when the denominator is 1).  Parsing and
printing round-trip exactly.

The grammar of a rational is ``-?[0-9]+(/[0-9]+)?`` with at most MAX_DIGITS
digits on each side of the slash; a JSON integer (not a boolean) of at most
MAX_DIGITS digits is accepted too.  ``d`` and ``m`` are JSON integers; ``Q``,
``t`` and each of their rows are JSON arrays, with 1 <= d <= MAX_DIMENSION
and 1 <= m <= MAX_INDEX.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from typing import Any

from .linalg import PQF, SymForm, TangentVector
from .periodic import PeriodicForm

__all__ = [
    "PFormError",
    "format_rational",
    "parse_rational",
    "parse_integer",
    "to_document",
    "from_document",
    "dumps",
    "loads",
    "tangent_to_document",
]

FORMAT_TAG = "pform/1"
MAX_DIGITS = 4096
# Size limits of documents and of catalog forms, checked before anything is
# built: the largest named form is Leech (d = 24), a sublattice of index n
# carries n - 1 translates, and generalized_min walks m(m-1)/2 pairs with one
# CVP per class of t_i - t_j mod Z^d (m - 1 of them for a sublattice).
MAX_DIMENSION = 64
MAX_INDEX = 1024
_INT_BOUND = 10 ** MAX_DIGITS
_RATIONAL = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")
_INTEGER = re.compile(r"-?[0-9]+")


class PFormError(ValueError):
    """Malformed document: bad JSON shape, rationals, symmetry, or not PD."""


def format_rational(v: Fraction) -> str:
    v = Fraction(v)
    if v.denominator == 1:
        return str(v.numerator)
    return f"{v.numerator}/{v.denominator}"


def parse_rational(s: Any) -> Fraction:
    if isinstance(s, int) and not isinstance(s, bool):
        if abs(s) >= _INT_BOUND:
            raise PFormError(f"rational has more than {MAX_DIGITS} digits")
        return Fraction(s)
    if not isinstance(s, str):
        raise PFormError(f"rational must be a string or an integer, got {type(s).__name__}")
    match = _RATIONAL.fullmatch(s)
    if match is None:
        raise PFormError(f"bad rational {s[:40]!r}: expected p or p/q in digits")
    num, den = match.group(1), match.group(2) or "1"
    if len(num.lstrip("-")) > MAX_DIGITS or len(den) > MAX_DIGITS:
        raise PFormError(f"rational has more than {MAX_DIGITS} digits")
    if int(den) == 0:
        raise PFormError(f"bad rational {s[:40]!r}: zero denominator")
    return Fraction(int(num), int(den))


def parse_integer(s: str | int) -> int:
    """An integer string ``-?[0-9]+`` or a non-bool int, at most MAX_DIGITS digits."""
    if isinstance(s, str) and _INTEGER.fullmatch(s) is None:
        raise PFormError(f"bad integer {s[:40]!r}: expected digits")
    return parse_rational(s).numerator


def _count(doc: dict, key: str) -> int:
    v = doc[key]
    if not isinstance(v, int) or isinstance(v, bool):
        raise PFormError(f"{key} must be a JSON integer")
    return v


def to_document(x: PeriodicForm, meta: dict | None = None) -> dict:
    doc = {
        "format": FORMAT_TAG,
        "d": x.d,
        "m": x.m,
        "Q": [
            [format_rational(x.q.form.entry(i, j)) for j in range(x.d)]
            for i in range(x.d)
        ],
        "t": [[format_rational(v) for v in col] for col in x.tcols],
    }
    if meta:
        doc["meta"] = meta
    return doc


def from_document(doc: Any) -> PeriodicForm:
    if not isinstance(doc, dict):
        raise PFormError("document must be a JSON object")
    if doc.get("format") != FORMAT_TAG:
        raise PFormError(f"unsupported format tag: {doc.get('format')!r}")
    try:
        d = _count(doc, "d")
        m = _count(doc, "m")
        q_rows = doc["Q"]
        t_rows = doc.get("t", [])
    except (KeyError, TypeError, ValueError) as exc:
        raise PFormError(f"missing or malformed field: {exc}") from exc
    if not 1 <= d <= MAX_DIMENSION:
        raise PFormError(f"d must lie in 1..{MAX_DIMENSION}")
    if not 1 <= m <= MAX_INDEX:
        raise PFormError(f"m must lie in 1..{MAX_INDEX}")
    for key, rows in (("Q", q_rows), ("t", t_rows)):
        if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
            raise PFormError(f"{key} must be a JSON array of arrays")
    if len(q_rows) != d or any(len(r) != d for r in q_rows):
        raise PFormError("Q must be a d x d array")
    if len(t_rows) != m - 1 or any(len(r) != d for r in t_rows):
        raise PFormError("t must hold m-1 arrays of length d")
    rows = [[parse_rational(v) for v in r] for r in q_rows]
    try:
        sym = SymForm.from_rows(rows)
    except ValueError as exc:
        raise PFormError(str(exc)) from exc
    try:
        q = PQF(sym)
    except ValueError as exc:
        raise PFormError("Q is not positive definite") from exc
    cols = [[parse_rational(v) for v in r] for r in t_rows]
    return PeriodicForm.make(q, cols)


def dumps(x: PeriodicForm, meta: dict | None = None) -> str:
    return json.dumps(to_document(x, meta), indent=2)


def loads(text: str) -> PeriodicForm:
    try:
        doc = json.loads(text)
    except ValueError as exc:  # bad JSON, or an integer past Python's digit limit
        raise PFormError(f"invalid JSON: {exc}") from exc
    return from_document(doc)


def tangent_to_document(n: TangentVector) -> dict:
    """Tangent vectors (directions, separators) in the same rational encoding."""
    d = n.d
    return {
        "Q": [
            [format_rational(n.qpart.entry(i, j)) for j in range(d)]
            for i in range(d)
        ],
        "t": [[format_rational(v) for v in col] for col in n.tcols],
    }
