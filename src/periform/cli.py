"""Command-line front end: reports over PFORM-JSON v1 files.

Exit codes: 0 ok (or certified extreme), 1 not extreme (only with
--strict-exit), 2 parse error, 3 degenerate input (lambda = 0),
4 inconclusive (only with --strict-exit), 5 unexpected error (a one-line
``error:`` message on stderr, no traceback).
"""

from __future__ import annotations

import argparse
import json
import sys

from .catalog import CATALOG_NAMES, get, sublattice_representation
from .certify import (
    EXTREME_TRANSLATIONAL,
    INCONCLUSIVE,
    ISOLATED_EXTREME,
    NOT_EXTREME,
    certify,
    improvement_step,
)
from .formats import (
    PFormError,
    dumps,
    format_rational,
    loads,
    parse_integer,
    tangent_to_document,
    to_document,
)
from .improve import improve
from .linalg import PQF
from .periodic import (
    OverlapError,
    PeriodicForm,
    density,
    generalized_min,
)

EXIT_OK = 0
EXIT_NOT_EXTREME = 1
EXIT_PARSE = 2
EXIT_DEGENERATE = 3
EXIT_INCONCLUSIVE = 4
EXIT_UNEXPECTED = 5


def _read_form(path: str) -> PeriodicForm:
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
    except OSError as exc:
        raise PFormError(f"cannot read {path}: {exc}") from exc
    return loads(text)


def _emit(payload: dict, args, text_lines) -> None:
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        for line in text_lines:
            print(line)


def _write_output(text: str, out: str | None) -> None:
    if out and out != "-":
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def cmd_min(args) -> int:
    x = _read_form(args.input)
    res = generalized_min(x)
    reps = [
        {
            "i": r.i,
            "j": r.j,
            "v": list(r.v),
            "w": [format_rational(c) for c in r.w],
        }
        for r in res.reps
    ]
    payload = {
        "command": "min",
        "lambda": format_rational(res.lam),
        "classes": len(res.reps),
        "degenerate": res.lam == 0,
        "representations": reps,
    }
    lines = [f"lambda = {format_rational(res.lam)}, {len(res.reps)} classes"]
    if res.lam == 0:
        lines.append("warning: lambda = 0 (translates intersect)")
    for r in res.reps:
        w = "(" + ", ".join(format_rational(c) for c in r.w) + ")"
        lines.append(f"  ({r.i},{r.j}) v={list(r.v)} w={w}")
    _emit(payload, args, lines)
    return EXIT_OK


def cmd_density(args) -> int:
    x = _read_form(args.input)
    rep = density(x)
    if rep.lam == 0:
        raise OverlapError("lambda = 0")
    payload = {
        "command": "density",
        "lambda": format_rational(rep.lam),
        "det": format_rational(rep.det),
        "m": rep.m,
        "center_density_squared": format_rational(rep.center_density_squared),
        "delta_over_ball": f"{rep.delta_over_ball:.10f}",
        "delta": f"{rep.delta:.10f}",
    }
    lines = [
        f"lambda = {format_rational(rep.lam)}",
        f"det = {format_rational(rep.det)}",
        f"center density squared = {format_rational(rep.center_density_squared)}",
        f"delta / vol B^d = {rep.delta_over_ball:.10f}",
        f"delta = {rep.delta:.10f}",
    ]
    _emit(payload, args, lines)
    return EXIT_OK


def _certificate_payload(cert, x: PeriodicForm) -> dict:
    """The certificate of x, with a verified step along a NotExtreme one's
    direction."""
    eut = {
        "tag": cert.eutaxy.tag,
    }
    if cert.eutaxy.witness is not None:
        eut["witness"] = [format_rational(a) for a in cert.eutaxy.witness]
    if cert.eutaxy.face is not None:
        eut["face"] = list(cert.eutaxy.face)
    if cert.eutaxy.separator is not None:
        eut["separator"] = tangent_to_document(cert.eutaxy.separator)
    payload = {
        "verdict": cert.verdict,
        "lambda": format_rational(cert.lam),
        "perfect": cert.perfect,
        "rank": cert.rank,
        "ambient_dim": cert.ambient,
        "eutaxy": eut,
        "floating": [list(part) for part in cert.floating],
        "is_floating": cert.is_floating,
    }
    if cert.improving is not None:
        found = improvement_step(x, cert.improving, density(x, cert.lam))
        if found is None:
            raise RuntimeError("no verified improvement step found along N")
        payload["improving_direction"] = tangent_to_document(cert.improving)
        payload["improving_epsilon"] = format_rational(found[0])
    if cert.uncertainty_basis is not None:
        payload["uncertainty_dim"] = len(cert.uncertainty_basis)
        payload["uncertainty_is_subspace"] = cert.uncertainty_is_subspace
        payload["uncertainty_basis"] = [
            tangent_to_document(n) for n in cert.uncertainty_basis
        ]
    if cert.translational_witness is not None:
        payload["translational_witness"] = list(cert.translational_witness)
    return payload


def cmd_certify(args) -> int:
    x = _read_form(args.input)
    cert = certify(x)
    payload = {"command": "certify", **_certificate_payload(cert, x)}
    lines = [
        f"verdict: {cert.verdict}",
        f"lambda = {format_rational(cert.lam)}",
        f"perfection: rank {cert.rank} of {cert.ambient}"
        + (" (perfect)" if cert.perfect else ""),
        f"eutaxy: {cert.eutaxy.tag}",
        f"floating partition: {[list(p) for p in cert.floating]}"
        + (" (floating)" if cert.is_floating else ""),
    ]
    if cert.uncertainty_basis is not None:
        lines.append(f"uncertainty dimension: {len(cert.uncertainty_basis)}")
    if cert.improving is not None:
        lines.append(
            "improving direction found; verified step epsilon = "
            + payload["improving_epsilon"]
        )
    _emit(payload, args, lines)
    if args.strict_exit:
        return {
            ISOLATED_EXTREME: EXIT_OK,
            EXTREME_TRANSLATIONAL: EXIT_OK,
            NOT_EXTREME: EXIT_NOT_EXTREME,
            INCONCLUSIVE: EXIT_INCONCLUSIVE,
        }[cert.verdict]
    return EXIT_OK


def cmd_improve(args) -> int:
    res = improve(_read_form(args.input), steps=args.steps, seed=args.seed)
    if args.json:
        # Only the JSON payload holds the final certificate's step search.
        payload = {
            "command": "improve",
            "steps_taken": len(res.steps),
            "stalled": res.stalled,
            "final_verdict": res.certificate.verdict,
            "final_form": to_document(res.final),
            "trajectory": [
                {
                    "step": s.index,
                    "action": s.action,
                    "epsilon": format_rational(s.epsilon),
                    "center_density_squared": format_rational(
                        s.center_density_squared
                    ),
                    "delta_over_ball": f"{s.delta_over_ball:.10f}",
                    "snapped": s.snapped,
                }
                for s in res.steps
            ],
            "certificate": _certificate_payload(res.certificate, res.final),
        }
        print(json.dumps(payload, indent=2))
        return EXIT_OK
    print(f"steps taken: {len(res.steps)}")
    for s in res.steps:
        print(
            f"  step {s.index}: {s.action} eps={format_rational(s.epsilon)} "
            f"delta/volB = {s.delta_over_ball:.10f}"
        )
    print(f"final verdict: {res.certificate.verdict}")
    if res.stalled:
        print("stalled: no strictly improving step found")
    final = density(res.final, res.certificate.lam)
    print(f"final delta/volB = {final.delta_over_ball:.10f}")
    return EXIT_OK


def cmd_catalog(args) -> int:
    if args.action == "list":
        if args.json:
            print(json.dumps({"command": "catalog", "names": list(CATALOG_NAMES)}))
        else:
            for name in CATALOG_NAMES:
                print(name)
        return EXIT_OK
    try:
        entry = get(args.name, *args.params)
    except (KeyError, ValueError) as exc:
        # str() of a KeyError is the repr of its message; print the message.
        print("error:", *exc.args, file=sys.stderr)
        return EXIT_PARSE
    form = entry.form
    if isinstance(form, PQF):
        form = PeriodicForm.lattice(form)
    meta = {"name": entry.name, "params": [str(p) for p in entry.params]}
    _write_output(dumps(form, meta=meta), args.output)
    return EXIT_OK


def _parse_h_matrix(text: str, d: int) -> list[list[int]]:
    rows = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        rows.append([parse_integer(v) for v in chunk.replace(",", " ").split()])
    if len(rows) != d or any(len(r) != d for r in rows):
        raise PFormError(f"H must be {d} x {d}")
    return rows


def cmd_represent(args) -> int:
    x = _read_form(args.input)
    if x.m != 1:
        print("error: represent expects a lattice input (m = 1)", file=sys.stderr)
        return EXIT_PARSE
    h = _parse_h_matrix(args.H, x.d)
    try:
        rep = sublattice_representation(x.q, h)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    meta = {"represent": {"H": h}}
    _write_output(dumps(rep, meta=meta), args.output)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="periform",
        description="Periodic sphere packings: invariants and local-optimality "
        "certificates over exact rationals.",
        epilog="exit codes: 0 ok or extreme, 1 not extreme (--strict-exit), "
        "2 parse error, 3 lambda = 0, 4 inconclusive (--strict-exit), "
        "5 unexpected error",
    )
    parser.add_argument("--json", action="store_true", help="machine-readable output")
    parser.add_argument(
        "--strict-exit",
        action="store_true",
        help="map certify verdicts to exit codes (0 extreme, 1 not, 4 inconclusive)",
    )
    parser.add_argument("--seed", type=int, default=0, help="improve's escape order (default 0)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("min", help="generalized arithmetical minimum and Min X")
    p.add_argument("input")
    p.set_defaults(func=cmd_min)

    p = sub.add_parser("density", help="packing density report")
    p.add_argument("input")
    p.set_defaults(func=cmd_density)

    p = sub.add_parser("certify", help="local-optimality certificate")
    p.add_argument("input")
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("improve", help="iterative density improvement")
    p.add_argument("input")
    p.add_argument("--steps", type=int, default=500)
    p.set_defaults(func=cmd_improve)

    p = sub.add_parser("catalog", help="named lattices and periodic sets")
    psub = p.add_subparsers(dest="action", required=True)
    plist = psub.add_parser("list")
    plist.set_defaults(func=cmd_catalog, action="list")
    pget = psub.add_parser("get")
    pget.add_argument("name")
    pget.add_argument("params", nargs="*")
    pget.add_argument("-o", "--output", default=None)
    pget.set_defaults(func=cmd_catalog, action="get")

    p = sub.add_parser("represent", help="re-represent a lattice over a sublattice")
    p.add_argument("input")
    p.add_argument("--H", required=True, help="integer matrix, rows separated by ';'")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_represent)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except PFormError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except OverlapError:
        print("error: lambda = 0 (translates intersect)", file=sys.stderr)
        return EXIT_DEGENERATE
    except Exception as exc:  # a fault of the program, never a verdict
        message = " ".join(str(exc).split())
        print(f"error: unexpected {type(exc).__name__}: {message}", file=sys.stderr)
        return EXIT_UNEXPECTED


if __name__ == "__main__":
    sys.exit(main())
