"""Batch command line front end.

Exit codes: 0 when the run succeeds and every checked identity holds, 1 on
usage or parse errors, 2 on mathematical validation failures (broken chain
condition, function not discrete Morse-Bott, or a violated identity).
"""

from __future__ import annotations

import argparse
import functools
import sys
from fractions import Fraction
from pathlib import Path

from . import flow, morse
from .analysis import Analysis, euler_summary
from .complex import Complex, ValidationError, validate
from .homology import Z, Z2, betti, chain_complex, poincare_polynomial
from .io import (
    ParseError,
    ReportDocument,
    parse_complex,
    parse_function,
    serialize_function,
    serialize_report,
)

OK = 0
USAGE_ERROR = 1
INVALID = 2


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); the contract wants 1
        raise _UsageError(message)


@functools.cache  # parse_args leaves the parser as it was, so one serves every run
def _build_parser() -> _Parser:
    parser = _Parser(prog="morsebott", description=__doc__)
    parser.add_argument("--json", action="store_true", help="emit a JSON document")
    parser.add_argument(
        "--no-validate", action="store_true", help="skip complex validation on load"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, function_file=True, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.add_argument("complex_file", help="complex file")
        if function_file:
            p.add_argument("function_file", help="function file")
        p.set_defaults(handler=handler)
        return p

    add("validate", _cmd_validate, function_file=False, help="check a complex file")
    add("morse-check", _cmd_morse_check, help="check the discrete Morse-Bott conditions")
    add("collections", _cmd_collections, help="list collections and their reductions")
    p = add("homology", _cmd_homology, function_file=False, help="Betti numbers and torsion")
    p.add_argument("--coeff", choices=["z", "z2"], default="z", help="coefficient ring")
    p = add("flow", _cmd_flow, help="vector field, axioms, and closed orbits")
    p.add_argument("--max-orbits", type=int, default=1000, metavar="N")
    p.add_argument("--dot", metavar="PATH", help="write the arrow digraph in DOT format")
    add("inequalities", _cmd_inequalities, help="Morse-Bott inequality report")
    add("conley", _cmd_conley, help="index pairs and Conley index report")
    p = add("perturb", _cmd_perturb, help="print the perturbed function")
    p.add_argument("--epsilon", default="auto", metavar="P/Q|auto")
    p = add("report", _cmd_report, help="run every check and aggregate the verdicts")
    p.add_argument("--max-orbits", type=int, default=1000, metavar="N")
    return parser


def run(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "max_orbits", 0) < 0:
            parser.error("argument --max-orbits: must be at least 0")
    except _UsageError as err:
        print(f"error: {err}", file=sys.stderr)
        return USAGE_ERROR
    except SystemExit as err:  # --help
        return int(err.code or 0)
    try:
        return args.handler(args)
    except _UsageError as err:
        print(f"error: {err}", file=sys.stderr)
        return USAGE_ERROR
    except ParseError as err:
        print(f"error: {err}", file=sys.stderr)
        return USAGE_ERROR
    except ValidationError as err:
        print(f"invalid complex: {err}", file=sys.stderr)
        return INVALID
    except ValueError as err:
        print(f"invalid input: {err}", file=sys.stderr)
        return INVALID


def main() -> None:
    sys.exit(run())


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as err:
        raise ParseError(str(err)) from None
    except UnicodeDecodeError as err:
        raise ParseError(f"{path}: {err}") from None


def _load_complex(args) -> Complex:
    return parse_complex(_read(args.complex_file), validate=not args.no_validate)


def _load(args) -> tuple[Complex, morse.DiscreteFunction]:
    X = _load_complex(args)
    return X, parse_function(_read(args.function_file), X)


def _emit(args, payload) -> None:
    document = payload if isinstance(payload, ReportDocument) else serialize_report(payload)
    if args.json:
        document.write_json(sys.stdout)
    else:
        sys.stdout.write(document.to_text() + "\n")


def _cmd_validate(args) -> int:
    X = parse_complex(_read(args.complex_file), validate=False)
    report = validate(X)
    _emit(args, report)
    return OK if report.ok else INVALID


def _cmd_morse_check(args) -> int:
    a = Analysis(*_load(args))
    _emit(args, {"morse_bott": a.verdict, "discrete_morse": a.discrete_morse})
    return OK if a.verdict.ok else INVALID


def _cmd_collections(args) -> int:
    a = Analysis(*_load(args))
    payload = {"morse_bott_ok": a.verdict.ok, "collections": a.collections}
    if a.verdict.ok:
        payload["reduced"] = [
            {
                "parent": R.parent,
                "cells": R.cells,
                "noncritical_pair": morse.is_noncritical_pair(R),
                "classification": R.classification,
            }
            for R in a.reduced
        ]
    else:
        payload["violations"] = a.verdict.violations
    _emit(args, payload)
    return OK if a.verdict.ok else INVALID


def _cmd_homology(args) -> int:
    X = _load_complex(args)
    ring = Z2 if args.coeff == "z2" else Z
    summary = betti(chain_complex(X, ring))
    _emit(
        args,
        {
            "ring": ring,
            "summary": summary,
            "poincare": poincare_polynomial(summary),
            "euler": poincare_polynomial(summary).evaluate(-1),
        },
    )
    return OK


def _cmd_flow(args) -> int:
    a = Analysis(*_load(args), max_orbits=args.max_orbits)
    if args.dot:
        try:
            Path(args.dot).write_text(flow.to_dot(a.arrows, a.X), encoding="utf-8")
        except OSError as err:
            raise _UsageError(str(err)) from None
    _emit(
        args,
        {
            "arrows": sorted(a.arrows.arrows),
            "combinatorial": flow.is_combinatorial(a.arrows, a.X),
            "closed_orbits": [o.cells for o in a.orbits],
            "truncated": a.orbits.truncated,
            "cross_collection_orbits": a.cross_orbits,
        },
    )
    return OK


def _inequality_sections(a: Analysis) -> dict:
    chi_complex, chi_sum, chi_ok = euler_summary(a.inequalities)
    return {
        "inequalities": a.inequalities,
        "kernel_inequalities": a.kernel_inequalities,
        "euler": {"complex": chi_complex, "collections": chi_sum, "equal": chi_ok},
    }


def _cmd_inequalities(args) -> int:
    a = Analysis(*_load(args))
    _emit(args, _inequality_sections(a))
    return OK if a.inequalities.ok else INVALID


def _cmd_conley(args) -> int:
    a = Analysis(*_load(args))
    _emit(
        args,
        {
            "conley": a.conley,
            "index_pairs": [
                {
                    "invariant": sorted(p.invariant.cells),
                    "neighborhood": p.neighborhood,
                    "exit_set": p.exit_set,
                    "exit_cells": p.exit_cells,
                }
                for p in a.index_pairs
            ],
        },
    )
    return OK if a.conley.ok else INVALID


def _cmd_perturb(args) -> int:
    a = Analysis(*_load(args))
    if args.epsilon != "auto":
        try:
            epsilon = Fraction(args.epsilon)
        except (ValueError, ZeroDivisionError):
            raise _UsageError(f"bad epsilon {args.epsilon!r}") from None
        if epsilon <= 0:
            raise _UsageError("epsilon must be positive")
    else:
        epsilon = "auto"
    if not a.verdict.ok:
        _emit(args, a.verdict)
        return INVALID
    perturbed = morse.perturb(a.X, a.f, epsilon)
    if args.json:
        _emit(args, {"values": {cid: value for cid, value in perturbed.items()}})
    else:
        sys.stdout.write(serialize_function(perturbed, a.X))
    return OK


def report(X: Complex, f, arrows=None, max_orbits: int | None = 1000) -> ReportDocument:
    """Aggregate every check into one document with a top-level ``ok``.

    Every section reads one :class:`Analysis`, so each fact is computed
    once.  ``arrows``, when given, replaces the vector field of f in the
    flow section (say, a field that is not the gradient of f); the other
    sections depend on f alone.
    """
    a = Analysis(X, f, arrows, max_orbits)
    payload: dict = {
        "morse_bott": a.verdict,
        "discrete_morse_ok": a.discrete_morse.ok,
        "collections": a.collections,
        "flow": {
            "arrows": len(a.arrows),
            "closed_orbits": len(a.orbits),
            "truncated": a.orbits.truncated,
            "cross_collection_orbits": a.cross_orbits,
        },
    }
    ok = a.verdict.ok and not a.cross_orbits
    if a.verdict.ok:
        payload.update(_inequality_sections(a), conley=a.conley)
        ok = ok and a.inequalities.ok and a.conley.ok
    payload["ok"] = ok
    return serialize_report(payload)


def _cmd_report(args) -> int:
    document = report(*_load(args), max_orbits=args.max_orbits)
    _emit(args, document)
    return OK if document.data["ok"] else INVALID


if __name__ == "__main__":
    main()
