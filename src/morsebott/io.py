"""Parsing and serialization for complexes, functions, and reports.

Complex files are line oriented: ``cell <id> <dim>``, ``face <parent>
<child> <incidence> <r|i>``, or ``simplex <v1> <v2> ...`` (the simplex form
may not be mixed with explicit cell/face lines).  Function files carry one
``value <cell-id> <numerator>[/<denominator>]`` line per cell, with exact
rationals throughout.  ``#`` starts a comment.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, TextIO

from .complex import (
    Complex,
    ValidationError,
    build_from_incidence,
    build_simplicial,
)
from .complex import validate as _validate_complex
from .homology import Polynomial
from .morse import DiscreteFunction


class ParseError(ValueError):
    def __init__(self, message: str, lineno: int | None = None):
        if lineno is not None:
            message = f"line {lineno}: {message}"
        super().__init__(message)
        self.lineno = lineno


def _content_lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line.split()


def parse_complex(text: str, validate: bool = True) -> Complex:
    """Build a complex from its textual form; validates unless told not to."""
    cells: list[tuple[str, int]] = []
    faces: list[tuple[str, str, int, bool]] = []
    simplices: list[tuple[str, ...]] = []
    for lineno, parts in _content_lines(text):
        directive = parts[0]
        if directive == "cell":
            if len(parts) != 3:
                raise ParseError("expected: cell <id> <dim>", lineno)
            try:
                cells.append((parts[1], int(parts[2])))
            except ValueError:
                raise ParseError(f"bad dimension {parts[2]!r}", lineno) from None
        elif directive == "face":
            if len(parts) != 5 or parts[4] not in ("r", "i"):
                raise ParseError(
                    "expected: face <parent> <child> <incidence> <r|i>", lineno
                )
            try:
                incidence = int(parts[3])
            except ValueError:
                raise ParseError(f"bad incidence {parts[3]!r}", lineno) from None
            faces.append((parts[1], parts[2], incidence, parts[4] == "r"))
        elif directive == "simplex":
            if len(parts) < 2:
                raise ParseError("expected: simplex <v1> [<v2> ...]", lineno)
            simplices.append(tuple(parts[1:]))
        else:
            raise ParseError(f"unknown directive {directive!r}", lineno)
        if simplices and (cells or faces):
            raise ParseError(
                "simplex lines may not be mixed with cell/face lines", lineno
            )
    try:
        if simplices:
            X = build_simplicial(simplices)
        else:
            X = build_from_incidence(cells, faces)
    except ValueError as err:
        raise ParseError(str(err)) from None
    if validate:
        report = _validate_complex(X)
        if not report.ok:
            raise ValidationError(report)
    return X


def serialize_complex(X: Complex) -> str:
    lines = [f"cell {cid} {X.dim(cid)}" for cid in sorted(X.cells, key=lambda c: (X.dim(c), c))]
    for rec in sorted(X.faces, key=lambda r: (r.parent, r.child, r.incidence)):
        flag = "r" if rec.regular else "i"
        lines.append(f"face {rec.parent} {rec.child} {rec.incidence} {flag}")
    return "\n".join(lines) + "\n"


def _parse_rational(token: str, lineno: int) -> Fraction:
    num, _, den = token.partition("/")
    try:
        if den:
            denominator = int(den)
            if denominator == 0:
                raise ParseError("zero denominator", lineno)
            if denominator < 0:
                raise ParseError("denominator must be positive", lineno)
            return Fraction(int(num), denominator)
        return Fraction(int(num))
    except ParseError:
        raise
    except ValueError:
        raise ParseError(f"bad rational {token!r}", lineno) from None


def parse_function(text: str, X: Complex) -> DiscreteFunction:
    """Read one exact rational per cell; every cell must be covered once."""
    values: dict[str, Fraction] = {}
    for lineno, parts in _content_lines(text):
        if parts[0] != "value" or len(parts) != 3:
            raise ParseError("expected: value <cell-id> <num>[/<den>]", lineno)
        cid = parts[1]
        if cid not in X.cells:
            raise ParseError(f"unknown cell {cid}", lineno)
        if cid in values:
            raise ParseError(f"duplicate value for cell {cid}", lineno)
        values[cid] = _parse_rational(parts[2], lineno)
    missing = sorted(set(X.cells) - set(values))
    if missing:
        raise ParseError("missing cell " + ", ".join(missing))
    return DiscreteFunction(values)


def serialize_function(f: DiscreteFunction, X: Complex) -> str:
    lines = []
    for cid in X.ids():
        value = f(cid)
        token = str(value.numerator) if value.denominator == 1 else str(value)
        lines.append(f"value {cid} {token}")
    return "\n".join(lines) + "\n"


def _jsonable(obj: Any) -> Any:
    if isinstance(obj, Polynomial):
        return {"coeffs": list(obj.coeffs), "pretty": obj.pretty()}
    if isinstance(obj, Fraction):
        return str(obj.numerator) if obj.denominator == 1 else str(obj)
    if isinstance(obj, Complex):
        return {"cells": len(obj), "top_dim": obj.top_dim}
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        out = {}
        for fld in dataclasses.fields(obj):
            if fld.name == "complex":  # back-reference, not part of the result
                continue
            out[fld.name] = _jsonable(getattr(obj, fld.name))
        return out
    if isinstance(obj, (set, frozenset)):
        return sorted(_jsonable(v) for v in obj)
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in sorted(obj.items(), key=lambda kv: str(kv[0]))}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (bool, int, str)) or obj is None:
        return obj
    raise TypeError(f"cannot serialize {type(obj).__name__}")


_ENCODER = json.JSONEncoder(indent=2, sort_keys=True)


@dataclass(frozen=True)
class ReportDocument:
    data: dict

    def to_json(self) -> str:
        return _ENCODER.encode(self.data) + "\n"

    def write_json(self, out: TextIO) -> None:
        """Write :meth:`to_json` to ``out`` without holding the whole text."""
        out.writelines(_ENCODER.iterencode(self.data))
        out.write("\n")

    def to_text(self) -> str:
        return _render(self.data, 0)


def _render(obj: Any, depth: int) -> str:
    pad = "  " * depth
    if isinstance(obj, dict):
        lines = []
        for key in sorted(obj, key=str):
            value = obj[key]
            if isinstance(value, (dict, list)) and value and not _is_scalar_list(value):
                lines.append(f"{pad}{key}:")
                lines.append(_render(value, depth + 1))
            else:
                lines.append(f"{pad}{key}: {_render_inline(value)}")
        return "\n".join(lines)
    if isinstance(obj, list):
        lines = []
        for item in obj:
            if isinstance(item, (dict, list)) and item:
                lines.append(f"{pad}-")
                lines.append(_render(item, depth + 1))
            else:
                lines.append(f"{pad}- {_render_inline(item)}")
        return "\n".join(lines)
    return f"{pad}{_render_inline(obj)}"


def _is_scalar_list(value: Any) -> bool:
    return isinstance(value, list) and all(
        not isinstance(v, (dict, list)) for v in value
    )


def _render_inline(value: Any) -> str:
    if isinstance(value, list):
        return "[" + ", ".join(_render_inline(v) for v in value) + "]"
    if isinstance(value, dict):
        return "{" + ", ".join(f"{k}: {_render_inline(v)}" for k, v in sorted(value.items())) + "}"
    if value is None:
        return "-"
    return str(value)


def serialize_report(result: Any) -> ReportDocument:
    """Wrap any analysis result in a deterministic document."""
    data = _jsonable(result)
    if not isinstance(data, dict):
        data = {"result": data}
    return ReportDocument(data)


def parse_report(text: str) -> ReportDocument:
    return ReportDocument(json.loads(text))
