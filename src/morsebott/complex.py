"""Finite CW complexes given by explicit facet incidence records.

A complex is a set of cells, each with a dimension, plus one incidence
record per codimension-one face relation.  Deeper face relations are never
stored; they are derived by transitive closure of the facet records.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence


@dataclass(frozen=True)
class Cell:
    id: str
    dim: int


@dataclass(frozen=True)
class FaceRecord:
    """One facet relation child < parent with its incidence number.

    ``regular`` marks a regular facet, in which case the incidence number
    must be +1 or -1.  Irregular records may carry any integer.
    """

    parent: str
    child: str
    incidence: int
    regular: bool


@dataclass(frozen=True)
class RuleViolation:
    rule: str
    cells: tuple[str, ...]
    message: str


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: tuple[RuleViolation, ...]

    def summary(self) -> str:
        if self.ok:
            return "ok"
        return "; ".join(v.message for v in self.violations)


class ValidationError(ValueError):
    """A complex failed validation in a context that requires it to pass."""

    def __init__(self, report: ValidationReport):
        super().__init__(report.summary())
        self.report = report


class Complex:
    """An immutable finite CW complex.

    All query operations are read-only, so instances are safe to share
    between threads after construction.
    """

    def __init__(self, cells: Iterable[Cell], faces: Iterable[FaceRecord]):
        self.cells: dict[str, Cell] = {}
        for cell in cells:
            if cell.id in self.cells:
                raise ValueError(f"duplicate cell id {cell.id!r}")
            if cell.dim < 0:
                raise ValueError(f"cell {cell.id!r} has negative dimension")
            self.cells[cell.id] = cell
        self.faces: tuple[FaceRecord, ...] = tuple(faces)
        for rec in self.faces:
            for cid in (rec.parent, rec.child):
                if cid not in self.cells:
                    raise ValueError(f"face record references unknown cell {cid!r}")
            if self.cells[rec.child].dim != self.cells[rec.parent].dim - 1:
                raise ValueError(
                    f"dim mismatch on face record {rec.parent!r} > {rec.child!r}"
                )
        self.top_dim: int = max((c.dim for c in self.cells.values()), default=-1)
        facets: dict[str, list[FaceRecord]] = {c: [] for c in self.cells}
        cofacets: dict[str, list[FaceRecord]] = {c: [] for c in self.cells}
        for rec in self.faces:
            facets[rec.parent].append(rec)
            cofacets[rec.child].append(rec)
        self._facets = {cid: tuple(recs) for cid, recs in facets.items()}
        self._cofacets = {cid: tuple(recs) for cid, recs in cofacets.items()}
        # Cells are few; precompute every closure once (children first).
        self._closures: dict[str, frozenset[str]] = {}
        for cid in sorted(self.cells, key=lambda c: (self.cells[c].dim, c)):
            closed: set[str] = {cid}
            for rec in self._facets[cid]:
                closed |= self._closures[rec.child]
            self._closures[cid] = frozenset(closed)

    def __len__(self) -> int:
        return len(self.cells)

    def __contains__(self, cid: str) -> bool:
        return cid in self.cells

    def __repr__(self) -> str:
        return f"<Complex: {len(self.cells)} cells, top dim {self.top_dim}>"

    def ids(self) -> list[str]:
        return sorted(self.cells)

    def dim(self, cid: str) -> int:
        return self.cells[cid].dim

    def cells_of_dim(self, k: int) -> list[str]:
        return sorted(c for c, cell in self.cells.items() if cell.dim == k)

    def facet_records(self, cid: str) -> tuple[FaceRecord, ...]:
        """Records whose parent is ``cid`` (its codimension-one faces)."""
        return self._facets[cid]

    def cofacet_records(self, cid: str) -> tuple[FaceRecord, ...]:
        """Records whose child is ``cid`` (its codimension-one cofaces)."""
        return self._cofacets[cid]

    def closure_of(self, cid: str) -> frozenset[str]:
        return self._closures[cid]


def build_from_incidence(
    cells: Iterable[tuple[str, int]],
    faces: Iterable[tuple[str, str, int, bool]],
) -> Complex:
    """Assemble a complex from (id, dim) pairs and facet records.

    Performs only structural checks (unique ids, declared references, facet
    dimensions); run :func:`validate` for the chain condition.
    """
    cell_objs = [Cell(str(cid), int(dim)) for cid, dim in cells]
    face_objs = [
        FaceRecord(str(p), str(c), int(inc), bool(reg)) for p, c, inc, reg in faces
    ]
    return Complex(cell_objs, face_objs)


def simplex_id(vertices: Sequence) -> str:
    return "-".join(str(v) for v in sorted(vertices))


def build_simplicial(maximal_simplices: Iterable[Sequence]) -> Complex:
    """Build the simplicial complex generated by the given simplices.

    Each simplex id is its sorted vertex tuple joined by "-"; facet
    incidences follow the alternating-sign rule on sorted vertices, so all
    records are regular.
    """
    maximal = list(maximal_simplices)
    if not maximal:
        raise ValueError("empty simplex list")
    simplices: set[tuple] = set()
    for simplex in maximal:
        verts = tuple(sorted(simplex))
        if not verts:
            raise ValueError("empty simplex")
        if len(set(verts)) != len(verts):
            raise ValueError(f"repeated vertex in simplex {tuple(simplex)!r}")
        for size in range(1, len(verts) + 1):
            simplices.update(itertools.combinations(verts, size))
    cells = [Cell(simplex_id(s), len(s) - 1) for s in sorted(simplices, key=str)]
    faces = []
    for s in sorted(simplices, key=str):
        if len(s) == 1:
            continue
        for i in range(len(s)):
            facet = s[:i] + s[i + 1 :]
            faces.append(FaceRecord(simplex_id(s), simplex_id(facet), (-1) ** i, True))
    return Complex(cells, faces)


def validate(X: Complex) -> ValidationReport:
    """Check the facet records and the chain condition
    sum([tau:sigma][sigma:rho]) = 0 over intermediate facets, irregular
    records included.

    Unknown cells and non-facet records are already rejected when the
    complex is built.
    """
    violations: list[RuleViolation] = []
    for (parent, child), n in Counter((rec.parent, rec.child) for rec in X.faces).items():
        if n > 1:
            violations.append(
                RuleViolation(
                    "duplicate-record",
                    (parent, child),
                    f"record {parent!r} > {child!r} appears {n} times",
                )
            )
    for rec in X.faces:
        if rec.regular and rec.incidence not in (1, -1):
            violations.append(
                RuleViolation(
                    "regular-incidence",
                    (rec.parent, rec.child),
                    f"regular record {rec.parent!r} > {rec.child!r} has incidence "
                    f"{rec.incidence}",
                )
            )
    violations.extend(_chain_condition(X))
    violations.sort(key=lambda v: (v.rule, v.cells))
    return ValidationReport(not violations, tuple(violations))


def _chain_condition(X: Complex) -> list[RuleViolation]:
    out = []
    for tau in X.ids():
        if X.dim(tau) < 2:
            continue
        sums: dict[str, int] = {}
        for mid in X.facet_records(tau):
            for low in X.facet_records(mid.child):
                sums[low.child] = sums.get(low.child, 0) + mid.incidence * low.incidence
        for rho, total in sorted(sums.items()):
            if total != 0:
                out.append(
                    RuleViolation(
                        "chain-condition",
                        (tau, rho),
                        f"sum of incidences between {tau!r} and {rho!r} is {total}",
                    )
                )
    return out


def closure(X: Complex, S: Iterable[str]) -> frozenset[str]:
    """All iterated faces of the cells in ``S``, together with ``S``."""
    closed: set[str] = set()
    for cid in S:
        if cid not in X.cells:
            raise ValueError(f"unknown cell id {cid!r}")
        closed |= X.closure_of(cid)
    return frozenset(closed)


def is_subcomplex(X: Complex, S: Iterable[str]) -> bool:
    S = frozenset(S)
    return closure(X, S) == S


def restrict(X: Complex, S: Iterable[str]) -> Complex:
    """The complex induced on a subcomplex cell set ``S``."""
    S = frozenset(S)
    for cid in S:
        if cid not in X.cells:
            raise ValueError(f"unknown cell id {cid!r}")
    cells = [X.cells[cid] for cid in sorted(S)]
    faces = [rec for rec in X.faces if rec.parent in S and rec.child in S]
    return Complex(cells, faces)
