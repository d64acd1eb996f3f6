"""Collections, the discrete Morse-Bott predicate, and reductions.

A collection is a maximal set of cells sharing one function value whose
union of closures is connected.  A function is discrete Morse-Bott when
each cell has at most one strictly cheaper cofacet and at most one strictly
dearer facet outside its own collection, and never one of each.  Removing
the cells that have such witnesses yields the reduced collection, the
discrete stand-in for a critical submanifold.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping

from .complex import Complex

INTERIOR = "interior"
UPWARD = "upward_noncritical"
DOWNWARD = "downward_noncritical"

RULE_IRREGULAR = "irregular-face-value"
RULE_U = "U_exceeds_1"
RULE_D = "D_exceeds_1"
RULE_BOTH = "U_and_D_both_1"


class DiscreteFunction:
    """An exact rational value for every cell id."""

    __slots__ = ("_values",)

    def __init__(self, values: Mapping[str, Fraction | int | str]):
        self._values = {cid: Fraction(v) for cid, v in dict(values).items()}

    @classmethod
    def by_dimension(cls, X: Complex) -> "DiscreteFunction":
        """The trivial discrete Morse function f(cell) = dim(cell)."""
        return cls({cid: Fraction(X.dim(cid)) for cid in X.cells})

    @classmethod
    def constant(cls, X: Complex, value: Fraction | int = 0) -> "DiscreteFunction":
        return cls({cid: Fraction(value) for cid in X.cells})

    def __call__(self, cid: str) -> Fraction:
        return self._values[cid]

    def __contains__(self, cid: str) -> bool:
        return cid in self._values

    def __eq__(self, other: object) -> bool:
        return isinstance(other, DiscreteFunction) and self._values == other._values

    def __repr__(self) -> str:
        return f"DiscreteFunction({len(self._values)} values)"

    def items(self):
        return self._values.items()

    def missing_on(self, X: Complex) -> list[str]:
        return sorted(cid for cid in X.cells if cid not in self._values)


def _require_total(X: Complex, f: DiscreteFunction) -> None:
    missing = f.missing_on(X)
    if missing:
        raise ValueError(f"function undefined on cells {missing}")


@dataclass(frozen=True)
class Collection:
    id: int
    cells: frozenset[str]
    value: Fraction


@dataclass(frozen=True)
class CellClass:
    kind: str
    witness: str | None = None


@dataclass(frozen=True)
class ReducedCollection:
    parent: int
    value: Fraction
    cells: frozenset[str]
    classification: Mapping[str, CellClass]
    complex: Complex = field(compare=False, repr=False)


@dataclass(frozen=True)
class MorseBottViolation:
    cell: str
    rule: str
    witnesses: tuple[str, ...]


@dataclass(frozen=True)
class MorseBottVerdict:
    ok: bool
    violations: tuple[MorseBottViolation, ...]


def collections(X: Complex, f: DiscreteFunction) -> list[Collection]:
    """Partition the cells into maximal same-value, closure-connected sets.

    Two same-value cells are joined whenever their closures share a cell,
    extended transitively; this is path-connectedness of the closure union.
    """
    _require_total(X, f)
    by_value: dict[Fraction, list[str]] = {}
    for cid in X.ids():
        by_value.setdefault(f(cid), []).append(cid)

    out: list[Collection] = []
    for value in sorted(by_value):
        members = by_value[value]
        parent = {cid: cid for cid in members}

        def find(a: str) -> str:
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        seen_at: dict[str, str] = {}
        for cid in members:
            for low in X.closure_of(cid):
                if low in seen_at:
                    ra, rb = find(cid), find(seen_at[low])
                    if ra != rb:
                        parent[ra] = rb
                else:
                    seen_at[low] = cid
        groups: dict[str, set[str]] = {}
        for cid in members:
            groups.setdefault(find(cid), set()).add(cid)
        for root in sorted(groups, key=lambda r: min(groups[r])):
            out.append(Collection(len(out), frozenset(groups[root]), value))
    return out


def _irregular_violations(X: Complex, f: DiscreteFunction) -> list[MorseBottViolation]:
    out = []
    for rec in X.faces:
        if not rec.regular and not f(rec.child) < f(rec.parent):
            out.append(MorseBottViolation(rec.child, RULE_IRREGULAR, (rec.parent,)))
    return out


def check_morse_bott(X: Complex, f: DiscreteFunction) -> MorseBottVerdict:
    """Verify the discrete Morse-Bott conditions cell by cell.

    Per cell, the count of strictly cheaper regular cofacets outside its
    collection and the count of strictly dearer regular facets outside its
    collection must each be at most one, and not both equal one; irregular
    faces must carry strictly smaller values than their parents.  A
    collection shares one value, so such faces always lie outside it.
    """
    return _check_faces(X, f, strict=True)


def check_discrete_morse(X: Complex, f: DiscreteFunction) -> MorseBottVerdict:
    """Forman's conditions: at most one non-increasing regular cofacet and at
    most one non-decreasing regular facet per cell (non-strict comparisons)."""
    return _check_faces(X, f, strict=False)


def _check_faces(X: Complex, f: DiscreteFunction, strict: bool) -> MorseBottVerdict:
    _require_total(X, f)
    below = operator.lt if strict else operator.le
    violations = _irregular_violations(X, f)
    for cid in X.ids():
        ups = sorted(
            rec.parent
            for rec in X.cofacet_records(cid)
            if rec.regular and below(f(rec.parent), f(cid))
        )
        downs = sorted(
            rec.child
            for rec in X.facet_records(cid)
            if rec.regular and below(f(cid), f(rec.child))
        )
        if len(ups) > 1:
            violations.append(MorseBottViolation(cid, RULE_U, tuple(ups)))
        if len(downs) > 1:
            violations.append(MorseBottViolation(cid, RULE_D, tuple(downs)))
        if strict and len(ups) == 1 and len(downs) == 1:
            violations.append(MorseBottViolation(cid, RULE_BOTH, (ups[0], downs[0])))
    violations.sort(key=lambda v: (v.cell, v.rule))
    return MorseBottVerdict(not violations, tuple(violations))


def noncritical_witnesses(
    X: Complex, f: DiscreteFunction, C: Collection
) -> dict[str, tuple[tuple[str, ...], tuple[str, ...]]]:
    """Per cell of C: (cofacets outside C with smaller value,
    facets outside C with larger value), each sorted."""
    out = {}
    for cid in sorted(C.cells):
        ups = tuple(
            sorted(
                rec.parent
                for rec in X.cofacet_records(cid)
                if rec.parent not in C.cells and f(rec.parent) < f(cid)
            )
        )
        downs = tuple(
            sorted(
                rec.child
                for rec in X.facet_records(cid)
                if rec.child not in C.cells and f(rec.child) > f(cid)
            )
        )
        out[cid] = (ups, downs)
    return out


def classify(
    X: Complex, f: DiscreteFunction, C: Collection, cells: Iterable[str] | None = None
) -> dict[str, CellClass]:
    """Label each cell of C as interior, upward or downward noncritical.

    For a discrete Morse-Bott function the witness is unique, and no cell is
    both upward and downward noncritical; both facts are enforced here.
    """
    wanted = sorted(C.cells) if cells is None else sorted(cells)
    outside = [cid for cid in wanted if cid not in C.cells]
    if outside:
        raise ValueError(f"cells {outside} are not members of the collection")
    witnesses = noncritical_witnesses(X, f, C)
    out: dict[str, CellClass] = {}
    for cid in wanted:
        ups, downs = witnesses[cid]
        if ups and downs:
            raise ValueError(
                f"cell {cid!r} is both upward and downward noncritical; "
                "the function is not discrete Morse-Bott"
            )
        if ups:
            out[cid] = CellClass(UPWARD, ups[0])
        elif downs:
            out[cid] = CellClass(DOWNWARD, downs[0])
        else:
            out[cid] = CellClass(INTERIOR)
    return out


def reduce_collection(X: Complex, f: DiscreteFunction, C: Collection) -> ReducedCollection:
    """Drop the upward and downward noncritical cells of C."""
    classification = classify(X, f, C)
    kept = frozenset(
        cid for cid, label in classification.items() if label.kind == INTERIOR
    )
    return ReducedCollection(C.id, C.value, kept, classification, X)


def reduced_collections(
    X: Complex,
    f: DiscreteFunction,
    include_empty: bool = False,
    include_pairs: bool = False,
) -> list[ReducedCollection]:
    """Reduced collections, by default only the nonempty ones that are not
    noncritical pairs (the sets the inequalities sum over)."""
    out = []
    for C in collections(X, f):
        R = reduce_collection(X, f, C)
        if not R.cells and not include_empty:
            continue
        if not include_pairs and is_noncritical_pair(R):
            continue
        out.append(R)
    return out


def is_noncritical_pair(R: ReducedCollection) -> bool:
    """True when the reduced collection is exactly a facet pair sigma < tau."""
    if len(R.cells) != 2:
        return False
    a, b = sorted(R.cells, key=R.complex.dim)
    return any(rec.child == a for rec in R.complex.facet_records(b))


def critical_cells(X: Complex, f: DiscreteFunction) -> frozenset[str]:
    """Cells with no non-increasing cofacet and no non-decreasing facet."""
    _require_total(X, f)
    out = set()
    for cid in X.ids():
        if any(f(rec.parent) <= f(cid) for rec in X.cofacet_records(cid)):
            continue
        if any(f(rec.child) >= f(cid) for rec in X.facet_records(cid)):
            continue
        out.add(cid)
    return frozenset(out)


def perturb(
    X: Complex, f: DiscreteFunction, epsilon: Fraction | int | str = "auto"
) -> DiscreteFunction:
    """Subtract epsilon/(dim + 1) from every value.

    With ``epsilon="auto"`` half the least gap between distinct values is
    used (1 for constant functions), so strict inequalities survive and only
    ties are broken.  The result of a discrete Morse-Bott input is discrete
    Morse with the reduced-collection cells as its critical cells.
    """
    _require_total(X, f)
    if epsilon == "auto":
        values = sorted({f(cid) for cid in X.cells})
        gaps = [b - a for a, b in zip(values, values[1:])]
        eps = min(gaps) / 2 if gaps else Fraction(1)
    else:
        eps = Fraction(epsilon)
    if eps <= 0:
        raise ValueError("epsilon must be positive")
    return DiscreteFunction(
        {cid: f(cid) - eps / (X.dim(cid) + 1) for cid in X.cells}
    )
