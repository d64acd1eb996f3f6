"""Collections, the discrete Morse-Bott predicate, and reductions.

A collection is a maximal set of cells sharing one function value whose
union of closures is connected.  A function is discrete Morse-Bott when
each cell has at most one strictly cheaper cofacet and at most one strictly
dearer facet outside its own collection, and never one of each.  Removing
the cells that have such witnesses yields the reduced collection, the
discrete stand-in for a critical submanifold.

Every per-record condition is a view on one list, :func:`against`: the face
records with f(child) >= f(parent), each marked strict or not.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping

from .complex import Complex, FaceRecord

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
    Each member's closure is walked down to the cells an earlier walk owns,
    whose whole closures are already owned, so every meeting is found.
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

        owner: dict[str, str] = {}
        for cid in members:
            stack = [cid]
            while stack:
                low = stack.pop()
                if low in owner:
                    parent[find(cid)] = find(owner[low])
                else:
                    owner[low] = cid
                    stack += [rec.child for rec in X.facet_records(low)]
        groups: dict[str, set[str]] = {}
        for cid in members:
            groups.setdefault(find(cid), set()).add(cid)
        for root in sorted(groups, key=lambda r: min(groups[r])):
            out.append(Collection(len(out), frozenset(groups[root]), value))
    return out


def against(
    X: Complex, f: DiscreteFunction, records: Iterable[FaceRecord] | None = None
) -> list[tuple[FaceRecord, bool]]:
    """The face records (all of X's by default) with f(child) >= f(parent),
    each paired with whether f(child) > f(parent), in their given order."""
    if records is None:
        _require_total(X, f)
        records = X.faces
    return [(rec, c > p) for rec in records if (c := f(rec.child)) >= (p := f(rec.parent))]


def _per_cell(records: Iterable[FaceRecord]):
    """(cell -> its parents, cell -> its children) over the given records."""
    ups: dict[str, list[str]] = {}
    downs: dict[str, list[str]] = {}
    for rec in records:
        ups.setdefault(rec.child, []).append(rec.parent)
        downs.setdefault(rec.parent, []).append(rec.child)
    return ups, downs


def _verdict(pairs: list[tuple[FaceRecord, bool]], strict: bool) -> MorseBottVerdict:
    """The Morse-Bott (``strict``) or Forman verdict on the list of
    :func:`against`: its irregular records, plus its regular records (only
    the strict ones when ``strict``) counted per cell."""
    irregular = [rec for rec, _ in pairs if not rec.regular]
    violations = [MorseBottViolation(r.child, RULE_IRREGULAR, (r.parent,)) for r in irregular]
    ups, downs = _per_cell(rec for rec, s in pairs if rec.regular and (s or not strict))
    for rule, groups in ((RULE_U, ups), (RULE_D, downs)):
        many = {cid: ends for cid, ends in groups.items() if len(ends) > 1}
        violations += [MorseBottViolation(c, rule, tuple(sorted(e))) for c, e in many.items()]
    if strict:
        both = [cid for cid in ups.keys() & downs.keys() if len(ups[cid]) == len(downs[cid]) == 1]
        violations += [MorseBottViolation(c, RULE_BOTH, (ups[c][0], downs[c][0])) for c in both]
    violations.sort(key=lambda v: (v.cell, v.rule))
    return MorseBottVerdict(not violations, tuple(violations))


def check_morse_bott(X: Complex, f: DiscreteFunction) -> MorseBottVerdict:
    """Verify the discrete Morse-Bott conditions cell by cell.

    Per cell, the count of strictly cheaper regular cofacets outside its
    collection and the count of strictly dearer regular facets outside its
    collection must each be at most one, and not both equal one; irregular
    faces must carry strictly smaller values than their parents.  A
    collection shares one value, so such faces always lie outside it.
    """
    return _verdict(against(X, f), strict=True)


def check_discrete_morse(X: Complex, f: DiscreteFunction) -> MorseBottVerdict:
    """Forman's conditions: at most one non-increasing regular cofacet and at
    most one non-decreasing regular facet per cell (non-strict comparisons)."""
    return _verdict(against(X, f), strict=False)


def _witnesses(ups, downs, cells: Iterable[str]):
    """Per cell, in sorted order, its sorted entries in the :func:`_per_cell` maps."""
    return {
        cid: (tuple(sorted(ups.get(cid, ()))), tuple(sorted(downs.get(cid, ()))))
        for cid in sorted(cells)
    }


def _labels(witnesses) -> dict[str, CellClass]:
    out: dict[str, CellClass] = {}
    for cid, (ups, downs) in witnesses.items():
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


def _reduction(X: Complex, C: Collection, witnesses) -> ReducedCollection:
    labels = _labels(witnesses)
    kept = frozenset(cid for cid, label in labels.items() if label.kind == INTERIOR)
    return ReducedCollection(C.id, C.value, kept, labels, X)


def noncritical_witnesses(
    X: Complex, f: DiscreteFunction, C: Collection
) -> dict[str, tuple[tuple[str, ...], tuple[str, ...]]]:
    """Per cell of C: (cofacets outside C with smaller value,
    facets outside C with larger value), each sorted.

    These are the strict records of :func:`against` incident to C; C shares
    one value, so a strict record never has both ends in C.
    """
    incident = (rec for cid in C.cells for rec in X.cofacet_records(cid) + X.facet_records(cid))
    ups, downs = _per_cell(rec for rec, strict in against(X, f, incident) if strict)
    return _witnesses(ups, downs, C.cells)


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
    return _labels({cid: witnesses[cid] for cid in wanted})


def reduce_collection(X: Complex, f: DiscreteFunction, C: Collection) -> ReducedCollection:
    """Drop the upward and downward noncritical cells of C."""
    return _reduction(X, C, noncritical_witnesses(X, f, C))


def reduced_collections(
    X: Complex,
    f: DiscreteFunction,
    include_empty: bool = False,
    include_pairs: bool = False,
) -> list[ReducedCollection]:
    """Reduced collections, by default only the nonempty ones that are not
    noncritical pairs (the sets the inequalities sum over)."""
    from .analysis import Analysis  # analysis imports this module

    return [
        R
        for R in Analysis(X, f).reduced
        if (R.cells or include_empty) and (include_pairs or not is_noncritical_pair(R))
    ]


def is_noncritical_pair(R: ReducedCollection) -> bool:
    """True when the reduced collection is exactly a facet pair sigma < tau."""
    if len(R.cells) != 2:
        return False
    a, b = sorted(R.cells, key=R.complex.dim)
    return any(rec.child == a for rec in R.complex.facet_records(b))


def critical_cells(X: Complex, f: DiscreteFunction) -> frozenset[str]:
    """Cells with no non-increasing cofacet and no non-decreasing facet: the
    cells on no record of :func:`against`."""
    touched = {cid for rec, _ in against(X, f) for cid in (rec.child, rec.parent)}
    return frozenset(X.cells.keys() - touched)


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
