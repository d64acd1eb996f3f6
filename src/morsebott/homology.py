"""Exact chain-complex machinery over Z and Z/2.

Boundary operators are stored as sparse columns of ``(row, entry)`` pairs.
One engine serves both rings: it eliminates every +-1 pivot, which is
algebraic discrete Morse reduction and keeps the Betti numbers and, over Z,
the torsion (Harker, Mischaikow, Mrozek and Nanda, "Discrete Morse
theoretic algorithms for computing homology of complexes and maps", 2014).
Over Z the block left without units goes through a hand-rolled Smith normal
form (exact big-integer arithmetic, minimal-absolute-value pivoting); over
Z/2 nothing is left.  The dense Smith normal form and the bit-packed Z/2
rank are kept public as reference implementations.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Iterable, Sequence

from .complex import Complex, _chain_defects, closure, is_subcomplex, restrict

Z = "Z"
Z2 = "Z2"

Matrix = tuple[tuple[int, ...], ...]
Column = tuple[tuple[int, int], ...]


class Polynomial:
    """An integer polynomial in t, coefficients stored lowest degree first."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        cs = [int(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs: tuple[int, ...] = tuple(cs)

    @classmethod
    def monomial(cls, k: int, c: int = 1) -> "Polynomial":
        return cls([0] * k + [c])

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Polynomial) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __add__(self, other: "Polynomial") -> "Polynomial":
        n = max(len(self.coeffs), len(other.coeffs))
        return Polynomial(
            (self[k] + other[k] for k in range(n)),
        )

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        n = max(len(self.coeffs), len(other.coeffs))
        return Polynomial((self[k] - other[k] for k in range(n)))

    def __getitem__(self, k: int) -> int:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else 0

    def __repr__(self) -> str:
        return f"Polynomial({list(self.coeffs)})"

    def evaluate(self, x: int) -> int:
        value = 0
        for c in reversed(self.coeffs):
            value = value * x + c
        return value

    @property
    def is_nonnegative(self) -> bool:
        return all(c >= 0 for c in self.coeffs)

    def divide_by_one_plus_t(self) -> tuple["Polynomial", int]:
        """Quotient and (constant) remainder of division by 1 + t."""
        quotient = [0] * max(len(self.coeffs) - 1, 0)
        carry = 0
        for k in range(len(self.coeffs) - 1, 0, -1):
            quotient[k - 1] = self[k] - carry
            carry = quotient[k - 1]
        remainder = self[0] - carry
        return Polynomial(quotient), remainder

    def pretty(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if k == 0:
                text = str(abs(c))
            else:
                base = "t" if k == 1 else f"t^{k}"
                text = base if abs(c) == 1 else f"{abs(c)}{base}"
            parts.append((c < 0, text))
        neg, text = parts[0]
        rendered = ("-" if neg else "") + text
        for neg, text in parts[1:]:
            rendered += (" - " if neg else " + ") + text
        return rendered


@dataclass(frozen=True)
class SNFResult:
    """Nonzero invariant factors d1 | d2 | ... of an integer matrix."""

    factors: tuple[int, ...]

    @property
    def rank(self) -> int:
        return len(self.factors)


def smith_normal_form(matrix: Sequence[Sequence[int]]) -> SNFResult:
    """Invariant factors by elementary row/column operations.

    The pivot at each step is the entry of least absolute value (ties broken
    by position), which keeps intermediate growth small and the procedure
    deterministic.
    """
    A = [list(map(int, row)) for row in matrix]
    m = len(A)
    n = len(A[0]) if m else 0
    if any(len(row) != n for row in A):
        raise ValueError("ragged matrix")
    factors: list[int] = []
    t = 0
    while t < min(m, n):
        pivot = _min_abs_position(A, t, m, n)
        if pivot is None:
            break
        pi, pj = pivot
        A[t], A[pi] = A[pi], A[t]
        if pj != t:
            for row in A:
                row[t], row[pj] = row[pj], row[t]
        if A[t][t] < 0:
            A[t] = [-x for x in A[t]]
        while True:
            restart = False
            for i in range(t + 1, m):
                if A[i][t]:
                    q = A[i][t] // A[t][t]
                    if q:
                        A[i] = [a - q * b for a, b in zip(A[i], A[t])]
                    if A[i][t]:  # 0 < remainder < pivot: promote it
                        A[t], A[i] = A[i], A[t]
                        restart = True
            if restart:
                continue
            for j in range(t + 1, n):
                if A[t][j]:
                    q = A[t][j] // A[t][t]
                    if q:
                        for row in A:
                            row[j] -= q * row[t]
                    if A[t][j]:
                        for row in A:
                            row[t], row[j] = row[j], row[t]
                        restart = True
            if restart:
                continue
            offender = None
            for i in range(t + 1, m):
                for j in range(t + 1, n):
                    if A[i][j] % A[t][t]:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            A[t] = [a + b for a, b in zip(A[t], A[offender])]
        factors.append(A[t][t])
        t += 1
    return SNFResult(tuple(factors))


def _min_abs_position(A, t, m, n):
    best = None
    best_abs = None
    for i in range(t, m):
        for j in range(t, n):
            v = A[i][j]
            if v and (best_abs is None or abs(v) < best_abs):
                best, best_abs = (i, j), abs(v)
    return best


def rank_mod2(matrix: Sequence[Sequence[int]]) -> int:
    """Rank over the two-element field, rows packed as bit masks."""
    rows = []
    for row in matrix:
        bits = 0
        for j, v in enumerate(row):
            if v % 2:
                bits |= 1 << j
        if bits:
            rows.append(bits)
    rank = 0
    pivots: list[int] = []
    for bits in rows:
        for p in pivots:
            if bits & (p & -p):
                bits ^= p
        if bits:
            pivots.append(bits)
            rank += 1
    return rank


def invariant_factors(
    columns: Iterable[Iterable[tuple[int, int]]], ring: str = Z
) -> tuple[int, ...]:
    """Nonzero invariant factors of a sparse integer matrix; over Z/2, one
    factor 1 per unit of rank.

    ``columns`` gives each column as ``(row, entry)`` pairs with distinct
    rows.  Unit pivots go first, which is algebraic discrete Morse
    reduction: take the +-1 entry whose row has the fewest nonzeros, fold
    its column into every other column that meets its row, and drop its row
    and column.  Each step splits off a factor 1 and leaves an equivalent
    smaller matrix, so over Z the factors are one 1 per step followed by
    the Smith normal form of the block left without units.  Over Z/2 every
    nonzero is a unit and nothing is left.
    """
    mod2 = ring == Z2
    cols: dict[int, dict[int, int]] = {}
    rows: dict[int, set[int]] = {}
    for j, column in enumerate(columns):
        col = {i: v for i, v in column if (v % 2 if mod2 else v)}
        if mod2:
            col = dict.fromkeys(col, 1)
        if col:
            cols[j] = col
            for i in col:
                rows.setdefault(i, set()).add(j)
    # A row is pushed again after every change, so the entry whose count
    # matches the row's current count sees it as it is; older ones are skipped.
    heap = [(len(js), i) for i, js in rows.items()]
    heapq.heapify(heap)
    eliminated = 0
    while heap:
        count, i = heapq.heappop(heap)
        js = rows.get(i)
        if js is None or len(js) != count:
            continue
        units = [j for j in js if cols[j][i] in (1, -1)]
        if not units:
            continue
        p = min(units, key=lambda j: (len(cols[j]), j))
        pivot = cols.pop(p)
        unit = pivot[i]
        del rows[i]
        for r in pivot:
            if r != i:
                rows[r].discard(p)
        for j in js:
            if j == p:
                continue
            col = cols[j]
            c = col[i] * unit
            for r, a in pivot.items():
                v = col.get(r, 0) - c * a
                if mod2:
                    v %= 2
                if v:
                    if r not in col:
                        rows[r].add(j)
                    col[r] = v
                elif r in col:
                    del col[r]
                    if r != i:
                        rows[r].discard(j)
            if not col:
                del cols[j]
        for r in pivot:
            if r == i:
                continue
            if rows[r]:
                heapq.heappush(heap, (len(rows[r]), r))
            else:
                del rows[r]
        eliminated += 1
    if not cols:
        return (1,) * eliminated
    block = [[cols[j].get(i, 0) for j in sorted(cols)] for i in sorted(rows)]
    return (1,) * eliminated + smith_normal_form(block).factors


@dataclass(frozen=True)
class ChainComplex:
    """Graded bases of cell ids with sparse boundary columns D_k: degree k -> k-1.

    ``columns[k][j]`` is the boundary of ``bases[k][j]``: the sorted
    ``(i, entry)`` pairs of its nonzero entries, where ``i`` indexes
    ``bases[k-1]``.  Entries are reduced mod 2 over Z/2, and every column of
    degree 0 is empty.  ``dense(k)`` and ``matrices`` derive the same
    operator as tuples of integer rows.
    """

    ring: str
    bases: tuple[tuple[str, ...], ...]
    columns: tuple[tuple[Column, ...], ...]

    @property
    def top(self) -> int:
        return len(self.bases) - 1

    def n_cells(self, k: int) -> int:
        return len(self.bases[k]) if 0 <= k <= self.top else 0

    def dense(self, k: int) -> Matrix:
        """D_k with one row per cell of ``bases[k-1]`` (none for k = 0) and
        one column per cell of ``bases[k]``."""
        grid = [[0] * self.n_cells(k) for _ in range(self.n_cells(k - 1))]
        for j, column in enumerate(self.columns[k]):
            for i, v in column:
                grid[i][j] = v
        return tuple(map(tuple, grid))

    @property
    def matrices(self) -> tuple[Matrix, ...]:
        return tuple(self.dense(k) for k in range(self.top + 1))


@dataclass(frozen=True)
class HomologySummary:
    ring: str
    betti: tuple[int, ...]
    torsion: tuple[tuple[int, ...], ...]
    kernel_dims: tuple[int, ...]


def _assemble(X: Complex, cells: Iterable[str], ring: str) -> ChainComplex:
    """Bases and sparse boundary columns of the boundary restricted to
    ``cells``.

    Entries exist only between cells of the set; no chain-property check is
    performed here.
    """
    if ring not in (Z, Z2):
        raise ValueError(f"unknown coefficient ring {ring!r}")
    cells = frozenset(cells)
    top = max((X.dim(c) for c in cells), default=-1)
    bases = tuple(
        tuple(sorted(c for c in cells if X.dim(c) == k)) for k in range(top + 1)
    )
    columns = []
    for k, base in enumerate(bases):
        below = {cid: i for i, cid in enumerate(bases[k - 1])} if k else {}
        degree = []
        for cid in base:
            entries: dict[int, int] = {}
            for rec in X.facet_records(cid):
                i = below.get(rec.child)
                if i is not None:
                    entries[i] = entries.get(i, 0) + rec.incidence
            if ring == Z2:
                entries = {i: v % 2 for i, v in entries.items()}
            degree.append(tuple(sorted((i, v) for i, v in entries.items() if v)))
        columns.append(tuple(degree))
    return ChainComplex(ring, bases, tuple(columns))


def _checked(X: Complex, cells: Iterable[str], ring: str, what: str) -> ChainComplex:
    """``_assemble`` on ``cells``, raising on the least (dim, tau, rho) defect
    of the chain condition there; over Z/2 only odd sums count."""
    cells = frozenset(cells)
    if unknown := cells.difference(X.cells):
        raise ValueError(f"unknown cell id {min(unknown)!r}")
    cc = _assemble(X, cells, ring)
    bad = [
        (X.dim(tau), tau, rho)
        for tau, rho, total in _chain_defects(X, cells)
        if ring == Z or total % 2
    ]
    if bad:
        _, tau, rho = min(bad)
        raise ValueError(
            f"{what}: boundary does not square to zero between {tau!r} and {rho!r}"
        )
    return cc


def chain_complex(X: Complex, ring: str = Z) -> ChainComplex:
    """The full boundary operator of the complex over Z or Z/2."""
    return _checked(X, X.cells, ring, "chain complex")


def relative_chain_complex(X: Complex, A: Iterable[str], ring: str = Z) -> ChainComplex:
    """Quotient complex on the cells outside the subcomplex ``A``."""
    A = frozenset(A)
    if not is_subcomplex(X, A):
        raise ValueError("relative part is not a subcomplex")
    return _checked(X, X.cells.keys() - A, ring, "relative chain complex")


def reduced_boundary(X: Complex, R, ring: str = Z) -> ChainComplex:
    """Boundary operator restricted to the cells of a reduced collection."""
    return _checked(X, getattr(R, "cells", R), ring, "reduced boundary")


def betti(cc: ChainComplex) -> HomologySummary:
    """Free ranks, torsion factors, and kernel dimensions per degree.

    Over Z the "dimension" of a homology group means its free rank; torsion
    is reported separately as the invariant factors greater than one.
    """
    factors = [invariant_factors(column, cc.ring) for column in cc.columns]
    factors.append(())  # no boundary from above the top degree
    betti_numbers = []
    kernel_dims = []
    torsion = []
    for k in range(cc.top + 1):
        ker = cc.n_cells(k) - len(factors[k])
        kernel_dims.append(ker)
        betti_numbers.append(ker - len(factors[k + 1]))
        torsion.append(tuple(d for d in factors[k + 1] if d > 1))
    return HomologySummary(
        cc.ring, tuple(betti_numbers), tuple(torsion), tuple(kernel_dims)
    )


def poincare_polynomial(summary: HomologySummary) -> Polynomial:
    return Polynomial(summary.betti)


def euler_characteristic(summary: HomologySummary) -> int:
    return poincare_polynomial(summary).evaluate(-1)


def equivalence_check(X: Complex, R) -> bool:
    """Compare the restricted-boundary homology of a reduced collection with
    the relative homology of (closure, closure minus collection)."""
    cells = frozenset(getattr(R, "cells", R))
    direct = betti(reduced_boundary(X, cells, Z))
    closed = closure(X, cells)
    rel = betti(relative_chain_complex(restrict(X, closed), closed - cells, Z))
    if Polynomial(direct.betti) != Polynomial(rel.betti):
        return False
    width = max(len(direct.torsion), len(rel.torsion))
    pad = lambda t: tuple(t) + ((),) * (width - len(t))
    return pad(direct.torsion) == pad(rel.torsion)
