"""One analysis per (X, f), and the Morse-Bott inequalities read from it.

The inequalities and their Conley form are sums over the same reduced
collections of the same restricted-boundary homology.  :class:`Analysis`
computes these facts once per (X, f); the inequality and kernel-sum reports,
and the public functions that return them, are views on it, and the Conley
report reads the inequality report.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .complex import Complex, FaceRecord
from .conley import ConleyReport, IndexPair, InvariantSetEntry, index_pair
from .flow import ArrowSet, OrbitList, _arrows, closed_orbits, crossing_orbits
from .homology import (
    HomologySummary,
    Polynomial,
    Z,
    betti,
    chain_complex,
    poincare_polynomial,
    reduced_boundary,
)
from .morse import (
    Collection,
    DiscreteFunction,
    MorseBottVerdict,
    ReducedCollection,
    _per_cell,
    _reduction,
    _verdict,
    _witnesses,
    against,
    collections,
    is_noncritical_pair,
)


@dataclass(frozen=True)
class CollectionEntry:
    id: int
    value: Fraction
    cell_counts: tuple[int, ...]
    poincare: Polynomial
    defect: Polynomial


@dataclass(frozen=True)
class InequalityReport:
    per_collection: tuple[CollectionEntry, ...]
    poincare_complex: Polynomial
    poincare_sum: Polynomial
    correction: Polynomial
    divisible: bool
    nonneg: bool
    euler_identity: bool

    @property
    def ok(self) -> bool:
        return self.divisible and self.nonneg and self.euler_identity


def _cell_counts(R: ReducedCollection) -> tuple[int, ...]:
    top = max((R.complex.dim(c) for c in R.cells), default=-1)
    counts = [0] * (top + 1)
    for cid in R.cells:
        counts[R.complex.dim(cid)] += 1
    return tuple(counts)


def collection_defect(X: Complex, R: ReducedCollection) -> Polynomial:
    """The defect r(t) with counts(t) = P_t + (1 + t) r(t).

    Its coefficient of t^(k-1) is the rank of the boundary in degree k, the
    cell count minus the kernel dimension (rank-nullity), so r(t) is
    nonnegative.  The tests' ``division_defect`` divides counts(t) - P_t by
    1 + t as the independent route.
    """
    if not R.cells:
        raise ValueError("empty reduced collection")
    return _defect(_cell_counts(R), betti(reduced_boundary(X, R, Z)))


def _defect(counts: tuple[int, ...], summary: HomologySummary) -> Polynomial:
    return Polynomial(counts[k] - summary.kernel_dims[k] for k in range(1, len(counts)))


class Analysis:
    """Every fact about one function f on one complex X, each computed once.

    Properties are cached for the life of the instance.  ``arrows`` replaces
    the vector field of f; ``max_orbits`` caps the orbit search.
    """

    def __init__(self, X: Complex, f: DiscreteFunction, arrows=None, max_orbits=1000):
        self.X, self.f, self.max_orbits = X, f, max_orbits
        if arrows is not None:
            self.arrows = arrows  # shadows the cached property

    @cached_property
    def against(self) -> list[tuple[FaceRecord, bool]]:
        """The one scan of the face records; both verdicts and the arrows read it."""
        return against(self.X, self.f)

    @cached_property
    def verdict(self) -> MorseBottVerdict:
        return _verdict(self.against, strict=True)

    @cached_property
    def discrete_morse(self) -> MorseBottVerdict:
        return _verdict(self.against, strict=False)

    @cached_property
    def collections(self) -> list[Collection]:
        return collections(self.X, self.f)

    @cached_property
    def reduced(self) -> list[ReducedCollection]:
        """The reductions of all collections, empty ones and pairs included."""
        ups, downs = _per_cell(rec for rec, strict in self.against if strict)
        return [_reduction(self.X, C, _witnesses(ups, downs, C.cells)) for C in self.collections]

    @cached_property
    def invariant_sets(self) -> list[ReducedCollection]:
        """Nonempty reduced collections that are not noncritical pairs (the
        sets the inequalities sum over); raises unless f is Morse-Bott."""
        violations = self.verdict.violations
        if violations:
            raise ValueError(
                f"function is not discrete Morse-Bott ({len(violations)} violations, "
                f"first: {violations[0].rule} at {violations[0].cell!r})"
            )
        return [R for R in self.reduced if R.cells and not is_noncritical_pair(R)]

    @cached_property
    def homology(self) -> HomologySummary:
        """Z homology of X."""
        return betti(chain_complex(self.X, Z))

    @cached_property
    def poincare(self) -> Polynomial:
        return poincare_polynomial(self.homology)

    @cached_property
    def arrows(self) -> ArrowSet:
        return _arrows(self.against)

    @cached_property
    def orbits(self) -> OrbitList:
        return closed_orbits(self.arrows, self.X, self.max_orbits)

    @cached_property
    def cross_orbits(self) -> OrbitList:
        return crossing_orbits(self.orbits, self.collections)

    @cached_property
    def inequalities(self) -> InequalityReport:
        entries = []
        total = Polynomial()
        for R in self.invariant_sets:
            summary = betti(reduced_boundary(self.X, R.cells, Z))
            poly = poincare_polynomial(summary)
            counts = _cell_counts(R)
            entries.append(
                CollectionEntry(R.parent, R.value, counts, poly, _defect(counts, summary))
            )
            total = total + poly
        correction, remainder = (total - self.poincare).divide_by_one_plus_t()
        return InequalityReport(
            per_collection=tuple(entries),
            poincare_complex=self.poincare,
            poincare_sum=total,
            correction=correction,
            divisible=remainder == 0,
            nonneg=correction.is_nonnegative,
            euler_identity=total.evaluate(-1) == self.poincare.evaluate(-1),
        )

    @cached_property
    def kernel_inequalities(self) -> dict[int, bool]:
        # True by construction: the cells of an invariant set are interior, so
        # a face record between two sets strictly lowers f.  Ordered by value,
        # the boundary on their union is block-triangular with the sets'
        # operators on the diagonal, so its kernel is at most the summed
        # kernels.  Reading the inequality report keeps its errors.
        self.inequalities
        return {k: True for k in range(1, max(self.X.top_dim, 0) + 1)}

    @cached_property
    def index_pairs(self) -> list[IndexPair]:
        return [index_pair(self.X, self.f, I) for I in self.invariant_sets]

    @cached_property
    def conley(self) -> ConleyReport:
        # index_pair checked N - E = I, so the relative homology of (N, E) is
        # that of I, its inequality entry.  reduced_boundary checked the chain
        # condition on I, so chi(I) from its Betti numbers is its signed cell
        # count (Euler-Poincare), and chi(N) - chi(E) = chi(I) holds.
        pairs, ineq = self.index_pairs, self.inequalities  # pairs first: the same first error
        entries = []
        for pair, entry in zip(pairs, ineq.per_collection):
            chi_n = sum((-1) ** self.X.dim(c) for c in pair.neighborhood)
            chi = entry.poincare.evaluate(-1)
            entries.append(
                InvariantSetEntry(entry.id, entry.poincare, chi_n, chi_n - chi, chi, euler_ok=True)
            )
        return ConleyReport(
            per_set=tuple(entries),
            poincare_complex=ineq.poincare_complex,
            conley_sum=ineq.poincare_sum,
            correction=ineq.correction,
            divisible=ineq.divisible,
            nonneg=ineq.nonneg,
            agrees_with_reduced=True,  # both sums are the inequality report's
        )


def morse_bott_inequalities(X: Complex, f: DiscreteFunction) -> InequalityReport:
    """Sum the reduced-collection polynomials and split off (1 + t) R(t).

    Only nonempty reduced collections that are not noncritical pairs enter
    the sum.  Divisibility failure or a negative coefficient is reported in
    the verdict flags, never raised.
    """
    return Analysis(X, f).inequalities


def kernel_inequality_check(X: Complex, f: DiscreteFunction) -> dict[int, bool]:
    """Per degree k >= 1, whether the summed kernel dimensions of the
    invariant-set boundary operators bound the kernel of the boundary
    restricted to their union.

    Ordered by value, that operator is block-triangular with the per-set
    operators on the diagonal, so every entry is True by construction.  It
    raises where :func:`morse_bott_inequalities` raises.  The order-type
    tests' ``direct_kernel_check`` eliminates the union as the independent
    route.
    """
    return Analysis(X, f).kernel_inequalities


def euler_summary(report: InequalityReport) -> tuple[int, int, bool]:
    """(Euler number of the complex, summed reduced-collection Euler numbers,
    whether they agree)."""
    chi_complex = report.poincare_complex.evaluate(-1)
    chi_sum = report.poincare_sum.evaluate(-1)
    return chi_complex, chi_sum, chi_complex == chi_sum
