"""Index pairs and homological Conley indices for reduced collections.

The Conley report (``Analysis.conley``) builds one index pair (N, E) per
isolated invariant set I.  ``index_pair`` checks N - E = I, so the report reads
I's Conley index from the inequality report; chi(N) and chi(E) are signed cell
counts (Euler-Poincare), so ``euler_ok`` holds by construction.
``conley_index`` and ``euler_index_check`` keep the independent route through
``restrict`` and relative homology; ``tests/test_order_types.py`` compares
the report with them on every order type.
"""

from __future__ import annotations

from dataclasses import dataclass

from .complex import Complex, closure, is_subcomplex, restrict
from .homology import (
    Polynomial,
    Z,
    betti,
    chain_complex,
    euler_characteristic,
    poincare_polynomial,
    reduced_boundary,
    relative_chain_complex,
)
from .morse import DiscreteFunction, ReducedCollection


@dataclass(frozen=True)
class IndexPair:
    invariant: ReducedCollection
    neighborhood: frozenset[str]
    exit_set: frozenset[str]
    exit_cells: frozenset[str]


@dataclass(frozen=True)
class InvariantSetEntry:
    id: int
    conley_index: Polynomial
    chi_neighborhood: int
    chi_exit: int
    chi_reduced: int
    euler_ok: bool


@dataclass(frozen=True)
class ConleyReport:
    per_set: tuple[InvariantSetEntry, ...]
    poincare_complex: Polynomial
    conley_sum: Polynomial
    correction: Polynomial
    divisible: bool
    nonneg: bool
    agrees_with_reduced: bool

    @property
    def ok(self) -> bool:
        return (
            self.divisible
            and self.nonneg
            and self.agrees_with_reduced
            and all(entry.euler_ok for entry in self.per_set)
        )


@dataclass(frozen=True)
class EulerIndexVerdict:
    ok: bool
    chi_reduced: int
    chi_neighborhood: int
    chi_exit: int


def isolated_invariant_sets(X: Complex, f: DiscreteFunction) -> list[ReducedCollection]:
    """Nonempty reduced collections that are not noncritical pairs."""
    from .analysis import Analysis  # analysis imports this module

    return Analysis(X, f).invariant_sets


def index_pair(X: Complex, f: DiscreteFunction, I: ReducedCollection) -> IndexPair:
    """Isolating neighborhood (the closure of I) and exit set.

    The exit set collects the closure cells outside I whose value does not
    exceed the collection value; for a discrete Morse-Bott function this is
    all of N minus I, and E is a subcomplex (N is one, being a closure).
    Either failing signals non-Morse-Bott input.
    """
    N = closure(X, I.cells)
    E = frozenset(cid for cid in N - I.cells if f(cid) <= I.value)
    if E != N - I.cells:
        raise ValueError(
            "exit set is not the whole boundary part; function is not discrete Morse-Bott"
        )
    if not is_subcomplex(X, E):
        raise ValueError("index pair members are not subcomplexes")
    exit_cells = frozenset(cid for cid in E if f(cid) == I.value)
    return IndexPair(I, N, E, exit_cells)


def conley_index(X: Complex, f: DiscreteFunction, I: ReducedCollection) -> Polynomial:
    """Poincare polynomial of the relative homology of the index pair."""
    pair = index_pair(X, f, I)
    inside = restrict(X, pair.neighborhood)
    return poincare_polynomial(betti(relative_chain_complex(inside, pair.exit_set, Z)))


def euler_index_check(X: Complex, f: DiscreteFunction, I: ReducedCollection) -> EulerIndexVerdict:
    """chi(reduced collection) against chi(N) - chi(E), everything over Z."""
    pair = index_pair(X, f, I)
    chi_n = euler_characteristic(betti(chain_complex(restrict(X, pair.neighborhood), Z)))
    chi_e = (
        euler_characteristic(betti(chain_complex(restrict(X, pair.exit_set), Z)))
        if pair.exit_set
        else 0
    )
    chi_red = euler_characteristic(betti(reduced_boundary(X, I, Z)))
    return EulerIndexVerdict(chi_red == chi_n - chi_e, chi_red, chi_n, chi_e)


def conley_theorem_check(X: Complex, f: DiscreteFunction) -> ConleyReport:
    """Assemble the summed Conley indices and split off (1 + t) R(t)."""
    from .analysis import Analysis

    return Analysis(X, f).conley
