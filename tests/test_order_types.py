"""Every function on a few small CW complexes, up to its order type.

Every verdict, collection, reduction and report compares values of f and
nothing else, so f behaves exactly like any other function that puts the
same weak order on the cells.  Enumerating the weak orders (3, 13, 75 and
541 on 2, 3, 4 and 5 cells) therefore covers every function on these
complexes, not a sample.  On each Morse-Bott order type the Conley report,
the kernel-sum bounds, each set's defect, the Euler identity and the
aggregated report are checked against the independent routes through relative
homology, the direct elimination of the union of the invariant sets, exact
division by 1 + t and evaluation at t = -1.
"""

from itertools import product

import pytest

from morsebott import (
    DiscreteFunction,
    Polynomial,
    betti,
    build_from_incidence,
    build_simplicial,
    check_morse_bott,
    collection_defect,
    conley_index,
    conley_theorem_check,
    equivalence_check,
    euler_index_check,
    isolated_invariant_sets,
    kernel_inequality_check,
    morse_bott_inequalities,
    reduced_boundary,
    validate,
)
from morsebott.cli import report
from morsebott.homology import Z, _assemble
from conftest import division_defect

# Minimal CW structures: one vertex and one cell per nonzero Betti number
# over Q or Z/2.  A 1-cell on one vertex meets it twice with opposite signs
# (incidence 0); a 2-cell attached along the word w meets each 1-cell twice,
# with incidence the exponent sum of that letter in w.  Every such record is
# irregular.  The two-edge disk has two vertices, two edges p -> q and a
# 2-cell attached along a b^-1, so all of its records are regular.
COMPLEXES = {
    "S1": ([("v", 0), ("e", 1)], [("e", "v", 0, False)]),
    "S2": ([("v", 0), ("F", 2)], []),
    "RP2": (
        [("v", 0), ("e", 1), ("F", 2)],
        [("e", "v", 0, False), ("F", "e", 2, False)],  # F along e e
    ),
    "torus": (
        [("v", 0), ("a", 1), ("b", 1), ("T", 2)],
        [("a", "v", 0, False), ("b", "v", 0, False),
         ("T", "a", 0, False), ("T", "b", 0, False)],  # T along a b a^-1 b^-1
    ),
    "klein": (
        [("v", 0), ("a", 1), ("b", 1), ("K", 2)],
        [("a", "v", 0, False), ("b", "v", 0, False),
         ("K", "a", 2, False), ("K", "b", 0, False)],  # K along a b a b^-1
    ),
    "disk": (
        [("p", 0), ("q", 0), ("a", 1), ("b", 1), ("D", 2)],
        [("a", "p", -1, True), ("a", "q", 1, True), ("b", "p", -1, True),
         ("b", "q", 1, True), ("D", "a", 1, True), ("D", "b", -1, True)],
    ),
}

# Morse-Bott order types out of all order types, per complex.
MORSE_BOTT = {"S1": (1, 3), "S2": (3, 3), "RP2": (1, 13), "torus": (3, 75),
              "klein": (3, 75), "disk": (140, 541), "segment": (10, 13)}


def build(name):
    if name == "segment":
        return build_simplicial([("v", "w")])
    return build_from_incidence(*COMPLEXES[name])


def order_types(ids):
    """One function per weak order on ``ids``: the value of a cell is its rank."""
    for ranks in product(range(len(ids)), repeat=len(ids)):
        if set(ranks) == set(range(max(ranks) + 1)):
            yield DiscreteFunction(dict(zip(ids, ranks)))


def direct_kernel_check(X, f):
    """The kernel-sum bounds with every kernel computed by elimination: the
    summed kernels of the invariant sets against the kernel of the boundary
    restricted to their union, assembled without the chain check."""
    sets = isolated_invariant_sets(X, f)
    summed = Polynomial()
    for I in sets:
        summed = summed + Polynomial(betti(reduced_boundary(X, I)).kernel_dims)
    union = frozenset().union(*(I.cells for I in sets))
    whole = Polynomial(betti(_assemble(X, union, Z)).kernel_dims)
    return {k: summed[k] >= whole[k] for k in range(1, max(X.top_dim, 0) + 1)}


@pytest.mark.parametrize("name", sorted(MORSE_BOTT))
def test_every_order_type(name):
    X = build(name)
    assert validate(X).ok
    functions = list(order_types(X.ids()))
    morse_bott = [f for f in functions if check_morse_bott(X, f).ok]
    assert (len(morse_bott), len(functions)) == MORSE_BOTT[name]
    for f in morse_bott:
        sets = isolated_invariant_sets(X, f)
        per_set = conley_theorem_check(X, f).per_set
        assert [entry.id for entry in per_set] == [I.parent for I in sets]
        for I, entry in zip(sets, per_set):
            assert entry.conley_index == conley_index(X, f, I)
            euler = euler_index_check(X, f, I)
            assert euler.ok and entry.euler_ok
            assert (entry.chi_neighborhood, entry.chi_exit, entry.chi_reduced) == (
                euler.chi_neighborhood,
                euler.chi_exit,
                euler.chi_reduced,
            )
            assert equivalence_check(X, I)
            assert division_defect(X, I) == (collection_defect(X, I), 0)
        assert kernel_inequality_check(X, f) == direct_kernel_check(X, f)
        ineq = morse_bott_inequalities(X, f)
        assert ineq.euler_identity == (
            ineq.poincare_sum.evaluate(-1) == ineq.poincare_complex.evaluate(-1)
        )
        assert report(X, f).data["ok"]
