import pytest

from morsebott import (
    DiscreteFunction,
    Polynomial,
    build_simplicial,
    closure,
    collections,
    conley_index,
    conley_theorem_check,
    euler_index_check,
    index_pair,
    isolated_invariant_sets,
    morse_bott_inequalities,
)
from morsebott.morse import UPWARD


def invariant_set_containing(X, f, cid):
    return next(I for I in isolated_invariant_sets(X, f) if cid in I.cells)


class TestIsolatedInvariantSets:
    def test_triangle_has_five(self, triangle):
        sets = isolated_invariant_sets(triangle, DiscreteFunction.by_dimension(triangle))
        assert sorted(sorted(I.cells) for I in sets) == [
            ["a"],
            ["a-b", "a-c", "b-c"],
            ["a-b-c"],
            ["b"],
            ["c"],
        ]

    def test_segment_pair_excluded(self, segment, segment_function):
        sets = isolated_invariant_sets(segment, segment_function)
        assert [sorted(I.cells) for I in sets] == [["w"]]

    def test_constant_circle_is_one_set(self, hollow_triangle):
        sets = isolated_invariant_sets(
            hollow_triangle, DiscreteFunction.constant(hollow_triangle)
        )
        assert len(sets) == 1 and len(sets[0].cells) == 6


class TestIndexPair:
    def test_singleton_top_cell(self, triangle):
        f = DiscreteFunction.by_dimension(triangle)
        I = invariant_set_containing(triangle, f, "a-b-c")
        pair = index_pair(triangle, f, I)
        assert pair.neighborhood == frozenset(triangle.ids())
        assert pair.exit_set == frozenset(triangle.ids()) - {"a-b-c"}
        assert pair.exit_cells == frozenset()

    def test_edge_collection(self, triangle):
        f = DiscreteFunction.by_dimension(triangle)
        I = invariant_set_containing(triangle, f, "a-b")
        pair = index_pair(triangle, f, I)
        assert pair.neighborhood == frozenset({"a", "b", "c", "a-b", "a-c", "b-c"})
        assert pair.exit_set == frozenset({"a", "b", "c"})

    def test_whole_circle_has_empty_exit(self, hollow_triangle):
        f = DiscreteFunction.constant(hollow_triangle)
        I = isolated_invariant_sets(hollow_triangle, f)[0]
        pair = index_pair(hollow_triangle, f, I)
        assert pair.exit_set == frozenset()

    def test_exit_cells_are_upward_noncritical(self, worked_example):
        X, f = worked_example
        I = invariant_set_containing(X, f, "a-b-c")
        pair = index_pair(X, f, I)
        upward = {
            cid
            for cid, label in I.classification.items()
            if label.kind == UPWARD and cid in pair.neighborhood
        }
        assert pair.exit_cells == upward
        assert pair.exit_cells  # the worked example does have exit cells


class TestConleyIndex:
    def test_singleton_cells_give_monomials(self):
        # k-simplex with the dimension function, for k = 0..3
        names = ["a", "b", "c", "d"]
        for k in range(4):
            X = build_simplicial([tuple(names[: k + 1])])
            f = DiscreteFunction.by_dimension(X)
            top = "-".join(names[: k + 1])
            I = invariant_set_containing(X, f, top)
            assert conley_index(X, f, I) == Polynomial.monomial(k)

    def test_edge_collection(self, triangle):
        f = DiscreteFunction.by_dimension(triangle)
        I = invariant_set_containing(triangle, f, "a-b")
        assert conley_index(triangle, f, I) == Polynomial([0, 3])

    def test_whole_circle(self, hollow_triangle):
        f = DiscreteFunction.constant(hollow_triangle)
        I = isolated_invariant_sets(hollow_triangle, f)[0]
        assert conley_index(hollow_triangle, f, I) == Polynomial([1, 1])

    def test_quotient_identity_for_singletons(self, tetrahedron):
        # adding the collapsed base point back to P_t(N, E) gives the sphere
        f = DiscreteFunction.by_dimension(tetrahedron)
        I = invariant_set_containing(tetrahedron, f, "a-b-c-d")
        sphere = Polynomial([1]) + conley_index(tetrahedron, f, I)
        assert sphere == Polynomial([1, 0, 0, 1])


class TestConleyTheorem:
    def test_segment(self, segment, segment_function):
        report = conley_theorem_check(segment, segment_function)
        assert report.conley_sum == Polynomial([1])
        assert report.poincare_complex == Polynomial([1])
        assert report.correction == Polynomial()
        assert report.ok

    def test_triangle(self, triangle):
        report = conley_theorem_check(triangle, DiscreteFunction.by_dimension(triangle))
        assert report.conley_sum == Polynomial([3, 3, 1])
        assert report.correction == Polynomial([2, 1])
        assert report.ok

    def test_constant_circle(self, hollow_triangle):
        report = conley_theorem_check(
            hollow_triangle, DiscreteFunction.constant(hollow_triangle)
        )
        assert report.conley_sum == Polynomial([1, 1])
        assert report.correction == Polynomial()
        assert report.ok

    def test_agrees_with_inequality_report(self, worked_example):
        X, f = worked_example
        assert (
            conley_theorem_check(X, f).conley_sum
            == morse_bott_inequalities(X, f).poincare_sum
        )


class TestEulerIndexCheck:
    def test_singleton_disc_minus_sphere(self, tetrahedron):
        f = DiscreteFunction.by_dimension(tetrahedron)
        I = invariant_set_containing(tetrahedron, f, "a-b-c-d")
        verdict = euler_index_check(tetrahedron, f, I)
        assert verdict.ok
        assert verdict.chi_reduced == -1  # (-1)^3
        assert verdict.chi_neighborhood - verdict.chi_exit == -1

    def test_edge_collection(self, triangle):
        f = DiscreteFunction.by_dimension(triangle)
        I = invariant_set_containing(triangle, f, "a-b")
        verdict = euler_index_check(triangle, f, I)
        assert (verdict.chi_reduced, verdict.chi_neighborhood, verdict.chi_exit) == (-3, 0, 3)
        assert verdict.ok

    def test_circle(self, hollow_triangle):
        f = DiscreteFunction.constant(hollow_triangle)
        I = isolated_invariant_sets(hollow_triangle, f)[0]
        verdict = euler_index_check(hollow_triangle, f, I)
        assert (verdict.chi_reduced, verdict.chi_neighborhood, verdict.chi_exit) == (0, 0, 0)


def test_exit_set_equals_boundary_part_on_corpus(mb_corpus_small):
    # The report derives each index and chi from the invariant set alone;
    # conley_index and euler_index_check build the index pair's complexes.
    for X, f in mb_corpus_small[:40]:
        sets = isolated_invariant_sets(X, f)
        per_set = conley_theorem_check(X, f).per_set
        assert [entry.id for entry in per_set] == [I.parent for I in sets]
        for I, entry in zip(sets, per_set):
            pair = index_pair(X, f, I)
            assert pair.exit_set == pair.neighborhood - I.cells
            assert pair.neighborhood == closure(X, I.cells)
            assert entry.conley_index == conley_index(X, f, I)
            euler = euler_index_check(X, f, I)
            assert (entry.chi_neighborhood, entry.chi_exit, entry.chi_reduced) == (
                euler.chi_neighborhood,
                euler.chi_exit,
                euler.chi_reduced,
            )
