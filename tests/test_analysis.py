import sys
from collections import Counter

import pytest

from morsebott import (
    Complex,
    DiscreteFunction,
    FaceRecord,
    Polynomial,
    betti,
    collection_defect,
    collections,
    euler_summary,
    isolated_invariant_sets,
    kernel_inequality_check,
    morse_bott_inequalities,
    reduce_collection,
    reduced_boundary,
    reduced_collections,
    serialize_complex,
    serialize_function,
)
from morsebott.cli import report, run
from conftest import division_defect


def reduced_containing(X, f, cid):
    return next(
        R
        for C in collections(X, f)
        for R in [reduce_collection(X, f, C)]
        if cid in R.cells
    )


class TestCollectionDefect:
    def test_singleton(self, triangle):
        f = DiscreteFunction.by_dimension(triangle)
        R = reduced_containing(triangle, f, "a-b-c")
        assert collection_defect(triangle, R) == Polynomial()

    def test_edge_collection(self, triangle):
        f = DiscreteFunction.by_dimension(triangle)
        R = reduced_containing(triangle, f, "a-b")
        assert collection_defect(triangle, R) == Polynomial()

    def test_two_edges_and_face(self, worked_example):
        X, f = worked_example
        R = reduced_containing(X, f, "a-b-c")
        assert sorted(R.cells) == ["a-b-c", "a-c", "b-c"]
        assert collection_defect(X, R) == Polynomial([0, 1])

    def test_empty_rejected(self, worked_example):
        X, f = worked_example
        C = next(C for C in collections(X, f) if "c-e" in C.cells)
        R = reduce_collection(X, f, C)
        assert not R.cells
        with pytest.raises(ValueError, match="empty"):
            collection_defect(X, R)


class TestMorseBottInequalities:
    def test_triangle_dimension_function(self, triangle):
        report = morse_bott_inequalities(triangle, DiscreteFunction.by_dimension(triangle))
        assert report.poincare_sum == Polynomial([3, 3, 1])
        assert report.poincare_complex == Polynomial([1])
        assert report.correction == Polynomial([2, 1])
        assert report.divisible and report.nonneg and report.euler_identity

    def test_segment_noncritical_pair_excluded(self, segment, segment_function):
        report = morse_bott_inequalities(segment, segment_function)
        assert len(report.per_collection) == 1
        assert report.poincare_sum == Polynomial([1])
        assert report.poincare_complex == Polynomial([1])
        assert report.correction == Polynomial()

    def test_constant_circle(self, hollow_triangle):
        report = morse_bott_inequalities(
            hollow_triangle, DiscreteFunction.constant(hollow_triangle)
        )
        assert report.poincare_sum == Polynomial([1, 1])
        assert report.poincare_complex == Polynomial([1, 1])
        assert report.correction == Polynomial()

    def test_worked_example(self, worked_example):
        X, f = worked_example
        report = morse_bott_inequalities(X, f)
        assert report.poincare_sum == Polynomial([3, 2])
        assert report.correction == Polynomial([2])
        assert report.ok

    def test_not_morse_bott_raises(self, star_violation):
        X, f = star_violation
        with pytest.raises(ValueError, match="not discrete Morse-Bott"):
            morse_bott_inequalities(X, f)


class TestKernelInequalities:
    def test_triangle_numbers(self, triangle):
        f = DiscreteFunction.by_dimension(triangle)
        # edge collection alone contributes kernel dimension 3 in degree 1,
        # against 1 for the boundary on the union of all reduced collections
        R = reduced_containing(triangle, f, "a-b")
        assert betti(reduced_boundary(triangle, R)).kernel_dims[1] == 3
        assert kernel_inequality_check(triangle, f) == {1: True, 2: True}

    def test_high_degrees_trivially_hold(self, segment, segment_function):
        assert kernel_inequality_check(segment, segment_function) == {1: True}

    def test_corpus(self, mb_corpus_small):
        for X, f in mb_corpus_small[:40]:
            assert all(kernel_inequality_check(X, f).values())

    def test_not_morse_bott_raises_as_inequalities(self, star_violation):
        assert_same_error(*star_violation)

    def test_chain_defect_in_a_set_raises_as_inequalities(self, triangle):
        # Constant f makes the whole triangle one invariant set; negating
        # one incidence of the 2-cell breaks the chain condition inside it.
        faces = [
            FaceRecord(r.parent, r.child, -r.incidence, r.regular)
            if (r.parent, r.child) == ("a-b-c", "a-b")
            else r
            for r in triangle.faces
        ]
        X = Complex(triangle.cells.values(), faces)
        f = DiscreteFunction.constant(X)
        assert [sorted(I.cells) for I in isolated_invariant_sets(X, f)] == [sorted(X.cells)]
        message = assert_same_error(X, f)
        assert message.startswith("reduced boundary: boundary does not square to zero")


def assert_same_error(X, f):
    """kernel_inequality_check raises the error of morse_bott_inequalities;
    returns its message."""
    with pytest.raises(ValueError) as expected:
        morse_bott_inequalities(X, f)
    with pytest.raises(ValueError) as got:
        kernel_inequality_check(X, f)
    assert type(got.value) is type(expected.value)
    assert str(got.value) == str(expected.value)
    return str(got.value)


class TestEulerSummary:
    def test_worked_example(self, worked_example):
        X, f = worked_example
        report = morse_bott_inequalities(X, f)
        assert euler_summary(report) == (1, 1, True)
        contributions = sorted(
            entry.poincare.evaluate(-1) for entry in report.per_collection
        )
        assert contributions == [-1, -1, 1, 1, 1]

    def test_triangle(self, triangle):
        report = morse_bott_inequalities(triangle, DiscreteFunction.by_dimension(triangle))
        assert euler_summary(report) == (1, 1, True)

    def test_constant_circle(self, hollow_triangle):
        report = morse_bott_inequalities(
            hollow_triangle, DiscreteFunction.constant(hollow_triangle)
        )
        assert euler_summary(report) == (0, 0, True)


def test_defect_routes_agree_on_corpus(mb_corpus_small):
    # collection_defect reads the ranks; the division is the independent route
    for X, f in mb_corpus_small[:40]:
        for R in reduced_collections(X, f):
            quotient, remainder = division_defect(X, R)
            assert remainder == 0
            assert quotient == collection_defect(X, R)
            assert quotient.is_nonnegative


# The functions whose calls the compute-once tests count, by defining module.
COUNTED = {
    "morse": ("against", "collections", "check_morse_bott", "check_discrete_morse"),
    "flow": ("closed_orbits", "vector_field"),
    "homology": ("betti", "chain_complex", "reduced_boundary"),
    "complex": ("restrict",),
}


@pytest.fixture
def calls(monkeypatch):
    """Counts calls of the COUNTED functions, wrapped in every ``morsebott``
    namespace that binds them (modules import each other's functions by
    name, so patching only the defining module would miss their calls)."""
    counts = Counter()
    modules = [
        m for key, m in sys.modules.items()
        if m is not None and (key == "morsebott" or key.startswith("morsebott."))
    ]

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for home, names in COUNTED.items():
        for name in names:
            original = getattr(sys.modules[f"morsebott.{home}"], name)
            wrapper = counting(name, original)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        monkeypatch.setattr(m, attr, wrapper)
    return counts


class CountingFaces(tuple):
    """The face records of a complex, counting the scans over them."""

    scans = 0

    def __iter__(self):
        self.scans += 1
        return super().__iter__()


def test_report_computes_each_fact_once(calls, worked_example, triangle):
    X, f = worked_example
    n_sets = len(isolated_invariant_sets(X, f))
    X.faces = CountingFaces(X.faces)
    calls.clear()
    assert report(X, f).data["ok"]
    assert calls["collections"] == 1
    # Both verdicts, the arrows and the reductions read one scan of the
    # records against f; the orbit search reads only the heads' facets.
    assert calls["against"] == 1
    assert calls["check_morse_bott"] == calls["check_discrete_morse"] == 0
    assert calls["vector_field"] == 0
    assert calls["closed_orbits"] == 1
    assert X.faces.scans == 1
    assert calls["chain_complex"] == 1
    assert calls["reduced_boundary"] == n_sets == 5
    # The invariant sets and X.  The kernel bounds hold by construction, so
    # the union of the sets, which is not all of X here, is not eliminated.
    assert calls["betti"] == n_sets + 1
    assert calls["restrict"] == 0

    # For f = dim the invariant sets cover X; X is still eliminated once.
    f = DiscreteFunction.by_dimension(triangle)
    n_sets = len(isolated_invariant_sets(triangle, f))
    calls.clear()
    assert report(triangle, f).data["ok"]
    assert calls["betti"] == n_sets + 1


def test_flow_searches_orbits_once(calls, worked_example, tmp_path):
    X, f = worked_example
    (tmp_path / "k.cw").write_text(serialize_complex(X))
    (tmp_path / "f.val").write_text(serialize_function(f, X))
    assert run(["--json", "flow", str(tmp_path / "k.cw"), str(tmp_path / "f.val")]) == 0
    assert calls["closed_orbits"] == 1
