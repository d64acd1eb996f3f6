import random

import pytest

from morsebott import (
    build_from_incidence,
    build_simplicial,
    closure,
    is_subcomplex,
    restrict,
    validate,
)
from conftest import random_simplicial_complex


def incidence_of(X, parent, child):
    return sum(r.incidence for r in X.facet_records(parent) if r.child == child)


class TestBuildFromIncidence:
    def test_point(self):
        X = build_from_incidence([("v", 0)], [])
        assert len(X) == 1 and X.dim("v") == 0 and X.top_dim == 0

    def test_segment(self):
        X = build_from_incidence(
            [("v", 0), ("w", 0), ("e", 1)],
            [("e", "v", 1, True), ("e", "w", -1, True)],
        )
        assert len(X) == 3
        assert {r.child for r in X.facet_records("e")} == {"v", "w"}

    def test_dim_mismatch(self):
        with pytest.raises(ValueError, match="dim mismatch"):
            build_from_incidence([("v", 1), ("e", 1)], [("e", "v", 1, True)])

    def test_duplicate_id(self):
        with pytest.raises(ValueError, match="duplicate"):
            build_from_incidence([("v", 0), ("v", 0)], [])

    def test_dangling_reference(self):
        with pytest.raises(ValueError, match="unknown cell"):
            build_from_incidence([("e", 1)], [("e", "v", 1, True)])


class TestBuildSimplicial:
    def test_full_triangle(self, triangle):
        assert len(triangle) == 7
        assert triangle.cells_of_dim(0) == ["a", "b", "c"]
        assert triangle.cells_of_dim(1) == ["a-b", "a-c", "b-c"]
        assert incidence_of(triangle, "a-b-c", "b-c") == 1
        assert incidence_of(triangle, "a-b-c", "a-c") == -1
        assert incidence_of(triangle, "a-b-c", "a-b") == 1
        assert incidence_of(triangle, "a-b", "b") == 1
        assert incidence_of(triangle, "a-b", "a") == -1

    def test_hollow_triangle(self, hollow_triangle):
        assert len(hollow_triangle) == 6
        assert hollow_triangle.top_dim == 1

    def test_empty_input(self):
        with pytest.raises(ValueError, match="empty"):
            build_simplicial([])

    def test_repeated_vertex(self):
        with pytest.raises(ValueError, match="repeated vertex"):
            build_simplicial([("a", "a", "b")])


class TestValidate:
    def test_triangle_ok(self, triangle):
        assert validate(triangle).ok

    def test_loop_with_irregular_record_ok(self, loop_complex):
        # Irregular records are exempt from the +-1 rule; the loop has no
        # 2-cell, so the chain condition holds.
        assert validate(loop_complex).ok

    def test_irregular_record_breaks_chain_condition(self):
        # The irregular record ac > c keeps the regular sign, so the filled
        # triangle's boundary squares to 2c - 2a.
        X = build_from_incidence(
            [("a", 0), ("b", 0), ("c", 0), ("ab", 1), ("ac", 1), ("bc", 1), ("t", 2)],
            [
                ("ab", "a", -1, True),
                ("ab", "b", 1, True),
                ("ac", "a", -1, True),
                ("ac", "c", 1, False),
                ("bc", "b", -1, True),
                ("bc", "c", 1, True),
                ("t", "ab", 1, True),
                ("t", "ac", 1, True),
                ("t", "bc", 1, True),
            ],
        )
        report = validate(X)
        assert not report.ok
        assert [(v.rule, v.cells, v.message) for v in report.violations] == [
            ("chain-condition", ("t", "a"), "sum of incidences between 't' and 'a' is -2"),
            ("chain-condition", ("t", "c"), "sum of incidences between 't' and 'c' is 2"),
        ]

    def test_flipped_sign_breaks_chain_condition(self):
        X = build_from_incidence(
            [("a", 0), ("b", 0), ("c", 0), ("ab", 1), ("ac", 1), ("bc", 1), ("t", 2)],
            [
                ("ab", "a", -1, True),
                ("ab", "b", 1, True),
                ("ac", "a", -1, True),
                ("ac", "c", 1, True),
                ("bc", "b", -1, True),
                ("bc", "c", 1, True),
                ("t", "ab", 1, True),
                ("t", "ac", 1, True),  # should be -1
                ("t", "bc", 1, True),
            ],
        )
        report = validate(X)
        assert not report.ok
        assert any(v.rule == "chain-condition" for v in report.violations)

    def test_regular_incidence_rule(self):
        X = build_from_incidence([("v", 0), ("e", 1)], [("e", "v", 2, True)])
        report = validate(X)
        assert any(v.rule == "regular-incidence" for v in report.violations)

    def test_duplicate_record(self):
        # Read as written, the repeated record gives the regular edge the
        # boundary 2v - w.
        X = build_from_incidence(
            [("v", 0), ("w", 0), ("e", 1)],
            [("e", "v", 1, True), ("e", "v", 1, True), ("e", "w", -1, True)],
        )
        report = validate(X)
        assert not report.ok
        assert [(v.rule, v.cells) for v in report.violations] == [
            ("duplicate-record", ("e", "v"))
        ]

    def test_random_simplicial_always_valid(self):
        rng = random.Random(99)
        for _ in range(25):
            assert validate(random_simplicial_complex(rng)).ok


class TestClosure:
    def test_top_cell(self, triangle):
        assert closure(triangle, {"a-b-c"}) == frozenset(triangle.ids())

    def test_vertex(self, triangle):
        assert closure(triangle, {"a"}) == frozenset({"a"})

    def test_two_edges_in_circle(self, hollow_triangle):
        got = closure(hollow_triangle, {"a-b", "b-c"})
        assert got == frozenset({"a-b", "b-c", "a", "b", "c"})

    def test_unknown_id(self, triangle):
        with pytest.raises(ValueError, match="unknown"):
            closure(triangle, {"zz"})

    def test_idempotent_and_monotone(self, torus7):
        rng = random.Random(3)
        ids = torus7.ids()
        for _ in range(20):
            S = set(rng.sample(ids, rng.randint(1, 8)))
            T = S | set(rng.sample(ids, rng.randint(1, 8)))
            cS = closure(torus7, S)
            assert closure(torus7, cS) == cS
            assert cS <= closure(torus7, T)


class TestIsSubcomplex:
    def test_everything(self, triangle):
        assert is_subcomplex(triangle, triangle.ids())

    def test_single_edge(self, triangle):
        assert not is_subcomplex(triangle, {"a-b"})

    def test_empty(self, triangle):
        assert is_subcomplex(triangle, set())


def test_restrict_keeps_induced_records(triangle):
    S = closure(triangle, {"a-b"})
    sub = restrict(triangle, S)
    assert sorted(sub.cells) == ["a", "a-b", "b"]
    assert len(sub.faces) == 2
