import random
from itertools import combinations

import pytest
import sympy
from sympy.matrices.normalforms import smith_normal_form as sympy_snf

from morsebott import (
    DiscreteFunction,
    Polynomial,
    Z,
    Z2,
    betti,
    build_from_incidence,
    build_simplicial,
    chain_complex,
    closure,
    collections,
    equivalence_check,
    poincare_polynomial,
    reduce_collection,
    reduced_boundary,
    reduced_collections,
    relative_chain_complex,
    restrict,
    smith_normal_form,
)
from morsebott.cli import report
from morsebott.homology import invariant_factors, rank_mod2
from conftest import torus_triangles


class TestPolynomial:
    def test_trimming_and_eq(self):
        assert Polynomial([1, 2, 0, 0]) == Polynomial([1, 2])
        assert Polynomial() == Polynomial([0])

    def test_division_by_one_plus_t(self):
        q, r = Polynomial([2, 3, 1]).divide_by_one_plus_t()
        assert q == Polynomial([2, 1]) and r == 0
        q, r = Polynomial([1, 1, 1]).divide_by_one_plus_t()
        assert q == Polynomial([0, 1]) and r == 1

    def test_pretty(self):
        assert Polynomial([2, 1]).pretty() == "2 + t"
        assert Polynomial([0, 3]).pretty() == "3t"
        assert Polynomial([1, 0, 1]).pretty() == "1 + t^2"
        assert Polynomial().pretty() == "0"
        assert Polynomial([0, -1, 2]).pretty() == "-t + 2t^2"

    def test_evaluate(self):
        assert Polynomial([3, 3, 1]).evaluate(-1) == 1


class TestSmithNormalForm:
    def test_single_entry(self):
        assert smith_normal_form([[2]]).factors == (2,)

    def test_zero_matrix(self):
        assert smith_normal_form([[0, 0], [0, 0]]).rank == 0

    def test_diagonal(self):
        assert smith_normal_form([[1, 0], [0, 6]]).factors == (1, 6)

    def test_divisibility_needs_work(self):
        # diag(2, 3) has invariant factors (1, 6)
        assert smith_normal_form([[2, 0], [0, 3]]).factors == (1, 6)

    def test_against_sympy(self):
        rng = random.Random(12)
        for _ in range(40):
            m, n = rng.randint(1, 5), rng.randint(1, 5)
            rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
            ours = smith_normal_form(rows)
            theirs = sympy_snf(sympy.Matrix(rows))
            diag = [abs(theirs[i, i]) for i in range(min(m, n)) if theirs[i, i] != 0]
            assert list(ours.factors) == diag
            assert ours.rank == sympy.Matrix(rows).rank()

    def test_divisibility_chain_random(self):
        rng = random.Random(5)
        for _ in range(30):
            rows = [[rng.randint(-20, 20) for _ in range(4)] for _ in range(4)]
            factors = smith_normal_form(rows).factors
            for a, b in zip(factors, factors[1:]):
                assert b % a == 0


def test_rank_mod2():
    assert rank_mod2([[1, 1], [1, 1]]) == 1
    assert rank_mod2([[2, 4], [6, 8]]) == 0
    assert rank_mod2([]) == 0


def sparse_columns(rows):
    n = len(rows[0]) if rows else 0
    return [[(i, row[j]) for i, row in enumerate(rows) if row[j]] for j in range(n)]


def random_integer_matrix(rng):
    """Mostly sparse, with non-unit entries and some zero rows and columns."""
    m, n = rng.randint(0, 9), rng.randint(0, 9)
    pool = rng.choice([(0, 0, 1, -1), (0, 0, 0, 1, -1, 2, -2, 3, 4, 6, -6), (0, 2, -2, 3, 4, 6)])
    rows = [[rng.choice(pool) for _ in range(n)] for _ in range(m)]
    for i in rng.sample(range(m), rng.randint(0, m // 3)):
        rows[i] = [0] * n
    for j in rng.sample(range(n), rng.randint(0, n // 3)):
        for row in rows:
            row[j] = 0
    return rows


class TestEngineOracle:
    """The sparse unit-pivot engine against the dense references."""

    def test_random_matrices(self):
        rng = random.Random(31)
        for _ in range(2500):
            rows = random_integer_matrix(rng)
            columns = sparse_columns(rows)
            assert invariant_factors(columns, Z) == smith_normal_form(rows).factors
            assert len(invariant_factors(columns, Z2)) == rank_mod2(rows)

    def test_corpus_chain_complexes(self, mb_corpus_small):
        for X, f in mb_corpus_small:
            for ring in (Z, Z2):
                complexes = [chain_complex(X, ring)] + [
                    reduced_boundary(X, R, ring) for R in reduced_collections(X, f)
                ]
                for cc in complexes:
                    for k in range(cc.top + 1):
                        got = invariant_factors(cc.columns[k], ring)
                        if ring == Z:
                            assert got == smith_normal_form(cc.dense(k)).factors
                        else:
                            assert len(got) == rank_mod2(cc.dense(k))

    def test_first_failing_pair_is_reported(self):
        # d(d t) = 2a - b: the first offending face in basis order is a.
        X = build_from_incidence(
            [("a", 0), ("b", 0), ("e", 1), ("t", 2)],
            [("e", "a", 2, False), ("e", "b", -1, False), ("t", "e", 1, False)],
        )
        with pytest.raises(ValueError, match="between 't' and 'a'"):
            chain_complex(X)
        with pytest.raises(ValueError, match="between 't' and 'b'"):
            chain_complex(X, Z2)


class TestScale:
    """Known homology on inputs far beyond the corpus's 25 cells."""

    def test_torus_20x20(self):
        X = build_simplicial(torus_triangles(20))
        assert len(X) == 2400
        for ring in (Z, Z2):
            summary = betti(chain_complex(X, ring))
            assert summary.betti == (1, 2, 1)
            assert summary.torsion == ((), (), ())

    def test_boundary_of_4_simplex(self):
        X = build_simplicial(combinations("abcde", 4))
        for ring in (Z, Z2):
            summary = betti(chain_complex(X, ring))
            assert summary.betti == (1, 0, 0, 1)
            assert all(not t for t in summary.torsion)

    def test_report_torus_10x10(self):
        X = build_simplicial(torus_triangles(10))
        document = report(X, DiscreteFunction.by_dimension(X))
        assert document.data["ok"] is True


class TestChainComplex:
    def test_triangle_shapes(self, triangle):
        cc = chain_complex(triangle)
        assert len(cc.bases[0]) == 3 and len(cc.bases[1]) == 3 and len(cc.bases[2]) == 1
        assert len(cc.matrices[1]) == 3 and len(cc.matrices[1][0]) == 3
        assert len(cc.matrices[2]) == 3 and len(cc.matrices[2][0]) == 1

    def test_point(self, point):
        cc = chain_complex(point)
        assert cc.top == 0 and cc.matrices[0] == ()

    def test_hollow_triangle_z2_rank(self, hollow_triangle):
        cc = chain_complex(hollow_triangle, Z2)
        assert rank_mod2(cc.matrices[1]) == 2

    def test_broken_square_raises(self):
        X = build_from_incidence(
            [("a", 0), ("e", 1), ("t", 2)],
            [("e", "a", 1, True), ("t", "e", 1, False)],
        )
        with pytest.raises(ValueError, match="square"):
            chain_complex(X)


class TestBetti:
    def test_circle(self, hollow_triangle):
        assert betti(chain_complex(hollow_triangle)).betti == (1, 1)

    def test_disc(self, triangle):
        assert betti(chain_complex(triangle)).betti == (1, 0, 0)

    def test_sphere(self, sphere2):
        assert betti(chain_complex(sphere2)).betti == (1, 0, 1)

    def test_torus(self, torus7):
        assert len(torus7) == 7 + 21 + 14
        summary = betti(chain_complex(torus7))
        assert summary.betti == (1, 2, 1)
        assert all(not t for t in summary.torsion)
        assert betti(chain_complex(torus7, Z2)).betti == (1, 2, 1)

    def test_projective_plane(self, rp2):
        assert len(rp2) == 6 + 15 + 10
        over_z = betti(chain_complex(rp2))
        assert over_z.betti == (1, 0, 0)
        assert over_z.torsion[1] == (2,)
        assert betti(chain_complex(rp2, Z2)).betti == (1, 1, 1)


class TestRelative:
    def test_segment_rel_endpoints(self, segment):
        cc = relative_chain_complex(segment, {"v", "w"})
        assert betti(cc).betti == (0, 1)

    def test_disc_rel_boundary(self, triangle):
        boundary = set(triangle.ids()) - {"a-b-c"}
        assert betti(relative_chain_complex(triangle, boundary)).betti == (0, 0, 1)

    def test_rel_empty_equals_absolute(self, torus7):
        assert relative_chain_complex(torus7, set()) == chain_complex(torus7)

    def test_not_a_subcomplex(self, triangle):
        with pytest.raises(ValueError, match="not a subcomplex"):
            relative_chain_complex(triangle, {"a-b"})


class TestReducedBoundary:
    def test_edge_collection_of_triangle(self, triangle):
        summary = betti(reduced_boundary(triangle, {"a-b", "a-c", "b-c"}))
        assert poincare_polynomial(summary) == Polynomial([0, 3])

    def test_singleton(self, triangle):
        assert poincare_polynomial(betti(reduced_boundary(triangle, {"a-b-c"}))) == Polynomial.monomial(2)
        assert poincare_polynomial(betti(reduced_boundary(triangle, {"a"}))) == Polynomial([1])

    def test_two_edges_and_face(self, triangle):
        # d(abc) = bc - ac inside the set: one kernel generator survives
        summary = betti(reduced_boundary(triangle, {"a-c", "b-c", "a-b-c"}))
        poly = poincare_polynomial(summary)
        assert poly == Polynomial([0, 1])
        assert poly.evaluate(-1) == -1


class TestPoincarePolynomial:
    def test_circle(self, hollow_triangle):
        assert poincare_polynomial(betti(chain_complex(hollow_triangle))) == Polynomial([1, 1])

    def test_point(self, point):
        assert poincare_polynomial(betti(chain_complex(point))) == Polynomial([1])

    def test_disc_rel_boundary_is_monomial(self, tetrahedron):
        boundary = set(tetrahedron.ids()) - {"a-b-c-d"}
        poly = poincare_polynomial(betti(relative_chain_complex(tetrahedron, boundary)))
        assert poly == Polynomial.monomial(3)


class TestEquivalenceCheck:
    def test_singleton(self, triangle):
        f = DiscreteFunction.by_dimension(triangle)
        for C in collections(triangle, f):
            assert equivalence_check(triangle, reduce_collection(triangle, f, C))

    def test_edge_collection(self, triangle):
        assert equivalence_check(triangle, {"a-b", "a-c", "b-c"})


def test_euler_consistency_cell_counts_vs_z2(torus7, rp2, sphere2):
    for X in (torus7, rp2, sphere2):
        by_cells = sum((-1) ** X.dim(c) for c in X.cells)
        summary = betti(chain_complex(X, Z2))
        assert by_cells == poincare_polynomial(summary).evaluate(-1)


def test_z_equals_z2_for_torsion_free(triangle, hollow_triangle, sphere2, torus7):
    for X in (triangle, hollow_triangle, sphere2, torus7):
        assert betti(chain_complex(X, Z)).betti == betti(chain_complex(X, Z2)).betti
