"""Shared fixtures: reference complexes, reference functions, and the
randomized Morse-Bott corpus used by the property and acceptance tests."""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations

import pytest

from morsebott import (
    Complex,
    DiscreteFunction,
    Polynomial,
    betti,
    build_from_incidence,
    build_simplicial,
    check_discrete_morse,
    check_morse_bott,
    poincare_polynomial,
    reduced_boundary,
)

# Standard 7-vertex torus triangulation: both triangle families around the
# cyclic vertex order cover each edge of K7 exactly twice.
TORUS_TRIANGLES = [(i, (i + 1) % 7, (i + 3) % 7) for i in range(7)] + [
    (i, (i + 2) % 7, (i + 3) % 7) for i in range(7)
]

# Minimal 6-vertex projective plane (antipodal icosahedron quotient).
RP2_TRIANGLES = [
    (1, 2, 5),
    (1, 2, 6),
    (1, 3, 4),
    (1, 3, 6),
    (1, 4, 5),
    (2, 3, 4),
    (2, 3, 5),
    (2, 4, 6),
    (3, 5, 6),
    (4, 5, 6),
]


def torus_triangles(n: int) -> list[tuple[str, str, str]]:
    """The n x n triangulated torus: n^2 vertices, 3n^2 edges, 2n^2 triangles."""
    tris = []
    for i in range(n):
        for j in range(n):
            a = f"x{i}y{j}"
            b = f"x{(i + 1) % n}y{j}"
            c = f"x{(i + 1) % n}y{(j + 1) % n}"
            d = f"x{i}y{(j + 1) % n}"
            tris += [(a, b, c), (a, d, c)]
    return tris


@pytest.fixture
def point():
    return build_simplicial([("p",)])


@pytest.fixture
def segment():
    return build_simplicial([("v", "w")])


@pytest.fixture
def segment_function(segment):
    # One noncritical-pair collection {v, v-w} and one critical vertex w.
    return DiscreteFunction({"v": 1, "v-w": 1, "w": 0})


@pytest.fixture
def triangle():
    return build_simplicial([("a", "b", "c")])


@pytest.fixture
def hollow_triangle():
    return build_simplicial([("a", "b"), ("b", "c"), ("a", "c")])


@pytest.fixture
def tetrahedron():
    return build_simplicial([("a", "b", "c", "d")])


@pytest.fixture
def sphere2():
    return build_simplicial(
        [("a", "b", "c"), ("a", "b", "d"), ("a", "c", "d"), ("b", "c", "d")]
    )


@pytest.fixture
def torus7():
    return build_simplicial(TORUS_TRIANGLES)


@pytest.fixture
def rp2():
    return build_simplicial(RP2_TRIANGLES)


@pytest.fixture
def loop_complex():
    # One vertex, one 1-cell attached twice: a single irregular record.
    return build_from_incidence([("v", 0), ("e", 1)], [("e", "v", 2, False)])


@pytest.fixture
def star_violation():
    """Three edges at a center whose two cheap edges break the cofacet bound.

    The center n sits in the value-3 collection with edge e3 and outer
    vertex c; edges e1, e2 are cheaper cofaces outside the collection.
    """
    X = build_simplicial([("a", "n"), ("b", "n"), ("c", "n")])
    f = DiscreteFunction(
        {
            "n": 3,
            "a-n": 1,
            "b-n": 2,
            "c-n": 3,
            "a": 1,
            "b": 2,
            "c": 3,
        }
    )
    return X, f


@pytest.fixture
def worked_example():
    """Two filled triangles sharing an edge plus a pendant path.

    The value-3 collection (closure of a-b-c) reduces to two edges and the
    2-cell; d, e, g are critical vertices and e-g a critical edge, so the
    summed Euler numbers are -1 + 3 - 1 = 1 = chi(K).
    """
    X = build_simplicial([("a", "b", "c"), ("a", "b", "d"), ("c", "e"), ("e", "g")])
    f = DiscreteFunction(
        {
            "a": 3,
            "b": 3,
            "c": 3,
            "a-b": 3,
            "a-c": 3,
            "b-c": 3,
            "a-b-c": 3,
            "a-b-d": 2,
            "a-d": 2,
            "b-d": 2,
            "d": 0,
            "c-e": 1,
            "e": 0,
            "e-g": 5,
            "g": 4,
        }
    )
    return X, f


def division_defect(X: Complex, R) -> tuple[Polynomial, int]:
    """The defect of the set R by exact division, independent of
    ``collection_defect``: (counts(t) - P_t) / (1 + t), quotient and
    remainder."""
    counts = [0] * (max(X.dim(c) for c in R.cells) + 1)
    for cid in R.cells:
        counts[X.dim(cid)] += 1
    P = poincare_polynomial(betti(reduced_boundary(X, R)))
    return (Polynomial(counts) - P).divide_by_one_plus_t()


# ---------------------------------------------------------------------------
# Randomized corpus


def random_simplicial_complex(rng: random.Random, max_cells: int = 25) -> Complex:
    n_vertices = rng.randint(3, 6)
    verts = [f"v{i}" for i in range(n_vertices)]
    pool = list(combinations(verts, 2)) + list(combinations(verts, 3))
    if n_vertices >= 4:
        pool += list(combinations(verts, 4))
    rng.shuffle(pool)
    chosen: list[tuple[str, ...]] = []
    cells: set[tuple[str, ...]] = set()
    for simplex in pool:
        subs = {
            sub
            for size in range(1, len(simplex) + 1)
            for sub in combinations(simplex, size)
        }
        if len(cells | subs) <= max_cells:
            chosen.append(simplex)
            cells |= subs
        if len(cells) >= max_cells - 2:
            break
    if not chosen:
        chosen = [tuple(verts[:2])]
    return build_simplicial(chosen)


def random_morse_bott_function(X: Complex, rng: random.Random) -> DiscreteFunction:
    """Random small values, then local repair until the check passes.

    A violating cell is first re-rolled; if random repair stalls, the cell
    and its witnesses are pinned to their dimensions, which converges since
    f = dim satisfies the check.
    """
    pool = (0, 1, 2, 3)
    values = {cid: Fraction(rng.choice(pool)) for cid in X.ids()}
    for attempt in range(400):
        f = DiscreteFunction(values)
        verdict = check_morse_bott(X, f)
        if verdict.ok:
            return f
        bad = verdict.violations[0]
        if attempt < 120:
            values[bad.cell] = Fraction(rng.choice(pool))
        else:
            for cid in (bad.cell, *bad.witnesses):
                values[cid] = Fraction(X.dim(cid))
    return DiscreteFunction.by_dimension(X)


def random_discrete_morse_function(X: Complex, rng: random.Random) -> DiscreteFunction:
    """Random injective values repaired until Forman's check passes."""
    ids = X.ids()
    values = {
        cid: Fraction(v) for cid, v in zip(ids, rng.sample(range(1000, 100000), len(ids)))
    }
    tick = 0
    for attempt in range(400):
        f = DiscreteFunction(values)
        verdict = check_discrete_morse(X, f)
        if verdict.ok:
            return f
        bad = verdict.violations[0]
        if attempt < 120:
            fresh = Fraction(rng.randrange(1000, 100000))
            while fresh in values.values():
                fresh += 1
            values[bad.cell] = fresh
        else:
            # Near-dimension values never violate and stay injective.
            for cid in (bad.cell, *bad.witnesses):
                tick += 1
                values[cid] = Fraction(X.dim(cid)) + Fraction(tick, 4096)
    return DiscreteFunction(
        {cid: Fraction(X.dim(cid)) + Fraction(i + 1, 4096) for i, cid in enumerate(ids)}
    )


@pytest.fixture(scope="session")
def mb_corpus():
    rng = random.Random(20250810)
    corpus = []
    while len(corpus) < 500:
        X = random_simplicial_complex(rng)
        corpus.append((X, random_morse_bott_function(X, rng)))
    return corpus


@pytest.fixture(scope="session")
def mb_corpus_small(mb_corpus):
    return mb_corpus[:100]


@pytest.fixture(scope="session")
def dm_corpus():
    rng = random.Random(4711)
    corpus = []
    while len(corpus) < 100:
        X = random_simplicial_complex(rng)
        corpus.append((X, random_discrete_morse_function(X, rng)))
    return corpus


# ---------------------------------------------------------------------------
# Closure oracle


def facet_closure(X: Complex, cid: str) -> frozenset[str]:
    """``cid`` and all its iterated faces, by recursion on the facet records."""
    return frozenset({cid}).union(
        *(facet_closure(X, rec.child) for rec in X.facet_records(cid))
    )


def closure_partition(X: Complex, f: DiscreteFunction) -> list[tuple[Fraction, frozenset]]:
    """The cells split by joining every two same-value cells whose closures
    meet, transitively, as (value, cells) pairs in the order of ``collections``:
    by value, then by least cell id."""
    closures = {cid: facet_closure(X, cid) for cid in X.ids()}
    meets = {
        a: {b for b in X.ids() if f(b) == f(a) and closures[a] & closures[b]}
        for a in X.ids()
    }
    parts, placed = [], set()
    for cid in X.ids():
        if cid in placed:
            continue
        part, frontier = {cid}, [cid]
        while frontier:
            for other in meets[frontier.pop()] - part:
                part.add(other)
                frontier.append(other)
        placed |= part
        parts.append((f(cid), frozenset(part)))
    return sorted(parts, key=lambda p: (p[0], min(p[1])))
