import os
import random
import subprocess
import sys
from pathlib import Path

from morsebott import (
    ArrowSet,
    DiscreteFunction,
    build_simplicial,
    closed_orbits,
    collections,
    cross_collection_orbits,
    is_combinatorial,
    parse_complex,
    vector_field,
)
from morsebott import flow
from morsebott.flow import to_dot
from conftest import torus_triangles, random_simplicial_complex


def brute_force_orbits(V, X):
    """Independent closed-orbit enumeration by direct alternating DFS.

    Walks arrow steps and descents explicitly without ever revisiting a
    cell, records each closed alternating path, and canonicalizes to the
    lexicographically least rotation starting at a bottom cell.
    """
    arrows_from = {}
    for src, dst in sorted(V.arrows):
        arrows_from.setdefault(src, []).append(dst)
    found = set()

    def canonical(cells):
        starts = range(0, len(cells), 2)
        return min(tuple(cells[s:]) + tuple(cells[:s]) for s in starts)

    def walk(start, sigma, path, visited):
        for tau in arrows_from.get(sigma, ()):
            if tau in visited:
                continue
            for rec in X.facet_records(tau):
                nxt = rec.child
                if nxt == sigma:
                    continue
                if nxt == start and len(path) >= 2:
                    found.add(canonical(path + [tau]))
                elif nxt != start and nxt not in visited:
                    walk(start, nxt, path + [tau, nxt], visited | {tau, nxt})

    for sigma in sorted(arrows_from):
        walk(sigma, sigma, [sigma], {sigma})
    return found


def orbit_cell_tuples(orbits):
    return {orbit.cells for orbit in orbits}


class TestVectorField:
    def test_dimension_function_is_gradientless(self, triangle):
        assert len(vector_field(triangle, DiscreteFunction.by_dimension(triangle))) == 0

    def test_segment(self, segment, segment_function):
        assert vector_field(segment, segment_function).arrows == frozenset({("v", "v-w")})

    def test_constant_on_circle(self, hollow_triangle):
        V = vector_field(hollow_triangle, DiscreteFunction.constant(hollow_triangle))
        assert len(V) == 6

    def test_irregular_facets_carry_no_arrows(self, loop_complex):
        V = vector_field(loop_complex, DiscreteFunction.constant(loop_complex))
        assert len(V) == 0


class TestIsCombinatorial:
    def test_field_of_discrete_morse_function(self, segment, segment_function):
        V = vector_field(segment, segment_function)
        assert is_combinatorial(V, segment).ok

    def test_two_outgoing(self, hollow_triangle):
        V = ArrowSet(frozenset({("a", "a-b"), ("a", "a-c")}))
        verdict = is_combinatorial(V, hollow_triangle)
        assert not verdict.ok
        assert any(v.rule == "multiple-outgoing" and v.cell == "a" for v in verdict.violations)

    def test_source_and_target(self, triangle):
        V = ArrowSet(frozenset({("a", "a-b"), ("a-b", "a-b-c")}))
        verdict = is_combinatorial(V, triangle)
        assert any(v.rule == "source-and-target" for v in verdict.violations)

    def test_empty(self, triangle):
        assert is_combinatorial(ArrowSet(frozenset()), triangle).ok

    def test_random_discrete_morse_fields(self, dm_corpus):
        for X, f in dm_corpus[:30]:
            V = vector_field(X, f)
            assert is_combinatorial(V, X).ok
            assert closed_orbits(V, X) == []


class TestClosedOrbits:
    def test_empty_field(self, triangle):
        assert closed_orbits(ArrowSet(frozenset()), triangle) == []

    def test_constant_circle_has_orbit_over_three_edges(self, hollow_triangle):
        V = vector_field(hollow_triangle, DiscreteFunction.constant(hollow_triangle))
        orbits = closed_orbits(V, hollow_triangle)
        assert orbits
        assert any(
            len(o.cells) == 6 and {"a-b", "b-c", "a-c"} <= set(o.cells) for o in orbits
        )

    def test_alternation_and_closure_shape(self, hollow_triangle):
        V = vector_field(hollow_triangle, DiscreteFunction.constant(hollow_triangle))
        for orbit in closed_orbits(V, hollow_triangle):
            cells = orbit.cells
            assert len(cells) % 2 == 0
            for i in range(0, len(cells), 2):
                assert (cells[i], cells[i + 1]) in V.arrows
                nxt = cells[(i + 2) % len(cells)]
                assert nxt != cells[i]

    def test_truncation_flag(self, hollow_triangle):
        V = vector_field(hollow_triangle, DiscreteFunction.constant(hollow_triangle))
        full = closed_orbits(V, hollow_triangle)
        capped = closed_orbits(V, hollow_triangle, max_orbits=1)
        assert len(capped) == 1 and capped.truncated
        assert not full.truncated

    def test_matches_brute_force_on_derived_fields(self, hollow_triangle, triangle):
        for X in (hollow_triangle, triangle):
            V = vector_field(X, DiscreteFunction.constant(X))
            assert orbit_cell_tuples(closed_orbits(V, X)) == brute_force_orbits(V, X)

    def test_matches_brute_force_on_random_fields(self):
        rng = random.Random(31)
        for _ in range(40):
            X = random_simplicial_complex(rng, max_cells=12)
            pairs = [(r.child, r.parent) for r in X.faces if r.regular]
            V = ArrowSet(frozenset(p for p in pairs if rng.random() < 0.6))
            assert orbit_cell_tuples(closed_orbits(V, X)) == brute_force_orbits(V, X)

    def test_cap_bounds_the_cycles_examined(self, monkeypatch):
        X = build_simplicial(torus_triangles(3))
        V = vector_field(X, DiscreteFunction.constant(X))
        assert len(V) == 108
        original = flow.nx.simple_cycles
        for cap in (0, 1, 1000):
            bound = cap + len(V) + 1
            seen = []

            def counted(graph):
                for cycle in original(graph):
                    seen.append(cycle)
                    if len(seen) > bound:
                        raise AssertionError(f"more than {bound} cycles for cap {cap}")
                    yield cycle

            monkeypatch.setattr(flow.nx, "simple_cycles", counted)
            orbits = closed_orbits(V, X, max_orbits=cap)
            assert len(orbits) == cap and orbits.truncated
            assert len(seen) <= bound

    def test_truncated_list_ignores_the_hash_seed(self):
        script = (
            "import random\n"
            "from conftest import RP2_TRIANGLES, random_morse_bott_function\n"
            "from morsebott import build_simplicial, closed_orbits, vector_field\n"
            "X = build_simplicial(RP2_TRIANGLES)\n"
            "V = vector_field(X, random_morse_bott_function(X, random.Random(7)))\n"
            "assert len(V) == 41\n"
            "found = closed_orbits(V, X, 20)\n"
            "print(found.truncated, [o.cells for o in found])\n"
        )
        path = os.pathsep.join([str(Path(__file__).parent), os.environ.get("PYTHONPATH", "")])
        outputs = []
        for seed in ("1", "2"):
            env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": path}
            proc = subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True, text=True, env=env, timeout=60,
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1]

    def test_downward_arrows_are_not_descents(self, hollow_triangle):
        V = ArrowSet(frozenset({("a", "a-c"), ("c", "b-c"), ("b-c", "a")}))
        assert closed_orbits(V, hollow_triangle) == []
        assert brute_force_orbits(V, hollow_triangle) == set()


class TestCrossCollectionOrbits:
    def test_morse_bott_corpus_has_none(self, mb_corpus_small):
        for X, f in mb_corpus_small[:40]:
            V = vector_field(X, f)
            assert cross_collection_orbits(V, X, collections(X, f)) == []

    def test_constant_circle_orbit_is_intra_collection(self, hollow_triangle):
        f = DiscreteFunction.constant(hollow_triangle)
        V = vector_field(hollow_triangle, f)
        assert closed_orbits(V, hollow_triangle)
        assert cross_collection_orbits(V, hollow_triangle, collections(hollow_triangle, f)) == []

    def test_ascending_descent_is_not_a_flow_orbit(self):
        # Valid Morse-Bott function whose bare alternating cycle visits two
        # collections; the descent onto the dearer vertex v1 runs against the
        # flow, so it does not count as a cross-collection orbit.
        X = build_simplicial([("v0", "v1", "v2")])
        f = DiscreteFunction(
            {
                "v0": 0,
                "v0-v1": 0,
                "v0-v2": 0,
                "v1": 1,
                "v2": 1,
                "v1-v2": 1,
                "v0-v1-v2": 1,
            }
        )
        from morsebott import check_morse_bott

        assert check_morse_bott(X, f).ok
        V = vector_field(X, f)
        colls = collections(X, f)
        lookup = {cid: C.id for C in colls for cid in C.cells}
        bare = closed_orbits(V, X)
        assert any(len({lookup[c] for c in o.cells}) == 2 for o in bare)
        assert cross_collection_orbits(V, X, colls) == []

    def test_injected_cross_cycle(self, hollow_triangle):
        f = DiscreteFunction(
            {"a": 0, "b": 0, "a-b": 0, "c": 1, "b-c": 1, "a-c": 1}
        )
        colls = collections(hollow_triangle, f)
        assert len(colls) == 2
        V = ArrowSet(frozenset({("a", "a-b"), ("b", "b-c"), ("c", "a-c")}))
        crossing = cross_collection_orbits(V, hollow_triangle, colls)
        assert crossing
        assert len(set(crossing[0].collections)) == 2


def test_dot_export(segment, segment_function):
    V = vector_field(segment, segment_function)
    dot = to_dot(V, segment)
    assert dot.startswith("digraph")
    assert '"v" -> "v-w";' in dot
    X = parse_complex('simplex a" b\\c\n')
    dot = to_dot(vector_field(X, DiscreteFunction.by_dimension(X)), X)
    assert '  "a\\"" [label="a\\" (0)"];' in dot
    assert '  "b\\\\c" [label="b\\\\c (0)"];' in dot
    assert '  "a\\"-b\\\\c" [label="a\\"-b\\\\c (1)"];' in dot
