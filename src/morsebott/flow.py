"""Discrete vector fields, Forman's axioms, and closed orbit detection.

An orbit alternates arrow steps (facet to cofacet) with descents to a
different facet and never revisits a cell.  Only arrows that raise dimension
by one are read, so enumeration reduces to elementary cycles of one digraph
per layer of arrows from dimension k to k + 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import networkx as nx

from .complex import Complex, FaceRecord
from .morse import Collection, DiscreteFunction, against

Arrow = tuple[str, str]


@dataclass(frozen=True)
class ArrowSet:
    arrows: frozenset[Arrow]

    def __len__(self) -> int:
        return len(self.arrows)


@dataclass(frozen=True)
class Orbit:
    """Closed alternating path, stored as sigma0, tau0, sigma1, ..., tau_m."""

    cells: tuple[str, ...]
    collections: tuple[int, ...] = ()


class OrbitList(list):
    """A list of orbits that remembers whether enumeration was cut short."""

    def __init__(self, orbits: Iterable[Orbit] = (), truncated: bool = False):
        super().__init__(orbits)
        self.truncated = truncated


@dataclass(frozen=True)
class FlowViolation:
    rule: str
    cell: str
    detail: str


@dataclass(frozen=True)
class FlowVerdict:
    ok: bool
    violations: tuple[FlowViolation, ...]


def vector_field(X: Complex, f: DiscreteFunction) -> ArrowSet:
    """Arrows sigma -> tau over the regular facet pairs with f(sigma) >= f(tau)."""
    return _arrows(against(X, f))


def _arrows(pairs: Iterable[tuple[FaceRecord, bool]]) -> ArrowSet:
    """The arrows of the regular records in a list of :func:`morse.against`."""
    return ArrowSet(frozenset((rec.child, rec.parent) for rec, _ in pairs if rec.regular))


def is_combinatorial(V: ArrowSet, X: Complex) -> FlowVerdict:
    """Check Forman's axioms: each cell heads at most one arrow, tails at
    most one arrow, and never both; arrows must sit on regular facets."""
    violations: list[FlowViolation] = []
    out_count: dict[str, list[str]] = {}
    in_count: dict[str, list[str]] = {}
    regular_pairs = {(rec.child, rec.parent) for rec in X.faces if rec.regular}
    for arrow in sorted(V.arrows):
        src, dst = arrow
        out_count.setdefault(src, []).append(dst)
        in_count.setdefault(dst, []).append(src)
        if arrow not in regular_pairs:
            violations.append(
                FlowViolation(
                    "not-a-regular-facet",
                    src,
                    f"{src!r} is not a regular facet of {dst!r}",
                )
            )
    for cid, dsts in sorted(out_count.items()):
        if len(dsts) > 1:
            violations.append(
                FlowViolation("multiple-outgoing", cid, f"{cid!r} -> {sorted(dsts)}")
            )
    for cid, srcs in sorted(in_count.items()):
        if len(srcs) > 1:
            violations.append(
                FlowViolation("multiple-incoming", cid, f"{sorted(srcs)} -> {cid!r}")
            )
    for cid in sorted(set(out_count) & set(in_count)):
        violations.append(
            FlowViolation("source-and-target", cid, f"{cid!r} both heads and tails an arrow")
        )
    return FlowVerdict(not violations, tuple(violations))


def closed_orbits(V: ArrowSet, X: Complex, max_orbits: int | None = None) -> OrbitList:
    """All elementary closed orbits, deduplicated up to rotation.

    Only arrows that raise dimension by one are read.  ``max_orbits`` caps
    the enumeration, so at most ``max_orbits`` + ``len(V)`` + 1 cycles are
    examined; the returned list's ``truncated`` flag records whether the cap
    was hit.
    """
    # Nodes are (layer, cell); descents run from a head to its facets that
    # tail the same layer, so every cycle but the bounce sigma -> tau > sigma
    # is an orbit.  Sorted integer nodes and edges fix the cycle order.
    up = sorted((X.dim(s), s, t) for s, t in V.arrows if X.dim(t) == X.dim(s) + 1)
    tails = {(k, s) for k, s, _ in up}
    nodes = sorted(tails | {(k, t) for k, _, t in up})
    index = {node: i for i, node in enumerate(nodes)}
    graph = nx.DiGraph()
    graph.add_nodes_from(range(len(nodes)))
    graph.add_edges_from(sorted(
        [(index[k, s], index[k, t]) for k, s, t in up]
        + [(index[k, t], index[k, rec.child])
           for k, t in nodes for rec in X.facet_records(t) if (k, rec.child) in tails]
    ))
    orbits: list[Orbit] = []
    truncated = False
    for cycle in nx.simple_cycles(graph):
        if len(cycle) == 2:
            continue
        if max_orbits is not None and len(orbits) >= max_orbits:
            truncated = True
            break
        k, first = nodes[cycle[0]]
        cells = [nodes[i][1] for i in cycle]
        # Rotations start at a tail; the lexicographically least is canonical.
        starts = range(X.dim(first) - k, len(cells), 2)
        orbits.append(Orbit(min(tuple(cells[s:] + cells[:s]) for s in starts)))
    orbits.sort(key=lambda o: (len(o.cells), o.cells))
    return OrbitList(orbits, truncated)


def cross_collection_orbits(
    V: ArrowSet,
    X: Complex,
    collections_: Sequence[Collection],
    max_orbits: int | None = None,
) -> OrbitList:
    """The :func:`crossing_orbits` among the closed orbits of V."""
    return crossing_orbits(closed_orbits(V, X, max_orbits), collections_)


def crossing_orbits(found: OrbitList, collections_: Sequence[Collection]) -> OrbitList:
    """Flow-consistent orbits of ``found`` visiting at least two collections.

    A descent that ends on a strictly dearer cell runs against the flow (the
    exit direction of a cell is its lower-or-equal boundary), so orbits
    containing such a step are not trajectories and are skipped.  For the
    vector field of a discrete Morse-Bott function every step of a remaining
    orbit is value non-increasing and any collection change drops the value
    strictly, hence this list is empty.
    """
    lookup = {cid: C for C in collections_ for cid in C.cells}
    annotated = []
    for orbit in found:
        cells = orbit.cells
        ids = tuple(lookup[cid].id for cid in cells)
        if len(set(ids)) < 2:
            continue
        descends = all(
            lookup[cells[(i + 1) % len(cells)]].value <= lookup[cells[i]].value
            for i in range(1, len(cells), 2)
        )
        if descends:
            annotated.append(Orbit(cells, ids))
    return OrbitList(annotated, found.truncated)


def _dot_string(text: str) -> str:
    """``text`` as a quoted DOT string."""
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def to_dot(V: ArrowSet, X: Complex) -> str:
    """The arrow digraph in DOT format, one node per cell."""
    lines = ["digraph vector_field {"]
    for cid in X.ids():
        label = _dot_string(f"{cid} ({X.dim(cid)})")
        lines.append(f"  {_dot_string(cid)} [label={label}];")
    for src, dst in sorted(V.arrows):
        lines.append(f"  {_dot_string(src)} -> {_dot_string(dst)};")
    lines.append("}")
    return "\n".join(lines) + "\n"
