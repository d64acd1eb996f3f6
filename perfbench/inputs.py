"""Seeded input generators and the three workload definitions.

Every input comes from a seeded generator here, so the benchmark needs no
download and every run gets the same inputs.  The random complex and
Morse-Bott generators mirror the corpus construction of the test suite
(``tests/conftest.py``); they are copied rather than imported so that the
benchmark's inputs stay fixed when the tests change.

The Morse-Bott generator repairs its draws with the library's own
``check_morse_bott``, so its output would follow any change to that check,
and it takes seconds.  Its output is therefore kept in ``data/inputs.json``
and read from there; regenerate the file with

    python3 perfbench/inputs.py

from the root of a checkout.  The tori are built from formulas and need no
stored data.
"""

from __future__ import annotations

import json
import random
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from pathlib import Path

DATA = Path(__file__).resolve().parent / "data" / "inputs.json"

# Standard 7-vertex torus: both triangle families around the cyclic order.
TORUS7 = [(i, (i + 1) % 7, (i + 3) % 7) for i in range(7)] + [
    (i, (i + 2) % 7, (i + 3) % 7) for i in range(7)
]

# Minimal 6-vertex projective plane.
RP2 = [
    (1, 2, 5), (1, 2, 6), (1, 3, 4), (1, 3, 6), (1, 4, 5),
    (2, 3, 4), (2, 3, 5), (2, 4, 6), (3, 5, 6), (4, 5, 6),
]

TORUS_HOMOLOGY = {"Z": ((1, 2, 1), ((), (), ())), "Z2": ((1, 2, 1), ((), (), ()))}
RP2_HOMOLOGY = {"Z": ((1, 0, 0), ((), (2,), ())), "Z2": ((1, 1, 1), ((), (), ()))}


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


def random_simplices(rng: random.Random, max_cells: int = 25) -> list[tuple[str, ...]]:
    """Maximal simplices of a random simplicial complex of at most ``max_cells``."""
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
            sub for size in range(1, len(simplex) + 1) for sub in combinations(simplex, size)
        }
        if len(cells | subs) <= max_cells:
            chosen.append(simplex)
            cells |= subs
        if len(cells) >= max_cells - 2:
            break
    return chosen or [tuple(verts[:2])]


def random_morse_bott_values(mb, X, rng: random.Random) -> dict[str, Fraction]:
    """Random small values, repaired until the Morse-Bott check passes.

    A violating cell is re-rolled; once random repair stalls, the cell and
    its witnesses are pinned to their dimensions, which converges because
    f = dim satisfies the check.
    """
    pool = (0, 1, 2, 3)
    values = {cid: Fraction(rng.choice(pool)) for cid in X.ids()}
    for attempt in range(400):
        verdict = mb.check_morse_bott(X, mb.DiscreteFunction(values))
        if verdict.ok:
            return values
        bad = verdict.violations[0]
        if attempt < 120:
            values[bad.cell] = Fraction(rng.choice(pool))
        else:
            for cid in (bad.cell, *bad.witnesses):
                values[cid] = Fraction(X.dim(cid))
    return {cid: Fraction(X.dim(cid)) for cid in X.ids()}


def simplex_id(vertices) -> str:
    return "-".join(str(v) for v in sorted(vertices))


def cells_of(simplices) -> dict[str, int]:
    """Cell id to dimension, enumerated from the maximal simplices."""
    out = {}
    for simplex in simplices:
        for size in range(1, len(simplex) + 1):
            for sub in combinations(sorted(simplex), size):
                out[simplex_id(sub)] = size - 1
    return out


def encode_values(simplices, values: dict[str, Fraction]) -> str:
    """Values of the cells in sorted id order, one digit each."""
    ids = sorted(cells_of(simplices))
    assert set(values) == set(ids), "values do not match the cells"
    text = "".join(str(values[cid]) for cid in ids)
    assert len(text) == len(ids), "a value is not a single digit"
    return text


def decode_values(simplices, text: str) -> dict[str, Fraction]:
    return {cid: Fraction(int(d)) for cid, d in zip(sorted(cells_of(simplices)), text)}


@dataclass
class Input:
    """One simplicial complex, optionally with a Morse-Bott function, and
    the CLI ops run on it.

    ``expected`` maps a ring ("Z", "Z2") to the known (betti, torsion) of
    the complex, when it is a textbook space.  Every op runs in process in
    the traced run; ``cli_ops`` (all of ``ops`` unless given) also run as
    CLI children.
    """

    name: str
    simplices: list[tuple]
    values: dict[str, Fraction] | None
    ops: tuple[tuple[str, ...], ...]
    expected: dict = field(default_factory=dict)
    cli_ops: tuple[tuple[str, ...], ...] | None = None

    def __post_init__(self):
        if self.cli_ops is None:
            self.cli_ops = self.ops

    def complex_text(self) -> str:
        return "".join("simplex " + " ".join(map(str, s)) + "\n" for s in self.simplices)

    def function_text(self) -> str:
        return "".join(f"value {cid} {self.values[cid]}\n" for cid in sorted(self.values))

    def cells(self) -> dict[str, int]:
        return cells_of(self.simplices)

    def euler(self) -> int:
        return sum((-1) ** dim for dim in self.cells().values())

    def arrows(self) -> int:
        """Facet pairs sigma < tau with f(sigma) >= f(tau)."""
        n = 0
        for cid, dim in self.cells().items():
            if dim == 0:
                continue
            verts = cid.split("-")
            for i in range(len(verts)):
                facet = "-".join(verts[:i] + verts[i + 1 :])
                n += self.values[facet] >= self.values[cid]
        return n


HOMOLOGY_OPS = (("homology",), ("homology", "--coeff", "z2"))
MB_OPS = (("report",), ("flow",))


@dataclass
class Workload:
    """Inputs, the per-op deadline, and the library leg of a ``--trace 0``
    run: at least ``lib_passes`` passes over the Morse-Bott inputs, each
    split over ``lib_split`` workers, every worker under its own hash seed."""

    name: str
    inputs: list[Input]
    deadline_s: float
    lib_passes: int
    lib_split: int = 1


def torus_dim(data) -> Workload:
    """f = dim on the 6x6, 8x8 and 10x10 tori (216, 384, 600 cells).

    f = dim has no free parameter, so nothing here is random.
    """
    inputs = []
    for n in (6, 8, 10):
        tris = torus_triangles(n)
        dims = {cid: Fraction(dim) for cid, dim in cells_of(tris).items()}
        inputs.append(
            Input(f"torus{n}-dim", tris, dims, HOMOLOGY_OPS + MB_OPS, TORUS_HOMOLOGY)
        )
    return Workload("torus-dim", inputs, deadline_s=60.0, lib_passes=2)


TORUS_MB_DRAWS = 2
TORUS_MB_SPACES = [
    ("rp2", RP2, RP2_HOMOLOGY),
    ("torus7", TORUS7, TORUS_HOMOLOGY),
    ("torus4", torus_triangles(4), TORUS_HOMOLOGY),
    ("torus5", torus_triangles(5), TORUS_HOMOLOGY),
    ("torus6", torus_triangles(6), TORUS_HOMOLOGY),
]


def torus_mb_draws(mb) -> dict[str, str]:
    """The stored part of ``torus-mb``: encoded values per draw name.

    Single draws range from milliseconds to hanging in the orbit search,
    so the draws come from a fixed generator seed per complex: a draw set
    that changed from run to run would swing the summed wall time far
    beyond any usable bound.  Draws that hang are kept; they fail at their
    deadline.
    """
    draws = {}
    for name, tris, _ in TORUS_MB_SPACES:
        X = mb.build_simplicial(tris)
        rng = random.Random(f"torus-mb:{name}")
        for k in range(TORUS_MB_DRAWS):
            draws[f"{name}-mb{k}"] = encode_values(tris, random_morse_bott_values(mb, X, rng))
    return draws


def torus_mb(data) -> Workload:
    """Random Morse-Bott functions on RP2, the 7-vertex torus and the 4x4,
    5x5 and 6x6 tori, plus the constant function on the 3x3 torus."""
    inputs = []
    for name, tris, expected in TORUS_MB_SPACES:
        inputs.append(Input(name, tris, None, HOMOLOGY_OPS, expected))
        for k in range(TORUS_MB_DRAWS):
            values = decode_values(tris, data["torus-mb"][f"{name}-mb{k}"])
            inputs.append(Input(f"{name}-mb{k}", tris, values, MB_OPS, expected))
    # The ROADMAP's known hang: a valid Morse-Bott input whose orbit search
    # does not finish.
    tris = torus_triangles(3)
    constant = {cid: Fraction(0) for cid in cells_of(tris)}
    inputs.append(Input("torus3-const", tris, constant, MB_OPS, TORUS_HOMOLOGY))
    # The orbit search's time follows the hash order: one draw took 0.4 s
    # under some hash seeds and 0.8 s under others.  Four passes average it.
    return Workload("torus-mb", inputs, deadline_s=3.0, lib_passes=4)


ACCEPTANCE_CORPUS_SEED = 20250810  # the generator seed of the test suite's corpus
CORPUS_INPUTS = 400
CORPUS_CLI_REPORTS = 20
CORPUS_CLI_ALL_OPS = 3


def corpus_draws(mb) -> list[dict]:
    """The first 400 inputs of the acceptance corpus: random complexes of
    at most 25 cells with random Morse-Bott functions, drawn as the test
    suite draws them.

    The corpus is fixed rather than drawn per run: a few inputs in a draw
    cost 100 times the typical one in the orbit search, and how many a
    fresh draw of 400 held moved the library leg between 3.9 and 6.4 s.
    """
    rng = random.Random(ACCEPTANCE_CORPUS_SEED)
    draws = []
    for _ in range(CORPUS_INPUTS):
        simplices = random_simplices(rng)
        values = random_morse_bott_values(mb, mb.build_simplicial(simplices), rng)
        draws.append({"simplices": simplices, "values": encode_values(simplices, values)})
    return draws


def corpus_small(data) -> Workload:
    """The stored acceptance-corpus inputs.

    Every input runs ``report`` and ``flow`` in process, the first
    ``CORPUS_CLI_ALL_OPS`` also both homology ops.  A CLI child costs a
    fresh interpreter, so only the first ``CORPUS_CLI_REPORTS`` inputs run
    ``report`` as a child, and only the first ``CORPUS_CLI_ALL_OPS`` every op.
    """
    inputs = []
    for k, draw in enumerate(data["corpus-small"]):
        simplices = [tuple(s) for s in draw["simplices"]]
        values = decode_values(simplices, draw["values"])
        if k < CORPUS_CLI_ALL_OPS:
            ops = cli_ops = HOMOLOGY_OPS + MB_OPS
        else:
            ops, cli_ops = MB_OPS, MB_OPS[:1] if k < CORPUS_CLI_REPORTS else ()
        inputs.append(Input(f"corpus{k}", simplices, values, ops, cli_ops=cli_ops))
    # 400 inputs make one pass long enough; two workers spread it over the run.
    return Workload("corpus-small", inputs, deadline_s=60.0, lib_passes=1, lib_split=2)


WORKLOADS = {"torus-dim": torus_dim, "torus-mb": torus_mb, "corpus-small": corpus_small}


def load_workload(name: str) -> Workload:
    return WORKLOADS[name](json.loads(DATA.read_text(encoding="utf-8")))


def main() -> None:
    root = Path(__file__).resolve().parent.parent
    sys.path.insert(0, str(root / "src"))
    import morsebott

    corpus = corpus_draws(morsebott)
    lines = [json.dumps(draw, separators=(",", ":")) for draw in corpus]
    text = (
        '{"torus-mb": ' + json.dumps(torus_mb_draws(morsebott), indent=1)
        + ',\n"corpus-small": [\n' + ",\n".join(lines) + "\n]}\n"
    )
    DATA.parent.mkdir(exist_ok=True)
    DATA.write_text(text, encoding="utf-8")


if __name__ == "__main__":
    main()
