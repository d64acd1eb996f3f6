"""Write ``golden.json``: pinned CLI outputs for ``tests/test_golden.py``.

Each case stores the complex text, the function text, and per argv the
exit code and the sha256 of stdout and stderr.  The texts are stored, not
regenerated, so the cases stay fixed even if the library that drew them
(the corpus repairs its draws with ``check_morse_bott``) changes.

Run from the repository root:

    PYTHONPATH=src python tests/data/make_golden.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import sys
import tempfile
from fractions import Fraction
from itertools import product
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

from conftest import (  # noqa: E402
    random_morse_bott_function,
    random_simplicial_complex,
)
from morsebott import (  # noqa: E402
    DiscreteFunction,
    build_from_incidence,
    build_simplicial,
    check_morse_bott,
    serialize_complex,
    serialize_function,
)
from morsebott.cli import run  # noqa: E402

ARGVS = [
    ["--json", cmd, "{complex}", "{function}"]
    for cmd in ("report", "inequalities", "conley", "collections", "flow", "morse-check")
] + [["report", "{complex}", "{function}"]]

WORKED = {
    "a": 3, "b": 3, "c": 3, "a-b": 3, "a-c": 3, "b-c": 3, "a-b-c": 3,
    "a-b-d": 2, "a-d": 2, "b-d": 2, "d": 0, "c-e": 1, "e": 0, "e-g": 5, "g": 4,
}
STAR = {"n": 3, "a-n": 1, "b-n": 2, "c-n": 3, "a": 1, "b": 2, "c": 3}


def worked_examples():
    """The conftest reference inputs, as (name, X, f)."""
    triangle = build_simplicial([("a", "b", "c")])
    tetrahedron = build_simplicial([("a", "b", "c", "d")])
    segment = build_simplicial([("v", "w")])
    hollow = build_simplicial([("a", "b"), ("b", "c"), ("a", "c")])
    worked = build_simplicial([("a", "b", "c"), ("a", "b", "d"), ("c", "e"), ("e", "g")])
    star = build_simplicial([("a", "n"), ("b", "n"), ("c", "n")])
    loop = build_from_incidence([("v", 0), ("e", 1)], [("e", "v", 2, False)])
    return [
        ("triangle-dim", triangle, DiscreteFunction.by_dimension(triangle)),
        ("tetrahedron-dim", tetrahedron, DiscreteFunction.by_dimension(tetrahedron)),
        ("segment-pair", segment, DiscreteFunction({"v": 1, "v-w": 1, "w": 0})),
        ("hollow-constant", hollow, DiscreteFunction.constant(hollow)),
        ("worked-example", worked, DiscreteFunction(WORKED)),
        ("star-violation", star, DiscreteFunction(STAR)),
        ("loop-dim", loop, DiscreteFunction.by_dimension(loop)),
        ("loop-constant", loop, DiscreteFunction.constant(loop)),
    ]


def corpus(n: int = 60):
    """The first ``n`` inputs of the ``mb_corpus`` fixture."""
    rng = random.Random(20250810)
    for i in range(n):
        X = random_simplicial_complex(rng)
        yield f"corpus-{i:03d}", X, random_morse_bott_function(X, rng)


def not_morse_bott(n: int = 20, seed: int = 977):
    """Seeded random small-valued functions that fail the Morse-Bott check."""
    rng = random.Random(seed)
    found = 0
    while found < n:
        X = random_simplicial_complex(rng, max_cells=15)
        f = DiscreteFunction({cid: Fraction(rng.choice((0, 1, 2, 3))) for cid in X.ids()})
        if not check_morse_bott(X, f).ok:
            yield f"not-mb-{found:02d}", X, f
            found += 1


def irregular_cw(n: int = 40, seed: int = 2017):
    """Seeded {0, 1, 2}-valued functions on two CW complexes with irregular
    records: RP2 on two vertices (regular edges a: p -> q and b: q -> p, the
    2-cell F attached along both with incidence 2) and the one-vertex torus
    (every incidence 0)."""
    rp2 = build_from_incidence(
        [("p", 0), ("q", 0), ("a", 1), ("b", 1), ("F", 2)],
        [("a", "p", -1, True), ("a", "q", 1, True), ("b", "q", -1, True),
         ("b", "p", 1, True), ("F", "a", 2, False), ("F", "b", 2, False)],
    )
    torus = build_from_incidence(
        [("v", 0), ("a", 1), ("b", 1), ("T", 2)],
        [("a", "v", 0, False), ("b", "v", 0, False), ("T", "a", 0, False),
         ("T", "b", 0, False)],
    )
    rng = random.Random(seed)
    for name, X in (("rp2-cw", rp2), ("torus-cw", torus)):
        ids = X.ids()
        for i, values in enumerate(rng.sample(list(product((0, 1, 2), repeat=len(ids))), n)):
            yield f"{name}-{i:02d}", X, DiscreteFunction(dict(zip(ids, values)))


def run_case(complex_text: str, function_text: str, argvs: list[list[str]]) -> list[dict]:
    """Run each argv in process on the stored texts."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = {"complex": Path(tmp, "k.cw"), "function": Path(tmp, "f.val")}
        paths["complex"].write_text(complex_text, encoding="utf-8")
        paths["function"].write_text(function_text, encoding="utf-8")
        return [_run(argv, {k: str(p) for k, p in paths.items()}) for argv in argvs]


def _run(argv: list[str], paths: dict[str, str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run([arg.format(**paths) for arg in argv])
    sha = lambda text: hashlib.sha256(text.encode("utf-8")).hexdigest()
    return {"argv": argv, "exit": code, "stdout_sha256": sha(out.getvalue()),
            "stderr_sha256": sha(err.getvalue())}


def main() -> None:
    cases = []
    for source in (worked_examples(), corpus(), not_morse_bott(), irregular_cw()):
        for name, X, f in source:
            complex_text = serialize_complex(X)
            function_text = serialize_function(f, X)
            cases.append(
                {
                    "name": name,
                    "complex": complex_text,
                    "function": function_text,
                    "runs": run_case(complex_text, function_text, ARGVS),
                }
            )
    (HERE / "golden.json").write_text(json.dumps(cases, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(cases)} cases, {sum(len(c['runs']) for c in cases)} runs")


if __name__ == "__main__":
    main()
