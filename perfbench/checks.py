"""Output checks for every op.

Each check returns a list of problems; an empty list means the output is
correct.  The expected values come from the inputs themselves (cell counts,
arrows, textbook homology), never from the library under test.
"""

from __future__ import annotations

import json

RING = {"homology": "Z", "homology-z2": "Z2"}


def op_kind(op: tuple[str, ...]) -> str:
    """Metric family of an op: report, flow, homology or homology-z2."""
    return "homology-z2" if op[1:] == ("--coeff", "z2") else op[0]


def check_op(inp, op, code: int, stdout: str) -> tuple[list[str], dict | None]:
    """Problems with one op's exit code and stdout, and the parsed output."""
    if code != 0:
        return [f"exit code {code}"], None
    try:
        data = json.loads(stdout)
    except ValueError:
        return ["stdout is not JSON"], None
    kind = op_kind(op)
    try:
        if kind in RING:
            problems = _homology(inp, RING[kind], data)
        elif kind == "report":
            problems = _report(inp, data)
        else:
            problems = _flow(inp, data)
    except (KeyError, TypeError, IndexError) as err:
        return [f"malformed output: {err!r}"], None
    return problems, data


def _homology(inp, ring: str, data: dict) -> list[str]:
    problems = []
    summary = data["summary"]
    betti = tuple(summary["betti"])
    torsion = tuple(tuple(t) for t in summary["torsion"])
    if data["ring"] != ring:
        problems.append(f"ring {data['ring']} != {ring}")
    if ring in inp.expected and (betti, torsion) != inp.expected[ring]:
        problems.append(f"{ring} homology {betti} {torsion} != {inp.expected[ring]}")
    chi = inp.euler()
    if data["euler"] != chi or sum((-1) ** k * b for k, b in enumerate(betti)) != chi:
        problems.append(f"Euler characteristic is not the alternating cell count {chi}")
    return problems


def _report(inp, data: dict) -> list[str]:
    problems = []
    if data.get("ok") is not True:
        problems.append("report ok is not true")
    if data["morse_bott"]["ok"] is not True:
        problems.append("morse_bott.ok is not true")
    if data["flow"]["arrows"] != inp.arrows():
        problems.append(f"{data['flow']['arrows']} arrows, expected {inp.arrows()}")
    if data.get("euler", {}).get("complex") != inp.euler():
        problems.append("euler.complex is not the alternating cell count")
    if "Z" in inp.expected:
        betti = list(inp.expected["Z"][0])
        while betti and betti[-1] == 0:
            betti.pop()
        if data["inequalities"]["poincare_complex"]["coeffs"] != betti:
            problems.append("Poincare polynomial of the complex is wrong")
    return problems


def _flow(inp, data: dict) -> list[str]:
    problems = []
    if len(data["arrows"]) != inp.arrows():
        problems.append(f"{len(data['arrows'])} arrows, expected {inp.arrows()}")
    if data["cross_collection_orbits"]:
        problems.append("cross-collection orbits on a Morse-Bott input")
    if not data["arrows"] and (data["closed_orbits"] or data["truncated"]):
        problems.append("closed orbits without arrows")
    return problems


def check_input(outputs: dict[str, dict]) -> list[str]:
    """Agreement between the ops of one input, keyed by op kind.

    Homology over Z and Z2 must satisfy the universal coefficient theorem,
    and ``report`` must count the orbits that ``flow`` lists.
    """
    problems = []
    z, z2 = outputs.get("homology"), outputs.get("homology-z2")
    if z and z2:
        betti = z["summary"]["betti"]
        even = [sum(1 for d in t if d % 2 == 0) for t in z["summary"]["torsion"]]
        for k, b2 in enumerate(z2["summary"]["betti"]):
            if b2 != betti[k] + even[k] + (even[k - 1] if k else 0):
                problems.append(f"Z2 Betti number {k} breaks universal coefficients")
    rep, flow = outputs.get("report"), outputs.get("flow")
    if rep and flow:
        if (rep["flow"]["closed_orbits"], rep["flow"]["truncated"]) != (
            len(flow["closed_orbits"]),
            flow["truncated"],
        ):
            problems.append("report and flow disagree on closed orbits")
    return problems
