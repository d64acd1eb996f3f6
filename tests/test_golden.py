"""CLI outputs stay byte-identical to the pinned ``tests/data/golden.json``.

Regenerate the file with ``PYTHONPATH=src python tests/data/make_golden.py``
only when an output is meant to change.
"""

import json
from pathlib import Path

import pytest

from data.make_golden import run_case

CASES = json.loads((Path(__file__).parent / "data" / "golden.json").read_text())


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_outputs_match_golden(case):
    argvs = [expected["argv"] for expected in case["runs"]]
    assert run_case(case["complex"], case["function"], argvs) == case["runs"]
