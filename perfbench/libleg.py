"""One pass of the library leg, in a fresh interpreter.

Usage: ``python3 perfbench/libleg.py < job.json > result.json``, from the
root of a checkout.  The job is ``{"workload": name, "inputs": [input
names], "deadline_s": seconds}``.

The worker times ``import morsebott`` (a set-up sample, as a fresh
interpreter's import), parses the named Morse-Bott inputs of the workload,
makes one untimed ``cli.report`` call on a one-edge complex, then times
``cli.report(X, f)`` on each input, in the order given, cutting a call off
at the deadline.  It prints ``{"import_s": s, "times": {name: s},
"killed": [names], "stdout": {name: report JSON}}``.

The benchmark runs several of these, each under its own hash seed, so the
library leg's time is an average over set iteration orders rather than the
time of a single one (see ``NOTES.md``).
"""

from __future__ import annotations

import contextlib
import json
import signal
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


class DeadlineExceeded(Exception):
    pass


def _alarm(signum, frame):
    raise DeadlineExceeded()


@contextlib.contextmanager
def deadline(seconds: float):
    """Raise DeadlineExceeded in this (main) thread after ``seconds``."""
    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def main() -> None:
    sys.path.insert(0, str(SRC))
    start = perf_counter()
    import morsebott

    import_s = perf_counter() - start
    import morsebott.cli
    import morsebott.io

    if not Path(morsebott.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"libleg: imported morsebott from {morsebott.__file__}")
    sys.path.insert(0, str(HERE))
    from inputs import Input, load_workload

    job = json.load(sys.stdin)
    by_name = {inp.name: inp for inp in load_workload(job["workload"]).inputs}

    def parse(inp):
        X = morsebott.io.parse_complex(inp.complex_text())
        return X, morsebott.io.parse_function(inp.function_text(), X)

    # Untimed, so that lazy set-up is not timed.
    morsebott.cli.report(*parse(Input("warm-up", [("a", "b")], {"a": 0, "b": 0, "a-b": 1}, ())))
    parsed = [(name, *parse(by_name[name])) for name in job["inputs"]]
    result = {"import_s": import_s, "times": {}, "killed": [], "stdout": {}}
    for name, X, f in parsed:
        start = perf_counter()
        try:
            with deadline(job["deadline_s"]):
                document = morsebott.cli.report(X, f)
        except DeadlineExceeded:
            result["killed"].append(name)
            continue
        result["times"][name] = perf_counter() - start
        result["stdout"][name] = document.to_json()
    json.dump(result, sys.stdout)


if __name__ == "__main__":
    main()
