"""Spans and counts around calls into morsebott's public functions.

The tracer patches the package from the outside: it wraps each listed
function in every ``morsebott`` module namespace that binds it (modules
import each other's functions by name, so patching only the defining module
would miss their calls), records one span per call in memory, and restores
every binding when the traced pass ends.  Nothing under ``src/`` changes.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

# (module, function) pairs whose calls get a span.
TRACED = (
    ("io", "parse_complex"),
    ("io", "parse_function"),
    ("io", "serialize_report"),
    ("complex", "validate"),
    ("complex", "restrict"),
    ("morse", "collections"),
    ("morse", "check_morse_bott"),
    ("morse", "classify"),
    ("morse", "reduced_collections"),
    ("homology", "smith_normal_form"),
    ("homology", "rank_mod2"),
    ("homology", "chain_complex"),
    ("homology", "reduced_boundary"),
    ("homology", "relative_chain_complex"),
    ("homology", "betti"),
    ("flow", "vector_field"),
    ("flow", "closed_orbits"),
    ("analysis", "morse_bott_inequalities"),
    ("analysis", "kernel_inequality_check"),
    ("analysis", "collection_defect"),
    ("conley", "conley_theorem_check"),
    ("conley", "euler_index_check"),
    ("conley", "index_pair"),
    ("cli", "report"),
)


def _snf_sizes(tracer, args):
    matrix = args[0]
    rows = len(matrix)
    tracer.count("homology.snf_entries", rows * (len(matrix[0]) if rows else 0))
    tracer.count("homology.snf_nnz", sum(1 for row in matrix for v in row if v))


# Counts taken from a call's arguments (before the span opens) or its result.
BEFORE = {"homology.smith_normal_form": _snf_sizes}
AFTER = {
    "io.parse_complex": lambda t, r: t.count("io.cells", len(r)),
    "flow.vector_field": lambda t, r: t.count("flow.arrows", len(r)),
    "flow.closed_orbits": lambda t, r: (
        t.count("flow.orbits_kept", len(r)),
        t.count("flow.truncated", int(r.truncated)),
    ),
    "morse.collections": lambda t, r: t.count("morse.n_collections", len(r)),
    "morse.reduced_collections": lambda t, r: t.count("morse.n_reduced", len(r)),
}


class Tracer:
    """Spans (name, start, end, parent, op) and per-op counters.

    Each op opens a root span; the counters of an op are kept only when the
    op completes, so an op cut off by its deadline leaves no partial counts.
    Every wrapper closes its span in ``finally``, so a deadline that unwinds
    the stack leaves no span open.
    """

    def __init__(self):
        self.spans: list[list] = []  # [name, parent, op, start, end]
        self.completed: set[int] = set()
        self.totals: Counter = Counter()
        self._stack: list[int] = []
        self._op_counts: Counter = Counter()
        self._op = -1
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def count(self, key: str, n: int = 1) -> None:
        self._op_counts[key] += n

    def _open(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        self.spans.append([name, parent, self._op, perf_counter(), None])
        return sid

    def _close(self, sid: int) -> None:
        self.spans[sid][4] = perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def op(self, name: str):
        """One op under a root span; call ``keep()`` after it completes."""
        self._op += 1
        self._op_counts = Counter()
        sid = self._open(name)
        try:
            yield
        finally:
            self._close(sid)

    def keep(self) -> None:
        """Count the op that just ended as completed and keep its counters."""
        self.completed.add(self._op)
        self.totals.update(self._op_counts)

    def _wrap(self, name: str, fn):
        before = BEFORE.get(name)
        after = AFTER.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(self, args)
            sid = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(sid)
            if after is not None:
                after(self, result)
            return result

        return traced

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        modules = [
            m for key, m in sorted(sys.modules.items())
            if m is not None and (key == "morsebott" or key.startswith("morsebott."))
        ]
        for module, func in TRACED:
            original = getattr(sys.modules[f"morsebott.{module}"], func, None)
            if original is None:  # gone from the API: its metrics read 0
                continue
            wrapper = self._wrap(f"{module}.{func}", original)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        self._patch(m, attr, wrapper)
        self._install_enumerator()

    def _install_enumerator(self) -> None:
        # Count cycles at the enumerator the orbit search calls.  Calls are
        # counted per op like any other count, so a run in which no
        # completed op called the enumerator shows ``flow.enumerator_calls``
        # absent, and its cycle count is then reported absent too.
        owner = getattr(sys.modules["morsebott.flow"], "nx", None)
        original = getattr(owner, "simple_cycles", None)
        if original is None:
            return
        tracer = self

        def cycles(iterator):
            for cycle in iterator:
                tracer._op_counts["flow.cycles_examined"] += 1
                yield cycle

        @functools.wraps(original)
        def counted(*args, **kwargs):
            tracer._op_counts["flow.enumerator_calls"] += 1
            return cycles(original(*args, **kwargs))

        self._patch(owner, "simple_cycles", counted)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._patches):
            setattr(owner, attr, value)
        self._patches.clear()

    # -- results -------------------------------------------------------------

    def layer_stats(self) -> dict[str, float]:
        """calls, self_s and total_s per traced name, over completed ops.

        Self time is a span's duration minus the time its child spans cover;
        total time counts only the outermost span of a name, so recursion
        is not counted twice.
        """
        child_time = defaultdict(float)
        for name, parent, op, start, end in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        stats: dict[str, float] = defaultdict(float)
        for sid, (name, parent, op, start, end) in enumerate(self.spans):
            if op not in self.completed:
                continue
            stats[f"{name}.calls"] = int(stats[f"{name}.calls"]) + 1
            stats[f"{name}.self_s"] += (end - start) - child_time[sid]
            ancestor = parent
            while ancestor is not None and self.spans[ancestor][0] != name:
                ancestor = self.spans[ancestor][1]
            if ancestor is None:
                stats[f"{name}.total_s"] += end - start
        return dict(stats)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for sid, (name, parent, op, start, end) in enumerate(self.spans):
                out.write(
                    json.dumps(
                        {"id": sid, "parent": parent, "op": op, "name": name,
                         "start": start, "end": end, "completed": op in self.completed}
                    )
                    + "\n"
                )
