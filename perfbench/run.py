"""The morsebott benchmark: CLI wall time, library throughput and per-module spans.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload torus-dim --seed 1 --seconds 30 --trace 0

One client, closed loop: each op starts after the previous one ended.

* ``--trace 0`` runs the CLI leg (each op in a fresh interpreter, timed from
  spawn to exit, peak RSS from that child's own rusage) and the library
  leg (in-process ``cli.report(X, f)`` on every Morse-Bott input, in worker
  interpreters that each run under their own hash seed), and prints the
  end-to-end metrics.
* ``--trace 1`` replays every op in process through ``cli.run``, once
  untraced and once with spans around each public function, and prints the
  per-layer metrics.

Both check every output.  The last stdout line is the result object; the
line before it holds the workload record (input sizes, versions, hash
seed, per-op outcomes).  Inputs, the record and the spans are written under
``.perfbench/`` in the checkout.  See ``perfbench/NOTES.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import random
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

from checks import check_input, check_op, op_kind  # noqa: E402
from inputs import WORKLOADS, load_workload  # noqa: E402
from libleg import DeadlineExceeded, deadline  # noqa: E402
from spans import Tracer  # noqa: E402

KIND_METRIC = {
    "report": "report_s",
    "homology": "homology_s",
    "homology-z2": "homology_z2_s",
    "flow": "flow_s",
}
MIN_CLI_PASSES = 2  # so that every CLI op repeats and has a median
# Import and parse times drift with the host over tens of seconds, so
# besides the set-up samples, each turn of the --trace 0 loop adds one.
IMPORT_SAMPLES = 3
PARSE_SAMPLES = 3
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import morsebott; "
    "print(time.perf_counter() - t); print(morsebott.__file__)"
)


def hash_seed(key: str) -> str:
    return str(random.Random(key).randrange(1, 2**32))


class Bench:
    def __init__(self, args, mb):
        self.args = args
        self.mb = mb
        self.workload = load_workload(args.workload)
        self.deadline_s = self.workload.deadline_s
        self.out = ROOT / ".perfbench" / f"{args.workload}-seed{args.seed}"
        (self.out / "inputs").mkdir(parents=True, exist_ok=True)
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.op_log: list[dict] = []
        self.cli_stdout: dict[str, str] = {}
        self.lib_stdout: dict[str, str] = {}
        self.lib_seeds: list[str] = []
        self.killed: set[str] = set()  # "leg input op" keys cut off at their deadline
        self.import_samples: list[float] = []
        self.parse_samples: list[float] = []
        self.files = {}
        for inp in self.workload.inputs:
            paths = [self.out / "inputs" / f"{inp.name}.cx"]
            paths[0].write_text(inp.complex_text(), encoding="utf-8")
            if inp.values is not None:
                paths.append(self.out / "inputs" / f"{inp.name}.fx")
                paths[1].write_text(inp.function_text(), encoding="utf-8")
            self.files[inp.name] = [str(p) for p in paths]

    # -- accounting ---------------------------------------------------------

    def account(self, leg: str, name: str, op, wall: float, killed: bool,
                problems: list[str], **extra) -> None:
        self.attempted += 1
        if killed or problems:
            self.failed += 1
        if problems:
            self.correct = False
        self.op_log.append(
            {"leg": leg, "input": name, "op": " ".join(op), "wall_s": wall,
             "killed": killed, "problems": problems, **extra}
        )

    def argv(self, inp, op) -> list[str]:
        files = self.files[inp.name][:1] if op[0] == "homology" else self.files[inp.name]
        return ["--json", op[0], *files, *op[1:]]

    # -- set-up -------------------------------------------------------------

    def spawn_batch(self, jobs: list[tuple[list[str], float]]) -> list[dict]:
        """Run (argv, deadline) jobs one at a time as children of
        ``spawn.py``, which says why they are not children of this process."""
        done = subprocess.run(
            [sys.executable, str(HERE / "spawn.py")],
            input=json.dumps([{"argv": argv, "deadline_s": d} for argv, d in jobs]),
            capture_output=True, text=True, env=self.env, cwd=ROOT, check=True,
        )
        return json.loads(done.stdout)

    def probe_imports(self, n: int) -> None:
        """Time ``import morsebott`` in ``n`` fresh interpreters."""
        probe = [sys.executable, "-c", IMPORT_PROBE]
        for child in self.spawn_batch([(probe, 60.0)] * n):
            lines = child["stdout"].split("\n")
            if child["code"] != 0 or not lines[1].startswith(str(SRC)):
                raise SystemExit("benchmark: a fresh interpreter did not import src/morsebott")
            self.import_samples.append(float(lines[0]))

    def parse_all(self) -> list:
        """Parse (with validation) every input, adding the time taken to the
        set-up samples; returns (input, X, f) triples."""
        start = perf_counter()
        parsed = []
        for inp in self.workload.inputs:
            X = self.mb.io.parse_complex(inp.complex_text())
            f = None if inp.values is None else self.mb.io.parse_function(inp.function_text(), X)
            parsed.append((inp, X, f))
        self.parse_samples.append(perf_counter() - start)
        return parsed

    def setup(self) -> None:
        """Set-up samples; the first import is dropped because it may write
        the bytecode cache."""
        self.probe_imports(IMPORT_SAMPLES + 1)
        del self.import_samples[0]
        self.parse_samples.clear()  # drop the parse of ``sizes()``
        for _ in range(PARSE_SAMPLES):
            self.parse_all()

    def setup_summary(self) -> dict:
        return {
            "import_s": statistics.median(self.import_samples),
            "parse_s": statistics.median(self.parse_samples),
            "import_samples": self.import_samples,
            "parse_samples": self.parse_samples,
        }

    # -- CLI leg ------------------------------------------------------------

    def cli_pass(self) -> dict[str, tuple[str, float, float]]:
        """One pass of the CLI ops; per op key: (kind, wall seconds, peak RSS MB).

        An op cut off at its deadline is not run again in later passes: its
        one sample, the deadline, stands for it."""
        plan = [
            (inp, op, f"{inp.name} {' '.join(op)}")
            for inp in self.workload.inputs for op in inp.cli_ops
        ]
        plan = [item for item in plan if f"cli {item[2]}" not in self.killed]
        children = self.spawn_batch(
            [([sys.executable, "-m", "morsebott", *self.argv(inp, op)], self.deadline_s)
             for inp, op, _ in plan]
        )
        samples = {}
        outputs: dict[str, dict] = {}
        for (inp, op, key), child in zip(plan, children):
            killed, stdout = child["killed"], child["stdout"]
            problems, data = ([], None) if killed else check_op(inp, op, child["code"], stdout)
            if killed:
                self.killed.add(f"cli {key}")
            elif self.cli_stdout.setdefault(key, stdout) != stdout:
                problems.append("stdout differs from an earlier run of the same op")
            if data is not None:
                outputs.setdefault(inp.name, {})[op_kind(op)] = data
            self.account("cli", inp.name, op, child["wall_s"], killed, problems,
                         code=child["code"], rss_mb=child["rss_mb"],
                         stderr=child["stderr"][-500:])
            samples[key] = (op_kind(op), child["wall_s"], child["rss_mb"])
        for inp in self.workload.inputs:
            self._cross_check("cli", inp, outputs.get(inp.name, {}))
        return samples

    def _cross_check(self, leg, inp, outputs) -> None:
        problems = check_input(outputs)
        if problems:
            self.correct = False
            self.op_log.append({"leg": leg, "input": inp.name, "problems": problems})

    # -- library leg --------------------------------------------------------

    def lib_pass(self) -> dict[str, float]:
        """In-process ``cli.report`` on one slice of the Morse-Bott inputs
        (the workload's ``lib_split`` slices make a pass), in a fresh worker
        (``libleg.py``) under the k-th hash seed of the workload's fixed
        panel.  Returns seconds per completed input.

        Inputs cut off in an earlier pass, and inputs whose CLI ``report``
        was cut off, are left out: their outcome is already known."""
        k = len(self.lib_seeds)
        seed = hash_seed(f"{self.args.workload}:lib:{k}")
        self.lib_seeds.append(seed)
        known = {key.split(" ")[1] for key in self.killed
                 if key.startswith("lib ") or key.startswith("cli ") and key.endswith(" report")}
        names = [inp.name for inp in self.workload.inputs
                 if inp.values is not None and inp.name not in known]
        split = self.workload.lib_split
        job = {"workload": self.args.workload, "inputs": names[k % split::split],
               "deadline_s": self.deadline_s}
        budget = 60 + self.deadline_s * (1 + len(names))
        done = subprocess.run(
            [sys.executable, str(HERE / "libleg.py")], input=json.dumps(job),
            capture_output=True, text=True, cwd=ROOT, timeout=budget, check=True,
            env=dict(self.env, PYTHONHASHSEED=seed),
        )
        result = json.loads(done.stdout)
        self.import_samples.append(result["import_s"])
        for name in result["killed"]:
            self.killed.add(f"lib {name}")
            self.account("lib", name, ("report",), self.deadline_s, True, [], hash_seed=seed)
        for inp in self.workload.inputs:
            stdout = result["stdout"].get(inp.name)
            if stdout is None:
                continue
            problems, data = check_op(inp, ("report",), 0, stdout)
            reference = self.cli_stdout.get(f"{inp.name} report")
            if reference is None:
                reference = self.lib_stdout.setdefault(inp.name, stdout)
            # A truncated orbit list follows the hash order (NOTES.md), and
            # the reference comes from another hash seed.
            truncated = data is not None and data["flow"]["truncated"]
            if reference != stdout and not truncated:
                problems.append("library report differs from an earlier report")
            self.account("lib", inp.name, ("report",), result["times"][inp.name],
                         False, problems, hash_seed=seed)
        return result["times"]

    # -- in-process replay (traced run) --------------------------------------

    def replay(self, tracer=None) -> dict:
        """Every op of every input through ``cli.run`` in this process.
        The traced pass leaves out the ops that the untraced one cut off.

        Returns, per op key, (wall seconds or None when cut off, stdout)."""
        results = {}
        for inp in self.workload.inputs:
            outputs = {}
            for op in inp.ops:
                key = f"{inp.name} {' '.join(op)}"
                if f"replay {key}" in self.killed:
                    results[key] = (None, "")
                    continue
                span = tracer.op(f"op.{op_kind(op)}") if tracer else contextlib.nullcontext()
                stdout, stderr = io.StringIO(), io.StringIO()
                killed = False
                code = None
                with span:
                    start = perf_counter()
                    try:
                        with contextlib.redirect_stdout(stdout), \
                                contextlib.redirect_stderr(stderr), \
                                deadline(self.deadline_s):
                            code = self.mb.cli.run(self.argv(inp, op))
                    except DeadlineExceeded:
                        killed = True
                        self.killed.add(f"replay {key}")
                    elapsed = perf_counter() - start
                if tracer and not killed:
                    tracer.keep()
                text = stdout.getvalue()
                problems, data = ([], None) if killed else check_op(inp, op, code, text)
                if data is not None:
                    outputs[op_kind(op)] = data
                self.account("traced" if tracer else "replay", inp.name, op,
                             self.deadline_s if killed else elapsed, killed, problems)
                results[key] = (None if killed else elapsed, text)
            self._cross_check("replay", inp, outputs)
        return results

    # -- records ------------------------------------------------------------

    def sizes(self) -> list[dict]:
        out = []
        for inp, X, f in self.parse_all():
            nnz = {}
            for rec in X.faces:
                key = (rec.parent, rec.child)
                nnz[key] = nnz.get(key, 0) + rec.incidence
            out.append({
                "input": inp.name,
                "cells_per_dim": [len(X.cells_of_dim(k)) for k in range(X.top_dim + 1)],
                "facet_records": len(X.faces),
                "boundary_nnz": sum(1 for v in nnz.values() if v),
                "arrows": None if f is None else inp.arrows(),
                "ops": [" ".join(op) for op in inp.ops],
                "cli_ops": [" ".join(op) for op in inp.cli_ops],
            })
        return out


def percentile(values: list[float], q: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(bench: Bench, record: dict) -> dict:
    """CLI passes and library slices in turn until the CLI leg has
    MIN_CLI_PASSES passes, the library leg the workload's ``lib_passes``,
    and the next turn would end past ``--seconds``.  Each turn goes to the
    leg furthest from its minimum (the CLI on a tie), which spreads both
    legs over the run.  Each turn also adds an import sample (a library
    worker's own import) and a parse sample to the set-up samples.

    CLI metrics take each op's median over its passes, then sum them per op
    kind.  The library leg takes each input's median over its passes, which
    ran under different hash seeds."""
    cli: dict[str, list] = {}
    lib: dict[str, list] = {}
    legs = [(cli, bench.cli_pass, [], MIN_CLI_PASSES),
            (lib, bench.lib_pass, [], bench.workload.lib_passes * bench.workload.lib_split)]
    start = perf_counter()
    while True:
        samples, one_pass, took, _ = min(legs, key=lambda leg: len(leg[2]) / leg[3])
        enough = all(len(leg[2]) >= leg[3] for leg in legs)
        if enough and perf_counter() - start + took[-1] > bench.args.seconds:
            break
        begin = perf_counter()
        for key, sample in one_pass().items():
            samples.setdefault(key, []).append(sample)
        if samples is cli:
            bench.probe_imports(1)
        bench.parse_all()
        took.append(perf_counter() - begin)
    wall = {key: statistics.median(s[1] for s in samples) for key, samples in cli.items()}
    kind = {key: samples[0][0] for key, samples in cli.items()}
    metrics = {"wall_s": (sum(wall.values()), "s")}
    for op_kind_, name in KIND_METRIC.items():
        metrics[name] = (sum(t for key, t in wall.items() if kind[key] == op_kind_), "s")
    metrics["peak_rss_mb"] = (max(s[2] for samples in cli.values() for s in samples), "MB")
    # Throughput and percentiles over the inputs that completed in every
    # pass.  A cut-off input is a failure, counted in ``failed``; charging
    # it its deadline here would bury the completed inputs' time under a
    # constant.
    done = [statistics.median(times) for name, times in lib.items()
            if f"lib {name}" not in bench.killed]
    metrics["lib_inputs_per_s"] = (len(done) / sum(done), "1/s")
    record["lib_op_ms"] = {"p50": 1000 * percentile(done, 50),
                           "p90": 1000 * percentile(done, 90), "samples": len(done)}
    setup = record["setup"] = bench.setup_summary()
    metrics["setup_s"] = (setup["import_s"] + setup["parse_s"], "s")
    record["samples"] = {"cli_passes": len(legs[0][2]), "cli_ops": len(cli),
                         "lib_slices": len(legs[1][2]), "lib_inputs": len(lib),
                         "lib_hash_seeds": bench.lib_seeds,
                         "cli_pass_s": legs[0][2], "lib_pass_s": legs[1][2]}
    return metrics


def per_layer(bench: Bench, record: dict) -> dict:
    """Every ``per_layer`` metric of BENCHMARK.json.  A span or count that no
    completed op recorded reads 0, except the cycle counts, which are absent
    when no completed op called the enumerator."""
    record["setup"] = bench.setup_summary()
    plain = bench.replay()
    tracer = Tracer()
    tracer.install()
    try:
        traced = bench.replay(tracer)
    finally:
        tracer.uninstall()
    both = [k for k in plain if plain[k][0] is not None and traced[k][0] is not None]
    for key in both:
        if plain[key][1] != traced[key][1]:
            bench.correct = False
            bench.op_log.append({"leg": "traced", "op": key,
                                 "problems": ["traced stdout differs from untraced"]})
    stats = tracer.layer_stats()
    stats.update(tracer.totals)
    stats["io.json_bytes"] = sum(len(traced[k][1].encode()) for k in traced if traced[k][0] is not None)
    cycles = stats.get("flow.cycles_examined", 0)
    stats["flow.orbit_yield"] = stats.get("flow.orbits_kept", 0) / max(cycles, 1)
    stats["cli.import_s"] = record["setup"]["import_s"]
    stats["cli.trace_overhead"] = (
        sum(traced[k][0] for k in both) / sum(plain[k][0] for k in both) - 1
    )
    absent = set() if stats.get("flow.enumerator_calls") else {
        "flow.cycles_examined", "flow.orbit_yield"}
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = {m["name"]: (stats.get(m["name"], 0), m["unit"])
               for m in spec["per_layer"] if m["name"] not in absent}
    tracer.write(bench.out / "spans.jsonl")
    record["spans"] = {"file": str((bench.out / "spans.jsonl").relative_to(ROOT)),
                       "count": len(tracer.spans), "ops_completed": len(tracer.completed)}
    return metrics


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = parse_args(argv)
    if not (SRC / "morsebott" / "__init__.py").is_file():
        print(f"benchmark: no morsebott sources under {SRC}", file=sys.stderr)
        return 2
    # The benchmark process and every CLI child share one hash seed derived
    # from the workload seed, so set order, and with it orbit enumeration
    # and truncated output, is the same in all of them.  The library
    # workers run under a fixed panel of hash seeds (``Bench.lib_pass``).
    seed = hash_seed(f"{args.workload}:{args.seed}")
    if os.environ.get("PYTHONHASHSEED") != seed:
        env = dict(os.environ, PYTHONHASHSEED=seed)
        os.execve(sys.executable, [sys.executable, str(Path(__file__).resolve()), *argv], env)

    sys.path.insert(0, str(SRC))
    import morsebott
    import morsebott.cli
    import morsebott.io

    if not Path(morsebott.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"benchmark: imported morsebott from {morsebott.__file__}", file=sys.stderr)
        return 2
    try:
        import networkx
        nx_version = networkx.__version__
    except ImportError:
        nx_version = None

    started = perf_counter()
    bench = Bench(args, morsebott)
    record = {
        "workload": args.workload, "seed": args.seed, "pythonhashseed": seed,
        "python": platform.python_version(), "networkx": nx_version,
        "deadline_s": bench.deadline_s, "inputs_s": perf_counter() - started,
        "inputs": bench.sizes(),
    }
    bench.setup()
    measure = per_layer if args.trace else end_to_end
    metrics = measure(bench, record)
    record["fail_share"] = bench.failed / max(bench.attempted, 1)
    record["ops"] = bench.op_log
    (bench.out / f"record-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8"
    )
    print(json.dumps({"record": {k: v for k, v in record.items() if k != "ops"}}))
    print(json.dumps({
        "correct": bench.correct,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
