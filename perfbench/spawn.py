"""Run a batch of child processes one at a time and report each one's own
wall time and peak RSS.

Usage: ``python3 perfbench/spawn.py < jobs.json > results.json``, where
each job is ``{"argv": [...], "deadline_s": seconds}``.  The children
inherit this process's environment and working directory.

Linux carries the memory high-water mark of the process that spawns a
child into the child's ``ru_maxrss`` at exec, so the benchmark process,
which holds the library and every input, would inflate each child's peak.
This small process spawns the children instead; ``os.wait4`` then gives
each child's rusage on its own, where ``RUSAGE_CHILDREN`` would be a
running maximum over all of them.
"""

from __future__ import annotations

import json
import os
import selectors
import subprocess
import sys
from time import perf_counter


def spawn(argv: list[str], deadline_s: float) -> dict:
    """Run one child to completion or until its deadline, killing it then.

    A killed child's wall time is its deadline.
    """
    start = perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    chunks = {proc.stdout: [], proc.stderr: []}
    killed = False
    with selectors.DefaultSelector() as sel:
        for stream in chunks:
            sel.register(stream, selectors.EVENT_READ)
        while sel.get_map():
            remaining = start + deadline_s - perf_counter()
            if remaining <= 0 and not killed:
                proc.kill()
                killed = True
            for key, _ in sel.select(None if killed else remaining):
                data = os.read(key.fd, 1 << 16)
                if data:
                    chunks[key.fileobj].append(data)
                else:
                    sel.unregister(key.fileobj)
    _, status, usage = os.wait4(proc.pid, 0)
    elapsed = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
    proc.stdout.close()
    proc.stderr.close()
    stdout, stderr = (
        b"".join(chunks[s]).decode("utf-8", "replace") for s in (proc.stdout, proc.stderr)
    )
    return {
        "code": proc.returncode,
        "stdout": stdout,
        "stderr": stderr,
        "wall_s": deadline_s if killed else elapsed,
        "rss_mb": usage.ru_maxrss / 1024,
        "killed": killed,
    }


def main() -> None:
    jobs = json.load(sys.stdin)
    json.dump([spawn(job["argv"], job["deadline_s"]) for job in jobs], sys.stdout)


if __name__ == "__main__":
    main()
