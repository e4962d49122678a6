"""Host-speed probe: puts the benchmark's times on one reference host speed.

The benchmark shares a few cores of a host whose speed drifts by up to
~1.5x within seconds (neighbours' load on the same physical cores and
memory), so even the median of a 40-second run moves with the host. While
a run measures, a probe process runs a small fixed reference job every
``PERIOD_S`` on the same core as the program (``run.py`` pins both) and
records the job's CPU time, which preemption by the program does not
inflate but a slower core does. Every timed operation is then scaled by
``REF_S`` over the mean job time during it: it reads as seconds on a host
where the job takes ``REF_S``.

The reference job lives in this file and calls nothing of the program, so a
faster program reads faster, while a stretch of slow host slows the program
and the job together and cancels. The job costs the program about 1.3% of
its core on every commit alike. It runs in a process of its own, so it
holds no interpreter lock the benchmark's serve client needs, and its
memory does not raise the peak RSS of the program's processes (children
forked from the benchmark inherit its RSS as their floor). Unscaled times
stay in each result record.

Run as a script, this file is the probe process::

    python3 perfbench/hostspeed.py   # prints "<monotonic midpoint> <cpu s>" per job until stdin closes
"""

from __future__ import annotations

import bisect
import pathlib
import select
import statistics
import subprocess
import sys
import time
from typing import List

#: CPU seconds one reference job takes on the reference host (about its
#: median on a 2-vCPU Xeon under Python 3.11); the scale of every reported
#: time.
REF_S = 0.006
#: Seconds between the starts of two reference jobs.
PERIOD_S = 0.5


def probe_loop() -> None:
    import ast
    import collections
    import difflib
    import fractions
    import heapq
    import inspect
    import json
    import pprint
    import re
    import textwrap

    # A broad mix of interpreter and C-library code, as varied as the
    # program's own: a tight loop or a large gather alone tracks the host
    # less well, because the program suffers more than they do from a
    # neighbour sharing its core (its code and data footprint is larger).
    source = inspect.getsource(textwrap.dedent) + inspect.getsource(textwrap.indent)
    nested = {f"k{i}": [i, str(i), {"x": i * 0.5, "y": [1, 2, 3]}] for i in range(100)}
    assignments = " ".join(f"v{i} = {i * 7}" for i in range(600))
    pattern = re.compile(r"(\w+)\s*=\s*(\d+)")
    words = [f"w{(i * 7919) % 331}" for i in range(400)]
    text_a, text_b = " ".join(words[:200]), " ".join(words[100:300])

    def reference_job() -> int:
        compile(ast.parse(source), "<reference>", "exec")
        n = len(json.loads(json.dumps(nested))) + len(pattern.findall(assignments))
        n += int(100 * difflib.SequenceMatcher(None, text_a, text_b).ratio())
        n += sum(fractions.Fraction(1, i) for i in range(1, 40)).denominator % 97
        n += len(pprint.pformat(nested)) + len(textwrap.fill(text_a, 40))
        n += len(collections.Counter(words).most_common(10)) + len(heapq.nsmallest(20, words))
        return n

    while True:
        c0, m0 = time.process_time(), time.monotonic()
        reference_job()
        c1, m1 = time.process_time(), time.monotonic()
        print(f"{(m0 + m1) / 2!r} {c1 - c0!r}", flush=True)
        # Stop once the parent closes stdin (or dies).
        if select.select([sys.stdin], [], [], max(PERIOD_S - (m1 - m0), 0.0))[0]:
            return


class Timeline:
    """The probe process's jobs while the timeline is entered as a context
    manager, each at its ``time.monotonic()`` midpoint with its CPU time."""

    def __init__(self, log: pathlib.Path) -> None:
        self.log = log
        self.times: List[float] = []
        self.values: List[float] = []
        self._proc = None

    def __enter__(self) -> "Timeline":
        self.log.parent.mkdir(parents=True, exist_ok=True)
        with open(self.log, "w") as out:
            self._proc = subprocess.Popen([sys.executable, __file__], stdin=subprocess.PIPE,
                                          stdout=out)
        deadline = time.monotonic() + 30.0
        while not self.log.read_text().strip():  # the first job is done
            if self._proc.poll() is not None or time.monotonic() > deadline:
                self.__exit__()
                raise RuntimeError("the host-speed probe process did not start")
            time.sleep(0.01)
        return self

    def __exit__(self, *exc) -> None:
        self._proc.stdin.close()
        try:
            self._proc.wait(timeout=10.0)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        for line in self.log.read_text().splitlines():
            mid, cpu = line.split()
            self.times.append(float(mid))
            self.values.append(float(cpu))

    def factor(self, t0: float, t1: float) -> float:
        """``REF_S`` over the mean job time from ``t0`` to ``t1``, widened
        by one period each side so a short interval sees a job or two."""
        lo = bisect.bisect_left(self.times, t0 - PERIOD_S)
        hi = bisect.bisect_right(self.times, t1 + PERIOD_S)
        if lo >= hi:  # no job ran near the interval: take the closest one
            lo = min(max(lo - 1, 0), len(self.values) - 1)
            hi = lo + 1
        return REF_S / statistics.fmean(self.values[lo:hi])

    def summary(self) -> dict:
        return {"ref_s": REF_S, "jobs": len(self.values),
                "median_s": statistics.median(self.values),
                "min_s": min(self.values), "max_s": max(self.values)}


if __name__ == "__main__":
    probe_loop()
