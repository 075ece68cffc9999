"""Fixed reference job that measures how fast the machine runs right now.

run.py starts it as fresh processes before every CLI invocation, one per
CPU, and reads two speeds from each:

1. Start-up: the process prints ``ready`` once its imports are done, so the
   parent's wall time up to that line is the cost of starting an
   interpreter and importing numpy and the standard modules the CLI uses,
   the bulk of ``import frontera.cli``. The processes start one after
   another, so each starts on an otherwise idle machine, as ``import
   frontera.cli`` does.
2. Compute: each then reads the number of a CPU from stdin, pins its main
   thread to it, waits until OpenBLAS's idle worker threads have stopped
   spinning, runs ``work()`` REPS times and prints the seconds that took,
   timed inside the process. run.py sends the CPU numbers together, so the
   processes compute at the same time, one on each CPU.

The two speeds are kept apart because of a 2-vCPU machine's habits. Right
after numpy is imported, an OpenBLAS worker spins for about 0.13 s.
Whether the kernel runs it beside the main thread or on the other CPU
changes from minute to minute, and adds about 0.06 s to every process
start in the first case. That is a large share of a short job's time and a
small share of a long CLI run, so a compute speed read with it in would
move unlike the CLI. The speed of each CPU also swings on its own, from
second to second, so the compute speed is read on every CPU the CLI may
run on.

``work()`` is a fixed mix of the kinds of work the CLI does: parsing dates
and floats into one frozen dataclass per row, formatting Decimals, JSON,
row operations on a small array, and returns statistics on short vectors.
The job never imports frontera, so a change to the program does not
change it.
"""

# The start-up phase imports what frontera's modules import, apart from
# frontera itself, so that it is as alike to ``import frontera.cli`` as a
# program-independent job can be.
import argparse  # noqa: F401
import csv  # noqa: F401
import io  # noqa: F401
import json
import os
import sys
import time
import typing  # noqa: F401
from dataclasses import dataclass
from datetime import date
from decimal import ROUND_HALF_UP, Decimal
from pathlib import Path  # noqa: F401

import numpy as np

REPS = 3
# OpenBLAS spins for 2**28 TSC cycles (0.13 s at 2.1 GHz) before it sleeps.
SETTLE_S = 0.15


@dataclass(frozen=True)
class Row:
    day: date
    close: float


def work():
    rng = np.random.default_rng(0)
    lines = [f"{date.fromordinal(730000 + i).isoformat()},{v:.6f}"
             for i, v in enumerate(rng.random(14000) * 100)]
    rows = [Row(date.fromisoformat(d), float(c)) for d, c in (line.split(",") for line in lines)]
    cent = Decimal("0.01")
    cells = [f"{Decimal(repr(r.close)).quantize(cent, rounding=ROUND_HALF_UP)}%" for r in rows]
    json.loads(json.dumps(cells))
    n = 120
    aug = np.hstack([np.eye(n) * n + rng.random((n, n)), np.eye(n)])
    for k in range(n):
        aug[k] /= aug[k, k]
        for i in range(n):
            if i != k:
                aug[i] -= aug[i, k] * aug[k]
    x = rng.random(700)
    for _ in range(2000):
        y = x[1:] / x[:-1] - 1.0
        float(np.std(y, ddof=1))
        float(np.prod(1.0 + y))


def main():
    print("ready", flush=True)
    cpu = int(sys.stdin.readline())
    os.sched_setaffinity(0, {cpu})
    time.sleep(SETTLE_S)
    start = time.perf_counter()
    for _ in range(REPS):
        work()
    print(time.perf_counter() - start, flush=True)


if __name__ == "__main__":
    sys.exit(main())
