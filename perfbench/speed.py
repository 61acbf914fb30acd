"""Fixed speed probe that does not touch cpfsim.

On a machine whose cores are shared, the core itself slows down under the
neighbours' load, so raw wall time and CPU time drift together.  Each timed
piece of work is divided by the time of this probe measured next to it and
multiplied by PROBE_REF_S, which turns it into seconds on a machine where
the probe takes PROBE_REF_S.  The probe is mostly interpreter work: float
arithmetic through calls, then a churn of small tuples and ".17g" strings
like cpfsim's rows and CSV lines.  A smaller part runs numpy
transcendentals over an array the size of one Monte Carlo chunk.  On a
shared 2-core machine, interpreter work tracked the slow-downs of all three
workloads better than numpy work did, across separate processes.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

# Median probe time on a shared 2-core x86-64 machine (Python 3.11, numpy 2.4).
PROBE_REF_S = 0.018

_X = np.linspace(0.0, 4.0, 1 << 16)


def _interpreter_work() -> float:
    acc = 0.0
    parts = []
    for i in range(3000):
        v = math.exp(-i * 1e-3) * math.cos(i)
        parts.append(format(v, ".17g"))
        acc += len(parts[-1]) + v
    return acc + len(",".join(parts))


def _object_churn() -> int:
    rows = [(i, i * 0.37, format(i * 0.37, ".17g")) for i in range(6000)]
    return len(",".join(r[2] for r in rows))


def _numpy_work() -> float:
    acc = 0.0
    for k in range(2):
        y = np.cos(_X * (1.0 + k)) * np.exp(-_X)
        acc += float(y.sum())
    return acc


def probe() -> float:
    """Seconds taken by one fixed unit of mixed work."""
    start = time.perf_counter()
    _interpreter_work()
    _object_churn()
    _numpy_work()
    return time.perf_counter() - start


def probe_median(repeats: int = 3) -> float:
    return statistics.median(probe() for _ in range(repeats))
