"""Host speed, probed between operations, for rescaling wall times.

The reference machine is a shared 2-vCPU VM whose speed for the same
single-threaded code drifts by up to ±25% within seconds to minutes;
process CPU time drifts with it, so it is no remedy. Left as it is, that
drift alone spread a workload's median pass time by up to 28% from run
to run.

So every operation is followed by a short fixed probe, and the
operation's wall time is multiplied by the probe's reference time
divided by the mean of the probes before and after it: seconds at the
speed the host had when the reference was measured. The drift does not
slow every kind of work alike, so a workload names the probe that does
what its passes spend their time on:

* "numpy": walking tree nodes and masking, gathering, sorting and
  summing rows of a numpy matrix, as tree fitting, prediction and ICE
  do;
* "recursion": walking tree nodes and copying and updating short lists
  of floats, as the TreeSHAP recursion does.

A probe is the median of five short repeats, so that a blip of a few
milliseconds does not set the factor for a whole operation. Probes are
benchmark code only, so no change to welloop moves them, and a welloop
change that saves work saves the same share of rescaled and of wall
time.
"""

from __future__ import annotations

import statistics
import time

import numpy as np


def _tree(depth: int, i: int = 0):
    if depth == 0:
        return float(i)
    return (i % 13, (i % 7) / 7.0, _tree(depth - 1, 2 * i + 1), _tree(depth - 1, 2 * i + 2))


_TREE = _tree(9)
_X = np.random.default_rng(0).random((1000, 13))


def _walk(rows: int) -> float:
    total = 0.0
    for row in _X[:rows].tolist():
        node = _TREE
        while isinstance(node, tuple):
            feature, threshold, left, right = node
            node = left if row[feature] <= threshold else right
        total += node
    return total


def _numpy_work() -> float:
    total = _walk(40)
    idx = np.arange(_X.shape[0])
    for f in range(_X.shape[1]):
        mask = _X[idx, f] <= 0.5
        total += float(_X[idx[mask], f].sum() - _X[idx[~mask], f].sum())
    order = np.argsort(_X[:, 0], kind="stable")
    return total + float(np.cumsum(_X[order, 1])[-1])


def _recursion_work() -> float:
    total = _walk(20)
    phi = np.zeros(13)
    x = _X[0]
    for _ in range(12):
        path = []
        for k in range(5):
            path = [e[:] for e in path]
            n = len(path)
            path.append([k, 0.5, 1.0, 1.0 if n == 0 else 0.0])
            for i in range(n - 1, -1, -1):
                path[i + 1][3] += 0.7 * path[i][3] * (i + 1) / (n + 1)
                path[i][3] = 0.3 * path[i][3] * (n - i) / (n + 1)
            if x[k] <= 0.5:
                phi[k] += path[-1][3]
    idx = np.arange(_X.shape[0])
    for f in range(0, _X.shape[1], 2):
        mask = _X[idx, f] <= 0.5
        total += float(_X[idx[mask], f].sum() - _X[idx[~mask], f].sum())
    return total + float(phi.sum())


# probe name -> (task, median probe() seconds on the reference machine)
TASKS = {"numpy": (_numpy_work, 0.0125), "recursion": (_recursion_work, 0.009)}


def probe(name: str) -> float:
    """Median wall time of five repeats of a fixed single-threaded task."""
    work = TASKS[name][0]
    times = []
    for _ in range(5):
        start = time.perf_counter()
        for _ in range(18):
            work()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def factor(name: str, before: float, after: float) -> float:
    """Rescaling for an operation that ran between two probes."""
    return TASKS[name][1] / (0.5 * (before + after))
