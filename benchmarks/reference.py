"""A fixed reference kernel that measures how fast the machine is right now.

On a shared host the speed of a core drifts by up to 2x for seconds to
minutes at a time, and the same code slows with it.  run.py times this
kernel between the executions of a workload and reports the run's times
scaled to a machine on which the kernel takes ``REFERENCE_S``.

The kernel mixes the three kinds of work the workloads do: interpreted
float arithmetic with list traffic, numpy arithmetic on 4-vectors and
numpy scalars (like the shape flow and its integrator), and dict and
tuple bookkeeping (like the exterior algebra).  It never imports the
package, so no change to the program can move it.

    python3 benchmarks/reference.py      # kernel time, min and median of 30
"""

from __future__ import annotations

import itertools
import statistics
import time

import numpy as np

REFERENCE_S = 0.1   # the kernel's time on an idle core of a 2-vCPU Xeon host
REPS = 3            # kernel timings after every execution

_PAIRS = {c: 1.0 + 0.1 * i for i, c in enumerate(itertools.combinations(range(7), 2))}
_TRIPLES = {c: 0.5 - 0.05 * i for i, c in enumerate(itertools.combinations(range(7), 3))}


def _step(x: float, j: int) -> float:
    return x * 0.5 + j * 0.25


def _interpreted(n: int = 230_000) -> float:
    table = [0.0] * 64
    acc = 0.0
    for i in range(n):
        j = i & 63
        v = _step(table[j], i % 7)
        table[j] = v
        acc += v if j & 1 else -v
    return acc


def _field(r: np.ndarray) -> np.ndarray:
    a, b, c, d = r
    return np.array([0.5 * (a * a / (b * b) - c / d), (d * d - b * b + c) / (c * d),
                     (b * b + d * d - c * c) / (b * d), 0.5 * (a / d + c / b)])


def _vectors(n: int = 2_000) -> float:
    r = np.array([0.1, 1.0, 1.1, 1.2])
    h = 1e-4
    for _ in range(n):
        k1 = _field(r)
        k2 = _field(r + 0.5 * h * k1)
        k3 = _field(r + 0.5 * h * k2)
        k4 = _field(r + h * k3)
        r = r + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return float(np.linalg.norm(r))


def _merge(a: tuple, b: tuple) -> tuple:
    if set(a) & set(b):
        return 0, ()
    m = list(a + b)
    sign = 1
    for i in range(len(m)):
        for j in range(len(m) - 1 - i):
            if m[j] > m[j + 1]:
                m[j], m[j + 1] = m[j + 1], m[j]
                sign = -sign
    return sign, tuple(m)


def _bookkeeping(n: int = 30) -> float:
    total = 0.0
    for _ in range(n):
        out = {}
        for ka, va in _PAIRS.items():
            for kb, vb in _TRIPLES.items():
                sign, k = _merge(ka, kb)
                if sign:
                    out[k] = out.get(k, 0.0) + sign * va * vb
        total += sum(out.values())
    return total


def kernel_s() -> float:
    """Wall time of one pass of the kernel."""
    t0 = time.perf_counter()
    _interpreted()
    _vectors()
    _bookkeeping()
    return time.perf_counter() - t0


def samples() -> list:
    return [kernel_s() for _ in range(REPS)]


if __name__ == "__main__":
    ts = [kernel_s() for _ in range(30)]
    print(f"min {min(ts):.4f} s  median {statistics.median(ts):.4f} s  "
          f"(REFERENCE_S {REFERENCE_S})")
