"""Shared numerical helpers for the test suite."""

import numpy as np

from g2cone import shoot


def central_derivative(ts, ys, i, half=3):
    """High-order central derivative at sample i from 2*half+1 neighbours.

    Local polynomial fit on a scaled abscissa (the raw Vandermonde is
    badly conditioned at small steps); needs half <= i < len(ts) - half.
    """
    lo, hi = i - half, i + half + 1
    tt = ts[lo:hi] - ts[i]
    scale = np.max(np.abs(tt))
    ys = np.atleast_2d(np.asarray(ys).T).T
    out = np.empty(ys.shape[1])
    for j in range(ys.shape[1]):
        p = np.polyfit(tt / scale, ys[lo:hi, j], 2 * half)
        out[j] = p[-2] / scale
    return out if out.size > 1 else float(out[0])


def hermite_sample(params, values, derivs, x):
    """Cubic Hermite interpolation of a sampled curve at parameter x."""
    i = int(np.searchsorted(params, x))
    i = min(max(i, 1), len(params) - 1)
    x0, x1 = params[i - 1], params[i]
    h = x1 - x0
    s = (x - x0) / h
    h00 = (1 + 2 * s) * (1 - s) ** 2
    h10 = s * (1 - s) ** 2
    h01 = s * s * (3 - 2 * s)
    h11 = s * s * (s - 1)
    return (h00 * values[i - 1] + h10 * h * derivs[i - 1]
            + h01 * values[i] + h11 * h * derivs[i])


def constant_trajectory(s, f0=2.0, slope=1.0, n=50, t_hi=80.0):
    """Synthetic exactly-conic trajectory along a fixed unit direction s."""
    t = np.linspace(1.0, t_hi, n)
    return shoot.Trajectory.from_samples("t", t, spheres=np.tile(s, (n, 1)),
                                         f=f0 + slope * t)
