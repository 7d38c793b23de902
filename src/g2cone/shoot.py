"""Trajectory production: series launch, chart launch, integration, asymptotics.

The shape flow leaves the singular orbit at t = 0 with B1 = 0, so the
integration cannot start there directly.  A power series in t built
order-by-order from the flow equations supplies a starting state at a
small offset; on the sphere side, the trajectory leaves the singular
arc J along the unstable eigenvector of the desingularized chart field
and is continued in u after leaving a small neighbourhood of J.

Integration uses an embedded Dormand-Prince 5(4) pair with elementary
step control, h <- h clamp(0.9 err^(-1/5), 0.2, 5), optional per-step
projection (used to renormalize sphere states), and early termination on
positivity loss, step collapse, the G1 wall (`wall-crossing`), entry into
Q (`stays-inside`) or the trapping set of S_inf (`converged-to-target`).
"""

from __future__ import annotations

import functools
import math

import numpy as np

from . import flow

__all__ = [
    "SeriesStart",
    "Trajectory",
    "ALCFit",
    "REACHED_HORIZON",
    "CONVERGED",
    "POSITIVITY_VIOLATION",
    "STEP_FAILURE",
    "WALL_CROSSING",
    "STAYS_INSIDE",
    "SERIES_MAX_OFFSET",
    "series_start",
    "eval_series",
    "gauss_legendre",
    "integrate_shape",
    "integrate_sphere",
    "sphere_stop",
    "launch_sphere",
    "unstable_direction",
    "detect_convergence",
    "sample_at_level",
    "alc_fit",
    "family_shape_trajectory",
    "critical_parameter",
    "ALC_NOTE",
]

REACHED_HORIZON = "reached-horizon"
CONVERGED = "converged-to-target"
POSITIVITY_VIOLATION = "positivity-violation"
STEP_FAILURE = "step-failure"
WALL_CROSSING = "wall-crossing"  # sphere launches and runs stopped once decided: the G1 wall
STAYS_INSIDE = "stays-inside"  # runs stopped once decided, on entering Q (see integrate_shape)

POSITIVITY_FLOOR = 1e-9
SERIES_MAX_OFFSET = 1e-2  # the series launch offset never exceeds this t
CHART_SWITCH_X = 0.01  # leave the desingularized chart once alpha3 reaches this
ATOL = 1e-12  # absolute tolerance of every integration
LAUNCH_TOL = 1e-10  # relative tolerance of both phases of a sphere launch

# The limit direction has alpha1 = 0 and alpha3 > 0: the bounded metric
# function is A1, while B1 grows with slope 2/3.  Emitted with every
# asymptotic fit because the bounded function is sometimes misattributed.
ALC_NOTE = (
    "asymptotically conic limit: A1 approaches a constant (slope 0); "
    "B1 grows linearly with slope 2/3 and is not the bounded function"
)


class _Record:
    """Read-only fields: __init__ sets them once in vars(self); assigning or deleting raises."""

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is read-only: cannot assign {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is read-only: cannot delete {name!r}")


class SeriesStart(_Record):
    """Power-series data of the smooth solution leaving the singular orbit.

    coefficients[k], shape (order+1, 4), holds the t^k coefficients of
    (A1, A2, B1, B2); the seed is (mu, lambda, 0, lambda) with
    B1'(0) = +2, A1'(0) = 0 and A2'(0) = -B2'(0) = -mu/(4 lambda).
    """

    def __init__(self, mu: float, lam: float, order: int, coefficients: np.ndarray):
        vars(self).update(mu=mu, lam=lam, order=order, coefficients=coefficients)

    def truncation_offset(self, tol: float = 1e-10) -> float:
        """Largest launch offset with last-term estimate below tol, at most SERIES_MAX_OFFSET."""
        last = np.max(np.abs(self.coefficients[-1]))
        if last == 0.0:
            return SERIES_MAX_OFFSET
        return min(SERIES_MAX_OFFSET, (tol / last) ** (1.0 / self.order))


class Trajectory(_Record):
    """Ordered samples of an integrated solution, as named columns.

    t and u are the cone and sphere parameters, each strictly increasing,
    or None where the run does not track it (a sphere run has no t, a
    closed form no u).  shapes and spheres are (n, 4) with shapes =
    f * spheres: pass shapes, or spheres and f, and the rest is derived.
    stats holds the integrator's counters only.  Instances are not mutated
    after creation; the monitor table is computed from spheres and f on
    first use, so a run no one reads it of (an edge probe) never builds it.
    """

    def __init__(self, *, t=None, u=None, shapes=None, spheres=None, f=None,
                 termination: str = REACHED_HORIZON, stats=None):
        if shapes is None:
            shapes = spheres * f[:, None]
        else:
            f = np.linalg.norm(shapes, axis=1)
            spheres = shapes / f[:, None]
        vars(self).update(t=t, u=u, shapes=shapes, spheres=spheres, f=f,
                          termination=termination, stats=dict(stats or {}))

    def __len__(self) -> int:
        return len(self.f)

    @functools.cached_property
    def monitors(self) -> np.ndarray:
        """(n, 9) in the order flow.MONITOR_NAMES, NaN for flagged-missing entries."""
        return flow.monitor_table(self.spheres, self.f)

    def monitor(self, name: str) -> np.ndarray:
        return self.monitors[:, flow.MONITOR_NAMES.index(name)]


class ALCFit(_Record):
    """Affine fits of the shape functions over a trailing t-window."""

    def __init__(self, slopes: np.ndarray, intercepts: np.ndarray, t_lo: float, t_hi: float,
                 max_relative_deviation: float, note: str = ALC_NOTE):
        vars(self).update(slopes=slopes, intercepts=intercepts, t_lo=t_lo, t_hi=t_hi,
                          max_relative_deviation=max_relative_deviation, note=note)


# -- power series off the singular orbit ----------------------------------


def _series_residuals(c: np.ndarray, n: int, odd: bool) -> tuple:
    """Coefficient arrays of (E1, E3) when odd, else (E2, E4), truncated to degree n.

    With denominators cleared, a series solution satisfies
        E1 = 2 A1' A2^2 B2^2 - A1^2 (B2^2 - A2^2)            = 0
        E2 = 2 A2' A2 B1 B2 - A2 (B2^2 - A2^2 + B1^2) + A1 B1 B2 = 0
        E3 = B1' A2 B2 - (A2^2 + B2^2 - B1^2)                = 0
        E4 = 2 B2' A2 B1 B2 - B2 (A2^2 - B2^2 + B1^2) - A1 A2 B1 = 0
    identically in t.  series_start reads one pair at a time, so only that pair is built.
    """
    a1, a2, b1, b2 = (c[:, j] for j in range(4))
    k = np.arange(len(a1))

    def d(f):  # coefficients of the t-derivative
        return np.append((k * f)[1:], 0.0)

    def m(a, b):  # product, truncated to degree n
        return np.convolve(a, b)[: n + 1]

    a2sq, b2sq, b1sq = m(a2, a2), m(b2, b2), m(b1, b1)
    if odd:
        return (2.0 * m(d(a1), m(a2sq, b2sq)) - m(m(a1, a1), b2sq - a2sq),
                m(d(b1), m(a2, b2)) - (a2sq + b2sq - b1sq))
    b1b2 = m(b1, b2)
    a2b1b2 = m(a2, b1b2)
    return (2.0 * m(d(a2), a2b1b2) - m(a2, b2sq - a2sq + b1sq) + m(a1, b1b2),
            2.0 * m(d(b2), a2b1b2) - m(b2, a2sq - b2sq + b1sq) - m(a1, m(a2, b1)))


def series_start(mu: float, order: int = 4) -> SeriesStart:
    """Unique power-series solution leaving the singular orbit at parameter mu.

    Matches the flow identities order by order from the seed
    (mu, lambda, 0, lambda), two residual evaluations at c[k] = 0 per
    order k: E1, E3 at t^(k-1) have slopes 2k lambda^4, k lambda^2 in a_k,
    b_k; with those set (at k = 1, E2 holds p_1 b_1), E2, E4 at t^k have
    the Jacobian lambda^2 [[4k+2, -2], [-2, 4k+2]] in (p_k, q_k).
    """
    if not 0.0 < mu < 1.0:
        raise ValueError(f"mu must lie in (0, 1), got {mu}")
    if not 3 <= order <= 8:
        raise ValueError(f"order must lie in 3..8, got {order}")
    lam = math.sqrt((1.0 - mu * mu) / 2.0)
    lam2 = lam * lam
    c = np.zeros((order + 1, 4))
    c[0] = (mu, lam, 0.0, lam)
    for k in range(1, order + 1):
        e1, e3 = _series_residuals(c[: k + 1], k + 1, odd=True)
        c[k, 0] = -e1[k - 1] / (2 * k * lam2 * lam2)
        c[k, 2] = -e3[k - 1] / (k * lam2)
        e2, e4 = _series_residuals(c[: k + 1], k + 1, odd=False)
        det = 16 * k * (k + 1) * lam2
        c[k, 1] = -((4 * k + 2) * e2[k] + 2.0 * e4[k]) / det
        c[k, 3] = -(2.0 * e2[k] + (4 * k + 2) * e4[k]) / det
    return SeriesStart(mu, lam, order, c)


def eval_series(s: SeriesStart, t) -> np.ndarray:
    """Shapes (..., 4) of the truncated series at offsets t (...), all in its trust radius."""
    t = np.asarray(t, dtype=float)
    dmax = s.truncation_offset()
    if not np.all((0.0 <= t) & (t <= dmax)):
        raise ValueError(f"t={t} outside the series trust interval [0, {dmax:.3e}]")
    return t[..., None] ** np.arange(s.order + 1) @ s.coefficients


# -- quadrature --------------------------------------------------------------

# np.polynomial.legendre.leggauss(20) bit for bit (importing numpy.polynomial costs ~3 ms
# of start-up): its nodes are exactly odd and its weights exactly even, so half of each mirrors.
_GL_XP = (0.07652652113349734, 0.22778585114164507, 0.37370608871541955, 0.5108670019508271,
          0.636053680726515, 0.7463319064601508, 0.8391169718222188, 0.912234428251326,
          0.9639719272779138, 0.993128599185095)
_GL_WP = (0.15275338713072628, 0.14917298647260424, 0.1420961093183824, 0.1316886384491769,
          0.1181945319615186, 0.1019301198172407, 0.08327674157670471, 0.06267204833410879,
          0.040601429800386446, 0.017614007139150893)
_GL_X = flow._frozen([-x for x in _GL_XP[::-1]] + list(_GL_XP))
_GL_W = flow._frozen(_GL_WP[::-1] + _GL_WP)
_GL_MAX_PANELS = 100_000  # 16 MB of abscissae; r_to_t's widest span, sqrt(1e6), takes 1,000


def gauss_legendre(fn, a, b):
    """Cumulative composite 20-point Gauss-Legendre rule for smooth integrands.

    Integrals of fn from the float a to every entry of b (float or array,
    whose shape the result keeps), in one pass: the span is cut at a and
    at each distinct end, each gap gets its own number of panels, at most
    one unit wide and at least eight in all (past _GL_MAX_PANELS in all,
    ValueError), and each integral is a prefix sum of gap integrals.
    Accurate to rounding when fn is analytic 0.5 off the real segment.
    fn maps an array of abscissae to integrand values elementwise, one
    call per distinct panel count; the nodes avoid the knots, so fn only
    needs a continuous extension there.  An end equal to a gives exactly 0.0.
    """
    b = np.asarray(b, dtype=float)
    ends = b.ravel().tolist()
    if bad := [x for x in (a, *ends) if not math.isfinite(x)]:
        raise ValueError(f"gauss_legendre needs finite limits, got {bad[0]}")
    knots = sorted({a, *ends})  # not np.unique: its first call imports numpy.ma
    cuts = np.array(knots)
    h = cuts[1:] - cuts[:-1]
    panels = np.maximum(math.ceil(8 / max(1, len(h))), np.ceil(h))
    if not panels.sum() <= _GL_MAX_PANELS:  # checked before any abscissa is built
        raise ValueError(f"gauss_legendre needs {panels.sum():.3g} panels, past its budget "
                         f"of {_GL_MAX_PANELS}")
    panels = panels.astype(int)
    gaps = np.zeros(len(h))
    for count in sorted(set(panels.tolist())):  # one rule per panel count
        each = panels == count
        w = (h[each] / count)[:, None, None]
        x = cuts[:-1][each, None, None] + w * (np.arange(count)[:, None] + 0.5 * (_GL_X + 1.0))
        gaps[each] = np.sum(0.5 * w * _GL_W * fn(x), axis=(-2, -1))
    prefix = np.zeros(len(knots))
    np.cumsum(gaps, out=prefix[1:])
    index = {x: i for i, x in enumerate(knots)}
    return prefix[[index[x] for x in ends]].reshape(b.shape) - prefix[index[a]]


# -- Dormand-Prince 5(4) ---------------------------------------------------

_DP_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
# difference between 5th and embedded 4th order weights
_DP_E = (71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40)


def _integrate(field, x0, y0, x1, rtol, max_step=np.inf, project=None, stop=None):
    """Adaptive DP54 driver for an autonomous field; returns (xs, ys, termination, stats).

    The state has five components, as every field here has: (R, u), (S, ln f) or the
    chart's (x, y, z, u, ln f); another length raises ValueError, as do a NaN x0 or x1,
    rtol < 0 and max_step <= 0 (NaN included).  field(p0, p1, p2, p3, p4) takes the state
    as five floats and returns five floats.  A step runs on Python floats held in locals,
    with every stage sum and the error norm written out per component as a left-to-right
    chain of +, and the step control's max, min and abs as comparisons: rounding does not
    depend on the interpreter, and no list is built per stage.  An attempt is rejected
    with h *= 0.2 when a stage raises or its error norm or new state is not finite.  Every
    accepted step is recorded (xs, ys as arrays); it ends at its stage-6 state (the
    fifth-order weights are _DP_A's last row), whose field value is the next stage 0
    (first-same-as-last).  project(y) -> y runs on the list y after each accepted step
    (its displacement is logged as drift); when it moved the state, the next step
    evaluates the field there.  stop(y) -> str | None ends the run with its reason after
    any accepted step.  stats counts accepted and rejected steps and field evaluations
    (1 + 6 per attempt, one more per moved projection; each counted in a local just
    before its call, so a raising stage counts and ends its attempt); h_min, h_max bound
    the accepted steps (inf, 0 if none).
    """
    (a10,), (a20, a21), (a30, a31, a32), (a40, a41, a42, a43), \
        (a50, a51, a52, a53, a54), (b0, _, b2, b3, b4, b5) = _DP_A[1:]
    e0, _, e2, e3, e4, e5, e6 = _DP_E
    atol, sqrt, root5 = ATOL, math.sqrt, math.sqrt(5)
    y = [float(v) for v in y0]
    if len(y) != 5:
        raise ValueError(f"the DP54 state has 5 components, got {len(y)}")
    x, x1, rtol, max_step = float(x0), float(x1), float(rtol), float(max_step)
    if math.isnan(x) or math.isnan(x1) or not (rtol >= 0.0 and max_step > 0.0):
        raise ValueError(f"need x0 and x1 not NaN, rtol >= 0 and max_step > 0, "
                         f"got {x0}, {x1}, {rtol}, {max_step}")
    xs, ys = [x], [y]
    steps, rejected, evals, h_min, h_max, max_drift, error_sum = 0, 0, 1, math.inf, 0.0, 0.0, 0.0
    k0 = field(*y)
    scale = ATOL + rtol * np.abs(y)
    d0 = np.linalg.norm(y / scale) / root5
    d1 = np.linalg.norm(k0 / scale) / root5
    h = max(float(min(max_step, x1 - x, 1e-2 * d0 / d1 if d1 > 0 else 1e-6)), 1e-12)
    termination = REACHED_HORIZON
    while x < x1:
        h = x1 - x if x1 - x < h else h  # h = min(h, x1 - x, max_step)
        h = max_step if max_step < h else h
        if h < 1e-13 * (x if x > 1.0 else -x if x < -1.0 else 1.0):
            termination = STEP_FAILURE
            break
        p0, p1, p2, p3, p4 = y
        try:
            if k0 is None:  # after a projection
                evals += 1
                k0 = field(p0, p1, p2, p3, p4)
            k00, k01, k02, k03, k04 = k0
            evals += 1
            k10, k11, k12, k13, k14 = field(
                p0 + h * (a10 * k00), p1 + h * (a10 * k01), p2 + h * (a10 * k02),
                p3 + h * (a10 * k03), p4 + h * (a10 * k04))
            evals += 1
            k20, k21, k22, k23, k24 = field(
                p0 + h * (a20 * k00 + a21 * k10), p1 + h * (a20 * k01 + a21 * k11),
                p2 + h * (a20 * k02 + a21 * k12), p3 + h * (a20 * k03 + a21 * k13),
                p4 + h * (a20 * k04 + a21 * k14))
            evals += 1
            k30, k31, k32, k33, k34 = field(
                p0 + h * (a30 * k00 + a31 * k10 + a32 * k20),
                p1 + h * (a30 * k01 + a31 * k11 + a32 * k21),
                p2 + h * (a30 * k02 + a31 * k12 + a32 * k22),
                p3 + h * (a30 * k03 + a31 * k13 + a32 * k23),
                p4 + h * (a30 * k04 + a31 * k14 + a32 * k24))
            evals += 1
            k40, k41, k42, k43, k44 = field(
                p0 + h * (a40 * k00 + a41 * k10 + a42 * k20 + a43 * k30),
                p1 + h * (a40 * k01 + a41 * k11 + a42 * k21 + a43 * k31),
                p2 + h * (a40 * k02 + a41 * k12 + a42 * k22 + a43 * k32),
                p3 + h * (a40 * k03 + a41 * k13 + a42 * k23 + a43 * k33),
                p4 + h * (a40 * k04 + a41 * k14 + a42 * k24 + a43 * k34))
            evals += 1
            k50, k51, k52, k53, k54 = field(
                p0 + h * (a50 * k00 + a51 * k10 + a52 * k20 + a53 * k30 + a54 * k40),
                p1 + h * (a50 * k01 + a51 * k11 + a52 * k21 + a53 * k31 + a54 * k41),
                p2 + h * (a50 * k02 + a51 * k12 + a52 * k22 + a53 * k32 + a54 * k42),
                p3 + h * (a50 * k03 + a51 * k13 + a52 * k23 + a53 * k33 + a54 * k43),
                p4 + h * (a50 * k04 + a51 * k14 + a52 * k24 + a53 * k34 + a54 * k44))
            z0 = p0 + h * (b0 * k00 + b2 * k20 + b3 * k30 + b4 * k40 + b5 * k50)
            z1 = p1 + h * (b0 * k01 + b2 * k21 + b3 * k31 + b4 * k41 + b5 * k51)
            z2 = p2 + h * (b0 * k02 + b2 * k22 + b3 * k32 + b4 * k42 + b5 * k52)
            z3 = p3 + h * (b0 * k03 + b2 * k23 + b3 * k33 + b4 * k43 + b5 * k53)
            z4 = p4 + h * (b0 * k04 + b2 * k24 + b3 * k34 + b4 * k44 + b5 * k54)
            evals += 1
            k60, k61, k62, k63, k64 = k6 = field(z0, z1, z2, z3, z4)
            # the error estimate r and its scaled size s, over ATOL + rtol max(|p|, |z|)
            r0 = h * (e0 * k00 + e2 * k20 + e3 * k30 + e4 * k40 + e5 * k50 + e6 * k60)
            r1 = h * (e0 * k01 + e2 * k21 + e3 * k31 + e4 * k41 + e5 * k51 + e6 * k61)
            r2 = h * (e0 * k02 + e2 * k22 + e3 * k32 + e4 * k42 + e5 * k52 + e6 * k62)
            r3 = h * (e0 * k03 + e2 * k23 + e3 * k33 + e4 * k43 + e5 * k53 + e6 * k63)
            r4 = h * (e0 * k04 + e2 * k24 + e3 * k34 + e4 * k44 + e5 * k54 + e6 * k64)
            m, n = -p0 if p0 < 0.0 else p0, -z0 if z0 < 0.0 else z0
            s0 = r0 / (atol + rtol * (n if n > m else m))
            m, n = -p1 if p1 < 0.0 else p1, -z1 if z1 < 0.0 else z1
            s1 = r1 / (atol + rtol * (n if n > m else m))
            m, n = -p2 if p2 < 0.0 else p2, -z2 if z2 < 0.0 else z2
            s2 = r2 / (atol + rtol * (n if n > m else m))
            m, n = -p3 if p3 < 0.0 else p3, -z3 if z3 < 0.0 else z3
            s3 = r3 / (atol + rtol * (n if n > m else m))
            m, n = -p4 if p4 < 0.0 else p4, -z4 if z4 < 0.0 else z4
            s4 = r4 / (atol + rtol * (n if n > m else m))
            err = sqrt(s0 * s0 + s1 * s1 + s2 * s2 + s3 * s3 + s4 * s4) / root5
        except (ValueError, ZeroDivisionError, FloatingPointError):
            err = math.nan
        # v * 0.0 is 0.0 for a finite v, NaN for inf or NaN
        if err * 0.0 != 0.0 or z0 * 0.0 + z1 * 0.0 + z2 * 0.0 + z3 * 0.0 + z4 * 0.0 != 0.0:
            rejected += 1
            h *= 0.2
            continue
        if err > 1.0:
            rejected += 1
            fac = 0.9 * err ** -0.2
            h *= fac if fac > 0.2 else 0.2
            continue
        x += h
        steps += 1
        h_min = h if h < h_min else h_min
        h_max = h if h > h_max else h_max
        emax = -r0 if r0 < 0.0 else r0  # max |r|
        emax = r1 if r1 > emax else -r1 if -r1 > emax else emax
        emax = r2 if r2 > emax else -r2 if -r2 > emax else emax
        emax = r3 if r3 > emax else -r3 if -r3 > emax else emax
        emax = r4 if r4 > emax else -r4 if -r4 > emax else emax
        error_sum += emax
        y6 = [z0, z1, z2, z3, z4]
        if project is not None:
            yp = project(y6)
            if yp != y6:  # a moved state needs its own stage 0; a bit-exact one keeps k6
                for dv in (yp[0] - z0, yp[1] - z1, yp[2] - z2, yp[3] - z3, yp[4] - z4):
                    max_drift = dv if dv > max_drift else -dv if -dv > max_drift else max_drift
                y6, k6 = yp, None
        y, k0 = y6, k6
        xs.append(x)
        ys.append(y)
        reason = stop(y) if stop is not None else None
        if reason is not None:
            termination = reason
            break
        fac = 0.9 * err ** -0.2 if err > 0.0 else 5.0  # at least 0.9, as err <= 1
        h *= fac if fac < 5.0 else 5.0
    stats = {"steps": steps, "rejected": rejected, "evals": evals, "h_min": h_min,
             "h_max": h_max, "max_drift": max_drift, "error_sum": error_sum}
    return np.array(xs), np.array(ys), termination, stats


# -- trajectory assembly ----------------------------------------------------


# DP54 field on (R, u): five Python floats in, a tuple out (on (S, ln f): flow._sphere_rate)
def _shape_field(a1, a2, b1, b2, _):
    v1, v2, v3, v4 = flow._components(a1, a2, b1, b2)
    # 1/f, with f summed as np.linalg.norm sums a row of shapes
    return v1, v2, v3, v4, 1.0 / math.sqrt(a1 * a1 + a2 * a2 + b1 * b1 + b2 * b2)


def _wall_stop(y):
    """WALL_CROSSING at a state (R, rider) with G1 < -m, m = 1e-12 |R|^2: the escape is
    decided, as {G1 < 0, G2 > 0} is forward-invariant (see integrate_shape)."""
    a1, a2, b1, b2, _ = y
    m = 1e-12 * (a1 * a1 + a2 * a2 + b1 * b1 + b2 * b2)
    return WALL_CROSSING if a2 * b2 - a1 * b1 < -m else None


def sphere_stop(conv_tol: float):
    """WALL_CROSSING as _wall_stop, else CONVERGED in the trapping set {V < c} of SINF within
    conv_tol of it (flow.SINF_P).  The ball test |d|^2 < c skips V far off and keeps out -SINF,
    where V is small again; conv_tol <= flow.SINF_DELTA gives c = 0 and no stop."""
    c = max(0.0, min(conv_tol, flow.SINF_R0) - flow.SINF_DELTA) ** 2
    s0, s1, s2, s3 = flow.SINF.tolist()
    (p00, p01, p02, p03), (_, p11, p12, p13), (*_, p22, p23), (*_, p33) = flow.SINF_P

    def stop(y):
        reason = _wall_stop(y)
        d0, d1, d2, d3 = y[0] - s0, y[1] - s1, y[2] - s2, y[3] - s3
        if reason is None and d0 * d0 + d1 * d1 + d2 * d2 + d3 * d3 < c and (
                d0 * (p00 * d0 + 2.0 * (p01 * d1 + p02 * d2 + p03 * d3))
                + d1 * (p11 * d1 + 2.0 * (p12 * d2 + p13 * d3))
                + d2 * (p22 * d2 + 2.0 * p23 * d3) + d3 * (p33 * d3) < c):
            return CONVERGED
        return reason
    return stop


def _project_sphere(y):
    a1, a2, a3, a4, lnf = y
    f = math.sqrt(a1 * a1 + a2 * a2 + a3 * a3 + a4 * a4)
    return [a1 / f, a2 / f, a3 / f, a4 / f, lnf]


def integrate_shape(start, t0: float, t1: float, tol: float = 1e-10, max_step: float = np.inf,
                    u0: float = 0.0, until_decided: bool = False) -> Trajectory:
    """Integrate the shape flow from a strictly positive shape (4,).

    The sphere parameter u (du = dt / f) rides along as a quadrature
    variable and is the trajectory's u column.  Terminates early when any
    shape component drops below 1e-9 or the step size collapses; the
    reason is recorded on the trajectory, never silently.  until_decided also
    stops at the first step with G1 < -m (WALL_CROSSING: the escape is decided)
    or G1 > m and G2 < -m (STAYS_INSIDE), m = 1e-12 |R|^2 keeping the signs of
    that sample's monitors.  Q = {G1 > 0, G2 < 0} is forward-invariant, so G1 stays
    positive: dG1/du = -(2/alpha2) G2 on {G1 = 0}, dG2/du = -(2/alpha2) G1 on {G2 = 0},
    and the corner {G1 = G2 = 0} = {A1 = A2, B1 = B2} is invariant (v1 = v2, v3 = v4).
    """
    r = np.asarray(start, dtype=float)
    if not np.all(r > 0.0):
        raise ValueError(f"start must be strictly positive, got {start}")
    if not t1 > t0:
        raise ValueError("t1 must exceed t0")

    def stop(y, floor=POSITIVITY_FLOOR):  # y is finite, so this is min(...) < floor
        a1, a2, b1, b2, _ = y
        if a1 < floor or a2 < floor or b1 < floor or b2 < floor:
            return POSITIVITY_VIOLATION
        if not until_decided:
            return None
        m = 1e-12 * (a1 * a1 + a2 * a2 + b1 * b1 + b2 * b2)
        if a2 * b2 - a1 * b1 > m and a1 * b2 - a2 * b1 < -m:
            return STAYS_INSIDE
        return _wall_stop(y)

    ts, ys, term, stats = _integrate(_shape_field, t0, np.append(r, u0), t1, tol,
                                     max_step=max_step, stop=stop)
    return Trajectory(t=ts, u=ys[:, 4].copy(), shapes=ys[:, :4], termination=term, stats=stats)


def integrate_sphere(start: np.ndarray, u0: float, u1: float, ln_f0: float = 0.0,
                     tol: float = 1e-10, max_step: float = 0.25, stop=None) -> Trajectory:
    """Integrate the tangential system in u from the unit direction start,
    with the scale riding along.

    The state is renormalized to the unit sphere after every accepted
    step (pre-projection drift is logged in stats["max_drift"]);
    d(ln f)/du = <V(S), S> tracks ln f from ln_f0 (ln f, not f: a launch
    hands over its state with no exp/log round trip).  stop(y) -> str | None
    on the state (S, ln f) ends the run after an accepted step, as in _integrate;
    its callers pass sphere_stop, and u1 is the backstop.
    """
    a0 = np.asarray(start, dtype=float)
    if not abs(np.linalg.norm(a0) - 1.0) <= 1e-9:
        raise ValueError(f"start must be a unit vector, got |S| = {np.linalg.norm(a0)}")
    if not u1 > u0:
        raise ValueError(f"u1 must exceed u0, got u0 = {u0}, u1 = {u1}")

    us, ys, term, stats = _integrate(flow._sphere_rate, u0, np.append(a0, ln_f0), u1, tol,
                                     max_step=max_step, project=_project_sphere, stop=stop)
    return Trajectory(u=us, spheres=ys[:, :4], f=np.exp(ys[:, 4]), termination=term, stats=stats)


def unstable_direction(mu: float) -> np.ndarray:
    """Unit chart tangent along which trajectories leave the arc J.

    The desingularized field linearizes to [[2, 0, 0], [mu/lam, -2, 0],
    [0, 0, 0]] at (0, 0, mu); the outgoing eigenvector is
    (1, mu/(4 lam), 0) up to scale.
    """
    lam = math.sqrt((1.0 - mu * mu) / 2.0)
    e = np.array([1.0, mu / (4.0 * lam), 0.0])
    return e / np.linalg.norm(e)


def launch_sphere(mu: float, eps: float = 1e-5, u_max: float = 60.0,
                  max_step: float = 0.25) -> Trajectory:
    """Unique sphere trajectory leaving the singular arc at parameter mu.

    Starts at (0, 0, mu) + eps * e_unstable in the chart, integrates the
    desingularized system in v on floats (flow._chart_components, not the
    analytic right-hand side) until alpha3 reaches 0.01, then continues
    with integrate_sphere in u (du = x dv accumulated through the first
    phase).  ln f rides along via d(ln f) = beta du from f = 1 at
    launch.  The tail stops as sphere_stop(1e-6): past the G1 wall (WALL_CROSSING) or in
    the trapping set of the limit direction (CONVERGED), else at the u horizon, marked
    converged when it enters and stays within 1e-6 of the limit direction.
    A u_max at or before the switch's u raises ValueError (from integrate_sphere).
    """
    if not 0.0 < mu < 1.0:
        raise ValueError(f"mu must lie in (0, 1), got {mu}")
    if not 0.0 < eps <= 1e-4:
        raise ValueError(f"eps must lie in (0, 1e-4], got {eps}")
    # phase 1: chart state (x, y, z, u, ln f) in the chart time v
    p0 = np.array([0.0, 0.0, mu]) + eps * unstable_direction(mu)

    def chart_field(x, y, z, u, lnf):
        g1, g2, g3, xbeta = flow._chart_components(x, y, z)
        return g1, g2, g3, x, xbeta

    def chart_stop(y):
        return "switch" if y[0] >= CHART_SWITCH_X else None

    vs, cys, term, cstats = _integrate(chart_field, 0.0, np.append(p0, [0.0, 0.0]),
                                       2000.0, LAUNCH_TOL, stop=chart_stop)
    if term != "switch":
        raise RuntimeError(f"chart phase did not reach the switch threshold ({term})")
    chart = flow.chart_to_sphere(cys[:, :3])

    # phase 2: tangential system in u, state (S, ln f), to the horizon, wall or trapping set
    tail = integrate_sphere(chart[-1], cys[-1, 3], u_max, cys[-1, 4], LAUNCH_TOL, max_step,
                            stop=sphere_stop(1e-6))
    stats = {**tail.stats, "chart": {"v_span": float(vs[-1]), "steps": cstats["steps"],
                                     "u_switch": float(cys[-1, 3])}}
    u = np.concatenate([cys[:-1, 3], tail.u])
    spheres = np.concatenate([chart[:-1], tail.spheres])
    termination = tail.termination
    if termination == REACHED_HORIZON and detect_convergence(spheres, u)[0]:
        termination = CONVERGED
    return Trajectory(u=u, spheres=spheres, f=np.concatenate([np.exp(cys[:-1, 4]), tail.f]),
                      termination=termination, stats=stats)


def detect_convergence(spheres, params, tol: float = 1e-6):
    """First parameter value after which a sphere path stays within tol of flow.SINF.

    spheres is (n, 4) and params its n parameter values.  Returns (True,
    parameter) on success, (False, None) when the path never enters, or enters
    but leaves again before its end: the backstop of runs that reach their horizon.
    """
    dist = np.linalg.norm(spheres - flow.SINF, axis=1)
    # suffix maximum: within tolerance from index i onward
    suffix = np.maximum.accumulate(dist[::-1])[::-1]
    inside = suffix <= tol
    if not inside.any():
        return False, None
    return True, float(params[int(np.argmax(inside))])


def sample_at_level(traj: Trajectory, level: float):
    """Sphere point where alpha3 first reaches level, or None.

    Linear interpolation between the bracketing samples, renormalized to
    the unit sphere; None when the path starts at or above the level or
    never reaches it.
    """
    col = traj.spheres[:, 2]
    above = np.nonzero(col >= level)[0]
    if above.size == 0 or above[0] == 0:
        return None
    i = int(above[0])
    w = (level - col[i - 1]) / (col[i] - col[i - 1])
    s = traj.spheres[i - 1] + w * (traj.spheres[i] - traj.spheres[i - 1])
    return s / np.linalg.norm(s)


def alc_fit(t, shapes) -> ALCFit | None:
    """Affine fit of the shapes (n, 4) over the trailing half of the span of t (n).

    Certifies the asymptotically conic behaviour: each metric function
    approaches an affine function of t, one of them a constant.  None
    when the samples cannot carry a fit: a t span below 30 or a trailing
    window below 10 in t.  A t that is not 1-D with one entry per shape
    (None, say: a sphere run has no t) raises ValueError.
    """
    t = np.asarray(t, dtype=float)
    if t.ndim != 1 or len(t) != len(shapes):
        raise ValueError("asymptotic fit needs one t per row of shapes")
    span = t[-1] - t[0]
    sel = t >= t[-1] - 0.5 * span
    if span < 30.0 or t[-1] - t[sel][0] < 10.0:
        return None
    ts = t[sel]
    dev, slopes, intercepts = 0.0, np.empty(4), np.empty(4)
    for j in range(4):
        vals = shapes[sel, j]
        slopes[j], intercepts[j] = np.polyfit(ts, vals, 1)
        fit = slopes[j] * ts + intercepts[j]
        # |1 - y/fit| with fit values indistinguishable from zero skipped
        # (an identically zero function deviates by zero from its fit)
        denom = np.where(np.abs(fit) > 1e-12 * max(float(np.max(np.abs(vals))), 1e-300),
                         np.abs(fit), np.inf)
        dev = max(dev, float(np.max(np.abs(vals - fit) / denom)))
    return ALCFit(slopes, intercepts, float(ts[0]), float(ts[-1]), dev)


# The left eigenvector, a unit row (a, -a, -b, b), of the tangential Jacobian at S1 for its
# unstable eigenvalue flow.S1_EIGENVALUES[2]; literals, as that Jacobian is analysis.linearize
# and analysis imports shoot.  test_edge_probe_dwell_value checks them against it.
_S1_LEFT = (0.7069029740352214, -0.7069029740352214,
            -0.01697602132889324, 0.01697602132889324)


def _edge_probe(mu: float, rtol: float) -> tuple:
    """(verdict, h) of the decided family run at mu and rtol, for critical_parameter.

    verdict is +1 when the run stops at the G1 wall, -1 inside Q; a run undecided by
    t = 1e6 raises RuntimeError (one a float spacing from the edge dwells at S1 to t = 176).
    Near the edge its unstable coordinate at S1 grows like exp(lambda u) from a size
    proportional to mu - mu*; so h = verdict |l.(S_k - S1)| exp(-lambda u_k), at the sample
    k nearest S1 (l = _S1_LEFT, lambda = flow.S1_EIGENVALUES[2]), is near linear.
    """
    traj = family_shape_trajectory(mu, t_max=1e6, tol=rtol, until_decided=True)
    d = traj.spheres - flow.S1
    k = int(np.argmin(np.linalg.norm(d, axis=1)))
    verdict = {WALL_CROSSING: 1.0, STAYS_INSIDE: -1.0}.get(traj.termination)
    if verdict is None:
        raise RuntimeError(f"undecided edge probe at mu={mu!r}, rtol={rtol!r}: {traj.termination}")
    dwell = abs(float(np.dot(_S1_LEFT, d[k]))) * math.exp(
        -flow.S1_EIGENVALUES[2] * traj.u[k])
    return verdict, verdict * dwell


def critical_parameter(lo: float = 0.5, hi: float = 0.6, tol: float = 1e-9) -> float:
    """Family edge: largest mu whose trajectory stays in the invariant region.

    Below the returned value trajectories converge to the limit direction
    (asymptotically conic with a circle fiber); above it they cross the G1 wall
    and the metric closes up singularly at finite t.  The critical trajectory
    approaches the conic stationary direction S1.  Located by Illinois regula
    falsi (Dowell & Jarratt, BIT 11, 1971) on family runs stopped once decided
    (at the wall or in Q, see integrate_shape): a run's verdict, escaping when it
    stops at the wall, moves one end of the bracket.  The next probe is the secant
    root of the ends' dwell values h at S1 (see _edge_probe), at least tol/2 inside
    the bracket, or the midpoint when that root is NaN or not strictly inside; the
    kept end's h is halved when the same end moves twice in a row.  Returns the
    midpoint of a bracket no wider than tol whose ends were decided with opposite
    verdicts.  The bracket must straddle the transition, and tol must be at least
    the float spacing at hi.  Runs integrate at rtol = max(tol / 10, 1e-12), which
    moved the edge by at most 0.35 rtol (measured for rtol 1e-12 to 1e-4), so
    |returned - edge| <= tol / 2 + 0.035 tol.
    """
    if not lo < hi:
        raise ValueError(f"need lo < hi, got ({lo}, {hi})")
    if not tol >= math.ulp(hi):
        raise ValueError(f"tol must be at least the float spacing {math.ulp(hi):.3e} "
                         f"at hi, got {tol}")
    rtol = max(tol / 10.0, 1e-12)
    a, (sa, fa) = lo, _edge_probe(lo, rtol)
    b, (sb, fb) = hi, _edge_probe(hi, rtol)
    if sa > 0.0 or sb < 0.0:
        raise ValueError(f"bracket ({lo}, {hi}) does not straddle the transition")
    last = 0.0  # the verdict of the last probe
    while b - a > tol:
        x = b - fb * (b - a) / (fb - fa) if fb != fa else math.nan
        x = min(max(x, a + 0.5 * tol), b - 0.5 * tol)  # a NaN stays NaN
        x = x if a < x < b else 0.5 * (a + b)
        s, f = _edge_probe(x, rtol)
        if s > 0.0:
            b, fb, fa = x, f, 0.5 * fa if s == last else fa
        else:
            a, fa, fb = x, f, 0.5 * fb if s == last else fb
        last = s
    return 0.5 * (a + b)


def family_shape_trajectory(mu: float, t_max: float = 200.0, tol: float = 1e-10,
                            order: int = 4, max_step: float = np.inf,
                            until_decided: bool = False) -> Trajectory:
    """Series launch followed by shape integration: the standard family run.

    The launch offset keeps the series truncation below 1e-12 (safely
    under the integrator tolerance); the sphere parameter u is started
    at its exact value at the offset (quadrature of 1/f over the series).
    """
    s = series_start(mu, order)
    delta = s.truncation_offset(1e-12)
    start = eval_series(s, delta)
    u0 = float(gauss_legendre(lambda t: 1.0 / np.linalg.norm(eval_series(s, t), axis=-1),
                              0.0, delta))
    return integrate_shape(start, delta, t_max, tol=tol, max_step=max_step, u0=u0,
                           until_decided=until_decided)
