"""Trajectory production: series launch, chart launch, integration, asymptotics.

The shape flow leaves the singular orbit at t = 0 with B1 = 0, so the
integration cannot start there directly.  A power series in t built
order-by-order from the flow equations supplies a starting state at a
small offset; on the sphere side, the trajectory leaves the singular
arc J along the unstable eigenvector of the desingularized chart field
and is continued in u after leaving a small neighbourhood of J.

Integration uses an embedded Dormand-Prince 5(4) pair with PI step
control, optional per-step projection (used to renormalize sphere
states), and early termination on positivity loss or step collapse.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

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
    "launch_sphere",
    "unstable_direction",
    "detect_convergence",
    "sample_at_level",
    "alc_fit",
    "family_shape_trajectory",
    "escapes_invariant_region",
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


@dataclass(frozen=True)
class SeriesStart:
    """Power-series data of the smooth solution leaving the singular orbit.

    coefficients[k] holds the t^k coefficients of (A1, A2, B1, B2); the
    seed is (mu, lambda, 0, lambda) with B1'(0) = +2, A1'(0) = 0 and
    A2'(0) = -B2'(0) = -mu/(4 lambda).
    """

    mu: float
    lam: float
    order: int
    coefficients: np.ndarray  # shape (order+1, 4)

    def truncation_offset(self, tol: float = 1e-10) -> float:
        """Largest launch offset with last-term estimate below tol, at most SERIES_MAX_OFFSET."""
        last = np.max(np.abs(self.coefficients[-1]))
        if last == 0.0:
            return SERIES_MAX_OFFSET
        return min(SERIES_MAX_OFFSET, (tol / last) ** (1.0 / self.order))


@dataclass(frozen=True)
class Trajectory:
    """Ordered samples of an integrated solution.

    params is strictly increasing in the stated parameter kind ("t", "u"
    or "v"); shapes and spheres are (n, 4) with shapes = f * spheres;
    monitors is (n, 9) in the order flow.MONITOR_NAMES with NaN for
    flagged-missing entries.  Instances are not mutated after creation.
    """

    kind: str
    params: np.ndarray
    shapes: np.ndarray
    spheres: np.ndarray
    f: np.ndarray
    monitors: np.ndarray
    termination: str
    stats: dict

    def __len__(self) -> int:
        return len(self.params)

    @classmethod
    def from_samples(cls, kind: str, params, *, shapes=None, spheres=None, f=None,
                     termination: str = REACHED_HORIZON, stats=None) -> "Trajectory":
        """Assemble from shapes, or from spheres and f; the other columns are derived.

        The monitor table is always computed here, so every trajectory
        carries monitors consistent with its samples.
        """
        if shapes is None:
            shapes = spheres * f[:, None]
        else:
            f = np.linalg.norm(shapes, axis=1)
            spheres = shapes / f[:, None]
        return cls(kind, np.asarray(params, dtype=float), shapes, spheres, f,
                   flow.monitor_table(spheres, f), termination, dict(stats or {}))

    def monitor(self, name: str) -> np.ndarray:
        return self.monitors[:, flow.MONITOR_NAMES.index(name)]


@dataclass(frozen=True)
class ALCFit:
    """Affine fits of the shape functions over a trailing t-window."""

    slopes: np.ndarray
    intercepts: np.ndarray
    t_lo: float
    t_hi: float
    max_relative_deviation: float
    note: str = ALC_NOTE


# -- power series off the singular orbit ----------------------------------


def _poly_mul(a: np.ndarray, b: np.ndarray, n: int) -> np.ndarray:
    """Product of coefficient arrays truncated to degree n."""
    return np.convolve(a, b)[: n + 1]


def _series_residuals(c: np.ndarray, n: int) -> list:
    """Coefficient arrays of the four polynomial flow identities.

    With denominators cleared, a series solution satisfies
        E1 = 2 A1' A2^2 B2^2 - A1^2 (B2^2 - A2^2)            = 0
        E2 = 2 A2' A2 B1 B2 - A2 (B2^2 - A2^2 + B1^2) + A1 B1 B2 = 0
        E3 = B1' A2 B2 - (A2^2 + B2^2 - B1^2)                = 0
        E4 = 2 B2' A2 B1 B2 - B2 (A2^2 - B2^2 + B1^2) - A1 A2 B1 = 0
    identically in t.
    """
    a1, a2, b1, b2 = (c[:, j] for j in range(4))
    k = np.arange(len(a1))
    da1, da2, db1, db2 = (np.append((k * f)[1:], 0.0) for f in (a1, a2, b1, b2))
    m = _poly_mul
    a2sq, b2sq, b1sq = m(a2, a2, n), m(b2, b2, n), m(b1, b1, n)
    a1sq = m(a1, a1, n)
    b1b2 = m(b1, b2, n)
    e1 = 2.0 * m(da1, m(a2sq, b2sq, n), n) - m(a1sq, b2sq - a2sq, n)
    e2 = 2.0 * m(da2, m(a2, b1b2, n), n) - m(a2, b2sq - a2sq + b1sq, n) + m(a1, b1b2, n)
    e3 = m(db1, m(a2, b2, n), n) - (a2sq + b2sq - b1sq)
    e4 = 2.0 * m(db2, m(a2, b1b2, n), n) - m(b2, a2sq - b2sq + b1sq, n) - m(a1, m(a2, b1, n), n)
    return [e1, e2, e3, e4]


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
        e1, _, e3, _ = _series_residuals(c[: k + 1], k + 1)
        c[k, 0] = -e1[k - 1] / (2 * k * lam2 * lam2)
        c[k, 2] = -e3[k - 1] / (k * lam2)
        _, e2, _, e4 = _series_residuals(c[: k + 1], k + 1)
        det = 16 * k * (k + 1) * lam2
        c[k, 1] = -((4 * k + 2) * e2[k] + 2.0 * e4[k]) / det
        c[k, 3] = -(2.0 * e2[k] + (4 * k + 2) * e4[k]) / det
    return SeriesStart(mu, lam, order, c)


def eval_series(s: SeriesStart, t: float) -> np.ndarray:
    """The shape (4,) of the truncated series at t; rejects offsets beyond its trust radius."""
    dmax = s.truncation_offset()
    if not 0.0 <= t <= dmax:
        raise ValueError(f"t={t} outside the series trust interval [0, {dmax:.3e}]")
    powers = t ** np.arange(s.order + 1)
    return powers @ s.coefficients


# -- quadrature --------------------------------------------------------------

_GL_X, _GL_W = np.polynomial.legendre.leggauss(20)


def gauss_legendre(fn, a, b):
    """Composite 20-point Gauss-Legendre rule for smooth integrands.

    fn maps an array of abscissae to integrand values elementwise; a and
    b may be arrays of one shape, giving one integral per entry.  At
    least eight panels, at most one unit wide: accurate to rounding when
    fn is analytic 0.5 off the real segment.  The nodes avoid the
    endpoints, so fn only needs a continuous extension there.
    """
    a = np.asarray(a, dtype=float)[..., None, None]
    b = np.asarray(b, dtype=float)[..., None, None]
    panels = max(8, math.ceil(np.max(np.abs(b - a), initial=0.0)))
    h = (b - a) / panels
    x = a + h * (np.arange(panels)[:, None] + 0.5 * (_GL_X + 1.0))
    return np.sum(0.5 * h * _GL_W * fn(x), axis=(-2, -1))


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

    Every accepted step is recorded.  Steps run on Python floats: the state
    is a list, field(y) -> dy/dx returns one, and every stage sum is a
    left-to-right chain of +, so rounding does not depend on the
    interpreter; only xs and ys come back as arrays.  An accepted step
    ends at its stage-6 state (the fifth-order weights are _DP_A's last
    row), whose field value is the next stage 0 (first-same-as-last).
    project(y) -> y runs after every accepted step (its displacement is
    logged as drift); when it moved the state, the next step evaluates
    the field at the projected state.  stop(y) -> str | None is checked
    after every accepted step; a non-None reason terminates with that
    reason recorded.
    stats counts accepted and rejected steps and field evaluations (evals:
    1 + 6 per attempt, one more per step after a projection that moved the
    state, and a raising stage counts and ends its attempt); h_min, h_max
    bound the accepted steps (inf, 0 if none).
    """
    (a10,), (a20, a21), (a30, a31, a32), (a40, a41, a42, a43), \
        (a50, a51, a52, a53, a54), (b0, _, b2, b3, b4, b5) = _DP_A[1:]
    e0, _, e2, e3, e4, e5, e6 = _DP_E

    def f(y):
        stats["evals"] += 1
        return field(y)

    y = [float(v) for v in y0]
    x, x1, rtol, max_step = float(x0), float(x1), float(rtol), float(max_step)
    xs, ys = [x], [y]
    stats = {"steps": 0, "rejected": 0, "evals": 0, "h_min": math.inf, "h_max": 0.0,
             "max_drift": 0.0, "error_sum": 0.0}
    k0 = f(y)
    scale = ATOL + rtol * np.abs(y)
    d0 = np.linalg.norm(y / scale) / math.sqrt(len(y))
    d1 = np.linalg.norm(k0 / scale) / math.sqrt(len(y))
    h = max(float(min(max_step, x1 - x, 1e-2 * d0 / d1 if d1 > 0 else 1e-6)), 1e-12)
    termination = REACHED_HORIZON
    while x < x1:
        h = min(h, x1 - x, max_step)
        if h < 1e-13 * max(1.0, abs(x)):
            termination = STEP_FAILURE
            break
        try:
            if k0 is None:  # after a projection
                k0 = f(y)
            k1 = f([p + h * (a10 * q0) for p, q0 in zip(y, k0)])
            k2 = f([p + h * (a20 * q0 + a21 * q1) for p, q0, q1 in zip(y, k0, k1)])
            k3 = f([p + h * (a30 * q0 + a31 * q1 + a32 * q2)
                    for p, q0, q1, q2 in zip(y, k0, k1, k2)])
            k4 = f([p + h * (a40 * q0 + a41 * q1 + a42 * q2 + a43 * q3)
                    for p, q0, q1, q2, q3 in zip(y, k0, k1, k2, k3)])
            k5 = f([p + h * (a50 * q0 + a51 * q1 + a52 * q2 + a53 * q3 + a54 * q4)
                    for p, q0, q1, q2, q3, q4 in zip(y, k0, k1, k2, k3, k4)])
            y6 = [p + h * (b0 * q0 + b2 * q2 + b3 * q3 + b4 * q4 + b5 * q5)
                  for p, q0, q2, q3, q4, q5 in zip(y, k0, k2, k3, k4, k5)]
            k6 = f(y6)
            err = emax = 0.0
            for p, z, q0, q2, q3, q4, q5, q6 in zip(y, y6, k0, k2, k3, k4, k5, k6):
                e = h * (e0 * q0 + e2 * q2 + e3 * q3 + e4 * q4 + e5 * q5 + e6 * q6)
                r = e / (ATOL + rtol * max(abs(p), abs(z)))
                err += r * r
                emax = max(emax, abs(e))
            err = math.sqrt(err) / math.sqrt(len(y))
        except (ValueError, ZeroDivisionError, FloatingPointError):
            err = math.nan
        if not (math.isfinite(err) and all(map(math.isfinite, y6))):
            stats["rejected"] += 1
            h *= 0.2
            continue
        if err > 1.0:
            stats["rejected"] += 1
            h *= max(0.2, 0.9 * err ** -0.2)
            continue
        x += h
        stats["steps"] += 1
        stats["h_min"], stats["h_max"] = min(stats["h_min"], h), max(stats["h_max"], h)
        stats["error_sum"] += emax
        if project is not None:
            yp = project(y6)
            if yp != y6:  # a moved state needs its own stage 0; a bit-exact one keeps k6
                stats["max_drift"] = max(stats["max_drift"],
                                         *(abs(p - z) for p, z in zip(yp, y6)))
                y6, k6 = yp, None
        y, k0 = y6, k6
        xs.append(x)
        ys.append(y)
        reason = stop(y) if stop is not None else None
        if reason is not None:
            termination = reason
            break
        h *= min(5.0, max(0.2, 0.9 * err ** -0.2)) if err > 0 else 5.0
    return np.array(xs), np.array(ys), termination, stats


# -- trajectory assembly ----------------------------------------------------


# DP54 fields on (R, u) and (S, ln f): lists of Python floats in and out
def _shape_field(y):
    a1, a2, b1, b2, _ = y
    # 1/f, with f summed as np.linalg.norm sums a row of shapes
    return [*flow._components(a1, a2, b1, b2),
            1.0 / math.sqrt(a1 * a1 + a2 * a2 + b1 * b1 + b2 * b2)]


def _sphere_field(y):
    a1, a2, a3, a4, _ = y
    v1, v2, v3, v4 = flow._components(a1, a2, a3, a4)
    beta = v1 * a1 + v2 * a2 + v3 * a3 + v4 * a4  # summed as flow.monitor_table's beta
    return [v1 - beta * a1, v2 - beta * a2, v3 - beta * a3, v4 - beta * a4, beta]


def _wall_stop(y):
    """WALL_CROSSING at a state (R, rider) with G1 < -m, m = 1e-12 |R|^2: the escape is
    decided, as {G1 < 0, G2 > 0} is forward-invariant (see integrate_shape)."""
    a1, a2, b1, b2, _ = y
    m = 1e-12 * (a1 * a1 + a2 * a2 + b1 * b1 + b2 * b2)
    return WALL_CROSSING if a2 * b2 - a1 * b1 < -m else None


def _project_sphere(y):
    a1, a2, a3, a4, lnf = y
    f = math.sqrt(a1 * a1 + a2 * a2 + a3 * a3 + a4 * a4)
    return [a1 / f, a2 / f, a3 / f, a4 / f, lnf]


def integrate_shape(start, t0: float, t1: float, tol: float = 1e-10, max_step: float = np.inf,
                    u0: float = 0.0, until_decided: bool = False) -> Trajectory:
    """Integrate the shape flow from a strictly positive shape (4,).

    The sphere parameter u (du = dt / f) rides along as a quadrature
    variable and is exposed in stats["u"].  Terminates early when any
    shape component drops below 1e-9 or the step size collapses; the
    reason is recorded on the trajectory, never silently.  until_decided also
    stops at the first step with G1 < -m (WALL_CROSSING: the escape is decided)
    or G1 > m and G2 < -m (STAYS_INSIDE), m = 1e-12 |R|^2 keeping the signs of
    that sample's monitors.  Q = {G1 > 0, G2 < 0} is forward-invariant, so G1 stays
    positive: dG1/du = -(2/alpha2) G2 on {G1 = 0}, dG2/du = -(2/alpha2) G1 on {G2 = 0},
    and the corner {G1 = G2 = 0} = {A1 = A2, B1 = B2} is invariant (v1 = v2, v3 = v4).
    """
    r = np.asarray(start, dtype=float)
    if np.any(r <= 0.0):
        raise ValueError(f"start must be strictly positive, got {start}")
    if t1 <= t0:
        raise ValueError("t1 must exceed t0")

    def stop(y):
        a1, a2, b1, b2, _ = y
        if min(a1, a2, b1, b2) < POSITIVITY_FLOOR:
            return POSITIVITY_VIOLATION
        if not until_decided:
            return None
        m = 1e-12 * (a1 * a1 + a2 * a2 + b1 * b1 + b2 * b2)
        if a2 * b2 - a1 * b1 > m and a1 * b2 - a2 * b1 < -m:
            return STAYS_INSIDE
        return _wall_stop(y)

    ts, ys, term, stats = _integrate(_shape_field, t0, np.append(r, u0), t1, tol,
                                     max_step=max_step, stop=stop)
    return Trajectory.from_samples("t", ts, shapes=ys[:, :4], termination=term,
                                   stats={**stats, "u": ys[:, 4].copy()})


def integrate_sphere(start: np.ndarray, u0: float, u1: float, f0: float = 1.0,
                     tol: float = 1e-10, max_step: float = 0.25) -> Trajectory:
    """Integrate the tangential system in u from the unit direction start,
    with the scale riding along.

    The state is renormalized to the unit sphere after every accepted
    step (pre-projection drift is logged in stats["max_drift"]);
    d(ln f)/du = <V(S), S> tracks the radial factor from f0.
    """
    if f0 <= 0.0:
        raise ValueError("f0 must be positive")
    a0 = np.asarray(start, dtype=float)
    if abs(np.linalg.norm(a0) - 1.0) > 1e-9:
        raise ValueError(f"start must be a unit vector, got |S| = {np.linalg.norm(a0)}")

    us, ys, term, stats = _integrate(_sphere_field, u0, np.append(a0, math.log(f0)), u1, tol,
                                     max_step=max_step, project=_project_sphere)
    return Trajectory.from_samples("u", us, spheres=ys[:, :4], f=np.exp(ys[:, 4]),
                                   termination=term, stats=stats)


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
    analytic right-hand side) until alpha3 reaches 0.01, then switches
    to the tangential system in u (du = x dv accumulated through the
    first phase).  ln f rides along via d(ln f) = beta du from f = 1 at
    launch.  The run ends at the first sample past the G1 wall, which can
    never converge (WALL_CROSSING, see _wall_stop), or else at the u horizon,
    marked converged when it enters and stays within 1e-6 of the limit direction.
    """
    if not 0.0 < mu < 1.0:
        raise ValueError(f"mu must lie in (0, 1), got {mu}")
    if not 0.0 < eps <= 1e-4:
        raise ValueError(f"eps must lie in (0, 1e-4], got {eps}")
    # phase 1: chart state (x, y, z, u, ln f) in the chart time v
    p0 = np.array([0.0, 0.0, mu]) + eps * unstable_direction(mu)

    def chart_field(y):
        g1, g2, g3, xbeta = flow._chart_components(*y[:3])
        return [g1, g2, g3, y[0], xbeta]

    def chart_stop(y):
        return "switch" if y[0] >= CHART_SWITCH_X else None

    vs, cys, term, cstats = _integrate(chart_field, 0.0, np.append(p0, [0.0, 0.0]),
                                       2000.0, LAUNCH_TOL, stop=chart_stop)
    if term != "switch":
        raise RuntimeError(f"chart phase did not reach the switch threshold ({term})")
    chart = np.column_stack([flow.chart_to_sphere(cys[:, :3]), cys[:, 4]])

    # phase 2: tangential system in u, state (S, ln f), to the horizon or the wall
    us, ys, term, stats = _integrate(_sphere_field, cys[-1, 3], chart[-1], u_max, LAUNCH_TOL,
                                     max_step=max_step, project=_project_sphere,
                                     stop=_wall_stop)
    stats["chart"] = {"v_span": float(vs[-1]), "steps": cstats["steps"],
                      "u_switch": float(cys[-1, 3])}
    ys = np.concatenate([chart[:-1], ys])
    traj = Trajectory.from_samples("u", np.concatenate([cys[:-1, 3], us]), spheres=ys[:, :4],
                                   f=np.exp(ys[:, 4]), termination=term, stats=stats)
    if traj.termination == REACHED_HORIZON:
        converged, _ = detect_convergence(traj.spheres, traj.params)
        if converged:
            traj = replace(traj, termination=CONVERGED)
    return traj


def detect_convergence(spheres, params, target=None, tol: float = 1e-6):
    """First parameter value after which a sphere path stays within tol of target.

    spheres is (n, 4), params its n parameter values and target a unit
    direction (default: the limit direction).  Returns (True, parameter)
    on success, (False, None) when the path never enters, or enters but
    leaves again before its end.
    """
    dist = np.linalg.norm(spheres - (flow.SINF if target is None else target), axis=1)
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


def alc_fit(traj: Trajectory) -> ALCFit | None:
    """Affine fit of the shape functions over the trailing half of the t span.

    Certifies the asymptotically conic behaviour: each metric function
    approaches an affine function of t, one of them a constant.  None
    when the recorded samples cannot carry a fit: a t span below 30 or
    a trailing window below 10 in t.
    """
    if traj.kind != "t":
        raise ValueError("asymptotic fit needs a t-parameterized trajectory")
    span = traj.params[-1] - traj.params[0]
    sel = traj.params >= traj.params[-1] - 0.5 * span
    if span < 30.0 or traj.params[-1] - traj.params[sel][0] < 10.0:
        return None
    ts = traj.params[sel]
    dev, slopes, intercepts = 0.0, np.empty(4), np.empty(4)
    for j in range(4):
        vals = traj.shapes[sel, j]
        slopes[j], intercepts[j] = np.polyfit(ts, vals, 1)
        fit = slopes[j] * ts + intercepts[j]
        # |1 - y/fit| with fit values indistinguishable from zero skipped
        # (an identically zero function deviates by zero from its fit)
        denom = np.where(np.abs(fit) > 1e-12 * max(float(np.max(np.abs(vals))), 1e-300),
                         np.abs(fit), np.inf)
        dev = max(dev, float(np.max(np.abs(vals - fit) / denom)))
    return ALCFit(slopes, intercepts, float(ts[0]), float(ts[-1]), dev)


def escapes_invariant_region(traj: Trajectory) -> bool:
    """True when the wall function G1 = a2 a4 - a1 a3 goes negative.

    Once a trajectory crosses G1 = 0 while G2 > 0 it cannot return
    (d G1 / du = -(2/alpha2) G2 on the wall); such trajectories run to
    the corner alpha2 = alpha3 = alpha4 = 0 and the shape degenerates at
    finite t, so no complete metric arises.  A path in Q = {G1 > 0, G2 < 0} never escapes.
    """
    return bool(np.any(traj.monitor("G1") < 0.0))


def critical_parameter(lo: float = 0.5, hi: float = 0.6, tol: float = 1e-9) -> float:
    """Family edge: largest mu whose trajectory stays in the invariant region.

    Below the returned value trajectories converge to the limit
    direction (asymptotically conic with a circle fiber); above it they
    cross the G1 wall and the metric closes up singularly at finite t.
    The critical trajectory itself approaches the conic stationary
    direction S1.  Located by bisection on family runs stopped once decided (at
    the wall or in Q, see integrate_shape); the bracket must straddle the transition.
    """

    def escapes(mu):
        return escapes_invariant_region(
            family_shape_trajectory(mu, t_max=60.0, tol=1e-12, until_decided=True))

    if escapes(lo) or not escapes(hi):
        raise ValueError(f"bracket ({lo}, {hi}) does not straddle the transition")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if escapes(mid):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


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

    def inv_f(t):
        return 1.0 / np.linalg.norm(t[..., None] ** np.arange(s.order + 1) @ s.coefficients,
                                    axis=-1)

    u0 = float(gauss_legendre(inv_f, 0.0, delta))
    return integrate_shape(start, delta, t_max, tol=tol, max_step=max_step, u0=u0,
                           until_decided=until_decided)
