"""Trajectory production: series launch, chart launch, integration, asymptotics.

The shape flow leaves the singular orbit at t = 0 with B1 = 0, so the
integration cannot start there directly.  A power series in t built
order-by-order from the flow equations supplies a starting state at a
small offset; on the sphere side, the trajectory leaves the singular
arc J along the unstable eigenvector of the desingularized chart field
and is continued in u after leaving a small neighbourhood of J.

Every run is one call of flow's DP54 integrator; the stops that end a run
early are shoot's: positivity loss, the G1 wall (`wall-crossing`), entry
into Q (`stays-inside`) or the trapping set of S_inf (`converged-to-target`).
"""

from __future__ import annotations

import functools
import math

import numpy as np

from . import flow
from .flow import REACHED_HORIZON, STEP_FAILURE

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

CONVERGED = "converged-to-target"
POSITIVITY_VIOLATION = "positivity-violation"
WALL_CROSSING = "wall-crossing"  # sphere launches and runs stopped once decided: the G1 wall
STAYS_INSIDE = "stays-inside"  # runs stopped once decided, on entering Q (see integrate_shape)

POSITIVITY_FLOOR = 1e-9
SERIES_MAX_OFFSET = 1e-2  # the series launch offset never exceeds this t
CHART_SWITCH_X = 0.01  # leave the desingularized chart once alpha3 reaches this
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

    ts, ys, term, stats = flow._integrate(_shape_field, t0, np.append(r, u0), t1, tol,
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
    on the state (S, ln f) ends the run after an accepted step, as in flow._integrate;
    its callers pass sphere_stop, and u1 is the backstop.
    """
    a0 = np.asarray(start, dtype=float)
    if not abs(np.linalg.norm(a0) - 1.0) <= 1e-9:
        raise ValueError(f"start must be a unit vector, got |S| = {np.linalg.norm(a0)}")

    us, ys, term, stats = flow._integrate(flow._sphere_rate, u0, np.append(a0, ln_f0), u1, tol,
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
    A u_max at or before the switch's u raises ValueError (from flow._integrate).
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

    vs, cys, term, cstats = flow._integrate(chart_field, 0.0, np.append(p0, [0.0, 0.0]),
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
# unstable eigenvalue flow.S1_EIGENVALUES[2]; literals, as computing them (analysis.linearize)
# puts a LAPACK eigen solve on the edge search's path.  test_edge_probe_dwell_value checks them.
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
    u0 = float(flow.gauss_legendre(lambda t: 1.0 / np.linalg.norm(eval_series(s, t), axis=-1),
                                   0.0, delta))
    return integrate_shape(start, delta, t_max, tol=tol, max_step=max_step, u0=u0,
                           until_decided=until_decided)
