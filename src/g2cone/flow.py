"""Shape flow of the torsion-free metrics and its decomposition on S^3.

The quadruple R = (A1, A2, B1, B2) evolves by dR/dt = V(R) where V is
degree-0 homogeneous.  Writing R = f S with |S| = 1 splits the flow
into the tangential system dS/du = W(S) = V(S) - <V(S), S> S on the
unit sphere and the radial equations d(ln f)/du = <V(S), S>, dt = f du.
W and beta have one formula, on floats (_sphere_rate, the field that
shoot integrates; sphere_field is its array form).

Near the arc J = {(mu, lambda, 0, lambda)} of singular initial shapes
the tangential field has a 1/alpha3 pole; the chart (x, y, z) =
(alpha3, alpha4 - alpha2, alpha1) and the time change du = x dv make
x W a smooth field that vanishes exactly on J, with its own pole-split
formula on floats (_chart_components; modified_field is its array form)
that never calls the analytic right-hand side.  The sphere launch runs it
off J, then W in u to the horizon or past the wall G1 = 0 (shoot).

Also provided: the five generators of the discrete symmetries (SYMMETRIES),
the cubic first integral, and the scalar monitors used to certify the
qualitative behaviour of trajectories (monotone quantities, wall functions,
and the radial log-derivative).  Every run steps these fields with _integrate, an
adaptive Dormand-Prince 5(4) integrator (h <- h clamp(0.9 err^(-1/5), 0.2, 5),
optional projection, the caller's stops) on five-float states whose fifth
component (u or ln f) is a rider: a field takes the other four floats and
returns all five rates.  gauss_legendre is the quadrature of the series
launch's u and the closed forms' r -> t map.  Shapes, their t-derivatives
and unit directions are (..., 4) arrays, chart points (3,) arrays.  Nothing
here imports the closure oracle g2cone.exterior.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "S1", "SINF", "S1_EIGENVALUES", "SINF_P", "SINF_R0", "SINF_DELTA",
    "CHART_RADIUS", "CHART_MIN_RADICAND", "velocity", "first_integral", "sphere_field",
    "chart_to_sphere", "modified_field",
    "SYMMETRIES", "monitor_table", "MONITOR_NAMES", "gauss_legendre",
]

# chart validity: disc of this radius in (x, y), and enough room under
# the square root to recover alpha2, alpha4
CHART_RADIUS = 0.35
CHART_MIN_RADICAND = 0.05

# denominators smaller than this produce flagged-missing monitor entries
_MONITOR_EPS = 1e-8

MONITOR_NAMES = ("F", "F1", "F2", "F3", "F4", "F5", "G1", "G2", "beta")


def _frozen(values) -> np.ndarray:
    a = np.array(values, dtype=float)
    a.flags.writeable = False
    return a


# stationary directions of the tangential flow (read-only)
S1 = _frozen([1.0 / (2.0 * math.sqrt(2.0)), 1.0 / (2.0 * math.sqrt(2.0)),
              math.sqrt(3.0) / (2.0 * math.sqrt(2.0)), math.sqrt(3.0) / (2.0 * math.sqrt(2.0))])
SINF = _frozen([0.0, math.sqrt(3.0) / math.sqrt(10.0), math.sqrt(2.0) / math.sqrt(5.0),
                math.sqrt(3.0) / math.sqrt(10.0)])

# Lyapunov certificate of the sink SINF (proved in tests/test_flow.py): V = d.P.d, P = SINF_P,
# d = S - SINF (J^T P + P J = -Q on the tangent space, least eigenvalue 1) decreases within
# SINF_R0 of SINF, where V <= (min(tol, SINF_R0) - SINF_DELTA)^2 lies within tol of SINF.
SINF_P = ((3.110617309793769, 1.8739990342490522, 0.0, -1.8739990342490522),
          (1.8739990342490522, 3.0294707712774085, -1.4991992273992414, -1.2983446162617462),
          (0.0, -1.4991992273992414, 2.596689232523493, -1.4991992273992414),
          (-1.8739990342490522, -1.2983446162617462, -1.4991992273992414, 3.0294707712774085))
SINF_R0 = 1e-3
SINF_DELTA = 1e-9

# closed forms of the tangential eigenvalues at S1 (simple, all real)
S1_EIGENVALUES = (-2.0 * math.sqrt(2.0), -7.0 * math.sqrt(2.0) / 3.0 - math.sqrt(290.0) / 3.0,
                  -7.0 * math.sqrt(2.0) / 3.0 + math.sqrt(290.0) / 3.0)


# -- the vector field ---------------------------------------------------


def velocity(r) -> np.ndarray:
    """V(R): right-hand side of the shape system, (..., 4) -> (..., 4).

    Defined at finite states (ValueError otherwise) whose denominators A2, B1, B2
    are nonzero; A1 never divides, so the wall A1 = 0 is inside the domain (and is
    invariant).  A complex state (a complex step) keeps its imaginary part.
    """
    a1, a2, b1, b2 = rt = np.asarray(r).T  # components first; the last .T undoes it
    if not np.all(np.isfinite(rt)):
        raise ValueError(f"vector field needs a finite state, got {r}")
    if np.count_nonzero(rt[1:]) < 3 * a2.size:
        raise ZeroDivisionError(f"vector field undefined at {r}")
    return np.array(_components(a1, a2, b1, b2)).T


def _components(a1, a2, b1, b2) -> tuple:
    """The four components of V, elementwise on scalars or arrays."""
    v1 = 0.5 * (a1 * a1 / (a2 * a2) - a1 * a1 / (b2 * b2))
    v2 = 0.5 * ((b2 * b2 - a2 * a2 + b1 * b1) / (b1 * b2) - a1 / a2)
    v3 = (a2 * a2 + b2 * b2 - b1 * b1) / (a2 * b2)
    v4 = 0.5 * ((a2 * a2 - b2 * b2 + b1 * b1) / (a2 * b1) + a1 / b2)
    return v1, v2, v3, v4


rhs = velocity  # the name under which the benchmark harness calls velocity


def first_integral(state):
    """F = 2 A1 A2 B2 - B1 (B2^2 - A2^2), constant along the flow.

    A (..., 4) array of shapes gives the (...) values.
    """
    a1, a2, b1, b2 = np.asarray(state, dtype=float).T
    return (2.0 * a1 * a2 * b2 - b1 * (b2 * b2 - a2 * a2)).T


# -- radial / tangential split ------------------------------------------


def sphere_field(a: np.ndarray) -> tuple:
    """(W, beta) at a unit direction: W = V - beta S is the tangential field and
    beta = <V(S), S> the logarithmic growth rate of the scale f.  The array view
    of _sphere_rate, bit for bit; complex input keeps Im beta."""
    *w, beta = _sphere_rate(*np.asarray(a).tolist())
    return np.array(w), beta


def _sphere_rate(a1, a2, a3, a4) -> tuple:
    """The DP54 field of integrate_sphere on Python floats: S -> (W, beta), the rates of
    (S, ln f); the rider ln f enters no rate."""
    v1, v2, v3, v4 = _components(a1, a2, a3, a4)
    beta = v1 * a1 + v2 * a2 + v3 * a3 + v4 * a4
    return v1 - beta * a1, v2 - beta * a2, v3 - beta * a3, v4 - beta * a4, beta


# -- chart around the singular arc J -------------------------------------


def chart_to_sphere(p: np.ndarray) -> np.ndarray:
    """Recover sphere points (..., 4) from chart coordinates (..., 3).

    alpha2 = (sqrt(2 - 2x^2 - y^2 - 2z^2) - y)/2 and alpha4 the same with
    +y; rejects points where the radicand is negative.
    """
    x, y, z = p = np.asarray(p, dtype=float).T
    rad = 2.0 - 2.0 * x**2 - y**2 - 2.0 * z**2
    if np.any(rad < 0.0):
        raise ValueError(f"chart radicand negative at {p.T[rad < 0.0].tolist()}")
    root = np.sqrt(rad)
    return np.array([z, 0.5 * (root - y), x, 0.5 * (root + y)]).T


def modified_field(p: np.ndarray) -> tuple:
    """(g, x beta) at a chart point: g = (x W_x, x W_y, x W_z) is the
    desingularized chart field, zero exactly on J, and x beta = x <V(S), S>
    is d(ln f)/dv in the chart time.  Both are smooth through x = 0."""
    *g, xbeta = _chart_components(*np.asarray(p, dtype=float).tolist())
    return np.array(g), xbeta


def _chart_components(x, y, z) -> tuple:
    """(g1, g2, g3, x beta) of modified_field at one chart point, on Python floats.

    V = Vreg + P / alpha3 with P supported on the (alpha2, alpha4)
    components, so x W = q - <q, S> S with q = x Vreg + P extends
    smoothly through x = 0.  alpha4^2 - alpha2^2 is evaluated as
    y (alpha2 + alpha4), exact near the arc where the difference is tiny.
    x beta = <q, S> is summed left to right.
    """
    if x * x + y * y > CHART_RADIUS**2:
        raise ValueError(f"chart point {[x, y, z]} outside radius {CHART_RADIUS}")
    rad = 2.0 - 2.0 * x**2 - y**2 - 2.0 * z**2
    if rad < CHART_MIN_RADICAND:
        raise ValueError(f"chart radicand too small at {[x, y, z]}")
    root = math.sqrt(rad)
    a1, a2, a3, a4 = z, 0.5 * (root - y), x, 0.5 * (root + y)
    diff24 = y * (a2 + a4)  # alpha4^2 - alpha2^2 without cancellation
    q1 = x * (0.5 * (a1 * a1 / (a2 * a2) - a1 * a1 / (a4 * a4)))
    q2 = x * (0.5 * (a3 / a4 - a1 / a2)) + 0.5 * diff24 / a4
    q3 = x * ((a2 * a2 + a4 * a4 - a3 * a3) / (a2 * a4))
    q4 = x * (0.5 * (a3 / a2 + a1 / a4)) - 0.5 * diff24 / a2
    xbeta = q1 * a1 + q2 * a2 + q3 * a3 + q4 * a4
    return (q3 - xbeta * a3, (q4 - xbeta * a4) - (q2 - xbeta * a2), q1 - xbeta * a1, xbeta)


# -- discrete symmetries --------------------------------------------------

# the five generators: k -> (read-only signed permutation on (a1..a4), whether it
# reverses the parameter u -> -u); they generate a group of order 16
SYMMETRIES = {
    1: (_frozen([[-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0]]), False),
    2: (_frozen(np.diag([-1.0, 1.0, 1.0, -1.0])), True),
    3: (_frozen(np.diag([-1.0, -1.0, 1.0, 1.0])), True),
    4: (_frozen(np.diag([1.0, 1.0, -1.0, -1.0])), False),
    5: (_frozen(np.diag([1.0, -1.0, -1.0, 1.0])), False),
}


# -- monitors --------------------------------------------------------------


def monitor_table(spheres, f) -> np.ndarray:
    """Monitors (n, 9) in the order MONITOR_NAMES at unit directions (n, 4) and scales (n,).

    Entries at singular loci come back NaN: a denominator within 1e-8 of
    zero means the value would be numerical noise (this happens by
    construction at the endpoints of the family trajectories), the log
    in F2 needs a positive argument, and beta needs alpha2, alpha3 and
    alpha4 nonzero.
    """
    a = np.asarray(spheres, dtype=float)
    f = np.asarray(f, dtype=float)
    a1, a2, a3, a4 = a.T
    fs = first_integral(a)
    d24 = (a4 - a2) * (a4 + a2)  # alpha4^2 - alpha2^2, factored
    eps = _MONITOR_EPS
    with np.errstate(divide="ignore", invalid="ignore"):
        f1 = np.where(np.abs(fs) > eps, a1 * a2 * a4 / fs, np.nan)
        arg = a3 * d24 / (a4 * a2 * a1)
        f2_ok = ((np.minimum(np.abs(a1), np.abs(a4 - a2)) > eps) & (np.abs(a2 * a4) > eps)
                 & (arg > 0.0))
        f2 = np.where(f2_ok, np.log(arg), np.nan)
        f3 = np.where((a2 > eps) & (a4 > eps), np.log(a2 / a4), np.nan)
        f4 = np.where(np.abs(a4) > eps, a3 / a4, np.nan)
        beta = np.where((a2 != 0.0) & (a3 != 0.0) & (a4 != 0.0),
                        _sphere_rate(a1, a2, a3, a4)[4], np.nan)
    return np.column_stack([f**3 * fs, f1, f2, f3, f4, a4 * a4 - a3 * a3,
                            a2 * a4 - a1 * a3, a1 * a4 - a2 * a3, beta])


# -- quadrature --------------------------------------------------------------

# np.polynomial.legendre.leggauss(20) bit for bit (importing numpy.polynomial costs ~3 ms
# of start-up): its nodes are exactly odd and its weights exactly even, so half of each mirrors.
_GL_XP = (0.07652652113349734, 0.22778585114164507, 0.37370608871541955, 0.5108670019508271,
          0.636053680726515, 0.7463319064601508, 0.8391169718222188, 0.912234428251326,
          0.9639719272779138, 0.993128599185095)
_GL_WP = (0.15275338713072628, 0.14917298647260424, 0.1420961093183824, 0.1316886384491769,
          0.1181945319615186, 0.1019301198172407, 0.08327674157670471, 0.06267204833410879,
          0.040601429800386446, 0.017614007139150893)
_GL_X = _frozen([-x for x in _GL_XP[::-1]] + list(_GL_XP))
_GL_W = _frozen(_GL_WP[::-1] + _GL_WP)
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

REACHED_HORIZON = "reached-horizon"  # the two terminations _integrate sets itself
STEP_FAILURE = "step-failure"
ATOL = 1e-12  # absolute tolerance of every integration
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
    chart's (x, y, z, u, ln f); another length raises ValueError, as does failing x0 < x1
    with both finite, rtol >= 0 or max_step > 0 (a NaN fails each).  The fifth component
    is a rider that no rate depends on: field(p0, p1, p2, p3) takes the first four as
    floats and returns all five rates, so no stage forms the rider.  A step runs on Python
    floats held in locals, with every stage sum and the error norm written out per
    component as a left-to-right chain of +, and the step control's max, min and abs as
    comparisons: rounding does not depend on the interpreter, and no list is built per
    stage.  An attempt is rejected with h *= 0.2 when a stage raises or its error norm or
    new state is not finite.  Every accepted step is recorded (xs, ys as arrays); it ends
    at its stage-6 state (the fifth-order weights are _DP_A's last row), whose field value
    is the next stage 0 (first-same-as-last).  project(y) -> y runs on the list y after
    each accepted step (its displacement is logged as drift); when it moved the state, the
    next step evaluates the field there.  stop(y) -> str | None ends the run with its
    reason after any accepted step.  stats counts accepted and rejected steps and field
    evaluations (1 + 6 per attempt, one more per moved projection; each counted in a local
    just before its call, so a raising stage counts and ends its attempt); h_min, h_max
    bound the accepted steps (inf, 0 if none).
    """
    (a10,), (a20, a21), (a30, a31, a32), (a40, a41, a42, a43), \
        (a50, a51, a52, a53, a54), (b0, _, b2, b3, b4, b5) = _DP_A[1:]
    e0, _, e2, e3, e4, e5, e6 = _DP_E
    atol, sqrt, root5 = ATOL, math.sqrt, math.sqrt(5)
    y = [float(v) for v in y0]
    if len(y) != 5:
        raise ValueError(f"the DP54 state has 5 components, got {len(y)}")
    x, x1, rtol, max_step = float(x0), float(x1), float(rtol), float(max_step)
    if not (-math.inf < x < x1 < math.inf and rtol >= 0.0 and max_step > 0.0):  # the one check
        raise ValueError(f"need a finite x0 < x1, rtol >= 0 and max_step > 0, "
                         f"got {x0}, {x1}, {rtol}, {max_step}")
    xs, ys = [x], [y]
    steps, rejected, evals, h_min, h_max, max_drift, error_sum = 0, 0, 1, math.inf, 0.0, 0.0, 0.0
    k0 = field(*y[:4])
    d0 = d1 = 0.0  # the sizes of y and k0 over ATOL + rtol |y|, summed as the error norm
    for v, k in zip(y, k0):
        w = atol + rtol * (-v if v < 0.0 else v)
        d0, d1 = d0 + (v / w) * (v / w), d1 + (k / w) * (k / w)
    d0, d1 = sqrt(d0) / root5, sqrt(d1) / root5
    h = max(min(max_step, x1 - x, 1e-2 * d0 / d1 if d1 > 0 else 1e-6), 1e-12)
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
                k0 = field(p0, p1, p2, p3)
            k00, k01, k02, k03, k04 = k0
            evals += 1
            k10, k11, k12, k13, k14 = field(
                p0 + h * (a10 * k00), p1 + h * (a10 * k01), p2 + h * (a10 * k02),
                p3 + h * (a10 * k03))
            evals += 1
            k20, k21, k22, k23, k24 = field(
                p0 + h * (a20 * k00 + a21 * k10), p1 + h * (a20 * k01 + a21 * k11),
                p2 + h * (a20 * k02 + a21 * k12), p3 + h * (a20 * k03 + a21 * k13))
            evals += 1
            k30, k31, k32, k33, k34 = field(
                p0 + h * (a30 * k00 + a31 * k10 + a32 * k20),
                p1 + h * (a30 * k01 + a31 * k11 + a32 * k21),
                p2 + h * (a30 * k02 + a31 * k12 + a32 * k22),
                p3 + h * (a30 * k03 + a31 * k13 + a32 * k23))
            evals += 1
            k40, k41, k42, k43, k44 = field(
                p0 + h * (a40 * k00 + a41 * k10 + a42 * k20 + a43 * k30),
                p1 + h * (a40 * k01 + a41 * k11 + a42 * k21 + a43 * k31),
                p2 + h * (a40 * k02 + a41 * k12 + a42 * k22 + a43 * k32),
                p3 + h * (a40 * k03 + a41 * k13 + a42 * k23 + a43 * k33))
            evals += 1
            k50, k51, k52, k53, k54 = field(
                p0 + h * (a50 * k00 + a51 * k10 + a52 * k20 + a53 * k30 + a54 * k40),
                p1 + h * (a50 * k01 + a51 * k11 + a52 * k21 + a53 * k31 + a54 * k41),
                p2 + h * (a50 * k02 + a51 * k12 + a52 * k22 + a53 * k32 + a54 * k42),
                p3 + h * (a50 * k03 + a51 * k13 + a52 * k23 + a53 * k33 + a54 * k43))
            z0 = p0 + h * (b0 * k00 + b2 * k20 + b3 * k30 + b4 * k40 + b5 * k50)
            z1 = p1 + h * (b0 * k01 + b2 * k21 + b3 * k31 + b4 * k41 + b5 * k51)
            z2 = p2 + h * (b0 * k02 + b2 * k22 + b3 * k32 + b4 * k42 + b5 * k52)
            z3 = p3 + h * (b0 * k03 + b2 * k23 + b3 * k33 + b4 * k43 + b5 * k53)
            z4 = p4 + h * (b0 * k04 + b2 * k24 + b3 * k34 + b4 * k44 + b5 * k54)
            evals += 1
            k60, k61, k62, k63, k64 = k6 = field(z0, z1, z2, z3)
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
