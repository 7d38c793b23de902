"""Shape flow of the torsion-free metrics and its decomposition on S^3.

The quadruple R = (A1, A2, B1, B2) evolves by dR/dt = V(R) where V is
degree-0 homogeneous.  Writing R = f S with |S| = 1 splits the flow
into the tangential system dS/du = W(S) = V(S) - <V(S), S> S on the
unit sphere and the radial equations d(ln f)/du = <V(S), S>, dt = f du.

Near the arc J = {(mu, lambda, 0, lambda)} of singular initial shapes
the tangential field has a 1/alpha3 pole; the chart (x, y, z) =
(alpha3, alpha4 - alpha2, alpha1) and the time change du = x dv make
x W a smooth field that vanishes exactly on J.

Also provided: the discrete symmetry group of the flow, the cubic first
integral, and the scalar monitors used to certify the qualitative
behaviour of trajectories (monotone quantities, wall functions, and the
radial log-derivative).  Shapes, their t-derivatives and unit directions
are (..., 4) arrays, chart points (3,) arrays.  Nothing here imports the
closure oracle g2cone.exterior, which checks this flow.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "S1", "SINF", "CHART_RADIUS", "CHART_MIN_RADICAND",
    "rhs", "velocity", "first_integral", "sphere_field",
    "chart_to_sphere", "modified_field",
    "symmetry_group", "monitor_table", "MONITOR_NAMES",
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


# -- the vector field ---------------------------------------------------


def velocity(r) -> np.ndarray:
    """V(R): right-hand side of the shape system, (..., 4) -> (..., 4).

    Defined wherever the denominators A2, B1, B2 are nonzero; A1 never
    divides, so the wall A1 = 0 is inside the domain (and is invariant).
    """
    if np.ndim(r) == 1:  # one state on Python floats, where a zero denominator raises
        return np.array(_components(*np.asarray(r).tolist()))
    a1, a2, b1, b2 = rt = np.asarray(r).T  # components first; the last .T undoes it
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


def rhs(state) -> np.ndarray:
    """Torsion-free evolution dR/dt of the shape (A1, A2, B1, B2): velocity."""
    return velocity(state)


def first_integral(state):
    """F = 2 A1 A2 B2 - B1 (B2^2 - A2^2), constant along the flow.

    A (..., 4) array of shapes gives the (...) values.
    """
    a1, a2, b1, b2 = np.asarray(state, dtype=float).T
    return (2.0 * a1 * a2 * b2 - b1 * (b2 * b2 - a2 * a2)).T


# -- radial / tangential split ------------------------------------------


def sphere_field(a: np.ndarray) -> tuple:
    """(W, beta) at a unit direction: W = V - beta S is the tangential field
    and beta = <V(S), S> the logarithmic growth rate of the scale f."""
    v = velocity(a)
    beta = float(np.dot(v, a))
    return v - beta * a, beta


# -- chart around the singular arc J -------------------------------------


def _radicand(p) -> float:
    x, y, z = p
    return 2.0 - 2.0 * x**2 - y**2 - 2.0 * z**2


def chart_to_sphere(p: np.ndarray) -> np.ndarray:
    """Recover the sphere point from chart coordinates.

    alpha2 = (sqrt(2 - 2x^2 - y^2 - 2z^2) - y)/2 and alpha4 the same with
    +y; rejects points where the radicand is negative.
    """
    rad = _radicand(p)
    if rad < 0.0:
        raise ValueError(f"chart radicand negative at {list(map(float, p))}")
    x, y, z = p
    root = math.sqrt(rad)
    return np.array([z, 0.5 * (root - y), x, 0.5 * (root + y)], dtype=float)


def modified_field(p: np.ndarray) -> tuple:
    """(g, x beta) at a chart point: g = (x W_x, x W_y, x W_z) is the
    desingularized chart field, zero exactly on J, and x beta = x <V(S), S>
    is d(ln f)/dv in the chart time.  Both are smooth through x = 0.

    V = Vreg + P / alpha3 with P supported on the (alpha2, alpha4)
    components, so x W = q - <q, S> S with q = x Vreg + P extends
    smoothly through x = 0.  alpha4^2 - alpha2^2 is evaluated as
    y (alpha2 + alpha4), exact near the arc where the difference is tiny.
    """
    x, y, _ = p
    if x * x + y * y > CHART_RADIUS**2:
        raise ValueError(f"chart point {list(map(float, p))} outside radius {CHART_RADIUS}")
    if _radicand(p) < CHART_MIN_RADICAND:
        raise ValueError(f"chart radicand too small at {list(map(float, p))}")
    s = chart_to_sphere(p)
    a1, a2, a3, a4 = s
    diff24 = y * (a2 + a4)  # alpha4^2 - alpha2^2 without cancellation
    vreg = np.array(
        [
            0.5 * (a1 * a1 / (a2 * a2) - a1 * a1 / (a4 * a4)),
            0.5 * (a3 / a4 - a1 / a2),
            (a2 * a2 + a4 * a4 - a3 * a3) / (a2 * a4),
            0.5 * (a3 / a2 + a1 / a4),
        ]
    )
    pole = np.array([0.0, 0.5 * diff24 / a4, 0.0, -0.5 * diff24 / a2])
    q = x * vreg + pole
    xbeta = float(np.dot(q, s))
    xw = q - xbeta * s
    return np.array([xw[2], xw[3] - xw[1], xw[0]]), xbeta


# -- discrete symmetries --------------------------------------------------

# (signed permutation on (a1..a4), parameter reversal u -> -u)
_SYMMETRIES = {
    1: (np.array([[-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0]], dtype=float), False),
    2: (np.diag([-1.0, 1.0, 1.0, -1.0]), True),
    3: (np.diag([-1.0, -1.0, 1.0, 1.0]), True),
    4: (np.diag([1.0, 1.0, -1.0, -1.0]), False),
    5: (np.diag([1.0, -1.0, -1.0, 1.0]), False),
}


def symmetry_group() -> list:
    """Closure of the five symmetries under composition.

    Elements are (matrix, reversal) pairs; the group is finite since the
    matrices are signed permutations.
    """
    seen = {}
    frontier = [(np.eye(4), False)]
    seen[(tuple(np.eye(4).astype(int).ravel()), False)] = (np.eye(4), False)
    while frontier:
        mat, rev = frontier.pop()
        for k in _SYMMETRIES:
            gmat, grev = _SYMMETRIES[k]
            nmat, nrev = gmat @ mat, grev ^ rev
            key = (tuple(nmat.astype(int).ravel()), nrev)
            if key not in seen:
                seen[key] = (nmat, nrev)
                frontier.append((nmat, nrev))
    return list(seen.values())


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
        v1, v2, v3, v4 = _components(a1, a2, a3, a4)
        beta = np.where((a2 != 0.0) & (a3 != 0.0) & (a4 != 0.0),
                        v1 * a1 + v2 * a2 + v3 * a3 + v4 * a4, np.nan)
    return np.column_stack([f**3 * fs, f1, f2, f3, f4, a4 * a4 - a3 * a3,
                            a2 * a4 - a1 * a3, a1 * a4 - a2 * a3, beta])
