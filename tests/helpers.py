"""Shared numerical helpers for the test suite."""

import math

import numpy as np

from g2cone import flow, shoot


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
    return shoot.Trajectory(t=t, spheres=np.tile(s, (n, 1)), f=f0 + slope * t)


def with_termination(traj, termination):
    """traj rebuilt through the Trajectory constructor with another termination,
    every other field kept bit for bit: a run with t from its shapes, any other
    from spheres and f, the columns it was built from (the copy computes its own
    monitors)."""
    columns = ({"shapes": traj.shapes} if traj.t is not None
               else {"spheres": traj.spheres, "f": traj.f})
    return shoot.Trajectory(t=traj.t, u=traj.u, **columns, termination=termination,
                            stats=traj.stats)


# -- sphere points, the chart inverse and the discrete symmetries ---------------


def S0(mu: float) -> np.ndarray:
    """Singular-arc point (mu, lambda, 0, lambda) with 2 lambda^2 + mu^2 = 1."""
    if not 0.0 < mu < 1.0:
        raise ValueError(f"mu must lie in (0, 1), got {mu}")
    lam = math.sqrt((1.0 - mu * mu) / 2.0)
    return np.array([mu, lam, 0.0, lam])


def sphere_to_chart(s: np.ndarray) -> np.ndarray:
    """Inverse chart map, valid near J where alpha4 >= alpha2."""
    return np.array([s[2], s[3] - s[1], s[0]], dtype=float)


def symmetry(k: int) -> tuple:
    """The k-th discrete symmetry (matrix, reverses_parameter), k = 1..5."""
    if k not in flow.SYMMETRIES:
        raise IndexError(f"symmetry index must be 1..5, got {k}")
    return flow.SYMMETRIES[k]


def apply_symmetry(obj, k: int):
    """Apply symmetry k to a unit direction (an array) or to a sphere trajectory.

    For trajectories the sample order is reversed, and the t and u columns
    (those the run has) negated, when the symmetry includes u -> -u; the scale
    f is carried along unchanged (signed permutations preserve |R|) and the
    monitors are recomputed on the transformed samples.
    """
    mat, reverse = symmetry(k)
    if isinstance(obj, np.ndarray):
        return mat @ obj
    # duck-typed trajectory: rebuilt by its own class from t, u, spheres, f
    spheres, f, t, u = obj.spheres @ mat.T, obj.f, obj.t, obj.u
    if reverse:
        spheres, f = spheres[::-1], f[::-1]
        t, u = (None if c is None else -c[::-1] for c in (t, u))
    return type(obj)(t=t, u=u, spheres=spheres, f=f, termination=obj.termination,
                     stats=obj.stats)


# -- KForm reference for the closure engine ------------------------------------
# A sparse form algebra of its own, sharing no code with g2cone.exterior, so a
# sign slip in the engine cannot enter both sides of a comparison.


def sort_sign(idx: tuple):
    """Bubble-sort idx, one sign flip per swap of neighbours.

    Returns (sorted tuple, sign), or (None, 0) when an index repeats.
    """
    if len(set(idx)) < len(idx):
        return None, 0
    out, sign = list(idx), 1
    for end in range(len(out) - 1, 0, -1):
        for j in range(end):
            if out[j] > out[j + 1]:
                out[j], out[j + 1] = out[j + 1], out[j]
                sign = -sign
    return tuple(out), sign


class KForm:
    """Degree-k form on the coframe e^1..e^7: a dict from strictly increasing
    k-tuples to coefficients, zero coefficients dropped."""

    def __init__(self, degree: int, coeffs: dict | None = None):
        self.degree = degree
        self.coeffs = {idx: val for idx, val in (coeffs or {}).items() if val != 0}

    def __add__(self, other: "KForm") -> "KForm":
        assert self.degree == other.degree, "forms of different degree"
        out = dict(self.coeffs)
        for idx, val in other.coeffs.items():
            out[idx] = out.get(idx, 0) + val
        return KForm(self.degree, out)

    def __rmul__(self, scalar) -> "KForm":
        return KForm(self.degree, {idx: scalar * val for idx, val in self.coeffs.items()})

    def coefficient(self, idx) -> float:
        return self.coeffs.get(tuple(idx), 0.0)


def basis_form(*indices: int) -> KForm:
    """e^{i1...ik} for strictly increasing indices."""
    return KForm(len(indices), {indices: 1.0})


def wedge(a: KForm, b: KForm) -> KForm:
    """Graded-anticommutative product (a repeated index gives zero)."""
    out: dict = {}
    for ia, va in a.coeffs.items():
        for ib, vb in b.coeffs.items():
            idx, sign = sort_sign(ia + ib)
            if sign:
                out[idx] = out.get(idx, 0) + sign * va * vb
    return KForm(a.degree + b.degree, out)


def hodge_star(a: KForm) -> KForm:
    """star(e^I) = sign(I, I^c) e^{I^c}, orientation e^{1234567}."""
    out = {}
    for idx, val in a.coeffs.items():
        comp = tuple(j for j in range(1, 8) if j not in idx)
        out[comp] = sort_sign(idx + comp)[1] * val
    return KForm(7 - a.degree, out)


def max_abs(form: KForm) -> float:
    return max((abs(v) for v in form.coeffs.values()), default=0.0)


def allclose(a: KForm, b: KForm, tol: float = 1e-12) -> bool:
    """Same degree, and every coefficient within tol."""
    if a.degree != b.degree:
        return False
    keys = set(a.coeffs) | set(b.coeffs)
    return all(abs(a.coeffs.get(k, 0) - b.coeffs.get(k, 0)) <= tol for k in keys)


def coframe_differentials(state, derivs) -> list:
    """Structure equations: the seven 2-forms de^1 .. de^7 in the e-basis.

    Uses d eta_i = -2 eta_{i+1} ^ eta_{i+2} together with the inversion
    eta_i = (e^i/A_i + e^{i+3}/B_i)/2, eta~_i = (e^i/A_i - e^{i+3}/B_i)/2
    (indices mod 3, A3 = A2, B3 = B2); the dt parts carry the supplied
    derivatives, e.g. de^1 contains (dA1/A1) e^7 ^ e^1.
    """
    if not np.all(np.real(state) > 0):
        raise ValueError(f"shape state must be strictly positive, got {state}")
    a1, a2, b1, b2 = state
    da1, da2, db1, db2 = derivs
    A, B, dA, dB = (a1, a2, a2), (b1, b2, b2), (da1, da2, da2), (db1, db2, db2)
    e7 = basis_form(7)
    diffs = []
    for i in range(3):
        j, k = (i + 1) % 3, (i + 2) % 3
        d = (dA[i] / A[i]) * wedge(e7, basis_form(i + 1))
        d = d + (-A[i]) * (
            (1.0 / (A[j] * A[k])) * wedge(basis_form(j + 1), basis_form(k + 1))
            + (1.0 / (B[j] * B[k])) * wedge(basis_form(j + 4), basis_form(k + 4))
        )
        diffs.append(d)
    for i in range(3):
        j, k = (i + 1) % 3, (i + 2) % 3
        d = (dB[i] / B[i]) * wedge(e7, basis_form(i + 4))
        d = d + (-B[i]) * (
            (1.0 / (A[j] * B[k])) * wedge(basis_form(j + 1), basis_form(k + 4))
            + (1.0 / (B[j] * A[k])) * wedge(basis_form(j + 4), basis_form(k + 1))
        )
        diffs.append(d)
    diffs.append(KForm(2))  # de^7 = d(dt) = 0
    return diffs


def exterior_derivative(form: KForm, diffs: list) -> KForm:
    """Leibniz extension of d to a form with constant e-basis coefficients.

    d(e^{i1..ik}) = sum_j (-1)^(j-1) e^{i1} ^ ... ^ de^{ij} ^ ... ^ e^{ik}.
    Valid for forms whose coefficients do not depend on t (true for the
    G2 3-form and its dual); coefficient derivatives are not included.
    """
    out = KForm(form.degree + 1)
    for idx, val in form.coeffs.items():
        for pos, i in enumerate(idx):
            term = KForm(0, {(): 1.0})
            for left in idx[:pos]:
                term = wedge(term, basis_form(left))
            term = wedge(term, diffs[i - 1])
            for right in idx[pos + 1:]:
                term = wedge(term, basis_form(right))
            sign = -1.0 if pos % 2 else 1.0
            out = out + (sign * val) * term
    return out
