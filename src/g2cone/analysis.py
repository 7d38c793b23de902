"""Stationary directions, linearizations, closed-form solution oracles.

The tangential flow has exactly two stationary directions up to the
discrete symmetries: the conic point S1 (where the two classical
explicit solutions meet the sphere) and the limit direction S_inf of
the one-parameter family.  This module catalogues them, linearizes the
sphere flow around them (linearize) and the desingularized chart flow on
the singular arc (chart_eigendata), and wraps the three classical
closed-form solutions together with the r -> t reparameterization so
they can serve as exact oracles for the integrator and the flow field.
"""

from __future__ import annotations

import math

import numpy as np

from . import flow

__all__ = [
    "StationaryReport",
    "EigenResidualError",
    "CLOSED_FORM_KINDS",
    "stationary_points",
    "tangent_basis",
    "linearize",
    "chart_eigendata",
    "eig_small",
    "closed_form",
    "dr_dt",
    "r_to_t",
    "R_TO_T_MAX",
    "verify_solution",
    "CHART_EIGENVALUES",
]

# eigenvalues of the desingularized chart field on the singular arc;
# independent of mu
CHART_EIGENVALUES = (2.0, -2.0, 0.0)


class EigenResidualError(RuntimeError):
    """Eigenpairs could not be certified to the requested residual."""


class StationaryReport:
    """A stationary direction of the sphere flow with its tangential eigendata.

    point is a unit direction on S^3, the rows of eigenvectors are tangent
    4-vectors, and classification counts the (negative, zero, positive) eigenvalues.
    """

    def __init__(self, point: np.ndarray, name: str, orbit_size: int, eigenvalues: np.ndarray,
                 eigenvectors: np.ndarray, classification: tuple, field_residual: float):
        vars(self).update(point=point, name=name, orbit_size=orbit_size, eigenvalues=eigenvalues,
                          eigenvectors=eigenvectors, classification=classification,
                          field_residual=field_residual)


CLOSED_FORM_KINDS = ("bgg", "bs", "singular")


# -- stationary directions --------------------------------------------------


def _orbit_size(point: np.ndarray) -> int:
    images = set()
    for mat, _ in flow.symmetry_group():
        images.add(tuple(np.round(mat @ point, 12)))
    return len(images)


def stationary_points() -> list:
    """The stationary directions S1 and S_inf of the tangential flow.

    Each satisfies V(S) parallel to S; the report records the residual
    |W(S)|, the size of the orbit under the discrete symmetry group and
    the eigendata of the tangential linearization.
    """
    reports = []
    for name, s in (("S1", flow.S1), ("Sinf", flow.SINF)):
        w, v = eig_small(linearize(s))
        basis = tangent_basis(s)
        re = w.real
        reports.append(StationaryReport(
            point=s, name=name, orbit_size=_orbit_size(s), eigenvalues=w,
            eigenvectors=np.array([basis.T @ v[:, i] for i in range(len(w))]),
            classification=(int(np.sum(re < -1e-8)), int(np.sum(np.abs(re) <= 1e-8)),
                            int(np.sum(re > 1e-8))),
            field_residual=float(np.linalg.norm(flow.sphere_field(s)[0]))))
    return reports


def tangent_basis(s: np.ndarray) -> np.ndarray:
    """Deterministic orthonormal basis of the tangent space at s on S^3."""
    basis = []
    for i in np.argsort(np.abs(s)):  # start away from the dominant component
        e = np.zeros(4)
        e[i] = 1.0
        v = e - np.dot(e, s) * s
        for b in basis:
            v -= np.dot(v, b) * b
        n = np.linalg.norm(v)
        if n > 1e-8:
            basis.append(v / n)
        if len(basis) == 3:
            break
    return np.array(basis)


_CS_STEP = 1e-20  # complex step of linearize
_FD_STEP = 1e-6  # central differences of chart_eigendata


def linearize(point) -> np.ndarray:
    """Jacobian of the tangential flow at a stationary unit direction.

    The degree-0 extension W(R/|R|) in an orthonormal tangent basis (3 x 3;
    eigenvalues are basis independent), by a complex step through
    flow.sphere_field (Squire & Trapp, SIAM Rev. 40, 1998): exact to
    rounding, one evaluation per direction.  Rejects a point that is not a
    (4,) unit vector (the tangent basis needs one), and one where W is not
    below 1e-8.
    """
    p = np.asarray(point, dtype=float)
    if p.shape != (4,) or not abs(np.linalg.norm(p) - 1.0) <= 1e-9:
        raise ValueError(f"linearize needs a (4,) unit direction, got {p!r}")

    def fn(r):  # the normalization is analytic in r, so a complex step passes it
        return flow.sphere_field(r / np.sqrt(np.sum(r * r)))[0]
    if np.linalg.norm(fn(p)) > 1e-8:
        raise ValueError(f"{tuple(p)} is not stationary for the tangential flow")
    basis = tangent_basis(p)
    return np.array([basis @ (fn(p + 1j * _CS_STEP * e).imag / _CS_STEP) for e in basis]).T


def chart_eigendata(mu: float) -> tuple:
    """(eigenvalues, direction) of the desingularized chart field at (0, 0, mu) on J.

    Central differences of flow.modified_field (it runs on real square
    roots); the sorted real eigenvalues, and the unit eigenvector of the
    largest, along which paths leave J, with a positive first component.
    Raises ValueError when the stencil leaves the chart.
    """
    p, fn = np.array([0.0, 0.0, mu]), flow.modified_field
    jac = np.array([(fn(p + _FD_STEP * e)[0] - fn(p - _FD_STEP * e)[0]) / (2.0 * _FD_STEP)
                    for e in np.eye(3)]).T
    w, v = eig_small(jac)
    direction = v[:, int(np.argmax(w.real))].real
    return np.sort(w.real), direction / np.linalg.norm(direction) * np.sign(direction[0])


def eig_small(m: np.ndarray):
    """Eigenpairs of a small (n <= 4) dense matrix with certified residuals.

    Returns (values, vectors) sorted by (real, imag) part; raises
    EigenResidualError when any |M v - w v| exceeds 1e-8 ||M||.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] > 4:
        raise ValueError(f"need a square matrix of size <= 4, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite")
    w, v = np.linalg.eig(m)
    order = np.lexsort((w.imag, w.real))
    w, v = w[order], v[:, order]
    norm = np.linalg.norm(m)
    for i in range(len(w)):
        res = np.linalg.norm(m @ v[:, i] - w[i] * v[:, i])
        if res > 1e-8 * max(norm, 1.0):
            raise EigenResidualError(
                f"eigenpair residual {res:.3e} exceeds tolerance (defective matrix?)")
    return w, v


# -- classical closed-form solutions ----------------------------------------


# Per kind: (r0, s0, h, open).  The domain is r >= r0, or r > r0 when open.
# dt = dr / g(r) with r = r0 + s^2 becomes dt = h(r) ds, h = 2 s / g(r).
# At the bgg and bs origins g ~ c s and the factor s cancels by hand, so h
# is smooth there; the singular form takes r0 = 0, which keeps its branch
# point at r = 0 off the path.  Each h is analytic 0.5 off the real s axis.
# The t-origins are the bgg cone tip r = 9/4 and the bs bolt r = 1 (s = 0);
# the singular solution has no smooth closure, so t(1) = 0 (s = 1).
_SUBSTITUTION = {
    "bgg": (2.25, 0.0, lambda r: 2.0 * np.sqrt((r - 0.75) * (r + 0.75) / (r + 2.25)), False),
    "bs": (1.0, 0.0, lambda r: 2.0 * r**1.5 / np.sqrt(r * r + r + 1.0), True),
    "singular": (0.0, 1.0, lambda r: 2.0 * r * r / np.sqrt(1.0 + r**3), True),
}


def _check_domain(kind: str, r) -> None:
    if kind not in _SUBSTITUTION:
        raise ValueError(f"unknown closed form kind {kind!r}")
    r_min, _, _, open_end = _SUBSTITUTION[kind]
    if not np.all(np.isfinite(r)):
        raise ValueError(f"{kind} closed form needs finite r")
    r_lo = np.min(r)
    if r_lo < r_min or (open_end and r_lo == r_min):
        raise ValueError(f"r={r_lo} outside the {kind} domain "
                         f"({'(' if open_end else '['}{r_min}, inf)")


def closed_form(kind: str, r) -> np.ndarray:
    """Shapes (..., 4) of the classical solutions at radii r of shape (...).

    kind="bgg": the asymmetric explicit solution with B1 = 2r/3;
    kind="bs": the round solution with A = (r/3) sqrt(1 - r^-3);
    kind="singular": its formal r -> -r image, sqrt(1 + r^-3), which
    never closes smoothly at the origin.
    """
    r = np.asarray(r, dtype=float)
    g = dr_dt(kind, r)  # checks the domain
    if kind == "bgg":  # dt = dr / A1
        return np.stack([g, np.sqrt((r + 0.75) * (r - 2.25) / 3.0), 2.0 * r / 3.0,
                         np.sqrt((r - 0.75) * (r + 2.25) / 3.0)], axis=-1)
    a, b = (r / 3.0) * g, r / math.sqrt(3.0)
    return np.stack([a, a, b, b], axis=-1)


def dr_dt(kind: str, r):
    """dr/dt along each closed form: the metric's radial lapse.

    For the asymmetric solution dt = dr / A1(r); the two round solutions
    carry dt^2 = dr^2 / (1 -+ r^-3) in their metric normal form.
    Accepts a float or an array of r.
    """
    _check_domain(kind, r)
    r = np.asarray(r, dtype=float)
    if kind == "bgg":
        g = np.sqrt((r - 2.25) * (r + 2.25) / ((r - 0.75) * (r + 0.75)))
    else:
        # float_power rounds as a scalar r**-3 does; numpy's SIMD ** may not
        g = np.sqrt(1.0 + (-1.0 if kind == "bs" else 1.0) * np.float_power(r, -3))
    return float(g) if g.ndim == 0 else g


R_TO_T_MAX = 1e6  # the rule's cost grows as sqrt(r)


def r_to_t(kind: str, r):
    """Arc-length parameter t(r) = integral of 1/(dr/dt), strictly increasing.

    Accepts a float or an array of r (one cumulative pass over its sorted
    radii), up to R_TO_T_MAX.  The integrand has an integrable 1/sqrt
    endpoint singularity at the bgg and bs origins; substituting
    r = r0 + s^2 removes it, so the Gauss-Legendre rule sees a smooth one.
    """
    _check_domain(kind, r)
    if np.max(r) > R_TO_T_MAX:
        raise ValueError(f"r_to_t needs r <= {R_TO_T_MAX:g}")
    r0, s0, h, _ = _SUBSTITUTION[kind]
    t = flow.gauss_legendre(lambda s: h(r0 + s * s), s0, np.sqrt(np.asarray(r, dtype=float) - r0))
    return float(t) if np.ndim(r) == 0 else t


def verify_solution(kind: str, r_samples) -> dict:
    """Exactness report for a closed form along the flow equations.

    At each sample the r-derivative of the shape (central differences,
    step 1e-6 r) is converted to a t-derivative through dr/dt and
    compared with the flow field; the first integral is checked for
    constancy.  Mismatch is max |delta_i| / max(1, |V_i|) over samples.
    """
    r = np.asarray(r_samples, dtype=float)
    shapes = closed_form(kind, r)
    h = 1e-6 * r
    dr = (closed_form(kind, r + h) - closed_form(kind, r - h)) / (2.0 * h[:, None])
    v = flow.velocity(shapes)
    mismatch = np.abs(dr * dr_dt(kind, r)[:, None] - v) / np.maximum(1.0, np.abs(v))
    fvals = flow.first_integral(shapes)
    return {
        "kind": kind,
        "max_mismatch": float(np.max(mismatch)),
        "F_mean": float(np.mean(fvals)),
        "F_spread": float(np.max(fvals) - np.min(fvals)),
        "n_samples": int(len(r)),
    }
