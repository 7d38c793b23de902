"""Closure conditions of the G2 structure on the invariant orthonormal coframe e^1..e^7.

The coframe is adapted to the squashed product of two 3-spheres:

    e^i     = A_i (eta_i + eta~_i)      i = 1, 2, 3
    e^(i+3) = B_i (eta_i - eta~_i)
    e^7     = dt

with the Maurer-Cartan relations d eta_i = -2 eta_{i+1} ^ eta_{i+2}
(indices mod 3) on each factor.  Everything here works with the
symmetric slice A2 = A3, B2 = B3, so a metric shape is the quadruple
(A1, A2, B1, B2).

A form is a map from strictly increasing index tuples over {1..7} to
coefficients.  The defining 3-form Psi of the G2 structure is the
read-only map PSI, seven signs +-1.0 taken from its literal monomials by
permutation parity; its Hodge dual STAR_PSI is the complement map
I -> I^c with sign(I, I^c).  The module evaluates the closure conditions
d Psi = 0, d star Psi = 0 at a (shape, shape-derivative) point.  d is
linear in the structure 2-forms de^1..de^7, so the 56 closure
coefficients are one contraction S[56, 7, 21] . D[7, 21]: S holds the
Leibniz-rule signs, built once per 3-form from Psi and star Psi, and D
the e-basis coefficients of the de^i, taken from the structure equations
in numpy (batched over states, complex input allowed).  From the closure
conditions alone it re-derives the torsion-free shape derivatives --
independently of the flow module's analytic right-hand side, which it
serves as an oracle for.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Mapping
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

__all__ = ["ShapeState", "TorsionSolveError", "PSI", "STAR_PSI", "torsion_residual",
           "residual_coefficients", "torsion_system", "solve_torsion_free_derivs"]

DIM = 7


class ShapeState(NamedTuple):
    """Metric coefficients (A1, A2, B1, B2) at one value of the cone parameter:
    a tuple, so np.asarray(state) is the (4,) array every function here takes."""

    A1: float
    A2: float
    B1: float
    B2: float


class TorsionSolveError(RuntimeError):
    """The closure conditions could not be satisfied at the given state."""


def _parity(idx: tuple) -> int:
    """Sign of the permutation that sorts idx, (-1)^inversions; 0 when an index repeats."""
    if len(set(idx)) < len(idx):
        return 0
    return (-1) ** sum(a > b for a, b in itertools.combinations(idx, 2))


_FULL = tuple(range(1, DIM + 1))

# The defining 3-form, kept in the literal e^{564} + e^{527} + ... shape;
# sorting each monomial's indices supplies its permutation sign.
_PSI_MONOMIALS = ((5, 6, 4), (5, 2, 7), (5, 1, 3), (6, 2, 1), (6, 3, 7), (4, 3, 2), (4, 1, 7))


def _star(form: Mapping) -> dict:
    """Hodge star for the orthonormal coframe, orientation e^{1234567}:
    e^I -> sign(I, I^c) e^{I^c}."""
    out = {}
    for idx, val in form.items():
        comp = tuple(j for j in _FULL if j not in idx)
        out[comp] = _parity(idx + comp) * val
    return out


PSI = MappingProxyType({tuple(sorted(m)): float(_parity(m)) for m in _PSI_MONOMIALS})
STAR_PSI = MappingProxyType(_star(PSI))


# -- the closure engine: S[56, 7, 21] . D[..., 7, 21] -------------------------

_IDX2, _IDX4, _IDX5 = (list(itertools.combinations(range(1, DIM + 1), k)) for k in (2, 4, 5))
_ROWS = {idx: n for n, idx in enumerate(_IDX4 + _IDX5)}  # d Psi rows, then d star Psi
_N4 = len(_IDX4)
# the shape coefficient R of each moving coframe direction e^1..e^6: e^i = R_i (...)
_COORD = np.array([0, 1, 1, 2, 3, 3])
_GATHER = np.eye(4)[_COORD]  # (6, 4): direction -> the derivative it carries


def _slot(i: int, j: int) -> tuple:
    """(column of D, sign) of the 2-form e^i ^ e^j."""
    return (_IDX2.index((i, j)), 1.0) if i < j else (_IDX2.index((j, i)), -1.0)


def _d_entries() -> tuple:
    """The eighteen non-zero entries of D, as index arrays.

    With d eta_i = -2 eta_{i+1} ^ eta_{i+2} and the inversion
    eta_i = (e^i/A_i + e^{i+3}/B_i)/2, eta~_i = (e^i/A_i - e^{i+3}/B_i)/2,
    de^(r+1) has the spatial entries -R_r / (R_u R_v) e^(u+1) ^ e^(v+1) and
    the dt entry (dR_r / R_r) e^7 ^ e^(r+1), with R_r the coefficient of e^(r+1).
    Returns (row, column, sign, u, v) and (row, column, sign).
    """
    spatial = []
    for i in range(3):
        j, k = (i + 1) % 3, (i + 2) % 3
        for row, u, v in ((i, j, k), (i, j + 3, k + 3), (i + 3, j, k + 3), (i + 3, j + 3, k)):
            col, sign = _slot(u + 1, v + 1)
            spatial.append((row, col, -sign, u, v))
    dt = [(row, *_slot(7, row + 1)) for row in range(6)]
    return tuple(np.array(t) for t in zip(*spatial)), tuple(np.array(t) for t in zip(*dt))


_SPATIAL, _DT = _d_entries()


def _shapes(state) -> np.ndarray:
    """The (..., 4) array of shapes; rejects non-positive shapes."""
    r = np.asarray(state)
    if r.shape[-1:] != (4,):
        raise ValueError(f"a shape state has 4 components, got shape {r.shape}")
    if not np.all(np.real(r) > 0):
        raise ValueError(f"shape state must be strictly positive, got {state}")
    return r


def _differentials(r, dr) -> np.ndarray:
    """D[..., 7, 21]: e-basis coefficients of de^1..de^7 (de^7 = 0)."""
    dr = np.asarray(dr)
    coord = r[..., _COORD]
    lead = np.broadcast_shapes(r.shape[:-1], dr.shape[:-1])
    out = np.zeros(lead + (DIM, len(_IDX2)), dtype=np.result_type(r, dr, float))
    row, col, sign, u, v = _SPATIAL
    out[..., row, col] = sign * coord[..., row] / (coord[..., u] * coord[..., v])
    row, col, sign = _DT
    out[..., row, col] = sign * dr[..., _COORD] / coord
    return out


def _structure_tensor(psi: Mapping) -> np.ndarray:
    """S[56, 7, 21] from Psi and star Psi by the Leibniz rule.

    d e^I = sum_pos (-1)^pos e^{i1} ^ .. de^{i_pos} .. ^ e^{ik}, and 2-forms
    commute with everything, so the e^p entry of de^{i_pos} contributes
    (-1)^pos e^p ^ e^{I minus i_pos}.  Valid because the coefficients of
    Psi and star Psi do not depend on t.
    """
    tensor = np.zeros((len(_ROWS), DIM, len(_IDX2)))
    for form in (psi, _star(psi)):
        for idx, val in form.items():
            for pos, i in enumerate(idx):
                rest = idx[:pos] + idx[pos + 1:]
                for col, pair in enumerate(_IDX2):
                    sign = _parity(pair + rest)
                    if sign:
                        row = _ROWS[tuple(sorted(pair + rest))]
                        tensor[row, i - 1, col] += (-1) ** pos * sign * val
    return tensor


_TENSORS: dict = {}


def _tensor(psi: Mapping | None) -> np.ndarray:
    """S for psi (default: PSI), checked and built once per distinct 3-form."""
    key = None if psi is None else tuple(sorted(psi.items()))
    if key not in _TENSORS:
        for idx, val in key or ():
            if not (isinstance(idx, tuple) and len(idx) == 3
                    and 1 <= idx[0] < idx[1] < idx[2] <= DIM and math.isfinite(val)):
                raise ValueError(f"a 3-form term is an increasing triple over 1..{DIM} "
                                 f"with a finite coefficient, got {idx!r}: {val!r}")
        tensor = _structure_tensor(PSI if psi is None else psi)
        tensor.flags.writeable = False  # shared by every later call
        _TENSORS[key] = tensor
    return _TENSORS[key]


def residual_coefficients(state, derivs, psi: Mapping | None = None) -> np.ndarray:
    """All 56 closure coefficients (35 of dPsi, 21 of d star Psi), S . D.

    state and derivs are (..., 4) arrays (a ShapeState is one); leading
    axes broadcast, giving (..., 56).
    """
    d = _differentials(_shapes(state), derivs)
    return d.reshape(d.shape[:-2] + (-1,)) @ _tensor(psi).reshape(len(_ROWS), -1).T


def torsion_residual(state, derivs, psi: Mapping | None = None) -> tuple:
    """Largest coefficients of d(Psi) and d(star Psi) at the given point.

    Both vanish exactly when (state, derivs) sits on the torsion-free
    locus of the G2 structure.  A non-default psi, a map like PSI (e.g.
    dict(PSI) with one sign flipped, as a negative control), can be
    supplied; a term that is not an increasing triple over 1..7 with a
    finite coefficient raises ValueError.  A single state gives a pair
    of floats, arrays (..., 4) a pair of arrays over the leading axes.
    """
    vec = np.abs(residual_coefficients(state, derivs, psi))
    dpsi, dstar = vec[..., :_N4].max(axis=-1), vec[..., _N4:].max(axis=-1)
    return (float(dpsi), float(dstar)) if dpsi.ndim == 0 else (dpsi, dstar)


def torsion_system(state, psi: Mapping | None = None):
    """Affine system M d + c = residuals over the shape derivatives d.

    The closure coefficients are affine in the four derivatives because
    only the dt entries of D involve them, linearly: M is the dt slots
    of S scaled by those entries' 1/R, summed per derivative.
    """
    r = _shapes(state)
    row, col, sign = _DT
    m = (_tensor(psi)[:, row, col] * (sign / r[..., _COORD])[..., None, :]) @ _GATHER
    return m, residual_coefficients(r, np.zeros_like(r), psi)


def solve_torsion_free_derivs(state, psi: Mapping | None = None) -> np.ndarray:
    """Shape derivatives (4,) annihilating both closure conditions, by least squares.

    This is the exterior-calculus route to the torsion-free flow: it
    never looks at the analytic right-hand side, so agreement with it is
    a genuine equivalence check.  Raises TorsionSolveError when the
    affine system cannot be driven below 1e-8 (degenerate state).
    """
    m, c = torsion_system(state, psi)
    sol, *_ = np.linalg.lstsq(m, -c, rcond=None)
    res = float(np.max(np.abs(m @ sol + c)))
    if res > 1e-8:
        raise TorsionSolveError(f"closure residual {res:.3e} at {state}")
    return sol
