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
coefficients are S . D: the Leibniz-rule signs S from Psi and star Psi
against the e-basis coefficients D of the de^i.  S is built once per
3-form, at D's eighteen non-zero slots only, and the coefficients are
c(R) + K (dR/R) with the constant 56 x 4 matrix K (numpy, batched over
states, complex input allowed); the four slots that are exactly +-1/A1
go apart, so the wall A1 = 0 costs no accuracy.  From the closure
conditions alone it re-derives the torsion-free shape derivatives,
dR = R (-K^+ c) -- independently of the flow module's analytic
right-hand side, which it serves as an oracle for.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Mapping
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

__all__ = ["ShapeState", "TorsionSolveError", "PSI", "STAR_PSI", "torsion_residual",
           "residual_coefficients", "solve_torsion_free_derivs"]

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


# -- the closure engine: S . D at D's eighteen non-zero slots -----------------

_IDX4, _IDX5 = (list(itertools.combinations(range(1, DIM + 1), k)) for k in (4, 5))
_ROWS = {idx: n for n, idx in enumerate(_IDX4 + _IDX5)}  # d Psi rows, then d star Psi
_N4 = len(_IDX4)
# the shape coefficient R of each moving coframe direction e^1..e^6: e^i = R_i (...)
_COORD = (0, 1, 1, 2, 3, 3)


def _d_entries() -> tuple:
    """The eighteen non-zero entries of D, the e-basis coefficients of de^1..de^7.

    With d eta_i = -2 eta_{i+1} ^ eta_{i+2} and the inversion
    eta_i = (e^i/A_i + e^{i+3}/B_i)/2, eta~_i = (e^i/A_i - e^{i+3}/B_i)/2,
    de^(r+1) has the spatial entries -R_r / (R_u R_v) e^(u+1) ^ e^(v+1) and
    the dt entry (dR_r / R_r) e^7 ^ e^(r+1), with R_r the coefficient of e^(r+1).
    Returns, per de^i, its entries ((p, q), sign, term), each sign * term e^p ^ e^q,
    and the shape indices (num, den_u, den_v) of the generic quotients.  Term
    n < 8 is the n-th generic quotient, term 8 is 1/A1 and term 9 + k is dR_k / R_k.
    """
    entries, quotients = [[] for _ in range(DIM)], []
    for i in range(3):
        j, k = (i + 1) % 3, (i + 2) % 3
        for row, u, v in ((i, j, k), (i, j + 3, k + 3), (i + 3, j, k + 3), (i + 3, j + 3, k)):
            quotient = (_COORD[row], _COORD[u], _COORD[v])
            term = 8 if quotient[0] in quotient[1:] else len(quotients)  # 8: R_r / (R_r A1)
            if term < 8:
                quotients.append(quotient)
            entries[row].append(((u + 1, v + 1), -1, term))
    for row in range(6):
        entries[row].append(((7, row + 1), 1, 9 + _COORD[row]))
    return tuple(map(tuple, entries)), tuple(np.array(t) for t in zip(*quotients))


_D, _TERMS = _d_entries()
# Four spatial entries, in de^2, de^3, de^5 and de^6, are R_r / (R_r A1), that
# is +-1/A1 exactly.  They cancel within every closure coefficient of PSI; summed
# among the other entries they would round at the 1/A1 scale near the wall
# A1 = 0, so they are contracted apart as sign / A1.


def _shapes(state) -> np.ndarray:
    """The (..., 4) array of shapes; rejects non-finite and non-positive shapes."""
    r = np.asarray(state)
    if r.shape[-1:] != (4,):
        raise ValueError(f"a shape state has 4 components, got shape {r.shape}")
    if not np.all(np.isfinite(r)):
        raise ValueError(f"shape state must be finite, got {state}")
    if not np.all(np.real(r) > 0):
        raise ValueError(f"shape state must be strictly positive, got {state}")
    return r


_TENSORS: dict = {}


def _tensor(psi: Mapping | None) -> list:
    """S for psi (default: PSI) at D's non-zero slots, checked and built once per 3-form.

    d e^I = sum_pos (-1)^pos e^{i1} ^ .. de^{i_pos} .. ^ e^{ik}, and 2-forms
    commute with everything, so the entry sign * term e^p ^ e^q of de^{i_pos}
    adds (-1)^pos sign * term e^p ^ e^q ^ e^{I minus i_pos}; valid because the
    coefficients of Psi and star Psi do not depend on t.  Returns
    [spatial, exact, K^T, K^+]: the coefficients of the eight generic
    quotients (8, 56), of 1/A1 (56,), and K (56, 4) of the four dR/R.
    K^+ is None until the first solve: LAPACK and level-3 BLAS add about
    0.7 MB on first use, which residual-only callers do not pay.
    """
    key = None if psi is None else tuple(sorted(psi.items()))
    if key not in _TENSORS:
        for idx, val in key or ():
            if not (isinstance(idx, tuple) and len(idx) == 3
                    and 1 <= idx[0] < idx[1] < idx[2] <= DIM and math.isfinite(val)):
                raise ValueError(f"a 3-form term is an increasing triple over 1..{DIM} "
                                 f"with a finite coefficient, got {idx!r}: {val!r}")
        psi = PSI if psi is None else psi
        ops = np.zeros((13, len(_ROWS)))
        for form in (psi, _star(psi)):
            for idx, val in form.items():
                for pos, i in enumerate(idx):
                    rest = idx[:pos] + idx[pos + 1:]
                    for pair, sign, term in _D[i - 1]:
                        parity = _parity(pair + rest)
                        if parity:
                            row = _ROWS[tuple(sorted(pair + rest))]
                            ops[term, row] += (-1) ** pos * parity * sign * val
        ops.flags.writeable = False  # shared by every later call
        _TENSORS[key] = [ops[:8], ops[8], ops[9:], None]
    return _TENSORS[key]


def residual_coefficients(state, derivs, psi: Mapping | None = None) -> np.ndarray:
    """All 56 closure coefficients (35 of dPsi, 21 of d star Psi), S . D.

    Only D's eighteen non-zero slots enter: the coefficients are
    c(R) + K (dR/R), with c the spatial slots' part and K the dt slots'.
    state and derivs are (..., 4) arrays (a ShapeState is one); leading
    axes broadcast, giving (..., 56).
    """
    r = _shapes(state)
    spatial, exact, k, _ = _tensor(psi)
    num, den_u, den_v = _TERMS
    return ((r[..., num] / (r[..., den_u] * r[..., den_v])) @ spatial + exact / r[..., :1]
            + (np.asarray(derivs) / r) @ k)


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


def solve_torsion_free_derivs(state, psi: Mapping | None = None) -> np.ndarray:
    """Shape derivatives (..., 4) annihilating both closure conditions, by least squares.

    The coefficients c(R) + K (dR/R) vanish in the least-squares sense at
    dR = R (-K^+ c), with K^+ cached per 3-form, so a batch of states is
    one product.  This is the exterior-calculus route to the
    torsion-free flow: it never looks at the analytic right-hand side,
    so agreement with it is a genuine equivalence check.  Where the
    system cannot be driven below 1e-8 (degenerate state), a single
    state raises TorsionSolveError and a state in a batch gives a NaN row.
    """
    r = _shapes(state)
    parts = _tensor(psi)
    if parts[3] is None:
        kt = parts[2]
        try:  # K^T K is a small integer matrix, so this gives K^+ to rounding
            parts[3] = np.linalg.solve(kt @ kt.T, kt)
        except np.linalg.LinAlgError:  # a 3-form whose closure leaves a derivative free
            parts[3] = np.linalg.pinv(kt.T)
        parts[3].flags.writeable = False
    c = residual_coefficients(r, np.zeros_like(r), psi)
    y = -c @ parts[3].T  # dR/R
    res = np.max(np.abs(y @ parts[2] + c), axis=-1)
    failed = ~(res <= 1e-8)
    if r.ndim == 1 and failed:
        raise TorsionSolveError(f"closure residual {res:.3e} at {state}")
    return np.where(failed[..., None], np.nan, r * y)
