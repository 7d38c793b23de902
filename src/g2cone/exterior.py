"""Exterior algebra over the invariant orthonormal coframe e^1..e^7.

The coframe is adapted to the squashed product of two 3-spheres:

    e^i     = A_i (eta_i + eta~_i)      i = 1, 2, 3
    e^(i+3) = B_i (eta_i - eta~_i)
    e^7     = dt

with the Maurer-Cartan relations d eta_i = -2 eta_{i+1} ^ eta_{i+2}
(indices mod 3) on each factor.  Everything here works with the
symmetric slice A2 = A3, B2 = B3, so a metric shape is the quadruple
(A1, A2, B1, B2).

Forms are stored sparsely: a degree-k form is a map from strictly
increasing k-tuples over {1..7} to coefficients.  This module builds
the defining 3-form of the G2 structure, its Hodge dual, evaluates
their exterior derivatives at a (shape, shape-derivative) point, and
re-derives the torsion-free shape derivatives directly from the
closure conditions -- independently of the flow module's analytic
right-hand side, which it serves as an oracle for.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

__all__ = [
    "KForm",
    "ShapeState",
    "DerivVector",
    "TorsionSolveError",
    "basis_form",
    "wedge",
    "hodge_star",
    "g2_form",
    "coframe_differentials",
    "exterior_derivative",
    "torsion_residual",
    "residual_coefficients",
    "torsion_system",
    "solve_torsion_free_derivs",
]

DIM = 7


@dataclass(frozen=True)
class ShapeState:
    """Metric coefficients (A1, A2, B1, B2) at one value of the cone parameter."""

    A1: float
    A2: float
    B1: float
    B2: float

    def as_array(self) -> np.ndarray:
        return np.asarray([self.A1, self.A2, self.B1, self.B2])

    @staticmethod
    def from_array(r) -> "ShapeState":
        # complex entries pass through untouched (derivative probes)
        vals = [v if isinstance(v, complex) else float(v) for v in r]
        return ShapeState(*vals)


@dataclass(frozen=True)
class DerivVector:
    """Derivatives (dA1, dA2, dB1, dB2) with respect to the cone parameter t."""

    dA1: float
    dA2: float
    dB1: float
    dB2: float

    def as_array(self) -> np.ndarray:
        return np.asarray([self.dA1, self.dA2, self.dB1, self.dB2])

    @staticmethod
    def from_array(d) -> "DerivVector":
        vals = [v if isinstance(v, complex) else float(v) for v in d]
        return DerivVector(*vals)


class TorsionSolveError(RuntimeError):
    """The closure conditions could not be satisfied at the given state."""


class KForm:
    """Sparse exterior form of fixed degree on the 7-dimensional coframe.

    Coefficients are stored in a dict keyed by strictly increasing index
    tuples; absent keys mean zero.  Values may be any scalar supporting
    arithmetic (floats in normal use, complex in derivative probes).
    """

    __slots__ = ("degree", "coeffs")

    def __init__(self, degree: int, coeffs: dict | None = None):
        if not 0 <= degree <= DIM:
            raise ValueError(f"degree must lie in 0..{DIM}, got {degree}")
        self.degree = degree
        self.coeffs = {}
        if coeffs:
            for idx, val in coeffs.items():
                idx = tuple(idx)
                if len(idx) != degree:
                    raise ValueError(f"index {idx} has length != degree {degree}")
                if any(idx[i] >= idx[i + 1] for i in range(len(idx) - 1)):
                    raise ValueError(f"index {idx} is not strictly increasing")
                if not all(1 <= j <= DIM for j in idx):
                    raise ValueError(f"index {idx} out of range 1..{DIM}")
                if val != 0:
                    self.coeffs[idx] = self.coeffs.get(idx, 0) + val

    # -- basic algebra -------------------------------------------------

    def __add__(self, other: "KForm") -> "KForm":
        if self.degree != other.degree:
            raise ValueError("cannot add forms of different degree")
        out = dict(self.coeffs)
        for idx, val in other.coeffs.items():
            out[idx] = out.get(idx, 0) + val
        return KForm(self.degree, out)

    def __sub__(self, other: "KForm") -> "KForm":
        return self + (-1) * other

    def __rmul__(self, scalar) -> "KForm":
        return KForm(self.degree, {i: scalar * v for i, v in self.coeffs.items()})

    def __mul__(self, scalar) -> "KForm":
        return self.__rmul__(scalar)

    def __neg__(self) -> "KForm":
        return (-1) * self

    def coefficient(self, idx) -> float:
        return self.coeffs.get(tuple(sorted(idx)), 0.0)

    def max_abs(self) -> float:
        return max((abs(v) for v in self.coeffs.values()), default=0.0)

    def allclose(self, other: "KForm", tol: float = 1e-12) -> bool:
        if self.degree != other.degree:
            return False
        keys = set(self.coeffs) | set(other.coeffs)
        return all(abs(self.coeffs.get(k, 0) - other.coeffs.get(k, 0)) <= tol for k in keys)

    def __repr__(self) -> str:
        terms = ", ".join(f"e{''.join(map(str, i))}: {v:g}" for i, v in sorted(self.coeffs.items()))
        return f"KForm(deg={self.degree}, {{{terms}}})"


def basis_form(*indices: int) -> KForm:
    """e^{i1...ik} for strictly increasing indices, as a unit-coefficient form."""
    return KForm(len(indices), {tuple(indices): 1.0})


def zero_form(degree: int) -> KForm:
    return KForm(degree)


def _merge_sign(left: tuple, right: tuple):
    """Sort the concatenation of two increasing tuples, with permutation sign.

    Returns (sorted tuple, sign) or (None, 0) when an index repeats.
    """
    if set(left) & set(right):
        return None, 0
    # number of transpositions = inversions between the two sorted blocks
    inversions = 0
    for j in right:
        inversions += sum(1 for i in left if i > j)
    merged = tuple(sorted(left + right))
    return merged, -1 if inversions % 2 else 1


def wedge(a: KForm, b: KForm) -> KForm:
    """Graded-anticommutative product; zero form when degrees exceed 7."""
    deg = a.degree + b.degree
    if deg > DIM:
        return zero_form(DIM)  # only the zero form exists above top degree
    out: dict = {}
    for ia, va in a.coeffs.items():
        for ib, vb in b.coeffs.items():
            idx, sign = _merge_sign(ia, ib)
            if idx is None:
                continue
            out[idx] = out.get(idx, 0) + sign * va * vb
    return KForm(deg, out)


_FULL = tuple(range(1, DIM + 1))


def hodge_star(a: KForm) -> KForm:
    """Hodge star for the orthonormal coframe, orientation e^{1234567}.

    star(e^I) = sign(I, I^c) e^{I^c}; in dimension 7 the star is an
    involution on every degree.
    """
    out: dict = {}
    for idx, val in a.coeffs.items():
        comp = tuple(j for j in _FULL if j not in idx)
        _, sign = _merge_sign(idx, comp)
        out[comp] = out.get(comp, 0) + sign * val
    return KForm(DIM - a.degree, out)


# The defining 3-form, kept in the literal e^{564} + e^{527} + ... shape;
# normalisation to sorted index tuples supplies the permutation signs.
_PSI_MONOMIALS = ((5, 6, 4), (5, 2, 7), (5, 1, 3), (6, 2, 1), (6, 3, 7), (4, 3, 2), (4, 1, 7))


def g2_form() -> KForm:
    """The invariant 3-form defining the G2 structure (7 unit monomials)."""
    out = zero_form(3)
    for (i, j, k) in _PSI_MONOMIALS:
        out = out + wedge(wedge(basis_form(i), basis_form(j)), basis_form(k))
    return out


def _check_positive(state: ShapeState) -> None:
    if not (state.A1 > 0 and state.A2 > 0 and state.B1 > 0 and state.B2 > 0):
        raise ValueError(f"shape state must be strictly positive, got {state}")


def coframe_differentials(state: ShapeState, derivs: DerivVector) -> list:
    """Structure equations: the seven 2-forms de^1 .. de^7 in the e-basis.

    Uses d eta_i = -2 eta_{i+1} ^ eta_{i+2} together with the inversion
    eta_i = (e^i/A_i + e^{i+3}/B_i)/2, eta~_i = (e^i/A_i - e^{i+3}/B_i)/2
    (indices mod 3, A3 = A2, B3 = B2); the dt parts carry the supplied
    derivatives, e.g. de^1 contains (dA1/A1) e^7 ^ e^1.
    """
    _check_positive(state)
    A = (state.A1, state.A2, state.A2)
    B = (state.B1, state.B2, state.B2)
    dA = (derivs.dA1, derivs.dA2, derivs.dA2)
    dB = (derivs.dB1, derivs.dB2, derivs.dB2)
    e7 = basis_form(7)
    diffs = []
    for i in range(3):
        j, k = (i + 1) % 3, (i + 2) % 3
        d = (dA[i] / A[i]) * wedge(e7, basis_form(i + 1))
        d = d - A[i] * (
            (1.0 / (A[j] * A[k])) * wedge(basis_form(j + 1), basis_form(k + 1))
            + (1.0 / (B[j] * B[k])) * wedge(basis_form(j + 4), basis_form(k + 4))
        )
        diffs.append(d)
    for i in range(3):
        j, k = (i + 1) % 3, (i + 2) % 3
        d = (dB[i] / B[i]) * wedge(e7, basis_form(i + 4))
        d = d - B[i] * (
            (1.0 / (A[j] * B[k])) * wedge(basis_form(j + 1), basis_form(k + 4))
            + (1.0 / (B[j] * A[k])) * wedge(basis_form(j + 4), basis_form(k + 1))
        )
        diffs.append(d)
    diffs.append(zero_form(2))  # de^7 = d(dt) = 0
    return diffs


def exterior_derivative(form: KForm, diffs: list) -> KForm:
    """Leibniz extension of d to a form with constant e-basis coefficients.

    d(e^{i1..ik}) = sum_j (-1)^(j-1) e^{i1} ^ ... ^ de^{ij} ^ ... ^ e^{ik}.
    Valid for forms whose coefficients do not depend on t (true for the
    G2 3-form and its dual); coefficient derivatives are not included.
    """
    out = zero_form(form.degree + 1)
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


_CACHED_PAIR = None


def _psi_pair(psi: KForm | None = None) -> tuple:
    """(Psi, star Psi); the default pair is cached, operations never mutate it."""
    global _CACHED_PAIR
    if psi is not None:
        return psi, hodge_star(psi)
    if _CACHED_PAIR is None:
        p = g2_form()
        _CACHED_PAIR = (p, hodge_star(p))
    return _CACHED_PAIR


_IDX4 = list(itertools.combinations(range(1, DIM + 1), 4))
_IDX5 = list(itertools.combinations(range(1, DIM + 1), 5))


def residual_coefficients(state: ShapeState, derivs: DerivVector,
                          psi: KForm | None = None) -> np.ndarray:
    """All 56 closure coefficients (35 of dPsi, 21 of d star Psi) as a vector."""
    diffs = coframe_differentials(state, derivs)
    p, star = _psi_pair(psi)
    dpsi = exterior_derivative(p, diffs)
    dstar = exterior_derivative(star, diffs)
    vec = [dpsi.coeffs.get(i, 0.0) for i in _IDX4]
    vec += [dstar.coeffs.get(i, 0.0) for i in _IDX5]
    return np.array(vec)


def torsion_residual(state: ShapeState, derivs: DerivVector, psi: KForm | None = None) -> tuple:
    """Largest coefficients of d(Psi) and d(star Psi) at the given point.

    Both vanish exactly when (state, derivs) sits on the torsion-free
    locus of the G2 structure.  A non-default psi (e.g. with a flipped
    sign, as a negative control) can be supplied.
    """
    _check_positive(state)
    vec = np.abs(residual_coefficients(state, derivs, psi))
    return float(np.max(vec[:len(_IDX4)])), float(np.max(vec[len(_IDX4):]))


def torsion_system(state: ShapeState, psi: KForm | None = None):
    """Affine system M d + c = residuals over the shape derivatives d.

    The closure coefficients are affine in the four derivatives because
    only the dt parts of the structure equations involve them, linearly.
    """
    zero = DerivVector(0.0, 0.0, 0.0, 0.0)
    c = residual_coefficients(state, zero, psi)
    cols = []
    for k in range(4):
        probe = [0.0] * 4
        probe[k] = 1.0
        cols.append(residual_coefficients(state, DerivVector(*probe), psi) - c)
    return np.column_stack(cols), c


def solve_torsion_free_derivs(state: ShapeState, psi: KForm | None = None) -> DerivVector:
    """Shape derivatives annihilating both closure conditions, by least squares.

    This is the exterior-calculus route to the torsion-free flow: it
    never looks at the analytic right-hand side, so agreement with it is
    a genuine equivalence check.  Raises TorsionSolveError when the
    affine system cannot be driven below 1e-8 (degenerate state).
    """
    _check_positive(state)
    m, c = torsion_system(state, psi)
    sol, *_ = np.linalg.lstsq(m, -c, rcond=None)
    res = float(np.max(np.abs(m @ sol + c)))
    if res > 1e-8:
        raise TorsionSolveError(f"closure residual {res:.3e} at {state}")
    return DerivVector.from_array(sol)
