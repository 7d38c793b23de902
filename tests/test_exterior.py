import itertools
import math

import numpy as np
import pytest
from sympy.combinatorics import Permutation

from g2cone import exterior, flow
from g2cone.exterior import (
    KForm,
    ShapeState,
    TorsionSolveError,
    basis_form,
    g2_form,
    hodge_star,
    residual_coefficients,
    solve_torsion_free_derivs,
    torsion_residual,
    torsion_system,
    wedge,
)
from g2cone.analysis import closed_form, dr_dt
from helpers import allclose, coframe_differentials, exterior_derivative, max_abs


def random_form(rng, degree, terms=4):
    idxs = list(itertools.combinations(range(1, 8), degree))
    take = rng.choice(len(idxs), size=min(terms, len(idxs)), replace=False)
    return KForm(degree, {idxs[i]: rng.normal() for i in take})


# -- wedge ------------------------------------------------------------------


def test_wedge_identity_ordering():
    assert wedge(basis_form(1), basis_form(2)).coeffs == {(1, 2): 1.0}


def test_wedge_transposition_sign():
    assert wedge(basis_form(2), basis_form(1)).coeffs == {(1, 2): -1.0}


def test_wedge_square_is_zero():
    assert wedge(basis_form(1), basis_form(1)).coeffs == {}


def test_wedge_above_top_degree_is_zero():
    five = KForm(5, {(1, 2, 3, 4, 5): 1.0})
    assert wedge(five, KForm(3, {(5, 6, 7): 1.0})).coeffs == {}


def test_wedge_bilinear_associative_anticommutative():
    rng = np.random.default_rng(11)
    for _ in range(25):
        da, db, dc = rng.integers(1, 3, size=3)
        a, b, c = (random_form(rng, d) for d in (da, db, dc))
        left = wedge(wedge(a, b), c)
        right = wedge(a, wedge(b, c))
        assert allclose(left, right, tol=1e-12)
        s = rng.normal()
        assert allclose(wedge(s * a, b), s * wedge(a, b), tol=1e-12)
        sign = (-1.0) ** (a.degree * b.degree)
        assert allclose(wedge(a, b), sign * wedge(b, a), tol=1e-12)


def test_kform_validation():
    with pytest.raises(ValueError):
        KForm(2, {(2, 1): 1.0})
    with pytest.raises(ValueError):
        KForm(2, {(1, 1): 1.0})
    with pytest.raises(ValueError):
        KForm(1, {(8,): 1.0})
    with pytest.raises(ValueError):
        KForm(8)


# -- hodge star --------------------------------------------------------------


def test_star_of_one_is_volume():
    one = KForm(0, {(): 1.0})
    assert hodge_star(one).coeffs == {tuple(range(1, 8)): 1.0}


def test_star_of_volume_is_one():
    vol = KForm(7, {tuple(range(1, 8)): 1.0})
    assert hodge_star(vol).coeffs == {(): 1.0}


def test_star_is_involution_every_degree():
    rng = np.random.default_rng(5)
    for degree in range(8):
        for _ in range(5):
            a = random_form(rng, degree)
            assert allclose(hodge_star(hodge_star(a)), a, tol=1e-14)


def test_star_psi_involution():
    psi = g2_form()
    assert allclose(hodge_star(hodge_star(psi)), psi, tol=0.0)


def test_psi_wedge_star_psi_is_seven_volumes():
    psi = g2_form()
    assert wedge(psi, hodge_star(psi)).coeffs == {tuple(range(1, 8)): 7.0}


# -- the defining 3-form ------------------------------------------------------


def test_g2_form_monomials_and_signs():
    # independent parity oracle for each written monomial e^{ijk}
    monomials = [(5, 6, 4), (5, 2, 7), (5, 1, 3), (6, 2, 1), (6, 3, 7), (4, 3, 2), (4, 1, 7)]
    expected = {}
    for tri in monomials:
        order = tuple(np.argsort(tri))
        expected[tuple(sorted(tri))] = float(Permutation(order).signature())
    psi = g2_form()
    assert psi.degree == 3
    assert set(psi.coeffs) == {(4, 5, 6), (2, 5, 7), (1, 3, 5), (1, 2, 6),
                               (3, 6, 7), (2, 3, 4), (1, 4, 7)}
    assert psi.coeffs == expected
    assert psi.coefficient((4, 5, 6)) == 1.0
    assert all(abs(v) == 1.0 for v in psi.coeffs.values())
    assert len(psi.coeffs) == 7


# -- structure equations -------------------------------------------------------


def _oracle_differentials(state, derivs):
    """Independent re-derivation of de^i by brute-force eta substitution.

    Every 1-form is a coefficient vector over (e^1..e^7); the wedge of
    two of them is assembled directly from antisymmetrized products.
    """
    a1, a2, b1, b2 = state
    da1, da2, db1, db2 = derivs
    A, B, dA, dB = [a1, a2, a2], [b1, b2, b2], [da1, da2, da2], [db1, db2, db2]

    def one_form(**comp):
        v = np.zeros(8)
        for k, val in comp.items():
            v[int(k[1])] = val
        return v

    def w2(u, v):
        out = {}
        for i in range(1, 8):
            for j in range(i + 1, 8):
                c = u[i] * v[j] - u[j] * v[i]
                if c != 0.0:
                    out[(i, j)] = out.get((i, j), 0.0) + c
        return out

    eta = [one_form(**{f"e{i + 1}": 0.5 / A[i], f"e{i + 4}": 0.5 / B[i]}) for i in range(3)]
    etat = [one_form(**{f"e{i + 1}": 0.5 / A[i], f"e{i + 4}": -0.5 / B[i]}) for i in range(3)]
    e7 = one_form(e7=1.0)
    diffs = []
    for i in range(3):  # de^(i+1) = dA e7^ei/A - 2A (eta_j^eta_k + etat_j^etat_k)
        j, k = (i + 1) % 3, (i + 2) % 3
        ei = one_form(**{f"e{i + 1}": 1.0})
        total = {}
        for key, val in w2(e7, ei).items():
            total[key] = total.get(key, 0.0) + dA[i] / A[i] * val
        for u, v in ((eta[j], eta[k]), (etat[j], etat[k])):
            for key, val in w2(u, v).items():
                total[key] = total.get(key, 0.0) - 2.0 * A[i] * val
        diffs.append(total)
    for i in range(3):  # de^(i+4) = dB e7^e(i+3)/B - 2B (eta_j^eta_k - etat_j^etat_k)
        j, k = (i + 1) % 3, (i + 2) % 3
        ei = one_form(**{f"e{i + 4}": 1.0})
        total = {}
        for key, val in w2(e7, ei).items():
            total[key] = total.get(key, 0.0) + dB[i] / B[i] * val
        for sign, (u, v) in ((1.0, (eta[j], eta[k])), (-1.0, (etat[j], etat[k]))):
            for key, val in w2(u, v).items():
                total[key] = total.get(key, 0.0) - 2.0 * B[i] * sign * val
        diffs.append(total)
    diffs.append({})
    return diffs


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_coframe_differentials_match_substitution_oracle(seed):
    rng = np.random.default_rng(seed)
    state = ShapeState(*rng.uniform(0.3, 3.0, size=4))
    derivs = rng.normal(size=4)
    got = coframe_differentials(state, derivs)
    expected = _oracle_differentials(state, derivs)
    for g, e in zip(got, expected):
        assert allclose(g, KForm(2, e), tol=1e-13)


def test_coframe_differentials_unit_state():
    # at the unit state with zero derivatives: de^1 = -(e^23 + e^56)
    state = ShapeState(1.0, 1.0, 1.0, 1.0)
    diffs = coframe_differentials(state, np.zeros(4))
    assert allclose(diffs[0], KForm(2, {(2, 3): -1.0, (5, 6): -1.0}), tol=0.0)
    assert diffs[6].coeffs == {}


def test_coframe_differentials_dt_part_linear_in_derivs():
    state = ShapeState(1.3, 0.8, 2.0, 0.7)
    d = np.array([0.4, -0.2, 1.1, 0.3])
    d2 = np.array([0.8, -0.4, 2.2, 0.6])
    one = coframe_differentials(state, d)
    two = coframe_differentials(state, d2)
    for f1, f2 in zip(one, two):
        for idx in set(f1.coeffs) | set(f2.coeffs):
            a, b = f1.coeffs.get(idx, 0.0), f2.coeffs.get(idx, 0.0)
            if 7 in idx:  # dt parts double with the derivatives
                assert abs(b - 2.0 * a) < 1e-13
            else:  # spatial parts are unchanged
                assert abs(b - a) < 1e-13


def test_coframe_differentials_reject_nonpositive():
    with pytest.raises(ValueError):
        coframe_differentials(ShapeState(1.0, 1.0, 0.0, 1.0), np.zeros(4))


# -- exterior derivative -------------------------------------------------------


def _diffs_at(r):
    return coframe_differentials(r, flow.velocity(r))


def test_exterior_derivative_of_constant_is_zero():
    diffs = _diffs_at(np.array([1.0, 1.0, 1.0, 1.0]))
    assert exterior_derivative(KForm(0, {(): 3.0}), diffs).coeffs == {}


def test_exterior_derivative_of_e7_is_zero():
    diffs = _diffs_at(np.array([1.2, 0.9, 1.4, 1.1]))
    assert exterior_derivative(basis_form(7), diffs).coeffs == {}


def test_d_squared_vanishes_along_flow():
    """d(de^i) = 0 when the derivatives are consistent with the flow.

    The t-dependent coefficients of de^i are differentiated by a
    directional complex step (exact to machine precision), the constant
    part by the Leibniz rule.
    """
    rng = np.random.default_rng(3)
    h = 1e-20
    for _ in range(5):
        r = rng.uniform(0.4, 2.5, size=4)
        v = flow.velocity(r)
        jv = np.array([flow.velocity(r + 1j * h * ej).imag / h for ej in np.eye(4)]).T
        accel = jv @ v
        base = coframe_differentials(r, v)
        bumped = coframe_differentials(r + 1j * h * v, v + 1j * h * accel)
        diffs = _diffs_at(r)
        for i in range(7):
            coeff_rate = {idx: val.imag / h for idx, val in bumped[i].coeffs.items()}
            dd = exterior_derivative(base[i], diffs)
            for idx, rate in coeff_rate.items():
                dd = dd + rate * wedge(basis_form(7), KForm(2, {idx: 1.0}))
            assert max_abs(dd) < 1e-12


# -- the closure engine: S . D against the KForm route ---------------------------


_IDX4 = list(itertools.combinations(range(1, 8), 4))
_IDX5 = list(itertools.combinations(range(1, 8), 5))
_IDX2 = list(itertools.combinations(range(1, 8), 2))


def _kform_coefficients(state, derivs, psi=None):
    """The 56 closure coefficients by sparse wedges (the reference route)."""
    psi = g2_form() if psi is None else psi
    diffs = coframe_differentials(state, derivs)
    dpsi = exterior_derivative(psi, diffs)
    dstar = exterior_derivative(hodge_star(psi), diffs)
    return np.array([dpsi.coefficient(i) for i in _IDX4] + [dstar.coefficient(i) for i in _IDX5])


def _flipped_psi():
    flipped = dict(g2_form().coeffs)
    flipped[(4, 5, 6)] = -flipped[(4, 5, 6)]
    return KForm(3, flipped)


def test_engine_matches_kform_route_on_random_shapes():
    rng = np.random.default_rng(29)
    shapes = rng.uniform(0.2, 5.0, size=(200, 4))
    derivs = rng.normal(size=(200, 4))
    expected = np.array([_kform_coefficients(r, d) for r, d in zip(shapes, derivs)])
    batched = residual_coefficients(shapes, derivs)
    assert batched.shape == (200, 56)
    assert np.max(np.abs(batched - expected)) <= 1e-13
    for r, d, e in zip(shapes[:20], derivs[:20], expected):
        single = residual_coefficients(r, d)
        assert np.max(np.abs(single - e)) <= 1e-13
    dpsi, dstar = torsion_residual(shapes, derivs)
    assert dpsi.shape == dstar.shape == (200,)
    assert np.allclose(dpsi, np.abs(expected[:, :35]).max(axis=1), rtol=1e-13, atol=0.0)
    assert np.allclose(dstar, np.abs(expected[:, 35:]).max(axis=1), rtol=1e-13, atol=0.0)


def test_structure_tensor_matches_exterior_derivative_probes():
    """S is 378 signs; probing d with one unit entry of D at a time gives the same."""
    tensor = exterior._structure_tensor(g2_form())
    assert tensor.shape == (56, 7, 21)
    assert np.count_nonzero(tensor) == 378
    assert set(np.unique(tensor)) == {-1.0, 0.0, 1.0}
    psi = g2_form()
    star = hodge_star(psi)
    for i in range(7):
        for col, pair in enumerate(_IDX2):
            diffs = [KForm(2, {pair: 1.0}) if j == i else KForm(2) for j in range(7)]
            dpsi, dstar = exterior_derivative(psi, diffs), exterior_derivative(star, diffs)
            probe = [dpsi.coefficient(k) for k in _IDX4] + [dstar.coefficient(k) for k in _IDX5]
            assert np.array_equal(tensor[:, i, col], probe)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_engine_differentials_match_substitution_oracle(seed):
    rng = np.random.default_rng(seed)
    shapes = rng.uniform(0.3, 3.0, size=(5, 4))
    derivs = rng.normal(size=(5, 4))
    got = exterior._differentials(shapes, derivs)
    assert got.shape == (5, 7, 21)
    for r, d, g in zip(shapes, derivs, got):
        oracle = _oracle_differentials(r, d)
        expected = np.array([[form.get(pair, 0.0) for pair in _IDX2] for form in oracle])
        assert np.max(np.abs(g - expected)) <= 1e-13


def test_engine_complex_step_matches_central_difference():
    rng = np.random.default_rng(31)
    r, d, v = rng.uniform(0.5, 2.5, size=4), rng.normal(size=4), rng.normal(size=4)
    h, eps = 1e-20, 1e-6
    probe = residual_coefficients(r + 1j * h * v, d)
    assert np.iscomplexobj(probe)
    step = probe.imag / h
    central = (residual_coefficients(r + eps * v, d) - residual_coefficients(r - eps * v, d))
    central /= 2 * eps
    assert np.max(np.abs(step)) > 1e-2
    assert np.max(np.abs(step - central)) <= 1e-7 * np.max(np.abs(step))
    assert np.allclose(probe.real, residual_coefficients(r, d), rtol=1e-15, atol=0.0)


def test_flipped_psi_has_its_own_tensor():
    state, derivs = ShapeState(1.0, 1.3, 0.8, 1.1), np.array([0.2, -0.1, 0.7, 0.4])
    before = residual_coefficients(state, derivs)
    bad = _flipped_psi()
    flipped = residual_coefficients(state, derivs, bad)
    assert not np.array_equal(exterior._tensor(bad), exterior._tensor(None))
    assert np.max(np.abs(flipped - before)) > 0.1
    assert np.max(np.abs(flipped - _kform_coefficients(state, derivs, bad))) <= 1e-13
    assert np.array_equal(residual_coefficients(state, derivs), before)
    assert np.array_equal(exterior._tensor(None), exterior._structure_tensor(g2_form()))


def test_engine_rejects_nonpositive_and_malformed_shapes():
    with pytest.raises(ValueError):
        torsion_residual(np.array([[1.0, 1.0, 1.0, 1.0], [1.0, -1.0, 1.0, 1.0]]), np.zeros(4))
    with pytest.raises(ValueError):
        solve_torsion_free_derivs(ShapeState(1.0, 1.0, 0.0, 1.0))
    with pytest.raises(ValueError):
        residual_coefficients(np.ones(3), np.zeros(3))


# -- torsion ---------------------------------------------------------------------


def test_torsion_residual_unit_state_flow_derivs():
    res = torsion_residual(ShapeState(1, 1, 1, 1), np.array([0.0, 0.0, 1.0, 1.0]))
    assert max(res) <= 1e-12


def test_torsion_residual_off_locus():
    res = torsion_residual(ShapeState(1, 1, 1, 1), np.zeros(4))
    assert max(res) > 0.1
    # the two halves of the coefficient vector are exactly d(Psi) and d(star Psi)
    state, derivs = ShapeState(1.0, 1.3, 0.8, 1.1), np.array([0.2, -0.1, 0.7, 0.4])
    diffs = coframe_differentials(state, derivs)
    psi = g2_form()
    expected = (max_abs(exterior_derivative(psi, diffs)),
                max_abs(exterior_derivative(hodge_star(psi), diffs)))
    assert expected[0] != expected[1]
    # the halves differ far beyond the rounding-level match asserted below
    assert abs(expected[0] - expected[1]) > 1e-3 * max(expected)
    got = torsion_residual(state, derivs)
    assert np.allclose(got, expected, rtol=1e-13, atol=0.0)


def test_torsion_residual_at_analytic_derivs_along_trajectory(family_shapes):
    traj = family_shapes[0.5]
    for i in range(0, len(traj), max(1, len(traj) // 40)):
        state = traj.shapes[i]
        assert max(torsion_residual(state, flow.velocity(state))) <= 1e-10


def test_solve_unit_state():
    d = solve_torsion_free_derivs(ShapeState(1, 1, 1, 1))
    assert np.max(np.abs(d - np.array([0.0, 0.0, 1.0, 1.0]))) <= 1e-10


def test_solve_matches_analytic_rhs_on_random_states():
    rng = np.random.default_rng(17)
    for _ in range(100):
        state = ShapeState(*rng.uniform(0.2, 5.0, size=4))
        solved = solve_torsion_free_derivs(state)
        analytic = flow.velocity(state)
        rel = np.max(np.abs(solved - analytic) / np.maximum(1.0, np.abs(analytic)))
        assert rel <= 1e-9
        # a ShapeState is its (4,) array: bit-identical results either way
        r = np.asarray(state)
        assert np.array_equal(solve_torsion_free_derivs(r), solved)
        assert torsion_residual(r, analytic) == torsion_residual(state, analytic)


def test_solve_matches_bs_chain_rule():
    r = 2.0
    h = 1e-7
    drdr = (closed_form("bs", r + h) - closed_form("bs", r - h)) / (2 * h)
    expected = drdr * dr_dt("bs", r)
    got = solve_torsion_free_derivs(closed_form("bs", r))
    assert np.max(np.abs(got - expected)) <= 1e-8


def test_residuals_affine_and_rank_four():
    rng = np.random.default_rng(23)
    for _ in range(10):
        state = ShapeState(*rng.uniform(0.2, 5.0, size=4))
        m, c = torsion_system(state)
        # affinity: a random deriv reproduces M d + c
        d = rng.normal(size=4)
        vec = residual_coefficients(state, d)
        assert np.max(np.abs(m @ d + c - vec)) < 1e-10
        sv = np.linalg.svd(m, compute_uv=False)
        assert np.sum(sv > 1e-10 * sv[0]) == 4


def test_flipped_sign_is_caught():
    """Negative control: one wrong sign in the 3-form must not go unnoticed.

    The corrupted closure system stays pointwise solvable but produces a
    different vector field, so the equivalence check (solve == analytic
    rhs) flags it; the analytic derivatives also leave a large residual.
    """
    bad_psi = _flipped_psi()
    state = ShapeState(1.0, 1.3, 0.8, 1.1)
    try:
        solved = solve_torsion_free_derivs(state, bad_psi)
        mismatch = np.max(np.abs(solved - flow.velocity(state)))
        assert mismatch > 0.1
    except TorsionSolveError:
        pass
    assert max(torsion_residual(state, flow.velocity(state), bad_psi)) > 0.1


def test_acceptance_style_equivalence_is_fast():
    import time

    rng = np.random.default_rng(0)
    start = time.monotonic()
    for _ in range(50):
        state = ShapeState(*rng.uniform(0.2, 5.0, size=4))
        solve_torsion_free_derivs(state)
    assert time.monotonic() - start < 2.5  # 200 states fit in the 5 s budget
