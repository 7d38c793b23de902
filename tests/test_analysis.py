import math

import numpy as np
import pytest

from g2cone import analysis, flow
from g2cone.analysis import (
    CHART_EIGENVALUES,
    R_TO_T_MAX,
    EigenResidualError,
    chart_eigendata,
    closed_form,
    dr_dt,
    eig_small,
    linearize,
    r_to_t,
    stationary_points,
    tangent_basis,
    verify_solution,
)
from scipy.integrate import quad

SQ2 = math.sqrt(2.0)
SQ3 = math.sqrt(3.0)


# -- stationary directions -----------------------------------------------------


def test_stationary_points_catalog():
    reports = stationary_points()
    names = {r.name: r for r in reports}
    assert set(names) == {"S1", "Sinf"}
    assert np.allclose(names["S1"].point,
                       np.array([1, 1, SQ3, SQ3]) / (2 * SQ2), atol=1e-16)
    assert np.allclose(names["Sinf"].point,
                       [0.0, SQ3 / math.sqrt(10), math.sqrt(2 / 5), SQ3 / math.sqrt(10)],
                       atol=1e-16)
    for r in reports:
        assert r.field_residual <= 1e-12
    assert names["S1"].orbit_size == 16
    assert names["Sinf"].orbit_size == 8


def test_conic_point_algebraic_relations():
    a1, a2, a3, a4 = flow.S1
    assert a1**2 == pytest.approx((4.0 / 3.0) * a2**2 * a4**2 / (a2**2 + a4**2), abs=1e-15)
    assert 4.0 * (a4**2 - a2**2) ** 2 == pytest.approx((a4**2 + a2**2) ** 2, abs=1e-15)
    assert a3**2 == pytest.approx(3.0 * (a4**2 - a2**2) ** 2 / (a2**2 + a4**2), abs=1e-15)


def test_tangent_basis_orthonormal():
    for s in (flow.S1, flow.SINF):
        basis = tangent_basis(s)
        assert basis.shape == (3, 4)
        gram = basis @ basis.T
        assert np.max(np.abs(gram - np.eye(3))) <= 1e-12
        assert np.max(np.abs(basis @ s)) <= 1e-12


# -- linearizations --------------------------------------------------------------


def test_tangential_eigenvalues_at_conic_point():
    jac = linearize(flow.S1)
    w, _ = eig_small(jac)
    assert np.max(np.abs(w.imag)) <= 1e-8
    got = np.sort(w.real)
    expected = np.sort(flow.S1_EIGENVALUES)
    assert np.max(np.abs(got - expected)) <= 1e-12  # the complex step is exact to rounding


def test_tangential_eigenvector_at_conic_point():
    jac = linearize(flow.S1)
    w, v = eig_small(jac)
    basis = tangent_basis(flow.S1)
    i = int(np.argmin(np.abs(w.real - (-2.0 * SQ2))))
    vec = basis.T @ v[:, i].real
    vec /= np.linalg.norm(vec)
    target = np.array([-SQ3, -SQ3, 1.0, 1.0])
    target /= np.linalg.norm(target)
    assert abs(abs(np.dot(vec, target)) - 1.0) <= 1e-10
    # tangency to the point and to the diagonal locus a1=a2, a3=a4
    assert abs(np.dot(vec, flow.S1)) <= 1e-10
    assert abs(vec[0] - vec[1]) <= 1e-8
    assert abs(vec[2] - vec[3]) <= 1e-8


def test_tangential_eigenvalues_at_limit_direction():
    # all three rates are negative; the observed values agree with
    # -2 sqrt(10), -sqrt(10), -sqrt(10)/3 to rounding (complex-step linearization)
    jac = linearize(flow.SINF)
    w, _ = eig_small(jac)
    assert np.max(np.abs(w.imag)) <= 1e-8
    got = np.sort(w.real)
    observed = np.sort([-2 * math.sqrt(10), -math.sqrt(10), -math.sqrt(10) / 3])
    assert np.max(np.abs(got - observed)) <= 1e-12
    assert np.all(got < 0.0)


@pytest.mark.parametrize("mu", [0.25, 0.5, 0.75])
def test_chart_linearization(mu):
    """The desingularized field linearizes to eigenvalues {2, -2, 0}.

    The analytic Jacobian on the arc is [[2, 0, 0], [mu/lam, -2, 0],
    [0, 0, 0]]; central differences of the chart field must reproduce it,
    and chart_eigendata its eigenvalues and the outgoing eigenvector
    (1, mu/(4 lam), 0).
    """
    lam = math.sqrt((1 - mu * mu) / 2)
    p, h = np.array([0.0, 0.0, mu]), 1e-6
    jac = np.array([(flow.modified_field(p + h * e)[0] - flow.modified_field(p - h * e)[0])
                    / (2 * h) for e in np.eye(3)]).T
    expected = np.array([[2.0, 0.0, 0.0], [mu / lam, -2.0, 0.0], [0.0, 0.0, 0.0]])
    assert np.max(np.abs(jac - expected)) <= 1e-7
    w, vec = chart_eigendata(mu)
    assert np.max(np.abs(w - np.sort(CHART_EIGENVALUES))) <= 1e-7
    assert list(w) == sorted(w)
    assert vec[0] > 0.0 and np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-15)
    target = np.array([1.0, mu / (4 * lam), 0.0])
    target /= np.linalg.norm(target)
    assert np.arccos(np.clip(np.dot(vec, target), -1, 1)) <= 1e-6


def test_chart_eigendata_rejects_a_stencil_off_the_chart():
    with pytest.raises(ValueError):
        chart_eigendata(0.99)


def test_linearize_rejects_non_stationary():
    with pytest.raises(ValueError):
        linearize(np.full(4, 0.5))


@pytest.mark.parametrize("point", [np.array([0.0, 0.0, 0.5]), np.append(flow.S1, 0.0),
                                   2.0 * flow.S1])
def test_linearize_rejects_other_points(point):
    """Only a (4,) unit direction is linearized: a (3,) chart point, a (5,) state and
    a stationary ray off the sphere (whose tangent basis would be skew) are refused
    before the field is evaluated."""
    with pytest.raises(ValueError, match=r"\(4,\) unit direction"):
        linearize(point)


def test_stationary_reports_with_eigendata():
    reports = {r.name: r for r in stationary_points()}
    s1 = reports["S1"]
    assert s1.classification == (2, 0, 1)  # saddle: 2 stable, 1 unstable
    sinf = reports["Sinf"]
    assert sinf.classification == (3, 0, 0)  # sink
    for rep in reports.values():
        for i, lam in enumerate(rep.eigenvalues):
            vec = rep.eigenvectors[i]
            assert abs(np.dot(vec.real, rep.point)) <= 1e-10


# -- small eigenproblems ------------------------------------------------------------


def test_eig_small_identity():
    w, _ = eig_small(np.eye(3))
    assert np.allclose(w, [1.0, 1.0, 1.0], atol=0)


def test_eig_small_diagonal():
    w, _ = eig_small(np.diag([2.0, -1.0, 0.0]))
    assert np.allclose(np.sort(w.real), [-1.0, 0.0, 2.0], atol=0)
    assert np.allclose(w.imag, 0.0, atol=0)


def test_eig_small_companion_matrix():
    # companion of p(x) = x^3 - 2x^2 - x + 2 = (x-2)(x-1)(x+1)
    m = np.array([[0.0, 0.0, -2.0], [1.0, 0.0, 1.0], [0.0, 1.0, 2.0]])
    w, _ = eig_small(m)
    assert np.max(np.abs(np.sort(w.real) - np.array([-1.0, 1.0, 2.0]))) <= 1e-10


def test_eig_small_trace_det_consistency():
    rng = np.random.default_rng(19)
    for n in (3, 4):
        for _ in range(20):
            m = rng.normal(size=(n, n))
            w, _ = eig_small(m)
            assert np.sum(w) == pytest.approx(np.trace(m), rel=1e-9, abs=1e-9)
            assert np.prod(w) == pytest.approx(np.linalg.det(m), rel=1e-9, abs=1e-9)


def test_eig_small_validation():
    with pytest.raises(ValueError):
        eig_small(np.eye(5))
    with pytest.raises(ValueError):
        eig_small(np.array([[1.0, np.inf], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        eig_small(np.ones((2, 3)))


def test_eig_small_residuals_certified():
    rng = np.random.default_rng(20)
    m = rng.normal(size=(4, 4))
    w, v = eig_small(m)
    for i in range(4):
        assert np.linalg.norm(m @ v[:, i] - w[i] * v[:, i]) <= 1e-8 * np.linalg.norm(m)


# -- closed forms ----------------------------------------------------------------------


def test_closed_form_bgg_tip():
    s = closed_form("bgg", 2.25)
    assert np.allclose(s, [0.0, 0.0, 1.5, 1.5], atol=1e-16)


def test_closed_form_bgg_values():
    a1, a2, b1, b2 = closed_form("bgg", 3.0)
    assert a1 == pytest.approx(math.sqrt(7.0 / 15.0), abs=1e-15)
    assert a2 == pytest.approx(math.sqrt(15.0) / 4.0, abs=1e-15)
    assert b1 == pytest.approx(2.0, abs=1e-15)
    assert b2 == pytest.approx(0.75 * math.sqrt(7.0), abs=1e-15)


def test_closed_form_bs_values():
    a1, a2, b1, b2 = closed_form("bs", 2.0)
    assert a1 == pytest.approx((2.0 / 3.0) * math.sqrt(7.0 / 8.0), abs=1e-15)
    assert a1 == a2
    assert b1 == pytest.approx(2.0 / SQ3, abs=1e-15)
    assert b1 == b2
    # an array of r gives the scalar calls' shapes row by row, bit for bit
    for kind in analysis.CLOSED_FORM_KINDS:
        rs = np.linspace(2.3, 50.0, 97)
        rows = closed_form(kind, rs)
        assert rows.shape == (97, 4)
        assert np.array_equal(rows, [closed_form(kind, float(r)) for r in rs])


def test_closed_form_domains():
    with pytest.raises(ValueError):
        closed_form("bgg", 2.0)
    with pytest.raises(ValueError):
        closed_form("bs", 1.0)
    with pytest.raises(ValueError):
        closed_form("singular", 0.0)
    with pytest.raises(ValueError):
        closed_form("nope", 3.0)
    # non-finite r is outside every domain (NaN slipped past the lower bound)
    for kind in analysis.CLOSED_FORM_KINDS:
        for bad in (math.nan, math.inf):
            for call in (lambda: closed_form(kind, bad), lambda: dr_dt(kind, bad),
                         lambda: dr_dt(kind, np.array([3.0, bad])),
                         lambda: verify_solution(kind, [bad, 2.0])):
                with pytest.raises(ValueError):
                    call()


def test_round_and_singular_forms_are_formal_mirrors():
    # the singular branch carries (1 + r^-3) where the round one has
    # (1 - r^-3); the B functions coincide
    for r in (0.8, 1.5, 3.0, 10.0):
        if r > 1.0:
            bs = closed_form("bs", r)
            sing = closed_form("singular", r)
            assert sing[0]**2 - bs[0]**2 == pytest.approx(2.0 / (9.0 * r), rel=1e-12)  # A1
            assert sing[2] == bs[2]  # B1
        else:
            sing = closed_form("singular", r)
            assert sing[0] == pytest.approx((r / 3) * math.sqrt(1 + r**-3), abs=1e-15)


# -- reparameterization ------------------------------------------------------------


def test_r_to_t_origins():
    assert r_to_t("bgg", 2.25) == 0.0
    assert r_to_t("singular", 1.0) == 0.0


def test_r_to_t_monotone():
    for kind in ("bgg", "bs", "singular"):
        assert r_to_t(kind, 3.0) < r_to_t(kind, 4.0)
    assert r_to_t("singular", 0.5) < 0.0


def test_r_to_t_endpoint_singularity_cross_check():
    """The smooth substituted quadrature agrees with a raw singular one, and
    with adaptive quadrature of the unfactored substituted integrand (the raw
    one for the singular form), on floats and arrays, up to R_TO_T_MAX."""
    for kind, r0 in (("bgg", 2.25), ("bs", 1.0)):
        for r in (r0 + 0.3, r0 + 2.0, r0 + 20.0):
            raw, err = quad(lambda rr: 1.0 / dr_dt(kind, rr), r0, r,
                            epsabs=1e-13, epsrel=1e-11, limit=400)
            assert r_to_t(kind, r) == pytest.approx(raw, abs=max(5e-9, 5 * abs(err)))
    grids = {"bs": (1.3, 3.0, 20.0, 100.0, 300.0, 1e5, R_TO_T_MAX),
             "bgg": (2.5, 5.0, 20.0, 50.0, 1e5, R_TO_T_MAX),
             "singular": (1e-6, 0.1, 0.5, 2.0, 10.0, 50.0, 1e5)}
    for kind, rs in grids.items():
        r0 = {"bgg": 2.25, "bs": 1.0, "singular": 1.0}[kind]
        batch = r_to_t(kind, np.array(rs))
        for r, t_batch in zip(rs, batch):
            if kind == "singular":  # smooth on (0, inf): no substitution
                ref, _ = quad(lambda rr: 1.0 / dr_dt(kind, rr), r0, r,
                              epsabs=0.0, epsrel=1e-13, limit=200)
            else:
                ref, _ = quad(lambda s: 2.0 * s / dr_dt(kind, r0 + s * s), 0.0,
                              math.sqrt(r - r0), epsabs=0.0, epsrel=1e-13, limit=200)
            assert r_to_t(kind, r) == pytest.approx(ref, rel=1e-11, abs=0.0), (kind, r)
            assert t_batch == pytest.approx(ref, rel=1e-11, abs=0.0), (kind, r)


def test_r_to_t_domain():
    for r in (0.9, 1.01 * R_TO_T_MAX, math.inf, math.nan):
        with pytest.raises(ValueError):
            r_to_t("bs", r)


# -- exactness reports ----------------------------------------------------------------


def test_verify_solution_all_kinds():
    grids = {"bgg": (2.3, 50.0), "bs": (1.2, 50.0), "singular": (0.1, 50.0)}
    f_expected = {"bgg": -27.0 / 8.0, "bs": -1.0 / (3 * SQ3), "singular": 1.0 / (3 * SQ3)}
    for kind, (lo, hi) in grids.items():
        rep = verify_solution(kind, np.linspace(lo, hi, 200))
        assert rep["max_mismatch"] <= 1e-7, kind
        assert rep["F_mean"] == pytest.approx(f_expected[kind], abs=1e-9)
        assert rep["F_spread"] <= 1e-9
