import math
import warnings

import numpy as np
import pytest

from g2cone import flow, shoot
from g2cone.analysis import closed_form, dr_dt
from g2cone.exterior import ShapeState
from helpers import (S0, apply_symmetry, central_derivative, hermite_sample, sphere_to_chart,
                     symmetry)

SQ3 = math.sqrt(3.0)


def _w(a):
    return flow.sphere_field(a)[0]


def _radicand(p):
    x, y, z = p
    return 2.0 - 2.0 * x**2 - y**2 - 2.0 * z**2


# -- the vector field ----------------------------------------------------------


def test_rhs_unit_state():
    assert np.allclose(flow.velocity(ShapeState(1, 1, 1, 1)), [0, 0, 1, 1], atol=0)


def test_rhs_matches_bgg_chain_rule():
    # d/dt of the asymmetric closed form at r = 3 via dt = dr / A1
    # (h balances truncation against rounding in the central difference)
    r, h = 3.0, 1e-5
    drdr = (closed_form("bgg", r + h) - closed_form("bgg", r - h)) / (2 * h)
    expected = drdr * dr_dt("bgg", r)
    got = flow.velocity(closed_form("bgg", r))
    assert np.max(np.abs(got - expected)) <= 1e-10


def test_rhs_degree_zero_homogeneity():
    rng = np.random.default_rng(2)
    for _ in range(20):
        r = rng.uniform(0.2, 4.0, size=4)
        assert np.allclose(flow.velocity(2.0 * r), flow.velocity(r), rtol=0, atol=1e-13)


def test_rhs_rejects_zero_denominators():
    for j in (1, 2, 3):  # A2, B1, B2: one state, a batch, and the integrator fields
        r = np.ones(4)
        r[j] = 0.0
        with pytest.raises(ZeroDivisionError):
            flow.velocity(r)
        with pytest.raises(ZeroDivisionError):
            flow.velocity(np.stack([np.ones(4), r]))
        with pytest.raises(ZeroDivisionError):
            shoot._shape_field(*r.tolist())
        with pytest.raises(ZeroDivisionError):
            flow._sphere_rate(*(r / np.linalg.norm(r)).tolist())
    # A1 = 0 is inside the domain (the wall is invariant: V1 = 0 there)
    v = flow.velocity(np.array([0.0, 1.0, 1.0, 1.0]))
    assert v[0] == 0.0


def test_one_state_fields_match_array_path():
    """One state, through the float kernels or the array functions: bit for bit the
    batch results, and one beta, monitor_table's."""
    rng = np.random.default_rng(11)
    states = np.exp(rng.uniform(-4.0, 2.0, size=(1000, 4)))
    batch = flow.velocity(states)
    f = np.linalg.norm(states, axis=1)  # as the Trajectory constructor
    spheres = states / f[:, None]
    sphere_batch = flow.velocity(spheres)
    betas = flow.monitor_table(spheres, f)[:, flow.MONITOR_NAMES.index("beta")]
    for a, v, fy, s, w, beta in zip(states, batch, f, spheres, sphere_batch, betas):
        assert np.array_equal(flow.velocity(a), v)
        assert np.array_equal(flow.velocity(list(a)), v)
        assert shoot._shape_field(*a.tolist()) == (*v.tolist(), 1.0 / fy)
        rate = flow._sphere_rate(*s.tolist())
        assert rate == (*(w - beta * s).tolist(), beta)
        w_s, beta_s = flow.sphere_field(s)
        assert (*w_s.tolist(), beta_s) == (*rate[:4], beta)


# -- first integral -------------------------------------------------------------


def test_first_integral_at_singular_orbit():
    for mu in (0.2, 0.5, 0.8):
        lam = math.sqrt((1 - mu**2) / 2)
        assert flow.first_integral(ShapeState(mu, lam, 0.0, lam)) == pytest.approx(
            2 * mu * lam**2, abs=1e-15)


def test_first_integral_on_closed_forms():
    # the cubic cancels r^3-sized terms, so the float error grows ~ r^3 eps
    for r in (1.6, 2.5, 7.0, 30.0):
        assert flow.first_integral(closed_form("bs", r)) == pytest.approx(
            -1.0 / (3.0 * SQ3), abs=1e-9)
    for r in (2.4, 3.0, 10.0, 40.0):
        assert flow.first_integral(closed_form("bgg", r)) == pytest.approx(
            -27.0 / 8.0, abs=1e-9)
    for r in (0.5, 1.0, 5.0):
        assert flow.first_integral(closed_form("singular", r)) == pytest.approx(
            1.0 / (3.0 * SQ3), abs=1e-9)
    # a batch (n, 4) gives the n per-row values
    shapes = closed_form("bgg", np.array([2.4, 3.0, 10.0, 40.0]))
    assert np.array_equal(flow.first_integral(shapes),
                          [flow.first_integral(row) for row in shapes])


def test_first_integral_conserved_along_trajectory(family_shapes):
    for mu in (0.2, 0.5):
        F = family_shapes[mu].monitor("F")
        assert np.max(np.abs(F - F[0])) <= 1e-8 * max(1.0, abs(F[0]))


# -- radial / tangential split ----------------------------------------------------


def test_singular_orbit_is_unit():
    s = S0(0.3)
    assert np.linalg.norm(s) == pytest.approx(1.0, abs=1e-15)
    assert s[2] == 0.0


def test_stationary_directions_are_read_only():
    # writing the same value back leaves the constants intact if it succeeds
    for s in (flow.S1, flow.SINF):
        with pytest.raises(ValueError):
            s[1] = s[1]


def test_tangential_field_vanishes_at_stationary_points():
    assert np.linalg.norm(flow.sphere_field(flow.S1)[0]) <= 1e-12
    assert np.linalg.norm(flow.sphere_field(flow.SINF)[0]) <= 1e-12


def test_tangential_field_orthogonal_to_state():
    rng = np.random.default_rng(4)
    for _ in range(30):
        a = rng.uniform(0.05, 1.0, size=4)
        a /= np.linalg.norm(a)
        assert abs(np.dot(flow.sphere_field(a)[0], a)) <= 1e-13


def test_radial_log_derivative_values():
    assert flow.sphere_field(flow.SINF)[1] == pytest.approx(
        math.sqrt(10.0) / 3.0, abs=1e-14)
    # V is parallel to S at the conic point with rate 2 sqrt(2) / 3
    assert flow.sphere_field(flow.S1)[1] == pytest.approx(
        2.0 * math.sqrt(2.0) / 3.0, abs=1e-14)


def test_sphere_field_complex_step():
    """A complex step through sphere_field keeps Im beta, with no warning: Im beta / h
    is d beta along e, as the central difference gives it, at a non-stationary state."""
    a = np.array([2.0, 3.0, 4.0, 5.0]) / math.sqrt(54.0)
    e = np.array([0.3, -0.5, 0.1, 0.8])
    assert np.linalg.norm(_w(a)) > 0.1
    h, d = 1e-20, 1e-5
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, beta = flow.sphere_field(a + 1j * h * e)
    central = (flow.sphere_field(a + d * e)[1] - flow.sphere_field(a - d * e)[1]) / (2 * d)
    assert abs(central) > 0.1
    assert beta.imag / h == pytest.approx(central, rel=1e-8)


def test_radial_rate_scale_invariant():
    rng = np.random.default_rng(14)
    for _ in range(10):
        a = rng.uniform(0.1, 1.0, size=4)
        a /= np.linalg.norm(a)
        for c in (2.0, 0.25):
            assert np.dot(flow.velocity(c * a), a) == pytest.approx(
                np.dot(flow.velocity(a), a), abs=1e-13)


# -- chart ---------------------------------------------------------------------


def test_chart_to_sphere_on_arc():
    for mu in (0.2, 0.5, 0.8):
        lam = math.sqrt((1 - mu**2) / 2)
        s = flow.chart_to_sphere(np.array([0.0, 0.0, mu]))
        assert np.allclose(s, [mu, lam, 0.0, lam], atol=1e-15)


def test_chart_origin_is_midpoint():
    s = flow.chart_to_sphere(np.zeros(3))
    assert np.allclose(s, [0.0, 1 / math.sqrt(2), 0.0, 1 / math.sqrt(2)],
                       atol=1e-16)


def test_chart_round_trip():
    rng = np.random.default_rng(8)
    count = 0
    while count < 100:
        p = np.append(rng.uniform(-0.2, 0.2, size=2), rng.uniform(0.0, 0.9))
        if _radicand(p) < 0.05:
            continue
        count += 1
        s = flow.chart_to_sphere(p)
        q = sphere_to_chart(s)
        assert np.max(np.abs(q - p)) <= 1e-14
        back = flow.chart_to_sphere(q)
        assert np.max(np.abs(back - s)) <= 1e-14


def test_chart_rejects_negative_radicand():
    with pytest.raises(ValueError):
        flow.chart_to_sphere(np.array([0.4, 0.2, 0.95]))


def test_modified_field_vanishes_exactly_on_arc():
    for mu in (0.1, 0.5, 0.9):
        assert np.all(flow.modified_field(np.array([0.0, 0.0, mu]))[0] == 0.0)


def test_modified_field_matches_direct_xw_off_arc():
    # away from x = 0 the desingularized field is literally x W in chart
    # parts, and the chart scale rate is x beta
    rng = np.random.default_rng(12)
    for _ in range(20):
        p = np.array([rng.uniform(0.05, 0.25), rng.uniform(-0.1, 0.1),
                      rng.uniform(0.1, 0.8)])
        if _radicand(p) < 0.05:
            continue
        w, beta = flow.sphere_field(flow.chart_to_sphere(p))
        g, x_beta = flow.modified_field(p)
        assert np.max(np.abs(g - p[0] * np.array([w[2], w[3] - w[1], w[0]]))) <= 1e-12
        assert x_beta == pytest.approx(p[0] * beta, abs=1e-13)


def test_chart_log_scale_rate_matches_x_beta():
    p = np.array([0.12, 0.03, 0.4])
    _, beta = flow.sphere_field(flow.chart_to_sphere(p))
    assert flow.modified_field(p)[1] == pytest.approx(p[0] * beta, abs=1e-13)


def test_modified_field_is_the_float_chart_routine(monkeypatch):
    """modified_field is _chart_components bit for bit, and neither reads V."""

    def analytic(*args):
        raise AssertionError("the chart field called the analytic right-hand side")

    monkeypatch.setattr(flow, "_components", analytic)
    monkeypatch.setattr(flow, "velocity", analytic)
    rng = np.random.default_rng(13)
    count = 0
    while count < 200:
        p = np.array([rng.uniform(-0.3, 0.3), rng.uniform(-0.2, 0.2), rng.uniform(0.0, 0.9)])
        if p[0] ** 2 + p[1] ** 2 > flow.CHART_RADIUS**2 or _radicand(p) < 0.05:
            continue
        count += 1
        g, x_beta = flow.modified_field(p)
        want = flow._chart_components(*p.tolist())
        assert [v.hex() for v in [*g.tolist(), x_beta]] == [v.hex() for v in want]


def test_modified_field_rejects_outside_chart():
    with pytest.raises(ValueError):
        flow.modified_field(np.array([0.4, 0.0, 0.5]))


# -- symmetries -------------------------------------------------------------------


def test_symmetry_examples():
    s = np.array([0.1, 0.2, 0.3, 0.4])
    assert np.allclose(apply_symmetry(s, 1), [-0.1, 0.4, 0.3, 0.2])
    assert np.allclose(apply_symmetry(s, 4), [0.1, 0.2, -0.3, -0.4])


def test_symmetry_four_is_involution():
    s = np.array([0.3, -0.1, 0.7, 0.2])
    twice = apply_symmetry(apply_symmetry(s, 4), 4)
    assert np.allclose(twice, s, atol=0)


def test_symmetry_index_range():
    with pytest.raises(IndexError):
        symmetry(0)
    with pytest.raises(IndexError):
        apply_symmetry(flow.SINF, 6)


def test_field_equivariance_all_symmetries():
    rng = np.random.default_rng(6)
    for k in range(1, 6):
        mat, rev = symmetry(k)
        sign = -1.0 if rev else 1.0
        for _ in range(20):
            a = rng.uniform(0.1, 1.0, size=4)
            a /= np.linalg.norm(a)
            lhs = _w(mat @ a)
            rhs = sign * (mat @ _w(a))
            assert np.max(np.abs(lhs - rhs)) <= 1e-13


def test_trajectory_equivariance():
    """Integrating a transformed start reproduces the transformed trajectory.

    Time-reversing symmetries are checked against the backward
    integration; resampling uses cubic Hermite interpolation with the
    exact field values at the samples.
    """
    # a point on the mu = 0.4 family path: the flow is well conditioned
    # along it and along all its symmetry images
    base = shoot.launch_sphere(0.4, u_max=2.0)
    start = base.spheres[-1]
    span = 1.5

    def run(a0, backward=False):
        if not backward:
            return shoot.integrate_sphere(a0, 0.0, span, tol=1e-12, max_step=0.02)
        # integrate the reversed field and flip the parameter afterwards
        def field(*y):
            a = np.array(y[:4])
            v = -flow.velocity(a)
            beta = float(np.dot(v, a))
            return [*(v - beta * a).tolist(), beta]

        def project(y):
            a = np.array(y[:4])
            return [*(a / np.linalg.norm(a)).tolist(), y[4]]

        us, ys, term, stats = flow._integrate(field, 0.0, [*a0.tolist(), 0.0], span,
                                              1e-12, max_step=0.02,
                                              project=project)
        return us, ys[:, :4]

    fwd = run(start)
    fwd_w = np.array([_w(a) for a in fwd.spheres])
    for k in range(1, 6):
        mat, rev = symmetry(k)
        image = mat @ start
        if not rev:
            other = shoot.integrate_sphere(image, 0.0, span, tol=1e-12, max_step=0.02)
        else:
            us, ys = run(image, backward=True)

            class Back:
                u = us
                spheres = ys

            other = Back()
            other_w = np.array([-_w(a) for a in ys])
        ref_w = np.array([_w(a) for a in np.atleast_2d(other.spheres)])
        if rev:
            ref_w = other_w
        for u in np.linspace(0.1, span - 0.1, 7):
            mine = hermite_sample(fwd.u, fwd.spheres, fwd_w, u)
            theirs = hermite_sample(np.asarray(other.u),
                                    np.asarray(other.spheres), ref_w, u)
            assert np.max(np.abs(mat @ mine - theirs)) <= 1e-8, f"symmetry {k}"


# -- monitors ----------------------------------------------------------------------


def _monitor_row(s, f):
    """The monitors at one direction and scale, by name."""
    return dict(zip(flow.MONITOR_NAMES, flow.monitor_table(s[None, :], [f])[0]))


def test_monitors_at_singular_orbit():
    mu = 0.4
    lam = math.sqrt((1 - mu**2) / 2)
    m = _monitor_row(S0(mu), 1.0)
    assert m["G1"] == pytest.approx(lam**2, abs=1e-16)
    assert m["G2"] == pytest.approx(mu * lam, abs=1e-16)
    assert m["F5"] == pytest.approx(lam**2, abs=1e-16)
    assert m["F"] == pytest.approx(2 * mu * lam**2, abs=1e-16)
    assert m["F4"] == 0.0
    assert math.isnan(m["F2"])  # alpha4 - alpha2 = 0: singular locus
    assert math.isnan(m["beta"])  # alpha3 = 0


def test_monitors_at_conic_point():
    m = _monitor_row(flow.S1, 1.0)
    assert m["G1"] == 0.0
    assert m["G2"] == 0.0
    assert m["F5"] == 0.0


def test_monitors_at_limit_direction():
    m = _monitor_row(flow.SINF, 1.0)
    assert m["F4"] == pytest.approx(2.0 / SQ3, abs=1e-15)
    assert m["F5"] == pytest.approx(-0.1, abs=1e-15)
    assert math.isnan(m["F1"])  # the cubic denominator vanishes here
    assert math.isnan(m["F2"])


def test_monitor_table_nan_guards():
    """Each row sits on a singular locus; exactly the guarded entries are NaN."""
    rows = np.array([
        flow.S1,                 # cubic F = 0 on the sphere: F1
        [0.0, 0.5, 0.6, 0.7],    # alpha1 = 0: F2
        [0.3, 0.5, 0.6, 0.5],    # alpha4 = alpha2: F2
        [0.3, 0.6, 0.5, 0.4],    # alpha4 < alpha2, F2's log argument < 0: F2
        [0.5, 1e-9, 0.6, 0.7],   # alpha2 ~ 0: F2 (|alpha2 alpha4|) and F3
        [0.5, 0.6, 0.7, 5e-9],   # alpha4 ~ 0: F2, F3 and F4
        [0.3, 0.5, 0.0, 0.6],    # alpha3 = 0: beta, and F2's log argument = 0
    ])
    rows /= np.linalg.norm(rows, axis=1)[:, None]
    table = flow.monitor_table(rows, np.full(len(rows), 1.5))
    expected = [{"F1"}, {"F2"}, {"F2"}, {"F2"}, {"F2", "F3"}, {"F2", "F3", "F4"},
                {"F2", "beta"}]
    assert table.shape == (len(rows), 9)
    for row, want in zip(table, expected):
        assert {n for n, v in zip(flow.MONITOR_NAMES, row) if math.isnan(v)} == want


def test_monitor_table_generic_row():
    """S = (1, 2, 2, 4)/5 at f = 2, every entry by hand.

    F/f^3 = 2(.2)(.4)(.8) - .4(.64 - .16) = -0.064, F1 = .064/-.064,
    F2 = ln(.4 * .48 / .064) = ln 3, and V(S) = (3/32, 3/4, 2, -7/8) so
    beta = <V, S> = 0.41875.
    """
    s = np.array([[0.2, 0.4, 0.4, 0.8]])
    expected = [-0.512, -1.0, math.log(3.0), -math.log(2.0), 0.5, 0.48, 0.24, 0.0, 0.41875]
    table = flow.monitor_table(s, [2.0])
    assert np.max(np.abs(table[0] - expected)) <= 1e-15


def _monitors_reference(a, f):
    """Per-sample scalar monitors: the loop that monitor_table replaces."""
    a1, a2, a3, a4 = (float(x) for x in a)
    nan, eps = math.nan, 1e-8
    fs = 2.0 * a1 * a2 * a4 - a3 * (a4 * a4 - a2 * a2)
    f1 = a1 * a2 * a4 / fs if abs(fs) > eps else nan
    f2 = nan
    if min(abs(a1), abs(a4 - a2)) > eps and abs(a2 * a4) > eps:
        arg = a3 * (a4 - a2) * (a4 + a2) / (a4 * a2 * a1)
        f2 = math.log(arg) if arg > 0.0 else nan
    f3 = math.log(a2 / a4) if a2 > eps and a4 > eps else nan
    f4 = a3 / a4 if abs(a4) > eps else nan
    beta = float(np.dot(flow.velocity(np.asarray(a)), a)) if a2 and a3 and a4 else nan
    return [f**3 * fs, f1, f2, f3, f4, a4 * a4 - a3 * a3, a2 * a4 - a1 * a3,
            a1 * a4 - a2 * a3, beta]


def test_monitor_table_matches_per_sample_reference(family_launches):
    """Same values and NaN pattern as the scalar loop along a family path.

    The vectorised logs and powers may round differently in the last
    digit, hence the tolerance of a few ulps.
    """
    for mu in (0.3, 0.8):
        traj = family_launches[mu]
        ref = np.array([_monitors_reference(a, fi) for a, fi in zip(traj.spheres, traj.f)])
        table = flow.monitor_table(traj.spheres, traj.f)
        assert np.array_equal(np.isnan(table), np.isnan(ref)), mu
        ok = ~np.isnan(ref)
        assert np.max(np.abs(table[ok] - ref[ok]) / np.maximum(1.0, np.abs(ref[ok]))) \
            <= 1e-14, mu


def test_wall_derivative_identities():
    """dG1/du = -(2/alpha2) G2 on {G1=0}, and symmetrically for G2."""
    rng = np.random.default_rng(7)
    for _ in range(50):
        a1, a3, a4 = rng.uniform(0.2, 1.0, size=3)
        a = np.array([a1, a1 * a3 / a4, a3, a4])
        a /= np.linalg.norm(a)
        w = _w(a)
        dg1 = w[1] * a[3] + a[1] * w[3] - w[0] * a[2] - a[0] * w[2]
        g2 = a[0] * a[3] - a[1] * a[2]
        assert abs(dg1 + 2.0 / a[1] * g2) <= 1e-8

        a2, a3, a4 = rng.uniform(0.2, 1.0, size=3)
        a = np.array([a2 * a3 / a4, a2, a3, a4])
        a /= np.linalg.norm(a)
        w = _w(a)
        dg2 = w[0] * a[3] + a[0] * w[3] - w[1] * a[2] - a[1] * w[2]
        g1 = a[1] * a[3] - a[0] * a[2]
        assert abs(dg2 + 2.0 / a[1] * g1) <= 1e-8


def test_wall_corner_is_invariant():
    """The corner {G1 = G2 = 0} of the quadrant Q is {A1 = A2, B1 = B2}, and
    the flow keeps it: v1 = v2 and v3 = v4 there."""
    rng = np.random.default_rng(13)
    for a, b in rng.uniform(0.1, 2.0, size=(200, 2)):
        v = flow.velocity([a, a, b, b])
        scale = np.max(np.abs(v))
        assert abs(v[0] - v[1]) <= 1e-13 * scale
        assert abs(v[2] - v[3]) <= 1e-13 * scale


def test_monotone_relations_along_trajectory():
    """The growth rates of F1 and F2 match their closed forms on samples.

    dF1/du = a1 a3 / Fs holds as printed; the F2 rate is
    Fs / (a2 a4 (a4^2 - a2^2)) -- twice the commonly quoted value, as an
    analytic gradient computation confirms (the sign, which is all the
    monotonicity argument needs, is unaffected).  Checked away from the
    launch point with a high-order central difference in u.
    """
    traj = shoot.family_shape_trajectory(0.5, t_max=3.0, tol=1e-12, max_step=0.002)
    u = traj.u
    f1 = traj.monitor("F1")
    f2 = traj.monitor("F2")
    S = traj.spheres
    fs = flow.first_integral(S)
    sel = np.nonzero((u > 0.3) & (u < u[-1] - 0.05))[0]
    worst2 = worst3 = 0.0
    for i in sel[::5]:
        a1, a2, a3, a4 = S[i]
        d1 = central_derivative(u, f1, i)
        d2 = central_derivative(u, f2, i)
        worst2 = max(worst2, abs(d1 - a1 * a3 / fs[i]))
        worst3 = max(worst3, abs(d2 - fs[i] / (a4 * a2 * (a4**2 - a2**2))))
    assert worst2 <= 1e-6
    assert worst3 <= 1e-6


def test_relation_f2_rate_pointwise():
    # analytic-gradient confirmation of the F2 rate used above
    rng = np.random.default_rng(31)
    for _ in range(20):
        a = rng.uniform(0.15, 1.0, size=4)
        a[3] = a[1] + rng.uniform(0.05, 0.5)
        a /= np.linalg.norm(a)
        a1, a2, a3, a4 = a
        v = flow.velocity(a)
        lhs = (v[2] / a3 + 2 * (a4 * v[3] - a2 * v[1]) / (a4**2 - a2**2)
               - v[3] / a4 - v[1] / a2 - v[0] / a1)
        rhs = flow.first_integral(a) / (a2 * a4 * (a4**2 - a2**2))
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))


def test_relation_f3_on_invariant_wall():
    # exact on {alpha1 = 0} (which contains the locus alpha2 = alpha4 used
    # at the limit): d/du ln(alpha2/alpha4) = (a4^2 - a2^2)/(a2 a3 a4)
    rng = np.random.default_rng(21)
    for _ in range(30):
        a2, a3, a4 = rng.uniform(0.2, 1.0, size=3)
        a = np.array([0.0, a2, a3, a4])
        a /= np.linalg.norm(a)
        w = _w(a)
        lhs = w[1] / a[1] - w[3] / a[3]
        rhs = (a[3] ** 2 - a[1] ** 2) / (a[1] * a[2] * a[3])
        assert abs(lhs - rhs) <= 1e-13


def test_relation_f4_on_arc_locus():
    # on {alpha1 = 0, alpha2 = alpha4}: d/du (a3/a4) factors through 2/sqrt(3)
    rng = np.random.default_rng(22)
    for _ in range(30):
        a, x = rng.uniform(0.2, 1.0, size=2)
        v = np.array([0.0, a, x, a])
        v /= np.linalg.norm(v)
        w = _w(v)
        lhs = w[2] / v[3] - v[2] * w[3] / v[3] ** 2
        rhs = 1.5 / v[3] * (2 / SQ3 + v[2] / v[3]) * (2 / SQ3 - v[2] / v[3])
        assert abs(lhs - rhs) <= 1e-13


def test_apply_symmetry_to_trajectory():
    base = shoot.launch_sphere(0.3, u_max=5.0)
    for k, reverse in ((4, False), (2, True)):
        image = apply_symmetry(base, k)
        mat, _ = symmetry(k)
        if reverse:
            assert np.all(np.diff(image.u) > 0)
            assert image.u[0] == -base.u[-1]
            assert np.allclose(image.spheres[0], mat @ base.spheres[-1], atol=0)
            assert image.f[0] == base.f[-1]
        else:
            assert np.allclose(image.u, base.u, atol=0)
            assert np.allclose(image.spheres, base.spheres @ mat.T, atol=0)
        # shapes stay consistent with the transported scale
        assert np.allclose(image.shapes, image.spheres * image.f[:, None], atol=0)
        # scalar monitors built from squares are preserved under k = 4
        if not reverse:
            assert np.allclose(image.monitor("F5"), base.monitor("F5"), atol=1e-15)
    # a t-trajectory's u column is reversed and negated with its samples
    base = shoot.family_shape_trajectory(0.3, t_max=5.0)
    for k in (2, 3):
        image = apply_symmetry(base, k)
        assert np.array_equal(image.t, -base.t[::-1])
        assert np.array_equal(image.u, -base.u[::-1])
    assert np.array_equal(apply_symmetry(base, 4).u, base.u)


def test_symmetry_group_closure():
    group = flow.symmetry_group()
    assert len(group) == 16
    assert sum(1 for _, rev in group if rev) == 8
    # closed under composition
    mats = {tuple(m.astype(int).ravel()) for m, _ in group}
    for m1, _ in group:
        for m2, _ in group:
            assert tuple((m1 @ m2).astype(int).ravel()) in mats
    # built once per process, its matrices read-only
    assert flow.symmetry_group() is group
    assert not any(m.flags.writeable for m, _ in group)


# -- the trapping set of the limit direction ----------------------------------------


class _Dual:
    """v + d.e on mpmath.iv intervals: forward-mode derivatives, each an enclosure."""

    def __init__(self, v, d):
        self.v, self.d = v, d

    def __add__(self, o):
        if isinstance(o, _Dual):
            return _Dual(self.v + o.v, [a + b for a, b in zip(self.d, o.d)])
        return _Dual(self.v + o, self.d)

    __radd__ = __add__

    def __neg__(self):
        return _Dual(-self.v, [-a for a in self.d])

    def __sub__(self, o):
        return self + -o

    def __rsub__(self, o):
        return -self + o

    def __mul__(self, o):
        if isinstance(o, _Dual):
            return _Dual(self.v * o.v, [self.v * b + a * o.v for a, b in zip(self.d, o.d)])
        return _Dual(self.v * o, [a * o for a in self.d])

    __rmul__ = __mul__

    def __truediv__(self, o):
        o = o if isinstance(o, _Dual) else _Dual(o, [0] * len(self.d))
        q = self.v / o.v
        return _Dual(q, [(a - q * b) / o.v for a, b in zip(self.d, o.d)])

    def __rtruediv__(self, o):
        return _Dual(o, [0] * len(self.d)) / self


def _positive_definite(n) -> bool:
    """Sylvester's criterion on a 3x3 interval matrix: the leading minors' enclosures are
    positive, so every symmetric matrix within it is positive definite."""
    m2 = n[0][0] * n[1][1] - n[0][1] * n[1][0]
    m3 = (n[0][0] * (n[1][1] * n[2][2] - n[1][2] * n[2][1])
          - n[0][1] * (n[1][0] * n[2][2] - n[1][2] * n[2][0])
          + n[0][2] * (n[1][0] * n[2][1] - n[1][1] * n[2][0]))
    return all(m.a > 0 for m in (n[0][0], m2, m3))


def test_sinf_trapping_set_proof():
    """Interval proof (mpmath.iv, no sampling) of the certificate flow.SINF_P, SINF_R0,
    SINF_DELTA at the exact S_inf = (0, sqrt(3/10), sqrt(2/5), sqrt(3/10)).

    On the unit sphere write d = S - S_inf = E y + n S_inf, E an exact orthonormal tangent
    basis, n = -|d|^2 / 2; V = d.P.d = y.A y + 2 n y.b + n^2 k with A = E^T P E.
    (a) A - I > 0.  With |d| <= r0 this gives V >= lam |d|^2, lam = 1 - r0^2/4 - r0 |b|
        - r0^2 |k| / 4, as |y|^2 = |d|^2 (1 - |d|^2 / 4).
    (b) dV/du = d.(P M + M^T P).d < 0 for 0 < |d| <= r0: W(S) = W(S) - W(S_inf) = M d,
        M the mean of the Jacobian of flow._sphere_rate's formula over the segment, which
        lies in one interval enclosure over the box S_inf + [-r0, r0]^4; the tangent block
        plus a bound of the n terms, |n| <= eta |y|, is negative definite.
    (c) A float sample S (within 8 ulps of the sphere) where the stop fires, |d^|^2 < c
        and V(d^) < c = s^2, s = min(tol, r0) - delta, d^ = S - SINF (exact near SINF),
        has sqrt(V) < s + beta at its exact projection onto the sphere: beta covers V's
        rounding (gamma_10 times the absolute row sums of P), SINF's rounding and the
        sample's distance from the sphere.  By (a) the set {V <= (s + beta)^2} within r0
        has |d| <= (s + beta) / sqrt(lam), which is below min(tol, r0) when
        delta > beta + r0 (1 - sqrt(lam)), the normal part of d; by (b) the exact flow
        never leaves it.
    """
    from mpmath import iv
    r0, delta = iv.mpf(flow.SINF_R0), iv.mpf(flow.SINF_DELTA)
    a, b = iv.sqrt(iv.mpf(3) / 10), iv.sqrt(iv.mpf(2) / 5)
    s = [iv.mpf(0), a, b, a]
    q = iv.sqrt(iv.mpf(2))
    e = [[1, 0, 0, 0], [0, 1 / q, 0, -1 / q], [0, b / q, -2 * a / q, b / q]]  # rows
    p = [[iv.mpf(x) for x in row] for row in flow.SINF_P]
    assert all(flow.SINF_P[i][j] == flow.SINF_P[j][i] for i in range(4) for j in range(4))

    def dot(x, y):
        return sum((u * v for u, v in zip(x, y)), iv.mpf(0))

    def sandwich(m):  # (E m E^T, E m s, s.m s) of a 4x4 interval matrix m
        me = [[dot(row, f) for row in m] for f in e]  # (m e_j) for each tangent vector
        ms = [dot(row, s) for row in m]
        return [[dot(f, g) for g in me] for f in e], [dot(f, ms) for f in e], dot(s, ms)

    def sup(x):
        return iv.mpf(max(abs(x.a), abs(x.b)))

    def sup_norm(xs):
        return iv.sqrt(sum((sup(x) ** 2 for x in xs), iv.mpf(0)))

    # (a) the tangent form is at least I
    av, bv, kv = sandwich(p)
    assert _positive_definite([[av[i][j] - (i == j) for j in range(3)] for i in range(3)])
    lam = 1 - r0 ** 2 / 4 - r0 * sup_norm(bv) - r0 ** 2 * sup(kv) / 4

    # (b) V decreases on the sphere within r0 of S_inf, off S_inf
    box = [x + iv.mpf([-flow.SINF_R0, flow.SINF_R0]) for x in s]
    w = flow._sphere_rate(*(_Dual(x, [iv.mpf(int(i == j)) for i in range(4)])
                            for j, x in enumerate(box)))[:4]
    assert all(0 in x for x in flow._sphere_rate(*s)[:4])  # S_inf is stationary
    pm = [[dot(row, [x.d[j] for x in w]) for j in range(4)] for row in p]  # P M
    ak, bk, kk = sandwich([[pm[i][j] + pm[j][i] for j in range(4)] for i in range(4)])
    eta = r0 / (2 * iv.sqrt(1 - r0 ** 2 / 4))
    m = 2 * eta * sup_norm(bk) + eta ** 2 * sup(kk)
    assert _positive_definite([[-ak[i][j] - (m if i == j else 0) for j in range(3)]
                               for i in range(3)])

    # (c) delta covers the rounding and the normal part of d
    u = iv.mpf(2) ** -53
    gamma4, gamma10 = 4 * u / (1 - 4 * u), 10 * u / (1 - 10 * u)
    rowsum = max(sup(sum(iv.mpf(abs(x)) for x in row)) for row in flow.SINF_P)
    h = sup_norm([iv.mpf(float(x)) - y for x, y in zip(flow.SINF, s)]) + 8 * u
    beta = r0 * gamma10 * rowsum / (1 - gamma4) + (rowsum * (1 + gamma4) + iv.sqrt(rowsum)) * h
    assert (beta + r0 * (1 - iv.sqrt(lam))).b < delta.a


def test_sinf_lyapunov_literals_match_scipy():
    """flow.SINF_P is E P E^T for P = T^-T diag(4, 4, 1) T^-1 over the unit eigenvectors T of
    the tangential Jacobian at SINF (fast to slow), the solution of J^T P + P J = -Q with
    Q = -T^-T 2 Lambda diag(4, 4, 1) T^-1, scaled to least eigenvalue 1 (and 1e-12)."""
    from scipy.linalg import solve_continuous_lyapunov

    from g2cone import analysis

    jac = analysis.linearize(flow.SINF)
    basis = analysis.tangent_basis(flow.SINF)
    w, t = np.linalg.eig(jac)
    order = np.argsort(w.real)
    w, t = w.real[order], t.real[:, order]
    assert np.allclose(w, [-2 * math.sqrt(10), -math.sqrt(10), -math.sqrt(10) / 3],
                       rtol=0, atol=1e-12)
    ti = np.linalg.inv(t)
    q = -ti.T @ np.diag(2.0 * w * [4.0, 4.0, 1.0]) @ ti
    assert np.linalg.eigvalsh(q)[0] > 0.0
    p = solve_continuous_lyapunov(jac.T, -q)
    p *= (1.0 + 1e-12) / np.linalg.eigvalsh(p)[0]
    literal = np.array(flow.SINF_P)
    assert np.max(np.abs(basis @ literal @ basis.T - p)) <= 1e-12
    assert np.max(np.abs(literal @ flow.SINF)) <= 1e-15
