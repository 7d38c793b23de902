import math

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
            shoot._shape_field([*r.tolist(), 0.0])
        with pytest.raises(ZeroDivisionError):
            shoot._sphere_field([*(r / np.linalg.norm(r)).tolist(), 0.0])
    # A1 = 0 is inside the domain (the wall is invariant: V1 = 0 there)
    v = flow.velocity(np.array([0.0, 1.0, 1.0, 1.0]))
    assert v[0] == 0.0


def test_one_state_fields_match_array_path():
    """One state runs on Python floats: bit for bit the numpy (array) results."""
    rng = np.random.default_rng(11)
    states = np.exp(rng.uniform(-4.0, 2.0, size=(1000, 5)))
    batch = flow.velocity(states[:, :4])
    f = np.linalg.norm(states[:, :4], axis=1)  # as Trajectory.from_samples
    spheres = states[:, :4] / f[:, None]
    sphere_batch = flow.velocity(spheres)
    betas = flow.monitor_table(spheres, f)[:, flow.MONITOR_NAMES.index("beta")]
    for y, v, fy, s, w, beta in zip(states, batch, f, spheres, sphere_batch, betas):
        a = y[:4]
        assert np.array_equal(flow.velocity(a), v)
        assert np.array_equal(flow.velocity(list(a)), v)
        assert shoot._shape_field(y.tolist()) == [*v.tolist(), 1.0 / fy]
        assert shoot._sphere_field([*s.tolist(), y[4]]) == [*(w - beta * s).tolist(), beta]


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
        import g2cone.shoot as sh

        def field(y):
            a = np.array(y[:4])
            v = -flow.velocity(a)
            beta = float(np.dot(v, a))
            return [*(v - beta * a).tolist(), beta]

        def project(y):
            a = np.array(y[:4])
            return [*(a / np.linalg.norm(a)).tolist(), y[4]]

        us, ys, term, stats = sh._integrate(field, 0.0, [*a0.tolist(), 0.0], span,
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
                params = us
                spheres = ys

            other = Back()
            other_w = np.array([-_w(a) for a in ys])
        ref_w = np.array([_w(a) for a in np.atleast_2d(other.spheres)])
        if rev:
            ref_w = other_w
        for u in np.linspace(0.1, span - 0.1, 7):
            mine = hermite_sample(fwd.params, fwd.spheres, fwd_w, u)
            theirs = hermite_sample(np.asarray(other.params),
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
    u = traj.stats["u"]
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
            assert np.all(np.diff(image.params) > 0)
            assert image.params[0] == -base.params[-1]
            assert np.allclose(image.spheres[0], mat @ base.spheres[-1], atol=0)
            assert image.f[0] == base.f[-1]
        else:
            assert np.allclose(image.params, base.params, atol=0)
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
        assert np.array_equal(image.params, -base.params[::-1])
        assert np.array_equal(image.stats["u"], -base.stats["u"][::-1])
    assert np.array_equal(apply_symmetry(base, 4).stats["u"], base.stats["u"])


def test_symmetry_group_closure():
    group = flow.symmetry_group()
    assert len(group) == 16
    assert sum(1 for _, rev in group if rev) == 8
    # closed under composition
    mats = {tuple(m.astype(int).ravel()) for m, _ in group}
    for m1, _ in group:
        for m2, _ in group:
            assert tuple((m1 @ m2).astype(int).ravel()) in mats
