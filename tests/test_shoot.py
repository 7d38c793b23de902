import math

import numpy as np
import pytest
import sympy
from scipy.integrate import quad
from scipy.optimize import brentq

from g2cone import flow, shoot
from g2cone.analysis import closed_form, dr_dt, r_to_t
from g2cone.exterior import ShapeState
from conftest import MU_CONVERGING, MU_GRID
from helpers import constant_trajectory, sphere_to_chart

SQ3 = math.sqrt(3.0)


# -- power series off the singular orbit ----------------------------------------


@pytest.mark.parametrize("mu", [0.25, 0.5, 0.75])
def test_series_first_order_data(mu):
    s = shoot.series_start(mu, order=4)
    lam = math.sqrt((1.0 - mu * mu) / 2.0)
    c = s.coefficients
    assert np.allclose(c[0], [mu, lam, 0.0, lam], atol=1e-15)
    assert c[1][0] == pytest.approx(0.0, abs=1e-14)  # A1'(0) = 0
    assert c[1][2] == pytest.approx(2.0, abs=1e-13)  # B1'(0) = +2
    assert c[1][1] == pytest.approx(-mu / (4.0 * lam), abs=1e-13)
    assert c[1][3] == pytest.approx(+mu / (4.0 * lam), abs=1e-13)
    assert s.lam == pytest.approx(lam, abs=0)


def test_series_order_residual():
    # with order 4, the flow equations hold to ~t^4 at t = 1e-3
    s = shoot.series_start(0.5, order=4)
    t = 1e-3
    powers = t ** np.arange(s.order + 1)
    dpowers = np.arange(s.order + 1) * np.concatenate([[0.0], t ** np.arange(s.order)])
    dpowers[1] = 1.0
    r = powers @ s.coefficients
    dr = dpowers @ s.coefficients
    assert np.max(np.abs(dr - flow.velocity(r))) <= 1e-9


def test_series_cleared_identities_vanish_to_matched_order():
    s = shoot.series_start(0.35, order=6)
    res = shoot._series_residuals(s.coefficients, s.order + 1)
    for eq in (0, 2):  # matched at t^0 .. t^(order-1)
        assert np.max(np.abs(res[eq][: s.order])) <= 1e-11
    for eq in (1, 3):  # matched at t^1 .. t^order
        assert np.max(np.abs(res[eq][: s.order + 1])) <= 1e-11


def _exact_series(mu, lam, order):
    """The series coefficients solved order by order in exact arithmetic (sympy).

    Built from the flow dR/dt = V(R) itself: each component over its
    common denominator, the trial series substituted, and the lowest
    power of t that holds the new coefficients set to zero.
    """
    t = sympy.Symbol("t")
    syms = sympy.symbols("A1 A2 B1 B2 dA1 dA2 dB1 dB2")
    a1, a2, b1, b2 = syms[:4]
    half = sympy.Rational(1, 2)
    rhs = (half * (a1**2 / a2**2 - a1**2 / b2**2),
           half * ((b2**2 - a2**2 + b1**2) / (b1 * b2) - a1 / a2),
           (a2**2 + b2**2 - b1**2) / (a2 * b2),
           half * ((a2**2 - b2**2 + b1**2) / (a2 * b1) + a1 / b2))
    nums = [sympy.numer(sympy.together(d - v)) for d, v in zip(syms[4:], rhs)]
    series, rows = [mu, lam, sympy.Integer(0), lam], [[mu, lam, 0, lam]]
    unknowns = sympy.symbols("a p b q")
    for k in range(1, order + 1):
        trial = [s + x * t**k for s, x in zip(series, unknowns)]
        sub = dict(zip(syms, trial + [sympy.diff(r, t) for r in trial]))
        eqs = []
        for num in nums:
            e = sympy.expand(num.xreplace(sub))
            eqs.append(next(c for c in (e.coeff(t, m) for m in range(k + 2)) if c.free_symbols))
        (sol,) = sympy.solve(eqs, unknowns, dict=True)
        rows.append([sol[x] for x in unknowns])
        series = [s + v * t**k for s, v in zip(series, rows[-1])]
    return np.array([[float(v) for v in row] for row in rows])


def test_series_matches_exact_arithmetic():
    """At mu = 3/5 (lambda^2 = 8/25) the pivots give the exact series to 1e-13,
    relative to the largest coefficient of each order (some are exactly 0)."""
    mu = sympy.Rational(3, 5)
    exact = _exact_series(mu, sympy.sqrt((1 - mu**2) / 2), 4)
    got = shoot.series_start(0.6).coefficients
    assert exact[1, 2] == 2.0 and exact[1, 0] == exact[2, 2] == 0.0
    scale = np.max(np.abs(exact), axis=1, keepdims=True)
    assert np.all(np.abs(got - exact) <= 1e-13 * scale)


@pytest.mark.parametrize("order", [3, 4, 8])
def test_series_two_residual_evaluations_per_order(monkeypatch, order):
    """Two _series_residuals evaluations per order: 8 at the default order 4."""
    calls = []
    residuals = shoot._series_residuals
    monkeypatch.setattr(shoot, "_series_residuals",
                        lambda c, n: calls.append(n) or residuals(c, n))
    shoot.series_start(0.37, order)
    assert calls == [k + 1 for k in range(1, order + 1) for _ in (0, 1)]


def test_series_validation():
    with pytest.raises(ValueError):
        shoot.series_start(0.0)
    with pytest.raises(ValueError):
        shoot.series_start(1.0)
    with pytest.raises(ValueError):
        shoot.series_start(0.5, order=2)
    with pytest.raises(ValueError):
        shoot.series_start(0.5, order=9)


def test_eval_series_seed_and_leading_term():
    s = shoot.series_start(0.3, order=4)
    lam = s.lam
    start = shoot.eval_series(s, 0.0)
    assert np.allclose(start, [0.3, lam, 0.0, lam], atol=0)
    tiny = shoot.eval_series(s, 1e-6)
    assert tiny[2] == pytest.approx(2e-6, abs=1e-14)  # B1


def test_eval_series_rejects_beyond_trust_radius():
    s = shoot.series_start(0.5, order=4)
    with pytest.raises(ValueError):
        shoot.eval_series(s, 0.5)
    with pytest.raises(ValueError):
        shoot.eval_series(s, -1e-3)


def test_series_offset_consistency_step_doubling():
    """Launching at delta and delta/2 lands on the same solution at t = 1."""
    s = shoot.series_start(0.4, order=5)
    delta = s.truncation_offset()
    ends = []
    for d in (delta, delta / 2.0):
        start = shoot.eval_series(s, d)
        traj = shoot.integrate_shape(start, d, 1.0, tol=1e-12)
        ends.append(traj.shapes[-1])
    assert np.max(np.abs(ends[0] - ends[1])) <= 1e-8


# -- integration -------------------------------------------------------------------


def test_integrate_shape_against_round_closed_form():
    """Integration from the round solution tracks it to 1e-8 over a t-span of 5."""
    r0 = 1.5
    start = closed_form("bs", r0)
    t1 = r_to_t("bs", r0) + 5.0
    traj = shoot.integrate_shape(start, r_to_t("bs", r0), t1, tol=1e-11)
    for i in range(0, len(traj), max(1, len(traj) // 20)):
        t = traj.params[i]
        r = brentq(lambda rr: r_to_t("bs", rr) - t, r0 - 0.2, 60.0, xtol=1e-13)
        assert np.max(np.abs(traj.shapes[i] - closed_form("bs", r))) <= 1e-8


def test_integrate_shape_rejects_boundary_start():
    lam = math.sqrt((1 - 0.25) / 2)
    with pytest.raises(ValueError):
        shoot.integrate_shape(ShapeState(0.5, lam, 0.0, lam), 0.0, 1.0)
    with pytest.raises(ValueError):
        shoot.integrate_shape(ShapeState(1, 1, 1, 1), 1.0, 0.5)


def _recording(monkeypatch, name):
    """Replace the DP54 field shoot.<name> by one that records every state it is given."""
    calls = []
    field = getattr(shoot, name)
    monkeypatch.setattr(shoot, name, lambda y: calls.append(list(y)) or field(y))
    return calls


def test_integrator_counters(monkeypatch):
    """stats count every field evaluation and bound the accepted steps."""
    calls = _recording(monkeypatch, "_shape_field")
    traj = shoot.family_shape_trajectory(0.5, t_max=60.0, tol=1e-12)
    st = traj.stats
    assert st["evals"] == len(calls) == 1 + 6 * (st["steps"] + st["rejected"])
    h = np.diff(traj.params)
    assert st["h_min"] == pytest.approx(np.min(h), rel=1e-9)
    assert st["h_max"] == pytest.approx(np.max(h), rel=1e-9)

    # a stage that raises ends its attempt early and is counted: y' = 1
    # from 0, so the state tracks the parameter, and the field fails past 1
    def field(y):
        calls.append(y)
        if y[0] > 1.0:
            raise ValueError("outside the domain")
        return [1.0, 1.0]

    calls.clear()
    _, _, term, st = shoot._integrate(field, 0.0, np.zeros(2), 2.0, 1e-10)
    attempts = st["steps"] + st["rejected"]
    assert term == shoot.STEP_FAILURE
    assert attempts < st["evals"] == len(calls) < 1 + 6 * attempts
    assert 0.0 < st["h_min"] <= st["h_max"] <= 1.0


def test_stage_zero_is_the_last_stage(monkeypatch):
    """First-same-as-last: an accepted step's stage-6 value starts the next step.

    On a family run no field call repeats the state of the call before
    it.  A projected run evaluates the field again at each projected
    sample that another step follows, unless the projection left the
    state bit for bit unchanged, and a rejected attempt keeps its stage 0.
    """
    calls = _recording(monkeypatch, "_shape_field")
    traj = shoot.family_shape_trajectory(0.5, t_max=60.0, tol=1e-12)
    assert len(calls) == traj.stats["evals"]
    assert all(a != b for a, b in zip(calls, calls[1:]))

    calls = _recording(monkeypatch, "_sphere_field")
    moved = []
    project = shoot._project_sphere
    monkeypatch.setattr(shoot, "_project_sphere",
                        lambda y: moved.append(project(y) != y) or project(y))
    start = np.array([2.0, 3.0, 4.0, 5.0]) / math.sqrt(54.0)
    run = shoot.integrate_sphere(start, 0.0, 10.0)
    st = run.stats
    assert st["rejected"] > 0 and run.termination == shoot.REACHED_HORIZON
    assert len(moved) == st["steps"] and 0 < sum(moved[:-1]) < st["steps"] - 1
    # the start, 6 stages per attempt, the moved projected state of each step but the last
    assert st["evals"] == len(calls) == 1 + 6 * (st["steps"] + st["rejected"]) + sum(moved[:-1])
    called = {tuple(c[:4]) for c in calls}
    assert all(tuple(a) in called for a in run.spheres[:-1].tolist())


def test_float_kernel_on_closed_forms():
    """The DP54 kernel on Python floats: decay and rotation to 1e-8, reruns bit for bit."""
    def decay(y):
        return [-y[0]]

    def rotation(y):
        return [-y[1], y[0]]

    for field, y0, exact in ((decay, [1.0], lambda x: np.exp(-x)[:, None]),
                             (rotation, [1.0, 0.0],
                              lambda x: np.column_stack([np.cos(x), np.sin(x)]))):
        xs, ys, term, st = shoot._integrate(field, 0.0, y0, 5.0, 1e-10)
        assert term == shoot.REACHED_HORIZON and xs[-1] == 5.0
        assert ys.dtype == float and ys.shape == (len(xs), len(y0))
        assert np.max(np.abs(ys - exact(xs))) <= 1e-8
        again = shoot._integrate(field, 0.0, y0, 5.0, 1e-10)
        assert np.array_equal(again[0], xs) and np.array_equal(again[1], ys)
        assert again[3] == st


def test_first_integral_drift_small():
    traj = shoot.family_shape_trajectory(0.5, t_max=50.0, tol=1e-12)
    F = traj.monitor("F")
    assert np.max(np.abs(F - F[0])) <= 1e-8


def test_family_f_initial_matches_seed():
    for mu in (0.2, 0.5):
        traj = shoot.family_shape_trajectory(mu, t_max=1.0)
        assert traj.monitor("F")[0] == pytest.approx(mu * (1 - mu * mu), abs=1e-11)


def test_family_u0_matches_quad(family_shapes):
    """u at the launch offset is the integral of 1/f over the series launch."""
    for mu in MU_GRID:
        s = shoot.series_start(mu)
        delta = s.truncation_offset(1e-12)
        ref, _ = quad(lambda t: 1.0 / np.linalg.norm(t ** np.arange(s.order + 1) @ s.coefficients),
                      0.0, delta, epsabs=1e-16, epsrel=0.0)
        assert abs(family_shapes[mu].stats["u"][0] - ref) <= 1e-15, mu


def test_positivity_along_family(family_shapes):
    for mu in MU_CONVERGING:
        assert np.all(family_shapes[mu].shapes > 0.0)
        assert family_shapes[mu].termination == shoot.REACHED_HORIZON


# Acceptance criterion 5 fails by design beyond the family edge; its clauses
# that hold below the edge are pinned here, at its thresholds, out to t = 200.


def test_first_integral_drift_below_edge(family_shapes):
    for mu in MU_CONVERGING:
        F = family_shapes[mu].monitor("F")
        assert np.max(np.abs(F - F[0])) <= 1e-8 * max(1.0, abs(F[0])), mu


def test_f1_f2_monotone_below_edge(family_shapes):
    for mu in MU_CONVERGING:
        for name in ("F1", "F2"):
            m = family_shapes[mu].monitor(name)
            assert np.all(np.isfinite(m)), (mu, name)
            assert np.min(np.diff(m)) >= -1e-12, (mu, name)


def test_single_g2_sign_change_below_edge(family_shapes):
    """G2 changes sign exactly once, from positive to negative for good."""
    for mu in MU_CONVERGING:
        g2 = family_shapes[mu].monitor("G2")
        assert int(np.sum(np.diff(np.sign(g2[g2 != 0.0])) != 0)) == 1, mu
        first_neg = int(np.argmax(g2 < 0.0))
        assert g2[0] > 0.0 and not np.any(g2[first_neg:] > 0.0), mu


def test_tolerance_scaling():
    """Halving the tolerance moves the endpoint by less than the error budget."""
    s = shoot.series_start(0.5, order=4)
    delta = s.truncation_offset()
    start = shoot.eval_series(s, delta)
    a = shoot.integrate_shape(start, delta, 10.0, tol=1e-8)
    b = shoot.integrate_shape(start, delta, 10.0, tol=5e-9)
    diff = np.max(np.abs(a.shapes[-1] - b.shapes[-1]))
    assert diff <= 10.0 * a.stats["error_sum"]


# -- sphere launch -------------------------------------------------------------------


def test_unstable_direction_closed_form():
    for mu in (0.25, 0.5, 0.75):
        lam = math.sqrt((1 - mu * mu) / 2)
        e = shoot.unstable_direction(mu)
        expected = np.array([1.0, mu / (4.0 * lam), 0.0])
        expected /= np.linalg.norm(expected)
        assert np.max(np.abs(e - expected)) <= 1e-15


def test_launch_initial_tangent():
    # the early chart samples leave the arc along the unstable direction
    mu = 0.5
    traj = shoot.launch_sphere(mu, eps=1e-5, u_max=1.0)
    p0 = sphere_to_chart(traj.spheres[0])
    p1 = sphere_to_chart(traj.spheres[5])
    d = p1 - p0
    d /= np.linalg.norm(d)
    e = shoot.unstable_direction(mu)
    assert np.arccos(np.clip(abs(np.dot(d, e)), -1, 1)) <= 1e-4


def test_launch_enters_alpha4_above_alpha2(family_launches):
    for mu in MU_CONVERGING:
        traj = family_launches[mu]
        early = traj.spheres[: len(traj) // 4]
        assert np.all(early[:, 3] > early[:, 1])
        assert np.all(early[1:, 2] > 0.0)


def test_launch_validation():
    with pytest.raises(ValueError):
        shoot.launch_sphere(0.5, eps=1e-3)
    with pytest.raises(ValueError):
        shoot.launch_sphere(1.5)


def test_launch_eps_robustness():
    """Halving the launch offset leaves the path unchanged to 1e-6."""
    runs = [shoot.launch_sphere(0.5, eps=e, u_max=10.0, max_step=0.005)
            for e in (1e-5, 5e-6)]
    states = [shoot.sample_at_level(tr, 0.3) for tr in runs]
    assert np.max(np.abs(states[0] - states[1])) <= 1e-6


def test_projection_consistency_series_vs_chart_launch():
    """Both launches trace the same sphere curve through the entry regime."""
    shp = shoot.family_shape_trajectory(0.5, t_max=5.0, tol=1e-12, max_step=0.005)
    lch = shoot.launch_sphere(0.5, eps=1e-5, u_max=6.0, max_step=0.005)
    for level in np.arange(0.05, 0.31, 0.05):
        a = shoot.sample_at_level(shp, level)
        b = shoot.sample_at_level(lch, level)
        assert np.max(np.abs(a - b)) <= 1e-5, f"level {level}"


def test_pi_confinement_until_convergence(family_launches):
    for mu in MU_CONVERGING:
        traj = family_launches[mu]
        _, u_conv = shoot.detect_convergence(traj.spheres, traj.params)
        sel = (traj.params > traj.params[0]) & (traj.params <= u_conv)
        s = traj.spheres[sel]
        assert np.all(s[:, 3] > s[:, 1])
        assert np.all(s[:, 1] > 0.0)
        assert np.all(s[:, 0] > 0.0)
        assert np.all(s[:, 2] > 0.0)


def test_sphere_projection_drift_logged(family_launches):
    for mu in MU_CONVERGING:
        assert family_launches[mu].stats["max_drift"] <= 1e-9
        norms = np.linalg.norm(family_launches[mu].spheres, axis=1)
        assert np.max(np.abs(norms - 1.0)) <= 1e-12


# -- convergence detection -------------------------------------------------------------


def test_detect_convergence_family_member():
    traj = shoot.launch_sphere(0.5, u_max=40.0)
    ok, u_conv = shoot.detect_convergence(traj.spheres, traj.params, tol=1e-6)
    assert ok
    assert 5.0 < u_conv < 40.0


def test_detect_convergence_never_reaches_conic_point():
    traj = shoot.launch_sphere(0.5, u_max=40.0)
    ok, _ = shoot.detect_convergence(traj.spheres, traj.params, target=flow.S1,
                                   tol=1e-6)
    assert not ok


def test_detect_convergence_constant_trajectory():
    traj = constant_trajectory(flow.SINF)
    ok, u0 = shoot.detect_convergence(traj.spheres, traj.params, tol=1e-6)
    assert ok
    assert u0 == traj.params[0]


def test_detect_convergence_requires_staying():
    # a path that enters the ball but leaves again must not count
    sinf = flow.SINF
    away = sinf + np.array([0.3, 0.0, 0.0, 0.0])
    away /= np.linalg.norm(away)
    spheres = np.array([away, sinf, away])
    params = np.array([0.0, 1.0, 2.0])
    ok, _ = shoot.detect_convergence(spheres, params, tol=1e-6)
    assert not ok


# -- asymptotics ----------------------------------------------------------------------


def test_alc_fit_family_slopes(family_shapes):
    expected = np.array([0.0, 1.0 / SQ3, 2.0 / 3.0, 1.0 / SQ3])
    for mu in (0.2, 0.5):
        fit = shoot.alc_fit(family_shapes[mu])
        assert np.max(np.abs(fit.slopes - expected)) <= 2e-2
        assert fit.note == shoot.ALC_NOTE


def test_alc_fit_round_closed_form_slopes():
    # A ~ r/3 and B ~ r/sqrt(3) with t ~ r at infinity
    rs = np.geomspace(1.5, 520.0, 300)
    ts = [r_to_t("bs", rs[0])]
    for i in range(1, len(rs)):
        inc, _ = quad(lambda r: 1.0 / dr_dt("bs", r), rs[i - 1], rs[i],
                      epsabs=1e-14, epsrel=1e-12)
        ts.append(ts[-1] + inc)
    traj = shoot.Trajectory.from_samples("t", ts, shapes=closed_form("bs", rs))
    fit = shoot.alc_fit(traj)
    expected = np.array([1 / 3, 1 / 3, 1 / SQ3, 1 / SQ3])
    assert np.max(np.abs(fit.slopes - expected)) <= 1e-3


def test_alc_fit_exactly_conic_input():
    fit = shoot.alc_fit(constant_trajectory(flow.SINF))
    assert fit.max_relative_deviation <= 1e-12


def test_alc_fit_validation(family_launches):
    with pytest.raises(ValueError):
        shoot.alc_fit(family_launches[0.3])  # u-parameterized
    # samples that cannot carry a fit give no fit: a short horizon, or a
    # trailing window holding only the last sample
    assert shoot.alc_fit(shoot.family_shape_trajectory(0.5, t_max=10.0)) is None
    full = shoot.family_shape_trajectory(0.5, t_max=40.0)
    ends = shoot.Trajectory.from_samples("t", full.params[[0, -1]], shapes=full.shapes[[0, -1]])
    assert shoot.alc_fit(ends) is None


# -- the family edge --------------------------------------------------------------------


def test_escape_beyond_critical_parameter(family_shapes):
    """Above the family edge the wall function G1 goes negative and the
    shape degenerates at finite t; below it trajectories stay inside."""
    for mu in MU_CONVERGING:
        assert not shoot.escapes_invariant_region(family_shapes[mu])
    for mu in (0.6, 0.7, 0.8, 0.9):
        traj = family_shapes[mu]
        assert shoot.escapes_invariant_region(traj)
        assert traj.termination in (shoot.STEP_FAILURE, shoot.POSITIVITY_VIOLATION)
        g2 = traj.monitor("G2")
        assert np.all(g2[np.isfinite(g2)] > 0.0)  # stuck in {G1<0, G2>0}


def test_critical_parameter_location():
    # regression pin; the value was confirmed by 40-digit integration of
    # the wall crossing and is bracketed by the convergent mu = 0.544 and
    # escaping mu = 0.545 members
    mu_star = shoot.critical_parameter(lo=0.53, hi=0.56, tol=1e-6)
    assert mu_star == pytest.approx(0.5441298, abs=1e-5)


MU_EDGE = 0.5441298123449086  # critical_parameter(0.5, 0.6, tol=1e-9)


def test_critical_parameter_pinned():
    assert shoot.critical_parameter(0.5, 0.6, tol=1e-9) == MU_EDGE


@pytest.mark.parametrize("mu", [0.1, 0.3, 0.5, 0.6] + [MU_EDGE + s * d
                                                       for d in (1e-3, 1e-6, 1e-9)
                                                       for s in (-1.0, 1.0)])
def test_decided_stop_keeps_the_escape_decision(mu):
    """A run stopped once decided is a prefix of the full run and decides alike.

    A non-escaping run stops on entering Q = {G1 > 0, G2 < 0}, and the
    full run stays in Q from that sample on.
    """
    full = shoot.family_shape_trajectory(mu, t_max=60.0, tol=1e-12)
    stopped = shoot.family_shape_trajectory(mu, t_max=60.0, tol=1e-12, until_decided=True)
    escapes = shoot.escapes_invariant_region(full)
    assert escapes == (mu > MU_EDGE)
    assert shoot.escapes_invariant_region(stopped) == escapes
    n = len(stopped)
    assert np.array_equal(stopped.params, full.params[:n])
    assert np.array_equal(stopped.shapes, full.shapes[:n])
    assert stopped.stats["steps"] < full.stats["steps"]
    g1 = stopped.monitor("G1")
    if escapes:
        assert stopped.termination == shoot.WALL_CROSSING
        assert g1[-1] < 0.0 and np.all(g1[:-1] >= 0.0)  # stopped at the first crossing
    else:
        assert stopped.termination == shoot.STAYS_INSIDE
        g2 = stopped.monitor("G2")
        assert g1[-1] > 0.0 and g2[-1] < 0.0
        # no earlier sample clears both margins of the stop
        a1, a2, b1, b2 = stopped.shapes[:-1].T
        m = 1e-12 * np.sum(stopped.shapes[:-1] ** 2, axis=1)
        assert not np.any((a2 * b2 - a1 * b1 > m) & (a1 * b2 - a2 * b1 < -m))
        assert np.all(full.monitor("G1")[n - 1:] > 0.0)
        assert np.all(full.monitor("G2")[n - 1:] < 0.0)


def test_critical_parameter_step_count(monkeypatch):
    """The bisection's runs stop once decided: a count, not a clock, guards the cost."""
    runs = []
    run = shoot.family_shape_trajectory

    def counted(*args, **kwargs):
        runs.append(run(*args, **kwargs))
        return runs[-1]

    monkeypatch.setattr(shoot, "family_shape_trajectory", counted)
    assert shoot.critical_parameter(0.5, 0.6, tol=1e-9) == MU_EDGE
    assert len(runs) == 29
    assert {r.termination for r in runs} <= {shoot.WALL_CROSSING, shoot.STAYS_INSIDE}
    assert sum(r.stats["steps"] for r in runs) <= 4700


def test_launch_above_the_edge_stops_at_the_wall(monkeypatch):
    """Past mu* the launch ends at its first sample with G1 < 0, a prefix of the run
    integrated on; a count, not a clock, guards the tail."""
    stopped = shoot.launch_sphere(MU_EDGE + 1e-5)
    g1 = stopped.monitor("G1")
    assert stopped.termination == shoot.WALL_CROSSING
    assert g1[-1] < 0.0 and np.all(g1[:-1] >= 0.0)
    assert stopped.stats["steps"] <= 120
    monkeypatch.setattr(shoot, "_wall_stop", None)
    full = shoot.launch_sphere(MU_EDGE + 1e-5)
    n = len(stopped)
    assert len(full) > n and full.termination != shoot.CONVERGED
    for name in ("params", "spheres", "f"):
        assert np.array_equal(getattr(full, name)[:n], getattr(stopped, name))


def test_launch_below_the_edge_converges():
    below = shoot.launch_sphere(MU_EDGE - 1e-5)
    assert below.termination == shoot.CONVERGED
    assert below.params[-1] == 60.0
    assert np.all(below.monitor("G1") > 0.0)


def test_critical_trajectory_approaches_conic_point():
    # just below the edge the path passes very close to S1 before turning
    traj = shoot.family_shape_trajectory(0.5441297, t_max=60.0, tol=1e-12)
    dmin = np.min(np.linalg.norm(traj.spheres - flow.S1, axis=1))
    assert dmin <= 1e-4
