import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import sympy
from scipy.integrate import quad
from scipy.optimize import brentq

from g2cone import analysis, cli, flow, shoot
from g2cone.analysis import closed_form, dr_dt, r_to_t
from g2cone.exterior import ShapeState
from g2cone.reporting import dump_json
from conftest import MU_CONVERGING, MU_GRID
from helpers import constant_trajectory, sphere_to_chart, with_termination

SQ3 = math.sqrt(3.0)
SRC = Path(__file__).resolve().parents[1] / "src"


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
    for e in shoot._series_residuals(s.coefficients, s.order + 1, odd=True):
        assert np.max(np.abs(e[: s.order])) <= 1e-11  # E1, E3 matched at t^0 .. t^(order-1)
    for e in shoot._series_residuals(s.coefficients, s.order + 1, odd=False):
        assert np.max(np.abs(e[: s.order + 1])) <= 1e-11  # E2, E4 matched at t^1 .. t^order


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
    """Two _series_residuals evaluations per order, one per pair: 8 at the default order 4."""
    calls = []
    residuals = shoot._series_residuals
    monkeypatch.setattr(shoot, "_series_residuals",
                        lambda c, n, odd: calls.append((n, odd)) or residuals(c, n, odd))
    shoot.series_start(0.37, order)
    assert calls == [(k + 1, odd) for k in range(1, order + 1) for odd in (True, False)]


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


@pytest.mark.parametrize("mu", [0.3, 0.5])
def test_eval_series_on_arrays(mu):
    """An array of offsets (...) gives shapes (..., 4), bit for bit the scalar calls;
    one offset past the trust radius rejects the whole array."""
    s = shoot.series_start(mu)
    dmax = s.truncation_offset()
    grid = np.linspace(0.0, dmax, 40).reshape(2, 20)
    shapes = shoot.eval_series(s, grid)
    assert shapes.shape == (2, 20, 4)
    assert np.array_equal(shapes, [[shoot.eval_series(s, float(t)) for t in row]
                                   for row in grid])
    for bad in (np.nextafter(dmax, 1.0), math.nan):
        grid[1, 7] = bad
        with pytest.raises(ValueError, match="trust interval"):
            shoot.eval_series(s, grid)


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
        t = traj.t[i]
        r = brentq(lambda rr: r_to_t("bs", rr) - t, r0 - 0.2, 60.0, xtol=1e-13)
        assert np.max(np.abs(traj.shapes[i] - closed_form("bs", r))) <= 1e-8


def test_integrate_shape_rejects_boundary_start():
    lam = math.sqrt((1 - 0.25) / 2)
    with pytest.raises(ValueError):
        shoot.integrate_shape(ShapeState(0.5, lam, 0.0, lam), 0.0, 1.0)
    with pytest.raises(ValueError):
        shoot.integrate_shape(ShapeState(1, 1, 1, 1), 1.0, 0.5)


def _recording(monkeypatch, module, name):
    """Replace the DP54 field module.<name> by one that records every state it is given."""
    calls = []
    field = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *y: calls.append(list(y)) or field(*y))
    return calls


def test_integrator_counters(monkeypatch):
    """stats count every field evaluation and bound the accepted steps."""
    calls = _recording(monkeypatch, shoot, "_shape_field")
    traj = shoot.family_shape_trajectory(0.5, t_max=60.0, tol=1e-12)
    st = traj.stats
    assert st["evals"] == len(calls) == 1 + 6 * (st["steps"] + st["rejected"])
    h = np.diff(traj.t)
    assert st["h_min"] == pytest.approx(np.min(h), rel=1e-9)
    assert st["h_max"] == pytest.approx(np.max(h), rel=1e-9)

    # a stage that raises ends its attempt early and is counted: y' = 1
    # from 0, so the state tracks the parameter, and the field fails past 1
    def field(*y):
        calls.append(y)
        if y[0] > 1.0:
            raise ValueError("outside the domain")
        return [1.0] * 5

    calls.clear()
    _, _, term, st = flow._integrate(field, 0.0, np.zeros(5), 2.0, 1e-10)
    attempts = st["steps"] + st["rejected"]
    assert term == shoot.STEP_FAILURE
    assert attempts < st["evals"] == len(calls) < 1 + 6 * attempts
    assert 0.0 < st["h_min"] <= st["h_max"] <= 1.0


def test_non_finite_attempts_are_rejected():
    """An attempt is rejected with h *= 0.2 when its error norm or its new state is
    not finite, also when no stage raises.

    A field that returns NaN or inf past y0 = 1 (and at NaN) rejects exactly the
    attempts that a raising field rejects: the same samples and step counters, six
    evaluations per attempt.  A field of 1.7e308 leaves the error norm finite (its
    weights cancel, and max(|p|, |z|) = inf scales it to 0) while the weighted sum of
    the new state overflows to inf: every attempt is rejected, each with a fifth of
    the step before, until the step falls below its floor.
    """
    def field(bad):
        def fn(*y):
            calls.append(y)
            if y[0] <= 1.0:
                return (1.0,) * 5
            if bad is None:
                raise ValueError("outside the domain")
            return (bad,) * 5
        return fn

    runs = {}
    for bad in (None, math.nan, math.inf):
        calls = []
        runs[bad] = flow._integrate(field(bad), 0.0, np.zeros(5), 2.0, 1e-10)
        st = runs[bad][3]
        assert st["evals"] == len(calls)
        assert (st["steps"], st["rejected"]) == (53, 54)
    for bad in (math.nan, math.inf):
        xs, ys, term, st = runs[bad]
        assert np.array_equal(xs, runs[None][0]) and np.array_equal(ys, runs[None][1])
        assert term == shoot.STEP_FAILURE
        assert {**st, "evals": None} == {**runs[None][3], "evals": None}
        assert st["evals"] == 1 + 6 * (53 + 54) > runs[None][3]["evals"]

    calls = []
    xs, ys, term, st = flow._integrate(lambda *y: calls.append(y) or (1.7e308,) * 5,
                                       0.0, [1e300] * 5, 1.0, 1e-10)
    assert term == shoot.STEP_FAILURE and len(xs) == 1
    assert (st["steps"], st["rejected"], st["evals"]) == (0, 4, 25)
    # each attempt's step, from its stage-1 state p + (h / 5) k
    h = [5.0 * (c[0] - 1e300) / 1.7e308 for c in calls[1::6]]
    assert all(b == pytest.approx(0.2 * a, rel=1e-12) for a, b in zip(h, h[1:]))
    assert 0.2 * h[-1] < 1e-13 <= h[-1]


def test_stage_zero_is_the_last_stage(monkeypatch):
    """First-same-as-last: an accepted step's stage-6 value starts the next step.

    On a family run no field call repeats the state of the call before
    it.  A projected run evaluates the field again at each projected
    sample that another step follows, unless the projection left the
    state bit for bit unchanged, and a rejected attempt keeps its stage 0.
    """
    calls = _recording(monkeypatch, shoot, "_shape_field")
    traj = shoot.family_shape_trajectory(0.5, t_max=60.0, tol=1e-12)
    assert len(calls) == traj.stats["evals"]
    assert all(a != b for a, b in zip(calls, calls[1:]))

    calls = _recording(monkeypatch, flow, "_sphere_rate")
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
    """The DP54 kernel on Python floats: decay and rotation to 1e-8, reruns bit for bit.

    Five decays at distinct rates, and a rotation in (y0, y1) beside three
    decays: every component of the five-float step meets a closed form.
    """
    rates = (1.0, 0.5, 2.0, 0.25, 1.5)

    def decay(*y):
        return [-c * v for c, v in zip(rates, y)]

    def rotation(*y):
        return [-y[1], y[0], -0.5 * y[2], -2.0 * y[3], -0.25 * y[4]]

    def decays(x, cs):
        return np.exp(-np.outer(x, cs))

    for field, exact in ((decay, lambda x: decays(x, rates)),
                         (rotation, lambda x: np.column_stack(
                             [np.cos(x), np.sin(x), decays(x, (0.5, 2.0, 0.25))]))):
        y0 = exact(np.zeros(1))[0].tolist()
        xs, ys, term, st = flow._integrate(field, 0.0, y0, 5.0, 1e-10)
        assert term == shoot.REACHED_HORIZON and xs[-1] == 5.0
        assert ys.dtype == float and ys.shape == (len(xs), 5)
        assert np.max(np.abs(ys - exact(xs))) <= 1e-8
        again = flow._integrate(field, 0.0, y0, 5.0, 1e-10)
        assert np.array_equal(again[0], xs) and np.array_equal(again[1], ys)
        assert again[3] == st


@pytest.mark.parametrize("n", [4, 6])
def test_integrate_rejects_other_state_lengths(n):
    """The DP54 state has five components; another length raises before any field call."""
    calls = []
    with pytest.raises(ValueError, match="5 components"):
        flow._integrate(lambda *y: calls.append(y) or [0.0] * n, 0.0, [1.0] * n, 1.0, 1e-10)
    assert calls == []


SPHERE_START = "np.array([2.0, 3.0, 4.0, 5.0]) / math.sqrt(54.0)"


@pytest.mark.parametrize("call, fresh", [
    # a NaN max_step would keep h NaN, so the step-collapse guard would never end the loop
    pytest.param(f"shoot.integrate_sphere({SPHERE_START}, 0.0, 10.0, max_step=math.nan)", True,
                 id="sphere-nan-max-step"),
    pytest.param("shoot.family_shape_trajectory(0.3, t_max=5.0, max_step=math.nan)", True,
                 id="family-nan-max-step"),
    pytest.param(f"shoot.integrate_sphere({SPHERE_START}, 0.0, 10.0, max_step=0.0)", False,
                 id="zero-max-step"),
    pytest.param(f"shoot.integrate_sphere({SPHERE_START}, 0.0, math.nan)", False,
                 id="nan-horizon"),
    pytest.param(f"shoot.integrate_sphere({SPHERE_START}, math.nan, 10.0)", False,
                 id="nan-start-parameter"),
    pytest.param(f"shoot.integrate_sphere({SPHERE_START}, 0.0, 10.0, tol=-1.0)", False,
                 id="negative-tol"),
    pytest.param(f"shoot.integrate_sphere({SPHERE_START}, 0.0, 10.0, tol=math.nan)", False,
                 id="nan-tol"),
    pytest.param("shoot.integrate_sphere(np.full(4, math.nan), 0.0, 10.0)", False,
                 id="nan-sphere-start"),
    pytest.param("shoot.integrate_shape([1.0, 1.0, math.nan, 1.0], 0.0, 1.0)", False,
                 id="nan-shape-start"),
    pytest.param("shoot.integrate_shape([1.0, 1.0, 1.0, 1.0], 0.0, math.nan)", False,
                 id="nan-shape-horizon"),
    # a horizon at or before the start leaves nothing to integrate
    pytest.param("shoot.integrate_sphere(shoot.flow.SINF, 5.0, 1.0)", False,
                 id="sphere-horizon-before-start"),
    pytest.param("shoot.integrate_sphere(shoot.flow.SINF, 5.0, 5.0)", False,
                 id="sphere-horizon-at-start"),
    pytest.param("shoot.integrate_shape([1.0, 1.0, 1.0, 1.0], 5.0, 1.0)", False,
                 id="shape-horizon-before-start"),
    pytest.param("shoot.integrate_shape([1.0, 1.0, 1.0, 1.0], 5.0, 5.0)", False,
                 id="shape-horizon-at-start"),
    # _integrate checks the interval itself: a field call would raise ZeroDivisionError
    pytest.param("flow._integrate(lambda *y: 1 / 0, 5.0, [1.0] * 5, 5.0, 1e-10)", False,
                 id="dp54-horizon-at-start"),
    # u_max = 0.001 lies before the chart switch (u ~ 0.005)
    pytest.param("shoot.launch_sphere(0.3, u_max=0.001)", False,
                 id="launch-horizon-before-switch"),
])
def test_integration_rejects_nan_and_bad_controls(call, fresh):
    """A NaN start, horizon, tolerance or step cap, a horizon at or before the start, a
    negative tolerance and a step cap at or below zero raise ValueError before any step
    of the integration they configure.  A NaN step cap would loop for ever, so those
    calls run in a fresh interpreter under a timeout: a regression fails."""
    if not fresh:
        with pytest.raises(ValueError):
            eval(call, {"math": math, "np": np, "flow": flow, "shoot": shoot})
        return
    code = ("import math\nimport numpy as np\nfrom g2cone import shoot\n"
            f"try:\n    {call}\nexcept ValueError:\n    raise SystemExit(0)\n"
            "raise SystemExit('no ValueError')")
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(SRC)),
                          capture_output=True, text=True, timeout=20)
    assert proc.returncode == 0, proc.stderr


def _hex(v):
    """float.hex of v, or of every float in a list or dict of them; other values as given."""
    if isinstance(v, dict):
        return {k: _hex(w) for k, w in v.items()}
    if isinstance(v, list):
        return [_hex(w) for w in v]
    return float(v).hex() if isinstance(v, float) else v


def test_kernel_bits_pinned(monkeypatch):
    """The last sample and stats of a family run and of a sphere launch, bit for bit.

    The golden gate compares to 1e-12 relative; these hex values were
    recorded from the DP54 kernel written over lists, and any rewrite of
    the kernel must reproduce them exactly.  The launch is pinned twice: as
    it runs, stopped in the trapping set of SINF, and with only the wall
    stop, on to the u = 60 horizon as it was recorded.
    """
    traj = shoot.family_shape_trajectory(0.5, t_max=60.0, tol=1e-12)
    assert (len(traj), traj.termination) == (322, shoot.REACHED_HORIZON)
    assert _hex([traj.t[-1], *traj.shapes[-1], traj.u[-1]]) == [
        "0x1.e000000000000p+5", "0x1.d604437b4c356p-1", "0x1.13414c4b57794p+5",
        "0x1.419738b6ce3bfp+5", "0x1.199c92e2a7d7ap+5", "0x1.09628864a6cb0p+2"]
    assert _hex(traj.stats) == {
        "steps": 321, "rejected": 0, "evals": 1927, "h_min": "0x1.541678e368066p-9",
        "h_max": "0x1.af48f371c9bc1p+0", "max_drift": "0x0.0p+0",
        "error_sum": "0x1.1afe51759d0d0p-29"}

    launch = shoot.launch_sphere(0.3)
    assert (len(launch), launch.termination) == (326, shoot.CONVERGED)
    assert _hex([launch.u[-1], *launch.spheres[-1], launch.f[-1]]) == [
        "0x1.90b2f56880453p+3", "0x1.6dff59e4a07c9p-21", "0x1.186f0d67d32dcp-1",
        "0x1.43d13624849b7p-1", "0x1.186f21373c0c3p-1", "0x1.dc26224ddcecfp+18"]
    assert _hex(launch.stats) == {
        "steps": 243, "rejected": 0, "evals": 1684, "h_min": "0x1.731c274c335f9p-13",
        "h_max": "0x1.0000000000000p-2", "max_drift": "0x1.6c00000000000p-43",
        "error_sum": "0x1.96d09c126d31cp-28",
        "chart": {"v_span": "0x1.ba93034a487afp+1", "steps": 82,
                  "u_switch": "0x1.47c640c3fdeb8p-8"}}

    monkeypatch.setattr(shoot, "sphere_stop", lambda conv_tol: shoot._wall_stop)
    launch = shoot.launch_sphere(0.3)
    assert (len(launch), launch.termination) == (516, shoot.CONVERGED)
    assert _hex([launch.u[-1], *launch.spheres[-1], launch.f[-1]]) == [
        "0x1.e000000000000p+5", "0x1.3e439a993f0edp-93", "0x1.186f174f88472p-1",
        "0x1.43d136248490fp-1", "0x1.186f174f88473p-1", "0x1.11c9d63c39e0bp+91"]
    assert _hex(launch.stats) == {
        "steps": 433, "rejected": 0, "evals": 2834, "h_min": "0x1.731c274c335f9p-13",
        "h_max": "0x1.0000000000000p-2", "max_drift": "0x1.6c00000000000p-43",
        "error_sum": "0x1.970ba05d1c568p-28",
        "chart": {"v_span": "0x1.ba93034a487afp+1", "steps": 82,
                  "u_switch": "0x1.47c640c3fdeb8p-8"}}


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
        assert abs(family_shapes[mu].u[0] - ref) <= 1e-15, mu


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


# -- cumulative quadrature --------------------------------------------------------


@pytest.mark.parametrize("a, b, bad", [
    (0.0, math.inf, "inf"),
    (0.0, -math.inf, "-inf"),
    (math.inf, 1.0, "inf"),
    (0.0, math.nan, "nan"),
    (math.nan, 1.0, "nan"),
    (0.0, np.array([1.0, math.nan, 2.0]), "nan"),
])
def test_gauss_legendre_rejects_non_finite_limits(a, b, bad):
    with pytest.raises(ValueError, match=f"finite limits, got {bad}$"):
        flow.gauss_legendre(np.cos, a, b)


def test_gauss_legendre_evaluation_count(monkeypatch):
    """The cost is counted, not clocked.  The oracle's 260 radii
    (its fit of the round closed form) cut the span into 260 gaps of one panel each:
    5,200 abscissae, at most 6,000.  Integrating every end from a on its
    own gave each 18 panels, 93,600 abscissae.  A one-end call over
    [0, 1e-3] keeps its 8 panels of 20 nodes: exactly 160."""
    seen = []

    def counting(fn, a, b, _rule=flow.gauss_legendre):
        return _rule(lambda x: seen.append(x.size) or fn(x), a, b)

    monkeypatch.setattr(flow, "gauss_legendre", counting)
    analysis.r_to_t("bs", np.geomspace(1.5, 300.0, 260))
    assert sum(seen) <= 6000
    seen.clear()
    counting(np.exp, 0.0, 1e-3)
    assert seen == [160]


def test_gauss_legendre_panels_per_gap(monkeypatch):
    """Each gap gets its own panel count: 30 radii in [1.5, 2] plus 1e6 cost
    one panel per clustered gap and about 1,000 for the far one, at most
    21,000 abscissae (619,380 when every gap took the widest gap's count),
    with values equal to the one-end calls to rounding."""
    seen = []

    def counting(fn, a, b, _rule=flow.gauss_legendre):
        return _rule(lambda x: seen.append(x.size) or fn(x), a, b)

    monkeypatch.setattr(flow, "gauss_legendre", counting)
    rs = np.append(np.linspace(1.5, 2.0, 30), 1e6)
    batch = r_to_t("bs", rs)
    assert sum(seen) <= 21_000
    for r, t in zip(rs, batch):
        assert t == pytest.approx(r_to_t("bs", r), rel=1e-15, abs=0.0), r


def test_gauss_legendre_panel_budget():
    """Past its panel budget the rule raises ValueError before it builds an array:
    ends of 1e8 and 1e12 would ask for 14.9 GiB and 7.28 TiB of abscissae.  Run in
    a fresh interpreter whose address space is capped at 3 GiB (resource acts on
    that process only), so a regression fails with MemoryError and cannot take the
    machine's memory.  The widest end inside the budget still integrates."""
    code = ("import resource\n"
            "resource.setrlimit(resource.RLIMIT_AS, (3 << 30, resource.getrlimit("
            "resource.RLIMIT_AS)[1]))\n"
            "import math\nimport numpy as np\nfrom g2cone import flow\n"
            "top = float(flow._GL_MAX_PANELS)\n"
            "assert abs(flow.gauss_legendre(np.cos, 0.0, top) - math.sin(top)) <= 1e-9\n"
            "for end in (1e8, 1e12, top + 0.5):\n"
            "    try:\n"
            "        flow.gauss_legendre(np.cos, 0.0, end)\n"
            "    except ValueError as exc:\n"
            "        assert 'budget' in str(exc), exc\n"
            "    else:\n"
            "        raise SystemExit(f'no ValueError at {end}')\n")
    env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_gauss_legendre_cumulative_edge_cases():
    """Unsorted and repeated ends, an end equal to a, ends on both sides of
    a, and a 2-D b all follow the one-end rule."""
    b = np.array([3.0, 1.0, 3.0, 0.5, 2.0, 1.0, 0.5])
    got = flow.gauss_legendre(np.cos, 0.5, b)
    assert got.shape == b.shape
    assert got[0] == got[2] and got[1] == got[5] and got[3] == got[6] == 0.0
    assert flow.gauss_legendre(np.cos, 0.5, 0.5) == 0.0
    np.testing.assert_allclose(got, np.sin(b) - np.sin(0.5), rtol=0.0, atol=1e-15)
    grid = np.array([[-2.5, 7.25], [0.1, 2.0]])  # both sides of a, shape kept
    got = flow.gauss_legendre(np.exp, 0.5, grid)
    assert got.shape == (2, 2)
    np.testing.assert_allclose(got, np.exp(grid) - np.exp(0.5), rtol=1e-14)
    t = r_to_t("singular", np.array([0.5, 2.0]))
    assert t[0] < 0.0 < t[1]


def test_gauss_legendre_nodes_are_leggauss():
    """The literal 20-point nodes and weights are numpy's leggauss(20) bit for bit,
    exactly mirrored, and read-only."""
    x, w = np.polynomial.legendre.leggauss(20)
    assert np.array_equal(flow._GL_X, x) and np.array_equal(flow._GL_W, w)
    assert np.array_equal(flow._GL_X, -flow._GL_X[::-1])
    assert np.array_equal(flow._GL_W, flow._GL_W[::-1])
    assert not flow._GL_X.flags.writeable and not flow._GL_W.flags.writeable


def test_r_to_t_batch_matches_one_end_calls():
    """Each batch entry agrees with its own one-end call to 1e-14 relative,
    and the one-end call keeps its bits."""
    assert r_to_t("bs", 3.0).hex() == "0x1.4536658ed178ep+1"
    cases = {"bs": np.geomspace(1.5, 300.0, 260),
             "bgg": np.array([50.0, 2.5, 2.25, 1e5, 5.0]),
             "singular": np.array([2.0, 1e-6, 0.5, 1.0, 1e5, 0.5])}
    for kind, rs in cases.items():
        batch = r_to_t(kind, rs)
        for r, t in zip(rs, batch):
            assert t == pytest.approx(r_to_t(kind, r), rel=1e-14, abs=0.0), (kind, r)


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
        _, u_conv = shoot.detect_convergence(traj.spheres, traj.u)
        sel = (traj.u > traj.u[0]) & (traj.u <= u_conv)
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
    ok, u_conv = shoot.detect_convergence(traj.spheres, traj.u, tol=1e-6)
    assert ok
    assert 5.0 < u_conv < 40.0


def test_detect_convergence_never_reaches_conic_point():
    traj = shoot.launch_sphere(0.5, u_max=40.0)
    assert np.min(np.linalg.norm(traj.spheres - flow.S1, axis=1)) > 1e-6


def test_detect_convergence_constant_trajectory():
    traj = constant_trajectory(flow.SINF)
    ok, u0 = shoot.detect_convergence(traj.spheres, traj.t, tol=1e-6)
    assert ok
    assert u0 == traj.t[0]


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


def test_stats_hold_counters_only(family_shapes, family_launches):
    """A family run, a sphere run and a launch carry only the integrator's counters in
    stats, ints and floats (a launch's chart block a dict of them), which dump_json
    writes; the samples' t and u are columns of the trajectory."""
    launch = family_launches[0.3]
    tail = shoot.integrate_sphere(launch.spheres[-1], launch.u[-1], launch.u[-1] + 1.0)
    for traj in (family_shapes[0.5], tail, launch):
        stats = dict(traj.stats)
        chart = stats.pop("chart", {})
        assert isinstance(chart, dict)
        for v in (*stats.values(), *chart.values()):
            assert type(v) in (int, float), (traj.termination, v)
        dump_json(traj.stats)
    assert set(launch.stats["chart"]) == {"v_span", "steps", "u_switch"}
    assert family_shapes[0.5].t is not None and launch.t is None


def test_launch_chart_phase_must_reach_the_switch(monkeypatch):
    """A chart phase that cannot reach the switch threshold raises with its termination:
    x = 0.5 lies outside the chart radius 0.35, so the steps collapse before it."""
    monkeypatch.setattr(shoot, "CHART_SWITCH_X", 0.5)
    with pytest.raises(RuntimeError, match=r"did not reach the switch threshold \(step-failure\)"):
        shoot.launch_sphere(0.3)


def test_alc_fit_family_slopes(family_shapes):
    expected = np.array([0.0, 1.0 / SQ3, 2.0 / 3.0, 1.0 / SQ3])
    for mu in (0.2, 0.5):
        fit = shoot.alc_fit(family_shapes[mu].t, family_shapes[mu].shapes)
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
    fit = shoot.alc_fit(ts, closed_form("bs", rs))
    expected = np.array([1 / 3, 1 / 3, 1 / SQ3, 1 / SQ3])
    assert np.max(np.abs(fit.slopes - expected)) <= 1e-3


def test_alc_fit_exactly_conic_input():
    traj = constant_trajectory(flow.SINF)
    fit = shoot.alc_fit(traj.t, traj.shapes)
    assert fit.max_relative_deviation <= 1e-12


def test_alc_fit_validation(family_launches):
    with pytest.raises(ValueError):
        shoot.alc_fit(family_launches[0.3].t, family_launches[0.3].shapes)  # no t
    # samples that cannot carry a fit give no fit: a short horizon, or a
    # trailing window holding only the last sample
    short = shoot.family_shape_trajectory(0.5, t_max=10.0)
    assert shoot.alc_fit(short.t, short.shapes) is None
    full = shoot.family_shape_trajectory(0.5, t_max=40.0)
    assert shoot.alc_fit(full.t[[0, -1]], full.shapes[[0, -1]]) is None


# -- the family edge --------------------------------------------------------------------


def escapes_invariant_region(traj: shoot.Trajectory) -> bool:
    """True when the wall function G1 = a2 a4 - a1 a3 goes negative.

    Once a trajectory crosses G1 = 0 while G2 > 0 it cannot return
    (d G1 / du = -(2/alpha2) G2 on the wall); such trajectories run to
    the corner alpha2 = alpha3 = alpha4 = 0 and the shape degenerates at
    finite t, so no complete metric arises.  A path in Q = {G1 > 0, G2 < 0} never escapes.
    """
    return bool(np.any(traj.monitor("G1") < 0.0))


def test_escape_beyond_critical_parameter(family_shapes):
    """Above the family edge the wall function G1 goes negative and the
    shape degenerates at finite t; below it trajectories stay inside."""
    for mu in MU_CONVERGING:
        assert not escapes_invariant_region(family_shapes[mu])
    for mu in (0.6, 0.7, 0.8, 0.9):
        traj = family_shapes[mu]
        assert escapes_invariant_region(traj)
        assert traj.termination in (shoot.STEP_FAILURE, shoot.POSITIVITY_VIOLATION)
        g2 = traj.monitor("G2")
        assert np.all(g2[np.isfinite(g2)] > 0.0)  # stuck in {G1<0, G2>0}


def test_critical_parameter_location():
    # regression pin; the edge rests on the decided family-run verdicts (the
    # wall crossing and the entry into Q, test_decided_stop_keeps_the_escape_decision)
    # and on the chart launches at mu* -/+ 1e-5 (test_launch_below_the_edge_converges,
    # test_launch_above_the_edge_stops_at_the_wall), and is bracketed by the
    # convergent mu = 0.544 and escaping mu = 0.545 members; a high-precision route
    # is still open (ROADMAP item 8)
    mu_star = shoot.critical_parameter(lo=0.53, hi=0.56, tol=1e-6)
    assert mu_star == pytest.approx(0.5441298, abs=1e-5)


MU_EDGE = 0.5441298122028686  # critical_parameter(0.5, 0.6, tol=1e-9), probes at rtol 1e-10
MU_EDGE_BRENT = 0.5441298122338323  # the same call when Brent's zeroin picked the probes
MU_EDGE_RTOL_1E12 = 0.5441298121789304  # the same call by zeroin, every probe at rtol 1e-12
MU_EDGE_BISECTION = 0.5441298123449086  # the same call when it bisected the bracket
# critical_parameter(0.5, 0.6, math.ulp(0.6)): the edge of the runs at rtol 1e-12
MU_EDGE_FLOAT = 0.5441298121568525


def test_critical_parameter_pinned():
    """mu* to the last bit, and README quotes the same value."""
    assert shoot.critical_parameter(0.5, 0.6, tol=1e-9) == MU_EDGE
    assert repr(MU_EDGE) in (SRC.parent / "README.md").read_text(encoding="utf-8")


@pytest.mark.parametrize("mu", [0.1, 0.3, 0.5, 0.6] + [edge + s * d
                                                       for edge in (MU_EDGE_BISECTION,
                                                                    MU_EDGE_RTOL_1E12,
                                                                    MU_EDGE_FLOAT,
                                                                    MU_EDGE_BRENT)
                                                       for d in (1e-3, 1e-6, 1e-9)
                                                       for s in (-1.0, 1.0)])
def test_decided_stop_keeps_the_escape_decision(mu):
    """A run stopped once decided is a prefix of the full run and decides alike,
    around the edge of the runs at rtol 1e-12 (the float-spacing search) and the
    values that earlier searches returned: Brent's zeroin with its probes at rtol
    1e-10 and at 1e-12, and the bisection.

    A non-escaping run stops on entering Q = {G1 > 0, G2 < 0}, and the
    full run stays in Q from that sample on.
    """
    full = shoot.family_shape_trajectory(mu, t_max=60.0, tol=1e-12)
    stopped = shoot.family_shape_trajectory(mu, t_max=60.0, tol=1e-12, until_decided=True)
    escapes = escapes_invariant_region(full)
    assert escapes == (mu > MU_EDGE_FLOAT)
    assert escapes_invariant_region(stopped) == escapes
    n = len(stopped)
    assert np.array_equal(stopped.t, full.t[:n])
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


def _counted_edge_search(monkeypatch, *args):
    """critical_parameter(*args) and its runs as [(mu, trajectory)], in call order."""
    runs = []
    run = shoot.family_shape_trajectory

    def counted(mu, *rest, **kwargs):
        runs.append((mu, run(mu, *rest, **kwargs)))
        return runs[-1][1]

    monkeypatch.setattr(shoot, "family_shape_trajectory", counted)
    return shoot.critical_parameter(*args), runs


def _final_bracket(result, runs, tol):
    """The probes (lo, hi) that result is the midpoint of: lo stays inside, hi crosses
    the wall, and they lie at most tol apart."""
    inside = [mu for mu, r in runs if r.termination == shoot.STAYS_INSIDE]
    wall = [mu for mu, r in runs if r.termination == shoot.WALL_CROSSING]
    ends = [(lo, hi) for lo in inside for hi in wall
            if abs(hi - lo) <= tol and 0.5 * (lo + hi) == result]
    assert ends, f"{result!r} is not the midpoint of a decided bracket of width <= {tol}"
    return ends[0]


def test_critical_parameter_step_count(monkeypatch):
    """The search's runs stop once decided, and its dwell values cut their number:
    a count, not a clock, guards the cost."""
    mu_star, runs = _counted_edge_search(monkeypatch, 0.5, 0.6, 1e-9)
    assert mu_star == MU_EDGE
    assert len(runs) <= 12
    assert {r.termination for _, r in runs} <= {shoot.WALL_CROSSING, shoot.STAYS_INSIDE}
    assert sum(r.stats["steps"] for _, r in runs) <= 800
    _final_bracket(mu_star, runs, 1e-9)


def test_critical_parameter_wide_bracket(monkeypatch):
    """From (0.01, 0.99), where the dwell value is least linear, the secant steps
    still close a decided bracket to 1e-9 within a count of runs."""
    mu_star, runs = _counted_edge_search(monkeypatch, 0.01, 0.99, 1e-9)
    _final_bracket(mu_star, runs, 1e-9)
    assert len(runs) <= 14


@pytest.mark.parametrize("h", [0.0, math.nan, math.inf])
def test_critical_parameter_degenerate_dwell_values(monkeypatch, h):
    """Dwell values with no secant root (+-0.0, NaN, +-inf, each carrying the run's
    verdict) leave the midpoint: the search still ends on a decided bracket."""
    probe = shoot._edge_probe

    def degenerate(mu, rtol):
        verdict, _ = probe(mu, rtol)
        return verdict, math.copysign(h, verdict)

    monkeypatch.setattr(shoot, "_edge_probe", degenerate)
    mu_star, runs = _counted_edge_search(monkeypatch, 0.5, 0.6, 1e-6)
    lo, hi = _final_bracket(mu_star, runs, 1e-6)
    mids = [0.5, 0.6]
    for mu, _ in runs[2:]:  # every probe bisects the bracket left by the ones before
        assert mu == 0.5 * (mids[0] + mids[1])
        mids[mu > MU_EDGE_FLOAT] = mu
    assert (lo, hi) == tuple(mids)


def test_critical_parameter_secant_root_on_an_end(monkeypatch):
    """Lopsided dwell values put the secant root next to the inside end, where tol/2
    at the float spacing rounds back onto the end: the midpoint stands in, and the
    search still ends on two adjacent floats."""
    probe, calls = shoot._edge_probe, []

    def lopsided(mu, rtol):
        calls.append(mu)
        assert len(calls) <= 100, "the search does not close the bracket"
        verdict, _ = probe(mu, rtol)
        return verdict, 1e300 if verdict > 0.0 else -1.0

    monkeypatch.setattr(shoot, "_edge_probe", lopsided)
    mu_star, runs = _counted_edge_search(monkeypatch, 0.5, 0.6, math.ulp(0.6))
    lo, hi = _final_bracket(mu_star, runs, math.ulp(0.6))
    assert hi == math.nextafter(lo, 1.0) and calls[2] == 0.55


@pytest.fixture(scope="module")
def float_spacing_search():
    """critical_parameter(0.5, 0.6, math.ulp(0.6)) and its runs, searched once."""
    with pytest.MonkeyPatch.context() as patch:
        return _counted_edge_search(patch, 0.5, 0.6, math.ulp(0.6))


def test_critical_parameter_at_the_float_spacing(float_spacing_search):
    """The smallest accepted tol ends on a bracket of two adjacent floats."""
    mu_star, runs = float_spacing_search
    lo, hi = _final_bracket(mu_star, runs, math.ulp(0.6))
    assert hi == math.nextafter(lo, 1.0)
    assert mu_star == MU_EDGE_FLOAT
    assert len(runs) <= 20


@pytest.mark.parametrize("tol", [1e-9, 1e-6, 1e-3])
def test_critical_parameter_error_budget(monkeypatch, float_spacing_search, tol):
    """Probes at rtol = tol / 10 keep the result within the bracket's half-width plus
    tol / 20 for the integrator (it measured at most 0.035 tol) of the float-spacing
    search, whose probes run at the 1e-12 floor.  Probes kept tol/2 inside the
    bracket close it in 10, 9 and 6 runs (one more at 1e-6 and 1e-3 without that push)."""
    reference, _ = float_spacing_search
    mu_star, runs = _counted_edge_search(monkeypatch, 0.5, 0.6, tol)
    assert abs(mu_star - reference) <= 0.55 * tol
    assert len(runs) <= {1e-9: 10, 1e-6: 9, 1e-3: 6}[tol]


@pytest.mark.parametrize("termination", [shoot.REACHED_HORIZON, shoot.STEP_FAILURE,
                                         shoot.POSITIVITY_VIOLATION])
def test_undecided_edge_probe_raises(monkeypatch, termination):
    """A probe that neither crosses the wall nor enters Q decides nothing: it raises
    instead of moving the inside end of the bracket."""
    run = shoot.family_shape_trajectory

    def undecided(mu, *args, **kwargs):
        return with_termination(run(mu, *args, **kwargs), termination)

    monkeypatch.setattr(shoot, "family_shape_trajectory", undecided)
    with pytest.raises(RuntimeError, match=rf"mu=0\.5, rtol=1e-10: {termination}$"):
        shoot.critical_parameter(0.5, 0.6, 1e-9)


@pytest.mark.parametrize("lo, hi, tol", [
    (0.5, 0.6, math.nan), (0.5, 0.6, 0.0), (0.5, 0.6, -1e-9),
    (0.5, 0.6, 0.5 * math.ulp(0.6)),  # below the float spacing at hi
    (0.6, 0.5, 1e-9), (0.55, 0.55, 1e-9), (math.nan, 0.6, 1e-9), (0.5, math.nan, 1e-9),
    (0.55, 0.6, 1e-9)])  # both ends beyond the edge
def test_critical_parameter_rejects_bad_input(monkeypatch, lo, hi, tol):
    """A bad tol or bracket is rejected before any run (a NaN tol would return the
    unrefined midpoint, and a tol at or below zero would never end); a bracket that
    does not straddle the edge, after its two end runs."""
    with pytest.raises(ValueError):
        _counted_edge_search(monkeypatch, lo, hi, tol)


def test_edge_probe_dwell_value():
    """The dwell literals are the unstable eigendata at S1, and h carries the
    verdict's sign and increases strictly through the edge, at the 1e-12 floor and
    at the rtol 1e-10 of the 1e-9 search."""
    jac = analysis.linearize(flow.S1)
    basis = analysis.tangent_basis(flow.S1)
    values, vectors = np.linalg.eig(jac.T)
    i = int(np.argmax(values.real))
    left = basis.T @ vectors[:, i].real
    left *= np.sign(left[0]) / np.linalg.norm(left)
    assert values[i].real == pytest.approx(flow.S1_EIGENVALUES[2], abs=1e-9)
    assert np.max(np.abs(left - shoot._S1_LEFT)) <= 1e-9
    # the literal to 1e-12: a left eigenvector for the closed-form eigenvalue of
    # the Jacobian of the degree-0 field W(R/|R|) in 4 coordinates, by
    # complex-step differences of flow._sphere_rate (exact to rounding)
    left = np.array(shoot._S1_LEFT)
    assert np.linalg.norm(left) == pytest.approx(1.0, abs=1e-15)
    assert left @ _tangential_jacobian(flow.S1) == pytest.approx(
        flow.S1_EIGENVALUES[2] * left, abs=1e-12)

    mus = [0.5] + sorted(MU_EDGE_FLOAT + s * d for d in (1e-3, 1e-5, 1e-7, 1e-9)
                         for s in (-1.0, 1.0)) + [0.6]
    for rtol in (1e-12, 1e-10):
        probes = [shoot._edge_probe(mu, rtol) for mu in mus]
        for mu, (verdict, h) in zip(mus, probes):
            assert verdict == (1.0 if mu > MU_EDGE_FLOAT else -1.0)
            assert np.sign(h) == verdict
        hs = [h for _, h in probes]
        assert all(x < y for x, y in zip(hs, hs[1:])), (rtol, hs)


def _tangential_jacobian(s, step=1e-20):
    """d/dR of W(R/|R|) = V(S) - <V(S), S> S at the unit direction s, (4, 4)."""
    jac = np.empty((4, 4))
    for j in range(4):
        r = [complex(x) for x in s]
        r[j] += 1j * step
        n = sum(x * x for x in r) ** 0.5
        jac[:, j] = [w.imag / step for w in flow._sphere_rate(*(x / n for x in r), 0.0)[:4]]
    return jac


def test_launch_above_the_edge_stops_at_the_wall(monkeypatch):
    """Past mu* the launch ends at its first sample with G1 < 0, a prefix of the run
    integrated on; a count, not a clock, guards the tail."""
    stopped = shoot.launch_sphere(MU_EDGE + 1e-5)
    g1 = stopped.monitor("G1")
    assert stopped.termination == shoot.WALL_CROSSING
    assert g1[-1] < 0.0 and np.all(g1[:-1] >= 0.0)
    assert stopped.stats["steps"] <= 120
    monkeypatch.setattr(shoot, "sphere_stop", lambda conv_tol: None)
    full = shoot.launch_sphere(MU_EDGE + 1e-5)
    n = len(stopped)
    assert len(full) > n and full.termination != shoot.CONVERGED
    for name in ("u", "spheres", "f"):
        assert np.array_equal(getattr(full, name)[:n], getattr(stopped, name))


def test_one_sphere_path(monkeypatch, tmp_path):
    """The launch tail and the CLI continuation both run integrate_sphere, each with the
    one sphere_stop closure: the launch at conv_tol 1e-6, the continuation at --conv-tol."""
    spheres, integrations, stops = [], [], []
    for module, name, calls in ((shoot, "integrate_sphere", spheres),
                                (flow, "_integrate", integrations)):
        def recording(*args, _fn=getattr(module, name), _calls=calls, **kwargs):
            _calls.append(kwargs)
            return _fn(*args, **kwargs)
        monkeypatch.setattr(module, name, recording)

    def sphere_stop(conv_tol, _fn=shoot.sphere_stop):
        stops.append((conv_tol, _fn(conv_tol)))
        return stops[-1][1]
    monkeypatch.setattr(shoot, "sphere_stop", sphere_stop)

    shoot.launch_sphere(0.3)
    assert len(spheres) == 1 and [(1e-6, spheres[0]["stop"])] == stops
    assert len(integrations) == 2  # the chart phase and the tail
    spheres.clear()
    stops.clear()
    assert cli.main(["shoot", "--mu", "0.3", "--conv-tol", "2e-6", "--out", str(tmp_path),
                     "--format", "json"]) == 0
    assert len(spheres) == 1 and [(2e-6, spheres[0]["stop"])] == stops


def test_edge_search_builds_no_monitor_table(monkeypatch):
    """The edge probes and launch tails never read their monitors, so no table is built."""
    def refuse(*args):
        raise AssertionError("monitor_table called")

    monkeypatch.setattr(flow, "monitor_table", refuse)
    assert abs(shoot.critical_parameter(0.5, 0.6, 1e-3) - MU_EDGE) <= 1e-3
    launch = shoot.launch_sphere(0.3, u_max=5.0)
    with pytest.raises(AssertionError, match="monitor_table called"):
        launch.monitor("G1")


def test_monitors_on_first_use():
    """A trajectory's monitors are flow.monitor_table of its samples, bit for bit,
    computed on first read and kept; a copy with another termination computes its own."""
    launch = shoot.launch_sphere(0.3)
    assert launch.termination == shoot.CONVERGED  # as assembled, from the tail's stop
    for traj in (launch, with_termination(launch, shoot.REACHED_HORIZON)):
        assert "monitors" not in vars(traj)
        table = flow.monitor_table(traj.spheres, traj.f)
        assert traj.monitors.tobytes() == table.tobytes()
        assert traj.monitors is traj.monitors
        assert traj.monitor("G1").tobytes() == table[:, 6].tobytes()


def test_records_are_read_only():
    """SeriesStart, Trajectory and ALCFit refuse to assign or delete a field
    (monitors included, once computed); StationaryReport stays mutable."""
    fit = shoot.ALCFit(np.zeros(4), np.ones(4), 10.0, 20.0, 0.0)
    assert fit.note == shoot.ALC_NOTE
    assert shoot.ALCFit(slopes=1, intercepts=2, t_lo=3, t_hi=4, max_relative_deviation=5,
                        note="n").note == "n"
    traj = shoot.launch_sphere(0.3, u_max=5.0)
    assert traj.monitors.shape == (len(traj), 9)  # computed and cached, then read-only too
    for record in (shoot.series_start(0.3), traj, fit):
        for name in [*vars(record), "other"]:
            with pytest.raises(AttributeError):
                setattr(record, name, None)
            with pytest.raises(AttributeError):
                delattr(record, name)
    assert traj.termination == shoot.REACHED_HORIZON and "monitors" in vars(traj)
    report = analysis.stationary_points()[0]
    report.name = "renamed"
    del report.field_residual
    assert report.name == "renamed" and not hasattr(report, "field_residual")


def test_launch_below_the_edge_converges():
    """Just below mu* the launch ends in the trapping set of SINF, well before u = 60,
    on the sample where it converges."""
    below = shoot.launch_sphere(MU_EDGE - 1e-5)
    assert below.termination == shoot.CONVERGED
    assert below.u[-1] < 20.0
    assert shoot.detect_convergence(below.spheres, below.u) == (True, below.u[-1])
    assert np.all(below.monitor("G1") > 0.0)


def _horizon_runs(monkeypatch):
    """Make every sphere run go on to its horizon, stopping only at the G1 wall."""
    monkeypatch.setattr(shoot, "sphere_stop", lambda conv_tol: shoot._wall_stop)


@pytest.mark.parametrize("mu", [*MU_CONVERGING, "edge"])
def test_stopped_launch_is_a_prefix_of_the_horizon_run(monkeypatch, mu):
    """A launch stopped in the trapping set is a bit-exact prefix of the launch run on to
    u = 60, with the same u_converged; every later sample of that run stays within 1e-6
    of SINF.  Just below the edge the tail takes at least 25 % fewer steps."""
    mu = MU_EDGE - 1e-5 if mu == "edge" else mu
    stopped = shoot.launch_sphere(mu)
    _horizon_runs(monkeypatch)
    full = shoot.launch_sphere(mu)
    n = len(stopped)
    assert stopped.termination == full.termination == shoot.CONVERGED
    assert stopped.u[-1] < full.u[-1] == 60.0
    for name in ("u", "spheres", "f"):
        assert np.array_equal(getattr(full, name)[:n], getattr(stopped, name))
    assert (shoot.detect_convergence(stopped.spheres, stopped.u)
            == shoot.detect_convergence(full.spheres, full.u))
    assert np.max(np.linalg.norm(full.spheres[n:] - flow.SINF, axis=1)) <= 1e-6
    if mu > 0.5:
        assert stopped.stats["steps"] <= 0.75 * full.stats["steps"]


def _sweep(monkeypatch, out):
    """sweep.json of a default sweep and the steps of its sphere continuations."""
    steps = []

    def recording(*args, _fn=shoot.integrate_sphere, **kwargs):
        steps.append(_fn(*args, **kwargs))
        return steps[-1]
    monkeypatch.setattr(shoot, "integrate_sphere", recording)
    assert cli.main(["sweep", "--format", "json", "--out", str(out)]) == 1
    return (out / "sweep.json").read_bytes(), [c.stats["steps"] for c in steps]


def test_sweep_continuations_stop_in_the_trapping_set(monkeypatch, tmp_path):
    """The five converging members' continuations take at least 70 % fewer steps in sum
    than run on to the u horizon, and sweep.json is byte for byte the same."""
    report, steps = _sweep(monkeypatch, tmp_path / "stopped")
    _horizon_runs(monkeypatch)
    full_report, full_steps = _sweep(monkeypatch, tmp_path / "horizon")
    assert report == full_report
    assert len(steps) == len(full_steps) == len(MU_CONVERGING)
    assert sum(steps) <= 0.3 * sum(full_steps)


def test_tiny_conv_tol_reaches_the_horizon(tmp_path):
    """A --conv-tol below flow.SINF_DELTA gives the stop an empty set: the continuation
    runs on to the u horizon, as without a stop."""
    assert cli.main(["shoot", "--mu", "0.3", "--conv-tol", "1e-16", "--format", "json",
                     "--out", str(tmp_path)]) == 1
    rep = json.loads((tmp_path / "shoot_mu0.3.json").read_text())
    assert (rep["continuation"], rep["u_end"], rep["converged"]) == (
        shoot.REACHED_HORIZON, 60.0, False)


def test_critical_trajectory_approaches_conic_point():
    # just below the edge the path passes very close to S1 before turning
    traj = shoot.family_shape_trajectory(0.5441297, t_max=60.0, tol=1e-12)
    dmin = np.min(np.linalg.norm(traj.spheres - flow.S1, axis=1))
    assert dmin <= 1e-4


@pytest.mark.parametrize("conv_tol", [1e-6, 5e-5, 0.05])
def test_sphere_stop_threshold(conv_tol):
    """sphere_stop fires exactly below c = (min(conv_tol, r0) - delta)^2, the level the
    proof in tests/test_flow.py covers: along the least eigenvector of the tangent form
    (eigenvalue 1) a point on the sphere stops just inside and runs on just outside; along
    the largest (6.4) one, halfway to the ball's edge, V is still above c.  It never fires
    at -SINF or with c = 0, and past the G1 wall it stops as _wall_stop."""
    stop = shoot.sphere_stop(conv_tol)
    basis = analysis.tangent_basis(flow.SINF)
    w, v = np.linalg.eigh(basis @ np.array(flow.SINF_P) @ basis.T)
    assert abs(w[0] - 1.0) <= 1e-11
    edge = min(conv_tol, flow.SINF_R0) - flow.SINF_DELTA
    for k, scale, want in ((0, 1.0 - 1e-6, shoot.CONVERGED), (0, 1.0 + 1e-6, None),
                           (2, 0.5, None)):
        t = math.asin(scale * edge)
        s = math.cos(t) * flow.SINF + math.sin(t) * (v[:, k] @ basis)
        assert stop([*s, 0.0]) == want
    assert stop([*-flow.SINF, 0.0]) is None
    assert stop([*flow.SINF, 0.0]) == shoot.CONVERGED
    past = [0.9, 0.1, 0.9, 0.1, 0.0]  # G1 = A2 B2 - A1 B1 < 0
    assert stop(past) == shoot._wall_stop(past) == shoot.WALL_CROSSING
    assert shoot.sphere_stop(flow.SINF_DELTA)([*flow.SINF, 0.0]) is None
