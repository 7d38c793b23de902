"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints a single PASS/FAIL line.  Criteria 4 and 5 are the
only tests that fail by design.  Both fail only through the family edge
mu* ~ 0.54413 that the package's own cross-checks locate; whether the
family stops there is a numerical question that hand algebra cannot
settle, so their clauses stay as written (see README, "Verified
discrepancies"):

* criterion 4: trajectories converge to the limit direction only below
  the edge; beyond it they cross the G1 = 0 wall and the shape
  degenerates at finite t;
* criterion 5: members beyond the edge stay in {G1 < 0, G2 > 0} and
  never produce a G2 sign change.

Two clauses of the reference data are refuted by hand algebra from the
flow equations and are asserted here in their corrected form; the
quoted values are kept in the test docstrings as a record:

* criterion 3: the desingularized chart field linearizes with
  eigenvalues {2, -2, 0} and outgoing direction (1, mu/(4 lam), 0), not
  the quoted {2, -1, 0} / (3, mu/(2 lam), 0);
* criterion 5: F5 = alpha4^2 - alpha3^2 equals 3/10 - 2/5 = -1/10 at the
  limit direction, so the quoted "F5 > 0 throughout" cannot hold on a
  convergent path; the bound asserted is F5 > 0 wherever G2 >= 0.
"""

import math
import time

import numpy as np
import pytest

from g2cone import analysis, flow, shoot
from g2cone import exterior as ext
from g2cone.cli import main
from conftest import MU_GRID
from helpers import central_derivative

SQ2, SQ3 = math.sqrt(2.0), math.sqrt(3.0)


def _report(n, failures, detail=""):
    status = "PASS" if not failures else "FAIL"
    tail = f" -- {detail}" if detail else ""
    print(f"\nACCEPTANCE {n}: {status}{tail}")
    if failures:
        pytest.fail(f"criterion {n}: " + " | ".join(failures), pytrace=False)


def test_criterion_1_torsion_free_equivalence():
    """solve == analytic rhs to 1e-9 on 200 seeded states; residual 1e-10."""
    failures = []
    rng = np.random.default_rng(0)
    start = time.monotonic()
    worst_rel = worst_res = 0.0
    for _ in range(200):
        state = ext.ShapeState(*rng.uniform(0.2, 5.0, size=4))
        solved = ext.solve_torsion_free_derivs(state)
        analytic = flow.velocity(state)
        worst_rel = max(worst_rel, float(np.max(
            np.abs(solved - analytic) / np.maximum(1.0, np.abs(analytic)))))
        worst_res = max(worst_res, *ext.torsion_residual(state, flow.velocity(state)))
    elapsed = time.monotonic() - start
    if worst_rel > 1e-9:
        failures.append(f"relative mismatch {worst_rel:.3e} > 1e-9")
    if worst_res > 1e-10:
        failures.append(f"residual {worst_res:.3e} > 1e-10")
    if elapsed > 5.0:
        failures.append(f"runtime {elapsed:.1f}s > 5s")
    _report(1, failures, f"mismatch {worst_rel:.2e}, residual {worst_res:.2e}, "
                         f"{elapsed:.1f}s")


def test_criterion_2_closed_form_exactness():
    """All three explicit solutions satisfy the flow to 1e-7, F constant."""
    failures = []
    start = time.monotonic()
    grids = {"bgg": (2.3, 50.0), "bs": (1.2, 50.0), "singular": (0.1, 50.0)}
    f_const = {"bgg": -27.0 / 8.0, "bs": -1.0 / (3 * SQ3), "singular": None}
    for kind, (lo, hi) in grids.items():
        rep = analysis.verify_solution(kind, np.linspace(lo, hi, 200))
        if rep["max_mismatch"] > 1e-7:
            failures.append(f"{kind}: mismatch {rep['max_mismatch']:.3e} > 1e-7")
        expected = f_const[kind]
        if expected is not None:
            if abs(rep["F_mean"] - expected) > 1e-9 or rep["F_spread"] > 1e-9:
                failures.append(f"{kind}: first integral deviates from {expected}")
    elapsed = time.monotonic() - start
    if elapsed > 2.0:
        failures.append(f"runtime {elapsed:.1f}s > 2s")
    _report(2, failures, f"{elapsed:.2f}s")


def test_criterion_3_stationary_eigendata():
    """S1 eigenvalues as quoted; chart eigendata {2, -2, 0} / (1, mu/(4 lam), 0).

    The chart clause is stated in its hand-derived form.  Linearize the
    desingularized field (x W_x, x W_y, x W_z) at (x, y, z) = (0, 0, mu),
    where S = (mu, lam, 0, lam), from the raw ``velocity`` formulas:
    the 1/alpha3 pole term contributes -(alpha4^2 - alpha2^2)/lam = -2y
    to the y-row; the regular part x Vreg contributes 2x to the x-row
    ((alpha2^2 + alpha4^2)/(alpha2 alpha4) = 2) and (mu/lam) x to the
    y-row; <q, S> vanishes to first order.  The Jacobian is therefore
    [[2, 0, 0], [mu/lam, -2, 0], [0, 0, 0]], with eigenvalues {2, -2, 0}
    and outgoing direction (1, mu/(4 lam), 0).  The direction agrees with
    the launch slopes B1'(0) = 2, A2'(0) = -B2'(0) = -mu/(4 lam), whose
    ratio y/x is mu/(4 lam).

    Record of the discrepancy: the reference quoted {2, -1, 0} and
    (3, mu/(2 lam), 0), whose slope y/x = mu/(6 lam) contradicts the
    launch slopes.  A smooth chart change or a positive time change
    keeps the ratio 2 : -2 of the nonzero eigenvalues, so no chart of
    this flow yields {2, -1, 0}.  The quoted values are the Jacobian
    obtained with alpha2 = alpha4 = 2 lam in its denominators: the pole
    term then gives -y and the regular y-row (mu/(2 lam)) x, so
    [[2, 0, 0], [mu/(2 lam), -1, 0], [0, 0, 0]].
    """
    failures = []
    w, _ = analysis.eig_small(analysis.linearize(flow.S1, "tangential"))
    expected = np.sort([-2 * SQ2, -7 * SQ2 / 3 - math.sqrt(290) / 3,
                        -7 * SQ2 / 3 + math.sqrt(290) / 3])
    err = float(np.max(np.abs(np.sort(w.real) - expected)))
    if err > 1e-6 or np.max(np.abs(w.imag)) > 1e-8:
        failures.append(f"S1 eigenvalues off by {err:.2e}")
    for mu in (0.25, 0.5, 0.75):
        lam = math.sqrt((1 - mu * mu) / 2)
        jac = analysis.linearize(np.array([0.0, 0.0, mu]), "modified-chart")
        wc, vc = analysis.eig_small(jac)
        got = np.sort(wc.real)
        stated = np.sort([2.0, -2.0, 0.0])
        cerr = float(np.max(np.abs(got - stated)))
        if cerr > 1e-7:
            failures.append(
                f"chart eigenvalues at mu={mu}: stated {{2,-2,0}}, computed "
                f"{np.round(got, 9).tolist()}")
        i = int(np.argmax(wc.real))
        vec = vc[:, i].real
        vec /= np.linalg.norm(vec) * np.sign(vec[0])
        stated_dir = np.array([1.0, mu / (4 * lam), 0.0])
        stated_dir /= np.linalg.norm(stated_dir)
        angle = float(np.arccos(np.clip(np.dot(vec, stated_dir), -1, 1)))
        if angle > 1e-6:
            failures.append(
                f"chart eigenvector at mu={mu}: stated (1, mu/(4 lam), 0) is "
                f"{angle:.3e} rad off")
    _report(3, failures)


def test_criterion_4_family_convergence():
    """Every grid member reaches the limit direction by u = 60 and stays.

    Holds for mu < mu* ~ 0.54413 only: beyond the family edge the
    trajectory crosses the G1 = 0 wall (confirmed independently by both
    launch constructions, by tolerance-independence down to 1e-13, and
    by 40-digit fixed-step integration) and no complete shape exists.
    """
    failures = []
    start = time.monotonic()
    for mu in MU_GRID:
        launch = shoot.launch_sphere(mu, u_max=60.0)
        ok, u_conv = shoot.detect_convergence(launch.spheres, launch.params, tol=1e-6)
        if not ok or u_conv >= 60.0:
            g1 = launch.monitor("G1")
            crossed = bool(np.any(g1 < 0))
            failures.append(
                f"mu={mu:.1f}: no convergence by u=60"
                + (" (crosses the G1=0 wall and escapes; beyond the family edge"
                   " mu* ~ 0.5441)" if crossed else ""))
            continue
        shape = shoot.family_shape_trajectory(mu, t_max=200.0, tol=1e-12)
        if shape.termination != shoot.REACHED_HORIZON or np.any(shape.shapes <= 0):
            failures.append(f"mu={mu:.1f}: positivity lost ({shape.termination})")
        sel = (launch.params > launch.params[0]) & (launch.params <= u_conv)
        s = launch.spheres[sel]
        if not (np.all(s[:, 3] > s[:, 1]) and np.all(s[:, 1] > 0)
                and np.all(s[:, 0] > 0) and np.all(s[:, 2] > 0)):
            failures.append(f"mu={mu:.1f}: pyramid confinement violated")
    elapsed = time.monotonic() - start
    if elapsed > 30.0:
        failures.append(f"runtime {elapsed:.1f}s > 30s")
    _report(4, failures, f"{elapsed:.1f}s")


def test_criterion_5_conservation_and_monotonicity(family_shapes):
    """F drift, F1/F2 monotone, F5 > 0 where G2 >= 0, single G2 sign change.

    Drift and monotonicity hold.  The F5 clause is stated as the bound
    that holds: README defines F5 = alpha4^2 - alpha3^2, which equals
    3/10 - 2/5 = -1/10 at the limit direction S_inf; criterion 7 pins the
    slopes (0, 1/sqrt3, 2/3, 1/sqrt3), whose direction is S_inf, and
    criterion 4 asks for convergence to it, so the quoted "F5 > 0
    throughout" contradicts the other criteria whatever the program does.
    F5 > 0 on every sample with G2 >= 0 is what keeps the path from
    approaching S1.  The G2 clause fails beyond the family edge, where
    trajectories stay in {G1 < 0, G2 > 0} and never cross.
    """
    failures = []
    for mu in MU_GRID:
        traj = family_shapes[mu]
        F = traj.monitor("F")
        if np.max(np.abs(F - F[0])) > 1e-8 * max(1.0, abs(F[0])):
            failures.append(f"mu={mu:.1f}: F drift {np.max(np.abs(F - F[0])):.2e}")
        for name in ("F1", "F2"):
            m = traj.monitor(name)
            m = m[np.isfinite(m)]
            if len(m) > 1 and np.min(np.diff(m)) < -1e-12:
                failures.append(f"mu={mu:.1f}: {name} not monotone "
                                f"(min step {np.min(np.diff(m)):.2e})")
        g2 = traj.monitor("G2")
        f5 = traj.monitor("F5")[g2 >= 0.0]
        if np.min(f5) <= 0.0:
            failures.append(f"mu={mu:.1f}: F5 reaches {np.min(f5):+.4e} where G2 >= 0")
        sign_changes = int(np.sum(np.diff(np.sign(g2[g2 != 0.0])) != 0))
        if sign_changes != 1:
            failures.append(
                f"mu={mu:.1f}: G2 has {sign_changes} sign changes (beyond the family "
                f"edge the path stays in {{G1 < 0, G2 > 0}})" if sign_changes == 0
                else f"mu={mu:.1f}: G2 has {sign_changes} sign changes")
        elif sign_changes == 1:
            first_neg = int(np.argmax(g2 < 0.0))
            if np.any(g2[first_neg:] > 0.0):
                failures.append(f"mu={mu:.1f}: G2 returns to positive values")
    _report(5, failures)


def test_criterion_6_torsion_free_along_constructed_metrics(family_shapes):
    """Differenced trajectory data leaves closure residuals below 1e-6.

    Quantified over the members that construct a metric (positivity to
    the horizon, i.e. below the family edge); derivatives come from
    seven-point central stencils, so the first and last three samples
    have no differenced value.
    """
    failures = []
    worst_all = 0.0
    for mu in MU_GRID:
        traj = family_shapes[mu]
        if traj.termination != shoot.REACHED_HORIZON:
            continue  # no metric is constructed beyond the family edge
        worst = 0.0
        for i in range(3, len(traj) - 3):
            d = central_derivative(traj.params, traj.shapes, i)
            res = ext.torsion_residual(traj.shapes[i], d)
            worst = max(worst, *res)
        worst_all = max(worst_all, worst)
        if worst > 1e-6:
            failures.append(f"mu={mu:.1f}: differenced residual {worst:.3e} > 1e-6")
    _report(6, failures, f"worst {worst_all:.2e}")


def test_criterion_7_alc_limit(family_shapes):
    """Trailing-window slopes (0, 1/sqrt3, 2/3, 1/sqrt3); A1 intercept stable."""
    failures = []
    fit200 = shoot.alc_fit(family_shapes[0.5])
    expected = np.array([0.0, 1 / SQ3, 2.0 / 3.0, 1 / SQ3])
    err = float(np.max(np.abs(fit200.slopes - expected)))
    if err > 2e-2:
        failures.append(f"slopes off by {err:.3e} > 2e-2")
    traj400 = shoot.family_shape_trajectory(0.5, t_max=400.0, tol=1e-12)
    fit400 = shoot.alc_fit(traj400)
    a1_change = abs(fit400.intercepts[0] - fit200.intercepts[0]) / abs(fit200.intercepts[0])
    if not fit200.intercepts[0] > 0.0:
        failures.append("A1 intercept not positive")
    if a1_change > 1e-2:
        failures.append(f"A1 intercept changes {a1_change:.3e} on doubling the horizon")
    if "A1" not in fit200.note or "B1" not in fit200.note:
        failures.append("documented bounded-function note missing")
    _report(7, failures, f"slope err {err:.2e}, A1 intercept "
                         f"{fit200.intercepts[0]:.4f} (change {a1_change:.1e})")


def test_criterion_8_determinism(tmp_path):
    """Identical config and seed produce byte-identical CSV and JSON."""
    failures = []
    dirs = (tmp_path / "run1", tmp_path / "run2")
    for d in dirs:
        assert main(["shoot", "--mu", "0.35", "--seed", "3", "--out", str(d)]) == 0
        assert main(["verify-torsion", "--samples", "50", "--seed", "3",
                     "--out", str(d)]) == 0
    for name in ("shoot_mu0.35.csv", "shoot_mu0.35.json", "verify_torsion.json"):
        if (dirs[0] / name).read_bytes() != (dirs[1] / name).read_bytes():
            failures.append(f"{name} differs between reruns")
    _report(8, failures)
