"""Command-line surface: verification suites, trajectory runs, mu sweeps.

`main` writes every command's JSON report, also on failure and on a
rejected configuration, and exits 0 only when all of its assertions
pass; 1 signals an assertion failure and 2 an invalid configuration.
CSV and SVG artifacts are controlled by --format and never affect the
exit status.  Given the same configuration and seed, all outputs are
byte-identical.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from . import analysis, flow, shoot
from . import exterior as ext
from .reporting import write_csv, write_json, write_svg_plot

__all__ = ["main", "build_parser"]

CSV_HEADER = ["t", "u", "A1", "A2", "B1", "B2", "alpha1", "alpha2", "alpha3", "alpha4",
              "f", "F", "F1", "F2", "F3", "F4", "F5", "G1", "G2", "beta"]

SWEEP_HEADER = ["mu", "converged", "u_converged", "F_initial", "F_drift",
                "slope_A1", "slope_A2", "slope_B1", "slope_B2", "alc_max_deviation",
                "max_torsion_dpsi", "max_torsion_dstar", "witness_F_over_f3"]

CHART_NOTE = ("independent finite-difference linearization confirms chart eigenvalues "
              "{2, -2, 0} and outgoing direction (1, mu/(4 lambda), 0); the reference "
              "values {2, -1, 0} / (3, mu/(2 lambda), 0) are inconsistent with the "
              "flow equations themselves")

# sphere locus used for the non-homothety witness: first crossing of alpha3
WITNESS_ALPHA3 = 0.45


class ConfigError(ValueError):
    pass


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="g2cone",
                                description="construct and verify the one-parameter "
                                            "family of G2-holonomy cone deformations")
    sub = p.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--mu", type=float, default=None, help="family parameter in (0,1)")
    common.add_argument("--mu-range", type=str, default=None, metavar="LO:HI:N",
                        help="inclusive mu grid with N points")
    common.add_argument("--t-max", type=float, default=200.0)
    common.add_argument("--u-max", type=float, default=60.0)
    common.add_argument("--tol", type=float, default=1e-10, help="integrator relative tolerance")
    common.add_argument("--conv-tol", type=float, default=1e-6,
                        help="convergence tolerance on the sphere")
    common.add_argument("--order", type=int, default=4, help="series order, 3..8")
    common.add_argument("--stride", type=int, default=1,
                        help="write every N-th step (and the last) to CSV/SVG")
    common.add_argument("--out", type=str, default="g2cone_out", help="output directory")
    common.add_argument("--format", type=str, default="csv,json",
                        help="comma subset of csv,json,svg")
    common.add_argument("--seed", type=int, default=0)

    sp = sub.add_parser("verify-torsion", parents=[common],
                        help="closure conditions vs the analytic flow on random shapes")
    sp.add_argument("--samples", type=int, default=200)
    sp.add_argument("--debug-flip-psi", action="store_true",
                    help="negative control: flip one sign in the 3-form")
    sub.add_parser("oracle", parents=[common],
                   help="exactness of the three closed-form solutions")
    sub.add_parser("shoot", parents=[common], help="produce one family trajectory")
    sub.add_parser("stationary", parents=[common],
                   help="stationary directions and their linearizations")
    sub.add_parser("sweep", parents=[common], help="run a grid of mu values")
    return p


# options echoed in every accepted report, in this order
ECHOED = ("t_max", "u_max", "tol", "conv_tol", "order", "stride", "seed", "format")
MAX_SAMPLES = 100_000
MAX_MU_POINTS = 1_000
MAX_CONV_TOL = 0.1  # convergence ball around SINF, far from S1 (0.41 away), where paths linger
MAX_T_MAX = 1e100  # f grows like t, and f^3 in the F monitor overflows past t ~ 1e102
MAX_U_MAX = 200.0  # and like exp(sqrt(10) u / 3) near S_inf, so f^3 overflows past u ~ 225


def validate(args) -> None:
    """Reject an unusable configuration; normalizes --format to a sorted list."""
    args.format = sorted({f.strip() for f in args.format.split(",") if f.strip()})
    bad = set(args.format) - {"csv", "json", "svg"}
    if bad:
        raise ConfigError(f"unknown output formats: {sorted(bad)}")
    for name in ("t_max", "u_max", "tol", "conv_tol"):
        if not math.isfinite(getattr(args, name)):
            raise ConfigError(f"--{name.replace('_', '-')} must be finite")
    if not (0 < args.t_max <= MAX_T_MAX and 0 < args.u_max <= MAX_U_MAX):
        raise ConfigError(f"--t-max must lie in (0, {MAX_T_MAX:g}], --u-max in (0, {MAX_U_MAX:g}]")
    if args.t_max <= shoot.SERIES_MAX_OFFSET:
        raise ConfigError(f"--t-max must exceed the series launch offset "
                          f"{shoot.SERIES_MAX_OFFSET:g}")
    if args.stride < 1:
        raise ConfigError("stride must be >= 1")
    if not 3 <= args.order <= 8:
        raise ConfigError("order must lie in 3..8")
    if args.tol <= 0 or not 0 < args.conv_tol <= MAX_CONV_TOL:
        raise ConfigError(f"--tol must be positive and --conv-tol in (0, {MAX_CONV_TOL:g}]")
    if args.seed < 0:
        raise ConfigError("--seed must be >= 0")
    if not 1 <= getattr(args, "samples", 1) <= MAX_SAMPLES:
        raise ConfigError(f"--samples must lie in 1..{MAX_SAMPLES}")
    if args.mu is not None and args.mu_range is not None:
        raise ConfigError("--mu and --mu-range are mutually exclusive")


def mu_values(args, default) -> list:
    """The requested mu grid (--mu, --mu-range or the default), each a normal float in (0, 1)."""
    if args.mu is not None:
        values = [args.mu]
    elif args.mu_range is not None:
        try:
            lo, hi, n = args.mu_range.split(":")
            lo, hi, n = float(lo), float(hi), int(n)
        except ValueError as exc:
            raise ConfigError(f"bad --mu-range {args.mu_range!r}: want LO:HI:N") from exc
        if not 1 <= n <= MAX_MU_POINTS:
            raise ConfigError(f"--mu-range needs N in 1..{MAX_MU_POINTS}")
        values = [lo] if n == 1 else list(np.linspace(lo, hi, n))
    else:
        values = list(default)
    for mu in values:  # a subnormal A1 ~ mu overflows the closure coefficients 1/(A1 B1)
        if not sys.float_info.min <= mu < 1.0:
            raise ConfigError(f"mu must lie in (0, 1) and be a normal float, got {mu}")
    return [float(mu) for mu in values]


# -- trajectory emission -----------------------------------------------------


def _monitor_extrema(traj: shoot.Trajectory) -> dict:
    out = {}
    for j, name in enumerate(flow.MONITOR_NAMES):
        col = traj.monitors[:, j]
        ok = np.isfinite(col)
        if ok.any():
            out[name] = {"min": float(np.min(col[ok])), "max": float(np.max(col[ok])),
                         "defined": int(ok.sum()), "samples": int(len(col))}
        else:
            out[name] = {"min": None, "max": None, "defined": 0, "samples": int(len(col))}
    return out


def _shoot_pipeline(mu: float, args) -> tuple:
    """Family run shared by the shoot and sweep commands: (traj, fit, summary, ok).

    ok is the run's pass rule: converged, and integrated to the t horizon.
    """
    traj = shoot.family_shape_trajectory(mu, t_max=args.t_max, tol=args.tol, order=args.order)
    # convergence is certified on the whole path in u: the shape run,
    # continued on the sphere up to the u horizon when it ends early
    u, spheres = traj.stats["u"], traj.spheres
    if u[-1] < args.u_max and traj.termination == shoot.REACHED_HORIZON:
        cont = shoot.integrate_sphere(spheres[-1], float(u[-1]), args.u_max,
                                      f0=float(traj.f[-1]), tol=args.tol)
        u = np.concatenate([u, cont.params[1:]])
        spheres = np.concatenate([spheres, cont.spheres[1:]])
    converged, u_conv = shoot.detect_convergence(spheres, u, flow.SINF, args.conv_tol)

    F = traj.monitor("F")
    ok = converged and traj.termination == shoot.REACHED_HORIZON
    return traj, shoot.alc_fit(traj), {
        "mu": mu,
        "termination": traj.termination,
        "positivity_ok": traj.termination != shoot.POSITIVITY_VIOLATION,
        "converged": converged,
        "u_converged": u_conv,
        "dist_to_target_end": float(np.linalg.norm(spheres[-1] - flow.SINF)),
        "F_initial": float(F[0]),
        "F_drift": float(np.max(np.abs(F - F[0]))),
    }, ok


def _fit_dict(fit) -> dict | None:
    if fit is None:
        return None
    return {"slopes": list(fit.slopes), "intercepts": list(fit.intercepts),
            "window": [fit.t_lo, fit.t_hi],
            "max_relative_deviation": fit.max_relative_deviation, "note": fit.note}


def _write_shoot_artifacts(mu: float, traj: shoot.Trajectory, outdir: Path, args) -> list:
    """--format's CSV/SVG artifacts of rows 0, N, 2N, ..., last of the run (N = --stride)."""
    tag = f"shoot_mu{mu!r}"  # mu's shortest round-trip repr: one name per value
    files = []
    rows = np.r_[0:len(traj) - 1:args.stride, len(traj) - 1]
    t, shapes, spheres = traj.params[rows], traj.shapes[rows], traj.spheres[rows]
    if "csv" in args.format:
        path = outdir / f"{tag}.csv"
        write_csv(path, CSV_HEADER, np.column_stack([t, traj.stats["u"][rows], shapes, spheres,
                                                     traj.f[rows], traj.monitors[rows]]))
        files.append(path.name)
    if "svg" in args.format:
        path = outdir / f"{tag}_shapes.svg"
        write_svg_plot(path, [(t, shapes[:, j], n) for j, n in
                              enumerate(("A1", "A2", "B1", "B2"))],
                       f"shape functions, mu={mu:.6g}", "t", "value")
        files.append(path.name)
        path = outdir / f"{tag}_sphere_a1a3.svg"
        write_svg_plot(path, [(spheres[:, 0], spheres[:, 2], "trajectory")],
                       f"sphere projection, mu={mu:.6g}", "alpha1", "alpha3")
        files.append(path.name)
        path = outdir / f"{tag}_sphere_ya3.svg"
        write_svg_plot(path, [(spheres[:, 3] - spheres[:, 1], spheres[:, 2], "trajectory")],
                       f"sphere projection, mu={mu:.6g}", "alpha4 - alpha2", "alpha3")
        files.append(path.name)
    return files


# -- commands -----------------------------------------------------------------
# each fills in the report main started, including "pass", writes its own
# CSV/SVG artifacts and returns the report's file name


def cmd_verify_torsion(args, outdir: Path, report: dict) -> str:
    report["n_samples"] = args.samples
    psi = None
    if args.debug_flip_psi:
        flipped = dict(ext.g2_form().coeffs)
        key = (4, 5, 6)
        flipped[key] = -flipped[key]
        psi = ext.KForm(3, flipped)
        report["debug_flip_psi"] = True
    rng = np.random.default_rng(args.seed)
    worst_rel, worst_res, failures, solve_failures = 0.0, 0.0, 0, 0
    worst_case = None
    for _ in range(args.samples):
        state = rng.uniform(0.2, 5.0, size=4)
        analytic = flow.velocity(state)
        try:
            solved = ext.solve_torsion_free_derivs(state, psi)
            rel = float(np.max(np.abs(solved - analytic) / np.maximum(1.0, np.abs(analytic))))
        except ext.TorsionSolveError:
            rel = float("inf")
            solve_failures += 1
        res = max(ext.torsion_residual(state, analytic, psi))
        if rel > worst_rel or res > worst_res:
            worst_case = list(state)
        worst_rel = max(worst_rel, rel)
        worst_res = max(worst_res, res)
        if rel > 1e-9 or res > 1e-10:
            failures += 1
    report.update({
        "max_relative_mismatch": None if math.isinf(worst_rel) else worst_rel,
        "solve_failures": solve_failures,
        "max_residual_at_analytic_derivs": worst_res,
        "failing_samples": failures,
        "worst_state": worst_case,
        "pass": failures == 0,
    })
    return "verify_torsion.json"


# closed form -> (r grid lower end, upper end, conserved value of F)
_ORACLE = {"bgg": (2.3, 50.0, -27.0 / 8.0),
           "bs": (1.2, 50.0, -1.0 / (3.0 * math.sqrt(3.0))),
           "singular": (0.1, 50.0, 1.0 / (3.0 * math.sqrt(3.0)))}


def _bs_trajectory(r_hi: float = 300.0, n: int = 260) -> shoot.Trajectory:
    """The round closed form as a t-parameterized trajectory (for asymptotics)."""
    rs = np.geomspace(1.5, r_hi, n)
    return shoot.Trajectory.from_samples("t", analysis.r_to_t("bs", rs),
                                         shapes=analysis.closed_form("bs", rs))


def cmd_oracle(args, outdir: Path, report: dict) -> str:
    ok = True
    for kind in analysis.CLOSED_FORM_KINDS:
        lo, hi, f_expected = _ORACLE[kind]
        res = analysis.verify_solution(kind, np.linspace(lo, hi, 200))
        f_dev = max(abs(res["F_mean"] - f_expected), res["F_spread"])
        entry = {"max_mismatch": res["max_mismatch"], "F_constant": f_expected,
                 "F_deviation": f_dev, "r_range": [lo, hi], "n_samples": 200,
                 "pass": res["max_mismatch"] <= 1e-7 and f_dev <= 1e-9}
        ok = ok and entry["pass"]
        report[kind] = entry
    report["bs_asymptotics"] = _fit_dict(shoot.alc_fit(_bs_trajectory()))
    report["pass"] = ok
    return "oracle.json"


def cmd_shoot(args, outdir: Path, report: dict) -> str:
    mus = mu_values(args, default=[])
    if len(mus) != 1:
        raise ConfigError("shoot needs exactly one --mu")
    traj, fit, summary, ok = _shoot_pipeline(mus[0], args)
    report.update(summary, alc=_fit_dict(fit), monitors=_monitor_extrema(traj),
                  notes=[shoot.ALC_NOTE],
                  files=_write_shoot_artifacts(mus[0], traj, outdir, args))
    report["pass"] = ok
    return f"shoot_mu{mus[0]!r}.json"


def cmd_stationary(args, outdir: Path, report: dict) -> str:
    mus = mu_values(args, default=[0.25, 0.5, 0.75])
    ok = True
    points = {}
    for rep in analysis.stationary_points():
        entry = {
            "point": list(rep.point),
            "field_residual": rep.field_residual,
            "orbit_size": rep.orbit_size,
            "eigenvalues_real": list(rep.eigenvalues.real),
            "eigenvalues_imag": list(rep.eigenvalues.imag),
            "classification_neg_zero_pos": list(rep.classification),
        }
        if rep.name == "S1":
            expected = np.sort(analysis.S1_EIGENVALUES)
            got = np.sort(rep.eigenvalues.real)
            entry["expected_eigenvalues"] = list(expected)
            entry["eigenvalue_error"] = float(np.max(np.abs(got - expected)))
            if entry["eigenvalue_error"] > 1e-6 or np.max(np.abs(rep.eigenvalues.imag)) > 1e-8:
                ok = False
            # eigenvector of the -2 sqrt(2) mode is tangent to the diagonal curve
            i = int(np.argmin(np.abs(rep.eigenvalues.real - analysis.S1_EIGENVALUES[0])))
            v = rep.eigenvectors[i].real
            target = np.array([-math.sqrt(3.0), -math.sqrt(3.0), 1.0, 1.0])
            target /= np.linalg.norm(target)
            align = abs(float(np.dot(v / np.linalg.norm(v), target)))
            entry["diagonal_mode_alignment"] = align
            if align < 1.0 - 1e-6:
                ok = False
        points[rep.name] = entry
    report["stationary"] = points

    charts = []
    for mu in mus:
        lam = math.sqrt((1.0 - mu * mu) / 2.0)
        try:  # the finite-difference stencil must stay inside the chart
            jac = analysis.linearize(np.array([0.0, 0.0, mu]), "modified-chart")
        except ValueError as exc:
            raise ConfigError(f"--mu {mu:g}: {exc}") from exc
        w, v = analysis.eig_small(jac)
        got = np.sort(w.real)
        expected = np.sort(analysis.CHART_EIGENVALUES)
        err = float(np.max(np.abs(got - expected)))
        iu = int(np.argmax(w.real))
        direction = v[:, iu].real
        direction = direction / np.linalg.norm(direction) * np.sign(direction[0])
        closed = shoot.unstable_direction(mu)
        angle = float(np.arccos(np.clip(np.dot(direction, closed), -1.0, 1.0)))
        entry = {"mu": mu, "eigenvalues": list(got), "expected_eigenvalues": list(expected),
                 "eigenvalue_error": err, "unstable_direction": list(direction),
                 "closed_form_direction": list(closed), "direction_angle": angle,
                 "reference_claim": {"eigenvalues": [2.0, -1.0, 0.0],
                                     "direction": [3.0, mu / (2.0 * lam), 0.0]},
                 "discrepancy_note": CHART_NOTE}
        if err > 1e-7 or angle > 1e-6:
            ok = False
        charts.append(entry)
    report["chart"] = charts
    report["pass"] = ok
    return "stationary.json"


_SLOPES_LIMIT = np.array([0.0, 1.0 / math.sqrt(3.0), 2.0 / 3.0, 1.0 / math.sqrt(3.0)])


def _witness(traj: shoot.Trajectory) -> float:
    """F / f^3 at the first crossing of alpha3 = WITNESS_ALPHA3 (scale-free)."""
    s = shoot.sample_at_level(traj, WITNESS_ALPHA3)
    return float("nan") if s is None else flow.first_integral(s)


def _max_torsion(traj: shoot.Trajectory) -> tuple:
    """Worst closure residuals at the analytic derivatives, over the samples with R > 0."""
    shapes = traj.shapes[np.all(traj.shapes > 0.0, axis=1)]  # a positivity stop's last may not be
    dpsi, dstar = ext.torsion_residual(shapes, flow.velocity(shapes))
    return float(np.max(dpsi)), float(np.max(dstar))


def cmd_sweep(args, outdir: Path, report: dict) -> str:
    mus = mu_values(args, default=np.arange(1, 10) / 10.0)
    rows = []
    members = []
    ok = True
    for mu in mus:
        traj, fit, res, run_ok = _shoot_pipeline(mu, args)
        _write_shoot_artifacts(mu, traj, outdir, args)
        dpsi, dstar = _max_torsion(traj)
        witness = _witness(traj)
        slopes = fit.slopes if fit is not None else [float("nan")] * 4
        f_target = mu * (1.0 - mu * mu)  # 2 lambda^2 mu at the singular orbit
        member_ok = (run_ok and abs(res["F_initial"] - f_target) <= 1e-10
                     and max(dpsi, dstar) <= 1e-10
                     and fit is not None
                     and bool(np.all(np.abs(np.asarray(slopes) - _SLOPES_LIMIT) <= 2e-2)))
        ok = ok and member_ok
        rows.append([mu, res["converged"], res["u_converged"], res["F_initial"],
                     res["F_drift"], *slopes,
                     fit.max_relative_deviation if fit else float("nan"),
                     dpsi, dstar, witness])
        members.append({"mu": mu, "pass": member_ok, "converged": res["converged"],
                        "u_converged": res["u_converged"], "F_initial": res["F_initial"],
                        "F_target": f_target, "witness_F_over_f3": witness})
    # a member whose path never reaches the witness locus has no witness
    without = [m["mu"] for m in members if math.isnan(m["witness_F_over_f3"])]
    witnesses = [m["witness_F_over_f3"] for m in members if m["mu"] not in without]
    distinct = all(abs(a - b) > 1e-9 for i, a in enumerate(witnesses)
                   for b in witnesses[i + 1:])
    # the aggregate table is the command's primary product, always written
    write_csv(outdir / "sweep.csv", SWEEP_HEADER, rows)
    report.update({"mu_values": list(mus), "members": members, "witnesses_distinct": distinct,
                   "members_without_witness": without, "notes": [shoot.ALC_NOTE],
                   "pass": ok and distinct})
    return "sweep.json"


_COMMANDS = {
    "verify-torsion": cmd_verify_torsion,
    "oracle": cmd_oracle,
    "shoot": cmd_shoot,
    "stationary": cmd_stationary,
    "sweep": cmd_sweep,
}


def main(argv=None) -> int:
    """Run one command: the only place that makes --out, writes the JSON
    report and prints the verdict.  Exit 0 pass, 1 fail, 2 invalid config."""
    args = build_parser().parse_args(argv)
    outdir = Path(args.out)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"g2cone: cannot use --out {args.out!r}: {exc}", file=sys.stderr)
        return 2
    report = {"schema": 1, "command": args.command}
    try:
        validate(args)
        report["config"] = {name: getattr(args, name) for name in ECHOED}
        name = _COMMANDS[args.command](args, outdir, report)
    except ConfigError as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        # a rejected value (say inf) may not serialize: the config is not echoed
        name = args.command.replace("-", "_") + ".json"
        report = {"schema": 1, "command": args.command, "error": str(exc), "pass": False}
    write_json(outdir / name, report)
    print(f"{args.command}: {'PASS' if report['pass'] else 'FAIL'}")
    return 2 if "error" in report else 0 if report["pass"] else 1


if __name__ == "__main__":
    sys.exit(main())
