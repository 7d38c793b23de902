"""Command-line surface: verification suites, trajectory runs, mu sweeps.

`main` writes every command's JSON report, also on failure and on a
rejected configuration, and exits 0 only when all of its assertions
pass; 1 signals an assertion failure and 2 an invalid configuration.
CSV and SVG artifacts are controlled by --format and never affect the
exit status.  Given the same options (verify-torsion's include its
seed), all outputs are byte-identical.

The command line is a command, then --name value or --name=value for
each option the command reads and --out (the flag --debug-flip-psi takes
no value).  Names are exact, the last of a repeated option wins and a
value is taken as written, also one that starts with -.  -h/--help
prints help and exits 0.  Any other usage error (an unknown command or
option, a missing value, one that does not parse as its type) exits 2
with a usage line on stderr and no report.
"""

from __future__ import annotations

import math
import random
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from . import analysis, flow, shoot
from . import exterior as ext
from .reporting import write_csv, write_json, write_svg_plot

__all__ = ["main", "parse_args"]

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


# every option: (type, default, help); each command takes those it reads (_COMMANDS)
_OPTIONS = {
    "--mu": (float, None, "family parameter in (0,1)"),
    "--mu-range": (str, None, "inclusive mu grid LO:HI:N with N points"),
    "--t-max": (float, 200.0, "t horizon of the shape run"),
    "--u-max": (float, 60.0, "u horizon of its continuation on the sphere"),
    "--tol": (float, 1e-10, "integrator relative tolerance"),
    "--conv-tol": (float, 1e-6, "convergence tolerance on the sphere"),
    "--order": (int, 4, "series order, 3..8"),
    "--stride": (int, 1, "write every N-th step (and the last) to CSV/SVG"),
    "--format": (str, "csv,json", "comma subset of csv,json,svg"),
    "--samples": (int, 200, "number of random states"),
    "--seed": (int, 0, "seed of the random states"),
    "--debug-flip-psi": (bool, False, "negative control: flip one sign in the 3-form"),
    "--out": (str, "g2cone_out", "output directory"),
}
# the options of one trajectory run, besides its mu
_RUN = ("--t-max", "--u-max", "--tol", "--conv-tol", "--order", "--stride", "--format")
MAX_SAMPLES = 100_000
MAX_MU_POINTS = 1_000
MAX_CONV_TOL = 0.1  # convergence ball around SINF, far from S1 (0.41 away), where paths linger
MAX_TOL = 1e-3  # at 0.1 a run at mu 0.6 accepts its last step at B1 = -3.5
MAX_T_MAX = 1e100  # f grows like t, and f^3 in the F monitor overflows past t ~ 1e102
MAX_U_MAX = 200.0  # and like exp(sqrt(10) u / 3) near S_inf, so f^3 overflows past u ~ 225


def validate(args) -> None:
    """Reject an unusable value of an option the command has; --format becomes a sorted list."""
    if getattr(args, "seed", 0) < 0 or not 1 <= getattr(args, "samples", 1) <= MAX_SAMPLES:
        raise ConfigError(f"--seed must be >= 0, --samples in 1..{MAX_SAMPLES}")
    if not hasattr(args, "t_max"):  # only shoot and sweep run trajectories
        return
    args.format = sorted({f.strip() for f in args.format.split(",") if f.strip()})
    bad = set(args.format) - {"csv", "json", "svg"}
    if bad:
        raise ConfigError(f"unknown output formats: {sorted(bad)}")
    if not (0 < args.t_max <= MAX_T_MAX and 0 < args.u_max <= MAX_U_MAX):
        raise ConfigError(f"--t-max must lie in (0, {MAX_T_MAX:g}], --u-max in (0, {MAX_U_MAX:g}]")
    if args.t_max <= shoot.SERIES_MAX_OFFSET:
        raise ConfigError(f"--t-max must exceed the series launch offset "
                          f"{shoot.SERIES_MAX_OFFSET:g}")
    if args.stride < 1:
        raise ConfigError("stride must be >= 1")
    if not 3 <= args.order <= 8:
        raise ConfigError("order must lie in 3..8")
    if not (0 < args.tol <= MAX_TOL and 0 < args.conv_tol <= MAX_CONV_TOL):
        raise ConfigError(f"--tol must lie in (0, {MAX_TOL:g}], "
                          f"--conv-tol in (0, {MAX_CONV_TOL:g}]")


def mu_values(args, default) -> list:
    """The requested mu grid (--mu, --mu-range or the default), each a normal float in (0, 1)."""
    grid = getattr(args, "mu_range", None)  # shoot takes --mu only
    if args.mu is not None and grid is not None:
        raise ConfigError("--mu and --mu-range are mutually exclusive")
    if args.mu is not None:
        values = [args.mu]
    elif grid is not None:
        try:
            lo, hi, n = grid.split(":")
            lo, hi, n = float(lo), float(hi), int(n)
        except ValueError as exc:
            raise ConfigError(f"bad --mu-range {grid!r}: want LO:HI:N") from exc
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

    ok is the run's pass rule: converged, and integrated to the t horizon.  The shape run goes
    on in u until sphere_stop(--conv-tol) or u_max ends it; summary "continuation" says which.
    """
    traj = shoot.family_shape_trajectory(mu, t_max=args.t_max, tol=args.tol, order=args.order)
    u, spheres, continuation = traj.u, traj.spheres, None
    if u[-1] < args.u_max and traj.termination == shoot.REACHED_HORIZON:
        cont = shoot.integrate_sphere(spheres[-1], float(u[-1]), args.u_max,
                                      ln_f0=math.log(traj.f[-1]), tol=args.tol,
                                      stop=shoot.sphere_stop(args.conv_tol))
        u = np.concatenate([u, cont.u[1:]])
        spheres = np.concatenate([spheres, cont.spheres[1:]])
        continuation = cont.termination
    converged, u_conv = shoot.detect_convergence(spheres, u, args.conv_tol)

    F = traj.monitor("F")
    ok = converged and traj.termination == shoot.REACHED_HORIZON
    return traj, shoot.alc_fit(traj.t, traj.shapes), {
        "mu": mu,
        "termination": traj.termination,
        "positivity_ok": traj.termination != shoot.POSITIVITY_VIOLATION,
        "converged": converged,
        "u_converged": u_conv,
        "continuation": continuation,
        "u_end": float(u[-1]),
        "dist_to_target_end": math.hypot(*(spheres[-1] - flow.SINF).tolist()),
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
    rows = [*range(0, len(traj) - 1, args.stride), len(traj) - 1]
    t, shapes, spheres = traj.t[rows], traj.shapes[rows], traj.spheres[rows]
    if "csv" in args.format:
        path = outdir / f"{tag}.csv"
        write_csv(path, CSV_HEADER, np.column_stack([t, traj.u[rows], shapes, spheres,
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
    """Solve the closure conditions on random states, in one batch, against the flow.

    worst_state is the last sample that raised the running maximum of the
    relative mismatch or of the residual at the analytic derivatives."""
    report["n_samples"] = args.samples
    psi = None
    if args.debug_flip_psi:
        psi = dict(ext.PSI)
        psi[4, 5, 6] = -psi[4, 5, 6]
        report["debug_flip_psi"] = True
    rng = random.Random(args.seed)  # stdlib: importing numpy.random would cost ~13 ms
    states = np.array([[rng.uniform(0.2, 5.0) for _ in range(4)] for _ in range(args.samples)])
    analytic = flow.velocity(states)
    solved = ext.solve_torsion_free_derivs(states, psi)
    unsolved = np.isnan(solved).any(axis=1)
    rel = np.where(unsolved, np.inf,
                   np.max(np.abs(solved - analytic) / np.maximum(1.0, np.abs(analytic)), axis=1))
    res = np.maximum(*ext.torsion_residual(states, analytic, psi))
    failing = (rel > 1e-9) | (res > 1e-10)
    # the last sample to raise a running maximum (from 0): the later first argmax
    peaks = [int(np.argmax(x)) for x in (rel, res) if np.max(x) > 0.0]
    worst_rel = float(np.max(rel))
    report.update({
        "max_relative_mismatch": None if math.isinf(worst_rel) else worst_rel,
        "solve_failures": int(np.sum(unsolved)),
        "max_residual_at_analytic_derivs": float(np.max(res)),
        "failing_samples": int(np.sum(failing)),
        "worst_state": states[max(peaks)].tolist() if peaks else None,
        "pass": not failing.any(),
    })
    return "verify_torsion.json"


# closed form -> (r grid lower end, upper end, conserved value of F)
_ORACLE = {"bgg": (2.3, 50.0, -27.0 / 8.0),
           "bs": (1.2, 50.0, -1.0 / (3.0 * math.sqrt(3.0))),
           "singular": (0.1, 50.0, 1.0 / (3.0 * math.sqrt(3.0)))}


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
    rs = np.geomspace(1.5, 300.0, 260)  # the round closed form's asymptotics
    report["bs_asymptotics"] = _fit_dict(shoot.alc_fit(analysis.r_to_t("bs", rs),
                                                        analysis.closed_form("bs", rs)))
    report["pass"] = ok
    return "oracle.json"


def cmd_shoot(args, outdir: Path, report: dict) -> str:
    if args.mu is None:
        raise ConfigError("shoot needs --mu")
    (mu,) = mu_values(args, default=[])
    traj, fit, summary, ok = _shoot_pipeline(mu, args)
    report.update(summary, alc=_fit_dict(fit), monitors=_monitor_extrema(traj),
                  notes=[shoot.ALC_NOTE], files=_write_shoot_artifacts(mu, traj, outdir, args))
    report["pass"] = ok
    return f"shoot_mu{mu!r}.json"


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
            expected = np.sort(flow.S1_EIGENVALUES)
            got = np.sort(rep.eigenvalues.real)
            entry["expected_eigenvalues"] = list(expected)
            entry["eigenvalue_error"] = float(np.max(np.abs(got - expected)))
            if entry["eigenvalue_error"] > 1e-12 or np.max(np.abs(rep.eigenvalues.imag)) > 1e-8:
                ok = False
            # eigenvector of the -2 sqrt(2) mode is tangent to the diagonal curve
            i = int(np.argmin(np.abs(rep.eigenvalues.real - flow.S1_EIGENVALUES[0])))
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
            got, direction = analysis.chart_eigendata(mu)
        except ValueError as exc:
            raise ConfigError(f"--mu {mu:g}: {exc}") from exc
        expected = np.sort(analysis.CHART_EIGENVALUES)
        err = float(np.max(np.abs(got - expected)))
        closed = shoot.unstable_direction(mu)
        d0, d1, d2 = (direction - closed).tolist()  # unit vectors: |a - b| = 2 sin(angle / 2)
        angle = 2.0 * math.asin(min(1.0, math.sqrt(d0 * d0 + d1 * d1 + d2 * d2) / 2.0))
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


# command -> (function, help, the options it reads); each also takes --out
_COMMANDS = {
    "verify-torsion": (cmd_verify_torsion, "closure conditions vs the analytic flow on "
                       "random shapes", ("--samples", "--seed", "--debug-flip-psi")),
    "oracle": (cmd_oracle, "exactness of the three closed-form solutions", ()),
    "shoot": (cmd_shoot, "produce one family trajectory", ("--mu", *_RUN)),
    "stationary": (cmd_stationary, "stationary directions and their linearizations",
                   ("--mu", "--mu-range")),
    "sweep": (cmd_sweep, "run a grid of mu values", ("--mu", "--mu-range", *_RUN)),
}


def _exit(code: int, command, text: str) -> None:
    """Help on stdout and exit 0, or a usage error on stderr and exit 2; no report either way."""
    usage = f"usage: g2cone {command or '{' + ','.join(_COMMANDS) + '}'} [-h] [options]"
    print(usage, f"g2cone: error: {text}" if code else text, sep="\n",
          file=sys.stderr if code else sys.stdout)
    raise SystemExit(code)


def _help(command) -> None:
    """The commands, or one command's options with their value types, each with its help text."""
    if command is None:
        rows = [(name, text) for name, (_, text, _) in _COMMANDS.items()]
    else:
        rows = []
        for flag in (*_COMMANDS[command][2], "--out"):
            kind, _, text = _OPTIONS[flag]
            rows.append((flag if kind is bool else f"{flag} {kind.__name__.upper()}", text))
    _exit(0, command, "\n".join(f"  {name:<20} {text}" for name, text in rows))


def parse_args(argv=None) -> SimpleNamespace:
    """The command and its options from argv (default sys.argv[1:]) by the rule in the module
    docstring, as a namespace of the command and each option it takes, --out last."""
    argv = sys.argv[1:] if argv is None else list(argv)
    command = argv[0] if argv else None
    if command in ("-h", "--help"):
        _help(None)
    if command not in _COMMANDS:
        _exit(2, None, f"unknown command {command!r}" if argv else "no command")
    values = {flag: _OPTIONS[flag][1] for flag in (*_COMMANDS[command][2], "--out")}
    rest = argv[:0:-1]  # the tokens after the command, popped from the end
    while rest:
        token = rest.pop()
        if token in ("-h", "--help"):
            _help(command)
        flag, eq, value = token.partition("=")
        if flag not in values:
            _exit(2, command, f"{command} takes no option {token!r}")
        kind = _OPTIONS[flag][0]
        if kind is bool and eq or kind is not bool and not (eq or rest):
            _exit(2, command, f"{flag} takes {'no' if kind is bool else 'a'} value")
        try:
            values[flag] = True if kind is bool else kind(value if eq else rest.pop())
        except ValueError as exc:
            _exit(2, command, f"{flag}: {exc}")
    return SimpleNamespace(command=command,
                           **{flag[2:].replace("-", "_"): v for flag, v in values.items()})


def main(argv=None) -> int:
    """Run one command: the only place that makes --out, writes the JSON
    report and prints the verdict.  Exit 0 pass, 1 fail, 2 invalid config."""
    args = parse_args(argv)
    outdir = Path(args.out)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"g2cone: cannot use --out {args.out!r}: {exc}", file=sys.stderr)
        return 2
    report = {"schema": 1, "command": args.command}
    try:
        validate(args)
        # every parsed option but --out, whose path would differ between reruns
        report["config"] = {k: v for k, v in vars(args).items() if k not in ("command", "out")}
        name = _COMMANDS[args.command][0](args, outdir, report)
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
