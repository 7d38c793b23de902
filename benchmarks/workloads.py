"""The three benchmark workloads: inputs from a seed, the work, the checks.

Each workload runs through the package's public entry points only
(`g2cone.cli.main`, `shoot.critical_parameter`, `shoot.launch_sphere`)
and checks every output against the paper's known answers, never
against exit codes alone.  An output that misses its check is a failed
operation.

* ``sweep``   -- ``g2cone sweep`` over a 9-member mu grid that straddles
  the family edge: 5 members converge, 4 escape.  The main product; most
  of its time is closure certification (`exterior`) along trajectories,
  the rest integration (`shoot`, `flow`) and emission (`reporting`).
* ``certify`` -- ``verify-torsion`` on random shapes, its flipped-3-form
  negative control, ``oracle`` and ``stationary``.  Uses `exterior`
  through the solve route on random shapes and `analysis`; integrates
  no trajectory.
* ``edge``    -- the family edge mu* by `shoot.critical_parameter`,
  cross-checked by two sphere launches.  Pure `shoot` and `flow`: no
  closure engine and no files, so it is the bypass case for every
  `exterior` or `reporting` change.

Inputs depend only on the seed (stdlib `random`), so a parent process
can make them without importing numpy.  The seed jitters each input
slightly; the amount of work stays nearly the same from seed to seed.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import random
from pathlib import Path

# -- the paper's answers ------------------------------------------------------

MU_STAR = 0.5441298121120781          # family edge, mu* = 0.5441298(1)
MU_STAR_TOL = 1e-9
LAUNCH_OFFSET = 1e-5                  # sphere launches at mu* -/+ this
SLOPES_LIMIT = (0.0, 1.0 / math.sqrt(3.0), 2.0 / 3.0, 1.0 / math.sqrt(3.0))
SLOPES_TOL = 2e-2
F_INITIAL_TOL = 1e-10                 # F at the singular orbit is mu (1 - mu^2)
TORSION_TOL = 1e-10                   # d(Psi), d(star Psi) along the flow
SOLVE_REL_TOL = 1e-9                  # closure solve vs analytic right-hand side
CLOSED_FORM_F = {"bgg": -27.0 / 8.0, "bs": -1.0 / (3.0 * math.sqrt(3.0)),
                 "singular": 1.0 / (3.0 * math.sqrt(3.0))}
CLOSED_FORM_TOL = 1e-7
F_CONSTANT_TOL = 1e-9
_R2, _R3 = math.sqrt(2.0), math.sqrt(3.0)
STATIONARY = {
    "S1": (1 / (2 * _R2), 1 / (2 * _R2), _R3 / (2 * _R2), _R3 / (2 * _R2)),
    "Sinf": (0.0, _R3 / math.sqrt(10.0), _R2 / math.sqrt(5.0), _R3 / math.sqrt(10.0)),
}
S1_EIGENVALUES = sorted((-2.0 * _R2, (-7.0 * _R2 - math.sqrt(290.0)) / 3.0,
                         (-7.0 * _R2 + math.sqrt(290.0)) / 3.0))
CHART_EIGENVALUES = (-2.0, 0.0, 2.0)
STATIONARY_TOL = 1e-10
EIGEN_TOL = 1e-6
CHART_EIGEN_TOL = 1e-7
DIRECTION_TOL = 1e-6

SWEEP_MEMBERS = 9
VERIFY_SAMPLES = 200
FLIP_SAMPLES = 20
CHART_MUS = 3


# -- inputs -------------------------------------------------------------------


def inputs(workload: str, seed: int) -> dict:
    rng = random.Random(f"{workload}:{seed}")
    if workload == "sweep":
        # members 1-5 stay below mu* and 6-9 above, for any jitter drawn
        return {"lo": 0.1 + rng.uniform(-0.01, 0.01), "hi": 0.9 + rng.uniform(-0.01, 0.01)}
    if workload == "certify":
        return {"seed": seed, "chart_lo": 0.25 + rng.uniform(-0.02, 0.02),
                "chart_hi": 0.75 + rng.uniform(-0.02, 0.02)}
    if workload == "edge":
        # a bisection step costs more below mu* (the trajectory runs to t_max)
        # than above it, so the steps must fall on the same sides for every
        # seed.  A jitter of 1e-4 moves a midpoint across mu* from about the
        # 10th step on, and the work then differs by up to 13 % between seeds
        # (122k-138k field evaluations); with 1e-6 it differs by under 0.4 %.
        return {"lo": 0.5 + rng.uniform(-1e-6, 1e-6), "hi": 0.6 + rng.uniform(-1e-6, 1e-6)}
    raise ValueError(f"unknown workload {workload!r}")


def operations(workload: str) -> int:
    """Number of checked operations in one execution of the workload."""
    return {"sweep": SWEEP_MEMBERS,
            "certify": VERIFY_SAMPLES + FLIP_SAMPLES + len(CLOSED_FORM_F)
            + len(STATIONARY) + CHART_MUS,
            "edge": 3}[workload]


# -- the work -----------------------------------------------------------------


def _cli(argv: list) -> int:
    from g2cone import cli

    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def run(workload: str, inp: dict, out: Path) -> dict:
    """Execute the workload once; returns what its checks need."""
    if workload == "sweep":
        rng = f"{inp['lo']!r}:{inp['hi']!r}:{SWEEP_MEMBERS}"
        return {"rc": _cli(["sweep", "--mu-range", rng, "--format", "csv,json",
                            "--out", str(out / "sweep")])}
    if workload == "certify":
        seed = str(inp["seed"])
        charts = f"{inp['chart_lo']!r}:{inp['chart_hi']!r}:{CHART_MUS}"
        return {
            "verify": _cli(["verify-torsion", "--samples", str(VERIFY_SAMPLES), "--seed", seed,
                            "--out", str(out / "verify")]),
            "flip": _cli(["verify-torsion", "--debug-flip-psi", "--samples", str(FLIP_SAMPLES),
                          "--seed", seed, "--out", str(out / "flip")]),
            "oracle": _cli(["oracle", "--out", str(out / "oracle")]),
            "stationary": _cli(["stationary", "--mu-range", charts,
                                "--out", str(out / "stationary")]),
        }
    if workload == "edge":
        from g2cone import shoot

        mu = shoot.critical_parameter(inp["lo"], inp["hi"], tol=1e-9)
        return {"mu": mu,
                "below": shoot.launch_sphere(mu - LAUNCH_OFFSET),
                "above": shoot.launch_sphere(mu + LAUNCH_OFFSET)}
    raise ValueError(f"unknown workload {workload!r}")


# -- the checks ---------------------------------------------------------------


def check(workload: str, inp: dict, raw: dict, out: Path) -> tuple:
    """(failed operations, list of problems) for one execution."""
    return {"sweep": _check_sweep, "certify": _check_certify,
            "edge": _check_edge}[workload](inp, raw, out)


def _load(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


def _check_sweep(inp, raw, out):
    problems = []
    report = _load(out / "sweep" / "sweep.json")
    with open(out / "sweep" / "sweep.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    lo, hi = inp["lo"], inp["hi"]
    grid = [lo + i * (hi - lo) / (SWEEP_MEMBERS - 1) for i in range(SWEEP_MEMBERS)]
    if raw["rc"] != 1 or len(rows) != SWEEP_MEMBERS or len(report["members"]) != SWEEP_MEMBERS:
        return SWEEP_MEMBERS, [f"sweep exit {raw['rc']} with {len(rows)} rows "
                               "(want exit 1, the escaping members fail by design)"]
    bad = set()
    witnesses = []
    for i, (mu, row, member) in enumerate(zip(grid, rows, report["members"])):
        got = float(row["mu"])
        w = member["witness_F_over_f3"]
        witnesses.append(float("nan") if w is None else float(w))
        converged = row["converged"] == "true"
        why = None
        if abs(got - mu) > 1e-12 or member["converged"] != converged:
            why = f"grid or report mismatch at {got}"
        elif mu < MU_STAR:
            slopes = [float(row[k] or "nan") for k in ("slope_A1", "slope_A2", "slope_B1",
                                                        "slope_B2")]
            torsion = max(float(row["max_torsion_dpsi"]), float(row["max_torsion_dstar"]))
            if not converged:
                why = "did not converge below mu*"
            elif not abs(float(row["F_initial"]) - mu * (1.0 - mu * mu)) <= F_INITIAL_TOL:
                why = f"F_initial {row['F_initial']} != mu (1 - mu^2)"
            elif not torsion <= TORSION_TOL:
                why = f"torsion residual {torsion:.3e}"
            elif not all(abs(s - t) <= SLOPES_TOL for s, t in zip(slopes, SLOPES_LIMIT)):
                why = f"slopes {slopes}"
        elif converged:
            why = "converged above mu*"
        if why is not None:
            bad.add(i)
            problems.append(f"sweep member mu={mu:.6f}: {why}")
    # F / f^3 on the sphere tells members apart: no two converging
    # members may be rescalings of one another
    below = [i for i, mu in enumerate(grid) if mu < MU_STAR]
    for i in below:
        for j in below[below.index(i) + 1:]:
            if not abs(witnesses[i] - witnesses[j]) > 1e-9:
                bad.update((i, j))
                problems.append(f"sweep witnesses of members {i} and {j} not distinct")
    return len(bad), problems


def _check_certify(inp, raw, out):
    problems = []
    failed = 0

    verify = _load(out / "verify" / "verify_torsion.json")
    rel = verify["max_relative_mismatch"]
    res = verify["max_residual_at_analytic_derivs"]
    if (raw["verify"] != 0 or rel is None or not rel <= SOLVE_REL_TOL
            or not res <= TORSION_TOL or verify["n_samples"] != VERIFY_SAMPLES):
        failed += VERIFY_SAMPLES
        problems.append(f"verify-torsion exit {raw['verify']}, mismatch {rel}, residual {res}")
    else:
        failed += verify["failing_samples"]

    # negative control: with one sign of Psi flipped every sample must fail
    flip = _load(out / "flip" / "verify_torsion.json")
    if raw["flip"] != 1 or flip.get("debug_flip_psi") is not True or flip["pass"] is not False:
        failed += FLIP_SAMPLES
        problems.append(f"flipped 3-form not detected (exit {raw['flip']})")
    else:
        missed = FLIP_SAMPLES - flip["failing_samples"]
        failed += missed
        if missed:
            problems.append(f"flipped 3-form passed on {missed} samples")

    oracle = _load(out / "oracle" / "oracle.json")
    for kind, f_const in CLOSED_FORM_F.items():
        e = oracle[kind]
        if (raw["oracle"] != 0 or not e["max_mismatch"] <= CLOSED_FORM_TOL
                or not abs(e["F_constant"] - f_const) <= 1e-15
                or not e["F_deviation"] <= F_CONSTANT_TOL):
            failed += 1
            problems.append(f"closed form {kind}: {e}")

    stat = _load(out / "stationary" / "stationary.json")
    for name, point in STATIONARY.items():
        e = stat["stationary"][name]
        ok = (raw["stationary"] == 0
              and max(abs(a - b) for a, b in zip(e["point"], point)) <= STATIONARY_TOL
              and e["field_residual"] <= STATIONARY_TOL)
        if name == "S1":
            ok = ok and max(abs(a - b) for a, b in zip(sorted(e["eigenvalues_real"]),
                                                       S1_EIGENVALUES)) <= EIGEN_TOL
            ok = ok and max(abs(v) for v in e["eigenvalues_imag"]) <= 1e-8
        if not ok:
            failed += 1
            problems.append(f"stationary point {name}: {e}")
    lo, hi = inp["chart_lo"], inp["chart_hi"]
    charts = stat["chart"]
    for i in range(CHART_MUS):
        mu = lo + i * (hi - lo) / (CHART_MUS - 1)
        e = charts[i] if i < len(charts) else None
        ok = e is not None and raw["stationary"] == 0 and abs(e["mu"] - mu) <= 1e-12
        if ok:
            lam = math.sqrt((1.0 - mu * mu) / 2.0)
            norm = math.hypot(1.0, mu / (4.0 * lam))
            want = (1.0 / norm, mu / (4.0 * lam) / norm, 0.0)
            cos = sum(a * b for a, b in zip(e["unstable_direction"], want))
            ok = (max(abs(a - b) for a, b in zip(sorted(e["eigenvalues"]),
                                                 CHART_EIGENVALUES)) <= CHART_EIGEN_TOL
                  and math.acos(min(1.0, abs(cos))) <= DIRECTION_TOL)
        if not ok:
            failed += 1
            problems.append(f"chart linearization at mu={mu:.6f}: {e}")
    return failed, problems


def _check_edge(inp, raw, out):
    from g2cone import shoot

    problems = []
    failed = 0
    mu = raw["mu"]
    if not abs(mu - MU_STAR) <= MU_STAR_TOL:
        failed += 1
        problems.append(f"edge {mu!r} differs from mu* by {mu - MU_STAR:.3e}")
    below, above = raw["below"], raw["above"]
    if below.termination != shoot.CONVERGED or (below.monitor("G1") < 0.0).any():
        failed += 1
        problems.append(f"launch below the edge: {below.termination}")
    if above.termination == shoot.CONVERGED or not (above.monitor("G1") < 0.0).any():
        failed += 1
        problems.append(f"launch above the edge did not escape: {above.termination}")
    return failed, problems
