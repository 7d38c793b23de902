"""g2cone benchmark: one workload, one run, one JSON result line.

    python3 benchmarks/run.py --workload {sweep,certify,edge} --seed N \
        --seconds S --trace {0,1}

A closed loop with a single caller: it starts one fresh interpreter
(worker.py) at a time, waits for it, and starts the next until
``--seconds`` have passed (at least three executions).  Every execution
runs the same seed-made inputs once, so the run reports means and
medians over repeats of identical work.

``--trace 0`` reports the end-to-end metrics:

* ``setup_s``     -- interpreter start until ``import g2cone.cli`` and
  the lazy set-up have finished;
* ``run_s``       -- wall time of the workload after set-up;
* ``peak_rss_mb`` -- peak resident memory of the workload process.

The two times are given at a fixed machine speed: the loop times the
fixed kernel of reference.py a few times before the first and after
every execution, and reports the run's mean wall times scaled by
``reference.REFERENCE_S`` over the run's mean kernel time.  Means, not
medians: the host switches between a fast and a slow state for seconds
at a time, and a mean follows the share of the run spent in each, where
a median jumps from one state to the other.

``--trace 1`` alternates untraced and traced executions.  The traced
ones wrap the public functions of every layer (spans.py) and import
with ``-X importtime``; the run reports the per-layer metrics listed in
README.md.  Their counts must repeat exactly between traced executions.

Correctness is a gate: an output that misses its check is a failed
operation.  Every execution writes only into a temporary directory in
``benchmarks/.work``, removed at exit, and imports a copy of
``src/g2cone`` made there.  BLAS thread pools are pinned to one thread.  The last line of
standard output is the result; the line before it holds the machine
block and the per-execution samples.  Without the package sources next
to the benchmark it exits 1 and prints no result.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import reference  # noqa: E402
import workloads  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKER = BENCH / "worker.py"
WORKLOADS = ("sweep", "certify", "edge")
MIN_EXECUTIONS = 3   # per kind (untraced, traced) in one run
BUDGET_S = 150.0     # no execution starts after this many seconds of the run
HARD_LIMIT_S = 170.0  # executions still running then are killed; runs end within 180 s
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
TRAJECTORY_FNS = ("shoot.family_shape_trajectory", "shoot.integrate_shape",
                  "shoot.integrate_sphere", "shoot.launch_sphere")
WRITER_FNS = ("reporting.write_csv", "reporting.write_json", "reporting.write_svg_plot")


def _clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class ProbeError(RuntimeError):
    """The package could not be imported from the checkout."""


def prepare(work: Path) -> dict:
    """Copy the package sources into the run's directory; the children's environment.

    The children import the copy, so their bytecode caches never land in src/.
    """
    src = work / "src"
    try:
        shutil.copytree(ROOT / "src" / "g2cone", src / "g2cone",
                        ignore=shutil.ignore_patterns("__pycache__"))
    except OSError as exc:
        raise ProbeError(f"no package sources: {exc}") from exc
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = str(src)
    env["PYTHONHASHSEED"] = "0"
    return env


def _git_sha():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def probe(env: dict, timeout: float) -> dict:
    """Import the package once (fills its bytecode cache); versions found."""
    try:
        proc = subprocess.run([sys.executable, str(WORKER), "--probe"], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise ProbeError("import timed out") from exc
    if proc.returncode != 0:
        raise ProbeError(proc.stderr.strip().splitlines()[-1] if proc.stderr.strip()
                         else f"exit {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def execute(workload: str, seed: int, out: Path, env: dict, traced: bool,
            timeout: float) -> dict:
    """One fresh interpreter running the workload once; its measurements."""
    cmd = [sys.executable]
    if traced:
        cmd += ["-X", "importtime"]
    cmd += [str(WORKER), "--workload", workload, "--seed", str(seed), "--out", str(out)]
    if traced:
        cmd.append("--trace")
    spawned = _clock()
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        proc = None
    lines = proc.stdout.strip().splitlines() if proc is not None else []
    if proc is None or proc.returncode != 0 or not lines:
        why = "timed out" if proc is None else f"exit {proc.returncode}: {proc.stderr[-2000:]}"
        n = workloads.operations(workload)
        return {"traced": traced, "attempted": n, "failed": n, "problems": [why],
                "trace": None, "broken": True}
    res = json.loads(lines[-1])
    res["setup_s"] = res.pop("ready") - spawned
    res["rss_mb"] = res.pop("rss_kb") / 1024.0
    res["traced"] = traced
    res["broken"] = False
    if traced:
        res["imports"] = _import_self_s(proc.stderr)
    return res


def _import_self_s(stderr: str) -> dict:
    """Self import time in seconds per top-level package, from -X importtime."""
    out = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        self_us, _, name = (f.strip() for f in line[len("import time:"):].split("|"))
        top = name.split(".")[0]
        out[top] = out.get(top, 0.0) + int(self_us) * 1e-6
    return out


def _median(values):
    return statistics.median(values) if values else 0.0


def _us_per(seconds: float, n: int) -> float:
    return seconds * 1e6 / n if n else 0.0


def trace_counts(snapshot: dict) -> dict:
    """The parts of a trace that must repeat exactly."""
    return {k: snapshot[k] for k in ("calls", "by_caller", "steps", "bytes_written")}


def layer_metrics(traced: list, untraced: list) -> dict:
    """Per-layer metrics: counts from the first traced execution, times as medians."""
    snaps = [r["trace"] for r in traced]
    first = snaps[0]
    calls = first["calls"]

    def n(name):
        return calls.get(name, 0)

    def med(fn):
        return _median([fn(s) for s in snaps])

    def self_s(names):
        return lambda s: sum(s["self_s"].get(k, 0.0) for k in names)

    def layer(name):
        return lambda s: s["layer_self_s"][name]

    def imported(package):
        return _median([r["imports"].get(package, 0.0) for r in traced])

    acc, rej = first["steps"].get("accepted", 0), first["steps"].get("rejected", 0)
    states = n("exterior.torsion_residual") + n("exterior.solve_torsion_free_derivs")
    integrator_evals = sum(v for k, v in first["by_caller"].items()
                           if k.startswith("flow.velocity<shoot."))
    m = {
        "exterior.residual.calls": (n("exterior.torsion_residual"), "count"),
        "exterior.residual.self_s": (med(self_s(["exterior.torsion_residual"])), "s"),
        "exterior.solve.calls": (n("exterior.solve_torsion_free_derivs"), "count"),
        "exterior.solve.self_s": (med(self_s(["exterior.solve_torsion_free_derivs"])), "s"),
        "exterior.wedge.calls": (n("exterior.wedge"), "count"),
        "exterior.us_per_state": (med(lambda s: _us_per(layer("exterior")(s), states)),
                                  "us/state"),
        "flow.velocity.calls": (n("flow.velocity"), "count"),
        "flow.velocity.self_s": (med(self_s(["flow.velocity"])), "s"),
        "flow.monitors.calls": (n("flow.monitors"), "count"),
        "flow.monitors.self_s": (med(self_s(["flow.monitors"])), "s"),
        "flow.modified_field.calls": (n("flow.modified_field"), "count"),
        "shoot.trajectory.calls": (sum(n(k) for k in TRAJECTORY_FNS), "count"),
        "shoot.trajectory.self_s": (med(self_s(TRAJECTORY_FNS)), "s"),
        "shoot.steps.accepted": (acc, "count"),
        "shoot.steps.rejected": (rej, "count"),
        "shoot.step_accept_ratio": (acc / (acc + rej) if acc + rej else 0.0, "ratio"),
        "shoot.evals_per_step": (integrator_evals / (acc + rej) if acc + rej else 0.0,
                                 "evals/step"),
        "shoot.us_per_step": (med(lambda s: _us_per(
            self_s(TRAJECTORY_FNS)(s), acc + rej)), "us/step"),
        "shoot.edge.integrations": (
            first["by_caller"].get("shoot.family_shape_trajectory<shoot.critical_parameter", 0),
            "count"),
        "shoot.series_start.self_s": (med(self_s(["shoot.series_start"])), "s"),
        "analysis.self_s": (med(layer("analysis")), "s"),
        "analysis.r_to_t.calls": (n("analysis.r_to_t"), "count"),
        "reporting.self_s": (med(layer("reporting")), "s"),
        "reporting.files": (sum(n(k) for k in WRITER_FNS), "count"),
        "reporting.bytes_written": (first["bytes_written"], "bytes"),
        "cli.self_s": (med(layer("cli")), "s"),
        "setup.numpy_s": (imported("numpy"), "s"),
        "setup.scipy_s": (imported("scipy"), "s"),
        "setup.g2cone_s": (imported("g2cone"), "s"),
        "trace.overhead_s": (_median([r["run_s"] for r in traced])
                             - _median([r["run_s"] for r in untraced]), "s"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


def end_to_end_metrics(runs: list, kernel_s: list) -> dict:
    scale = reference.REFERENCE_S / statistics.fmean(kernel_s)

    def scaled(key):
        return statistics.fmean(r[key] for r in runs) * scale

    return {
        "setup_s": {"value": scaled("setup_s"), "unit": "s"},
        "run_s": {"value": scaled("run_s"), "unit": "s"},
        "peak_rss_mb": {"value": _median([r["rss_mb"] for r in runs]), "unit": "MB"},
    }


def measure(workload: str, seed: int, seconds: float, trace: bool, work: Path,
            started: float) -> tuple:
    """Run the closed loop; (executions, machine block)."""
    env = prepare(work)
    machine = {
        "cpus": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "load_avg_before": list(os.getloadavg()),
        "git_sha": _git_sha(),
        "thread_env": {k: env.get(k) for k in sorted(THREAD_ENV)},
    }
    machine.update(probe(env, started + HARD_LIMIT_S - _clock()))
    loop_start = _clock()
    deadline = loop_start + seconds
    done = []
    kernel_s = reference.samples()
    while True:
        traced = trace and len(done) % 2 == 1
        out = work / f"exec{len(done)}"
        done.append(execute(workload, seed, out, env, traced,
                            started + HARD_LIMIT_S - _clock()))
        shutil.rmtree(out, ignore_errors=True)
        kernel_s += reference.samples()
        kinds = [r["traced"] for r in done if not r["broken"]]
        enough = (kinds.count(False) >= MIN_EXECUTIONS
                  and (not trace or kinds.count(True) >= MIN_EXECUTIONS))
        now = _clock()
        # stop when the next execution would end mostly past the deadline
        half_next = 0.5 * (now - loop_start) / len(done)
        if done[-1]["broken"] or now - started > BUDGET_S or (
                enough and now + half_next >= deadline):
            break
    machine["load_avg_after"] = list(os.getloadavg())
    machine["reference_s"] = kernel_s
    return done, machine


def summarize(workload: str, done: list, trace: bool, kernel_s: list) -> tuple:
    """(result line, problems)."""
    problems = [p for r in done for p in r["problems"]]
    good = [r for r in done if not r["broken"]]
    traced = [r for r in good if r["traced"]]
    untraced = [r for r in good if not r["traced"]]
    attempted = sum(r["attempted"] for r in done)
    failed = sum(r["failed"] for r in done)
    correct = failed == 0 and len(good) == len(done) and untraced and (traced or not trace)
    if trace and traced:
        counts = [trace_counts(r["trace"]) for r in traced]
        if any(c != counts[0] for c in counts[1:]):
            correct = False
            problems.append("traced counts differ between executions of the same inputs")
        metrics = layer_metrics(traced, untraced) if untraced else {}
    else:
        metrics = end_to_end_metrics(untraced, kernel_s) if untraced else {}
    return {"correct": bool(correct), "attempted": attempted, "failed": failed,
            "metrics": metrics}, problems


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    started = _clock()

    scratch = BENCH / ".work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        done, machine = measure(args.workload, args.seed, args.seconds, bool(args.trace), work,
                                started)
    except ProbeError as exc:
        print(f"benchmark: cannot import g2cone from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with_contents = scratch.exists() and any(scratch.iterdir())
        if not with_contents:
            shutil.rmtree(scratch, ignore_errors=True)

    result, problems = summarize(args.workload, done, bool(args.trace), machine["reference_s"])
    for msg in problems[:10]:
        print(f"benchmark: {msg}", file=sys.stderr)
    samples = [{k: r.get(k) for k in ("traced", "setup_s", "run_s", "rss_mb", "attempted",
                                      "failed")} for r in done]
    traced = [r for r in done if r["traced"] and not r["broken"]]
    print(json.dumps({"workload": args.workload, "seed": args.seed, "machine": machine,
                      "samples": samples,
                      "counts": trace_counts(traced[0]["trace"]) if traced else None}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
