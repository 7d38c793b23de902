"""Repeat the benchmark over seeds and report how steady each metric is.

    python3 benchmarks/repeat.py --runs 10 [--workloads sweep,certify,edge]
        [--seconds 30] [--trace 0] [--seed0 1] [--save FILE]

Runs run.py ``--runs`` times per workload, each time with another seed,
interleaving the workloads (the order rotates every round) so that a
slow spell of the machine falls on all of them.  For every metric it
prints the median over runs, the quartiles from
``statistics.quantiles(values, n=4)`` and their distance as a share of
the median, next to the metric's bound from BENCHMARK.json.  A spread
above a third of its bound (``setup_s`` excepted) is flagged.  Every run
must be correct with zero failed operations; the exit status is 1 if
any is not.  ``--save`` writes every run, the machine blocks and the
summary as JSON.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True

import argparse  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple:
    """(result line, detail line) of one run.py invocation."""
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(lines[-1]), json.loads(lines[-2])


def spread(values: list) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--workloads", default=None, help="comma list; default: all")
    p.add_argument("--seconds", type=int, default=None, help="default: run_seconds")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--seed0", type=int, default=1)
    p.add_argument("--save", type=Path, default=None)
    args = p.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = (args.workloads.split(",") if args.workloads
             else [w["name"] for w in spec["workloads"]])
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    results = {w: [] for w in names}
    runs = []
    ok = True
    for r in range(args.runs):
        order = names[r % len(names):] + names[:r % len(names)]
        for w in order:
            seed = args.seed0 + r
            result, detail = run_once(w, seed, seconds, args.trace)
            results[w].append(result)
            runs.append({"workload": w, "seed": seed, "result": result, "detail": detail})
            bad = not result["correct"] or result["failed"] != 0
            ok = ok and not bad
            print(f"# {w} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}", file=sys.stderr, flush=True)

    summary = {}
    print(f"{'workload':<9} {'metric':<28} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>7} {'bound':>6}")
    for w in names:
        summary[w] = {}
        for metric in results[w][0]["metrics"]:
            values = [res["metrics"][metric]["value"] for res in results[w]]
            s = spread(values) if len(values) > 1 else {"median": values[0], "q1": values[0],
                                                        "q3": values[0], "spread": 0.0}
            summary[w][metric] = s
            bound = bounds.get(metric)
            flag = ""
            if bound is not None and metric != "setup_s" and s["spread"] > bound / 3:
                flag = "  > bound/3"
            print(f"{w:<9} {metric:<28} {s['median']:>12.6g} {s['q1']:>12.6g} "
                  f"{s['q3']:>12.6g} {s['spread']:>7.3f} "
                  f"{'' if bound is None else bound:>6}{flag}")
    if args.save is not None:
        args.save.write_text(json.dumps({"seconds": seconds, "trace": args.trace,
                                         "summary": summary, "runs": runs}, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
