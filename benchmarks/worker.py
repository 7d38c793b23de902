"""One execution of one workload in a fresh interpreter.

Started by run.py, never imported, with PYTHONPATH naming the copy of
the package sources to use.  It imports the package, finishes the lazy
set-up and notes the monotonic clock (set-up ends there), runs the
workload once, optionally under the layer tracer, checks the outputs,
and prints one JSON line.  With ``--probe`` it only imports the package
and prints the versions it found.

    PYTHONPATH=SRC python worker.py --workload sweep --seed 1 --out DIR [--trace]
    PYTHONPATH=SRC python worker.py --probe
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path


def _import_package():
    import g2cone.cli  # noqa: F401

    src = Path(os.environ["PYTHONPATH"]).resolve()
    where = Path(g2cone.cli.__file__).resolve()
    if src not in where.parents:
        raise ImportError(f"g2cone imported from {where}, not from {src}")
    # lazy set-up: the first closure evaluation builds (Psi, star Psi)
    from g2cone import exterior, flow

    state = exterior.ShapeState(1.0, 1.2, 0.8, 1.1)
    exterior.torsion_residual(state, flow.rhs(state))


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--probe", action="store_true")
    p.add_argument("--workload")
    p.add_argument("--seed", type=int)
    p.add_argument("--out", type=Path)
    p.add_argument("--trace", action="store_true")
    args = p.parse_args()

    _import_package()
    ready = time.clock_gettime(time.CLOCK_MONOTONIC)
    if args.probe:
        import numpy
        import scipy

        print(json.dumps({"python": platform.python_version(), "numpy": numpy.__version__,
                          "scipy": scipy.__version__}))
        return 0

    sys.dont_write_bytecode = True  # no caches next to the benchmark's own files
    import spans
    import workloads

    inp = workloads.inputs(args.workload, args.seed)
    tracer = spans.Tracer() if args.trace else None
    raw, problems = None, []
    if tracer is not None:
        tracer.install()
    t0 = time.perf_counter()
    try:
        raw = workloads.run(args.workload, inp, args.out)
    except Exception:  # a crash of the program fails every operation
        problems.append(traceback.format_exc(limit=4))
    run_s = time.perf_counter() - t0
    if tracer is not None:
        tracer.uninstall()

    attempted = workloads.operations(args.workload)
    failed = attempted
    if raw is not None:
        try:
            failed, problems = workloads.check(args.workload, inp, raw, args.out)
        except (OSError, KeyError, ValueError, TypeError) as exc:
            problems.append(f"unreadable output: {exc!r}")
    print(json.dumps({
        "ready": ready,
        "run_s": run_s,
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "trace": tracer.snapshot() if tracer is not None else None,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
