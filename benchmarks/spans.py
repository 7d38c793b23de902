"""Layer spans recorded from outside the package.

`Tracer.install()` replaces the public functions (the names in each
module's ``__all__``) of the traced g2cone modules by wrappers, in every
g2cone module that holds a reference to them, so calls made inside the
package are seen as well as calls made by the benchmark.  Nothing under
``src/`` is edited; `Tracer.uninstall()` puts the originals back.

Two kinds of wrapper:

* a *span* records calls and time.  A span's self time is its duration
  minus the time of the spans it encloses, so the self times of all
  spans add up to the traced wall time without double counting;
* a *count* records calls only.  It is used for the small helpers that
  the closure engine and the emitters call hundreds of thousands of
  times, where a timer per call would cost as much as the call; their
  time stays in the self time of the span that encloses them.

Counts are exact and repeat between runs with the same inputs; times
are as measured.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("exterior", "flow", "shoot", "analysis", "reporting", "cli")

# helpers called in tight loops inside their own layer: calls only
COUNT_ONLY = {
    "exterior": {"basis_form", "wedge", "hodge_star", "g2_form", "coframe_differentials",
                 "exterior_derivative", "residual_coefficients", "torsion_system"},
    "reporting": {"fmt_float", "dump_json"},
}

# functions that integrate a trajectory with the DP54 integrator; their
# Trajectory.stats carry the step counters of exactly one integration
INTEGRATORS = {"shoot.integrate_shape", "shoot.integrate_sphere"}
WRITERS = {"reporting.write_csv", "reporting.write_json", "reporting.write_svg_plot"}


class Tracer:
    """In-memory spans and counters for one traced workload run."""

    def __init__(self):
        self.calls = Counter()            # "layer.function" -> calls
        self.self_s = defaultdict(float)  # "layer.function" -> self seconds
        self.by_caller = Counter()        # ("layer.function", enclosing span) -> calls
        self.steps = Counter()            # accepted / rejected DP54 steps
        self.bytes_written = 0
        self._stack = []                  # open spans: [name, child seconds]
        self._patched = []                # (module, attribute, original)

    # -- wrappers ---------------------------------------------------------

    def _span(self, name, fn):
        calls, self_s, by_caller, stack = self.calls, self.self_s, self.by_caller, self._stack
        clock = time.perf_counter
        integrator, writer = name in INTEGRATORS, name in WRITERS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            by_caller[name, stack[-1][0] if stack else None] += 1
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                self_s[name] += dt - frame[1]
                if stack:
                    stack[-1][1] += dt
            if integrator:
                self.steps["accepted"] += out.stats["steps"]
                self.steps["rejected"] += out.stats["rejected"]
            elif writer:
                self.bytes_written += os.path.getsize(args[0])
            return out

        return wrapper

    def _count(self, name, fn):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        import g2cone.cli  # noqa: F401  (loads every traced layer)

        modules = [m for n, m in sys.modules.items() if n.startswith("g2cone")]
        for layer in LAYERS:
            mod = sys.modules[f"g2cone.{layer}"]
            for attr in mod.__all__:
                fn = getattr(mod, attr)
                if not callable(fn) or isinstance(fn, type):
                    continue
                name = f"{layer}.{attr}"
                make = self._count if attr in COUNT_ONLY.get(layer, ()) else self._span
                wrapped = make(name, fn)
                for holder in modules:
                    for key, value in list(vars(holder).items()):
                        if value is fn:
                            self._patched.append((holder, key, fn))
                            setattr(holder, key, wrapped)

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._patched):
            setattr(holder, key, original)
        self._patched.clear()

    # -- results ----------------------------------------------------------

    def layer_self_s(self, layer: str) -> float:
        return sum(v for k, v in self.self_s.items() if k.startswith(layer + "."))

    def snapshot(self) -> dict:
        """Plain-data view of everything recorded, for the parent process."""
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "layer_self_s": {layer: self.layer_self_s(layer) for layer in LAYERS},
            "by_caller": {f"{k[0]}<{k[1]}": v for k, v in self.by_caller.items()},
            "steps": dict(self.steps),
            "bytes_written": self.bytes_written,
        }
