"""The two classical explicit solutions, plus their singular mirror.

Three closed forms solve the shape flow: the asymmetric solution with
B1 = 2r/3 (a complete metric with a collapsing 3-sphere), the round
solution A = (r/3) sqrt(1 - r^-3), B = r/sqrt(3) (complete, bolt at
r = 1), and the formal mirror of the round one with 1 + r^-3, which
never closes smoothly.  They are this package's exactness oracles: the
script verifies each against the flow field, checks the conserved cubic,
and plots the round solution.

Run:  python demos/02_closed_form_solutions.py
"""

import math
from pathlib import Path

import numpy as np

from g2cone import analysis, flow
from g2cone.reporting import write_svg_plot

OUT = Path("demos_out")
OUT.mkdir(exist_ok=True)

print("Exactness against the flow field (200 samples each):")
for kind, lo, hi in (("bgg", 2.3, 50.0), ("bs", 1.2, 50.0), ("singular", 0.1, 50.0)):
    rep = analysis.verify_solution(kind, np.linspace(lo, hi, 200))
    print(f"  {kind:9s} max mismatch {rep['max_mismatch']:.2e}   "
          f"F = {rep['F_mean']:+.12f} (spread {rep['F_spread']:.1e})")
print()
print("Expected conserved values: -27/8 =", -27 / 8,
      " and -1/(3 sqrt 3) =", -1 / (3 * math.sqrt(3)))
print("(the singular mirror carries the opposite sign, +1/(3 sqrt 3))")
print()

print("The r -> t change of variables integrates 1/(dr/dt) through an")
print("integrable square-root singularity at each origin:")
for kind in ("bgg", "bs"):
    r0 = {"bgg": 2.25, "bs": 1.0}[kind]
    for dr in (0.01, 1.0, 10.0):
        print(f"  {kind}: t(r0 + {dr:5.2f}) = {analysis.r_to_t(kind, r0 + dr):.8f}")
print()

rs = np.linspace(1.02, 12.0, 300)
ts = analysis.r_to_t("bs", rs)
shapes = analysis.closed_form("bs", rs)
write_svg_plot(OUT / "round_solution.svg",
               [(ts, shapes[:, 0], "A"), (ts, shapes[:, 2], "B")],
               "round closed-form solution", "t", "metric functions")
print(f"wrote {OUT / 'round_solution.svg'}")

print()
print("Near the conic stationary direction both classical solutions")
print("approach the same ray on the sphere:")
for r in (5.0, 20.0, 100.0):
    shape = analysis.closed_form("bs", r)
    d = np.linalg.norm(shape / np.linalg.norm(shape) - flow.S1)
    print(f"  round solution at r = {r:5.1f}: |S - S1| = {d:.3e}")
