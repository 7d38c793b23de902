"""Stationary directions of the sphere flow and their linearizations.

Exactly two shape directions are fixed by the tangential flow (up to the
sixteen discrete symmetries): the conic point S1, where the classical
explicit solutions land, and the limit direction S_inf of the metric
family.  The script prints their eigendata, including the corrected
linearization of the desingularized chart flow on the singular arc.

Run:  python demos/04_stationary_points.py
"""

import math

import numpy as np

from g2cone import analysis, flow

for rep in analysis.stationary_points():
    print(f"{rep.name}: {np.round(rep.point, 10)}")
    print(f"  |W| = {rep.field_residual:.2e}, symmetry orbit size {rep.orbit_size}")
    print(f"  tangential eigenvalues: {np.round(rep.eigenvalues.real, 8)}")
    neg, zer, pos = rep.classification
    kind = "saddle" if pos and neg else ("sink" if neg == 3 else "source")
    print(f"  classification: {neg} stable / {zer} neutral / {pos} unstable ({kind})")
    print()

print("closed forms at S1: -2 sqrt2, -7 sqrt2/3 -+ sqrt290/3 =")
print("  ", np.round(sorted(flow.S1_EIGENVALUES), 8))
print("the -2 sqrt2 mode is tangent to the diagonal a1 = a2, a3 = a4, i.e.")
print("to the ray of the round explicit solution.")
print()
print("observed closed forms at S_inf: -2 sqrt10, -sqrt10, -sqrt10/3 =")
print("  ", np.round(sorted([-2 * math.sqrt(10), -math.sqrt(10), -math.sqrt(10) / 3]), 8))
print("all three rates are negative: the limit direction attracts, with the")
print("slowest rate equal to the radial growth rate sqrt(10)/3.")
print()

print("Linearization of the desingularized chart field on the singular arc:")
for mu in (0.25, 0.5, 0.75):
    lam = math.sqrt((1 - mu * mu) / 2)
    w, vec = analysis.chart_eigendata(mu)
    print(f"  mu = {mu}: eigenvalues {np.round(w, 9)}, "
          f"outgoing direction {np.round(vec, 6)}")
    print(f"           closed form: (1, mu/(4 lambda), 0) with mu/(4 lambda) "
          f"= {mu / (4 * lam):.6f}")
print()
print("Note: these eigenvalues are {2, -2, 0}, not the sometimes-quoted")
print("{2, -1, 0}; the finite-difference Jacobian of the chart field and the")
print("agreement between the eigenvector launch and the independent")
print("power-series launch both confirm the factor of two.")
