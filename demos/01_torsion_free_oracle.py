"""Closure conditions of the G2 structure as an oracle for the flow.

The invariant 3-form on the deformed cone is torsion free exactly when
d(Psi) = 0 and d(star Psi) = 0.  Both conditions are affine in the four
shape derivatives, so they can be *solved* for the derivatives -- with
no knowledge of the analytic flow equations.  This script shows that the
solved derivatives coincide with the analytic right-hand side, and that
a single wrong sign in the 3-form is caught immediately.

Run:  python demos/01_torsion_free_oracle.py
"""

import numpy as np

from g2cone import exterior as ext
from g2cone import flow

rng = np.random.default_rng(0)

print("The defining 3-form (sorted-index basis, signs from permutation parity):")
print(" ", ext.g2_form())
print("Its Hodge dual:")
print(" ", ext.hodge_star(ext.g2_form()))
print()

print("At the unit shape (1, 1, 1, 1) the flow moves only B1 and B2:")
state = ext.ShapeState(1.0, 1.0, 1.0, 1.0)
print("  solved from the closure conditions:", ext.solve_torsion_free_derivs(state))
print("  analytic right-hand side:         ", flow.velocity(state))
print()

print("Agreement over 200 random shapes in [0.2, 5]^4:")
worst_rel = worst_res = 0.0
for _ in range(200):
    s = ext.ShapeState(*rng.uniform(0.2, 5.0, size=4))
    solved = ext.solve_torsion_free_derivs(s)
    analytic = flow.velocity(s)
    worst_rel = max(worst_rel, float(np.max(
        np.abs(solved - analytic) / np.maximum(1.0, np.abs(analytic)))))
    worst_res = max(worst_res, *ext.torsion_residual(s, flow.velocity(s)))
print(f"  worst relative mismatch:   {worst_rel:.3e}")
print(f"  worst closure coefficient: {worst_res:.3e}")
print()

print("Negative control: flip the sign of one monomial of the 3-form.")
flipped = dict(ext.g2_form().coeffs)
flipped[(4, 5, 6)] = -flipped[(4, 5, 6)]
bad = ext.KForm(3, flipped)
res = ext.torsion_residual(state, flow.velocity(state), bad)
print(f"  closure residual at the analytic derivatives: {max(res):.3f}"
      " (three orders of magnitude above anything torsion free)")
