"""A sweep across the parameter and the edge of the metric family.

Every launch parameter mu in (0, 1) yields a unique local solution off
the singular orbit, but only those below a critical value give complete
metrics: the sphere trajectory must stay inside the invariant region
{G1 = a2 a4 - a1 a3 > 0} on its way to the limit direction.  Beyond the
edge it crosses the G1 = 0 wall while G2 > 0 -- a region the flow never
leaves.  The sphere launch stops at that crossing, which decides the
escape, and the sweep prints where it happened; the family run
(family_shape_trajectory) still follows the path on to the corner where
three shape coordinates vanish, degenerating at finite t.  At the edge
itself the trajectory converges to the conic point S1 instead: the
asymptotically conic boundary member of the family.

Run:  python demos/05_family_edge.py
"""

import numpy as np

from g2cone import flow, shoot

print("sweep over mu (sphere-normalized seed (mu, lambda, 0, lambda)):")
print(f"{'mu':>6} {'outcome':22} {'u_conv':>8} {'u_wall':>8} {'min dist to S1':>15}")
for mu in np.arange(1, 10) / 10.0:
    traj = shoot.launch_sphere(mu, u_max=60.0)
    ok, u_conv = shoot.detect_convergence(traj.spheres, traj.params, tol=1e-6)
    d1 = float(np.min(np.linalg.norm(traj.spheres - flow.S1, axis=1)))
    outcome = "converges to S_inf" if ok else "escapes (incomplete)"
    u_str = f"{u_conv:8.2f}" if ok else "       -"
    wall = traj.termination == shoot.WALL_CROSSING  # ends at its first sample past the wall
    w_str = f"{traj.params[-1]:8.4f}" if wall else "       -"
    print(f"{mu:6.1f} {outcome:22} {u_str} {w_str} {d1:15.4e}")
print()

print("locating the family edge by bisection on the wall crossing:")
mu_star = shoot.critical_parameter(lo=0.53, hi=0.56, tol=1e-7)
print(f"  mu* = {mu_star:.7f}")
print()

print("just below the edge the trajectory grazes the conic point S1:")
for mu in (0.52, 0.54, 0.5441):
    traj = shoot.family_shape_trajectory(mu, t_max=60.0, tol=1e-12)
    d1 = float(np.min(np.linalg.norm(traj.spheres - flow.S1, axis=1)))
    print(f"  mu = {mu:<7}: closest approach to S1 = {d1:.3e}")
print()
escaped = shoot.family_shape_trajectory(0.6, t_max=60.0, tol=1e-12)
print("past the wall the family run at mu = 0.6 heads on into the corner:")
print(f"  {escaped.termination} at t = {escaped.params[-1]:.4f} with "
      f"max(alpha2, alpha3, alpha4) = {float(np.max(escaped.spheres[-1, 1:])):.2e}")
print()
print("the edge member is asymptotically conic (it limits onto S1, where the")
print("round explicit solution lives); members below it are asymptotically")
print("locally conic with a bounded circle along the A1 direction.")
