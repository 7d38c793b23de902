"""One member of the metric family, end to end.

A smooth metric closing the cone singularity leaves the singular orbit
with shape (mu, lambda, 0, lambda); the launch uses a power series built
order by order from the flow equations.  The trajectory is integrated to
t = 200, its sphere projection is continued in u until it enters the
proven trapping set of the limit direction, and the asymptotically conic
behaviour is certified by affine fits: A1 approaches a constant (the
bounded circle direction) while the other three functions grow linearly.

Run:  python demos/03_family_trajectory.py
"""

from pathlib import Path

import numpy as np

from g2cone import flow, shoot

OUT = Path("demos_out")
OUT.mkdir(exist_ok=True)
MU = 0.35

series = shoot.series_start(MU, order=6)
print(f"series launch for mu = {MU} (lambda = {series.lam:.6f}):")
print("  t^0:", np.round(series.coefficients[0], 8))
print("  t^1:", np.round(series.coefficients[1], 8),
      "   [B1'(0) = 2, A2'(0) = -B2'(0) = -mu/(4 lambda)]")
delta = series.truncation_offset(1e-12)
print(f"  launch offset delta = {delta:.3e}")
print()

traj = shoot.family_shape_trajectory(MU, t_max=200.0, tol=1e-12)
F = traj.monitor("F")
print(f"shape integration to t = 200: {len(traj)} samples, {traj.termination}")
print(f"  conserved cubic F: {F[0]:.12f} (drift {np.max(np.abs(F - F[0])):.2e}; "
      f"seed value mu(1 - mu^2) = {MU * (1 - MU**2):.12f})")

u_end = float(traj.u[-1])
cont = shoot.integrate_sphere(traj.spheres[-1], u_end, 60.0, ln_f0=np.log(traj.f[-1]),
                              tol=1e-10, stop=shoot.sphere_stop(1e-6))
ok, u_conv = shoot.detect_convergence(cont.spheres, cont.u, tol=1e-6)
print(f"  sphere continuation: converged to the limit direction at u = {u_conv:.3f}")
print(f"  stopped ({cont.termination}) after {cont.stats['steps']} steps, in the proven "
      f"trapping set at distance {np.linalg.norm(cont.spheres[-1] - flow.SINF):.2e}")
print()

fit = shoot.alc_fit(traj.t, traj.shapes)
print("asymptotically conic fit over the trailing half:")
for name, slope, intercept in zip(("A1", "A2", "B1", "B2"), fit.slopes, fit.intercepts):
    print(f"  {name}: slope {slope:+.6f}  intercept {intercept:+.6f}")
print(f"  limit slopes are (0, 1/sqrt3, 2/3, 1/sqrt3) = "
      f"(0, {1/np.sqrt(3):.6f}, {2/3:.6f}, {1/np.sqrt(3):.6f})")
print(f"  note: {fit.note}")
print()

from g2cone.reporting import write_svg_plot  # noqa: E402

write_svg_plot(OUT / f"family_mu{MU}_shapes.svg",
               [(traj.t, traj.shapes[:, j], n)
                for j, n in enumerate(("A1", "A2", "B1", "B2"))],
               f"family member mu = {MU}", "t", "metric functions")
write_svg_plot(OUT / f"family_mu{MU}_sphere.svg",
               [(traj.spheres[:, 0], traj.spheres[:, 2], "shape run"),
                (cont.spheres[:, 0], cont.spheres[:, 2], "u continuation")],
               "sphere projection", "alpha1", "alpha3")
print(f"wrote {OUT / f'family_mu{MU}_shapes.svg'} and _sphere.svg")
