"""Numerical construction of the one-parameter family of G2-holonomy
metrics on deformations of the cone over S^3 x S^3.

The package is organized around six pieces:

* :mod:`g2cone.exterior` -- the closure conditions on the invariant
  coframe: holds the defining 3-form as a map of seven signs, evaluates
  d(Psi) and d(star Psi) and re-derives the torsion-free flow from them
  (the independent oracle).
* :mod:`g2cone.flow` -- the shape ODE system, its first integral, the
  radial/tangential split on S^3, the desingularized chart, symmetries,
  monitors, the adaptive DP54 integrator and Gauss-Legendre quadrature.
* :mod:`g2cone.shoot` -- power-series launch off the singular orbit,
  eigenvector launch off the singular arc, the stops of each run,
  convergence detection, asymptotically-conic fits and the family edge.
* :mod:`g2cone.analysis` -- stationary directions, linearizations,
  small eigenproblems, and the classical closed-form solutions used as
  exactness oracles.
* :mod:`g2cone.reporting` -- deterministic CSV / JSON / SVG emission.
* :mod:`g2cone.cli` -- the ``g2cone`` command and its verification suites.

Shapes (A1, A2, B1, B2) and their t-derivatives are (..., 4) arrays
throughout.  ``exterior`` imports none of the flow layers (``flow``,
``shoot``, ``analysis``) and none of them imports it, so the closure
oracle stays independent of the flow it checks.
"""

__version__ = "0.1.0"
