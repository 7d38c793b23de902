"""Numerical construction of the one-parameter family of G2-holonomy
metrics on deformations of the cone over S^3 x S^3.

The package is organized around five pieces:

* :mod:`g2cone.exterior` -- the closure conditions on the invariant
  coframe: holds the defining 3-form as a map of seven signs, evaluates
  d(Psi) and d(star Psi) and re-derives the torsion-free flow from them
  (the independent oracle).
* :mod:`g2cone.flow` -- the shape ODE system, its first integral, the
  radial/tangential split on S^3, the desingularized chart at the
  singular arc, discrete symmetries and scalar monitors.
* :mod:`g2cone.shoot` -- power-series launch off the singular orbit,
  eigenvector launch off the singular arc, adaptive integration,
  convergence detection and asymptotically-conic fits.
* :mod:`g2cone.analysis` -- stationary directions, linearizations,
  small eigenproblems, and the classical closed-form solutions used as
  exactness oracles.
* :mod:`g2cone.cli` -- the ``g2cone`` command with the verification
  suites and artifact emission (CSV / JSON / SVG).

Shapes (A1, A2, B1, B2) and their t-derivatives are (..., 4) arrays
throughout.  ``exterior`` and the flow layers (``flow``, ``shoot``,
``analysis``) import nothing from each other, and the classes
re-exported here load their module on first access, so the closure
oracle stays independent of the flow it checks.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "exterior": ("ShapeState",),
    "shoot": ("SeriesStart", "Trajectory", "ALCFit"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_HOME, "__version__"]


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
