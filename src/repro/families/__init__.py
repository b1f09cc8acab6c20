"""Competing learned-index families over the shared kernel (PR 10).

The RMI (:mod:`repro.core.rmi`) is one point in the space of
CDF-approximating structures; this package adds the other modern
families, all compiled to the same
:class:`~repro.core.engine.CompiledPlan` flat tables so the batch
engine, the sorted-batch fast path, the dtype-exact column contract,
and the serving/obs layers apply to every one of them:

* :class:`PGMIndex` — recursive ε-bounded piecewise-linear segments;
* :class:`RadixSplineIndex` — spline knots behind a radix table;
* :class:`GappedArrayIndex` — the ALEX-style writable variant, a
  gapped slot array under a live-routed slot model.

``benchmarks/e2e`` races PGM and RadixSpline against the RMI on every
workload; ``tests/test_differential_oracle.py`` pins every family
bit-identical to a bisect oracle across the SOSD-style key shapes.
"""

from ..core.plan_index import CompiledPlanIndex
from .alex import DEFAULT_DENSITY, GappedArrayIndex
from .pgm import DEFAULT_PGM_EPSILON, PGMIndex
from .radix_spline import DEFAULT_SPLINE_EPSILON, RadixSplineIndex
from .segmentation import EpsilonSegmentation, epsilon_segment

__all__ = [
    "CompiledPlanIndex",
    "DEFAULT_DENSITY",
    "DEFAULT_PGM_EPSILON",
    "DEFAULT_SPLINE_EPSILON",
    "EpsilonSegmentation",
    "GappedArrayIndex",
    "PGMIndex",
    "RadixSplineIndex",
    "epsilon_segment",
]
