"""Competing learned-index families over the shared kernel (PR 10).

The RMI (:mod:`repro.core.rmi`) is one point in the space of
CDF-approximating structures; this package adds two modern families,
both compiled to the same :class:`~repro.core.engine.CompiledPlan` flat
tables so the batch engine, the sorted-batch fast path, the
dtype-exact column contract, and the serving/obs layers apply to each:

* :class:`PGMIndex` — recursive ε-bounded piecewise-linear segments;
* :class:`RadixSplineIndex` — spline knots behind a radix table.

``benchmarks/e2e`` races PGM and RadixSpline against the RMI on every
workload; ``tests/test_differential_oracle.py`` pins every family
bit-identical to a bisect oracle across the SOSD-style key shapes.
Inserts are not a family's job: Appendix D.1's delta buffer is
:class:`~repro.core.writable.WritableLearnedIndex` (one run) and
:class:`~repro.lsm.store.LearnedLSMStore` (tiered runs).
"""

from ..core.plan_index import CompiledPlanIndex
from .pgm import DEFAULT_PGM_EPSILON, PGMIndex
from .radix_spline import DEFAULT_SPLINE_EPSILON, RadixSplineIndex
from .segmentation import EpsilonSegmentation, epsilon_segment

__all__ = [
    "CompiledPlanIndex",
    "DEFAULT_PGM_EPSILON",
    "DEFAULT_SPLINE_EPSILON",
    "EpsilonSegmentation",
    "PGMIndex",
    "RadixSplineIndex",
    "epsilon_segment",
]
