"""RadixSpline: error-bounded spline knots routed by a radix table.

The RadixSpline (Kipf et al., aiDM @ SIGMOD 2020) approximates the CDF
with a linear spline whose knots keep the prediction error within ε,
and replaces the knot binary search with a radix table: the top ``r``
bits of a key's offset from the minimum index a table cell whose two
entries bracket every knot that can precede the key.  A lookup is one
shift + two table reads + a bounded search over a handful of knots,
then the spline segment's linear interpolation.

Here the spline comes from the shared ε-segmentation run in
``endpoint`` mode (each segment's line interpolates its first and last
point — exactly a spline chord, built array-native instead of the
paper's streaming corridor), and the spline segments *are* the leaf
tables of a :class:`~repro.core.engine.CompiledPlan`.  The radix table
plus one lock-step bounded search over the knot array form this
family's ``root_predict_batch``.  The bracket property

    ``table[c] <= lower_bound(knots, q) <= table[c + 1]``   (q in cell c)

holds because the cell function is monotone in the key, so the bounded
search resolves the exact predecessor knot in float64.  Knots and table
live in the index's model space (``key - keys[0]``, exact in the key
dtype before the float64 cast — :class:`~repro.core.engine.ModelSpace`);
a query the routing misplaces is caught by the engine's dtype-native
verification and fix-up, keeping results bit-identical to the bisect
oracle.
"""

from __future__ import annotations

from bisect import bisect_right

import numpy as np

from ..core.search import vectorized_bounded_search
from ..models.cdf import positions_for_keys
from ..core.plan_index import CompiledPlanIndex
from ..util import clamp_into
from .pgm import _predecessor
from .segmentation import epsilon_segment

__all__ = ["RadixSplineIndex", "DEFAULT_SPLINE_EPSILON"]

#: Default spline error bound; endpoint chords need a somewhat tighter
#: ε than least-squares segments for comparable window widths.
DEFAULT_SPLINE_EPSILON = 32

#: Radix table size limits (2**bits cells).
MIN_RADIX_BITS = 4
MAX_RADIX_BITS = 20


class RadixSplineIndex(CompiledPlanIndex):
    """Read-optimized RadixSpline over a sorted key array.

    Parameters
    ----------
    keys:
        Sorted numpy array (not copied); any dtype the shared column
        supports.
    epsilon:
        Spline error bound — same ε semantics as the PGM (hard bound
        on multi-value segments, measured bounds on single-value runs).
    radix_bits:
        Table size as log2(cells); ``None`` (default) sizes the table
        to roughly twice the knot count, clamped to
        ``[MIN_RADIX_BITS, MAX_RADIX_BITS]``.
    """

    def __init__(
        self,
        keys: np.ndarray,
        epsilon: int = DEFAULT_SPLINE_EPSILON,
        radix_bits: int | None = None,
    ):
        self.epsilon = float(epsilon)
        self._radix_bits_arg = radix_bits
        super().__init__(keys)

    def _build(self) -> None:
        n = self.keys.size
        keys_f = self._space.encode(self.keys)
        seg = epsilon_segment(
            keys_f, positions_for_keys(n), self.epsilon, fit="endpoint"
        )
        m = seg.segment_count
        self.build_rounds = seg.rounds
        knots = keys_f[seg.boundaries[:-1]]  # strictly increasing
        self._knots = knots
        self._knots_list = knots.tolist()
        if self._radix_bits_arg is not None:
            bits = int(self._radix_bits_arg)
        else:
            bits = int(np.ceil(np.log2(max(m, 2)))) + 1
        self.radix_bits = min(max(bits, MIN_RADIX_BITS), MAX_RADIX_BITS)
        cells = 1 << self.radix_bits
        self._num_cells = cells
        min_f = float(knots[0])
        span = float(keys_f[-1]) - min_f
        # scale maps a key offset to its cell; multiplication by a
        # positive float is monotone, which is all the bracket proof
        # needs.  A single-point span degenerates to one cell.
        self._min_f = min_f
        self._scale = cells / span if span > 0 else 0.0
        knot_cells = ((knots - min_f) * self._scale).astype(np.int64)
        clamp_into(knot_cells, 0, cells - 1)
        # table[c] = first knot whose cell >= c; the bracket for cell c
        # is [table[c], table[c + 1]].
        self._table = np.searchsorted(
            knot_cells, np.arange(cells + 1), side="left"
        ).astype(np.int64)
        inv = n / m

        def root_predict_batch(qf: np.ndarray) -> np.ndarray:
            j = self._route_knots(np.asarray(qf, dtype=np.float64))
            return (j.astype(np.float64) + 0.5) * inv

        self._install_plan(
            root_predict_batch, m,
            seg.slopes, seg.intercepts, seg.lo_offsets, seg.hi_offsets,
        )

    def _route_knots(self, qf: np.ndarray) -> np.ndarray:
        """Predecessor knot index per query via the radix table."""
        knots = self._knots
        cell = ((qf - self._min_f) * self._scale).astype(np.int64)
        clamp_into(cell, 0, self._num_cells - 1)
        lo = self._table[cell]
        hi = self._table[cell + 1]
        pos = vectorized_bounded_search(knots, qf, lo, hi)
        return _predecessor(pos, knots, qf)

    def _route_scalar(self, encoded: float) -> int:
        j = bisect_right(self._knots_list, encoded) - 1
        return j if j >= 0 else 0

    def _routing_size_bytes(self) -> int:
        return self._knots.size * 8 + self._table.size * 8
