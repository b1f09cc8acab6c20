"""``repro.util.sorted_order`` against ``np.sort`` / stable ``np.argsort``.

The primitive sorts integer batches of at least
``PACKED_ORDER_MIN_KEYS`` values as one uint64 word per value, the
offset from the minimum shifted above the value's index, and falls back
to ``np.argsort`` plus a gather where the span leaves the index no room,
below the crossover, and for floats.  These tests pin both paths to the
NumPy oracles over every integer dtype, the span boundary the packing
depends on, and the input shapes a sort treats specially.
"""

import numpy as np
import pytest

from repro.dispatch import PACKED_ORDER_MIN_KEYS
from repro.util import _packed_order, sorted_order

N = PACKED_ORDER_MIN_KEYS
INTEGER_DTYPES = [
    np.int8, np.int16, np.int32, np.int64,
    np.uint8, np.uint16, np.uint32, np.uint64,
]


def assert_sorts(values: np.ndarray, kind: str = "quicksort"):
    """``sorted_order(values)`` equals ``np.sort`` and sorts ``values``;
    its order is the stable argsort's wherever it promises stability."""
    ordered, order = sorted_order(values, kind)
    assert ordered.dtype == values.dtype
    np.testing.assert_array_equal(ordered, np.sort(values))
    np.testing.assert_array_equal(values[order], ordered)
    np.testing.assert_array_equal(np.sort(order), np.arange(values.size))
    if kind == "stable" or _takes_packed(values):
        np.testing.assert_array_equal(
            order, np.argsort(values, kind="stable")
        )


def _takes_packed(values: np.ndarray) -> bool:
    return (
        values.size >= N
        and values.dtype.kind in "iu"
        and _packed_order(values) is not None
    )


def _full_range(dtype, n: int, rng) -> np.ndarray:
    info = np.iinfo(dtype)
    return rng.integers(int(info.min), int(info.max), n, dtype=dtype,
                        endpoint=True)


@pytest.mark.parametrize("dtype", INTEGER_DTYPES)
@pytest.mark.parametrize("n", [0, 1, 2, N - 1, N])
def test_integer_dtypes_at_every_size(dtype, n):
    rng = np.random.default_rng(n)
    # Narrow values repeat (equal runs test stability); full-range
    # 64-bit values leave the index no bits and take the fallback.
    narrow = rng.integers(0, 100, n).astype(dtype)
    assert_sorts(narrow)
    assert_sorts(_full_range(dtype, n, rng))
    assert_sorts(narrow, "stable")
    if n == N:
        assert _takes_packed(narrow)
        assert _takes_packed(_full_range(dtype, n, rng)) == (
            np.dtype(dtype).itemsize < 8
        )


@pytest.mark.parametrize("n", [N - 1, N])
def test_floats_take_the_fallback(n):
    rng = np.random.default_rng(3)
    values = rng.normal(0, 1e6, n)
    values[rng.integers(0, n, 40)] = np.nan
    values[rng.integers(0, n, 20)] = np.inf
    values[rng.integers(0, n, 20)] = -np.inf
    values[rng.integers(0, n, 20)] = 0.5
    assert not _takes_packed(values)
    assert_sorts(values)
    assert_sorts(values, "stable")


@pytest.mark.parametrize("dtype, low", [
    (np.int64, -(2**63)), (np.int64, 2**62), (np.uint64, 2**63),
])
def test_span_boundary(dtype, low):
    """A span of exactly ``2**(64 - b) - 1`` packs, ``2**(64 - b)``
    does not (``b`` the bit length of ``n - 1``)."""
    bits = (N - 1).bit_length()
    rng = np.random.default_rng(bits)
    for span, packs in ((2 ** (64 - bits) - 1, True),
                        (2 ** (64 - bits), False)):
        middle = [low + int(x) for x in rng.integers(0, span, N - 2)]
        values = np.array(middle + [low + span, low], dtype=dtype)
        rng.shuffle(values)
        assert _takes_packed(values) == packs
        assert_sorts(values)


@pytest.mark.parametrize("n", [N - 1, N, 3 * N])
def test_input_shapes(n):
    rng = np.random.default_rng(n)
    values = rng.integers(-(10**12), 10**12, n)
    for shaped in (
        np.full(n, -7, dtype=np.int64),  # all equal
        np.sort(values),  # presorted
        np.sort(values)[::-1].copy(),  # reversed
        np.repeat(np.sort(values[: n // 8 + 1]), 8)[:n],  # sorted runs
    ):
        assert_sorts(shaped)
        assert_sorts(shaped, "stable")
