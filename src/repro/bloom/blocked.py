"""Register-blocked Bloom filter: one 64-bit word per key.

Putze, Sanders & Singler ("Cache-, Hash- and Space-Efficient Bloom
Filters", 2007) confine each key's ``k`` bits to one block; with a
block the size of a machine word, a membership check is one load,
one AND and one compare instead of ``k`` scattered bit reads.  The
price, at equal bits, is a higher false-positive rate: words fill
unevenly (a Poisson number of keys lands in each), and the fullest
words answer for most false positives.  At the ~9.6 bits a key that
:func:`~repro.bloom.optimal_bits` gives a 1% standard filter, this
filter's rate is ~2%; :meth:`BlockedBloomFilter.for_capacity` sizes
it by its own stated rate (:attr:`BlockedBloomFilter.expected_fpr`)
instead, ~10.2 bits a key for 1.7%.

A key's probe derives from the seed-1 hash that
:meth:`BloomFilter.hash_keys` already computes: the high 32 bits pick
the word by multiply-shift (``(h >> 32) * words >> 32``, no modulo),
and the low 30 bits are five 6-bit bit positions, OR-ed into the
key's mask.  Both halves of that ``(word hash, mask)`` pair are the
same for every filter whatever its size, so a reader that asks many
filters about one batch derives them once (:meth:`probe_keys`) and
each filter pays one multiply, one shift, one gather, one AND and one
compare (:meth:`contains_probes`).
"""

from __future__ import annotations

import functools
import math
import struct

import numpy as np

from ..hashmap.hashing import murmur_fmix64
from .standard import BloomFilter, _as_int_array, _integral

__all__ = ["BlockedBloomFilter"]

#: Bits a key sets in its word: one per 6-bit group of its hash's low
#: 30 bits (two groups may name one bit).
NUM_HASHES = 5

_WORD_BITS = 64
_SHIFT32 = np.uint64(32)
_LOW12 = np.uint64(0xFFF)
_LOW6 = np.uint64(63)
_ONE = np.uint64(1)

#: The mask bits of one 12-bit chunk of a hash: bit ``x & 63`` and bit
#: ``x >> 6``, so two gathers cover four of the five groups.
_PAIR_MASKS = np.array(
    [(1 << (x & 63)) | (1 << (x >> 6)) for x in range(1 << 12)],
    dtype=np.uint64,
)


#: ``(d, chance that a key's NUM_HASHES draws name d distinct bits)``
#: for d = 1..NUM_HASHES: ``C(64, d) d! S(5, d) / 64^5``.
_DISTINCT_SHARES = tuple(
    (d, math.comb(_WORD_BITS, d) * sum(
        (-1) ** j * math.comb(d, j) * (d - j) ** NUM_HASHES
        for j in range(d + 1)
    ) / _WORD_BITS**NUM_HASHES)
    for d in range(1, NUM_HASHES + 1)
)


def _rate(all_miss) -> float:
    """The false-positive rate of a key drawn independently of the
    stored ones, for uniform hashes, given ``all_miss(p)``: the chance
    that every key in the query's word misses a set of bits that one
    key misses with chance ``p``.  A query whose mask has ``d``
    distinct bits passes if each of them is set, counted by
    inclusion-exclusion over the ``d`` bits; one key misses ``i``
    given bits with chance ``(1 - i/64)^5``."""
    return sum(
        share * sum(
            (-1) ** i * math.comb(d, i)
            * all_miss((1 - i / _WORD_BITS) ** NUM_HASHES)
            for i in range(d + 1)
        )
        for d, share in _DISTINCT_SHARES
    )


@functools.lru_cache(maxsize=None)
def _keys_per_word(fpr: float) -> float:
    """The most keys a word may hold on average with the stated rate
    at most ``fpr``, for Poisson word loads (the many-word limit; the
    binomial loads of a filter spread less, and its rate comes out
    lower still).  Bisection: the rate rises with the load."""
    if not 0 < fpr < 1:
        raise ValueError("fpr must be in (0, 1)")
    lo, hi = 0.0, float(_WORD_BITS)
    for _ in range(60):
        load = (lo + hi) / 2
        if _rate(lambda p: math.exp(-load * (1 - p))) <= fpr:
            lo = load
        else:
            hi = load
    return lo


def _probes(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(word hash, mask)`` per uint64 hash of ``h``; ``h`` itself is
    overwritten with the word hashes (its high 32 bits)."""
    part = np.bitwise_and(h, _LOW12)
    mask = _PAIR_MASKS.take(part.view(np.int64))  # < 4096: an intp view
    pair = np.empty_like(mask)
    np.right_shift(h, np.uint64(12), out=part)
    part &= _LOW12
    _PAIR_MASKS.take(part.view(np.int64), out=pair, mode="clip")
    mask |= pair
    np.right_shift(h, np.uint64(24), out=part)
    part &= _LOW6
    np.left_shift(_ONE, part, out=part)
    mask |= part
    h >>= _SHIFT32
    return h, mask


def _scalar_probe(key: int) -> tuple[int, int]:
    """:func:`_probes` of one integer key, in Python ints."""
    h = murmur_fmix64(key, seed=1)
    mask = 0
    for group in range(NUM_HASHES):
        mask |= 1 << ((h >> (6 * group)) & 63)
    return h >> 32, mask


class BlockedBloomFilter:
    """Bloom filter over integer keys whose every key owns one 64-bit
    word of ``num_words``.

    Integer keys only: any other value is never a key, so ``in`` and
    :meth:`contains_batch` answer ``False`` for it and
    :meth:`add_batch` raises ``TypeError``.
    """

    _WIRE = struct.Struct("<4sIQ")  # magic, words, count: 16 bytes
    _WIRE_MAGIC = b"BBL5"  # register-blocked, five bits a key

    def __init__(self, num_words: int):
        if not 1 <= num_words < 1 << 32:
            raise ValueError("num_words must be in [1, 2^32)")
        self.num_words = int(num_words)
        self._words = np.zeros(self.num_words, dtype=np.uint64)
        self.count = 0

    @classmethod
    def for_capacity(cls, n: int, fpr: float) -> "BlockedBloomFilter":
        """A filter whose :attr:`expected_fpr` with ``n`` keys is at
        most ``fpr``, in the words the many-word limit asks for: at
        most one more than the fewest that would do.  ~10.2 bits a key
        at ``fpr = 0.017``, where a standard filter would need ~8.5."""
        return cls(max(1, math.ceil(n / _keys_per_word(fpr))))

    # -- probes ---------------------------------------------------------------

    @staticmethod
    def probe_keys(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(word hash, mask)``, uint64, per integer key: what
        :meth:`contains_probes` reads, the same for every filter."""
        return _probes(BloomFilter.hash_keys(keys))

    def _word_index(self, word_hashes: np.ndarray) -> np.ndarray:
        """Each word hash's word, by multiply-shift: both factors are
        below 2^32, so the product cannot wrap."""
        index = word_hashes * np.uint64(self.num_words)
        index >>= _SHIFT32
        return index.view(np.int64)  # < num_words: an intp view

    def contains_probes(
        self, word_hashes: np.ndarray, masks: np.ndarray
    ) -> np.ndarray:
        """One bool per probe of :meth:`probe_keys`: may its key be in
        the filter?  Both arrays are read, never written."""
        words = self._words.take(self._word_index(word_hashes), mode="clip")
        words &= masks
        return words == masks

    def contains_hashes(self, hashes: np.ndarray) -> np.ndarray:
        """One bool per hash of :meth:`BloomFilter.hash_keys`;
        ``hashes`` is read, never written."""
        return self.contains_probes(*_probes(hashes.copy()))

    # -- operations -----------------------------------------------------------

    def add_batch(self, keys) -> None:
        """Add every integer key: one ``bitwise_or.at`` scatter of the
        masks into their words.  Raises ``TypeError`` on a batch that
        is not all integers, and ``ValueError`` on a filter adopted by
        :meth:`from_bytes`."""
        arr = _as_int_array(keys)
        if arr is None:
            keys = [_integral(key) for key in keys]
            if None in keys:
                raise TypeError("blocked bloom filter keys are integers")
            arr = np.array(keys, dtype=np.int64)
        if arr.size == 0:
            return
        if not self._words.flags.writeable:
            raise ValueError("filter adopted from bytes is read-only")
        word_hashes, masks = self.probe_keys(arr)
        np.bitwise_or.at(self._words, self._word_index(word_hashes), masks)
        self.count += int(arr.size)

    def __contains__(self, key) -> bool:
        if type(key) is not int:
            key = _integral(key)
            if key is None:
                return False
        word_hash, mask = _scalar_probe(key)
        word = int(self._words[(word_hash * self.num_words) >> 32])
        return word & mask == mask

    def contains_batch(self, keys) -> np.ndarray:
        """One bool per key; an integer array takes one vectorized
        pass, anything else is asked key by key."""
        arr = _as_int_array(keys)
        if arr is None:
            return np.array([key in self for key in keys], dtype=bool)
        return self.contains_probes(*self.probe_keys(arr))

    # -- serialization --------------------------------------------------------

    def to_bytes(self) -> bytes:
        """Wire form: a 16-byte header (magic, word count, key count)
        and the words, little-endian: in an 8-byte-aligned buffer
        the words are aligned too."""
        return self._WIRE.pack(
            self._WIRE_MAGIC, self.num_words, self.count
        ) + self._words.astype("<u8", copy=False).tobytes()

    @classmethod
    def from_bytes(cls, blob) -> "BlockedBloomFilter":
        """Inverse of :meth:`to_bytes`; ``ValueError`` on malformed
        input.  Like :meth:`BloomFilter.from_bytes`, the filter adopts
        a read-only view of the buffer (a copy of the words where they
        are not aligned there)."""
        raw = np.frombuffer(blob, dtype=np.uint8)
        if raw.size < cls._WIRE.size:
            raise ValueError("blocked bloom blob too short")
        magic, num_words, count = cls._WIRE.unpack_from(raw)
        if magic != cls._WIRE_MAGIC:
            raise ValueError(f"bad blocked bloom magic {magic!r}")
        body = raw[cls._WIRE.size:]
        if num_words < 1 or body.size != num_words * 8:
            raise ValueError(
                f"blocked bloom blob carries {body.size} word bytes for "
                f"{num_words} words"
            )
        out = cls.__new__(cls)
        out.num_words = int(num_words)
        words = body.view("<u8")
        if not words.flags.aligned or words.dtype != np.uint64:
            words = words.astype(np.uint64)
        words.flags.writeable = False  # never write through to the source
        out._words = words
        out.count = int(count)
        return out

    # -- evaluation -----------------------------------------------------------

    @property
    def expected_fpr(self) -> float:
        """The false-positive rate of a key drawn independently of the
        stored ones, for uniform hashes: exact for the filter's
        binomial word loads."""
        n, m = self.count, self.num_words
        return _rate(lambda p: (1 - (1 - p) / m) ** n)

    def size_bytes(self) -> int:
        return self._words.nbytes

    def __repr__(self) -> str:
        return (
            f"BlockedBloomFilter(words={self.num_words}, n={self.count}, "
            f"size={self.size_bytes()}B)"
        )
