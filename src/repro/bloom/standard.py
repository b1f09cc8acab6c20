"""Standard Bloom filter (Section 5 baseline).

"Internally, Bloom filters use a bit array of size m and k hash
functions, which each map a key to one of the m array positions."

Implements the classic filter with double hashing (h1 + i*h2, the
Kirsch-Mitzenmacher construction, which preserves the asymptotic FPR of
k independent hashes), optimal parameter selection from (n, target
FPR), and measured-FPR evaluation — Figure 10's baseline curve comes
from :meth:`BloomFilter.size_bytes` at each target FPR.
"""

from __future__ import annotations

import math
import struct

import numpy as np

from ..dispatch import ROW_WALK_MIN_KEYS
from ..hashmap.hashing import murmur3_string, murmur_fmix64, murmur_fmix64_batch

__all__ = ["BloomFilter", "optimal_bits", "optimal_hash_count"]

def _reduce(x: np.ndarray, m) -> np.ndarray:
    """``x mod m`` in place, for non-negative ``x`` and a scalar ``m``:
    numpy divides by a scalar with a multiply and a shift, but its
    remainder runs a hardware divide per element, ~2x this."""
    x -= x // m * m
    return x


def optimal_bits(n: int, fpr: float) -> int:
    """m = -n ln(p) / (ln 2)^2, the classic optimum."""
    if n < 0:
        raise ValueError("n must be non-negative")
    if not 0.0 < fpr < 1.0:
        raise ValueError("fpr must be in (0, 1)")
    if n == 0:
        return 8
    return max(8, int(math.ceil(-n * math.log(fpr) / (math.log(2) ** 2))))


def optimal_hash_count(m: int, n: int) -> int:
    """k = (m/n) ln 2, at least 1."""
    if n <= 0:
        return 1
    return max(1, int(round(m / n * math.log(2))))


def _integral(key) -> int | None:
    """A number's ``int`` if it is integral, else ``None``."""
    try:
        value = int(key)
    except (ValueError, OverflowError):  # NaN, +-inf
        return None
    return value if value == key else None


def _refuse(key) -> TypeError:
    return TypeError(f"bloom filter keys are integers or strings, not {key!r}")


class BloomFilter:
    """Bit-array Bloom filter over string or integer keys.

    A number that is not an integer is never a key: ``in`` and
    :meth:`contains_batch` answer ``False`` for it, and :meth:`add` /
    :meth:`add_batch` raise ``TypeError`` and add nothing.
    """

    def __init__(self, num_bits: int, num_hashes: int):
        if num_bits < 1:
            raise ValueError("num_bits must be >= 1")
        if num_hashes < 1:
            raise ValueError("num_hashes must be >= 1")
        self.num_bits = int(num_bits)
        self.num_hashes = int(num_hashes)
        self._bits = np.zeros((self.num_bits + 7) // 8, dtype=np.uint8)
        self.count = 0

    @classmethod
    def for_capacity(cls, n: int, fpr: float) -> "BloomFilter":
        """Optimally sized filter for ``n`` keys at the target FPR."""
        m = optimal_bits(n, fpr)
        k = optimal_hash_count(m, max(n, 1))
        return cls(m, k)

    # -- hashing --------------------------------------------------------------

    def _hash_pair(self, key) -> tuple[int, int] | None:
        """The key's two hashes, or ``None`` for a number that is not
        an integer (``2.5``, NaN): no integer key is equal to it.  An
        integral number hashes as its ``int``."""
        if type(key) is not int and not isinstance(key, str):
            key = _integral(key)
            if key is None:
                return None
        if isinstance(key, str):
            h1 = murmur3_string(key, seed=0x9747B28C)
            h2 = murmur3_string(key, seed=0x1B873593)
        else:
            h = murmur_fmix64(key, seed=1)
            h1, h2 = h & 0xFFFFFFFF, (h >> 32) & 0xFFFFFFFF
        # Double hashing degenerates if h2 == 0 mod m.
        if h2 % self.num_bits == 0:
            h2 += 1
        return h1, h2

    def _positions(self, key) -> list[int] | None:
        pair = self._hash_pair(key)
        if pair is None:
            return None
        h1, h2 = pair
        m = self.num_bits
        return [(h1 + i * h2) % m for i in range(self.num_hashes)]

    @staticmethod
    def hash_keys(keys: np.ndarray) -> np.ndarray:
        """The uint64 hashes :meth:`contains_hashes` reads, one per
        integer key.  Every filter hashes its integer keys with the
        same seed whatever its size, so one pass serves any number of
        filters (an LSM read asks one per run)."""
        return murmur_fmix64_batch(keys, seed=1)

    def _probe_start(
        self, hashes: np.ndarray, steps: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(h1, s)``, uint64: each hashed key's first hash and step,
        ``s`` written into ``steps`` (``hashes`` itself, where the
        caller is done with them) or a new array.

        Probe ``i`` of :meth:`_positions` is ``(h1 + i*h2) mod m``,
        which is ``(h1 + i*s) mod m`` for ``s = h2 mod m`` — with
        ``s = 1`` where ``h2 mod m == 0``, the scalar path's ``h2 + 1``
        bump reduced mod ``m``.  ``h1 < 2^32``, so ``h1 + i*s`` cannot
        overflow.
        """
        h1 = hashes & np.uint64(0xFFFFFFFF)
        s = np.right_shift(hashes, np.uint64(32), out=steps)
        _reduce(s, np.uint64(self.num_bits))
        s[s == 0] = 1
        return h1, s

    @staticmethod
    def _next_row(p, s, m, wrapped) -> None:
        """Advance probe positions ``p`` by their steps ``s``, in place.
        Both are below ``m``, so this is one add and one conditional
        subtract, never a modulo."""
        p += s  # < 2m
        # p - m wraps above p unless p >= m: the min subtracts m
        # exactly where the sum passed it.
        np.subtract(p, m, out=wrapped)
        np.minimum(p, wrapped, out=p)

    def _probe_rows(self, hashes: np.ndarray):
        """Yield probe ``0 .. k-1``'s bit positions for every hashed
        key, one length-n row at a time; ``hashes`` is overwritten.
        The row is updated in place: use it before asking for the
        next."""
        h1, s = self._probe_start(hashes, hashes)
        m = np.uint64(self.num_bits)
        p = _reduce(h1, m)
        wrapped = np.empty_like(p)
        yield p
        for _ in range(self.num_hashes - 1):
            self._next_row(p, s, m, wrapped)
            yield p

    @staticmethod
    def _as_int_array(keys) -> np.ndarray | None:
        """``keys`` as an integer ndarray, or None for the scalar path
        (strings, object dtypes, ints overflowing int64)."""
        if isinstance(keys, np.ndarray) and keys.dtype.kind in "iu":
            return keys.ravel()
        try:
            arr = np.asarray(keys)
        except (ValueError, OverflowError):
            return None
        return arr.ravel() if arr.dtype.kind in "iu" else None

    # -- operations ------------------------------------------------------------

    def add(self, key) -> None:
        positions = self._positions(key)
        if positions is None:
            raise _refuse(key)
        for pos in positions:
            self._bits[pos >> 3] |= 1 << (pos & 7)
        self.count += 1

    def add_batch(self, keys) -> None:
        """Add every key; integer arrays take one vectorized pass.

        The vectorized path hashes the whole batch once
        (:func:`~repro.hashmap.hashing.murmur_fmix64_batch`), scatters
        each of the ``k`` probe rows into a one-byte-per-bit scratch
        array of ``m`` entries, and ORs its packed form into the bit
        array — bit-exact with the per-key loop.  That costs O(m) per
        call whatever the batch size: it is meant for building a whole
        filter at once, as sealing or merging an LSM run does.
        Raises ``ValueError`` on a filter adopted by :meth:`from_bytes`.
        """
        arr = self._as_int_array(keys)
        if arr is None:
            keys = list(keys)
            rows = [self._positions(key) for key in keys]
            if None in rows:
                raise _refuse(keys[rows.index(None)])
            for positions in rows:
                for pos in positions:
                    self._bits[pos >> 3] |= 1 << (pos & 7)
            self.count += len(rows)
            return
        if arr.size == 0:
            return
        hit = np.zeros(self.num_bits, dtype=bool)
        for row in self._probe_rows(self.hash_keys(arr)):
            hit[row.view(np.int64)] = True  # an intp index: no cast
        self._bits |= np.packbits(hit, bitorder="little")
        self.count += int(arr.size)

    def __contains__(self, key) -> bool:
        positions = self._positions(key)
        if positions is None:
            return False
        bits = self._bits
        for pos in positions:
            if not (bits[pos >> 3] >> (pos & 7)) & 1:
                return False
        return True

    def contains_batch(self, keys) -> np.ndarray:
        """Batched membership: one bool per key.

        Integer arrays hash in one vectorized pass (:meth:`hash_keys`)
        and answer through :meth:`contains_hashes`.  String keys hash
        per key (murmur over strings is scalar Python) and take the
        one-shot gather.
        """
        arr = self._as_int_array(keys)
        if arr is None:
            rows = [self._positions(key) for key in keys]
            keyed = np.array([row is not None for row in rows], dtype=bool)
            positions = np.array(
                [row for row in rows if row is not None], dtype=np.int64
            )
            found = np.zeros(keyed.size, dtype=bool)
            found[keyed] = self._bits_at(
                positions.reshape(-1, self.num_hashes).T
            )
            return found
        return self.contains_hashes(self.hash_keys(arr))

    def contains_hashes(self, hashes: np.ndarray) -> np.ndarray:
        """One bool per hash of :meth:`hash_keys`: may its key be in
        the filter?  ``hashes`` is read, never written.

        From :data:`~repro.dispatch.ROW_WALK_MIN_KEYS` hashes up, the
        ``k`` probes are walked row by row over length-n arrays
        (:meth:`_contains_walk`); below it all ``k * n`` positions are
        read with one ``(k, n)`` gather (:meth:`_contains_gather`).
        """
        if hashes.size >= ROW_WALK_MIN_KEYS:
            return self._contains_walk(hashes)
        return self._contains_gather(hashes)

    def _bits_at(self, positions: np.ndarray) -> np.ndarray:
        """Per column of a ``(k, n)`` position block: all bits set?"""
        shifts = (positions & 7).astype(np.uint8)
        return ((self._bits[positions >> 3] >> shifts) & 1).all(axis=0)

    def _contains_gather(self, hashes: np.ndarray) -> np.ndarray:
        """Small batches: ~20 numpy calls whatever ``k``, one reduction
        mod ``m`` over the ``(k, n)`` block included."""
        h1, s = self._probe_start(hashes)
        positions = np.arange(self.num_hashes, dtype=np.uint64)[:, None] * s
        positions += h1
        _reduce(positions, np.uint64(self.num_bits))
        return self._bits_at(positions.view(np.int64))  # intp: no cast

    def _contains_walk(self, hashes: np.ndarray) -> np.ndarray:
        """Large batches: a byte gather and a shift per probe over
        contiguous rows, ~8 numpy calls per probe; bit 0 of ``found``
        stays set while every probe's bit is.  After two probes, when
        at most half the keys are still alive (an absent key survives
        a probe about half the time), the remaining probes walk those
        keys only."""
        h1, s = self._probe_start(hashes)
        m = np.uint64(self.num_bits)
        p = _reduce(h1, m)
        n = p.size
        found = out = np.ones(n, dtype=np.uint8)
        alive = None
        index = np.empty(n, dtype=np.intp)
        byte = np.empty(n, dtype=np.uint8)
        shift = np.empty(n, dtype=np.uint8)
        wrapped = np.empty_like(p)
        for i in range(self.num_hashes):
            if i:
                self._next_row(p, s, m, wrapped)
            # positions < m: their int64 view is the same values, uncast
            np.right_shift(p.view(np.int64), 3, out=index)
            np.take(self._bits, index, out=byte)
            np.bitwise_and(p, 7, out=shift, casting="unsafe")
            np.right_shift(byte, shift, out=byte)
            found &= byte
            if i == 1 and i + 1 < self.num_hashes:
                live = np.count_nonzero(found)
                if 2 * live <= n:
                    if live == 0:
                        break
                    alive = np.flatnonzero(found.view(bool))
                    p, s = p[alive], s[alive]
                    found = np.ones(live, dtype=np.uint8)
                    index, byte = index[:live], byte[:live]
                    shift, wrapped = shift[:live], wrapped[:live]
        if alive is not None:
            out[alive] = found
        return out.view(bool)

    # -- serialization ------------------------------------------------------------

    _WIRE = struct.Struct("<4sIIQ")
    _WIRE_MAGIC = b"BLM1"

    def to_bytes(self) -> bytes:
        """Wire form: packed parameters + the raw bit array.

        Bit-exact round trip with :meth:`from_bytes` — a persisted LSM
        run reloads its guard instead of rehashing every key, and the
        reloaded filter answers every probe identically (same bits,
        same double-hashing schedule).
        """
        return self._WIRE.pack(
            self._WIRE_MAGIC, self.num_bits, self.num_hashes, self.count
        ) + self._bits.tobytes()

    @classmethod
    def from_bytes(cls, blob) -> "BloomFilter":
        """Inverse of :meth:`to_bytes`; ValueError on malformed input.

        ``blob`` is any buffer (``bytes``, a memoryview, a uint8
        array).  The filter adopts a read-only view of its bit array,
        no copy — a run's guard is immutable — so the buffer
        stays exported while the filter lives, and :meth:`add` /
        :meth:`add_batch` raise ``ValueError``.
        """
        raw = np.frombuffer(blob, dtype=np.uint8)
        if raw.size < cls._WIRE.size:
            raise ValueError("bloom blob too short")
        magic, num_bits, num_hashes, count = cls._WIRE.unpack_from(raw)
        if magic != cls._WIRE_MAGIC:
            raise ValueError(f"bad bloom magic {magic!r}")
        bits = raw[cls._WIRE.size:]
        expected = (num_bits + 7) // 8
        if bits.size != expected:
            raise ValueError(
                f"bloom blob carries {bits.size} bit-array bytes, "
                f"expected {expected}"
            )
        out = cls(num_bits, num_hashes)
        bits.flags.writeable = False  # never write through to the source
        out._bits = bits
        out.count = int(count)
        return out

    # -- evaluation ---------------------------------------------------------------

    def measured_fpr(self, non_keys) -> float:
        """Empirical FPR over a held-out non-key sample."""
        if not len(non_keys):
            return 0.0
        hits = sum(1 for key in non_keys if key in self)
        return hits / len(non_keys)

    def size_bytes(self) -> int:
        return len(self._bits)

    def __repr__(self) -> str:
        return (
            f"BloomFilter(bits={self.num_bits}, k={self.num_hashes}, "
            f"n={self.count}, size={self.size_bytes()}B)"
        )
