"""Existence-index substrate: the standard Bloom filter baseline and the
register-blocked filter that guards every LSM run."""

from .blocked import BlockedBloomFilter
from .standard import BloomFilter, optimal_bits, optimal_hash_count

__all__ = [
    "BlockedBloomFilter",
    "BloomFilter",
    "optimal_bits",
    "optimal_hash_count",
]
