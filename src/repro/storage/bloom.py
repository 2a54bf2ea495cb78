"""A plain bloom filter for SSTable key lookups.

SSTables are consulted newest-first on reads; the filter lets the engine
skip tables that cannot contain the (key, column) being read, which is how
Bigtable-style stores keep read amplification down.
"""

from __future__ import annotations

import hashlib
import math
from typing import Iterable

__all__ = ["BloomFilter"]


class BloomFilter:
    """Standard k-hash bloom filter over a bit array."""

    def __init__(self, expected_items: int, false_positive_rate: float = 0.01):
        if expected_items < 1:
            expected_items = 1
        if not 0.0 < false_positive_rate < 1.0:
            raise ValueError("false_positive_rate must be in (0, 1)")
        ln2 = math.log(2)
        self.num_bits = max(
            8, int(-expected_items * math.log(false_positive_rate) / ln2**2))
        self.num_hashes = max(1, round(self.num_bits / expected_items * ln2))
        self._bits = bytearray((self.num_bits + 7) // 8)
        self.items_added = 0

    def _positions(self, item: bytes) -> Iterable[int]:
        digest = hashlib.sha256(item).digest()
        h1 = int.from_bytes(digest[:8], "big")
        h2 = int.from_bytes(digest[8:16], "big") | 1
        for i in range(self.num_hashes):
            yield (h1 + i * h2) % self.num_bits

    def add(self, item: bytes) -> None:
        for pos in self._positions(item):
            self._bits[pos >> 3] |= 1 << (pos & 7)
        self.items_added += 1

    def might_contain(self, item: bytes) -> bool:
        return all(self._bits[pos >> 3] & (1 << (pos & 7))
                   for pos in self._positions(item))
