"""Bloom-filter broadcast semi-join — the compact filter for id sets too
big to broadcast exactly (guide §joins: "broadcast the key set (or a Bloom
filter of it)").

An exact sorted-array broadcast costs 8 bytes/key; the Bloom filter costs
~1.2 bytes/key at 1% false-positive rate — the difference between shipping
80 GB and 12 GB for a 10^10-key semi-join side. False positives pass extra
rows (harmless for a semi-join pre-filter when followed by an exact join;
quantified here and tested); false negatives never happen.

Pure numpy: k hash probes derived from two 64-bit mixes (Kirsch-Mitzenmacher
double hashing), fully vectorized add/contains.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np
import pyarrow as pa
import ray.data as rd

from ..util import block_tasks, map_blocks, submit

_MIX1 = np.uint64(0xFF51AFD7ED558CCD)
_MIX2 = np.uint64(0xC4CEB9FE1A85EC53)


def _hash2(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    x = keys.astype(np.uint64)
    x ^= x >> np.uint64(33)
    x *= _MIX1
    x ^= x >> np.uint64(33)
    h1 = x.copy()
    x *= _MIX2
    x ^= x >> np.uint64(33)
    return h1, x


def bloom_params(n: int, fpr: float) -> tuple:
    """(bits, hash count) of a filter over ``n`` keys at false-positive
    rate ``fpr``: the bits rounded up to whole uint64 words."""
    n = max(1, n)
    n_bits = max(64, int(-n * math.log(fpr) / (math.log(2) ** 2)))
    n_bits = ((n_bits + 63) // 64) * 64
    return n_bits, max(1, round(n_bits / n * math.log(2)))


class BloomFilter(NamedTuple):
    bits: np.ndarray  # uint64 words
    n_bits: int
    k: int

    @classmethod
    def build(cls, keys: np.ndarray, fpr: float = 0.01) -> "BloomFilter":
        return cls.of(keys, *bloom_params(len(keys), fpr))

    @classmethod
    def of(cls, keys: np.ndarray, n_bits: int, k: int) -> "BloomFilter":
        """The filter of ``keys`` at the given parameters: the one insert
        kernel, so that partial filters of shared parameters OR-merge
        (``merge``) into the filter of all their keys."""
        bits = np.zeros(n_bits // 64, dtype=np.uint64)
        h1, h2 = _hash2(np.asarray(keys, dtype=np.int64))
        for i in range(k):
            pos = (h1 + np.uint64(i) * h2) % np.uint64(n_bits)
            np.bitwise_or.at(bits, (pos >> np.uint64(6)).astype(np.int64),
                             np.uint64(1) << (pos & np.uint64(63)))
        return cls(bits, n_bits, k)

    @classmethod
    def merge(cls, n_bits: int, k: int, *parts: "BloomFilter") -> "BloomFilter":
        """The OR of partial filters of parameters (``n_bits``, ``k``)."""
        bits = np.zeros(n_bits // 64, dtype=np.uint64)
        for p in parts:
            bits |= p.bits
        return cls(bits, n_bits, k)

    def contains(self, keys: np.ndarray) -> np.ndarray:
        """Vectorized membership test (no false negatives)."""
        h1, h2 = _hash2(np.asarray(keys, dtype=np.int64))
        out = np.ones(len(keys), dtype=bool)
        for i in range(self.k):
            pos = (h1 + np.uint64(i) * h2) % np.uint64(self.n_bits)
            word = self.bits[(pos >> np.uint64(6)).astype(np.int64)]
            out &= (word >> (pos & np.uint64(63))) & np.uint64(1) != 0
        return out

    @property
    def nbytes(self) -> int:
        return self.bits.nbytes


def _column_filter(block: pa.Table, column: str, n_bits: int, k: int) -> BloomFilter:
    return BloomFilter.of(block[column].to_numpy(zero_copy_only=False).astype(np.int64), n_bits, k)


def bloom_of(ds, column: str, n: int, fpr: float):
    """The ref of one BloomFilter over the int64 ``column`` of ``ds`` (a
    Dataset or a list of block refs), sized for ``n`` keys: one partial
    filter per block and one task that OR-merges them, so the key set
    never passes through the driver."""
    n_bits, k = bloom_params(n, fpr)
    return submit(BloomFilter.merge, n_bits, k, *block_tasks(ds, _column_filter, column, n_bits, k))


def bloom_split(block: pa.Table, bf: BloomFilter, on: str) -> tuple:
    """One block → (its rows whose ``on`` key the filter holds, the
    rest): the rest are definite non-members."""
    hit = bf.contains(block[on].to_numpy(zero_copy_only=False).astype(np.int64))
    return block.filter(pa.array(hit)), block.filter(pa.array(~hit))


def _bloom_keep(block: pa.Table, bf: BloomFilter, on: str) -> pa.Table:
    return bloom_split(block, bf, on)[0]


def bloom_semi_join(
    ds: rd.Dataset,
    keys: np.ndarray,
    on: str,
    fpr: float = 0.01,
) -> rd.Dataset:
    """Keep rows of ``ds`` whose ``on`` column is (probably) in ``keys``
    → a materialized dataset: one task builds the filter, and every block
    task of ``ds`` takes it as a top-level argument.

    Guarantees: every true match survives; ≤ ~fpr of non-matching rows leak
    through (follow with an exact join when exactness is required).
    """
    bf = submit(BloomFilter.build, np.asarray(keys, dtype=np.int64), fpr)
    return map_blocks(ds, _bloom_keep, bf, on)
