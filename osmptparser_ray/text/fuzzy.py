"""Fuzzy string matching — edit-distance near-duplicate pairs.

The typo-level companion to MinHash/SimHash: short strings (titles,
names, URLs) whose Jaccard shingles are too coarse need true edit
distance. ``edit_distance_pairs`` finds all pairs within Levenshtein
distance ``k`` using LENGTH-banded candidate buckets:

* a pair at distance ≤ k has length difference ≤ k, so bucketing by
  ``len // band_width`` (band_width > k) and replicating every string
  into the ≤ 2 buckets covering ``[len−k, len]`` is COMPLETE (no false
  negatives — proof in ``_bucket_rows``),
* each pair is OWNED by exactly one bucket (the shorter string's own
  bucket), so no dedup pass is needed,
* within a bucket: all-pairs vectorized DP Levenshtein — the two
  nested loops run over CHARACTER POSITIONS (≤ max_len² iterations of
  numpy ops across the whole pair batch), never over pairs.

Distances are CODEPOINT-level (round-5, ADVICE r4): strings are mapped
to uint32 codepoint arrays before the DP and the length bands use
character counts, so an accented-char substitution costs exactly 1 and
banding never misses non-ASCII pairs (the earlier bytes-level DP
counted it as up to 4 and banded on byte lengths). Pair batches are
CHUNKED through the DP (``chunk_pairs``, default 64k) with int32 cells,
bounding peak DP memory at ~130 MB regardless of bucket degeneracy
(ADVICE r4: a 4096-string same-length bucket yields ~8.4M pairs — at
int64 un-chunked that was a ~17 GB allocation).

Contract: short strings (``max_len`` default 128 CHARACTERS, loud error
past it) and bounded buckets (``bucket_cap``, loud error — raise
``band_width`` or pre-dedup exactly). For document-scale near-dup use
the MinHash pipeline; this operator is for the short-text tail it
cannot see.
"""

from __future__ import annotations

from typing import Optional

import numpy as np
import pyarrow as pa
import ray.data as rd

from ..util import cosort, key_runs


def _codepoints(s) -> np.ndarray:
    """str | utf-8 bytes → uint32 codepoint array (vectorized via the
    UTF-32 encode — no per-char Python loop)."""
    if isinstance(s, bytes):
        s = s.decode("utf-8")
    if not s:
        return np.empty(0, np.uint32)
    return np.frombuffer(s.encode("utf-32-le"), np.uint32)


def _lev_chunk(a_list: "list[np.ndarray]", b_list: "list[np.ndarray]") -> np.ndarray:
    """DP over one chunk of codepoint-array pairs, vectorized across
    pairs (loops run over character positions only). int32 cells: values
    are bounded by max_len + BIG < 2^31."""
    p = len(a_list)
    la = max((len(a) for a in a_list), default=0)
    lb = max((len(b) for b in b_list), default=0)
    am = np.zeros((p, la), np.uint32)
    bm = np.zeros((p, lb), np.uint32)
    na = np.empty(p, np.int64)
    nb = np.empty(p, np.int64)
    for i, (a, b) in enumerate(zip(a_list, b_list)):
        am[i, : len(a)] = a
        bm[i, : len(b)] = b
        na[i], nb[i] = len(a), len(b)
    BIG = np.int32(1 << 20)
    # dp[j] over b positions; mask positions beyond each pair's length so
    # padded cells can never win the min
    prev = np.tile(np.arange(lb + 1, dtype=np.int32), (p, 1))
    prev[np.arange(lb + 1)[None, :] > nb[:, None]] = BIG
    for i in range(1, la + 1):
        cur = np.full((p, lb + 1), BIG, np.int32)
        alive = na >= i
        cur[alive, 0] = i
        ai = am[:, i - 1]
        for j in range(1, lb + 1):
            sub = prev[:, j - 1] + (ai != bm[:, j - 1])
            ins = cur[:, j - 1] + 1
            dele = prev[:, j] + 1
            c = np.minimum(np.minimum(sub, ins), dele)
            jalive = alive & (nb >= j)
            cur[jalive, j] = c[jalive]
        # rows already past their own length keep prev (their final row)
        keep = ~alive
        if keep.any():
            cur[keep] = prev[keep]
        prev = cur
    return prev[np.arange(p), nb].astype(np.int64)


def levenshtein_batch(
    a_list, b_list, cap: Optional[int] = None, *, chunk_pairs: int = 65536
) -> np.ndarray:
    """CODEPOINT-level Levenshtein distances for aligned pair lists
    (str or utf-8 bytes elements), vectorized across pairs. Pairs are
    processed ``chunk_pairs`` at a time to bound the DP's memory
    footprint (~130 MB peak at the defaults) — a degenerate bucket's
    all-pairs list no longer allocates O(pairs × max_len) at once.
    ``cap`` just lets callers early-exit rows later; the DP is exact."""
    n = len(a_list)
    if n == 0:
        return np.empty(0, np.int64)
    a_cp = [_codepoints(a) for a in a_list]
    b_cp = [_codepoints(b) for b in b_list]
    out = np.empty(n, np.int64)
    for s in range(0, n, chunk_pairs):
        e = min(s + chunk_pairs, n)
        out[s:e] = _lev_chunk(a_cp[s:e], b_cp[s:e])
    return out


def _bucket_rows(ids, lens: np.ndarray, k: int, w: int):
    """Replicate each string into the buckets covering [len−k, len]
    (``lens`` in CHARACTERS).

    A pair (a, b) with |len_a − len_b| ≤ k meets in bucket
    min(len_a, len_b) // w: the shorter string's OWN bucket (len // w),
    which the longer string also joined because
    (len_long − k) // w ≤ min_len // w ≤ len_long // w. That bucket is
    the pair's unique OWNER (the verify step re-checks ownership), so
    every qualifying pair is produced exactly once.
    """
    lo_b = np.maximum(lens - k, 0) // w
    hi_b = lens // w
    reps = (hi_b - lo_b + 1).astype(np.int64)
    row = np.repeat(np.arange(len(ids), dtype=np.int64), reps)
    # bucket sequence per row: lo_b[r] .. hi_b[r]
    offs = np.concatenate([[0], np.cumsum(reps)])[:-1]
    seq = np.arange(len(row), dtype=np.int64) - offs[row]
    bucket = lo_b[row] + seq
    return row, bucket


def edit_distance_pairs(
    ds: rd.Dataset,
    k: int = 2,
    *,
    id_col: str = "doc_id",
    text_col: str = "text",
    band_width: Optional[int] = None,
    bucket_cap: int = 4096,
    max_len: int = 128,
) -> rd.Dataset:
    """All pairs within Levenshtein distance ``k`` → (id_a, id_b, dist),
    ``id_a < id_b``. See the module docstring for the plan and contract
    (codepoint-level distances; char-count bands; chunked DP memory).
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    w = int(band_width if band_width is not None else max(k + 1, 8))
    if w <= k:
        raise ValueError("band_width must exceed k (bucket completeness)")

    def explode(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        ids = batch[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        text = pc.fill_null(batch[text_col].combine_chunks(), "")
        # character counts, vectorized (banding is on CODEPOINT length)
        lens = pc.utf8_length(text).to_numpy(zero_copy_only=False).astype(np.int64)
        if (lens > max_len).any():
            bad = int(np.argmax(lens > max_len))
            raise ValueError(
                f"edit_distance_pairs: string longer than max_len={max_len} "
                f"chars (id {ids[bad]}) — this operator is for SHORT "
                "strings; use the MinHash pipeline for documents"
            )
        row, bucket = _bucket_rows(ids, lens, k, w)
        taken = text.take(pa.array(row))
        return pa.table(
            {
                "bucket": pa.array(bucket, pa.int64()),
                id_col: pa.array(ids[row], pa.int64()),
                "blob": pc.cast(taken, pa.binary()),
            }
        )

    exploded = ds.map_batches(explode, batch_format="pyarrow")

    def verify(block: pa.Table) -> pa.Table:
        """One sorted block → the pairs its buckets own (each bucket is
        one run of the block)."""
        ids = block[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        cps = [_codepoints(b) for b in block["blob"].to_pylist()]
        lens = np.array([len(c) for c in cps], np.int64)
        bkts = block["bucket"].to_numpy(zero_copy_only=False)
        bounds = key_runs(bkts)
        m = int(np.diff(bounds).max(initial=0))
        if m > bucket_cap:
            raise ValueError(
                f"edit_distance_pairs: bucket of {m} strings exceeds "
                f"bucket_cap={bucket_cap} — raise band_width or exact-dedup "
                "first (a degenerate corpus of same-length strings lands in "
                "one bucket)"
            )
        # every in-bucket pair (i < j) of every run, as block row indices
        tri = [np.triu_indices(e - s, k=1) for s, e in zip(bounds[:-1], bounds[1:])]
        none = [np.empty(0, np.int64)]
        ia = np.concatenate([t[0] + s for t, s in zip(tri, bounds)] or none)
        ib = np.concatenate([t[1] + s for t, s in zip(tri, bounds)] or none)
        # prune: length gap, duplicate ids (a string replicated into two
        # buckets never meets itself — same id), and pair OWNERSHIP
        # (min-length bucket == this bucket)
        keep = (
            (np.abs(lens[ia] - lens[ib]) <= k)
            & (ids[ia] != ids[ib])
            & (np.minimum(lens[ia], lens[ib]) // w == bkts[ia])
        )
        ia, ib = ia[keep], ib[keep]
        # chunked DP (see module docstring) over pre-built codepoint arrays
        dist = np.empty(len(ia), np.int64)
        step = 65536
        for s in range(0, len(ia), step):
            e = min(s + step, len(ia))
            dist[s:e] = _lev_chunk(
                [cps[i] for i in ia[s:e]], [cps[i] for i in ib[s:e]]
            )
        ok = dist <= k
        a, b = ids[ia][ok], ids[ib][ok]
        return pa.table(
            {
                "id_a": pa.array(np.minimum(a, b), pa.int64()),
                "id_b": pa.array(np.maximum(a, b), pa.int64()),
                "dist": pa.array(dist[ok], pa.int64()),
            }
        )

    schema = pa.schema([("bucket", pa.int64()), (id_col, pa.int64()), ("blob", pa.binary())])
    return cosort([exploded], ["bucket"], verify, [schema])
