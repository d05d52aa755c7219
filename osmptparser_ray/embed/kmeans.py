"""Distributed k-means over an embedding column (Lloyd iterations).

The iterative-broadcast shape (the ``pagerank`` pattern applied to
vectors): centers are one task's output per round (k·d floats — tiny),
passed by ref to one task per vector block, which assigns its vectors
to their nearest centers AND gives per-center (count, sum) moments
(map-side combine — k rows per block, never the corpus). The next
round's task folds them into new centers.

Determinism contract: init is the vectors of the ``k`` smallest ids,
ties in assignment break to the LOWEST center index (numpy argmin), and
the fold sums block partials in block order — the result is a pure
function of the input, never of scheduling.

No counterpart in the reference (clustering is out of its scope) — this
is the training-data extension for embedding-space corpus curation
(dedup-cluster pruning, diversity sampling, IVF coarse quantizers: the
``ivf_ann`` quantizer in ``embed/ann.py`` samples instead; this is the
exact iterative refinement).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray.data as rd

from ..util import block_refs, block_tasks, map_blocks, submit
from .ann import _to_matrix


def _smallest(batch: pa.Table, k: int, id_col: str, vec_col: str) -> pa.Table:
    """A block's ``k`` rows of smallest id (its ``id_col`` and ``vec_col``)."""
    ids = batch[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
    keep = np.sort(np.argsort(ids, kind="stable")[:k])
    return batch.select([id_col, vec_col]).take(pa.array(keep, pa.int64()))


def _init_centers(k: int, id_col: str, vec_col: str, *parts) -> np.ndarray:
    """Deterministic init: the vectors of the k SMALLEST ids, from the
    blocks' own k smallest (``_smallest``)."""
    rows = pa.concat_tables(parts, promote_options="default")
    order = np.argsort(rows[id_col].to_numpy(zero_copy_only=False).astype(np.int64), kind="stable")[:k]
    return _to_matrix(rows[vec_col].combine_chunks())[order].copy()


def _moments(batch: pa.Table, c: np.ndarray, vec_col: str) -> tuple:
    """One block → per-center (count, vector sum) of its rows' nearest
    centers; argmin ||x−c||² == argmax (x·c − ||c||²/2), ties → lowest
    center index (np.argmax takes the first maximum)."""
    cnt, sums = np.zeros(len(c), np.int64), np.zeros_like(c)
    m = _to_matrix(batch[vec_col])
    if m.size:
        assign = np.argmax(m @ c.T - 0.5 * (c * c).sum(axis=1)[None, :], axis=1)
        cnt += np.bincount(assign, minlength=len(c))
        np.add.at(sums, assign, m)
    return cnt, sums


def _recenter(centers: np.ndarray, *parts) -> np.ndarray:
    """The blocks' moments, summed in block order → the next centers;
    an empty cluster keeps its center."""
    cnts, sums = np.zeros(len(centers), np.int64), np.zeros_like(centers)
    for cnt, s in parts:
        cnts += cnt
        sums += s
    live = cnts > 0
    centers = centers.copy()
    centers[live] = sums[live] / cnts[live, None]
    return centers


def _assign(batch: pa.Table, c: np.ndarray, id_col: str, vec_col: str) -> pa.Table:
    m = _to_matrix(batch[vec_col])
    if not m.size:
        return pa.table({id_col: pa.array([], pa.int64()), "cluster": pa.array([], pa.int64())})
    cluster = np.argmax(m @ c.T - 0.5 * (c * c).sum(axis=1)[None, :], axis=1)
    return pa.table({id_col: batch[id_col], "cluster": pa.array(cluster, pa.int64())})


def kmeans(
    vectors: rd.Dataset,
    k: int,
    n_iter: int = 5,
    *,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
) -> rd.Dataset:
    """Lloyd's k-means, fixed ``n_iter`` rounds, squared-L2 metric.

    Output: (``id_col``, cluster:int64) — the FINAL assignment of every
    vector, materialized. Empty clusters keep their previous center (the
    standard fixed-point convention; deterministic).

    The vectors' block refs are taken once (a lazy input runs its one
    execution there); every later step is a task whose inputs are its
    top-level arguments: per block the init's k smallest ids and each
    round's moments against the centers' ref, and one task each for the
    init and every round's new centers. No round starts an execution or
    waits.
    """
    if k <= 0 or n_iter < 1:
        raise ValueError("kmeans: k and n_iter must be positive")
    vectors = vectors.materialize()
    if vectors.count() < k:
        raise ValueError(f"kmeans: k={k} exceeds the {vectors.count()} input vectors")
    blocks = block_refs(vectors)
    centers = submit(_init_centers, k, id_col, vec_col, *block_tasks(blocks, _smallest, k, id_col, vec_col))
    for _ in range(n_iter):
        centers = submit(_recenter, centers, *block_tasks(blocks, _moments, centers, vec_col))
    return map_blocks(vectors, _assign, centers, id_col, vec_col)
