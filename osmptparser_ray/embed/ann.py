"""Similarity search over embedding columns (list<float>).

* ``knn_bruteforce`` — exact cosine top-k: the query matrix is put in
  the object store once and passed to one task per vector block as a
  top-level argument; each computes a numpy matmul against it and emits
  per-block partial top-k rows, which the sort-scan ``topk_per_group``
  merges.
* ``lsh_ann`` — random-hyperplane LSH bucketing (fixed seed): vectors are
  hashed to signature buckets; queries probe their own bucket; exact
  cosine refine within bucket. The scale path (candidate set shrinks by
  ~2^bits); recall < 1 by design, measured against brute force in tests.
* ``cosine_near_dup`` — embedding near-duplicate pairs above a cosine
  threshold within LSH buckets.
"""

from __future__ import annotations

from typing import Optional

import numpy as np
import pyarrow as pa
import ray
import ray.data as rd

from ..util import block_tasks, cosort, group_agg, key_runs, map_blocks, select, submit


def _rank_topk(partials: rd.Dataset, k: int) -> rd.Dataset:
    """Global per-query merge of partial top-k rows via the sort-scan
    ``topk_per_group`` (round-5, VERDICT r4 #3): ZERO per-query Python —
    the old ``groupby(query_id).map_groups`` paid one pandas UDF dispatch
    per query id (measured 150× worse than sort-scan at 100k groups,
    NOTES_ROUND4 #1), which at 10^8 queries IS the pipeline. Tie order
    (score desc, vec_id asc) matches the retired pandas merge exactly."""
    from ..stages.relational import topk_per_group

    ranked = topk_per_group(
        partials, "query_id", "score", k, tiebreak_col="vec_id", descending=True
    )
    return select(ranked, ["query_id", "rank", "vec_id", "score"])


def _to_matrix(col) -> np.ndarray:
    """list<float> column → (n, d) float64 matrix (zero-ish copy)."""
    arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    flat = arr.flatten().to_numpy(zero_copy_only=False).astype(np.float64)
    n = len(arr)
    return flat.reshape(n, -1) if n else flat.reshape(0, 0)


def _normalize(m: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(m, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    return m / norms


def knn_bruteforce(
    vectors: rd.Dataset,
    queries: np.ndarray,
    query_ids: np.ndarray,
    k: int = 10,
    *,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
) -> rd.Dataset:
    """Exact cosine top-k of every query against the vector dataset.

    Output: (query_id:int64, rank:int64, vec_id:int64, score:float64).
    """
    q = _normalize(np.asarray(queries, dtype=np.float64))
    side = ray.put((q, np.asarray(query_ids, dtype=np.int64)))
    return _rank_topk(map_blocks(vectors, _query_topk, side, k, id_col, vec_col), k)


_PARTIAL_EMPTY = pa.schema([("query_id", pa.int64()), ("vec_id", pa.int64()), ("score", pa.float64())]).empty_table()


def _query_topk(batch: pa.Table, side: tuple, k: int, id_col: str, vec_col: str) -> pa.Table:
    """One vector block → each query's top-k rows among its vectors."""
    q, qids = side
    m = _normalize(_to_matrix(batch[vec_col]))
    if m.size == 0:
        return _PARTIAL_EMPTY
    ids = batch[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
    scores = q @ m.T  # (Q, B)
    kk = min(k, scores.shape[1])
    idx = np.argpartition(-scores, kk - 1, axis=1)[:, :kk]
    rows = np.arange(scores.shape[0])[:, None]
    return pa.table(
        {
            "query_id": pa.array(np.repeat(qids, kk), pa.int64()),
            "vec_id": pa.array(ids[idx].ravel(), pa.int64()),
            "score": pa.array(scores[rows, idx].ravel(), pa.float64()),
        }
    )


def _hyperplanes(dim: int, bits: int) -> np.ndarray:
    rng = np.random.default_rng(7)
    return rng.standard_normal((bits, dim))


from functools import lru_cache as _lru_cache


@_lru_cache(maxsize=8)
def _hyperplanes_cached(dim: int, bits: int) -> np.ndarray:
    """Per-process memo of the (deterministic, fixed-seed) plane matrix —
    every worker derives the identical planes locally, so no broadcast and
    no per-batch rebuild."""
    return _hyperplanes(dim, bits)


def _bucket_of(m: np.ndarray, planes: np.ndarray) -> np.ndarray:
    bits = (m @ planes.T) > 0  # (n, bits)
    out = np.zeros(len(m), dtype=np.uint64)
    for i in range(planes.shape[0]):
        out |= bits[:, i].astype(np.uint64) << np.uint64(i)
    return out


def lsh_ann(
    vectors: rd.Dataset,
    queries: np.ndarray,
    query_ids: np.ndarray,
    k: int = 10,
    bits: int = 8,
    *,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
) -> rd.Dataset:
    """Approximate cosine top-k: random-hyperplane buckets + in-bucket refine.

    Output schema matches ``knn_bruteforce``; recall is approximate (only
    same-bucket candidates are scored).
    """
    q = _normalize(np.asarray(queries, dtype=np.float64))
    side = ray.put((q, np.asarray(query_ids, dtype=np.int64), _hyperplanes(q.shape[1], bits)))
    return _rank_topk(map_blocks(vectors, _bucket_refine, side, k, id_col, vec_col), k)


def _bucket_refine(batch: pa.Table, side: tuple, k: int, id_col: str, vec_col: str) -> pa.Table:
    """One vector block: bucket its vectors, score only same-bucket queries."""
    q, qids, planes = side
    qbuckets = _bucket_of(q, planes)
    m = _normalize(_to_matrix(batch[vec_col]))
    ids = batch[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
    out_q, out_v, out_s = [], [], []
    if m.size:
        vbuckets = _bucket_of(m, planes)
        for qi in range(len(q)):
            mask = vbuckets == qbuckets[qi]
            if not mask.any():
                continue
            scores = m[mask] @ q[qi]
            kk = min(k, len(scores))
            top = np.argpartition(-scores, kk - 1)[:kk]
            out_q.extend([qids[qi]] * kk)
            out_v.extend(ids[mask][top].tolist())
            out_s.extend(scores[top].tolist())
    return pa.table(
        {
            "query_id": pa.array(out_q, pa.int64()),
            "vec_id": pa.array(out_v, pa.int64()),
            "score": pa.array(out_s, pa.float64()),
        }
    )


def cosine_near_dup(
    vectors: rd.Dataset,
    threshold: float = 0.95,
    bits: Optional[int] = None,
    *,
    target_bucket: int = 256,
    bucket_cap: Optional[int] = 4096,
    cap_blocks: int = 8,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
) -> rd.Dataset:
    """Embedding near-duplicate pairs (cosine ≥ threshold) via LSH buckets.

    Output: (doc_a, doc_b, score) with doc_a < doc_b. Same-bucket pairs
    only (approximate recall, exact precision).

    ``bits=None`` (default) auto-scales the bucket count to the corpus:
    2^bits ≈ n / target_bucket, clipped to [4, 24] — expected bucket
    population stays ~``target_bucket`` as the corpus grows, bounding the
    O(bucket²) in-bucket refine instead of letting buckets grow O(n) at a
    fixed bit width. (More bits also means lower recall for borderline
    pairs — raise ``target_bucket`` to trade compute for recall.) The
    plane matrix is a fixed-seed deterministic function of (dim, bits),
    derived once per worker process, not per batch.

    ``bucket_cap`` (round-3, VERDICT r2 #5): auto-bits keeps the EXPECTED
    bucket small, but a direction-degenerate corpus (many near-identical
    embeddings) still collapses into one bucket whose refine is O(m²) in
    a single task. Buckets whose population exceeds the cap are
    BLOCK-DECOMPOSED: rows get block β = h(id) mod ``cap_blocks`` and are
    replicated into every block-pair group (bucket, lo, hi) their block
    touches; each group refines only lo×hi cross pairs (or the lo==hi
    triangle), so every pair is still produced exactly once — identical
    output, worst-case group size 2·m/blocks. ``bucket_cap=None``
    disables the (one count-aggregation) detection pass.
    """
    from ray.data.aggregate import Count

    if bits is None:
        n = vectors.count()
        bits = int(np.clip(np.ceil(np.log2(max(n, 1) / target_bucket)), 4, 24))
    bucketized, buckets = map_blocks(vectors, _bucketize, bits, id_col, vec_col, num_returns=2)
    hot = np.empty(0, np.uint64)
    if bucket_cap is not None and cap_blocks > 1:
        counts = group_agg(buckets, "bucket", Count(alias_name="n"))
        hot = submit(_sorted_buckets, *block_tasks(counts, _hot_buckets, bucket_cap))
    schema = pa.schema(
        [("bucket", pa.uint64()), (id_col, pa.int64()), (vec_col, pa.list_(pa.float64())),
         ("blk", pa.int8()), ("lo", pa.int8()), ("hi", pa.int8())]
    )
    rows = map_blocks(bucketized, _explode_blocks, hot, cap_blocks, id_col)
    return cosort([rows], ["bucket", "lo", "hi"], _refine_pairs, [schema], threshold, id_col, vec_col)


def _bucketize(batch: pa.Table, bits: int, id_col: str, vec_col: str) -> tuple:
    """One vector block → (its rows with their LSH bucket, the buckets)."""
    m = _normalize(_to_matrix(batch[vec_col]))
    buckets = pa.array(
        _bucket_of(m, _hyperplanes_cached(m.shape[1], bits)) if m.size else np.empty(0, np.uint64), pa.uint64())
    return pa.table({"bucket": buckets, id_col: batch[id_col], vec_col: batch[vec_col]}), pa.table({"bucket": buckets})


def _hot_buckets(t: pa.Table, cap: int) -> np.ndarray:
    return t.filter(pa.compute.greater(t["n"], cap))["bucket"].to_numpy().astype(np.uint64)


def _sorted_buckets(*parts) -> np.ndarray:
    return np.sort(np.concatenate([np.empty(0, np.uint64), *parts]))


def _explode_blocks(batch: pa.Table, hot: np.ndarray, cap_blocks: int, id_col: str) -> pa.Table:
    """Assign block ids; replicate hot-bucket rows into each block-pair
    group they participate in (cold rows: single group (0, 0))."""
    n = batch.num_rows
    zeros = pa.array(np.zeros(n, np.int8), pa.int8())
    if not len(hot):
        return batch.append_column("blk", zeros).append_column("lo", zeros).append_column("hi", zeros)
    bk = batch["bucket"].to_numpy(zero_copy_only=False).astype(np.uint64)
    idx = np.searchsorted(hot, bk)
    idx[idx >= len(hot)] = len(hot) - 1
    is_hot = hot[idx] == bk
    ids = batch[id_col].to_numpy(zero_copy_only=False).astype(np.uint64)
    blk = np.where(is_hot, (ids * np.uint64(2654435761)) % np.uint64(cap_blocks), 0).astype(np.int8)
    t_blk = batch.append_column("blk", pa.array(blk, pa.int8()))
    cold = t_blk.filter(pa.array(~is_hot))
    zeros = pa.array(np.zeros(cold.num_rows, np.int8), pa.int8())
    tables = [cold.append_column("lo", zeros).append_column("hi", zeros)]
    hot_t = t_blk.filter(pa.array(is_hot))
    hblk = blk[is_hot]
    for other in range(cap_blocks):
        # the (min(blk,other), max(blk,other)) group covers every pair
        # this row can form with a row of block ``other``
        tables.append(
            hot_t.append_column("lo", pa.array(np.minimum(hblk, other).astype(np.int8), pa.int8()))
            .append_column("hi", pa.array(np.maximum(hblk, other).astype(np.int8), pa.int8()))
        )
    return pa.concat_tables(tables)


def _refine_pairs(block: pa.Table, threshold: float, id_col: str, vec_col: str) -> pa.Table:
    """One sorted block → the pairs of each of its (bucket, lo, hi)
    groups, one run each."""
    ids_all = block[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
    blk_all = block["blk"].to_numpy(zero_copy_only=False)
    lo_all = block["lo"].to_numpy(zero_copy_only=False)
    hi_all = block["hi"].to_numpy(zero_copy_only=False)
    vecs = _to_matrix(block[vec_col])
    bounds = key_runs(block["bucket"].to_numpy(zero_copy_only=False), lo_all, hi_all)
    out = []
    for s, e in zip(bounds[:-1], bounds[1:]):
        lo, hi = lo_all[s], hi_all[s]
        m = _normalize(vecs[s:e])
        order = np.argsort(ids_all[s:e])
        ids, m, blk = ids_all[s:e][order], m[order], blk_all[s:e][order]
        if lo == hi:
            # triangle within one block (covers the cold lo==hi==0 case)
            sel = blk == lo
            ids_s, m_s = ids[sel], m[sel]
            sim = m_s @ m_s.T
            ia, ib = np.triu_indices(len(ids_s), k=1)
            keep = sim[ia, ib] >= threshold
            out.append((ids_s[ia][keep], ids_s[ib][keep], sim[ia, ib][keep]))
            continue
        # cross pairs between the two blocks only — each unordered pair
        # appears in exactly one (lo, hi) group
        a_sel, b_sel = blk == lo, blk == hi
        sim = m[a_sel] @ m[b_sel].T
        ia, ib = np.nonzero(sim >= threshold)
        da, db = ids[a_sel][ia], ids[b_sel][ib]
        out.append((np.minimum(da, db), np.maximum(da, db), sim[ia, ib]))
    return _pairs_table(("doc_a", "doc_b", "score"), out)


def _pairs_table(names: tuple, parts: list) -> pa.Table:
    """Per-group (int64, int64, float64) array triples → one table."""
    types = (pa.int64(), pa.int64(), pa.float64())
    return pa.table(
        {
            n: pa.array(np.concatenate([p[i] for p in parts]) if parts else np.empty(0), t)
            for i, (n, t) in enumerate(zip(names, types))
        }
    )


# ---------------------------------------------------------------------------
# IVF (inverted-file) ANN — coarse k-means quantizer + probed refine
# ---------------------------------------------------------------------------


def _kmeans_fit(sample: np.ndarray, n_lists: int, n_iter: int = 10) -> np.ndarray:
    """Deterministic mini k-means (fixed seed, spherical): → (n_lists, d)
    centroids. Runs on a driver-side SAMPLE — the classic IVF train step."""
    rng = np.random.default_rng(11)
    sample = _normalize(sample)
    idx = rng.choice(len(sample), size=min(n_lists, len(sample)), replace=False)
    cents = sample[idx].copy()
    for _ in range(n_iter):
        sims = sample @ cents.T
        assign = np.argmax(sims, axis=1)
        for c in range(len(cents)):
            members = sample[assign == c]
            if len(members):
                cents[c] = members.mean(axis=0)
        cents = _normalize(cents)
    return cents


def ivf_build(
    vectors: rd.Dataset,
    n_lists: int = 16,
    train_sample: int = 2048,
    *,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
):
    """Train the coarse quantizer and assign every vector to its list.

    Returns (centroids ray.ObjectRef, assigned materialized Dataset with
    a ``list_id`` column). Training samples the head of the stream
    (deterministic) on the driver, which puts the centroids once;
    assignment is one task per vector block, with them as a top-level
    argument.
    """
    sample_rows = vectors.limit(train_sample).take_all()
    sample = np.stack([np.asarray(r[vec_col], dtype=np.float64) for r in sample_rows])
    cents_ref = ray.put(_kmeans_fit(sample, n_lists))
    return cents_ref, map_blocks(vectors, _assign_lists, cents_ref, vec_col)


def _nearest_lists(batch: pa.Table, cents: np.ndarray, vec_col: str) -> np.ndarray:
    m = _normalize(_to_matrix(batch[vec_col]))
    return np.argmax(m @ cents.T, axis=1).astype(np.int32) if m.size else np.empty(0, np.int32)


def _assign_lists(batch: pa.Table, cents: np.ndarray, vec_col: str) -> pa.Table:
    return batch.append_column("list_id", pa.array(_nearest_lists(batch, cents, vec_col), pa.int32()))


def _ivf_refine(batch: pa.Table, side: tuple, k: int, id_col: str, vec_col: str) -> pa.Table:
    """One assigned vector block → each query's top-k rows among its
    vectors of the query's probed lists."""
    q, qids, probes = side
    m = _normalize(_to_matrix(batch[vec_col]))
    ids = batch[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
    lists = batch["list_id"].to_numpy(zero_copy_only=False)
    out_q, out_v, out_s = [], [], []
    if m.size:
        for qi in range(len(q)):
            mask = np.isin(lists, probes[qi])
            if not mask.any():
                continue
            scores = m[mask] @ q[qi]
            kk = min(k, len(scores))
            top = np.argpartition(-scores, kk - 1)[:kk]
            out_q.extend([qids[qi]] * kk)
            out_v.extend(ids[mask][top].tolist())
            out_s.extend(scores[top].tolist())
    return pa.table(
        {
            "query_id": pa.array(out_q, pa.int64()),
            "vec_id": pa.array(out_v, pa.int64()),
            "score": pa.array(out_s, pa.float64()),
        }
    )


def ivf_ann(
    vectors: rd.Dataset,
    queries: np.ndarray,
    query_ids: np.ndarray,
    k: int = 10,
    n_lists: int = 16,
    n_probe: int = 4,
    *,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
) -> rd.Dataset:
    """IVF approximate cosine top-k: probe the ``n_probe`` nearest lists per
    query, exact-refine within them. Output schema matches knn_bruteforce;
    recall grows with n_probe (n_probe == n_lists ⇒ exact)."""
    q = _normalize(np.asarray(queries, dtype=np.float64))
    cents_ref, assigned = ivf_build(vectors, n_lists, id_col=id_col, vec_col=vec_col)
    cents = ray.get(cents_ref)
    probes = np.argsort(-(q @ cents.T), axis=1)[:, :min(n_probe, len(cents))]  # (Q, n_probe)
    side = ray.put((q, np.asarray(query_ids, dtype=np.int64), probes))
    return _rank_topk(map_blocks(assigned, _ivf_refine, side, k, id_col, vec_col), k)


# ---------------------------------------------------------------------------
# Big-big IVF ANN join — queries are a Dataset too (broadcast-free)
# ---------------------------------------------------------------------------


def ivf_ann_join(
    vectors: rd.Dataset,
    queries: rd.Dataset,
    k: int = 10,
    n_lists: int = 16,
    n_probe: int = 4,
    *,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
    query_id_col: Optional[str] = None,
    query_vec_col: Optional[str] = None,
    train_sample: int = 2048,
    vec_chunks: Optional[int] = None,
    target_group: int = 4096,
) -> rd.Dataset:
    """IVF ANN where BOTH sides are Datasets — the broadcast-free scale
    path for when the query set itself is too large to ``ray.put``
    (``knn_bruteforce``/``ivf_ann`` broadcast the query matrix; at 10^8+
    queries that object no longer fits a worker heap).

    Physical plan (posting-list join):

    1. train the coarse quantizer on a driver-side vector SAMPLE
       (standard IVF; the only driver materialization, ≤``train_sample``
       rows), put in the object store once,
    2. assign every vector to its nearest list (one row) plus a chunk
       ``h(id) mod vec_chunks`` bounding per-group population,
    3. replicate every query onto its ``n_probe`` nearest lists × all
       chunks (repeat/take, vectorized) — steps 2 and 3 are one task per
       block of each side, with the centroids as a top-level argument,
    4. range-partition both sides together on (list, chunk) with
       ``util.cosort`` — FEW, LARGE groups (``n_lists × vec_chunks``),
       one matmul per group, each group one run of a key range's vector
       rows and one of its query rows — and emit vectorized per-query
       partial top-k rows per group. A hot group spreads whichever side
       holds more of its rows (the partitioner's skew rule): a query then
       has partial rows from several ranges, which step 5 merges,
    5. global per-query merge via the sort-scan ``topk_per_group`` (zero
       per-query Python).

    Every (query, vector) candidate pair meets in EXACTLY one group (a
    vector lives in one (list, chunk); a query's replicas are distinct
    (list, chunk) keys), so no dedup pass is needed. ``n_probe ==
    n_lists`` ⇒ exact brute-force result, the correctness gate.

    ``vec_chunks=None`` auto-sizes ceil(n / (n_lists × target_group)) so
    expected group population stays ~``target_group`` as the corpus
    grows. Output: (query_id, rank, vec_id, score), exactly ``ivf_ann``'s
    schema — parity-tested against it (same seed ⇒ same quantizer ⇒ same
    candidates).
    """
    qid_col = query_id_col or id_col
    qvec_col = query_vec_col or vec_col

    sample_rows = vectors.limit(train_sample).take_all()
    if not sample_rows:
        # empty vector side: nothing can match, and there is nothing to
        # train the quantizer on — short-circuit
        return rd.from_arrow(
            pa.table(
                {
                    "query_id": pa.array([], pa.int64()),
                    "rank": pa.array([], pa.int64()),
                    "vec_id": pa.array([], pa.int64()),
                    "score": pa.array([], pa.float64()),
                }
            )
        )
    sample = np.stack([np.asarray(r[vec_col], dtype=np.float64) for r in sample_rows])
    cents = _kmeans_fit(sample, n_lists)
    n_l = len(cents)

    if vec_chunks is None:
        n_vec = vectors.count()
        vec_chunks = max(1, int(np.ceil(n_vec / (n_l * target_group))))
    schema = pa.schema(
        [("list_id", pa.int32()), ("chunk", pa.int32()), ("rid", pa.int64()), ("vec", pa.list_(pa.float64()))]
    )
    cents_ref = ray.put(cents)
    rows = [
        map_blocks(vectors, _ivf_vector_rows, cents_ref, int(vec_chunks), id_col, vec_col),
        map_blocks(queries, _ivf_query_rows, cents_ref, int(vec_chunks), min(n_probe, n_l), qid_col, qvec_col),
    ]
    return _rank_topk(cosort(rows, ["list_id", "chunk"], _ivf_group_topk, [schema] * 2, k, spread=(0, 1)), k)


def _ivf_vector_rows(batch: pa.Table, cents: np.ndarray, n_chunks: int, id_col: str, vec_col: str) -> pa.Table:
    """Vector rows of the ``ivf_ann_join`` sort: one per vector, at its
    nearest list and its id's chunk."""
    ids = batch[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
    chunk = ((ids.astype(np.uint64) * np.uint64(2654435761)) % np.uint64(n_chunks)).astype(np.int32)
    return pa.table(
        {
            "list_id": pa.array(_nearest_lists(batch, cents, vec_col), pa.int32()),
            "chunk": pa.array(chunk, pa.int32()),
            "rid": pa.array(ids, pa.int64()),
            "vec": batch[vec_col],
        }
    )


def _ivf_query_rows(batch: pa.Table, cents: np.ndarray, n_chunks: int, nprobe: int, id_col: str,
                    vec_col: str) -> pa.Table:
    """Query rows of the ``ivf_ann_join`` sort: each query replicated
    onto its ``nprobe`` nearest lists × every chunk."""
    m = _normalize(_to_matrix(batch[vec_col]))
    n = len(m) if m.size else 0
    # same probe rule as ivf_ann (argsort of -sims): ties resolve
    # identically, keeping the parity contract exact
    probes = np.argsort(-(m @ cents.T), axis=1)[:, :nprobe] if n else np.empty((0, nprobe), np.int64)
    reps = nprobe * n_chunks
    taken = batch.select([id_col, vec_col]).take(pa.array(np.repeat(np.arange(n), reps), pa.int64()))
    ids = taken[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
    return pa.table(
        {
            "list_id": pa.array(np.repeat(probes.astype(np.int32).reshape(-1), n_chunks), pa.int32()),
            "chunk": pa.array(np.tile(np.arange(n_chunks, dtype=np.int32), n * nprobe), pa.int32()),
            "rid": pa.array(ids, pa.int64()),
            "vec": taken[vec_col],
        }
    )


def _group_keys(t: pa.Table) -> np.ndarray:
    """(list_id, chunk) rows → one int64 key each, in the same order."""
    lists = t["list_id"].to_numpy(zero_copy_only=False).astype(np.int64)
    return (lists << 32) | t["chunk"].to_numpy(zero_copy_only=False).astype(np.int64)


def _ivf_group_topk(vectors: pa.Table, queries: pa.Table, k: int) -> pa.Table:
    """One key range's vector rows and query rows, each sorted on
    (list_id, chunk) → per-query partial top-k of each group that both
    hold, one run of each side."""
    vkey, qkey = _group_keys(vectors), _group_keys(queries)
    vids = vectors["rid"].to_numpy(zero_copy_only=False).astype(np.int64)
    qids = queries["rid"].to_numpy(zero_copy_only=False).astype(np.int64)
    vecs, qvecs = _normalize(_to_matrix(vectors["vec"])), _normalize(_to_matrix(queries["vec"]))
    bounds = key_runs(qkey)
    out = []
    for s, e in zip(bounds[:-1], bounds[1:]):
        a, b = np.searchsorted(vkey, qkey[s], "left"), np.searchsorted(vkey, qkey[s], "right")
        if a == b:
            continue
        vid, vm = vids[a:b], vecs[a:b]
        qid, qm = qids[s:e], qvecs[s:e]
        sim = qm @ vm.T  # (q_g, v_g)
        kk = min(k, sim.shape[1])
        # vectorized per-query partial top-k within the group. Keep ALL
        # candidates tied with the k-th score (>=, not argpartition
        # truncation): an arbitrary tie cut here could drop the candidate
        # the global (score desc, vec_id asc) tiebreak would keep; the
        # sort-scan merge applies the exact tiebreak to the survivors.
        if kk < sim.shape[1]:
            kth = np.partition(sim, sim.shape[1] - kk, axis=1)[:, sim.shape[1] - kk]
            rows, cols = np.nonzero(sim >= kth[:, None])
        else:
            rows, cols = np.nonzero(np.ones_like(sim, dtype=bool))
        out.append((qid[rows], vid[cols], sim[rows, cols]))
    return _pairs_table(("query_id", "vec_id", "score"), out)
