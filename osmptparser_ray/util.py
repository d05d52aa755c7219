"""Small shared helpers for stage configuration."""

from __future__ import annotations

import ray


def default_actor_concurrency() -> tuple[int, int]:
    """Autoscaling actor-pool bounds sized to the cluster: (1, total CPUs).

    Leaves scheduling headroom to Ray's autoscaler rather than pinning the
    pool; pass an explicit ``concurrency`` to any stage to override.
    """
    try:
        cpus = int(ray.cluster_resources().get("CPU", 4))
    except Exception:
        cpus = 4
    return (1, max(2, cpus))


def join_partitions(cap: int = 16, rows: int | None = None) -> int:
    """Hash-join partition count sized to the cluster.

    Each partition pins an aggregator actor whose spin-up is the dominant
    fixed cost of a Dataset.join at sub-TB scale — fewer, larger partitions
    win until a partition no longer fits in a worker's heap. Measured on
    this Ray version: npart=8 beats 16/32 by 20-55% on a 600k-row join.

    ``rows``: optional size hint for the BIGGER join side; when the caller
    already knows it (a materialized side), partitions shrink to
    ~1 per 150k rows so sub-100k joins pay 2 actor spin-ups, not 8
    (round-5: the dominant fixed cost of every small gate join).
    """
    try:
        cpus = int(ray.cluster_resources().get("CPU", 4))
    except Exception:
        cpus = 4
    n = max(2, min(cap, cpus // 4))
    if rows is not None:
        n = max(2, min(n, rows // 150_000 + 1))
    return n


JOIN_AGG_ARGS = {"num_cpus": 0.25}


@ray.remote
def _block_task(fn, block, *args):
    import pyarrow as pa

    if not isinstance(block, pa.Table):
        block = pa.Table.from_pandas(block, preserve_index=False)
    return fn(block, *args)


def block_tasks(ds, fn, *args, num_returns: int = 1) -> list:
    """``fn(block, *args)`` as one plain Ray task per non-empty block of
    ``ds``, in block order → the task refs (a list of ``num_returns`` refs
    per block when ``num_returns > 1``).

    Over a materialized dataset this starts no streaming execution (each
    costs a fixed executor launch); over a lazy one it starts exactly one
    and launches tasks as blocks arrive. Zero-row blocks are skipped, so
    ``fn`` never sees Ray's columnless empty blocks and an empty dataset
    gives ``[]``."""
    task = _block_task.options(num_returns=num_returns)
    return [
        task.remote(fn, ref, *args)
        for bundle in ds.iter_internal_ref_bundles()
        for ref, meta in bundle.blocks
        if meta.num_rows != 0
    ]


def cosort(sides: list, keys: list, probe, schema):
    """The one keyed regroup: every side in ``sides`` (datasets of rows of
    one ``schema``) sorted together on ``keys``, then ``probe`` run on
    each sorted block → a materialized dataset of the probe outputs.

    Exactness rests on an invariant the code does not show: Ray's sort
    range-partitions on sampled key boundaries and each reducer emits one
    block, so a sort never splits a run of equal keys across blocks, and
    ``block_tasks`` hands ``probe`` each block whole. Every row of one
    key, from every side, thus reaches a single ``probe`` call, in a
    block sorted on ``keys``.

    The probes are block tasks, not a ``map_batches``: a sort leaves a
    columnless empty block for every empty key range, and ``map_batches``
    forwards those without calling the UDF, so the output would carry
    schema-less blocks. Here every output block comes from ``probe``, and
    an input without rows yields ``probe(schema.empty_table())``.
    """
    import ray.data as rd

    rows = sides[0].union(*sides[1:]) if len(sides) > 1 else sides[0]
    blocks = rows.sort(keys).materialize()
    return rd.from_arrow_refs(
        block_tasks(blocks, probe) or [ray.put(probe(schema.empty_table()))]
    )


def key_runs(*keys):
    """Boundaries of the runs of equal keys in rows sorted on ``keys``
    (numpy arrays of one length): run ``i`` is rows
    ``bounds[i]:bounds[i + 1]``; no rows give ``[0]``."""
    import numpy as np

    n = len(keys[0])
    change = np.zeros(max(n - 1, 0), bool)
    for k in keys:
        change |= k[1:] != k[:-1]
    return np.concatenate([[0], np.flatnonzero(change) + 1, [n]]) if n else np.zeros(1, np.int64)


def concat_columns(parts: list, dtypes: tuple) -> list:
    """Per-block tuples of numpy arrays (block-task results) → one
    concatenated array per position; empty arrays of ``dtypes`` when
    there are no parts."""
    import numpy as np

    if not parts:
        return [np.empty(0, d) for d in dtypes]
    return [np.concatenate(col) for col in zip(*parts)]


_BROADCAST_CACHE: dict = {}


def cached_get(ref):
    """ray.get memoized per worker process.

    Numpy payloads are plasma zero-copy on every get, but python dicts /
    lists unpickle per call — caching by object-ref id gives actor-style
    state amortization to stateless map tasks."""
    key = ref.hex() if hasattr(ref, "hex") else id(ref)
    hit = _BROADCAST_CACHE.get(key)
    if hit is None:
        hit = ray.get(ref)
        _BROADCAST_CACHE[key] = hit
    return hit
