"""Small shared helpers: block tasks (``submit``, ``block_tasks``,
``map_blocks``), which also carry every broadcast small side as a
top-level task argument, and the one range partitioner of plain tasks
(``_regroup``) under ``cosort``, ``sort_scan``, ``group_agg`` and
``equi_join``."""

from __future__ import annotations

import itertools
import math
from functools import partial

import ray


def default_actor_concurrency() -> tuple[int, int]:
    """Autoscaling actor-pool bounds sized to the cluster: (1, total CPUs).

    Leaves scheduling headroom to Ray's autoscaler rather than pinning the
    pool.
    """
    try:
        cpus = int(ray.cluster_resources().get("CPU", 4))
    except Exception:
        cpus = 4
    return (1, max(2, cpus))


def _arrow(block):
    import pyarrow as pa

    return block if isinstance(block, pa.Table) else pa.Table.from_pandas(block, preserve_index=False)


@ray.remote
def _block_task(fn, block, *args):
    return fn(_arrow(block), *args)


@ray.remote
def _call(fn, *args):
    return fn(*args)


def submit(fn, *args, num_returns: int = 1):
    """``fn(*args)`` as one plain Ray task → its ref (a list of
    ``num_returns`` refs when ``num_returns > 1``). Refs among ``args``
    are top-level task arguments: Ray resolves them before the task
    starts, so the driver submits a chain of tasks without waiting."""
    return _call.options(num_returns=num_returns, name=_name(fn)).remote(fn, *args)


def block_tasks(blocks, fn, *args, num_returns: int = 1) -> list:
    """``fn(block, *args)`` as one plain Ray task per block, in block
    order → the task refs (a list of ``num_returns`` refs per block when
    ``num_returns > 1``).

    ``blocks`` is a list of block refs or a Dataset. A list is taken as
    it is, without waiting: each task starts once its block exists, so
    ``fn`` must take a zero-row table (with columns). Of a Dataset, the
    non-empty blocks are taken (``block_refs``), so ``fn`` never sees
    Ray's columnless empty blocks and an empty dataset gives ``[]``; a
    lazy dataset runs its one streaming execution here and its tasks
    start as its blocks arrive."""
    task = _block_task.options(num_returns=num_returns, name=_name(fn))
    refs = blocks if isinstance(blocks, list) else _block_refs(blocks)
    return [task.remote(fn, ref, *args) for ref in refs]


def _name(fn) -> str:
    """A task's name in Ray's timeline and state API: its kernel's."""
    return getattr(getattr(fn, "func", fn), "__name__", "task")


def _block_refs(ds):
    for bundle in ds.iter_internal_ref_bundles():
        for ref, meta in bundle.blocks:
            if meta.num_rows != 0:
                yield ref


def block_refs(ds) -> list:
    """The refs of the non-empty blocks of ``ds``, in order. Iterating a
    dataset runs Ray's streaming executor: a lazy dataset's own
    (logged) execution, and over a dataset made by ``rd.from_arrow_refs``
    an unlogged run of about 20 ms on every iteration. The dataset
    ``.materialize()`` returns for it runs none on later iterations."""
    return list(_block_refs(ds))


def dataset_of(refs: list, empty=None):
    """Block refs → one materialized dataset, iterated without an
    executor run (``block_refs``); the table ``empty`` keeps the schema
    when there are no refs. It waits for the blocks' metadata."""
    import ray.data as rd

    return rd.from_arrow_refs(refs).materialize() if refs else rd.from_arrow(empty)


def map_blocks(ds, fn, *args, num_returns: int = 1):
    """``fn(block, *args)`` as one plain task per non-empty block of
    ``ds`` (``block_tasks``) → a materialized dataset of the outputs (one
    per return, in a list, when ``num_returns > 1``). Refs among
    ``args`` are top-level task arguments: a broadcast small side
    reaches every task that way. An input without rows gives ``fn``'s
    typed empty output, from one task over the zero-row table of the
    input's schema; an input without any schema gives a dataset without
    columns."""
    import pyarrow as pa

    refs, _, _, schema = _side(ds)
    if not refs and schema is not None:
        refs = [getattr(schema, "base_schema", schema).empty_table()]
    out = block_tasks(refs, fn, *args, num_returns=num_returns)
    if num_returns == 1:
        return dataset_of(out, pa.table({}))
    return [dataset_of([o[i] for o in out], pa.table({})) for i in range(num_returns)]


def select(ds, cols: list):
    """``ds.select_columns(cols)`` as block tasks (``map_blocks``) → a
    materialized dataset of exactly ``cols`` in that order, also on an
    input without rows: its one task projects the zero-row table of the
    input's schema, where Ray's ``select_columns`` passes a block without
    rows through with all its columns."""
    return map_blocks(ds, _select, list(cols))


def _select(t, cols: list):
    return t.select(cols)


def datasets_of(parts: dict) -> dict:
    """name → ``dataset_of`` of its (block refs[, empty table]), the
    metadata waits of all of them overlapped in one thread each; a name
    whose value is a Dataset keeps it."""
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max(1, len(parts))) as pool:
        out = {k: pool.submit(dataset_of, *v) if isinstance(v, tuple) else v for k, v in parts.items()}
    return {k: v.result() if hasattr(v, "result") else v for k, v in out.items()}


def cosort(sides: list, keys: list, probe, schemas: list, *args, spread=()):
    """The one keyed regroup: the datasets in ``sides`` range-partitioned
    together on ``keys`` (``_regroup``), then ``probe(*tables, *args)``
    once per key range, where ``tables[i]`` is side ``i``'s rows of the
    range sorted on ``keys`` → a materialized dataset of the probe
    outputs, in key order. Refs in ``args`` are top-level task arguments
    of every probe task. Without ``spread`` a row's range depends on its
    key tuple alone, so every row of one key reaches a single ``probe``
    call.

    ``spread`` names the sides whose hot keys may spread (the skew rule
    of ``_regroup``): a hot key's rows of the side holding most of them go
    round-robin over the key's ranges and every other side's rows of the
    key are copied into each. A probe that pairs rows only within one key
    then meets every pair once; the caller names the sides for which its
    probe's output stays exact.

    Each side runs through ``_side``: a lazy side runs its own streaming
    execution, a materialized one none. A side without rows gives the
    probe ``schemas[i].empty_table()``; a schema may be a function giving
    it, called only then.
    """
    parts = [_side(ds) for ds in sides]
    empties = [None if part[0] else (s() if callable(s) else s).empty_table() for part, s in zip(parts, schemas)]
    return dataset_of(_regroup(parts, [keys] * len(parts), probe, empties=empties, args=args, spread=spread))


def sort_scan(ds, keys, summarize, fold, emit, *args, descending=False, num_returns: int = 1,
              schema=None) -> list:
    """The one ordered scan: ``ds`` range-partitioned on ``keys``
    (``_regroup``; ``descending`` as in ``Dataset.sort``), then three
    kernels over the non-empty key ranges, each one Arrow table sorted on
    ``keys`` → the ``emit`` refs in key order (``num_returns`` each):
    ``summarize(block)``, one plain task per range; ``fold(summaries)``
    on the driver, over the whole list in key order → one carry per range
    (forward carries, lookaheads and neighbour flags all fit); and
    ``emit(block, carry, *args)``, one plain task per range; refs in
    ``args`` are top-level task arguments of every emit task.

    The rows of one key (or one run of an operator's group key, which
    the sort keys may extend with order columns) are a stretch of
    consecutive ranges that nothing keeps in one range: the carry tells
    each range what the ranges before (or after) it hold of its first (or
    last) key. A hot key then costs one small summary per range and never
    has to fit one task.

    An input without rows gives one ``emit(schema.empty_table(), None)``:
    ``schema`` (a schema, or a function giving one, called only then)
    defaults to the input's own and names the input's columns when a lazy
    map before the scan hides them; without any schema such an input
    gives ``[]``.
    """
    import pyarrow as pa

    side = _side(ds)
    task = _block_task.options(num_returns=num_returns)
    if not side[0]:
        s = schema or side[3] or ds.schema
        s = s() if callable(s) else s
        s = getattr(s, "base_schema", s)
        return [task.remote(emit, s.empty_table(), None, *args)] if isinstance(s, pa.Schema) and s.names else []
    keys = [keys] if isinstance(keys, str) else list(keys)
    # each range's task gives the fold its (rows, summary) and emit the range
    ranges = _regroup([side], [keys], lambda b: ((b.num_rows, b.num_rows and summarize(b)), b),
                      descending=descending, num_returns=2)
    heads = ray.get([head for head, _ in ranges])
    kept = [(summary, block) for (n, summary), (_, block) in zip(heads, ranges) if n]
    carries = fold([summary for summary, _ in kept])
    return [task.remote(emit, block, carry, *args) for (_, block), carry in zip(kept, carries)]


def top_n(ds, keys, n: int, *, descending=False):
    """``ds.sort(keys, descending=descending).limit(n)`` without a sort
    (``descending`` one flag or one per key, nulls last) → a materialized
    dataset of one block: one task per block keeps that block's ``n``
    first rows, and one task sorts the at most blocks × ``n`` kept rows
    with Arrow and keeps the first ``n``."""
    keys = [keys] if isinstance(keys, str) else list(keys)
    flags = descending if isinstance(descending, (list, tuple)) else [descending] * len(keys)
    order = [(k, "descending" if d else "ascending") for k, d in zip(keys, flags)]
    refs, _, _, schema = _side(ds)
    if not refs:
        return dataset_of([], schema.empty_table()) if schema is not None else ds.limit(0)
    return dataset_of([submit(_head, order, n, *[submit(_head, order, n, ref) for ref in refs])])


def _head(order: list, n: int, *blocks):
    """The first ``n`` rows of ``blocks`` in ``order``."""
    return _concat(blocks).sort_by(order, null_placement="at_end").slice(0, n)


# -- the range partitioner ---------------------------------------------------

_SAMPLES = 20  # boundary sample rows drawn per range
_SLICE = 256 << 10  # least mean bytes of a split slice (``_range_count``)


def _side(*datasets) -> tuple:
    """The non-empty blocks of ``datasets`` → (block refs, their rows,
    their bytes, the first schema with columns or ``None``). Iterating
    runs Ray's streaming executor (``block_refs``): a lazy dataset's one
    logged execution, an unlogged one over a ``rd.from_arrow_refs``
    dataset that was not ``.materialize()``d."""
    refs, rows, nbytes, schema = [], [], 0, None
    for bundle in (b for ds in datasets for b in ds.iter_internal_ref_bundles()):
        if schema is None and bundle.schema is not None and bundle.schema.names:
            schema = bundle.schema
        for ref, meta in bundle.blocks:
            if meta.num_rows != 0:
                refs.append(ref)
                rows.append(meta.num_rows or 0)
                nbytes += meta.size_bytes or 0
    return refs, rows, nbytes, schema


def _range_count(nbytes: int, nrows: int) -> tuple:
    """(P, the least mean bytes of a split slice) from the input's bytes
    alone. P is one key range per ``target_min_block_size`` bytes, at
    most one per row and at most √(bytes / slice). Ray keeps task outputs
    under 100 KiB in the driver until read, so slices average ``_SLICE``
    (or the target, if less) or more: a split task reads P slices or more
    (``_groups``), and the driver holds about bytes / slice slices."""
    from ray.data import DataContext

    target = max(DataContext.get_current().target_min_block_size, 1)
    piece = min(target, _SLICE)
    return max(1, min(-(-nbytes // target), math.isqrt(nbytes // piece), nrows)), piece


def _groups(refs: list, rows: list, nbytes: int, least: int) -> list:
    """A side's blocks cut, in order, into at most bytes / ``least``
    groups of about equal rows, one split task each → [[refs, rows]]."""
    out, at, g, total = {}, 0, max(1, nbytes // least), sum(rows)
    for ref, m in zip(refs, rows):
        grp = out.setdefault(at * g // total, [[], 0])
        grp[0].append(ref)
        grp[1], at = grp[1] + m, at + m
    return list(out.values())


def _regroup(sides: list, keys: list, fn, *, preps=None, empties=None, descending=False,
             num_returns: int = 1, args=(), spread=()) -> list:
    """The one range partitioner, all plain tasks: ``fn(*tables, *args)``
    once per key range, in key order → the task refs (``num_returns`` each).
    ``tables[i]`` is side ``i``'s rows of the range sorted on ``keys[i]``
    by Arrow: nulls last, ``descending`` (one flag, or one per key) as in
    ``Dataset.sort``. ``sides`` are ``_side`` tuples; ``preps[i]`` maps
    side ``i``'s rows once, keeping the order of key values;
    ``empties[i]`` is its (prepped) table when it has no rows.

    P (``_range_count``) == 1 is one task. Otherwise, per group of blocks
    (``_groups``), a sample task draws raw key tuples, the driver picks
    P − 1 boundaries (``_boundaries``) and a split task (``_split``)
    cuts the group by the number of boundaries at or before a row's key
    tuple, so one key tuple (nulls equal) has one range on every side.

    The skew rule, only for the sides in ``spread``: a key tuple that
    takes two or more of the P quantile picks of the pooled sample is
    hot and owns the consecutive ranges lo..hi of its picks. If the side
    holding most of its sampled rows is in ``spread``, that side's rows
    of the key go round-robin over lo..hi (offset by the split task's
    index) and every other side's rows of the key are copied into each
    of those ranges; so every pair of rows of the key still meets in
    exactly one range. Without ``spread`` a key tuple has one range.
    """
    n = len(sides)
    preps, empties = preps or [None] * n, empties or [None] * n
    flags = descending if isinstance(descending, (list, tuple)) else [descending] * len(keys[0])
    order = ["descending" if d else "ascending" for d in flags]
    nrows = sum(sum(rows) for _, rows, *_ in sides)
    (p, piece), bounds = _range_count(sum(nbytes for _, _, nbytes, _ in sides), nrows), None
    if p > 1:
        groups = [_groups(*side[:3], p * piece) for side in sides]
        samples = ray.get([_sample.remote(k, -(-_SAMPLES * p * m // nrows), *refs)
                           for side, k in zip(groups, keys) for refs, m in side])
        owners = [i for i, side in enumerate(groups) for _ in side]
        bounds, hot = _boundaries(samples, owners, p, order, n, spread)
    if bounds is None or not bounds.num_rows:
        ranges = [[refs for refs, *_ in sides]]
    else:
        split, at = _split.options(num_returns=bounds.num_rows + 1), ray.put(bounds)
        cuts = [[split.remote(k, prep, at, order, h, task, *refs) for task, (refs, _) in enumerate(side)]
                for side, k, prep, h in zip(groups, keys, preps, hot)]
        ranges = [[[c[i] for c in side] for side in cuts] for i in range(bounds.num_rows + 1)]
        preps = [None] * n  # the split tasks ran them
    task = _range_task.options(num_returns=num_returns)
    return [
        task.remote(fn, [(len(refs), k, order, prep, None if refs else empty)
                         for refs, k, prep, empty in zip(rng, keys, preps, empties)],
                    len(args), *args, *[ref for refs in rng for ref in refs])
        for rng in ranges
    ]


def _key_table(t, keys: list):
    """``t``'s key columns under positional names, so that the key
    tuples of sides with different column names compare."""
    import pyarrow as pa

    return pa.table([t[k] for k in keys], names=[str(i) for i in range(len(keys))])


def _concat(blocks, prep=None):
    import pyarrow as pa

    t = pa.concat_tables([_arrow(b) for b in blocks], promote_options="permissive")
    return prep(t) if prep else t


@ray.remote
def _sample(keys: list, k: int, *blocks):
    """Up to ``k`` evenly spaced raw key tuples of ``blocks`` (a prep's
    widened key types meet them in ``_split``'s concatenation)."""
    import numpy as np
    import pyarrow as pa

    t = _concat([_key_table(_arrow(b), keys) for b in blocks])
    k = min(k, t.num_rows)
    return t.take(pa.array((2 * np.arange(k) + 1) * t.num_rows // max(2 * k, 1)))


def _boundaries(samples: list, owners: list, p: int, order: list, n: int, spread=()) -> tuple:
    """The pooled sample (``samples[j]`` drawn from side ``owners[j]``) →
    (boundaries, hot). The boundaries are its P-quantile key tuples after
    the smallest, less each equal to the one before unless its key
    spreads. ``hot`` holds per side ``None`` when no key spreads, else
    (lo, spreads) over the ranges: at a spreading key's last range ``r``,
    ``lo[r]`` is its first range (−1 elsewhere) and ``spreads[r]`` tells
    whether this side spreads the key or copies it. ``_regroup`` states
    the rule."""
    import bisect
    from collections import Counter

    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc

    pool = _concat(samples)
    idx = pc.sort_indices(pool, sort_keys=list(zip(pool.column_names, order)), null_placement="at_end")
    rows = [tuple(r.values()) for r in pool.take(idx).to_pylist()]
    owner = np.repeat(owners, [t.num_rows for t in samples])[idx.to_numpy()]
    picks = [rows[i * len(rows) // p] for i in range(p)]
    first, last = {}, {}
    for t, key in enumerate(picks):
        first.setdefault(key, t)
        last[key] = t
    spreader = {}
    for key in (k for k in first if last[k] > first[k]) if spread else ():
        held = Counter(int(o) for r, o in zip(rows, owner) if r == key)
        side = max(range(n), key=lambda i: (held[i], -i))
        if side in spread:
            spreader[key] = side
    kept = [t for t in range(1, p) if picks[t] != picks[t - 1] or picks[t] in spreader]
    bounds = pool.take(idx.take(pa.array([t * len(rows) // p for t in kept], pa.int64())))
    if not spreader:
        return bounds, [None] * n
    lo, spreads = np.full(len(kept) + 1, -1, np.int64), np.zeros((n, len(kept) + 1), bool)
    for key, side in spreader.items():
        hi = bisect.bisect_right(kept, last[key])
        lo[hi] = bisect.bisect_right(kept, first[key])
        spreads[side, hi] = True
    return bounds, [(lo, spreads[i]) for i in range(n)]


@ray.remote
def _split(keys: list, prep, bounds, order: list, hot, task: int, *blocks) -> tuple:
    """Blocks → one prepped table → one slice per range: the boundary
    rows, marked to sort before equal rows, are sorted with the table's
    key tuples; a row's range is the count of boundary rows before it.
    ``hot`` (``_boundaries``) then spreads or copies the rows of hot
    keys; ``task`` is this split task's index on its side."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc

    t, nb = _concat(blocks, prep), bounds.num_rows
    both = _concat([bounds, _key_table(t, keys)])
    both = both.append_column("m", pa.array(np.repeat(np.int8([0, 1]), [nb, t.num_rows])))
    idx = pc.sort_indices(both, sort_keys=list(zip(bounds.column_names, order)) + [("m", "ascending")],
                          null_placement="at_end").to_numpy()
    is_row = idx >= nb
    rows, rng = idx[is_row] - nb, np.cumsum(~is_row)[is_row]
    if hot is not None:
        rows, rng = _spread(both.drop_columns(["m"]), nb, rows, rng, *hot, task)
    cuts = np.searchsorted(rng, np.arange(nb + 2))
    return tuple(t.take(pa.array(rows[a:b])) for a, b in zip(cuts[:-1], cuts[1:]))


def _spread(both, nb: int, rows, rng, lo, spreads, task: int) -> tuple:
    """``_split``'s rows in key order and their ranges → the same with a
    hot key's rows (those in its last range ``r`` equal to the boundary
    before them) spread round-robin over ``lo[r]``..``r`` from ``task``
    or copied into each of them, sorted on range."""
    import numpy as np

    at = np.flatnonzero(lo[rng] >= 0)
    at = at[_equal_rows(both.take(rng[at] - 1), both.take(rows[at] + nb))]
    hi = rng[at]
    span, spread = hi - lo[hi] + 1, spreads[hi]
    s = at[spread]  # one run per key, in key order
    rng = rng.copy()
    rng[s] = lo[hi[spread]] + (np.arange(len(s)) - np.searchsorted(rng[s], rng[s]) + task) % span[spread]
    c, reps = at[~spread], span[~spread]
    keep = np.ones(len(rows), bool)
    keep[c] = False
    # copy j of a row goes to range lo + j of its key
    copies = np.arange(int(reps.sum())) - np.repeat(np.cumsum(reps) - reps - lo[hi[~spread]], reps)
    rows, rng = np.concatenate([rows[keep], np.repeat(rows[c], reps)]), np.concatenate([rng[keep], copies])
    order = np.argsort(rng, kind="stable")
    return rows[order], rng[order]


def _equal_rows(a, b):
    """Row-wise equality of two tables of the same columns, nulls equal."""
    import numpy as np
    import pyarrow.compute as pc

    eq = np.ones(a.num_rows, bool)
    for x, y in zip(a.columns, b.columns):
        same = pc.or_(pc.fill_null(pc.equal(x, y), False), pc.and_(pc.is_null(x), pc.is_null(y)))
        eq &= same.to_numpy(zero_copy_only=False)
    return eq


@ray.remote
def _range_task(fn, spec: list, nargs: int, *refs):
    """One key range: each side's blocks or slices concatenated, prepped
    (still raw blocks only) and sorted on its keys; then ``fn`` with the
    ``nargs`` leading arguments after them."""
    args, refs = refs[:nargs], refs[nargs:]
    at = [0, *itertools.accumulate(n for n, *_ in spec)]
    return fn(*[_concat(refs[a:b], prep).sort_by(list(zip(keys, order)), null_placement="at_end")
                if b > a else empty for a, b, (_, keys, order, prep, empty) in zip(at, at[1:], spec)],
              *args)


def group_agg(ds, keys, *aggs):
    """``ds.groupby(keys).aggregate(*aggs)`` for Ray's ``Count``, ``Sum``,
    ``Min`` and ``Max`` as one ``_regroup`` → a materialized dataset.

    The output is what Ray gave: the keys, then one column per aggregate
    under its name, one row per key in key order (null keys last). Ray
    builds its rows from Python scalars, so integer keys and values come
    out int64 and floating ones float64; Count is int64. Nulls are
    skipped unless an aggregate has ``ignore_nulls=False``; a group
    without a value gives null. Without aggregates it gives the distinct
    keys.

    The partitioner's tasks aggregate their blocks first
    (``pa.Table.group_by``), so a hot key is partitioned as one row per
    task; each range's task merges a key's partial rows with a second
    ``group_by`` (counts by sum, the others with themselves). Every
    output block has the full schema, also for an input without rows.
    """
    import pyarrow as pa

    keys = [keys] if isinstance(keys, str) else list(keys)
    specs = [(type(a).__name__, a.get_target_column(), a._ignore_nulls, a.name) for a in aggs]
    if any(kind not in ("Count", "Sum", "Min", "Max") for kind, *_ in specs):
        raise ValueError(f"group_agg takes Count, Sum, Min and Max, got {[s[0] for s in specs]}")
    step, side = partial(_agg_step, keys=keys, specs=specs), _side(ds)
    empty = None if side[0] else step(  # typed by the input's schema; untyped without one
        side[3].empty_table() if side[3] is not None
        else pa.table({c: pa.nulls(0) for c in keys + [on for _, on, *_ in specs if on]}))
    return dataset_of(_regroup([side], [keys], partial(step, merge=True), preps=[step], empties=[empty]))


def _agg_step(block, keys: list, specs: list, merge: bool = False):
    """One block → one row per key (``group_agg``): the partial aggregates
    of its rows, or with ``merge`` the merge of its partial rows, sorted
    on the keys (``group_by`` does not keep the order of first
    appearance)."""
    import pyarrow as pa
    import pyarrow.compute as pc

    cols = {k: _py_typed(block[k]) for k in keys}
    aggs = []
    for i, (kind, on, skip, name) in enumerate(specs):
        if merge:
            col, fn = block[name], "sum" if kind == "Count" else kind.lower()
        elif kind == "Count":
            col, fn = block[on or keys[0]], "count"
        else:
            col, fn = _py_typed(block[on]), kind.lower()
        cols[f"__{i}"] = col
        opts = (pc.CountOptions("only_valid" if on and skip else "all") if fn == "count"
                else pc.ScalarAggregateOptions(skip_nulls=skip, min_count=1))
        aggs.append((f"__{i}", fn, opts))
    out = pa.table(cols).group_by(keys, use_threads=False).aggregate(aggs)
    if merge:
        out = out.sort_by([(k, "ascending") for k in keys], null_placement="at_end")
    return pa.table(
        [out[k] for k in keys] + [out[f"{c}_{fn}"] for c, fn, _ in aggs],
        names=keys + [name for *_, name in specs],
    )


def _py_typed(col):
    """``col`` in the type Ray's Python-scalar rows give it: integers as
    int64 (uint64 stays uint64, which int64 cannot hold), floating point
    as float64, anything else unchanged."""
    import pyarrow as pa

    t = col.type
    to = pa.int64() if pa.types.is_integer(t) and t != pa.uint64() else pa.float64() if pa.types.is_floating(t) else t
    return col if to == t else col.cast(to)


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


def run_positions(keys):
    """Run number and in-run position of each row of a sorted key column
    (a numpy array): the sort-scan kernels' shared vocabulary."""
    import numpy as np

    bounds = key_runs(keys)
    run = np.repeat(np.arange(len(bounds) - 1), np.diff(bounds))
    return run, np.arange(len(keys), dtype=np.int64) - bounds[run]


JOIN_HOWS = ("inner", "left_outer", "left_anti", "full_outer")
# the sides whose hot keys may spread (``_regroup``): a copied left row
# would be emitted once per range by an outer or anti join
_SPREAD = {"inner": (0, 1), "left_outer": (0,), "left_anti": (0,), "full_outer": ()}


def equi_join(left, right, on, right_on=None, how: str = "inner",
              left_suffix=None, right_suffix=None):
    """``left`` ⋈ ``right`` on the columns ``on`` = ``right_on``
    (``right_on`` defaults to ``on``) as one ``_regroup`` → a materialized
    dataset. ``how`` is one of ``JOIN_HOWS``.

    The output is what ``Dataset.join`` gave: the left columns (keys
    included, in the left's types), then the right's non-key columns; a
    name on both sides takes ``left_suffix``/``right_suffix``, and
    ``full_outer`` coalesces the key into the left column. Null keys never
    match. Integer keys may differ in width between the sides (int32 vs
    int64): the keys are cast to int64 as the rows are split. Both
    sides are split on shared key ranges and keep their own schemas; a
    side without any schema (no blocks) joins as one without rows that
    has only its keys.

    Hot keys are spread by the partitioner's skew rule (``_regroup``): a
    key tuple that takes two or more of the boundary sample's quantile
    picks owns as many consecutive key ranges; the side holding more of
    its sampled rows spreads its rows of the key over them and the other
    side's rows of the key are copied into each. ``inner`` spreads
    either side, ``left_outer`` and ``left_anti`` only the left (a copied
    left row would be emitted once per range), ``full_outer`` neither.
    """
    import pyarrow as pa

    if how not in JOIN_HOWS:
        raise ValueError(f"how must be one of {JOIN_HOWS}, got {how!r}")
    on = [on] if isinstance(on, str) else list(on)
    right_on = on if right_on is None else [right_on] if isinstance(right_on, str) else list(right_on)
    sides = [_side(left), _side(right)]
    ls, rs = sides[0][3], sides[1][3]
    if ls is None:
        ls = pa.schema([(k, rs.field(r).type if rs else pa.null()) for k, r in zip(on, right_on)])
    if rs is None:
        rs = pa.schema([(r, ls.field(k).type) for k, r in zip(on, right_on)])
    types = [(ls.field(k).type, rs.field(r).type) for k, r in zip(on, right_on)]
    if any(a != b and not (pa.types.is_integer(a) and pa.types.is_integer(b)) for a, b in types):
        raise TypeError(f"join keys of types {types} cannot be compared")
    ktypes = [a if a == b else pa.int64() for a, b in types]
    rpay = [] if how == "left_anti" else [f for f in rs if f.name not in right_on]
    clash = set(ls.names) & {f.name for f in rpay}
    if clash and not (left_suffix or right_suffix):
        raise ValueError(f"columns {sorted(clash)} are on both sides: give a suffix")
    out = pa.schema([(f.name + (sfx or "") if f.name in clash else f.name, f.type)
                     for fields, sfx in ((ls, left_suffix), (rpay, right_suffix)) for f in fields])
    casts = [partial(_cast_keys, keys=k, types=ktypes) for k in (on, right_on)]
    probe = partial(_join_probe, lkeys=on, rkeys=right_on, how=how, out=out,
                    lcols=ls.names, rcols=[f.name for f in rpay])
    return dataset_of(_regroup(sides, [on, right_on], probe, preps=casts, spread=_SPREAD[how],
                               empties=[cast(s.empty_table()) for cast, s in zip(casts, (ls, rs))]))


def _cast_keys(t, keys: list, types: list):
    """``t`` with its join keys cast to the join's key types."""
    import pyarrow as pa

    return t.cast(pa.schema([f.with_type(types[keys.index(f.name)]) if f.name in keys else f for f in t.schema]))


def _join_probe(left, right, lkeys: list, rkeys: list, how: str, out, lcols: list, rcols: list):
    """One key range → its joined rows (``equi_join``): the key tuples of
    both sides with their row positions joined by Arrow (nulls never
    match; full_outer coalesces the key), then both sides' rows taken."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc

    if not (left.num_rows or right.num_rows):  # keys may be untyped here
        return out.empty_table()
    names = [str(i) for i in range(len(lkeys))]
    pairs = _key_table(left, lkeys).append_column("__l", pa.array(np.arange(left.num_rows))).join(
        _key_table(right, rkeys).append_column("__r", pa.array(np.arange(right.num_rows))),
        names, join_type=how.replace("_", " "), coalesce_keys=True, use_threads=False,
    )
    cols = [pairs[names[lkeys.index(c)]] if c in lkeys else left[c].take(pairs["__l"]) for c in lcols]
    cols += [right[c].take(pairs["__r"]) for c in rcols]
    return pa.Table.from_arrays(
        [c if c.type == f.type else pc.cast(c, f.type) for c, f in zip(cols, out)], schema=out
    )


def concat_columns(parts: list, dtypes: tuple) -> list:
    """Per-block tuples of numpy arrays (block-task results) → one
    concatenated array per position; empty arrays of ``dtypes`` when
    there are no parts."""
    import numpy as np

    if not parts:
        return [np.empty(0, d) for d in dtypes]
    return [np.concatenate(col) for col in zip(*parts)]

