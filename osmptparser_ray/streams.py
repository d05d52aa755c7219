"""Stream-shaped operators over event logs (guide §streaming-shaped).

Ray Data has no event-time watermarks; stream semantics are realized
over key-and-time sorted data: sessions and as-of joins by a distributed
prefix scan over one global (key, ts) sort, windows by assigning each event its window ids
and a pure groupby-aggregate — no per-key UDF, so a key's history never
has to fit one task.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray.data as rd

from .util import group_agg


def sessionize(
    events: rd.Dataset,
    gap_seconds: float = 1800.0,
    user_col: str = "user_id",
    ts_col: str = "ts",
) -> rd.Dataset:
    """Session windows: a new session starts when the gap since the
    previous event of the same user exceeds ``gap_seconds``.

    Output: (user_id, session_id [1-based per user], n_events,
    start_us, end_us). Deterministic: events ordered by (ts, event_id)
    within user.

    The plan (round-3 rewrite of VERDICT r2 #4) is a distributed prefix
    scan — the sort-based shape that survives 10^8 users and hot keys:

    1. global sort by (user, ts, event_id); only the three needed columns
       travel,
    2. ONE vectorized pass per block (gap/cumsum over numpy arrays, no
       per-user UDF) emitting local session partials plus a tiny
       per-block boundary summary (first/last row, straddling-user
       session counts),
    3. the driver chains the summaries in order — O(#blocks) scalar work
       — to give each block its boundary correction (does its first run
       continue the previous block's last session? at which per-user
       session ordinal does it start?),
    4. a correction-applying second pass over the SAME materialized
       blocks, then a pure groupby(user, session_id) AGGREGATE merges
       cross-block session partials.

    A hot user's history never needs to fit one task (its blocks chain
    through step 3), and UDF count is O(blocks), not O(users).
    """
    import ray
    from ray.data.aggregate import Max, Min, Sum

    gap_us = int(gap_seconds * 1_000_000)

    slim = events.select_columns([user_col, ts_col, "event_id"])
    sorted_ds = slim.sort([user_col, ts_col, "event_id"]).materialize()

    def _cols(batch: pa.Table):
        u = batch[user_col].to_numpy(zero_copy_only=False).astype(np.int64)
        us = batch[ts_col].combine_chunks().cast(pa.int64()).to_numpy(
            zero_copy_only=False
        )
        e = batch["event_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        return u, us, e

    def _local_runs(u: np.ndarray, us: np.ndarray):
        """Vectorized local sessionization: run id per row (0-based within
        block), new-run mask, and per-row local per-user ordinal base."""
        n = len(u)
        is_new = np.ones(n, bool)
        if n > 1:
            same_user = u[1:] == u[:-1]
            close = (us[1:] - us[:-1]) <= gap_us
            is_new[1:] = ~(same_user & close)
        run = np.cumsum(is_new) - 1  # 0-based local run index
        return is_new, run

    # Blocks of the materialized sort, in dataset order. Both passes run
    # one task per BLOCK REF and the boundary chain is keyed by BLOCK
    # ORDINAL — first-row contents are NOT a unique block identity
    # (duplicate events straddling a block boundary give two blocks the
    # same first row, and a content-keyed dict silently hands one block
    # the other's correction; ADVICE r3 #5).
    block_refs = [
        ref
        for bundle in sorted_ds.iter_internal_ref_bundles()
        for ref, md in bundle.blocks
        # skip empty blocks at the METADATA level — a sort can emit empty
        # blocks with a columnless schema that would break column access
        if md.num_rows is None or md.num_rows > 0
    ]

    # ---- pass 1: per-block boundary summaries (tiny) ----------------------
    @ray.remote
    def summarize(block: pa.Table):
        # An empty block from the sort can carry a columnless schema —
        # guard BEFORE touching columns.
        if block.num_rows == 0 or user_col not in block.schema.names:
            return None
        u, us, e = _cols(block)
        is_new, run = _local_runs(u, us)
        first_user, last_user = int(u[0]), int(u[-1])
        # sessions of the first/last user within this block
        return {
            "first_user": first_user,
            "first_ts": int(us[0]),
            "last_user": last_user,
            "last_ts": int(us[-1]),
            "n_sessions_first": int(is_new[u == first_user].sum()),
            "n_sessions_last": int(is_new[u == last_user].sum()),
            "single_user": int(first_user == last_user),
        }

    summaries = ray.get([summarize.remote(ref) for ref in block_refs])

    # driver scan: O(#blocks) scalars — per block, does its first local run
    # merge into the previous block's last session, and at what per-user
    # ordinal offset do the first user's sessions start?
    corrections: list[tuple[int, int]] = []
    carry_user = None  # user straddling into the next block
    carry_count = 0  # sessions of carry_user seen so far
    carry_ts = 0  # last event ts of carry_user
    for s in summaries:
        if s is None:  # empty block — carry passes through unchanged
            corrections.append((0, 0))
            continue
        if carry_user is not None and s["first_user"] == carry_user:
            merge_first = int(s["first_ts"] - carry_ts <= gap_us)
            offset = carry_count - merge_first
        else:
            merge_first, offset = 0, 0
        corrections.append((merge_first, offset))
        if s["single_user"]:
            if carry_user is not None and s["first_user"] == carry_user:
                carry_count = offset + s["n_sessions_first"]
            else:
                carry_user, carry_count = s["first_user"], s["n_sessions_first"]
        else:
            carry_user, carry_count = s["last_user"], s["n_sessions_last"]
        carry_ts = s["last_ts"]

    # ---- pass 2: emit session partials with GLOBAL per-user ordinals -----
    @ray.remote
    def emit(block: pa.Table, merge_first: int, offset: int) -> pa.Table:
        empty = pa.table(
            {
                user_col: pa.array([], pa.int64()),
                "session_id": pa.array([], pa.int64()),
                "n_part": pa.array([], pa.int64()),
                "start_us": pa.array([], pa.int64()),
                "end_us": pa.array([], pa.int64()),
            }
        )
        if block.num_rows == 0 or user_col not in block.schema.names:
            return empty
        u, us, e = _cols(block)
        is_new, run = _local_runs(u, us)
        # per-user local ordinal of each run: runs are numbered within the
        # block; ordinal(run) = run_index - (first run index of its user) + 1
        run_user = u[is_new]  # user of each run
        run_idx = np.arange(len(run_user))
        user_change = np.ones(len(run_user), bool)
        user_change[1:] = run_user[1:] != run_user[:-1]
        first_run_of_user = run_idx[user_change]
        run_base = np.repeat(first_run_of_user, np.diff(np.append(first_run_of_user, len(run_user))))
        ordinal = run_idx - run_base + 1
        # apply the boundary correction to the FIRST user's runs
        first_user_runs = run_user == u[0]
        ordinal = ordinal + np.where(first_user_runs, offset, 0)
        # merge_first: the first run continues the previous block's session
        # — its ordinal is already offset+1 == carried ordinal (offset =
        # carry - 1 when merging), so the groupby merge lands on the same
        # (user, session_id) key. Nothing else to do.
        # per-run aggregates (vectorized over run starts)
        starts = np.flatnonzero(is_new)
        n_part = np.diff(np.append(starts, len(u)))
        start_us = us[starts]
        end_us = us[np.append(starts[1:] - 1, len(u) - 1)]
        return pa.table(
            {
                user_col: pa.array(run_user, pa.int64()),
                "session_id": pa.array(ordinal, pa.int64()),
                "n_part": pa.array(n_part.astype(np.int64), pa.int64()),
                "start_us": pa.array(start_us, pa.int64()),
                "end_us": pa.array(end_us, pa.int64()),
            }
        )

    out_refs = [
        emit.remote(ref, *corrections[i]) for i, ref in enumerate(block_refs)
    ]
    partials = rd.from_arrow_refs(out_refs)
    return group_agg(
        partials, [user_col, "session_id"],
        Sum("n_part", alias_name="n_events"),
        Min("start_us", alias_name="start_us"),
        Max("end_us", alias_name="end_us"),
    )


def asof_join(
    left: rd.Dataset,
    right: rd.Dataset,
    key_col: str = "user_id",
    ts_col: str = "ts",
    order_col: str = "event_id",
    left_cols: tuple = ("event_id",),
    right_cols: tuple = ("event_id", "value"),
    right_suffix: str = "_r",
) -> rd.Dataset:
    """AS-OF join: each left row picks the LATEST right row of the same key
    with ``right.ts <= left.ts`` (ties on ts broken by the larger
    ``order_col`` — DuckDB `ASOF LEFT JOIN` semantics after a (key, ts)
    right-side dedup). Left-outer: unmatched left rows keep nulls.

    Ray Data has no as-of join; this is the custom operator realized with
    the SAME distributed-prefix-scan shape as ``sessionize``:

    1. both sides tagged and globally sorted by (key, ts, side, order) —
       side 0 = right BEFORE side 1 = left at equal ts, so "<=" is
       inclusive by construction,
    2. one vectorized pass per block: running last-right-row forward fill
       (``np.maximum.accumulate`` over right positions, key-guarded) +
       a tiny boundary summary (first/last key, last right row of the
       last key),
    3. an O(#blocks) driver chain, keyed by BLOCK ORDINAL, hands each
       block the right row carried into it (for left rows of its first
       key that precede any in-block right row),
    4. a second pass over the SAME materialized blocks emits the joined
       left rows. No shuffle beyond the one sort; a hot key's history
       spans blocks freely.

    Partitioning assumption: the global sort co-locates each key's
    timeline into contiguous ranges; the boundary chain is exact for keys
    that straddle blocks (tested with all-one-key inputs).
    """
    import ray

    lslim = left.select_columns(list({key_col, ts_col, order_col, *left_cols}))
    rslim = right.select_columns(list({key_col, ts_col, order_col, *right_cols}))
    # pin the union schema from BOTH sides' metadata so null columns get
    # the owning side's true types (schema() is lazy plan metadata)
    l_types = {f.name: f.type for f in lslim.schema().base_schema}
    r_types = {f.name: f.type for f in rslim.schema().base_schema}

    def tag(side: int):
        def f(batch: pa.Table) -> pa.Table:
            cols = {
                key_col: batch[key_col].cast(pa.int64()),
                "__us": batch[ts_col].combine_chunks().cast(pa.int64()),
                "__ord": batch[order_col].cast(pa.int64()),
                "__side": pa.array(
                    np.full(batch.num_rows, side, np.int8), pa.int8()
                ),
            }
            for c in left_cols:
                cols[f"__l_{c}"] = (
                    batch[c] if side == 1 else pa.nulls(batch.num_rows, l_types[c])
                )
            for c in right_cols:
                cols[f"__r_{c}"] = (
                    batch[c] if side == 0 else pa.nulls(batch.num_rows, r_types[c])
                )
            return pa.table(cols)

        return f

    l_tagged = lslim.map_batches(tag(1), batch_format="pyarrow")
    r_tagged = rslim.map_batches(tag(0), batch_format="pyarrow")
    unioned = l_tagged.union(r_tagged)
    sorted_ds = unioned.sort([key_col, "__us", "__side", "__ord"]).materialize()

    def _cols(batch: pa.Table):
        k = batch[key_col].to_numpy(zero_copy_only=False).astype(np.int64)
        us = batch["__us"].to_numpy(zero_copy_only=False).astype(np.int64)
        side = batch["__side"].to_numpy(zero_copy_only=False).astype(np.int8)
        od = batch["__ord"].to_numpy(zero_copy_only=False).astype(np.int64)
        return k, us, side, od

    # Blocks of the materialized sort, in dataset order — the boundary
    # chain is keyed by BLOCK ORDINAL, not first-row contents (duplicate
    # first rows across blocks would collide in a content-keyed dict;
    # ADVICE r3 #5). One task per block ref, both passes.
    block_refs = [
        ref
        for bundle in sorted_ds.iter_internal_ref_bundles()
        for ref, md in bundle.blocks
        # skip empty blocks at the METADATA level — a sort can emit empty
        # blocks with a columnless schema that would break column access
        if md.num_rows is None or md.num_rows > 0
    ]

    # ---- pass 1: per-block boundary summaries ----------------------------
    @ray.remote
    def summarize(block: pa.Table):
        if block.num_rows == 0 or key_col not in block.schema.names:
            return None
        k, us, side, od = _cols(block)
        last_key = int(k[-1])
        rmask = (side == 0) & (k == last_key)
        if rmask.any():
            j = int(np.flatnonzero(rmask)[-1])
            import pickle

            vals = {c: block[f"__r_{c}"][j].as_py() for c in right_cols}
            blob = pickle.dumps(vals)
        else:
            blob = b""
        return {"first_key": int(k[0]), "last_key": last_key, "last_right": blob}

    summaries = ray.get([summarize.remote(ref) for ref in block_refs])
    import pickle

    corrections: list[bytes] = []
    carry_key, carry_blob = None, b""
    for s in summaries:
        if s is None:  # empty block — carry passes through unchanged
            corrections.append(b"")
            continue
        corrections.append(carry_blob if carry_key == s["first_key"] else b"")
        if s["last_right"]:
            carry_key, carry_blob = s["last_key"], s["last_right"]
        elif carry_key != s["last_key"]:
            carry_key, carry_blob = s["last_key"], b""
        # else: same key continues with no new right rows — carry persists

    out_fields = [(c, f"__l_{c}") for c in left_cols]

    @ray.remote
    def emit(batch: pa.Table, carry: bytes) -> pa.Table:
        cols: dict = {key_col: [], ts_col: []}
        if batch.num_rows == 0:
            # types from the driver-captured side schemas, NOT the block
            # schema — a sort-emitted empty block can be columnless (the
            # same hazard summarize guards against) and .field() would
            # raise KeyError on it
            empty = {key_col: pa.array([], pa.int64()), ts_col: pa.array([], pa.timestamp("us"))}
            for c, _src in out_fields:
                empty[c] = pa.array([], l_types[c])
            for c in right_cols:
                empty[f"{c}{right_suffix}"] = pa.array([], r_types[c])
            return pa.table(empty)
        k, us, side, od = _cols(batch)
        carry_vals = pickle.loads(carry) if carry else None
        n = len(k)
        pos = np.arange(n, dtype=np.int64)
        right_pos = np.where(side == 0, pos, -1)
        last_right = np.maximum.accumulate(right_pos)
        is_left = side == 1
        lr = last_right[is_left]
        lk = k[is_left]
        # a matched fill must come from the SAME key
        valid = (lr >= 0) & (k[np.maximum(lr, 0)] == lk)
        # left rows of the block's first key with no in-block right row
        # use the carried right row (exact: keys are contiguous)
        use_carry = (~valid) & (lk == k[0]) & (carry_vals is not None)
        left_t = batch.filter(pa.array(is_left))
        out = {
            key_col: left_t[key_col],
            ts_col: left_t["__us"].cast(pa.timestamp("us")),
        }
        for c, src in out_fields:
            out[c] = left_t[src]
        take_idx = np.where(valid, np.maximum(lr, 0), 0)
        valid_pa = pa.array(valid)
        use_carry_pa = pa.array(use_carry) if use_carry.any() else None
        import pyarrow.compute as pc

        for c in right_cols:
            typ = batch.schema.field(f"__r_{c}").type
            rv = batch[f"__r_{c}"].combine_chunks().take(
                pa.array(take_idx, pa.int64())
            )
            filled = pc.if_else(valid_pa, rv, pa.scalar(None, typ))
            if use_carry_pa is not None:
                filled = pc.if_else(
                    use_carry_pa, pa.scalar(carry_vals[c], typ), filled
                )
            out[f"{c}{right_suffix}"] = filled
        return pa.table(out)

    return rd.from_arrow_refs(
        [emit.remote(ref, corrections[i]) for i, ref in enumerate(block_refs)]
    )


def hopping_window(
    events: rd.Dataset,
    window_seconds: float,
    hop_seconds: float,
    key_col: str = "user_id",
    ts_col: str = "ts",
    value_col: str = "value",
) -> rd.Dataset:
    """Hopping (sliding) windows: window w covers [w·hop, w·hop + length);
    an event at t belongs to every w in (⌈(t−length)/hop⌉, ⌊t/hop⌋] —
    replicated map-side (vectorized repeat/cumsum, replication factor
    length/hop) then a pure groupby-AGGREGATE. Generalizes
    ``tumbling_window`` (hop == length).

    Output: (key, window_id, n_events, sum_value)."""
    from ray.data.aggregate import Count, Sum

    w_us = int(window_seconds * 1_000_000)
    h_us = int(hop_seconds * 1_000_000)
    if w_us % h_us != 0:
        raise ValueError("window_seconds must be a multiple of hop_seconds")

    def explode(batch: pa.Table) -> pa.Table:
        micros = batch[ts_col].combine_chunks().cast(pa.int64()).to_numpy(
            zero_copy_only=False
        )
        keys = batch[key_col].to_numpy(zero_copy_only=False).astype(np.int64)
        vals = batch[value_col].to_numpy(zero_copy_only=False).astype(np.float64)
        w_hi = micros // h_us  # last window containing t
        w_lo = (micros - w_us) // h_us + 1  # first window containing t
        cnt = w_hi - w_lo + 1
        total = int(cnt.sum())
        row = np.repeat(np.arange(len(keys), dtype=np.int64), cnt)
        within = np.arange(total, dtype=np.int64) - np.repeat(
            np.cumsum(cnt) - cnt, cnt
        )
        wid = w_lo[row] + within
        return pa.table(
            {
                key_col: pa.array(keys[row], pa.int64()),
                "window_id": pa.array(wid, pa.int64()),
                value_col: pa.array(vals[row], pa.float64()),
            }
        )

    return group_agg(
        events.map_batches(explode, batch_format="pyarrow"), [key_col, "window_id"],
        Count(alias_name="n_events"), Sum(value_col, alias_name="sum_value"),
    )


def tumbling_window(
    events: rd.Dataset,
    window_seconds: float,
    key_col: str = "user_id",
    ts_col: str = "ts",
    value_col: str = "value",
) -> rd.Dataset:
    """Tumbling windows as a pure groupby-aggregate (no per-group UDF):
    window id = epoch // window. Output: (key, window_id, n_events, sum_value)."""
    from ray.data.aggregate import Count, Sum

    w_us = int(window_seconds * 1_000_000)

    def win(batch: pa.Table) -> pa.Table:
        micros = batch[ts_col].cast(pa.int64()).to_numpy(zero_copy_only=False)
        return pa.table(
            {
                key_col: batch[key_col],
                "window_id": pa.array(micros // w_us, pa.int64()),
                value_col: batch[value_col],
            }
        )

    return group_agg(
        events.map_batches(win, batch_format="pyarrow"), [key_col, "window_id"],
        Count(alias_name="n_events"), Sum(value_col, alias_name="sum_value"),
    )
