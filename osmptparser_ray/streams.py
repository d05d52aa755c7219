"""Stream-shaped operators over event logs (guide §streaming-shaped).

Ray Data has no event-time watermarks; stream semantics are realized
over key-and-time sorted data: sessions and as-of joins by one
``util.sort_scan`` over a global (key, ts) sort, windows by assigning
each event its window ids and a pure groupby-aggregate — no per-key UDF,
so a key's history never has to fit one task.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray.data as rd

from .util import group_agg, run_positions, sort_scan


def sessionize(
    events: rd.Dataset,
    gap_seconds: float = 1800.0,
    user_col: str = "user_id",
    ts_col: str = "ts",
) -> rd.Dataset:
    """Session windows: a new session starts when the gap since the
    previous event of the same user exceeds ``gap_seconds``.

    Output: (user_id, session_id [1-based per user], n_events,
    start_us, end_us), in (user, session) order. Deterministic: events
    ordered by (ts, event_id) within user.

    The plan is one ``util.sort_scan`` on (user, ts, event_id) over just
    those three columns — the sort-based shape that survives 10^8 users
    and hot keys. One vectorized pass per block (gap/cumsum over numpy
    arrays, no per-user UDF) summarizes its boundary: first/last event,
    the session counts of its first and last user and the size and
    start of its last session. The fold gives each block whether its
    first session goes on from the block before it (with that session's
    events and start so far), the session ordinal its first user starts
    from, and whether its last session goes on into the next block. Each
    session is emitted once, whole, by the block holding its last event.

    A hot user's history never needs to fit one task (its blocks chain
    through the fold), and UDF count is O(blocks), not O(users).
    """
    gap_us = int(gap_seconds * 1_000_000)

    def sessions(block: pa.Table):
        """Users, event times and session bounds (runs of one user with
        no gap over ``gap_us``) of a sorted block."""
        u = block[user_col].to_numpy(zero_copy_only=False).astype(np.int64)
        us = block[ts_col].combine_chunks().cast(pa.int64()).to_numpy(zero_copy_only=False)
        new = np.ones(len(u), bool)
        new[1:] = (u[1:] != u[:-1]) | (us[1:] - us[:-1] > gap_us)
        return u, us, np.append(np.flatnonzero(new), len(u))

    def summarize(block: pa.Table) -> dict:
        u, us, bounds = sessions(block)
        starts = bounds[:-1]
        return {
            "first": int(u[0]),
            "last": int(u[-1]),
            "first_ts": int(us[0]),
            "last_ts": int(us[-1]),
            "n_first": int((u[starts] == u[0]).sum()),
            "n_last": int((u[starts] == u[-1]).sum()),
            "tail": (int(bounds[-1] - bounds[-2]), int(us[bounds[-2]])),
        }

    def fold(summaries) -> list:
        carries, user, count, ts, open_session = [], None, 0, 0, None
        for s in summaries:
            same = s["first"] == user
            goes_on = same and s["first_ts"] - ts <= gap_us
            offset = count - goes_on if same else 0
            into = open_session if goes_on else None
            carries.append([offset, into])
            # the session open at the block's end: its events and start
            n, start = s["tail"]
            one_session = s["first"] == s["last"] and s["n_first"] == 1
            open_session = (into[0] + n, into[1]) if into and one_session else (n, start)
            user, ts = s["last"], s["last_ts"]
            count = offset + s["n_first"] if s["first"] == s["last"] else s["n_last"]
        for carry, later in zip(carries, carries[1:]):
            carry.append(later[1] is not None)
        carries[-1].append(False)
        return carries

    def emit(block: pa.Table, carry) -> pa.Table:
        offset, into, goes_on = carry or (0, None, False)
        u, us, bounds = sessions(block)
        starts, ends = bounds[:-1], bounds[1:]
        user = u[starts]
        # per-user ordinal of each session, the first user's from ``offset``
        run, pos = run_positions(user)
        session_id = pos + 1 + np.where(run == 0, offset, 0)
        n_events = (ends - starts).astype(np.int64)
        start_us, end_us = us[starts], us[ends - 1]
        if into:
            n_events[0] += into[0]
            start_us[0] = into[1]
        keep = len(starts) - goes_on  # a session that goes on is emitted later
        return pa.table(
            {
                user_col: pa.array(user[:keep], pa.int64()),
                "session_id": pa.array(session_id[:keep], pa.int64()),
                "n_events": pa.array(n_events[:keep], pa.int64()),
                "start_us": pa.array(start_us[:keep], pa.int64()),
                "end_us": pa.array(end_us[:keep], pa.int64()),
            }
        )

    slim = events.select_columns([user_col, ts_col, "event_id"])
    return rd.from_arrow_refs(sort_scan(slim, [user_col, ts_col, "event_id"], summarize, fold, emit))


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

    Ray Data has no as-of join; this is one ``util.sort_scan`` over both
    sides tagged and sorted together by (key, ts, side, order) — side 0 =
    right BEFORE side 1 = left at equal ts, so "<=" is inclusive by
    construction. Each block forward-fills the last right row over its
    left rows (``np.maximum.accumulate`` over right positions,
    key-guarded) and summarizes its last key's last right row; the fold
    hands each block the right row its first key carries in from the
    blocks before it, for left rows that precede any in-block right row.
    No shuffle beyond the one sort; a hot key's history spans blocks
    freely.
    """
    lslim = left.select_columns(list({key_col, ts_col, order_col, *left_cols}))
    rslim = right.select_columns(list({key_col, ts_col, order_col, *right_cols}))
    # pin the union schema from BOTH sides' metadata so null columns get
    # the owning side's true types (schema() is lazy plan metadata)
    l_types = {f.name: f.type for f in lslim.schema().base_schema}
    r_types = {f.name: f.type for f in rslim.schema().base_schema}
    tagged = pa.schema(
        [(key_col, pa.int64()), ("__us", pa.int64()), ("__ord", pa.int64()), ("__side", pa.int8())]
        + [(f"__l_{c}", l_types[c]) for c in left_cols]
        + [(f"__r_{c}", r_types[c]) for c in right_cols]
    )

    def tag(side: int):
        def f(batch: pa.Table) -> pa.Table:
            n = batch.num_rows
            cols = [
                batch[key_col].cast(pa.int64()),
                batch[ts_col].combine_chunks().cast(pa.int64()),
                batch[order_col].cast(pa.int64()),
                pa.array(np.full(n, side, np.int8)),
            ]
            cols += [batch[c] if side == 1 else pa.nulls(n, l_types[c]) for c in left_cols]
            cols += [batch[c] if side == 0 else pa.nulls(n, r_types[c]) for c in right_cols]
            return pa.Table.from_arrays(cols, schema=tagged)

        return f

    def keys_sides(block: pa.Table):
        return block[key_col].to_numpy(zero_copy_only=False), block["__side"].to_numpy(zero_copy_only=False)

    def summarize(block: pa.Table):
        k, side = keys_sides(block)
        rights = np.flatnonzero((side == 0) & (k == k[-1]))
        j = int(rights[-1]) if len(rights) else None
        last_right = None if j is None else {c: block[f"__r_{c}"][j].as_py() for c in right_cols}
        return int(k[0]), int(k[-1]), last_right

    def fold(summaries) -> list:
        # the right row each block's first key carries in from the blocks before it
        carries, key, row = [], None, None
        for first, last, last_right in summaries:
            carries.append(row if first == key else None)
            if last_right is not None or last != key:
                key, row = last, last_right
        return carries

    def emit(block: pa.Table, carry) -> pa.Table:
        k, side = keys_sides(block)
        pos = np.arange(len(k), dtype=np.int64)
        is_left = side == 1
        lr = np.maximum.accumulate(np.where(side == 0, pos, -1))[is_left]
        lk = k[is_left]
        # a matched fill must come from the SAME key
        valid = (lr >= 0) & (k[np.maximum(lr, 0)] == lk)
        left_t = block.filter(pa.array(is_left))
        out = {key_col: left_t[key_col], ts_col: left_t["__us"].cast(pa.timestamp("us"))}
        for c in left_cols:
            out[c] = left_t[f"__l_{c}"]
        take = pa.array(np.where(valid, lr, 0), pa.int64())
        # left rows of the block's first key with no in-block right row
        # take the carried one (exact: keys are contiguous)
        use_carry = pa.array(~valid & (lk == k[0])) if carry is not None else None
        for c in right_cols:
            col = block[f"__r_{c}"].combine_chunks()
            filled = pc.if_else(pa.array(valid), col.take(take), pa.scalar(None, col.type))
            if use_carry is not None:
                filled = pc.if_else(use_carry, pa.scalar(carry[c], col.type), filled)
            out[f"{c}{right_suffix}"] = filled
        return pa.table(out)

    tagged_rows = lslim.map_batches(tag(1), batch_format="pyarrow").union(
        rslim.map_batches(tag(0), batch_format="pyarrow")
    )
    return rd.from_arrow_refs(
        sort_scan(tagged_rows, [key_col, "__us", "__side", "__ord"], summarize, fold, emit, schema=tagged)
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
