"""Exact distributed statistics over integer-valued columns.

* ``moments_by_group`` / ``corr_by_group`` — grouped second-order
  moments (n, Σx, Σy, Σx², Σy², Σxy) accumulated EXACTLY in int64 via a
  per-batch vectorized combiner, reduced by one vocab-sized groupby sum.
  Pearson correlation / covariance / variance are then ONE final float
  expression over exact integer operands, so the float64 result is
  bit-identical to a SQL oracle evaluating the SAME expression tree
  (integer→float conversion is exact below 2⁵³, sqrt is correctly
  rounded, each ·/÷ rounds once — the ``zscore_filter`` trick extended
  to second-order statistics).
* ``skyline`` — the Pareto frontier (minimize all dims): per-block
  vectorized local skyline (2-D sort+running-min fast path; general-d
  chunked dominance), then one final prune over the union of block
  survivors. Local skylines are a superset-preserving filter (any
  globally non-dominated point is locally non-dominated), so the plan is
  exact; only per-block SURVIVORS travel.

No counterpart in the reference (stats beyond count summaries are out of
its scope, mod.rs:580-654) — these are the training-data-pipeline
extensions (feature QA: corr of quality signals, Pareto-optimal
quality/cost corpus selection).
"""

from __future__ import annotations

from typing import Optional

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray.data as rd

_I64_SAFE = np.int64(2) ** 53  # exact int→float64 conversion bound


def _int_col(block: pa.Table, col: str) -> np.ndarray:
    """Integer-valued column → int64 numpy, loud on non-integral floats
    (exactness is the whole contract — a silent truncation would still
    hash-match nothing)."""
    v = block[col].to_numpy(zero_copy_only=False)
    if np.issubdtype(v.dtype, np.floating):
        iv = v.astype(np.int64)
        if not np.array_equal(iv.astype(v.dtype), v):
            raise ValueError(
                f"moments_by_group: column {col!r} has non-integral values "
                "— exact integer moments require integer-valued input; "
                "scale to fixed-point upstream"
            )
        return iv
    return v.astype(np.int64)


def moments_by_group(
    ds: rd.Dataset,
    group_col: str,
    x_col: str,
    y_col: str,
) -> rd.Dataset:
    """(group, n, sx, sy, sxx, syy, sxy) with EXACT int64 sums.

    Per-batch combiner: dictionary-encode the group column, accumulate
    the six moments with ``np.add.at`` (int64 — ``np.bincount`` is
    unusable here: its ``weights`` path coerces to float64 and silently
    loses exactness past 2⁵³). One (group → 6 int sums) row per group
    per batch travels into a vocab-sized groupby sum — the map-side
    pre-aggregation shape, no raw-row shuffle.

    Overflow contract: per-group Σx² and n·Σx² must fit int64; with
    |x|,|y| ≤ 2²⁰ that holds to ~10⁹ rows per group. Loud error beyond.
    """

    def partial(block: pa.Table) -> pa.Table:
        if block.num_rows == 0:
            return pa.table(
                {
                    group_col: pa.array([], block.schema.field(group_col).type),
                    "n": pa.array([], pa.int64()),
                    "sx": pa.array([], pa.int64()),
                    "sy": pa.array([], pa.int64()),
                    "sxx": pa.array([], pa.int64()),
                    "syy": pa.array([], pa.int64()),
                    "sxy": pa.array([], pa.int64()),
                }
            )
        d = pc.dictionary_encode(block[group_col].combine_chunks())
        if isinstance(d, pa.ChunkedArray):
            d = d.combine_chunks()
        codes = d.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        uniq = d.dictionary
        k = len(uniq)
        x = _int_col(block, x_col)
        y = _int_col(block, y_col)
        if max(np.abs(x).max(initial=0), np.abs(y).max(initial=0)) >= 1 << 31:
            raise ValueError(
                "moments_by_group: |value| ≥ 2³¹ — x², y², x·y would risk "
                "int64 overflow inside a single batch; rescale upstream"
            )
        out = np.zeros((k, 6), np.int64)
        np.add.at(out[:, 0], codes, 1)
        np.add.at(out[:, 1], codes, x)
        np.add.at(out[:, 2], codes, y)
        np.add.at(out[:, 3], codes, x * x)
        np.add.at(out[:, 4], codes, y * y)
        np.add.at(out[:, 5], codes, x * y)
        return pa.table(
            {
                group_col: uniq,
                "n": pa.array(out[:, 0], pa.int64()),
                "sx": pa.array(out[:, 1], pa.int64()),
                "sy": pa.array(out[:, 2], pa.int64()),
                "sxx": pa.array(out[:, 3], pa.int64()),
                "syy": pa.array(out[:, 4], pa.int64()),
                "sxy": pa.array(out[:, 5], pa.int64()),
            }
        )

    from ray.data.aggregate import Sum

    from ..util import group_agg

    partials = ds.map_batches(partial, batch_format="pyarrow")
    return group_agg(partials, group_col, *[Sum(c, alias_name=c) for c in ("n", "sx", "sy", "sxx", "syy", "sxy")])


def corr_by_group(
    ds: rd.Dataset,
    group_col: str,
    x_col: str,
    y_col: str,
) -> rd.Dataset:
    """Per-group Pearson correlation + population (co)variance, float64
    BIT-IDENTICAL to a SQL oracle computing the same expressions over the
    same exact integer moments:

        corr  = (n·sxy − sx·sy) / (sqrt(n·sxx − sx²) · sqrt(n·syy − sy²))
        cov_p = (n·sxy − sx·sy) / (n·n)
        var_x = (n·sxx − sx²)   / (n·n)

    Every operand inside the float expression is an EXACT int64 (one
    conversion, exact < 2⁵³), so both engines perform the identical
    sequence of correctly-rounded IEEE operations. Zero-variance groups
    emit corr = NULL (SQL's NULL-on-zero-denominator division contract).

    Output: (group, n:int64, corr:float64, cov_pop:float64,
    var_x:float64, var_y:float64).
    """
    moments = moments_by_group(ds, group_col, x_col, y_col)

    def finish(block: pa.Table) -> pa.Table:
        n = block["n"].to_numpy(zero_copy_only=False).astype(np.int64)
        sx = block["sx"].to_numpy(zero_copy_only=False).astype(np.int64)
        sy = block["sy"].to_numpy(zero_copy_only=False).astype(np.int64)
        sxx = block["sxx"].to_numpy(zero_copy_only=False).astype(np.int64)
        syy = block["syy"].to_numpy(zero_copy_only=False).astype(np.int64)
        sxy = block["sxy"].to_numpy(zero_copy_only=False).astype(np.int64)
        num = n * sxy - sx * sy
        dx = n * sxx - sx * sx
        dy = n * syy - sy * sy
        if max(
            (np.abs(a).max(initial=0) for a in (num, dx, dy)), default=0
        ) >= _I64_SAFE:
            raise ValueError(
                "corr_by_group: a moment product exceeds 2⁵³ — the final "
                "int→float conversion would round and break oracle "
                "bit-parity; rescale inputs upstream"
            )
        nn = (n * n).astype(np.float64)
        with np.errstate(invalid="ignore", divide="ignore"):
            denom = np.sqrt(dx.astype(np.float64)) * np.sqrt(dy.astype(np.float64))
            corr = np.where(denom != 0.0, num.astype(np.float64) / denom, np.nan)
        cov = num.astype(np.float64) / nn
        var_x = dx.astype(np.float64) / nn
        var_y = dy.astype(np.float64) / nn
        return pa.table(
            {
                group_col: block[group_col],
                "n": pa.array(n, pa.int64()),
                "corr": pa.array(corr, pa.float64(), from_pandas=True),
                "cov_pop": pa.array(cov, pa.float64()),
                "var_x": pa.array(var_x, pa.float64()),
                "var_y": pa.array(var_y, pa.float64()),
            }
        )

    # zero-variance groups: from_pandas=True maps the NaN marker to NULL,
    # matching SQL's NULL-on-zero-denominator division contract
    return moments.map_batches(finish, batch_format="pyarrow")


# --------------------------------------------------------------------------
# skyline (Pareto frontier)
# --------------------------------------------------------------------------


def _local_skyline(pts: np.ndarray) -> np.ndarray:
    """Distinct non-dominated rows of (n, d) float64, minimize all dims.

    2-D fast path: lexsort by (x, y); a point is dominated iff some
    strictly-preceding point has y ≤ its y (proof: preceding means
    x' < x, or x' = x with y' < y; either way y' ≤ y ⇒ dominance with at
    least one strict coordinate on DISTINCT points). General d: chunked
    matrix dominance against the running survivor set.
    """
    pts = np.unique(pts, axis=0)  # sorts lexicographically
    n, d = pts.shape
    if n <= 1:
        return pts
    if d == 2:
        y = pts[:, 1]
        prior_min = np.minimum.accumulate(y)
        keep = np.ones(n, bool)
        keep[1:] = y[1:] < prior_min[:-1]
        return pts[keep]
    # general d: rows are lexsorted, so dominators of row i appear before
    # i — one pass over chunks keeps the survivor set matrix-small
    survivors = pts[:1]
    for s in range(1, n, 4096):
        chunk = pts[s : s + 4096]
        # dominated by any current survivor (all ≤ and any <)
        le = (survivors[None, :, :] <= chunk[:, None, :]).all(axis=2)
        lt = (survivors[None, :, :] < chunk[:, None, :]).any(axis=2)
        dominated = (le & lt).any(axis=1)
        # within-chunk dominance: rows are lexsorted, so only EARLIER
        # rows can dominate later ones (per-row loop over the already
        # survivor-pruned chunk — the d>2 fallback path only)
        sub = chunk[~dominated]
        m = len(sub)
        mask = np.ones(m, bool)
        for i in range(m):
            if not mask[i]:
                continue
            le_i = (sub[i] <= sub[i + 1 :]).all(axis=1)
            lt_i = (sub[i] < sub[i + 1 :]).any(axis=1)
            mask[i + 1 :] &= ~(le_i & lt_i)
        survivors = np.concatenate([survivors, sub[mask]])
    return survivors


def skyline(
    ds: rd.Dataset,
    cols: "list[str]",
    *,
    survivor_cap: int = 2_000_000,
) -> rd.Dataset:
    """Distinct Pareto-frontier points (minimize every column).

    Plan: per-block local skyline (a correctness-preserving prune — a
    globally non-dominated point is non-dominated in its own block, so
    no global survivor is ever dropped), then ONE final prune over the
    union of local survivors. Only survivors travel; the final set is
    collected (skylines are typically tiny — O(log^{d−1} n) expected on
    independent dims). ``survivor_cap`` bounds the collect LOUDLY: a
    pathological anti-correlated input where most points are
    Pareto-optimal needs a different operator, not a silent OOM.

    Output: the ``cols`` columns, distinct, one row per frontier point.
    """
    if len(cols) < 2:
        raise ValueError("skyline needs at least 2 columns")

    def prune(block: pa.Table) -> pa.Table:
        if block.num_rows == 0:
            return pa.table(
                {c: pa.array([], pa.float64()) for c in cols}
            )
        pts = np.column_stack(
            [
                block[c].to_numpy(zero_copy_only=False).astype(np.float64)
                for c in cols
            ]
        )
        sky = _local_skyline(pts)
        return pa.table({c: pa.array(sky[:, i], pa.float64()) for i, c in enumerate(cols)})

    partials = ds.select_columns(cols).map_batches(prune, batch_format="pyarrow")
    tbl = pa.concat_tables(
        [_b for _b in _iter_tables(partials)], promote_options="default"
    )
    if tbl.num_rows > survivor_cap:
        raise ValueError(
            f"skyline: {tbl.num_rows} local survivors exceed survivor_cap="
            f"{survivor_cap} — the frontier itself is data-sized; this "
            "operator's collect contract does not hold for this input"
        )
    pts = np.column_stack(
        [tbl[c].to_numpy(zero_copy_only=False).astype(np.float64) for c in cols]
    )
    sky = _local_skyline(pts) if len(pts) else pts.reshape(0, len(cols))
    return rd.from_arrow(
        pa.table({c: pa.array(sky[:, i], pa.float64()) for i, c in enumerate(cols)})
    )


def _iter_tables(ds: rd.Dataset):
    for batch in ds.iter_batches(batch_format="pyarrow", batch_size=None):
        yield batch
