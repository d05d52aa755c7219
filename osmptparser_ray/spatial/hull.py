"""Distributed convex hull over a points Dataset (ST_ConvexHull analogue).

The hull of a union is determined by the hulls of the parts, so the
operator is a classic two-level reduction that never materializes the
point set:

1. per-batch PARTIAL hull — a vectorized Akl–Toussaint prune (points
   strictly inside the octagon of the 8 directional extremes can never
   be hull vertices) drops ~all of a random batch, then Andrew's
   monotone chain (``spatial/pip.py``) runs on the tiny residue; only
   the partial hull's vertices travel,
2. final merge — the surviving candidates (O(hull × #blocks) rows, not
   O(n)) are chained once per group.

Adversarial inputs (every point ON a circle) defeat the prune; then the
partial chain still bounds work at O(batch log batch) per task and the
merge carries every point — same caveat as any hull algorithm.

Output: one row per hull vertex — (group?, ordinal, lon, lat) — in CCW
order starting from the lexicographically smallest (lon, lat) vertex,
COLLINEAR edge-interior points dropped (strict turns only), so the
vertex list is a canonical function of the point SET: deterministic
across block structure, parallelism, and row order.
"""

from __future__ import annotations

from typing import Optional

import numpy as np
import pyarrow as pa
import ray.data as rd

from ..util import cosort, key_runs
from .pip import convex_hull as _chain


def _prune_candidates(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Akl–Toussaint: boolean mask of points that MAY be hull vertices.

    Builds the convex octagon of the extremes in the 8 directions
    (±x, ±y, ±(x+y), ±(x−y)) and keeps only points NOT strictly inside
    it. Fully vectorized; keeps everything when n ≤ 8.
    """
    n = len(x)
    if n <= 8:
        return np.ones(n, bool)
    dirs = np.stack([x, y, x + y, x - y])
    ext = np.concatenate([np.argmax(dirs, axis=1), np.argmin(dirs, axis=1)])
    hlat, hlon = _chain(y[ext], x[ext])  # chain(lats, lons) -> (lats, lons)
    hlat, hlon = np.asarray(hlat, np.float64), np.asarray(hlon, np.float64)
    if len(hlat) < 3:
        return np.ones(n, bool)
    # CCW polygon (chain output): strictly inside ⇔ left of every edge
    ex, ey = hlon, hlat
    nx_, ny_ = np.roll(ex, -1), np.roll(ey, -1)
    # cross((v1-v0), (p-v0)) > 0 for all edges ⇒ strictly inside ⇒ prune
    cross = (nx_ - ex)[:, None] * (y[None, :] - ey[:, None]) - (
        ny_ - ey
    )[:, None] * (x[None, :] - ex[:, None])
    inside = (cross > 0).all(axis=0)
    return ~inside


def _hull_rows(
    x: np.ndarray, y: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Canonical hull of a point set → (ordinal, lon, lat) arrays."""
    hlat, hlon = _chain(y, x)
    hlat, hlon = np.asarray(hlat, np.float64), np.asarray(hlon, np.float64)
    if len(hlat) == 0:
        return np.empty(0, np.int64), hlon, hlat
    # _chain starts the CCW cycle at the sorted-first point already
    # (lower chain begins at min (lon, lat)); make that explicit so the
    # contract survives any future chain change
    start = np.lexsort((hlat, hlon))[0]
    hlon = np.roll(hlon, -start)
    hlat = np.roll(hlat, -start)
    return np.arange(len(hlat), dtype=np.int64), hlon, hlat


def _hull_table(key: Optional[str], keys, firsts: np.ndarray, hulls: list,
                ordinal: bool) -> pa.Table:
    """Per-group ``_hull_rows`` results → one table: the ``key`` column
    (omitted when None) taken from ``keys`` at each group's first row,
    the ordinal column when ``ordinal``, then lon and lat."""
    cols = {}
    if key is not None:
        rep = np.repeat(np.asarray(firsts, np.int64), [len(h[0]) for h in hulls])
        cols[key] = keys.take(pa.array(rep, pa.int64()))
    for i, (name, typ) in enumerate(
        (("ordinal", pa.int64()), ("lon", pa.float64()), ("lat", pa.float64()))
    ):
        if i or ordinal:
            parts = [h[i] for h in hulls]
            cols[name] = pa.array(np.concatenate(parts) if parts else np.empty(0), typ)
    return pa.table(cols)


def convex_hull_agg(
    points: rd.Dataset,
    lat_col: str = "lat",
    lon_col: str = "lon",
    group_col: Optional[str] = None,
) -> rd.Dataset:
    """Convex hull vertices of a points Dataset (optionally per group).

    Global hull (``group_col=None``): output (ordinal, lon, lat).
    Grouped: (group_col, ordinal, lon, lat), one hull per group value.

    The partial pass shrinks every (batch, group) to its own hull
    vertices, so the merge moves O(hull) rows per (group, block) — it
    never sees raw points. Works at any group cardinality: partials are
    computed inside ``map_batches`` with a vectorized per-batch group
    split, and the merge is one ``util.cosort`` on the group whose probe
    chains each group's run of its sorted block — not one task per group.
    An input without rows gives an empty table (its group column typed
    null: no row gave it a type).
    """
    key = group_col or "__hull_k"

    def partial(batch: pa.Table) -> pa.Table:
        y = batch[lat_col].to_numpy(zero_copy_only=False).astype(np.float64)
        x = batch[lon_col].to_numpy(zero_copy_only=False).astype(np.float64)
        gcol = batch[group_col] if group_col is not None else pa.array(np.zeros(len(x), np.int8))
        g = gcol.to_numpy(zero_copy_only=False)
        order = np.argsort(g, kind="stable")
        g, x, y = g[order], x[order], y[order]
        bounds = key_runs(g)
        hulls = []
        for s, e in zip(bounds[:-1], bounds[1:]):
            keep = _prune_candidates(x[s:e], y[s:e])
            hulls.append(_hull_rows(x[s:e][keep], y[s:e][keep]))
        return _hull_table(key, gcol, order[bounds[:-1]], hulls, ordinal=False)

    def merge(block: pa.Table) -> pa.Table:
        x = block["lon"].to_numpy(zero_copy_only=False)
        y = block["lat"].to_numpy(zero_copy_only=False)
        bounds = key_runs(block[key].to_numpy(zero_copy_only=False))
        hulls = [_hull_rows(x[s:e], y[s:e]) for s, e in zip(bounds[:-1], bounds[1:])]
        return _hull_table(group_col, block[key], bounds[:-1], hulls, ordinal=True)

    schema = pa.schema(
        [(key, pa.int8() if group_col is None else pa.null()),
         ("lon", pa.float64()), ("lat", pa.float64())]
    )
    return cosort([points.map_batches(partial, batch_format="pyarrow")], [key], merge, [schema])
