"""Flagship pipeline: pages → PT routes → stop/route spatial joins.

This is the north-star workload (BASELINE.json metric: "spatial-join output
rows/sec (stop→route PIP + kNN)"): parse OSM payloads out of CC-style
pages, flatten PTv2 routes, then

1. explode every route's stops into a stop-point table,
2. build convex route hulls from flattened geometries,
3. PIP-join stops into route hulls (cell cover + exact ray-cast refine),
4. kNN-join each stop to its k nearest stops within a radius,
5. assign stops to tiles (cell ids at a display level).

Output datasets stream to partitioned Parquet; the bench counts output
join rows per second.
"""

from __future__ import annotations

from typing import Optional

import numpy as np
import pyarrow as pa
import ray
import ray.data as rd

from ..kernel.filters import PTV2
from ..spatial.join import (
    add_cells,
    assign_cells,
    build_ring_index,
    build_target_index,
    knn_join,
    knn_probe,
    pip_join,
    pip_probe,
    point_arrays,
    ring_arrays,
)
from ..spatial.pip import convex_hull
from ..util import block_tasks, concat_columns
from .ptv2 import public_transports_from_pages

_STOP_DTYPES = (np.int64, np.float64, np.float64)


def _explode_block(batch: pa.Table) -> pa.Table:
    # Arrow-offset flatten, zero per-stop Python (to_pylist of the
    # nested stops column was the dominant cost of this stage)
    ids = batch["id"].to_numpy(zero_copy_only=False).astype(np.int64)
    stops = batch["stops"].combine_chunks()
    counts = np.diff(np.asarray(stops.offsets))
    st = stops.flatten()
    return pa.table(
        {
            "stop_id": st.field("id"),
            "route_id": pa.array(np.repeat(ids, counts), pa.int64()),
            "lat": st.field("lat"),
            "lon": st.field("lon"),
        }
    )


def explode_stops(pt: rd.Dataset) -> rd.Dataset:
    """PT rows → one row per (stop_id, route_id, lat, lon).

    A stop node may serve several routes → duplicates by design; dedup by
    stop for point-tables via ``unique_stops``.
    """
    return pt.map_batches(_explode_block, batch_format="pyarrow")


def _distinct_stops(ids: np.ndarray, lats: np.ndarray, lons: np.ndarray) -> tuple:
    """Any-wins dedup by stop id → (ids, lats, lons) sorted by id. All
    duplicates of a stop id carry identical coords, so this is exact."""
    uniq, first = np.unique(ids, return_index=True)
    return uniq, lats[first], lons[first]


def _block_distinct_stops(batch: pa.Table) -> tuple:
    return _distinct_stops(*point_arrays(batch, "stop_id", "lat", "lon"))


def _stop_table(ids: np.ndarray, lats: np.ndarray, lons: np.ndarray) -> pa.Table:
    return pa.table(
        {
            "stop_id": pa.array(ids, pa.int64()),
            "lat": pa.array(lats, pa.float64()),
            "lon": pa.array(lons, pa.float64()),
        }
    )


def _stops_dataset(stops: pa.Table) -> rd.Dataset:
    """The distinct stops as a materialized dataset of MANY blocks — a
    single block would serialize every downstream map stage onto one
    worker."""
    cpus = int(ray.cluster_resources().get("CPU", 4))
    step = max(1, -(-stops.num_rows // max(1, min(2 * cpus, stops.num_rows))))
    return rd.from_arrow(
        [stops.slice(i, step) for i in range(0, stops.num_rows, step)] or [stops]
    )


def unique_stops(stops: rd.Dataset) -> rd.Dataset:
    """Distinct stop points. All duplicates of a stop id carry identical
    coords, so any-wins dedup is exact.

    Per-block dedup runs in block tasks (``util.block_tasks``), the
    driver merges the already-small parts and re-distributes one Arrow
    table — no shuffle and no streaming execution. Right whenever unique stops fit
    driver memory — the same contract the broadcast join plans already
    assume.
    """
    parts = ray.get(block_tasks(stops, _block_distinct_stops))
    return _stops_dataset(_stop_table(*_distinct_stops(*concat_columns(parts, _STOP_DTYPES))))


def _route_hulls_block(batch: pa.Table) -> pa.Table:
    # Arrow-offset flattening instead of to_pylist: nested
    # list<list<struct>> → flat lat/lon numpy + per-route boundaries
    # (converting every geometry point to a python dict was the
    # dominant cost of this stage). The per-route convex_hull call
    # stays a loop, but over numpy slices only.
    ids = batch["id"].to_numpy(zero_copy_only=False).astype(np.int64)
    geom = batch["geometry"].combine_chunks()
    # offsets are normalized to zero-base so they index the FLATTENED
    # child arrays even when the parent is a sliced view
    outer_off = np.asarray(geom.offsets)  # route → segment range
    outer_off = outer_off - outer_off[0]
    segs = geom.flatten()
    inner_off = np.asarray(segs.offsets)  # segment → point range
    inner_off = inner_off - inner_off[0]
    pts = segs.flatten()
    g_lats = pts.field("lat").to_numpy(zero_copy_only=False)
    g_lons = pts.field("lon").to_numpy(zero_copy_only=False)
    route_pt_bounds = inner_off[outer_off]  # flat point idx at route starts

    stops_arr = batch["stops"].combine_chunks()
    stop_off = np.asarray(stops_arr.offsets)
    stop_off = stop_off - stop_off[0]
    stop_struct = stops_arr.flatten()
    s_lats = stop_struct.field("lat").to_numpy(zero_copy_only=False)
    s_lons = stop_struct.field("lon").to_numpy(zero_copy_only=False)

    out_ids, out_la, out_lo = [], [], []
    for i in range(len(ids)):
        ga, gb = route_pt_bounds[i], route_pt_bounds[i + 1]
        sa, sb = stop_off[i], stop_off[i + 1]
        lats = np.concatenate([g_lats[ga:gb], s_lats[sa:sb]])
        if len(lats) < 3:
            continue
        lons = np.concatenate([g_lons[ga:gb], s_lons[sa:sb]])
        hy, hx = convex_hull(lats, lons)
        if len(hy) < 3:
            continue
        out_ids.append(int(ids[i]))
        out_la.append(hy)
        out_lo.append(hx)
    return pa.table(
        {
            "poly_id": pa.array(out_ids, pa.int64()),
            "ring_lats": pa.array([a.tolist() for a in out_la], pa.list_(pa.float64())),
            "ring_lons": pa.array([a.tolist() for a in out_lo], pa.list_(pa.float64())),
        }
    )


def route_hulls(pt: rd.Dataset) -> rd.Dataset:
    """PT rows → route service-area hulls (poly_id, ring_lats, ring_lons).

    The hull is the convex hull of the route's flattened geometry points
    UNION its stop points — so Broken routes (empty geometry, reference
    status 501) still get a hull from their stops, and every route with ≥3
    distinct points participates in the PIP join.
    """
    return pt.map_batches(_route_hulls_block, batch_format="pyarrow")


def assign_tiles(stops: rd.Dataset, level: int) -> rd.Dataset:
    return assign_cells(stops, level)


def _stops_and_hulls(pt_block: pa.Table) -> tuple:
    """One PT block → (its distinct stops as id-sorted arrays, its route hulls)."""
    return _block_distinct_stops(_explode_block(pt_block)), _route_hulls_block(pt_block)


def _probe_stops(stops: pa.Table, pip_index, knn_index, knn_k: int, knn_radius_m: float,
                 tile_level: int) -> tuple:
    """One stop block → its (pip, knn, tiles) tables: the three broadcast
    probes of the flagship in one task."""
    ids, lats, lons = point_arrays(stops, "stop_id", "lat", "lon")
    return (
        pip_probe(ids, lats, lons, pip_index),
        knn_probe(ids, lats, lons, knn_index, knn_k, knn_radius_m),
        add_cells(stops, tile_level),
    )


def stop_route_spatial_join(
    pages_path: str,
    *,
    gap: float = 1500.0,
    filters: str = PTV2,
    pip_level: int = 12,
    pip_salt: int = 1,
    knn_k: int = 5,
    knn_radius_m: float = 2000.0,
    tile_level: int = 14,
    small_side: str = "broadcast",
    validate: bool = True,
    concurrency: Optional[int | tuple[int, int]] = None,
) -> dict[str, rd.Dataset]:
    """The flagship: returns the component datasets.

    Keys: public_transports, stops (unique), pip (stop×route-hull pairs),
    knn (stop k-nearest-stop rows), tiles (stop→cell assignment). The PT
    rows are materialized, then joined by ``stop_route_joins``.

    With ``small_side="broadcast"`` (default) every output is
    materialized and the whole call starts 1 streaming execution, the
    page read; extraction, the element tables, assembly, the index builds
    and the probes run as plain Ray tasks. ``small_side="shuffle"`` adds
    one execution per spatial join (pip, knn), its two row maps: 3 in all.
    """
    pt = public_transports_from_pages(
        pages_path, gap=gap, filters=filters, validate=validate, concurrency=concurrency
    ).materialize()  # consumed by 3 downstream branches; small (one row per route)
    return {
        "public_transports": pt,
        **stop_route_joins(
            pt, pip_level=pip_level, pip_salt=pip_salt, knn_k=knn_k,
            knn_radius_m=knn_radius_m, tile_level=tile_level, small_side=small_side,
        ),
    }


def stop_route_joins(
    pt: rd.Dataset,
    *,
    pip_level: int = 12,
    pip_salt: int = 1,
    knn_k: int = 5,
    knn_radius_m: float = 2000.0,
    tile_level: int = 14,
    small_side: str = "broadcast",
) -> dict[str, rd.Dataset]:
    """The flagship's spatial tail over PT rows → stops, pip, knn, tiles.

    One block task per PT block yields that block's distinct stops and
    route hulls; the driver merges the stops (``stops`` is materialized).

    ``small_side="broadcast"`` (default): hulls / target stops are the
    small sides of both spatial joins. The driver builds the ring and
    target indexes once, and one block task per stop block runs the pip,
    knn and tiles probes together; all outputs are materialized and,
    over a materialized ``pt``, no streaming execution starts.
    ``small_side="shuffle"``: the cosort plans of ``pip_join`` and
    ``knn_join`` that scale to big-big joins (both sides range-partitioned
    together on the cell, then one probe task per key range); tiles come from one
    block task per stop block. Outputs are materialized and keep their
    schemas when empty in both plans. Results identical (tested).
    """
    parts = block_tasks(pt, _stops_and_hulls, num_returns=2)
    stop_ids, lats, lons = _distinct_stops(
        *concat_columns(ray.get([p[0] for p in parts]), _STOP_DTYPES)
    )
    stop_table = _stop_table(stop_ids, lats, lons)
    stops = _stops_dataset(stop_table)
    hull_refs = [p[1] for p in parts]
    if small_side == "broadcast":
        pip_index = build_ring_index([ring_arrays(t) for t in ray.get(hull_refs)])
        knn_index = build_target_index(stop_ids, lats, lons, knn_radius_m)
        args = (knn_k, knn_radius_m, tile_level)
        outs = block_tasks(stops, _probe_stops, ray.put(pip_index), ray.put(knn_index), *args,
                           num_returns=3)
        if not outs:  # no stops: schema-ful empty outputs
            outs = [[ray.put(t) for t in _probe_stops(stop_table, pip_index, knn_index, *args)]]
        pip_pairs, knn_pairs, tiles = (
            rd.from_arrow_refs([o[i] for o in outs]).materialize() for i in range(3)
        )
    else:
        pip_pairs = pip_join(
            stops, rd.from_arrow_refs(hull_refs), level=pip_level, salt=pip_salt,
            point_id="stop_id",
        )
        knn_pairs = knn_join(
            stops, stops, k=knn_k, radius_m=knn_radius_m, query_id="stop_id",
            target_id="stop_id",
        )
        tiles = rd.from_arrow_refs(
            block_tasks(stops, add_cells, tile_level) or [ray.put(add_cells(stop_table, tile_level))]
        )
    return {"stops": stops, "pip": pip_pairs, "knn": knn_pairs, "tiles": tiles}
