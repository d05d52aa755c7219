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
from ..stages.assemble import PT_SCHEMA, public_transport_blocks
from ..util import block_tasks, concat_columns, dataset_of, datasets_of, submit
from .ptv2 import parser_tables_from_pages

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


def _slice_count() -> int:
    """Slices of the distinct stops: 2 per Ray CPU, so that one stop
    block does not serialize the probes onto one worker."""
    return 2 * int(ray.cluster_resources().get("CPU", 4))


def _stop_slices(k: int, *parts) -> tuple:
    """Per-block distinct stops → the distinct stops table (sorted by id)
    cut into ``k`` slices of ceil(rows / k) rows (one row each when
    there are fewer rows than slices; the slices after the last row
    are empty): ``k`` returns of one task."""
    stops = _stop_table(*_distinct_stops(*concat_columns(parts, _STOP_DTYPES)))
    step = max(1, -(-stops.num_rows // k))
    return tuple(stops.slice(i * step, step) for i in range(k))


def unique_stops(stops: rd.Dataset) -> rd.Dataset:
    """Distinct stop points. All duplicates of a stop id carry identical
    coords, so any-wins dedup is exact.

    Per-block dedup runs in block tasks (``util.block_tasks``), one task
    merges the already-small parts and cuts them into ``_stop_slices``
    — no shuffle and no streaming execution. Right whenever unique stops
    fit one task's memory — the same contract the broadcast join plans
    already assume.
    """
    k = _slice_count()
    return dataset_of(submit(_stop_slices, k, *block_tasks(stops, _block_distinct_stops),
                             num_returns=k))


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


def _ring_index(*hulls):
    return build_ring_index([ring_arrays(t) for t in hulls])


def _target_index(radius_m: float, *parts):
    return build_target_index(
        *_distinct_stops(*concat_columns(parts, _STOP_DTYPES)), radius_m
    )


def stop_route_spatial_join(
    pages_path: str,
    *,
    gap: float = 1500.0,
    filters: str = PTV2,
    pip_level: int = 12,
    knn_k: int = 5,
    knn_radius_m: float = 2000.0,
    tile_level: int = 14,
    small_side: str = "broadcast",
    validate: bool = True,
) -> dict[str, rd.Dataset]:
    """The flagship: returns the component datasets.

    Keys: public_transports, stops (unique), pip (stop×route-hull pairs),
    knn (stop k-nearest-stop rows), tiles (stop→cell assignment), each a
    materialized dataset.

    With ``small_side="broadcast"`` (default) the whole call is one task
    graph chained by object ref: the page read (the one streaming
    execution) feeds the element tables' tasks
    (``parser_tables_from_pages``), those the assembly's
    (``public_transport_blocks``) and those the spatial tail's
    (``stop_route_joins``). Every step takes its inputs as top-level
    task arguments, so the driver submits the graph without waiting and
    then waits only for the metadata of the five outputs.
    ``small_side="shuffle"`` runs the pip and knn cosorts over the
    stops and hulls, which wait for their inputs; their row maps are
    block tasks too, so it also starts one execution, the read.
    """
    tables = parser_tables_from_pages(pages_path, filters, validate=validate)
    pt = public_transport_blocks(tables, gap)
    tail = _tail(pt, pip_level=pip_level, knn_k=knn_k,
                 knn_radius_m=knn_radius_m, tile_level=tile_level, small_side=small_side)
    return datasets_of({"public_transports": (pt, PT_SCHEMA.empty_table()), **tail})


def stop_route_joins(
    pt: rd.Dataset | list,
    *,
    pip_level: int = 12,
    knn_k: int = 5,
    knn_radius_m: float = 2000.0,
    tile_level: int = 14,
    small_side: str = "broadcast",
) -> dict[str, rd.Dataset]:
    """The flagship's spatial tail over PT rows (a Dataset, or the refs of
    its blocks) → stops, pip, knn, tiles.

    One block task per PT block yields that block's distinct stops and
    route hulls; one task merges the stops and cuts them into
    ``_stop_slices`` (``stops``, materialized).

    ``small_side="broadcast"`` (default): hulls / target stops are the
    small sides of both spatial joins. One task builds the ring index,
    one the target index, and one block task per stop slice runs the
    pip, knn and tiles probes together; each task takes its inputs as
    top-level arguments, so nothing waits before the outputs are
    wrapped, and over a materialized ``pt`` no streaming execution
    starts. ``small_side="shuffle"``: the cosort plans of ``pip_join``
    and ``knn_join`` that scale to big-big joins (both sides
    range-partitioned together on the cell, then one probe task per key
    range, a hot cell spread over several); tiles come from one block
    task per stop slice. Over a materialized ``pt`` neither plan starts
    a streaming execution. Outputs are materialized and keep their
    schemas when empty in both plans.
    Results identical (tested).
    """
    return datasets_of(_tail(pt, pip_level=pip_level, knn_k=knn_k,
                             knn_radius_m=knn_radius_m, tile_level=tile_level,
                             small_side=small_side))


def _tail(pt, *, pip_level: int, knn_k: int, knn_radius_m: float,
          tile_level: int, small_side: str) -> dict:
    """``stop_route_joins`` up to its outputs' wrap: each output as its
    (block refs, empty table), or as the shuffle plan's dataset."""
    parts = block_tasks(pt, _stops_and_hulls, num_returns=2)
    stop_parts, hulls = [p[0] for p in parts], [p[1] for p in parts]
    k = _slice_count()
    slices = submit(_stop_slices, k, *stop_parts, num_returns=k)
    if small_side == "broadcast":
        outs = block_tasks(
            slices, _probe_stops, submit(_ring_index, *hulls),
            submit(_target_index, knn_radius_m, *stop_parts), knn_k, knn_radius_m, tile_level,
            num_returns=3,
        )
        return {"stops": (slices,), **{name: ([o[i] for o in outs],)
                                       for i, name in enumerate(("pip", "knn", "tiles"))}}
    stops = dataset_of(slices)
    pip_pairs = pip_join(
        stops, dataset_of(hulls, _route_hulls_block(PT_SCHEMA.empty_table())), level=pip_level,
        point_id="stop_id",
    )
    knn_pairs = knn_join(
        stops, stops, k=knn_k, radius_m=knn_radius_m, query_id="stop_id", target_id="stop_id",
    )
    tiles = dataset_of(block_tasks(slices, add_cells, tile_level))
    return {"stops": stops, "pip": pip_pairs, "knn": knn_pairs, "tiles": tiles}
