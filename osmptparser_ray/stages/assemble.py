"""Relation resolution + flatten: the reference's J3/J4 joins and
``get_public_transports`` / ``get_areas`` drivers (mod.rs:511-654,
664-722), Ray-Data-first.

Two physical strategies, identical results (tested against each other):

* ``mode="broadcast"`` (default): the member-way and node lookup tables are
  built in tasks (the way index, the node index shards) and read by
  every assembly task as top-level arguments (they are the SMALL side —
  ids/coords only, pruned by the semi-joins). Per-relation resolution is
  then a local array lookup inside one block task per relation block
  (``util.block_tasks``) — no shuffle, no streaming execution and no
  driver wait at all. This mirrors the reference's shared read-only cache and
  is the right plan while ways+nodes-of-interest fit a worker's heap
  (country-scale OSM ≈ a few GB).

* ``mode="shuffle"``: fully distributed — three ``util.cosort`` passes
  over scalar rows made by block tasks, each a range partition plus one
  probe task per key range:
  member rows ⋈ way-ref rows on way_id, those ⋈ node coordinates on
  node_id, then those regrouped with the relation rows (tags, info and
  stop ids as native Arrow columns) on relation_id, where the block is
  flattened by the same ``_flatten_rows`` the broadcast tasks use. No
  hash join, actor or driver-side collect; only the stop lookup (the
  sharded node index pruned to stop ids) is shared. Inner joins realize the
  reference's silent missing-way/node filtering (mod.rs:672/680/693).

Missing ways/nodes are silently dropped in both modes; member order and
per-way node order are preserved (explicit member_pos/node_pos columns in
the shuffle path).
"""

from __future__ import annotations

from functools import partial
from typing import Literal, NamedTuple, Optional

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data as rd

from ..kernel.geometry import NodeSeq, flatten_relation, flatten_single_way
from ..util import block_tasks, concat_columns, cosort, dataset_of, key_pairs, key_runs, submit
from .elements import ParserTables, _shard_count, stop_id_set

TAGS_T = pa.map_(pa.string(), pa.string())
STOP_T = pa.struct(
    [
        pa.field("id", pa.int64()),
        pa.field("lat", pa.float64()),
        pa.field("lon", pa.float64()),
        pa.field("tags", TAGS_T),
    ]
)
POINT_T = pa.struct([pa.field("lon", pa.float64()), pa.field("lat", pa.float64())])
GEOM_T = pa.list_(pa.list_(POINT_T))

PT_SCHEMA = pa.schema(
    [
        pa.field("id", pa.int64()),
        pa.field("tags", TAGS_T),
        pa.field("info", TAGS_T),
        pa.field("stops", pa.list_(STOP_T)),
        pa.field("geometry", GEOM_T),
        pa.field("status_code", pa.int64()),
        pa.field("status_detail", pa.string()),
    ]
)

AREA_SCHEMA = pa.schema(
    [
        pa.field("id", pa.int64()),
        pa.field("id_type", pa.string()),  # 'r' | 'w'
        pa.field("tags", TAGS_T),
        pa.field("info", TAGS_T),
        pa.field("geometry", GEOM_T),
        pa.field("status_code", pa.int64()),
        pa.field("status_detail", pa.string()),
    ]
)


def _geometry_value(segments) -> list:
    return [
        [{"lon": float(lon), "lat": float(lat)} for lon, lat in zip(seg.lons, seg.lats)]
        for seg in segments
    ]


class WayIndex(NamedTuple):
    """Columnar member-way lookup: sorted-id permutation over CSR refs.

    ``ids`` is sorted for binary search; ``rows[i]`` maps back to the
    UNSORTED CSR row, so the flat refs array is never reshuffled (reordering
    it costs a python loop or a giant gather — the permutation costs one
    argsort). Shared through the object store as plain numpy arrays —
    zero-copy reads in every assembly task.
    """

    ids: np.ndarray  # int64, sorted (deduped last-wins)
    rows: np.ndarray  # int64: position in the original CSR ordering
    ref_offsets: np.ndarray  # int64, len == n_original+1 (UNSORTED order)
    refs: np.ndarray  # int64 flat (UNSORTED order)

    def lookup(self, way_id: int):
        i = int(np.searchsorted(self.ids, way_id))
        if i >= len(self.ids) or self.ids[i] != way_id:
            return None
        r = self.rows[i]
        return self.refs[self.ref_offsets[r] : self.ref_offsets[r + 1]]


class NodeIndex(NamedTuple):
    """Columnar node-coord lookup (sorted ids) + stop-only tag columns.

    Stop tags are an Arrow map array aligned with a sorted id array — NOT a
    python dict: a dict of ~10^6 entries costs seconds to unpickle in EVERY
    worker process, while Arrow/numpy payloads are (near-)zero-copy plasma
    reads. Tags cover ONLY ids that appear as relation stop members."""

    ids: np.ndarray  # int64, sorted
    lats: np.ndarray
    lons: np.ndarray
    stop_ids: np.ndarray  # int64, sorted (subset of ids)
    stop_tags: "pa.Array"  # map<string,string>, aligned with stop_ids

    def gather(self, ref_ids: np.ndarray):
        """refs → (found_ids, lats, lons), silently dropping missing nodes
        (reference mod.rs:680)."""
        refs = np.asarray(ref_ids, dtype=np.int64)
        ok, lats, lons = self.gather_mask(refs)
        return refs[ok], lats[ok], lons[ok]

    def gather_mask(self, refs: np.ndarray):
        """refs → (ok mask, lats, lons) with lats/lons valid where ok —
        the bulk form: ONE call per batch instead of one per way."""
        n = len(refs)
        if not len(self.ids):
            return np.zeros(n, dtype=bool), np.empty(n), np.empty(n)
        idx = np.minimum(np.searchsorted(self.ids, refs), len(self.ids) - 1)
        ok = self.ids[idx] == refs
        lats = np.empty(n, np.float64)
        lons = np.empty(n, np.float64)
        lats[ok] = self.lats[idx[ok]]
        lons[ok] = self.lons[idx[ok]]
        return ok, lats, lons

    def stops_bulk(self, stop_ids_flat: np.ndarray):
        """Bulk stop resolution for MANY stop ids at once. → (found_mask,
        lats, lons, tags) with ``tags`` a map array aligned with the found
        stops (one Arrow take; a stop without tags gets an empty map);
        missing stops yield found_mask False (mod.rs:693)."""
        refs = np.asarray(stop_ids_flat, dtype=np.int64)
        n = len(refs)
        if len(self.ids) == 0 or n == 0:
            return np.zeros(n, bool), np.empty(0), np.empty(0), pa.array([], TAGS_T)
        idx = np.searchsorted(self.ids, refs)
        idx_c = np.minimum(idx, len(self.ids) - 1)
        ok = self.ids[idx_c] == refs
        sel = idx_c[ok]
        lats, lons = self.lats[sel], self.lons[sel]
        # tags: align through the sorted stop-id subset; a miss takes the
        # empty map appended after the last stop
        found = refs[ok]
        ns = len(self.stop_ids)
        tpos = np.minimum(np.searchsorted(self.stop_ids, found), max(ns - 1, 0))
        thit = self.stop_ids[tpos] == found if ns else np.zeros(len(found), bool)
        tags = pa.concat_arrays([self.stop_tags, pa.array([[]], self.stop_tags.type)])
        return ok, lats, lons, tags.take(pa.array(np.where(thit, tpos, ns), pa.int64()))


def _member_way_arrays(b: pa.Table) -> tuple:
    """One ways block → (ids, ref-list lengths, flat refs) of its member ways."""
    b = b.filter(b["is_member"])
    refs = b["node_refs"].combine_chunks()
    return (
        b["id"].to_numpy(zero_copy_only=False).astype(np.int64),
        pc.list_value_length(refs).to_numpy(zero_copy_only=False).astype(np.int64),
        refs.flatten().to_numpy(zero_copy_only=False).astype(np.int64),
    )


def way_index(ways) -> "ray.ObjectRef":
    """The ref of the member ways' WayIndex, submitted without waiting:
    one ``_member_way_arrays`` task per block of ``ways`` (block refs or
    a Dataset, ``util.block_tasks``) and one ``_way_index`` task over
    their outputs."""
    return submit(_way_index, *block_tasks(ways, _member_way_arrays))


def _way_index(*parts) -> WayIndex:
    """Per-block member-way arrays → WayIndex: concatenation and the one
    final argsort, in one task."""
    ids, lens, refs = concat_columns(parts, (np.int64, np.int64, np.int64))
    offs = np.zeros(len(ids) + 1, dtype=np.int64)
    np.cumsum(lens, out=offs[1:])
    # sorted-id permutation; duplicate ids keep the LAST occurrence,
    # matching the reference's HashMap last-wins merge (mod.rs:422).
    # No ref movement — fully vectorized.
    order = np.argsort(ids, kind="stable")
    ids_sorted = ids[order]
    keep = np.ones(len(ids_sorted), dtype=bool)
    keep[:-1] = ids_sorted[:-1] != ids_sorted[1:]
    return WayIndex(ids_sorted[keep], order[keep], offs, refs)


def build_way_index(ways: rd.Dataset) -> WayIndex:
    """Member ways → WayIndex on the driver (``way_index``, then a wait)."""
    return ray.get(way_index(ways))


def build_node_index(nodes: rd.Dataset, stop_ids: Optional[np.ndarray] = None) -> NodeIndex:
    """Nodes → NodeIndex; tags kept (columnar) only for ``stop_ids`` (or all
    nodes when ``stop_ids`` is None).

    Like ``build_way_index``, the per-block conversion (casts, stop-id
    membership filter, tag sub-array slicing) runs in block tasks; the
    driver's share is concatenation + the two final argsorts."""
    stop_ref = ray.put(_sorted_ids(stop_ids))
    pieces = ray.get(block_tasks(nodes, _split_node_block, 1, stop_ref))
    return _merge_node_shard(*(p[0] for p in pieces))


def _sorted_ids(ids: Optional[np.ndarray]) -> Optional[np.ndarray]:
    return np.sort(np.asarray(ids, dtype=np.int64)) if ids is not None else None


def _merge_node_parts(
    id_parts, lat_parts, lon_parts, stop_id_parts, stop_tag_arrays
) -> NodeIndex:
    """Concatenate per-block pieces (in BLOCK ORDER — last-wins depends on
    it, mod.rs:494) → sorted/deduped NodeIndex."""
    empty_tags = pa.array([], TAGS_T)
    if not id_parts:
        z = np.empty(0, np.int64)
        return NodeIndex(z, z.astype(np.float64), z.astype(np.float64), z, empty_tags)
    ids = np.concatenate(id_parts)
    lats = np.concatenate(lat_parts)
    lons = np.concatenate(lon_parts)
    order = np.argsort(ids, kind="stable")
    ids, lats, lons = ids[order], lats[order], lons[order]
    # last-wins dedup (mod.rs:494)
    keep = np.ones(len(ids), dtype=bool)
    keep[:-1] = ids[:-1] != ids[1:]
    if stop_id_parts:
        sids = np.concatenate(stop_id_parts)
        stags = pa.concat_arrays(
            [t if isinstance(t, pa.Array) else t.combine_chunks() for t in stop_tag_arrays]
        )
        sorder = np.argsort(sids, kind="stable")
        sids_sorted = sids[sorder]
        skeep = np.ones(len(sids_sorted), dtype=bool)
        skeep[:-1] = sids_sorted[:-1] != sids_sorted[1:]
        final_idx = sorder[skeep]
        stags = stags.take(pa.array(final_idx, pa.int64()))
        sids_final = sids_sorted[skeep]
    else:
        sids_final = np.empty(0, np.int64)
        stags = empty_tags
    return NodeIndex(ids[keep], lats[keep], lons[keep], sids_final, stags)


class ShardedNodeIndex:
    """Hash-sharded node lookup: P ``NodeIndex`` shards by ``id % P``.

    The un-sharded ``NodeIndex`` is built by (and broadcast from) the
    driver — fine while nodes-of-interest fit one heap, but a serial
    section at high CPU counts and a hard wall at planet scale. Here
    split tasks partition each block's rows by ``id % P`` and one merge
    task per shard sorts/dedups its slice (``node_index_shards``); the
    driver holds only P ObjectRefs, and the tasks that read the index
    take the shards as top-level arguments and wrap them in this class.
    Every lookup routes vectorized per-shard. API-compatible with
    ``NodeIndex`` (gather / stops_bulk).
    """

    def __init__(self, shards):
        self.shards = list(shards)
        self.num_shards = len(self.shards)

    def gather(self, ref_ids: np.ndarray):
        refs = np.asarray(ref_ids, dtype=np.int64)
        ok, lats, lons = self.gather_mask(refs)
        return refs[ok], lats[ok], lons[ok]

    def gather_mask(self, refs: np.ndarray):
        """Bulk per-position form (see NodeIndex.gather_mask)."""
        refs = np.asarray(refs, dtype=np.int64)
        n = len(refs)
        ok = np.zeros(n, dtype=bool)
        lats = np.empty(n, np.float64)
        lons = np.empty(n, np.float64)
        if n == 0:
            return ok, lats, lons
        shards = self.shards
        sh = refs % self.num_shards
        for p in np.unique(sh):
            m = sh == p
            s = shards[int(p)]
            if len(s.ids) == 0:
                continue
            sub = refs[m]
            idx = np.minimum(np.searchsorted(s.ids, sub), len(s.ids) - 1)
            hit = s.ids[idx] == sub
            tmp_lat = np.empty(len(sub), np.float64)
            tmp_lon = np.empty(len(sub), np.float64)
            tmp_lat[hit] = s.lats[idx[hit]]
            tmp_lon[hit] = s.lons[idx[hit]]
            ok[m] = hit
            lats[m] = tmp_lat
            lons[m] = tmp_lon
        return ok, lats, lons

    def stops_bulk(self, stop_ids_flat: np.ndarray):
        """Per-shard ``NodeIndex.stops_bulk``; the shards' tag arrays are
        concatenated and put back in input order with one take."""
        refs = np.asarray(stop_ids_flat, dtype=np.int64)
        n = len(refs)
        if n == 0:
            return np.zeros(0, bool), np.empty(0), np.empty(0), pa.array([], TAGS_T)
        shards = self.shards
        sh = refs % self.num_shards
        ok = np.zeros(n, dtype=bool)
        lats = np.empty(n, np.float64)
        lons = np.empty(n, np.float64)
        hit_parts, tag_parts = [], []
        for p in np.unique(sh):
            pos = np.nonzero(sh == p)[0]
            sub_ok, sub_lats, sub_lons, sub_tags = shards[int(p)].stops_bulk(refs[pos])
            hitpos = pos[sub_ok]
            ok[pos] = sub_ok
            lats[hitpos] = sub_lats
            lons[hitpos] = sub_lons
            if len(hitpos):
                hit_parts.append(hitpos)
                tag_parts.append(sub_tags)
        found = np.nonzero(ok)[0]
        if not hit_parts:
            return ok, lats[found], lons[found], pa.array([], TAGS_T)
        order = np.argsort(np.concatenate(hit_parts), kind="stable")
        tags = pa.concat_arrays(tag_parts).take(pa.array(order, pa.int64()))
        return ok, lats[found], lons[found], tags


def _split_node_block(b: pa.Table, num_shards: int, stop_sorted):
    """One non-empty node block → per-shard pieces (a block task, P returns)."""
    ids = b["id"].to_numpy(zero_copy_only=False).astype(np.int64)
    lats = b["lat"].to_numpy(zero_copy_only=False).astype(np.float64)
    lons = b["lon"].to_numpy(zero_copy_only=False).astype(np.float64)
    tags = b["tags"].combine_chunks()
    pieces = []
    sh = ids % num_shards
    for p in range(num_shards):
        m = sh == p
        p_ids, p_lats, p_lons = ids[m], lats[m], lons[m]
        if stop_sorted is not None:
            if len(stop_sorted):
                pos = np.minimum(
                    np.searchsorted(stop_sorted, p_ids), len(stop_sorted) - 1
                )
                hit = stop_sorted[pos] == p_ids
            else:
                hit = np.zeros(len(p_ids), dtype=bool)
            p_sids = p_ids[hit]
            p_stags = tags.filter(pa.array(m)).filter(pa.array(hit))
        else:
            p_sids = p_ids
            p_stags = tags.filter(pa.array(m))
        pieces.append((p_ids, p_lats, p_lons, p_sids, p_stags))
    return tuple(pieces)


def _merge_node_shard(*pieces) -> NodeIndex:
    """Pieces of one shard (block order) → that shard's NodeIndex."""
    id_parts = [p[0] for p in pieces]
    lat_parts = [p[1] for p in pieces]
    lon_parts = [p[2] for p in pieces]
    stop_id_parts = [p[3] for p in pieces if len(p[3])]
    stop_tag_arrays = [p[4] for p in pieces if len(p[3])]
    return _merge_node_parts(
        id_parts, lat_parts, lon_parts, stop_id_parts, stop_tag_arrays
    )


def node_index_shards(nodes, stop_ids, num_shards: int) -> list:
    """The refs of ``num_shards`` ``NodeIndex`` shards of ``nodes`` (block
    refs or a Dataset), submitted without waiting: one split task per
    block, ``num_shards`` returns each, then one merge task per shard.
    ``stop_ids`` (a sorted id array or its ref, or ``None`` for all
    nodes) selects the nodes whose tags are kept. Block ORDER is
    preserved into every merge so last-wins dedup matches the
    reference."""
    P = num_shards
    pieces = block_tasks(nodes, _split_node_block, P, stop_ids, num_returns=P)
    return [submit(_merge_node_shard, *[p[i] for p in pieces]) for i in range(P)]


def build_node_index_sharded(
    nodes: rd.Dataset,
    stop_ids: Optional[np.ndarray] = None,
    num_shards: Optional[int] = None,
) -> ShardedNodeIndex:
    """``node_index_shards`` of a Dataset, fetched to the driver."""
    P = num_shards or _shard_count(0.5)
    return ShardedNodeIndex(ray.get(node_index_shards(nodes, ray.put(_sorted_ids(stop_ids)), P)))


def collect_stop_ids(relations: rd.Dataset) -> np.ndarray:
    return ray.get(stop_id_set(relations))


def _list_parts(col) -> tuple:
    """list<int64> column → (zero-based offsets, flat int64 values)."""
    arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    offs = np.asarray(arr.offsets, np.int64)
    return offs - offs[0], arr.flatten().to_numpy(zero_copy_only=False).astype(np.int64)


def _stops_column(nodes, stop_ids_arr: "pa.Array") -> "pa.ListArray":
    """Bulk stop resolution for a whole batch, assembled DIRECTLY as the
    arrow list<struct> column (round-3: the per-stop python dict building
    + python→arrow conversion was ~25% of assembly CPU; the tags stay an
    Arrow map array throughout). Missing stops silently filtered
    (mod.rs:693)."""
    seg, flat = _list_parts(stop_ids_arr)
    ok, lats, lons, tags = nodes.stops_bulk(flat)
    # per-relation FOUND counts via prefix sums (reduceat mishandles
    # empty segments)
    c = np.zeros(len(flat) + 1, np.int64)
    np.cumsum(ok.astype(np.int64), out=c[1:])
    found_counts = c[seg[1:]] - c[seg[:-1]]
    offs = np.zeros(len(found_counts) + 1, np.int32)
    np.cumsum(found_counts, out=offs[1:])
    struct = pa.StructArray.from_arrays(
        [
            pa.array(flat[ok], pa.int64()),
            pa.array(lats, pa.float64()),
            pa.array(lons, pa.float64()),
            tags,
        ],
        ["id", "lat", "lon", "tags"],
    )
    return pa.ListArray.from_arrays(pa.array(offs, pa.int32()), struct)


def _flatten_rows(batch: pa.Table, seqs_col: list, nodes, gap: float, closed: bool,
                  as_area: bool) -> pa.Table:
    """Relation rows (id, tags, info, stop_ids) and each one's resolved
    member ``NodeSeq``s → PublicTransport rows, or relation-Area rows when
    ``as_area``: the one flatten + stops tail of both assembly modes."""
    geoms, codes, details = [], [], []
    for seqs in seqs_col:
        segments, status = flatten_relation(seqs, gap, closed)
        geoms.append(_geometry_value(segments))
        codes.append(status.code)
        details.append(status.detail)
    cols = {"id": batch["id"]}
    if as_area:
        cols["id_type"] = pa.array(["r"] * batch.num_rows, pa.string())
    cols["tags"] = batch["tags"]
    cols["info"] = batch["info"]
    if not as_area:
        cols["stops"] = _stops_column(nodes, batch["stop_ids"])
    cols["geometry"] = pa.array(geoms, GEOM_T)
    cols["status_code"] = pa.array(codes, pa.int64())
    cols["status_detail"] = pa.array(details, pa.string())
    return pa.table(cols)


def _resolve_seqs_batch(way_ids_arr: "pa.Array", wi: WayIndex, nodes) -> list[list[NodeSeq]]:
    """Way/node resolution for a WHOLE relations batch in three bulk
    array operations (round-3: the per-way ``gather`` calls — 63 per
    relation on the bench corpus — were half the assembly stage's CPU;
    numpy fixed overhead × 10^5 tiny calls). Missing ways (mod.rs:672)
    and ways with zero resolvable nodes are silently dropped, as in the
    shuffle path; order is preserved."""
    woffs, flat_wids = _list_parts(way_ids_arr)
    nrel = len(woffs) - 1
    seqs_col: list[list[NodeSeq]] = [[] for _ in range(nrel)]
    if not len(flat_wids) or not len(wi.ids):
        return seqs_col
    # bulk way lookup: one searchsorted over every member way id
    pos = np.minimum(np.searchsorted(wi.ids, flat_wids), len(wi.ids) - 1)
    found = wi.ids[pos] == flat_wids
    rows = wi.rows[pos[found]]
    starts = wi.ref_offsets[rows]
    lens = wi.ref_offsets[rows + 1] - starts
    total = int(lens.sum())
    # range-gather every found way's refs in one pass
    if total:
        nz = lens > 0
        rs, rl = starts[nz], lens[nz]
        cumnz = np.cumsum(rl)
        idx = np.ones(total, np.int64)
        idx[0] = rs[0]
        idx[cumnz[:-1]] = rs[1:] - (rs[:-1] + rl[:-1]) + 1
        idx = np.cumsum(idx)
        all_refs = wi.refs[idx]
    else:
        all_refs = np.empty(0, np.int64)
    # ONE node gather for the whole batch
    ok, lats, lons = nodes.gather_mask(all_refs)
    way_start = np.zeros(len(lens) + 1, np.int64)
    np.cumsum(lens, out=way_start[1:])
    rel_of_flat = np.repeat(np.arange(nrel, dtype=np.int64), np.diff(woffs))
    rel_of_found = rel_of_flat[found]
    for k in range(len(lens)):
        s, e = way_start[k], way_start[k + 1]
        o = ok[s:e]
        ids_k = all_refs[s:e][o]
        if not len(ids_k):
            continue  # zero resolvable nodes == missing way
        seqs_col[rel_of_found[k]].append(
            NodeSeq(ids_k, lats[s:e][o], lons[s:e][o])
        )
    return seqs_col


def _assemble_task(batch: pa.Table, ways: WayIndex, gap, closed, as_area, *node_shards) -> pa.Table:
    """One relation block → its flattened rows (broadcast mode). The way
    index and the node index shards arrive as resolved top-level
    arguments (zero-copy numpy reads)."""
    nodes = ShardedNodeIndex(node_shards)
    seqs_col = _resolve_seqs_batch(batch["way_ids"], ways, nodes)
    return _flatten_rows(batch, seqs_col, nodes, gap, closed, as_area)


def _way_area_task(batch: pa.Table, gap: float, *node_shards) -> pa.Table:
    """Standalone ways → 'w'-type Area rows (reference mod.rs:596-647).
    Needs only node coords for the way's own refs: one bulk
    ``gather_mask`` for the whole batch, not one gather per way."""
    batch = batch.filter(batch["is_standalone"])
    offs, flat = _list_parts(batch["node_refs"])
    ok, lats_f, lons_f = ShardedNodeIndex(node_shards).gather_mask(flat)
    geoms, codes, details = [], [], []
    for i in range(batch.num_rows):
        s, e = offs[i], offs[i + 1]
        o = ok[s:e]
        seq = NodeSeq(flat[s:e][o], lats_f[s:e][o], lons_f[s:e][o])
        segments, status = flatten_single_way(seq, gap, True)
        geoms.append(_geometry_value(segments))
        codes.append(status.code)
        details.append(status.detail)
    return pa.table(
        {
            "id": batch["id"],
            "id_type": pa.array(["w"] * batch.num_rows, pa.string()),
            "tags": batch["tags"],
            "info": batch["info"],
            "geometry": pa.array(geoms, GEOM_T),
            "status_code": pa.array(codes, pa.int64()),
            "status_detail": pa.array(details, pa.string()),
        }
    )


def _assemble_relations(tables: ParserTables, node_shards: list, gap: float, closed: bool,
                        as_area: bool) -> list:
    """The broadcast assembly: one ``_assemble_task`` per relation block,
    after the way index task → the output block refs."""
    return block_tasks(tables.blocks("relations"), _assemble_task, way_index(tables.blocks("ways")),
                       gap, closed, as_area, *node_shards)


def _node_shards(tables: ParserTables, stop_ids) -> list:
    return node_index_shards(tables.blocks("nodes"), stop_ids, _shard_count(0.5))


def public_transport_blocks(tables: ParserTables, gap: float) -> list:
    """The broadcast assembly's PT block refs, submitted without waiting:
    the node index shards (tags kept for stops only; the driver holds
    refs only) and the way index are tasks, and each relation block's
    assembly task takes them, with its block, as top-level arguments."""
    return _assemble_relations(tables, _node_shards(tables, tables.stop_ids()), gap,
                               closed=False, as_area=False)


def get_public_transports(
    tables: ParserTables,
    gap: float,
    *,
    mode: Literal["broadcast", "shuffle"] = "broadcast",
) -> rd.Dataset:
    """All filtered relations flattened (open) → PublicTransport rows, a
    materialized dataset.

    Reference: get_public_transports (mod.rs:511-527). Output order is
    nondeterministic, matching the reference's channel-drain order.
    ``mode="broadcast"`` is ``public_transport_blocks``, whose tasks take
    the tables' block refs: over tables the plan built, the only wait is
    the one for the output's metadata, here at the end.
    """
    if mode == "shuffle":
        return _assemble_shuffle(tables, _node_shards(tables, tables.stop_ids()), gap,
                                 closed=False, as_area=False)
    return dataset_of(public_transport_blocks(tables, gap), PT_SCHEMA.empty_table())


def get_areas(
    tables: ParserTables,
    gap: float,
    *,
    mode: Literal["broadcast", "shuffle"] = "broadcast",
) -> rd.Dataset:
    """Relation areas ('r', closed) ∪ standalone way areas ('w', closed).

    Reference: get_areas (mod.rs:580-654). The library returns ALL rows
    including Broken; CLI-parity filtering (drop status!=0 / empty
    geometry, bin.rs:68-73) is `cli_area_filter`.
    """
    node_shards = _node_shards(tables, None)
    way_areas = block_tasks(tables.blocks("ways"), _way_area_task, gap, *node_shards)
    if mode == "shuffle":
        rel_areas = _assemble_shuffle(tables, [], gap, closed=True, as_area=True)
        return rel_areas.union(dataset_of(way_areas, AREA_SCHEMA.empty_table()))
    rel_areas = _assemble_relations(tables, node_shards, gap, closed=True, as_area=True)
    return dataset_of(rel_areas + way_areas, AREA_SCHEMA.empty_table())


def cli_area_filter(areas: rd.Dataset) -> rd.Dataset:
    """CLI-parity output filter: keep only status==0 with non-empty geometry
    (reference bin.rs:68-73)."""

    def keep(batch: pa.Table) -> pa.Table:
        ok = pc.and_(
            pc.equal(batch["status_code"], 0),
            pc.greater(pc.list_value_length(batch["geometry"]), 0),
        )
        return batch.filter(ok)

    return areas.map_batches(keep, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# shuffle-mode assembly: three cosorts over scalar rows
# ---------------------------------------------------------------------------

_I64, _F64 = pa.int64(), pa.float64()
# the rows of each cosort; a way-ref or node row has a null relation_id,
# a relation row a null member_pos
_WAY_ROWS = pa.schema(
    [("way_id", _I64), ("relation_id", _I64), ("member_pos", _I64),
     ("node_pos", _I64), ("node_id", _I64)]
)
_NODE_ROWS = pa.schema(
    [("node_id", _I64), ("relation_id", _I64), ("member_pos", _I64),
     ("node_pos", _I64), ("lat", _F64), ("lon", _F64)]
)
_RELATION_ROWS = pa.schema(
    [("relation_id", _I64), ("member_pos", _I64), ("node_pos", _I64),
     ("node_id", _I64), ("lat", _F64), ("lon", _F64), ("tags", TAGS_T),
     ("info", TAGS_T), ("stop_ids", pa.list_(_I64))]
)


def _rows(schema: pa.Schema, n: int, **cols) -> pa.Table:
    """``n`` rows of ``schema`` from ``cols`` (numpy or Arrow), nulls in
    every other column."""
    arrays = []
    for f in schema:
        v = cols.get(f.name)
        if v is None:
            v = pa.nulls(n, f.type)
        elif isinstance(v, np.ndarray):
            v = pa.array(v, f.type)
        arrays.append(v)
    return pa.Table.from_arrays(arrays, schema=schema)


def _col(t: pa.Table, name: str) -> np.ndarray:
    return t[name].to_numpy(zero_copy_only=False)


def _explode(col) -> tuple:
    """list column → (row of each value, position in its list, values)."""
    offs, flat = _list_parts(col)
    counts = np.diff(offs)
    row = np.repeat(np.arange(len(counts), dtype=np.int64), counts)
    return row, np.arange(len(flat), dtype=np.int64) - offs[:-1][row], flat


def _member_rows(batch: pa.Table) -> pa.Table:
    """relations → one (way_id, relation_id, member_pos) row per member."""
    row, pos, wids = _explode(batch["way_ids"])
    rids = _col(batch, "id").astype(np.int64)[row]
    return _rows(_WAY_ROWS, len(wids), way_id=wids, relation_id=rids, member_pos=pos)


def _way_ref_rows(batch: pa.Table) -> pa.Table:
    """member ways → one (way_id, node_pos, node_id) row per node ref."""
    batch = batch.filter(batch["is_member"])
    row, pos, refs = _explode(batch["node_refs"])
    wids = _col(batch, "id").astype(np.int64)[row]
    return _rows(_WAY_ROWS, len(refs), way_id=wids, node_pos=pos, node_id=refs)


def _node_rows(batch: pa.Table) -> pa.Table:
    return _rows(_NODE_ROWS, batch.num_rows, node_id=batch["id"], lat=batch["lat"],
                 lon=batch["lon"])


def _relation_rows(batch: pa.Table) -> pa.Table:
    return _rows(_RELATION_ROWS, batch.num_rows, relation_id=batch["id"],
                 tags=batch["tags"], info=batch["info"], stop_ids=batch["stop_ids"])


def _split(block: pa.Table, col: str) -> tuple:
    """Rows with ``col`` valid, rows with it null."""
    valid = pc.is_valid(block[col])
    return block.filter(valid), block.filter(pc.invert(valid))


def _member_node_probe(block: pa.Table) -> pa.Table:
    """Members ⋈ way refs on way_id → one row per (member, node ref).
    A member way absent from ``ways`` has no ref rows and drops out
    (mod.rs:672)."""
    members, refs = _split(block, "relation_id")
    li, ri = key_pairs(_col(members, "way_id"), _col(refs, "way_id"))
    return _rows(
        _NODE_ROWS, len(li),
        node_id=_col(refs, "node_id")[ri], relation_id=_col(members, "relation_id")[li],
        member_pos=_col(members, "member_pos")[li], node_pos=_col(refs, "node_pos")[ri],
    )


def _coord_probe(block: pa.Table) -> pa.Table:
    """(member, node ref) rows ⋈ nodes on node_id, an inner join: a
    missing node drops out (mod.rs:680). One node row per id is used."""
    pairs, nodes = _split(block, "relation_id")
    nid = _col(nodes, "node_id")
    first = key_runs(nid)[:-1]
    li, ri = key_pairs(_col(pairs, "node_id"), nid[first])
    ri = first[ri]
    return _rows(
        _RELATION_ROWS, len(li),
        relation_id=_col(pairs, "relation_id")[li], member_pos=_col(pairs, "member_pos")[li],
        node_pos=_col(pairs, "node_pos")[li], node_id=nid[ri],
        lat=_col(nodes, "lat")[ri], lon=_col(nodes, "lon")[ri],
    )


def _relation_probe(block: pa.Table, *node_shards, gap: float, closed: bool,
                    as_area: bool) -> pa.Table:
    """Relation rows with their resolved node rows → flattened rows: the
    node rows, ordered by (relation_id, member_pos, node_pos), split into
    one ``NodeSeq`` per member run. A relation without node rows gets
    no seqs → 501 Broken, like the reference. The stop lookup is the
    node index shards (none for areas)."""
    points, rels = _split(block, "member_pos")
    rid, mpos = _col(points, "relation_id"), _col(points, "member_pos")
    order = np.lexsort((_col(points, "node_pos"), mpos, rid))
    rid, mpos = rid[order], mpos[order]
    ids, lats, lons = (_col(points, c)[order] for c in ("node_id", "lat", "lon"))
    bounds = key_runs(rid, mpos)
    seqs_col: list[list[NodeSeq]] = [[] for _ in range(rels.num_rows)]
    slots = np.searchsorted(_col(rels, "relation_id"), rid[bounds[:-1]])
    for k, s, e in zip(slots, bounds[:-1], bounds[1:]):
        seqs_col[k].append(NodeSeq(ids[s:e], lats[s:e], lons[s:e]))
    batch = pa.table({"id": rels["relation_id"], "tags": rels["tags"],
                      "info": rels["info"], "stop_ids": rels["stop_ids"]})
    nodes = ShardedNodeIndex(node_shards) if node_shards else None
    return _flatten_rows(batch, seqs_col, nodes, gap, closed, as_area)


def _assemble_shuffle(tables: ParserTables, node_shards: list, gap: float, *, closed: bool,
                      as_area: bool) -> rd.Dataset:
    """Shuffle-mode assembly (see the module docstring): three cosorts,
    on way_id, node_id and relation_id. Their row maps are block tasks
    over the tables' block refs, so the cosorts start no streaming
    execution."""

    def rows(name: str, fn, schema: pa.Schema) -> rd.Dataset:
        return dataset_of(block_tasks(tables.blocks(name), fn), schema.empty_table())

    pairs = cosort(
        [rows("relations", _member_rows, _WAY_ROWS), rows("ways", _way_ref_rows, _WAY_ROWS)],
        ["way_id"], _member_node_probe, _WAY_ROWS,
    )
    points = cosort(
        [pairs, rows("nodes", _node_rows, _NODE_ROWS)], ["node_id"], _coord_probe, _NODE_ROWS
    )
    return cosort(
        [points, rows("relations", _relation_rows, _RELATION_ROWS)], ["relation_id"],
        partial(_relation_probe, gap=gap, closed=closed, as_area=as_area),
        _RELATION_ROWS, *node_shards,
    )
