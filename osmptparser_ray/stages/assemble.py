"""Relation resolution + flatten: the reference's J3/J4 joins and
``get_public_transports`` / ``get_areas`` drivers (mod.rs:511-654,
664-722), Ray-Data-first.

One plan, the reference's shared read-only cache: the member-way and
node lookup tables are built in tasks (the way index, the node index
shards) and every relation block task takes them as top-level arguments
(``relation_tasks``). They are the SMALL side — ids/coords only, pruned
by the semi-joins — so per-relation resolution is a local array lookup
inside one block task per relation block (``util.block_tasks``): no
shuffle, no streaming execution and no driver wait at all. The parser
API (``pipelines.parser_api``) resolves through the same tasks.

Missing ways/nodes are silently dropped (mod.rs:672/680/693); member
order and per-way node order are preserved.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data as rd

from ..kernel.geometry import NodeSeq, flatten_relation, flatten_single_way
from ..util import block_tasks, concat_columns, dataset_of, submit
from .elements import ParserTables, _shard_count

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
    # a sorted-id permutation, no ref movement (mod.rs:422)
    rows, ids = _last_wins(ids)
    return WayIndex(ids, rows, offs, refs)


def _last_wins(ids: np.ndarray) -> tuple:
    """Ids in input (block) order → (the input position of each kept id,
    the sorted unique ids): a duplicate id keeps its LAST occurrence, the
    reference's HashMap last-wins merge (mod.rs:422, 494)."""
    order = np.argsort(ids, kind="stable")
    ids = ids[order]
    keep = np.ones(len(ids), dtype=bool)
    keep[:-1] = ids[:-1] != ids[1:]
    return order[keep], ids[keep]


class ShardedNodeIndex:
    """Hash-sharded node lookup: P ``NodeIndex`` shards by ``id % P``.

    Split tasks partition each block's rows by ``id % P`` and one merge
    task per shard sorts/dedups its slice (``node_index_shards``), so no
    shard is built on the driver, which holds only P ObjectRefs; the
    tasks that read the index take the shards as top-level arguments and
    wrap them in this class. Every lookup routes vectorized per-shard.
    """

    def __init__(self, shards):
        self.shards = list(shards)
        self.num_shards = len(self.shards)

    def gather(self, ref_ids: np.ndarray):
        refs = np.asarray(ref_ids, dtype=np.int64)
        ok, lats, lons = self.gather_mask(refs)
        return refs[ok], lats[ok], lons[ok]

    def gather_mask(self, refs: np.ndarray):
        """Per-shard ``NodeIndex.gather_mask``, in input order."""
        refs = np.asarray(refs, dtype=np.int64)
        n = len(refs)
        ok = np.zeros(n, dtype=bool)
        lats = np.empty(n, np.float64)
        lons = np.empty(n, np.float64)
        sh = refs % self.num_shards
        for p in np.unique(sh):
            m = sh == p
            ok[m], lats[m], lons[m] = self.shards[int(p)].gather_mask(refs[m])
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


def _split_node_block(b: pa.Table, num_shards: int, stop_sorted: np.ndarray):
    """One node block → per-shard pieces (a block task, P returns); tags
    are kept for the ids in ``stop_sorted`` only."""
    ids = b["id"].to_numpy(zero_copy_only=False).astype(np.int64)
    lats = b["lat"].to_numpy(zero_copy_only=False).astype(np.float64)
    lons = b["lon"].to_numpy(zero_copy_only=False).astype(np.float64)
    is_stop = np.zeros(len(ids), dtype=bool)
    if len(stop_sorted):
        pos = np.minimum(np.searchsorted(stop_sorted, ids), len(stop_sorted) - 1)
        is_stop = stop_sorted[pos] == ids
    stop_ids, stop_tags = ids[is_stop], b["tags"].combine_chunks().filter(pa.array(is_stop))
    sh, stop_sh = ids % num_shards, stop_ids % num_shards
    pieces = []
    for p in range(num_shards):
        m, sm = sh == p, stop_sh == p
        pieces.append((ids[m], lats[m], lons[m], stop_ids[sm], stop_tags.filter(pa.array(sm))))
    return tuple(pieces) if num_shards > 1 else pieces[0]  # one return is its value


def _merge_node_shard(*pieces) -> NodeIndex:
    """Pieces of one shard, in block order (last-wins depends on it) →
    that shard's sorted/deduped NodeIndex."""
    dtypes = (np.int64, np.float64, np.float64, np.int64)
    ids, lats, lons, stop_ids = concat_columns([p[:4] for p in pieces], dtypes)
    at, ids = _last_wins(ids)
    stop_at, stop_ids = _last_wins(stop_ids)
    tags = [p[4] for p in pieces if len(p[3])]
    tags = pa.concat_arrays(tags) if tags else pa.array([], TAGS_T)
    return NodeIndex(ids, lats[at], lons[at], stop_ids, tags.take(pa.array(stop_at, pa.int64())))


def node_index_shards(nodes, stop_ids, num_shards: int = 0) -> list:
    """The refs of ``num_shards`` (default: one per two Ray CPUs, 2 to
    16) ``NodeIndex`` shards of ``nodes`` (block refs or a Dataset),
    submitted without waiting: one split task per block, ``num_shards``
    returns each, then one merge task per shard. ``stop_ids`` (a sorted
    id array or its ref) selects the nodes whose tags are kept. Block
    ORDER is preserved into every merge so last-wins dedup matches the
    reference."""
    P = num_shards or _shard_count(0.5)
    pieces = block_tasks(nodes, _split_node_block, P, stop_ids, num_returns=P)
    return [submit(_merge_node_shard, *[p[i] if P > 1 else p for p in pieces]) for i in range(P)]


def build_node_index_sharded(nodes: rd.Dataset, stop_ids: np.ndarray,
                             num_shards: int = 0) -> ShardedNodeIndex:
    """``node_index_shards`` of a Dataset, fetched to the driver."""
    stop_sorted = np.sort(np.asarray(stop_ids, dtype=np.int64))
    return ShardedNodeIndex(ray.get(node_index_shards(nodes, stop_sorted, num_shards)))


def _list_parts(col) -> tuple:
    """list<int64> column → (zero-based offsets, flat int64 values)."""
    arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    offs = np.asarray(arr.offsets, np.int64)
    return offs - offs[0], arr.flatten().to_numpy(zero_copy_only=False).astype(np.int64)


def stops_column(nodes, stop_ids_arr: "pa.Array") -> "pa.ListArray":
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


def _resolve_seqs_batch(way_ids_arr: "pa.Array", wi: WayIndex, nodes) -> list[list[NodeSeq]]:
    """Way/node resolution for a WHOLE relations batch in three bulk
    array operations (round-3: the per-way ``gather`` calls — 63 per
    relation on the bench corpus — were half the assembly stage's CPU;
    numpy fixed overhead × 10^5 tiny calls). Missing ways (mod.rs:672)
    and ways with zero resolvable nodes are silently dropped; order is
    preserved."""
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
    """One relation block (id, tags, info, way_ids, stop_ids) → its
    flattened PublicTransport rows, or relation-Area rows when
    ``as_area``. The way index and the node index shards arrive as
    resolved top-level arguments (zero-copy numpy reads)."""
    nodes = ShardedNodeIndex(node_shards)
    geoms, codes, details = [], [], []
    for seqs in _resolve_seqs_batch(batch["way_ids"], ways, nodes):
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
        cols["stops"] = stops_column(nodes, batch["stop_ids"])
    cols["geometry"] = pa.array(geoms, GEOM_T)
    cols["status_code"] = pa.array(codes, pa.int64())
    cols["status_detail"] = pa.array(details, pa.string())
    return pa.table(cols)


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


def relation_tasks(tables: ParserTables, fn, *args) -> list:
    """``fn(block, ways, *args)`` as one task per relation block of
    ``tables`` → the output refs, submitted without waiting. ``ways`` is
    the member ways' ``WayIndex`` (``way_index``); it and the refs in
    ``args`` (the node index shards) are top-level task arguments, so
    Ray fetches them before the task starts."""
    return block_tasks(tables.blocks("relations"), fn, way_index(tables.blocks("ways")), *args)


def public_transport_blocks(tables: ParserTables, gap: float) -> list:
    """The assembly's PT block refs, submitted without waiting: the node
    index shards (tags kept for stops only) and the way index are tasks,
    and each relation block's ``_assemble_task`` takes them as arguments."""
    shards = node_index_shards(tables.blocks("nodes"), tables.stop_ids())
    return relation_tasks(tables, _assemble_task, gap, False, False, *shards)


def get_public_transports(tables: ParserTables, gap: float) -> rd.Dataset:
    """All filtered relations flattened (open) → PublicTransport rows, a
    materialized dataset.

    Reference: get_public_transports (mod.rs:511-527). Output order is
    nondeterministic, matching the reference's channel-drain order.
    Over tables the plan built, the only wait is the one for the
    output's metadata, here at the end.
    """
    return dataset_of(public_transport_blocks(tables, gap), PT_SCHEMA.empty_table())


def get_areas(tables: ParserTables, gap: float) -> rd.Dataset:
    """Relation areas ('r', closed) ∪ standalone way areas ('w', closed).

    Reference: get_areas (mod.rs:580-654). The library returns ALL rows
    including Broken; CLI-parity filtering (drop status!=0 / empty
    geometry, bin.rs:68-73) is `cli_area_filter`. No area reads a node
    tag, so the node index shards keep none.
    """
    shards = node_index_shards(tables.blocks("nodes"), np.empty(0, np.int64))
    way_areas = block_tasks(tables.blocks("ways"), _way_area_task, gap, *shards)
    rel_areas = relation_tasks(tables, _assemble_task, gap, True, True, *shards)
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
