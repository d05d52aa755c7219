"""Parser-surface parity helpers: the reference's remaining public API
re-expressed over ParserTables.

* ``get_relation_by_id``  — reference ``get_relation_from_id`` (mod.rs:657-661):
  lookup + full resolution of ONE relation.
* ``iter_relations``      — reference sequential iterator (mod.rs:737-742,
  772-792): yields resolved relation dicts in cache order.
* ``par_map_relations``   — reference ``par_map`` (mod.rs:532-576), the
  user-extension hook: apply an arbitrary per-relation function in
  parallel; output order nondeterministic, matching the reference's
  channel-drain semantics.
* ``parser_summary``      — reference ``Debug`` impl (mod.rs:745-770):
  per-relation way/stop/node counts + total.

Each resolves relations as the assembly does (``assemble.relation_tasks``):
one task per relation block, which takes the way index and the node index
shards as top-level arguments.
"""

from __future__ import annotations

from typing import Callable, Iterator

import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data as rd

from ..kernel.filters import get_tag_values
from ..stages.assemble import (
    STOP_T,
    TAGS_T,
    ShardedNodeIndex,
    WayIndex,
    node_index_shards,
    relation_tasks,
    stops_column,
)
from ..stages.elements import ParserTables
from ..util import block_tasks, dataset_of

WAY_T = pa.struct(
    [
        pa.field("way_id", pa.int64()),
        pa.field("node_ids", pa.list_(pa.int64())),
        pa.field("lats", pa.list_(pa.float64())),
        pa.field("lons", pa.list_(pa.float64())),
    ]
)
RELATION_SCHEMA = pa.schema(
    [
        pa.field("id", pa.int64()),
        pa.field("tags", TAGS_T),
        pa.field("info", TAGS_T),
        pa.field("ways", pa.list_(WAY_T)),
        pa.field("stops", pa.list_(STOP_T)),
    ]
)
SUMMARY_SCHEMA = pa.schema(
    [
        pa.field("id", pa.int64()),
        pa.field("name", pa.string()),
        pa.field("n_ways", pa.int64()),
        pa.field("n_stops", pa.int64()),
        pa.field("n_nodes", pa.int64()),
    ]
)


def _resolve_task(batch: pa.Table, ways: WayIndex, *node_shards) -> pa.Table:
    """One relation block → its fully resolved rows (id, tags, info, ways
    as node lists with coords, stops) — the ``Relation`` struct as Arrow
    rows. A missing way is dropped (mod.rs:672), a way's missing nodes
    too (mod.rs:680)."""
    nodes = ShardedNodeIndex(node_shards)
    ways_out = []
    for way_ids in batch["way_ids"].to_pylist():
        resolved = []
        for wid in way_ids:
            refs = ways.lookup(wid)
            if refs is None:
                continue
            ids, lats, lons = nodes.gather(refs)
            resolved.append(
                {"way_id": wid, "node_ids": ids.tolist(), "lats": lats.tolist(), "lons": lons.tolist()}
            )
        ways_out.append(resolved)
    return pa.table(
        {
            "id": batch["id"],
            "tags": batch["tags"],
            "info": batch["info"],
            "ways": pa.array(ways_out, pa.list_(WAY_T)),
            "stops": stops_column(nodes, batch["stop_ids"]),
        }
    )


def _resolved_batches(tables: ParserTables) -> rd.Dataset:
    """relations → fully resolved rows (``_resolve_task``), a materialized
    dataset."""
    shards = node_index_shards(tables.blocks("nodes"), tables.stop_ids())
    return dataset_of(relation_tasks(tables, _resolve_task, *shards), RELATION_SCHEMA.empty_table())


def _with_id(batch: pa.Table, relation_id: int) -> pa.Table:
    return batch.filter(pc.equal(batch["id"], relation_id))


def get_relation_by_id(tables: ParserTables, relation_id: int) -> dict | None:
    """Resolve ONE relation by osm id (reference mod.rs:657-661)."""
    only = ParserTables(
        block_tasks(tables.blocks("relations"), _with_id, relation_id),
        tables.blocks("ways"),
        tables.blocks("nodes"),
    )
    rows = _resolved_batches(only).take_all()
    return rows[0] if rows else None


def iter_relations(tables: ParserTables) -> Iterator[dict]:
    """Sequential iterator over resolved relations (reference mod.rs:772-792)."""
    yield from _resolved_batches(tables).iter_rows()


def par_map_relations(
    tables: ParserTables, fn: Callable[[dict], dict]
) -> rd.Dataset:
    """The reference's generic ``par_map`` extension hook: ``fn`` receives a
    fully resolved relation dict and returns a dict of arrow-compatible
    values. Runs as parallel map tasks; output order nondeterministic."""

    def apply(batch: pa.Table) -> pa.Table:
        rows = [fn(r) for r in batch.to_pylist()]
        if not rows:
            return pa.table({"id": pa.array([], pa.int64())})
        cols = {k: [r[k] for r in rows] for k in rows[0]}
        return pa.table(cols)

    return _resolved_batches(tables).map_batches(apply, batch_format="pyarrow")


def _summary_task(batch: pa.Table, ways: WayIndex) -> pa.Table:
    """One relation block → its ``parser_summary`` rows. ``n_nodes`` counts
    the member ways' node refs; a missing way counts 0 (mod.rs:758)."""

    def n_refs(wid: int) -> int:
        refs = ways.lookup(wid)
        return 0 if refs is None else len(refs)

    return pa.table(
        {
            "id": batch["id"],
            "name": pa.array(get_tag_values(batch, "name", "tags").tolist(), pa.string()),
            "n_ways": pc.cast(pc.list_value_length(batch["way_ids"]), pa.int64()),
            "n_stops": pc.cast(pc.list_value_length(batch["stop_ids"]), pa.int64()),
            "n_nodes": pa.array(
                [sum(map(n_refs, wids)) for wids in batch["way_ids"].to_pylist()], pa.int64()
            ),
        }
    )


def parser_summary(tables: ParserTables) -> pa.Table:
    """Per-relation way/stop/node counts + total (reference mod.rs:745-770)."""
    return pa.concat_tables(
        [SUMMARY_SCHEMA.empty_table(), *ray.get(relation_tasks(tables, _summary_task))]
    )


__all__ = [
    "get_relation_by_id",
    "iter_relations",
    "par_map_relations",
    "parser_summary",
]
