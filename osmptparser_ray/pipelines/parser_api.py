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
"""

from __future__ import annotations

from typing import Callable, Iterator

import numpy as np
import pyarrow as pa
import ray
import ray.data as rd

from ..stages.assemble import (
    build_node_index,
    build_way_index,
    collect_stop_ids,
)
from ..stages.elements import ParserTables
from ..util import cached_get


def _resolved_batches(tables: ParserTables) -> rd.Dataset:
    """relations → fully resolved rows (id, tags, info, ways:list of node
    lists with coords, stops) — the ``Relation`` struct as Arrow rows."""
    ways_ref = ray.put(build_way_index(tables.ways))
    nodes_ref = ray.put(build_node_index(tables.nodes, collect_stop_ids(tables.relations)))

    def resolve(batch: pa.Table) -> pa.Table:
        wi = cached_get(ways_ref)
        ni = cached_get(nodes_ref)
        way_ids_col = batch["way_ids"].to_pylist()
        stop_ids_col = batch["stop_ids"].to_pylist()
        ways_out, stops_out = [], []
        for way_ids, stop_ids in zip(way_ids_col, stop_ids_col):
            ways = []
            for wid in way_ids:
                refs = wi.lookup(wid)
                if refs is None:
                    continue  # silent filter (mod.rs:672)
                ids, lats, lons = ni.gather(refs)
                ways.append(
                    {
                        "way_id": wid,
                        "node_ids": ids.tolist(),
                        "lats": lats.tolist(),
                        "lons": lons.tolist(),
                    }
                )
            ways_out.append(ways)
            ok, lats, lons, tags = ni.stops_bulk(np.asarray(stop_ids, dtype=np.int64))
            found = np.asarray(stop_ids, dtype=np.int64)[ok]
            stops_out.append(
                [
                    {"id": int(nid), "lat": float(la), "lon": float(lo), "tags": tg}
                    for nid, la, lo, tg in zip(found, lats, lons, tags.to_pylist())
                ]
            )
        way_t = pa.array(
            ways_out,
            pa.list_(
                pa.struct(
                    [
                        pa.field("way_id", pa.int64()),
                        pa.field("node_ids", pa.list_(pa.int64())),
                        pa.field("lats", pa.list_(pa.float64())),
                        pa.field("lons", pa.list_(pa.float64())),
                    ]
                )
            ),
        )
        stop_t = pa.array(
            stops_out,
            pa.list_(
                pa.struct(
                    [
                        pa.field("id", pa.int64()),
                        pa.field("lat", pa.float64()),
                        pa.field("lon", pa.float64()),
                        pa.field("tags", pa.map_(pa.string(), pa.string())),
                    ]
                )
            ),
        )
        return pa.table(
            {
                "id": batch["id"],
                "tags": batch["tags"],
                "info": batch["info"],
                "ways": way_t,
                "stops": stop_t,
            }
        )

    return tables.relations.map_batches(resolve, batch_format="pyarrow")


def get_relation_by_id(tables: ParserTables, relation_id: int) -> dict | None:
    """Resolve ONE relation by osm id (reference mod.rs:657-661)."""

    def only(batch: pa.Table) -> pa.Table:
        return batch.filter(pa.compute.equal(batch["id"], relation_id))

    filtered = ParserTables(
        relations=tables.relations.map_batches(only, batch_format="pyarrow"),
        ways=tables.ways,
        nodes=tables.nodes,
    )
    rows = _resolved_batches(filtered).take_all()
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


def parser_summary(tables: ParserTables) -> pa.Table:
    """Per-relation way/stop/node counts + total (reference mod.rs:745-770)."""
    ways_ref = ray.put(build_way_index(tables.ways))

    def count(batch: pa.Table) -> pa.Table:
        wi = cached_get(ways_ref)
        way_ids_col = batch["way_ids"].to_pylist()
        n_nodes = []
        for way_ids in way_ids_col:
            total = 0
            for wid in way_ids:
                refs = wi.lookup(wid)
                total += len(refs) if refs is not None else 0  # None → 0 (mod.rs:758)
            n_nodes.append(total)
        from ..kernel.filters import get_tag_values

        names = get_tag_values(batch, "name", "tags")
        return pa.table(
            {
                "id": batch["id"],
                "name": pa.array(names.tolist(), pa.string()),
                "n_ways": pa.compute.cast(
                    pa.compute.list_value_length(batch["way_ids"]), pa.int64()
                ),
                "n_stops": pa.compute.cast(
                    pa.compute.list_value_length(batch["stop_ids"]), pa.int64()
                ),
                "n_nodes": pa.array(n_nodes, pa.int64()),
            }
        )

    out = tables.relations.map_batches(count, batch_format="pyarrow")
    import pyarrow as _pa

    tbl = _pa.concat_tables(
        list(out.iter_batches(batch_size=1 << 16, batch_format="pyarrow"))
    )
    return tbl


__all__ = [
    "get_relation_by_id",
    "iter_relations",
    "par_map_relations",
    "parser_summary",
]
