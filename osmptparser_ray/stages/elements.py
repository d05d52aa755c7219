"""Element tables: the Ray-Data-native equivalent of the reference's
3-pass ``Parser::new`` cache build (reference mod.rs:173-507).

The reference scans the same PBF file three times (relations → ways →
nodes), sharing ``Arc<RwLock<HashSet>>`` id-sets between passes. Here the
whole build is one graph of plain Ray tasks chained by object ref
(``util.block_tasks``, ``util.submit``): each input block is split by
kind once and its relations projected; merge tasks make the way and stop
id sets from those relation parts; the way and node projections then
run per block against them — the semi-joins J1/J2 of SURVEY.md §2.4, as
sorted broadcast id arrays passed as top-level task arguments. The
driver waits for none of it, and over materialized elements none of
this starts a streaming execution.
At 10^12-page scale the extracted element table is checkpointed to
partitioned Parquet instead of being re-derived per consumer
(``ingest_elements``), and ``id_set_mode="bloom"`` keeps the id sets
distributed.

Fidelity notes vs the reference:
* relations with zero way members are dropped (F8, mod.rs:253-257)
* member ways get an EMPTY info map when used for assembly (F9, mod.rs:337)
* standalone filter-matching ways with zero nodes are dropped (F10,
  mod.rs:380-388)
* member partition is ROLE-BLIND (F7, mod.rs:242-252): every node member is
  a stop, every way member is route geometry (platforms included)
* a way can be BOTH a relation member and a standalone filter match — the
  reference stores it in both caches; we keep one row with two flags
* duplicate ids across pages: nodes and member-ways dedup by id (last-wins
  HashMap semantics, mod.rs:422/494 — any-wins here since payloads are
  identical); relations and standalone ways are NOT deduped (Vec extend)
"""

from __future__ import annotations

from functools import partial

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data as rd

from ..kernel.filters import TagFilter
from ..sources.extract import extract_batch
from ..sources.osmxml import ELEMENT_SCHEMA
from ..util import (
    block_refs,
    block_tasks,
    concat_columns,
    dataset_of,
    equi_join,
    group_agg,
    map_blocks,
    submit,
)
from .bloom import BloomFilter, bloom_of


def read_pages(
    path: str, validate: bool = True, include_url: bool = False, **read_kwargs
) -> rd.Dataset:
    """Read the pages corpus with column pruning (only what extraction needs).

    ``validate=False`` skips the ``text`` column entirely (~40% of the
    corpus bytes) — the byte-identical invariant is enforced by the test
    suite and the correctness-gate queries, not by every production run.

    ``override_num_blocks`` defaults to 2× the CPU count: downstream
    parallelism (one ingest task per page block) equals the BLOCK count,
    and a small single-file corpus would otherwise read as one block and
    serialize the whole extraction stage onto one worker. (At 100 TB the input is many files and
    the default block sizing is already right — pass
    ``override_num_blocks=None`` through ``read_kwargs`` to disable.)
    """
    columns = ["html"]
    if validate:
        columns = ["url", "html", "text"]
    elif include_url:
        columns = ["url", "html"]
    if "override_num_blocks" not in read_kwargs:
        cpus = int(ray.cluster_resources().get("CPU", 4))
        read_kwargs["override_num_blocks"] = 2 * cpus
    if read_kwargs.get("override_num_blocks") is None:
        read_kwargs.pop("override_num_blocks")
    return rd.read_parquet(path, columns=columns, **read_kwargs)


def read_pages_jsonl(path: str, validate: bool = True) -> rd.Dataset:
    """Read a JSONL page corpus (url, warc_ts iso, html_b64, text, lang) and
    decode to the standard pages schema — the alternate source format."""
    ds = rd.read_json(path)

    def decode(batch: pa.Table) -> pa.Table:
        import base64

        htmls = [base64.b64decode(h) for h in batch["html_b64"].to_pylist()]
        cols = {
            "url": batch["url"],
            "html": pa.array(htmls, pa.binary()),
        }
        if validate and "text" in batch.column_names:
            cols["text"] = batch["text"]
        return pa.table(cols)

    return ds.map_batches(decode, batch_format="pyarrow")


def extract_elements(
    pages: rd.Dataset,
    *,
    include_url: bool = False,
    validate: bool = True,
    batch_size: int = 1024,
) -> rd.Dataset:
    """pages → unified element rows.

    Stateless tasks with per-worker-process extractor caching (see
    sources.extract.extract_batch) — actor-pool dispatch overhead would
    cap throughput here.

    ``batch_size`` default from the round-5 contention experiment
    (interleaved A/B, 13.8M elements / 32 cpus, medians of 3): 64 →
    6.77 s, 256 → 5.22 s, 1024 → 4.40 s, 4096 → 5.81 s. Bigger batches
    win until task count drops below what load-balancing needs — the
    "smaller read batches parse hot-in-cache" hypothesis (NOTES_ROUND4
    #1) is REFUTED at this scale; dispatch overhead dominates cache
    effects.
    """
    return pages.map_batches(
        partial(extract_batch, include_url=include_url, validate=validate),
        batch_format="pyarrow",
        batch_size=batch_size,
    )


def _project_relations(batch: pa.Table, filters: str) -> pa.Table:
    """kind=relation rows → RelationData projection (F5/F7/F8) with DSL
    filter (F1). Stateless task fn — TagFilter compile is trivial."""
    batch = batch.filter(pc.equal(batch["kind"], "relation"))
    if batch.num_rows == 0:
        return _empty_relations_table()
    mask = TagFilter(filters).mask_table(batch, "tags")
    batch = batch.filter(pa.array(mask))
    if batch.num_rows == 0:
        return _empty_relations_table()
    # role-blind member partition (F7), vectorized via Arrow offsets —
    # round-3: the old per-relation Python loop over to_pylist members was
    # 0.28 s/1M-element batch, ~50% of this stage's wall time
    n = batch.num_rows
    refs_col = batch["member_refs"].combine_chunks()
    types_col = batch["member_types"].combine_chunks()
    offs = np.asarray(refs_col.offsets, np.int64)
    offs = offs - offs[0]
    flat_refs = refs_col.flatten().to_numpy(zero_copy_only=False)
    flat_types = types_col.flatten().to_numpy(zero_copy_only=False)
    rel_of = np.repeat(np.arange(n, dtype=np.int64), np.diff(offs))

    def _partition(kind_code: int) -> pa.ListArray:
        m = flat_types == kind_code
        counts = np.bincount(rel_of[m], minlength=n)
        loffs = np.zeros(n + 1, np.int32)
        np.cumsum(counts, out=loffs[1:])
        return pa.ListArray.from_arrays(
            pa.array(loffs, pa.int32()),
            pa.array(flat_refs[m], pa.int64()),
        )

    out = pa.table(
        {
            "id": batch["id"],
            "tags": batch["tags"],
            "info": batch["info"],
            "way_ids": _partition(1),
            "stop_ids": _partition(0),
        }
    )
    # F8: drop relations without way members
    keep = pc.greater(pc.list_value_length(out["way_ids"]), 0)
    return out.combine_chunks().filter(keep)


def _empty_relations_table() -> pa.Table:
    return pa.table(
        {
            "id": pa.array([], pa.int64()),
            "tags": pa.array([], pa.map_(pa.string(), pa.string())),
            "info": pa.array([], pa.map_(pa.string(), pa.string())),
            "way_ids": pa.array([], pa.list_(pa.int64())),
            "stop_ids": pa.array([], pa.list_(pa.int64())),
        }
    )


def _project_ways(batch: pa.Table, way_ids: np.ndarray, filters: str) -> pa.Table:
    """kind=way rows → way projection with is_member / is_standalone flags.

    ``way_ids`` is the SORTED member-way id array (broadcast semi-join J1;
    a top-level argument of the block task), or their Bloom filter.
    Standalone selection applies the DSL filter (F2) and drops zero-node
    ways (F10).
    """
    ids = batch["id"].to_numpy(zero_copy_only=False)
    is_member = _isin_idset(ids, (way_ids,))
    matches = TagFilter(filters).mask_table(batch, "tags")
    n_nodes = pc.list_value_length(batch["node_refs"]).to_numpy(zero_copy_only=False)
    is_standalone = matches & (n_nodes > 0)
    keep = is_member | is_standalone
    out = pa.table(
        {
            "id": batch["id"],
            "tags": batch["tags"],
            "info": batch["info"],
            "node_refs": batch["node_refs"],
            "is_member": pa.array(is_member),
            "is_standalone": pa.array(is_standalone),
        }
    )
    return out.combine_chunks().filter(pa.array(keep))


def _project_nodes(batch: pa.Table, *node_ids) -> pa.Table:
    """kind=node rows ⋉ referenced-node-ids (broadcast semi-join J2).

    ``node_ids``: the hash-bucketed id shards (``_idset_shard``), one
    sorted int64 array, or one Bloom filter."""
    keep = _isin_idset(batch["id"].to_numpy(zero_copy_only=False), node_ids)
    out = pa.table(
        {
            "id": batch["id"],
            "lat": batch["lat"],
            "lon": batch["lon"],
            "tags": batch["tags"],
        }
    )
    return out.combine_chunks().filter(pa.array(keep))


def _isin_sorted(values: np.ndarray, sorted_haystack: np.ndarray) -> np.ndarray:
    """Vectorized membership against a sorted int64 array (binary search)."""
    if len(sorted_haystack) == 0:
        return np.zeros(len(values), dtype=bool)
    idx = np.searchsorted(sorted_haystack, values)
    idx[idx >= len(sorted_haystack)] = len(sorted_haystack) - 1
    return sorted_haystack[idx] == values


def _filter_ids(block: pa.Table, ids: np.ndarray, column: str, member: bool = True) -> pa.Table:
    """The rows of ``block`` whose int64 ``column`` value is (``member``)
    or is not in the sorted id array ``ids``: the probe of the broadcast
    semi- and anti-joins."""
    hit = _isin_sorted(block[column].to_numpy(zero_copy_only=False).astype(np.int64), ids)
    return block.filter(pa.array(hit if member else ~hit))


# ---------------------------------------------------------------------------
# sharded broadcast id-sets (round-3): the big semi-join side built and
# merged entirely in Ray tasks — the driver-side concat + np.unique over
# ~10^7 ids was a measured ~2 s SERIAL gap on the flagship critical path
# (identical at every CPU count, so it taxed the scaling ratio exactly
# where it hurts). Shape mirrors assemble's node index shards.
# ---------------------------------------------------------------------------

_IDSET_PRIME = np.uint64(0x9E3779B97F4A7C15)


def _shard_count(per_cpu: float) -> int:
    """Shards of a hash-sharded index: ``per_cpu`` per Ray CPU, 2 to 16."""
    cpus = int(ray.cluster_resources().get("CPU", 4))
    return int(max(2, min(16, cpus * per_cpu)))


def _idset_bucket(ids: np.ndarray, P: int) -> np.ndarray:
    return (
        (np.ascontiguousarray(ids, dtype=np.int64).view(np.uint64) * _IDSET_PRIME)
        % np.uint64(P)
    ).astype(np.int64)


def _idset_pieces(vals: np.ndarray, P: int) -> tuple:
    """Sorted-unique ids → their P bucket pieces; selecting from a sorted
    array by mask keeps its order."""
    b = _idset_bucket(vals, P)
    return tuple(vals[b == p] for p in range(P))


def _idset_shard(p: int, P: int, extra: np.ndarray, *pieces) -> np.ndarray:
    """Shard ``p`` of ``P`` of a sharded id set: the bucket's pieces
    merged with its bucket of the sorted ids ``extra``."""
    return _merge_ids(extra[_idset_bucket(extra, P) == p], *pieces)


def _merge_ids(*parts) -> np.ndarray:
    """Sorted-unique int64 arrays → their sorted-unique union."""
    arrs = [p for p in parts if len(p)]
    if not arrs:
        return np.empty(0, np.int64)
    return np.unique(np.concatenate(arrs))


def _isin_idset(values: np.ndarray, shards) -> np.ndarray:
    """Membership of int64 values in a broadcast id-set given as its P
    hash-bucketed sorted shards (bucketed searchsorted — O(log n) per
    value); one shard is a plain sorted array, or a Bloom filter (whose
    false positives the caller resolves)."""
    if len(shards) == 1:
        one = shards[0]
        return one.contains(values) if isinstance(one, BloomFilter) else _isin_sorted(values, one)
    out = np.zeros(len(values), dtype=bool)
    if not len(values):
        return out
    b = _idset_bucket(values, len(shards))
    for p, shard in enumerate(shards):
        m = b == p
        if m.any():
            out[m] = _isin_sorted(values[m], shard)
    return out


def dedup_by_id(ds: rd.Dataset, num_partitions: int = 0) -> rd.Dataset:
    """Exact dedup by ``id`` — distributed realization of the reference's
    last-wins HashMap merge (mod.rs:422, 494); with identical duplicate
    payloads any-wins == last-wins.

    Round-3 rewrite (VERDICT r2 #3): the old ``map_groups(head(1))`` paid
    one pandas UDF call per unique id. New plan, mirroring ``exact_dedup``
    (aggregate, never per-group UDFs) while keeping the nested payload
    columns OUT of every shuffle (Acero rejects map/list non-key fields):

    1. per-block LOCAL first-wins (vectorized ``np.unique`` take) — kills
       within-block copies and tags each survivor with a unique uint64,
    2. ``group_agg`` ``Min(tag)``+``Count`` over the (id, tag) pairs
       only — payloads stay put,
    3. one task gathers the (id, winner-tag) pairs of DUPLICATE-BEARING
       ids (Count > 1) into two sorted arrays, which every block's filter
       task takes as a top-level argument; it keeps a row unless its id
       is duplicate-bearing and its tag lost.

    The winners' task holds O(#ids that actually have cross-block
    duplicates) — the duplicate volume, not the corpus. The output is
    materialized.
    """
    from ray.data.aggregate import Count, Min

    tagged, pairs = map_blocks(ds, _first_wins, num_returns=2)
    counts = group_agg(pairs, "id", Min("__tag", alias_name="__w"), Count(alias_name="__n"))
    return map_blocks(tagged, _keep_winners, submit(_winners, *block_tasks(counts, _dups)))


def _first_wins(batch: pa.Table) -> tuple:
    """``dedup_by_id`` step 1: a block's first row per id, tagged → (the
    tagged rows, their (id, tag) pairs)."""
    import os

    _, first_idx = np.unique(batch["id"].to_numpy(zero_copy_only=False), return_index=True)
    first_idx.sort()  # preserve batch order
    batch = batch.combine_chunks().take(pa.array(first_idx, pa.int64()))
    # unique survivor tag: 64 random bits per row (collision over the
    # whole corpus ≈ birthday(2^64) — negligible; a collision could
    # only duplicate-keep one row, never lose one, and duplicate
    # payloads are identical anyway)
    rng = np.random.default_rng(int.from_bytes(os.urandom(8), "little"))
    tagged = batch.append_column("__tag", pa.array(rng.integers(0, 1 << 62, size=batch.num_rows, dtype=np.int64)))
    return tagged, tagged.select(["id", "__tag"])


def _dups(t: pa.Table) -> tuple:
    t = t.filter(pc.greater(t["__n"], 1))
    return t["id"].to_numpy().astype(np.int64), t["__w"].to_numpy().astype(np.int64)


def _winners(*parts) -> tuple:
    """The (id, winner tag) pairs of the duplicate-bearing ids, sorted by id."""
    dup_ids, dup_w = concat_columns(parts, (np.int64, np.int64))
    order = np.argsort(dup_ids, kind="stable")
    return dup_ids[order], dup_w[order]


def _keep_winners(batch: pa.Table, winners: tuple) -> pa.Table:
    """A tagged block less the rows of duplicate-bearing ids whose tag lost."""
    dids, dw = winners
    ids = batch["id"].to_numpy(zero_copy_only=False)
    tags = batch["__tag"].to_numpy(zero_copy_only=False)
    keep = np.ones(len(ids), bool)
    if len(dids):
        idx_c = np.minimum(np.searchsorted(dids, ids), len(dids) - 1)
        keep = (dids[idx_c] != ids) | (tags == dw[idx_c])
    return batch.combine_chunks().filter(pa.array(keep)).drop_columns(["__tag"])


class ParserTables:
    """The reference ``Parser`` cache as three tables, each read as a Ray
    Dataset.

    relations: id, tags, info, way_ids (ordered), stop_ids (ordered)
    ways:      id, tags, info, node_refs, is_member, is_standalone
    nodes:     id, lat, lon, tags  (semi-joined to referenced ids)

    A table is given as a Dataset or as a list of block refs, which is
    what the plan builds. Such a table becomes a (materialized) Dataset
    only when its attribute is read; later plan steps take its refs
    (``blocks``) as task arguments without waiting for them.
    ``stop_ids`` is the ref of the relations' sorted-unique stop ids,
    when the plan has one.
    """

    def __init__(self, relations, ways, nodes, *, stop_ids=None):
        given = {"relations": relations, "ways": ways, "nodes": nodes}
        self._refs = {k: t for k, t in given.items() if isinstance(t, list)}
        self._datasets = {k: t for k, t in given.items() if not isinstance(t, list)}
        self._stop_ids = stop_ids

    @property
    def relations(self) -> rd.Dataset:
        return self._dataset("relations")

    @property
    def ways(self) -> rd.Dataset:
        return self._dataset("ways")

    @property
    def nodes(self) -> rd.Dataset:
        return self._dataset("nodes")

    def _dataset(self, name: str) -> rd.Dataset:
        if name not in self._datasets:
            self._datasets[name] = dataset_of(self._refs[name], _EMPTY[name]())
        return self._datasets[name]

    def blocks(self, name: str) -> list:
        """The block refs of one table: the plan's own, or a Dataset's
        non-empty blocks (a lazy one runs here, once)."""
        if name not in self._refs:
            self._refs[name] = block_refs(self._datasets[name])
        return self._refs[name]

    def stop_ids(self):
        """The ref of the relations' sorted-unique stop ids, submitted
        without waiting: one task per relation block, one merge task."""
        if self._stop_ids is None:
            self._stop_ids = submit(
                _merge_ids, *block_tasks(self.blocks("relations"), _unique_ids, "stop_ids"))
        return self._stop_ids


_SPLIT_COLS = {
    "relation": ["kind", "id", "tags", "info", "member_refs", "member_types"],
    "way": ["kind", "id", "tags", "info", "node_refs"],
    "node": ["kind", "id", "lat", "lon", "tags"],
}


def _split_kinds(block: pa.Table) -> tuple:
    """One elements block → its relation / way / node rows, column-pruned;
    a column the block does not carry (kind-narrow sources) is null-filled
    at its canonical ELEMENT_SCHEMA type, never silently dropped."""
    out = []
    for kind, cols in _SPLIT_COLS.items():
        part = block.filter(pc.equal(block["kind"], kind))
        out.append(pa.table({
            c: part[c]
            if c in part.schema.names
            else pa.nulls(part.num_rows, ELEMENT_SCHEMA.field(c).type)
            for c in cols
        }))
    return tuple(out)


def _kind_parts(block: pa.Table, filters: str, prepare=None) -> tuple:
    """Step 1 of the plan, one task per input block: (``prepare`` the
    block into element rows, then) split it by kind → the
    ``_relation_parts`` of its relations, its raw way rows and its raw
    node rows."""
    if prepare is not None:
        block = prepare(block)
    relations, ways, nodes = _split_kinds(block)
    return (*_relation_parts(relations, filters), ways, nodes)


def _relation_parts(block: pa.Table, filters: str) -> tuple:
    """Relation rows → (their projection, its sorted-unique member-way
    ids, its sorted-unique stop ids)."""
    relations = _project_relations(block, filters)
    return relations, _unique_ids(relations, "way_ids"), _unique_ids(relations, "stop_ids")


def _way_part(block: pa.Table, way_ids: np.ndarray, filters: str, P: int) -> tuple:
    """Step 3, one task per way block: its projected ways (semi-join J1),
    then the ``P`` bucket pieces of the node ids they reference."""
    ways = _project_ways(block, way_ids, filters)
    return (ways, *_idset_pieces(_unique_ids(ways, "node_refs"), P))


def _kind_empty(kind: str) -> pa.Table:
    return ELEMENT_SCHEMA.empty_table().select(_SPLIT_COLS[kind])


def _empty_ways() -> pa.Table:
    return _project_ways(_kind_empty("way"), np.empty(0, np.int64), "")


def _empty_nodes() -> pa.Table:
    return _project_nodes(_kind_empty("node"), np.empty(0, np.int64))


_EMPTY = {"relations": _empty_relations_table, "ways": _empty_ways, "nodes": _empty_nodes}


def build_parser_tables(
    elements: rd.Dataset,
    filters: str,
    *,
    dedup: bool = False,
    id_set_mode: str = "exact",
    bloom_fpr: float = 0.01,
) -> ParserTables:
    """elements Dataset → ParserTables, as one graph of plain tasks.

    1. one task per elements block splits it by kind and projects its
       relations (five returns: relations, their member-way ids, their
       stop ids, raw ways, raw nodes) — one relation block per input
       block, so no repartition is needed;
    2. one merge task each makes the member-way and the stop id set;
    3. one ``_way_part`` task per way block projects it (semi-join J1)
       and buckets the node ids its ways reference;
    4. one merge task per bucket makes a shard of the referenced node ids
       (way refs ∪ stop ids);
    5. one ``_project_nodes`` task per node block (semi-join J2).

    Every task takes its inputs as top-level arguments, so the driver
    submits the graph without waiting for any of it. The tables hold the
    output refs and become materialized datasets when read
    (``ParserTables``). The plan starts no streaming execution over
    materialized elements and exactly one (the elements' own) over lazy
    ones. ``dedup=True`` dedups ways and nodes by id (``dedup_by_id``),
    which waits for them.

    ``id_set_mode``:
    * ``"exact"`` (default) — the member-way / referenced-node id sets are
      sorted int64 arrays (8 B/key) passed to the projection tasks as
      top-level arguments: right up to the point a 10^10-key side
      outgrows one task's memory.
    * ``"bloom"`` — the at-scale fallback (round-3, VERDICT r2 #6): the id
      sets stay DISTRIBUTED (distinct-id datasets); each projection runs a
      Bloom prefilter (~1.2 B/key at fpr=1%, one task OR-merging
      per-block partial filters, a top-level argument of every
      projection task) followed by an EXACT id-only anti-join of the
      (bloom-shrunk) candidate ids against the distinct-id table — same
      ParserTables as "exact" (forced-parity tested), with the big
      broadcast replaced by a small filter + a join whose left side is
      ~matches + fpr·corpus instead of the whole corpus. It waits for
      the distinct-id sets and the anti-joins.
    """
    if id_set_mode not in ("exact", "bloom"):
        raise ValueError(f"id_set_mode must be 'exact' or 'bloom', got {id_set_mode!r}")
    if id_set_mode == "bloom":
        return _build_parser_tables_bloom(elements, filters, dedup=dedup, fpr=bloom_fpr)
    return _parser_tables_from_blocks(elements, filters, dedup=dedup)


def _parser_tables_from_blocks(
    blocks: rd.Dataset, filters: str, *, dedup: bool = False, prepare=None
) -> ParserTables:
    """The exact plan over element blocks — or over page blocks, with
    ``prepare`` (the extractor) run inside each step-1 task."""
    parts = block_tasks(blocks, _kind_parts, filters, prepare, num_returns=5)
    return _parser_tables_from_kinds(
        [p[:3] for p in parts], [p[3] for p in parts], [p[4] for p in parts], filters, dedup=dedup
    )


def _parser_tables_from_kinds(
    relation_parts: list,
    way_raw: list,
    node_raw: list,
    filters: str,
    *,
    dedup: bool = False,
) -> ParserTables:
    """Steps 2-5 of the plan: the ``_relation_parts`` refs of each
    relation block plus the refs of the raw way and node blocks
    (kind-split, ``_SPLIT_COLS``) → ParserTables, every step a task
    whose inputs are its top-level arguments; nothing waits here."""
    # NOTE: relations are NOT deduped even when dedup=True — the reference
    # extends a Vec (duplicate relation ids appear twice, mod.rs:293)
    way_ids = submit(_merge_ids, *[r[1] for r in relation_parts])
    stop_ids = submit(_merge_ids, *[r[2] for r in relation_parts])
    P = _shard_count(1)
    way_parts = block_tasks(way_raw, _way_part, way_ids, filters, P, num_returns=1 + P)
    # referenced node ids = way refs ∪ stop ids, hash-sharded and merged
    # in Ray tasks (round-3): a driver-side concat + np.unique over ~10^7
    # ids was a ~2 s serial critical-path gap
    node_ids = [
        submit(_idset_shard, p, P, stop_ids, *[w[1 + p] for w in way_parts]) for p in range(P)
    ]
    ways = [w[0] for w in way_parts]
    nodes = block_tasks(node_raw, _project_nodes, *node_ids)
    if dedup:
        ways = dedup_by_id(dataset_of(ways, _empty_ways())).materialize()
        nodes = dedup_by_id(dataset_of(nodes, _empty_nodes())).materialize()
    return ParserTables([r[0] for r in relation_parts], ways, nodes, stop_ids=stop_ids)


_ID_EMPTY = pa.schema([("id", pa.int64())]).empty_table()


def _id_table(block: pa.Table, column: str) -> pa.Table:
    """The values of an int64 (or list<int64>, flattened) column as one
    {"id"} table."""
    col = block[column]
    return pa.table({"id": (pc.list_flatten(col) if pa.types.is_list(col.type) else col).cast(pa.int64())})


def _member_ids(block: pa.Table) -> pa.Table:
    """The ids of a candidate way block's Bloom-passed member rows."""
    return _id_table(block.filter(block["is_member"]), "id")


def _distinct_ids(tables: list) -> rd.Dataset:
    """{"id"} tables (refs) → their distinct ids (``group_agg``), which
    never touch the driver."""
    return group_agg(dataset_of(tables, _ID_EMPTY), "id")


def _false_positives(candidate_ids: list, true_ids: rd.Dataset):
    """The ref of the SORTED candidate ids that are NOT true ids — the
    Bloom false-positive set, resolved by an id-only anti-join, so
    payload rows never cross a sort here, and gathered by one task.
    Expected size is fpr × |distinct corpus ids|."""
    fp = equi_join(dataset_of(candidate_ids, _ID_EMPTY), true_ids, "id", how="left_anti")
    return submit(_merge_ids, *block_tasks(fp, _unique_ids, "id"))


def _resolve_ways(block: pa.Table, fp: np.ndarray) -> pa.Table:
    """Candidate ways less the Bloom false positives: a false positive's
    row stays only as a standalone way."""
    is_member = pc.and_(block["is_member"], pa.array(~_isin_sorted(block["id"].to_numpy(zero_copy_only=False), fp)))
    at = block.schema.get_field_index("is_member")
    return block.set_column(at, "is_member", is_member).filter(pc.or_(is_member, block["is_standalone"]))


def _build_parser_tables_bloom(
    elements: rd.Dataset, filters: str, *, dedup: bool, fpr: float
) -> ParserTables:
    """The id_set_mode="bloom" realization of ``build_parser_tables``, as
    plain tasks after the exact plan's step 1 (``_kind_parts``).

    Plan per semi-join (J1 member ways, J2 referenced nodes):
    1. the distinct true ids stay DISTRIBUTED (``group_agg``, never on
       the driver),
    2. one task OR-merges per-block partial Bloom filters
       (``bloom.bloom_of``, ~1.2 B/key),
    3. the projection keeps bloom-passing rows (≈ matches + fpr·rest),
       one task per block with the filter as a top-level argument,
    4. the bloom FALSE POSITIVES are resolved exactly by an id-only
       anti-join of candidate ids vs true ids, gathered (fpr-sized) by
       one task and subtracted per block — payload (map/list) columns
       never enter a join, and the output tables are bit-identical to the
       exact path (forced-parity tested).
    """
    parts = block_tasks(elements, _kind_parts, filters, None, num_returns=5)
    relations = [p[0] for p in parts]

    way_ids = _distinct_ids(block_tasks(relations, _id_table, "way_ids"))
    way_bloom = bloom_of(way_ids, "id", way_ids.count(), fpr)
    candidates = block_tasks([p[3] for p in parts], _project_ways, way_bloom, filters)
    way_fp = _false_positives(block_tasks(candidates, _member_ids), way_ids)
    ways = block_tasks(candidates, _resolve_ways, way_fp)
    if dedup:
        ways = dedup_by_id(dataset_of(ways, _empty_ways()))

    node_ids = _distinct_ids(
        block_tasks(ways, _id_table, "node_refs") + block_tasks(relations, _id_table, "stop_ids"))
    node_bloom = bloom_of(node_ids, "id", node_ids.count(), fpr)
    candidates = block_tasks([p[4] for p in parts], _project_nodes, node_bloom)
    node_fp = _false_positives(block_tasks(candidates, _id_table, "id"), node_ids)
    nodes = block_tasks(candidates, _filter_ids, node_fp, "id", False)
    if dedup:
        nodes = dedup_by_id(dataset_of(nodes, _empty_nodes()))
    return ParserTables(relations, ways, nodes)


def _unique_ids(block: pa.Table, column: str) -> np.ndarray:
    """The sorted-unique int64 values of a column (of a list<int64>
    column, its flat values)."""
    col = block[column].combine_chunks()
    if pa.types.is_list(col.type):
        col = col.flatten()
    return np.unique(col.to_numpy(zero_copy_only=False).astype(np.int64))


def ingest_elements(
    pages_path: str,
    out_dir: str,
    *,
    validate: bool = True,
) -> str:
    """One-pass page scan → element parquet (the at-scale checkpoint).

    Partitioned parquet output (one file per block) — a failed run can
    resume by skipping finished partitions (see state.checkpoint).
    """
    pages = read_pages(pages_path, validate=validate)
    elements = extract_elements(pages, include_url=True, validate=validate)
    elements.write_parquet(out_dir)
    return out_dir


__all__ = [
    "ParserTables",
    "build_parser_tables",
    "dedup_by_id",
    "extract_elements",
    "ingest_elements",
    "read_pages",
]


def parser_tables_from_elements_parquet(
    elements_dir: str, filters: str, *, dedup: bool = False
) -> ParserTables:
    """ParserTables straight from an ``ingest_elements`` /
    ``resumable_ingest`` parquet checkpoint — the at-scale path for
    corpora too large to pin in the object store. The three kind reads
    feed the same plan as ``build_parser_tables``, in place of its
    step-1 kind split.

    Each kind is its OWN ``read_parquet`` with the kind predicate pushed
    into the scan and ``columns=`` pruned to that kind's projection
    needs — relations read member columns only, ways read node_refs,
    nodes read lat/lon; nothing reads the full row. (Predicate pushdown
    prunes row groups only as far as the writer clustered ``kind``; the
    column pruning applies regardless.)
    """
    import pyarrow.dataset as pds

    def kind_read(kind: str) -> rd.Dataset:
        return rd.read_parquet(
            elements_dir,
            columns=_SPLIT_COLS[kind],
            filter=pds.field("kind") == kind,
        )

    return _parser_tables_from_kinds(
        block_tasks(kind_read("relation"), _relation_parts, filters, num_returns=3),
        block_refs(kind_read("way")),
        block_refs(kind_read("node")),
        filters,
        dedup=dedup,
    )
