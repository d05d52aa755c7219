"""Resumable ingest + output pipelines: per-partition lineage on the main
data path (north_rule: "resumable from checkpoint with per-partition
lineage + metrics").

``resumable_ingest``: pages → element parquet, one output partition per
input page shard, written atomically with a manifest line (input shard,
rows, wall seconds). A rerun anti-joins the manifest and processes only
missing shards — kill the job at any point and rerun.

``flagship_to_parquet``: the stop→route spatial-join outputs written as
checkpointed partitions (one per component), so downstream consumers can
resume a partially produced result set.
"""

from __future__ import annotations

import os

import ray.data as rd

from ..state.checkpoint import PartitionRecord, run_partitioned
from ..stages.elements import extract_elements, read_pages


def page_shards(pages_dir: str) -> list[str]:
    """Input partitions = the corpus' parquet shard files."""
    if os.path.isfile(pages_dir):
        return [os.path.basename(pages_dir)]
    return sorted(f for f in os.listdir(pages_dir) if f.endswith(".parquet"))


def resumable_ingest(
    pages_dir: str,
    out_dir: str,
    *,
    validate: bool = False,
    shards_per_partition: int = 8,
) -> list[PartitionRecord]:
    """pages corpus → element parquet, resumable per input-shard group.

    Partition key = first shard name in the group; lineage records the full
    shard list. Rerun = only missing partitions are extracted.
    """
    shards = page_shards(pages_dir)
    groups = [
        shards[i : i + shards_per_partition]
        for i in range(0, len(shards), shards_per_partition)
    ]
    names = [g[0].replace(".parquet", "") for g in groups]
    by_name = dict(zip(names, groups))

    def make(partition: str) -> rd.Dataset:
        paths = [os.path.join(pages_dir, s) for s in by_name[partition]]
        return extract_elements(read_pages(paths, validate=validate), batch_size=512)

    return run_partitioned(
        names, make, out_dir, input_ref_of=lambda p: ",".join(by_name[p])
    )


def flagship_to_parquet(
    pages_dir: str,
    out_dir: str,
    *,
    validate: bool = False,
) -> list[PartitionRecord]:
    """Flagship spatial-join outputs as checkpointed parquet partitions."""
    from .spatial_join import stop_route_spatial_join

    out = stop_route_spatial_join(pages_dir, validate=validate)

    def make(component: str) -> rd.Dataset:
        return out[component]

    return run_partitioned(
        ["public_transports", "stops", "pip", "knn", "tiles"], make, out_dir,
        input_ref_of=lambda p: pages_dir,
    )
