"""Golden OSM element fixture (decoded from the reference's tests/test.pbf
via tools/decode_pbf.py; provenance: reference README.md:38-45 — relations
85965 and 2030162 cut from ecuador-latest.osm.pbf).

563 nodes / 126 ways / 2 relations. Used by the test suite and by the
deterministic page-corpus synthesizer.
"""

from __future__ import annotations

import json
import os
from functools import lru_cache

_HERE = os.path.dirname(__file__)
FIXTURE_PATH = os.path.join(_HERE, "osm_fixture.json")


@lru_cache(maxsize=1)
def load_osm_fixture() -> dict:
    """Return {'nodes': [...], 'ways': [...], 'relations': [...]} dicts."""
    with open(FIXTURE_PATH, encoding="utf-8") as f:
        return json.load(f)


def fixture_elements(pbf_path: str | None = None):
    """The fixture's 563 nodes / 126 ways / 2 relations as a materialized
    ELEMENT_SCHEMA dataset: read from ``pbf_path`` (the PBF the fixture
    was decoded from) where that file exists, else built from the
    committed JSON through the package's own XML path."""
    import ray.data as rd

    if pbf_path is not None and os.path.exists(pbf_path):
        from ..sources.pbf import read_pbf_elements

        return read_pbf_elements(pbf_path).materialize()
    from ..sources.osmxml import columns_to_table, elements_to_xml, empty_columns, parse_osm_payload

    fx = load_osm_fixture()
    cols = empty_columns()
    parse_osm_payload(elements_to_xml(fx["nodes"], fx["ways"], fx["relations"]), cols)
    return rd.from_arrow(columns_to_table(cols)).materialize()


def resolved_relation_ways(fixture: dict, relation_id: int) -> list[dict]:
    """Member ways of a relation, in member order, missing refs dropped —
    mirrors the reference's silent-filter resolution (mod.rs:664-702)."""
    ways_by_id = {w["id"]: w for w in fixture["ways"]}
    nodes_by_id = {n["id"]: n for n in fixture["nodes"]}
    rel = next(r for r in fixture["relations"] if r["id"] == relation_id)
    out = []
    for m in rel["members"]:
        if m["mtype"] != 1 or m["ref"] not in ways_by_id:
            continue
        w = ways_by_id[m["ref"]]
        refs = [nid for nid in w["node_refs"] if nid in nodes_by_id]
        out.append(
            {
                "id": w["id"],
                "node_ids": refs,
                "lats": [nodes_by_id[nid]["lat"] for nid in refs],
                "lons": [nodes_by_id[nid]["lon"] for nid in refs],
            }
        )
    return out
