"""PBF writer (round-3, VERDICT r2 "What's missing #1"): write → re-read
round-trip parity with read_pbf_elements on the fixture tables."""

import os

import pyarrow as pa
import ray.data as rd

from osmptparser_ray.fixtures import fixture_elements
from osmptparser_ray.sources.pbf import read_pbf_elements
from osmptparser_ray.sources.pbf_write import write_pbf, write_pbf_shards

REF_PBF = "/root/reference/tests/test.pbf"


def _canon(ds):
    # collect through ARROW, not Dataset.to_pandas: Ray's pandas conversion
    # sometimes casts list columns to its TensorArray extension (block-order
    # dependent with uuid-named shards) and crashes on ragged lists
    import pyarrow as pa

    tabs = list(ds.iter_batches(batch_size=1 << 20, batch_format="pyarrow"))
    tab = pa.concat_tables(tabs) if tabs else None
    df = tab.to_pandas()
    for c in df.columns:
        if df[c].map(lambda v: isinstance(v, (list, dict))).any():
            df[c] = df[c].map(lambda v: repr(v) if v is not None else None)
    return (
        df.sort_values(["kind", "id"], kind="stable")
        .reset_index(drop=True)[sorted(df.columns)]
    )


class TestPbfRoundTrip:
    def test_reference_fixture_round_trip(self, ray_session, tmp_path):
        """fixture elements → write → re-read: identical content (order
        canonicalized by (kind, id) — the writer regroups each block
        nodes→ways→relations per the one-type-per-group rule). The elements
        come from the reference test.pbf where it exists, otherwise from the
        committed JSON that tools/decode_pbf.py decoded from it."""
        orig = fixture_elements(REF_PBF)
        out = str(tmp_path / "roundtrip.osm.pbf")
        write_pbf(orig, out, batch_size=200)  # multiple blobs
        back = read_pbf_elements(out)
        a, b = _canon(orig), _canon(back)
        assert len(a) == len(b) == 563 + 126 + 2
        import pandas as pd

        pd.testing.assert_frame_equal(a, b)

    def test_uncompressed_round_trip(self, ray_session, tmp_path):
        orig = fixture_elements(REF_PBF)
        out = str(tmp_path / "raw.osm.pbf")
        write_pbf(orig, out, compress=False)
        back = read_pbf_elements(out)
        assert _canon(orig).equals(_canon(back))

    def test_sharded_round_trip(self, ray_session, tmp_path):
        orig = fixture_elements(REF_PBF)
        out_dir = str(tmp_path / "shards")
        write_pbf_shards(orig, out_dir, batch_size=300)
        shards = sorted(os.listdir(out_dir))
        assert len(shards) >= 1 and all(s.endswith(".osm.pbf") for s in shards)
        parts = [read_pbf_elements(os.path.join(out_dir, s)).materialize() for s in shards]
        back = parts[0]
        for p in parts[1:]:
            back = back.union(p)
        assert _canon(orig).equals(_canon(back))

    def test_pages_extraction_round_trip(self, ray_session, tmp_path):
        """elements extracted from the page corpus survive PBF export →
        re-import (cross-SOURCE parity: XML-extracted == PBF-reread)."""
        from osmptparser_ray.sources.pages import synthesize_pages_table
        from osmptparser_ray.stages.elements import extract_elements

        elements = extract_elements(
            rd.from_arrow(synthesize_pages_table(replicas=1)), validate=True
        ).materialize()
        out = str(tmp_path / "from_pages.osm.pbf")
        write_pbf(elements, out)
        back = read_pbf_elements(out)
        import pandas as pd

        pd.testing.assert_frame_equal(_canon(elements), _canon(back))


class TestSlicedBatchEncode:
    def test_sliced_tags_column_round_trip(self):
        """encode_primitive_block must address the tags MapArray's children
        with the offsets pyarrow actually pairs with them — rebasing offsets
        to 0 while .keys/.items return full un-sliced children emits the
        WRONG key/value strings on any non-zero-offset column (ADVICE r3
        #4). Build the batch from a sliced MapArray to pin the invariant."""
        from osmptparser_ray.sources.osmxml import ELEMENT_SCHEMA
        from osmptparser_ray.sources.pbf import decode_primitive_block
        from osmptparser_ray.sources.pbf_write import encode_primitive_block

        rows = [
            {
                "kind": "node", "id": i + 1, "lat": float(i), "lon": float(-i),
                "tags": [(f"k{i}", f"v{i}")], "info": [],
                "node_refs": None, "member_roles": None,
                "member_refs": None, "member_types": None,
            }
            for i in range(5)
        ]
        full = pa.Table.from_pylist(rows, schema=ELEMENT_SCHEMA)
        sliced = full.slice(2, 3)  # tags offsets no longer start at 0
        dec = decode_primitive_block(encode_primitive_block(sliced))
        assert dec["id"].to_pylist() == [3, 4, 5]
        assert dec["tags"].to_pylist() == [
            [("k2", "v2")], [("k3", "v3")], [("k4", "v4")]
        ]
