"""Literal .osm.pbf binary source — decode + end-to-end parity.

Gated on the reference's own fixture (`/root/reference/tests/test.pbf`,
12,859 bytes; 563 nodes / 126 ways / 2 relations) and its integration
test expectations (reference tests/integration_test.rs:5-18).
"""

import hashlib
import json
import os

import numpy as np
import pytest

PBF = "/root/reference/tests/test.pbf"

# only the tests that open PBF need the file; the wire-format unit test runs
# everywhere
needs_pbf = pytest.mark.skipif(
    not os.path.exists(PBF), reason="reference fixture PBF not available"
)


class TestWireFormat:
    def test_packed_varints_vectorized(self):
        from osmptparser_ray.sources.pbf import _packed_varints_np, _zigzag_np

        # hand-rolled reference decode of a known byte string
        vals = [0, 1, 127, 128, 300, 1 << 21, (1 << 35) + 7]
        buf = b""
        for v in vals:
            while True:
                b = v & 0x7F
                v >>= 7
                buf += bytes([b | (0x80 if v else 0)])
                if not v:
                    break
        got = _packed_varints_np(buf)
        assert got.tolist() == [0, 1, 127, 128, 300, 1 << 21, (1 << 35) + 7]
        # zigzag round trip
        sv = np.array([0, -1, 1, -2, 2, 2**40, -(2**40)], np.int64)
        enc = ((sv << 1) ^ (sv >> 63)).astype(np.uint64)
        assert _zigzag_np(enc).tolist() == sv.tolist()

    @needs_pbf
    def test_blob_scan(self):
        from osmptparser_ray.sources.pbf import scan_pbf_blobs

        blobs = scan_pbf_blobs(PBF)
        assert len(blobs) >= 1
        size = os.path.getsize(PBF)
        for off, sz in blobs:
            assert 0 < off < size and off + sz <= size


class TestDecodeParity:
    @needs_pbf
    def test_elements_match_fixture_json(self, ray_session):
        """Every element decoded from the binary must equal the committed
        fixture JSON (produced by the standalone tools/decode_pbf.py) —
        ids, coords, tags, info, refs, member lists."""
        from osmptparser_ray.fixtures import load_osm_fixture
        from osmptparser_ray.sources.pbf import read_pbf_elements

        fx = load_osm_fixture()
        rows = read_pbf_elements(PBF).take_all()
        nodes = {r["id"]: r for r in rows if r["kind"] == "node"}
        ways = {r["id"]: r for r in rows if r["kind"] == "way"}
        rels = {r["id"]: r for r in rows if r["kind"] == "relation"}
        assert (len(nodes), len(ways), len(rels)) == (563, 126, 2)
        for n in fx["nodes"]:
            got = nodes[n["id"]]
            assert got["lat"] == pytest.approx(n["lat"], abs=1e-12)
            assert got["lon"] == pytest.approx(n["lon"], abs=1e-12)
            assert dict(got["tags"]) == n["tags"]
        for w in fx["ways"]:
            got = ways[w["id"]]
            assert list(got["node_refs"]) == w["node_refs"]
            assert dict(got["tags"]) == w["tags"]
            assert dict(got["info"]) == w["info"]
        for r in fx["relations"]:
            got = rels[r["id"]]
            assert dict(got["tags"]) == r["tags"]
            assert dict(got["info"]) == r["info"]
            members = [
                {"role": ro, "ref": mr, "mtype": mt}
                for ro, mr, mt in zip(
                    got["member_roles"], got["member_refs"], got["member_types"]
                )
            ]
            assert members == r["members"]


class TestEndToEnd:
    @needs_pbf
    def test_ptv2_integration_parity(self, ray_session):
        """Parser::new_ptv2("tests/test.pbf") + get_public_transports(1500)
        observable contract (integration_test.rs:5-18): 2 relations, stop
        counts, statuses, and the exact 90-point geometry."""
        from osmptparser_ray.pipelines.ptv2 import public_transports_from_pbf

        pts = sorted(
            public_transports_from_pbf(PBF, gap=1500.0).take_all(),
            key=lambda r: r["id"],
        )
        assert [p["id"] for p in pts] == [85965, 2030162]
        a, b = pts
        assert a["status_code"] == 501 and a["geometry"] == []
        assert len(a["stops"]) == 31
        info = dict(a["info"])
        assert info["version"] == "226" and info["timestamp"] == "1552883955"
        assert b["status_code"] == 0 and len(b["geometry"]) == 1
        coords = [[p["lon"], p["lat"]] for p in b["geometry"][0]]
        assert len(coords) == 90
        md5 = hashlib.md5(json.dumps(coords).encode()).hexdigest()
        assert md5 == "5f2c2cb539fcaa715a03eba1f887a2a4"

    @needs_pbf
    def test_pbf_equals_pages_pipeline(self, ray_session, tmp_path):
        """Same relations through the PBF source and the page-corpus
        source must produce identical PT rows (shared downstream)."""
        from osmptparser_ray.pipelines.ptv2 import (
            public_transports_from_pages,
            public_transports_from_pbf,
        )
        from osmptparser_ray.sources import synthesize_pages_parquet

        p = str(tmp_path / "pages.parquet")
        synthesize_pages_parquet(p, replicas=1)

        def canon(ds):
            return sorted(
                (
                    r["id"],
                    r["status_code"],
                    tuple(sorted(dict(r["tags"]).items())),
                    tuple(s["id"] for s in r["stops"]),
                    tuple(
                        tuple((pt["lon"], pt["lat"]) for pt in seg)
                        for seg in r["geometry"]
                    ),
                )
                for r in ds.take_all()
            )

        a = canon(public_transports_from_pbf(PBF, gap=1500.0))
        b = canon(public_transports_from_pages(p, gap=1500.0))
        assert a == b and len(a) == 2


class TestKindNarrowBlocks:
    @needs_pbf
    def test_ingest_plan_on_pbf_source_matches_one_block(self, ray_session):
        """REGRESSION (round-5 / VERDICT r4 #1): the PBF source emits
        kind-NARROW blocks (each blob is single-kind), so per-kind empties
        of the kind split used to lose columns — and Ray's map operator
        additionally emits COLUMNLESS ``()`` blocks for zero-row pyarrow
        UDF outputs, which crashed ``_split_idset_block`` /
        ``_split_node_block``. Read at a high block count so every blob is
        its own block, and compare against the same elements in one
        block."""
        from osmptparser_ray.kernel.filters import PTV2
        from osmptparser_ray.sources.pbf import read_pbf_elements
        from osmptparser_ray.stages.assemble import get_public_transports
        from osmptparser_ray.stages.elements import build_parser_tables

        t_narrow = build_parser_tables(read_pbf_elements(PBF, override_num_blocks=16), PTV2)
        t_one = build_parser_tables(read_pbf_elements(PBF).repartition(1), PTV2)
        for name in ("relations", "ways", "nodes"):
            a = sorted(r["id"] for r in getattr(t_narrow, name).take_all())
            b = sorted(r["id"] for r in getattr(t_one, name).take_all())
            assert a == b, name
        # the full assembly (node-index shards see the ()-blocks too)
        pts = sorted(
            get_public_transports(t_narrow, 1500.0).take_all(),
            key=lambda r: r["id"],
        )
        assert [p["id"] for p in pts] == [85965, 2030162]
        assert pts[1]["status_code"] == 0 and len(pts[1]["geometry"][0]) == 90


class TestMultiBlobParallelism:
    @needs_pbf
    def test_concatenated_pbf_decodes_blob_parallel(self, ray_session, tmp_path):
        """A PBF is a plain sequence of length-prefixed blobs, so
        concatenating the fixture with itself yields a legal 4x file with
        12 OSMData blobs (interleaved OSMHeader blobs must be skipped by
        the scan). Element multiplicity follows the reference cache
        semantics the downstream pipeline already implements: nodes and
        member ways dedup last-wins, relations Vec-extend (duplicates
        kept) — so the PT output has 4 copies of each relation, each with
        the single-copy geometry/status."""
        import numpy as np

        from osmptparser_ray.pipelines.ptv2 import public_transports_from_pbf
        from osmptparser_ray.sources.pbf import read_pbf_elements, scan_pbf_blobs

        raw = open(PBF, "rb").read()
        big = tmp_path / "x4.osm.pbf"
        big.write_bytes(raw * 4)
        blobs = scan_pbf_blobs(str(big))
        assert len(blobs) == 12  # 3 OSMData blobs x 4, headers skipped

        els = read_pbf_elements(str(big))
        counts = {}
        for r in els.take_all():
            counts[r["kind"]] = counts.get(r["kind"], 0) + 1
        assert counts == {"node": 563 * 4, "way": 126 * 4, "relation": 2 * 4}

        pts = sorted(
            public_transports_from_pbf(str(big), gap=1500.0).take_all(),
            key=lambda r: r["id"],
        )
        assert [p["id"] for p in pts] == [85965] * 4 + [2030162] * 4
        for p in pts:
            if p["id"] == 2030162:
                assert p["status_code"] == 0 and len(p["geometry"][0]) == 90
            else:
                assert p["status_code"] == 501 and len(p["stops"]) == 31
