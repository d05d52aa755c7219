"""End-to-end pipeline golden tests: pages → extract → tables → flatten.

Reproduces the reference's integration test
(reference tests/integration_test.rs:1-19: new_ptv2 + get_public_transports
at gap=1500, sorted by id) plus derived geometry goldens.
"""

import hashlib
import json

import pyarrow.parquet as pq
import pytest

from osmptparser_ray.sources import synthesize_pages_parquet
from osmptparser_ray.sources.extract import extract_text
from osmptparser_ray.sources.geojson import to_geojson_area, to_geojson_pt


@pytest.fixture(scope="module")
def pages_path(tmp_path_factory):
    p = tmp_path_factory.mktemp("pages") / "pages.parquet"
    return synthesize_pages_parquet(str(p), replicas=1)


@pytest.fixture(scope="module")
def pt_rows(ray_session, pages_path):
    from osmptparser_ray.pipelines.ptv2 import public_transports_from_pages

    ds = public_transports_from_pages(pages_path, gap=1500.0)
    return sorted(ds.take_all(), key=lambda r: r["id"])


class TestByteIdenticalExtraction:
    def test_every_url(self, pages_path):
        t = pq.read_table(pages_path)
        for html, text in zip(t["html"].to_pylist(), t["text"].to_pylist()):
            assert extract_text(html) == text


class TestIntegrationGolden:
    """Assertions mirroring reference tests/integration_test.rs:9-18."""

    def test_schema(self, ray_session, pages_path):
        """The output schema is PT_SCHEMA exactly: stops typed
        list<struct<..., tags: map<string,string>>>, not whatever pyarrow
        infers from raw python lists."""
        from osmptparser_ray.pipelines.ptv2 import public_transports_from_pages
        from osmptparser_ray.stages.assemble import PT_SCHEMA

        ds = public_transports_from_pages(pages_path, gap=1500.0)
        assert ds.schema().base_schema.equals(PT_SCHEMA)

    def test_two_relations(self, pt_rows):
        assert [r["id"] for r in pt_rows] == [85965, 2030162]

    def test_85965(self, pt_rows):
        r = pt_rows[0]
        tags, info = dict(r["tags"]), dict(r["info"])
        assert tags["name"] == "Trolebus Quitumbe => La Y"
        assert info["version"] == "226"
        assert info["timestamp"] == "1552883955"
        assert len(r["stops"]) == 31
        # derived goldens (platform ways break the chain)
        assert r["status_code"] == 501 and r["status_detail"] == "Broken"
        assert r["geometry"] == []

    def test_2030162(self, pt_rows):
        r = pt_rows[1]
        tags, info = dict(r["tags"]), dict(r["info"])
        assert tags["name"] == "B6 Mapasingue Oeste Ida"
        assert info["version"] == "13"
        assert info["timestamp"] == "1555013271"
        assert len(r["stops"]) == 1
        stop = r["stops"][0]
        assert stop["id"] == 2718725392
        assert dict(stop["tags"])["name"] == "Mapasingue"
        assert r["status_code"] == 0
        coords = [(p["lon"], p["lat"]) for p in r["geometry"][0]]
        assert len(coords) == 90
        md5 = hashlib.md5(json.dumps(coords).encode()).hexdigest()
        assert md5 == "5f2c2cb539fcaa715a03eba1f887a2a4"


class TestReplicaScaling:
    def test_two_replicas(self, ray_session, tmp_path):
        from osmptparser_ray.pipelines.ptv2 import public_transports_from_pages

        p = str(tmp_path / "pages2.parquet")
        synthesize_pages_parquet(p, replicas=2)
        ds = public_transports_from_pages(p, gap=1500.0)
        rows = sorted(ds.take_all(), key=lambda r: r["id"])
        assert len(rows) == 4
        by_status = sorted(r["status_code"] for r in rows)
        assert by_status == [0, 0, 501, 501]
        # replica 1's OK route has the same node count and shifted coords
        ok = [r for r in rows if r["status_code"] == 0]
        assert all(len(r["geometry"][0]) == 90 for r in ok)


class TestAreas:
    def test_areas_highway_ways(self, ray_session, pages_path):
        """Filter 'highway' selects standalone ways; relations don't match."""
        from osmptparser_ray.pipelines.ptv2 import areas_from_pages

        ds = areas_from_pages(pages_path, gap=150.0, filters="highway")
        rows = ds.take_all()
        assert all(r["id_type"] == "w" for r in rows)
        assert len(rows) > 0
        # Broken at the flatten level ⇒ geometry []; Broken at the
        # ring-closing level ⇒ the EMPTY ring is still pushed ⇒ [[]]
        # (reference relation.rs:297 pushes w_closed even when broken)
        for r in rows:
            if r["status_code"] == 501:
                assert all(len(ring) == 0 for ring in r["geometry"])

    def test_cli_parity_filter(self, ray_session, pages_path):
        from osmptparser_ray.pipelines.ptv2 import areas_from_pages

        all_rows = areas_from_pages(pages_path, gap=150.0, filters="highway").take_all()
        cli_rows = areas_from_pages(
            pages_path, gap=150.0, filters="highway", cli_parity=True
        ).take_all()
        expected = [r for r in all_rows if r["status_code"] == 0 and len(r["geometry"]) > 0]
        assert len(cli_rows) == len(expected)


class TestGeojson:
    def test_pt_geojson_structure(self, pt_rows):
        g = json.loads(to_geojson_pt(pt_rows[1]))
        assert g["type"] == "FeatureCollection"
        assert g["properties"]["id"] == 2030162
        assert g["properties"]["parse_status"] == {"code": 0, "detail": ""}
        line = g["features"][0]
        assert line["geometry"]["type"] == "LineString"
        assert len(line["geometry"]["coordinates"][0]) == 90
        stops = g["features"][1]["features"]
        assert len(stops) == 1
        assert stops[0]["geometry"]["coordinates"] == [-79.93008490000001, -2.1555106]

    def test_area_geojson_structure(self, ray_session, pages_path):
        from osmptparser_ray.pipelines.ptv2 import areas_from_pages

        rows = areas_from_pages(pages_path, gap=150.0, filters="highway").take_all()
        g = json.loads(to_geojson_area(rows[0]))
        assert g["type"] == "Feature"
        assert g["geometry"]["type"] == "Polygon"
        assert g["properties"]["id_type"] == "w"
