"""Relation-type areas ('r' rows): admin-boundary relations through the
closed-ring pipeline, plus the elements-parquet resume path."""

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from osmptparser_ray.sources.pages import synthesize_admin_pages_parquet as _admin_pages_parquet


class TestRelationAreas:
    @pytest.fixture(scope="class")
    def rows(self, ray_session, tmp_path_factory):
        from osmptparser_ray.kernel.filters import AA
        from osmptparser_ray.pipelines.ptv2 import areas_from_pages

        p = str(tmp_path_factory.mktemp("aa") / "pages.parquet")
        _admin_pages_parquet(p)
        return areas_from_pages(p, gap=150.0, filters=AA).take_all()

    @pytest.fixture(scope="class")
    def areas(self, rows):
        return {r["id"]: r for r in rows}

    def test_two_relation_areas(self, rows):
        assert sorted((r["id"], r["id_type"]) for r in rows) == [(9000, "r"), (9001, "r")]

    def test_closable_ring_closed(self, areas):
        a = areas[9000]
        assert a["id_type"] == "r"
        # ways merge by shared id 3 (status 0), ring closed within 150m → 102
        assert a["status_code"] == 102
        ring = a["geometry"][0]
        assert ring[0] == ring[-1]  # closing point appended
        assert len(ring) == 5  # nodes 1,2,3,4 + repeat of 1
        assert dict(a["tags"])["admin_level"] == "8"
        assert dict(a["info"])["version"] == "3"

    def test_broken_ring(self, areas):
        b = areas[9001]
        # ways merge by id 12 → one segment; endpoints ~75km apart → 501,
        # and the empty ring is still pushed (relation.rs:297) → [[]]
        assert b["status_code"] == 501
        assert all(len(ring) == 0 for ring in b["geometry"])

    def test_cli_parity_drops_both(self, ray_session, tmp_path):
        from osmptparser_ray.kernel.filters import AA
        from osmptparser_ray.pipelines.ptv2 import areas_from_pages

        p = str(tmp_path / "pages.parquet")
        _admin_pages_parquet(p)
        rows = areas_from_pages(p, gap=150.0, filters=AA, cli_parity=True).take_all()
        # CLI keeps only status==0 — the 102 ring and the broken one both drop
        assert rows == []


class TestElementsParquetPath:
    def test_pipeline_from_ingested_elements(self, ray_session, tmp_path):
        """ingest to parquet → read back → same integration goldens
        (the at-scale checkpoint path: build_parser_tables over a lazy
        parquet read)."""
        import ray.data as rd

        from osmptparser_ray.kernel.filters import PTV2
        from osmptparser_ray.pipelines.ingest import resumable_ingest
        from osmptparser_ray.sources import synthesize_pages_parquet
        from osmptparser_ray.stages.assemble import get_public_transports
        from osmptparser_ray.stages.elements import build_parser_tables

        pages = str(tmp_path / "pages")
        synthesize_pages_parquet(pages, replicas=1, files=4)
        elements_dir = str(tmp_path / "elements")
        resumable_ingest(pages, elements_dir, shards_per_partition=2)

        elements = rd.read_parquet(elements_dir)
        tables = build_parser_tables(elements, PTV2)
        rows = sorted(
            get_public_transports(tables, 1500.0).take_all(), key=lambda r: r["id"]
        )
        assert [r["id"] for r in rows] == [85965, 2030162]
        assert rows[0]["status_code"] == 501 and len(rows[0]["stops"]) == 31
        assert rows[1]["status_code"] == 0 and len(rows[1]["geometry"][0]) == 90


class TestEngineIndependentGolden:
    def test_way_areas_match_scalar_transliteration(self, ray_session, tmp_path):
        """The 126-way areas_fixture golden must be reproduced by
        tools/derive_goldens.py — a scalar line-by-line transliteration of
        the reference algorithms (relation.rs:88-337) over the decoded
        fixture that imports NOTHING from the engine kernel. This makes
        the driver golden engine-independent: kernel and oracle can only
        agree if both match the reference."""
        import importlib.util
        import os

        spec = importlib.util.spec_from_file_location(
            "derive_goldens",
            os.path.join(os.path.dirname(__file__), "..", "tools", "derive_goldens.py"),
        )
        dg = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(dg)
        want = dg.derive_area_rows(gap=150.0, tag_filter="highway")

        from osmptparser_ray.pipelines.ptv2 import areas_from_pages
        from osmptparser_ray.sources import synthesize_pages_parquet

        p = str(tmp_path / "pages.parquet")
        synthesize_pages_parquet(p, replicas=1)
        ds = areas_from_pages(p, gap=150.0, filters="highway")
        got = sorted(
            (
                r["id"],
                r["id_type"],
                r["status_code"],
                len(r["geometry"]),
                sum(len(ring) for ring in r["geometry"]),
            )
            for r in ds.take_all()
        )
        assert got == want and len(got) == 126

    def test_raster_vector_matches_scalar_transliteration(self, ray_session, sf_dir):
        """Same engine-independence for the raster_vector golden: the tile
        cover of route 2030162 derived by the scalar transliteration (own
        per-bit Morton implementation) must equal the engine query."""
        import importlib.util
        import os

        spec = importlib.util.spec_from_file_location(
            "derive_goldens2",
            os.path.join(os.path.dirname(__file__), "..", "tools", "derive_goldens.py"),
        )
        dg = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(dg)
        want = dg.derive_raster_vector_rows()

        spec2 = importlib.util.spec_from_file_location(
            "_rayentry_rv",
            os.path.join(os.path.dirname(__file__), "..", "__ray_entry__.py"),
        )
        entry = importlib.util.module_from_spec(spec2)
        spec2.loader.exec_module(entry)
        got = sorted(
            (r["cell_hex"], r["route_id"])
            for r in entry.queries()["raster_vector"](sf_dir).take_all()
        )
        assert got == want and len(got) == 3


class TestParquetKindReads:
    def test_kind_reads_equal_one_read(self, ray_session, tmp_path):
        """parser_tables_from_elements_parquet (per-kind filtered+pruned
        reads fed into the ingest plan) must equal
        build_parser_tables(read_parquet(...)) and still pass the
        integration goldens."""
        import ray.data as rd

        from osmptparser_ray.kernel.filters import PTV2
        from osmptparser_ray.pipelines.ingest import resumable_ingest
        from osmptparser_ray.sources import synthesize_pages_parquet
        from osmptparser_ray.stages.assemble import get_public_transports
        from osmptparser_ray.stages.elements import (
            build_parser_tables,
            parser_tables_from_elements_parquet,
        )

        pages = str(tmp_path / "pages")
        synthesize_pages_parquet(pages, replicas=2, files=3)
        elements_dir = str(tmp_path / "elements")
        resumable_ingest(pages, elements_dir, shards_per_partition=2)

        a = parser_tables_from_elements_parquet(elements_dir, PTV2)
        b = build_parser_tables(rd.read_parquet(elements_dir), PTV2)
        for name in ("relations", "ways", "nodes"):
            ra = sorted(getattr(a, name).take_all(), key=lambda r: (r["id"],))
            rb = sorted(getattr(b, name).take_all(), key=lambda r: (r["id"],))
            assert ra == rb and len(ra) > 0, name

        rows = sorted(
            get_public_transports(a, 1500.0).take_all(), key=lambda r: r["id"]
        )
        # replicas=2: the fixture pair plus its id-shifted replica
        assert [r["id"] for r in rows] == [
            85965,
            2030162,
            1000000085965,
            1000002030162,
        ]
