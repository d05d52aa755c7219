"""Edge cases: empty corpora, zero-match filters, payload-free pages."""

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from osmptparser_ray.sources.pages import PAGES_SCHEMA


def _empty_pages(path: str, with_rows: bool):
    if with_rows:
        t = pa.table(
            {
                "url": pa.array(["https://x/1", "https://x/2"], pa.string()),
                "warc_ts": pa.array([0, 1], pa.timestamp("us")),
                "html": pa.array([b"<html>no payload</html>"] * 2, pa.binary()),
                "text": pa.array(["", ""], pa.string()),
                "lang": pa.array(["en", "es"], pa.string()),
            }
        )
    else:
        t = PAGES_SCHEMA.empty_table()
    pq.write_table(t, path)
    return path


class TestEmptyInputs:
    def test_no_payload_pages(self, ray_session, tmp_path):
        from osmptparser_ray.pipelines.ptv2 import public_transports_from_pages

        from osmptparser_ray.stages.assemble import PT_SCHEMA

        p = _empty_pages(str(tmp_path / "p.parquet"), with_rows=True)
        pt = public_transports_from_pages(p, gap=150.0)
        # no relations: an empty PT table that keeps its schema
        assert pt.count() == 0 and pt.schema().names == PT_SCHEMA.names

    def test_zero_row_corpus(self, ray_session, tmp_path):
        from osmptparser_ray.pipelines.ptv2 import areas_from_pages

        from osmptparser_ray.stages.assemble import AREA_SCHEMA

        p = _empty_pages(str(tmp_path / "p0.parquet"), with_rows=False)
        areas = areas_from_pages(p, gap=150.0, filters="highway")
        assert areas.count() == 0 and areas.schema().names == AREA_SCHEMA.names

    def test_filter_matches_nothing(self, ray_session, tmp_path):
        from osmptparser_ray.pipelines.ptv2 import public_transports_from_pages
        from osmptparser_ray.sources import synthesize_pages_parquet

        p = str(tmp_path / "fx.parquet")
        synthesize_pages_parquet(p)
        ds = public_transports_from_pages(p, gap=150.0, filters="nonexistent_tag")
        assert ds.count() == 0

    def test_empty_filter_string_selects_nothing(self, ray_session, tmp_path):
        # "" → one empty-key conjunct → rejects everything (reference literal)
        from osmptparser_ray.pipelines.ptv2 import public_transports_from_pages
        from osmptparser_ray.sources import synthesize_pages_parquet

        p = str(tmp_path / "fx2.parquet")
        synthesize_pages_parquet(p)
        assert public_transports_from_pages(p, gap=150.0, filters="").count() == 0

    def test_spatial_joins_on_empty(self, ray_session):
        import numpy as np
        import ray.data as rd

        from osmptparser_ray.spatial import knn_join_broadcast, pip_join_broadcast

        empty_pts = rd.from_arrow(
            pa.table(
                {
                    "point_id": pa.array([], pa.int64()),
                    "lat": pa.array([], pa.float64()),
                    "lon": pa.array([], pa.float64()),
                }
            )
        )
        polys = rd.from_items(
            [{"poly_id": 1, "ring_lats": [0.0, 0.0, 1.0], "ring_lons": [0.0, 1.0, 1.0]}]
        )
        assert pip_join_broadcast(empty_pts, polys).count() == 0
        tgt = rd.from_arrow(
            pa.table(
                {
                    "target_id": pa.array([1], pa.int64()),
                    "lat": pa.array([0.0], pa.float64()),
                    "lon": pa.array([0.0], pa.float64()),
                }
            )
        )
        assert knn_join_broadcast(empty_pts, tgt).count() == 0


class TestJsonlSource:
    def test_jsonl_corpus_same_goldens(self, ray_session, tmp_path):
        from osmptparser_ray.kernel.filters import PTV2
        from osmptparser_ray.sources.pages import synthesize_pages_jsonl
        from osmptparser_ray.stages.assemble import get_public_transports
        from osmptparser_ray.stages.elements import (
            build_parser_tables,
            extract_elements,
            read_pages_jsonl,
        )

        p = str(tmp_path / "jsonl")
        synthesize_pages_jsonl(p)
        pages = read_pages_jsonl(p)
        tables = build_parser_tables(extract_elements(pages), PTV2)
        rows = sorted(
            get_public_transports(tables, 1500.0).take_all(), key=lambda r: r["id"]
        )
        assert [r["id"] for r in rows] == [85965, 2030162]
        assert rows[1]["status_code"] == 0 and len(rows[1]["geometry"][0]) == 90


class TestBloomFilter:
    def test_no_false_negatives_and_fpr(self):
        import numpy as np

        from osmptparser_ray.stages.bloom import BloomFilter

        rng = np.random.default_rng(0)
        members = rng.choice(10**9, size=50_000, replace=False).astype(np.int64)
        bf = BloomFilter.build(members, fpr=0.01)
        assert bf.contains(members).all()  # zero false negatives
        probe = rng.choice(10**12, size=100_000).astype(np.int64) + 10**10
        fpr = bf.contains(probe).mean()
        assert fpr < 0.03  # ~1% target with slack
        assert bf.nbytes < 12 * len(members)  # ~1.2 bytes/key

    def test_bloom_semi_join_superset_of_exact(self, ray_session, sf_dir):
        import numpy as np
        import ray.data as rd

        from osmptparser_ray.stages.bloom import bloom_semi_join

        orders = rd.read_parquet(f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_custkey"])
        keys = np.arange(1, 40, dtype=np.int64)  # custkeys 1..39
        got = {r["o_orderkey"] for r in bloom_semi_join(orders, keys, "o_custkey").take_all()}
        exact = {
            r["o_orderkey"]
            for r in orders.take_all()
            if r["o_custkey"] in set(keys.tolist())
        }
        assert exact <= got  # no false negatives
        # leakage bounded (generous: tiny key range, small table)
        assert len(got) <= len(exact) + max(20, len(exact))


class TestDeterminism:
    def test_flagship_cross_run_identical(self, ray_session, tmp_path):
        """Two executions produce identical value sets (order-insensitive) —
        the reference's contract: values deterministic, order not."""
        from osmptparser_ray.pipelines.spatial_join import stop_route_spatial_join
        from osmptparser_ray.sources import synthesize_pages_parquet

        pages = str(tmp_path / "pages")
        synthesize_pages_parquet(pages, replicas=3, files=4)

        def snapshot():
            out = stop_route_spatial_join(pages)
            pip = sorted((r["point_id"], r["poly_id"]) for r in out["pip"].take_all())
            knn = sorted(
                (r["point_id"], r["rank"], r["neighbor_id"], round(r["dist_m"], 9))
                for r in out["knn"].take_all()
            )
            tiles = sorted((r["stop_id"], r["cell"]) for r in out["tiles"].take_all())
            return pip, knn, tiles

        a = snapshot()
        b = snapshot()
        assert a == b
        assert all(len(x) > 0 for x in a)


def _edge_tables():
    """ParserTables whose relations hit every member/stop edge case:

    * 1: way 10 has zero refs, way 11 resolves; stops 100 (tagged),
      101 (untagged) and 999 (no such node);
    * 2: way 12, whose refs all miss;
    * 3: way 11 twice, with way 13 (absent from ``ways``) between;
    * 4: empty ``way_ids`` and ``stop_ids``;
    * 5: ways 14 and 15, a closed ring.
    """
    import ray.data as rd

    from osmptparser_ray.kernel.filters import dicts_to_map_array
    from osmptparser_ray.stages.elements import ParserTables

    relations = rd.from_arrow(pa.table({
        "id": pa.array([1, 2, 3, 4, 5], pa.int64()),
        "tags": dicts_to_map_array([{"name": f"r{i}", "type": "route"} for i in range(1, 6)]),
        "info": dicts_to_map_array([{"version": str(i)} for i in range(1, 6)]),
        "way_ids": pa.array([[10, 11], [12], [11, 13, 11], [], [14, 15]], pa.list_(pa.int64())),
        "stop_ids": pa.array([[100, 999, 101], [], [102], [], [103, 100]], pa.list_(pa.int64())),
    }))
    ways = rd.from_arrow(pa.table({
        "id": pa.array([10, 11, 12, 14, 15, 16], pa.int64()),
        "tags": dicts_to_map_array([{}, {}, {}, {}, {}, {"highway": "x"}]),
        "info": dicts_to_map_array([{}, {}, {}, {}, {}, {"version": "1"}]),
        "node_refs": pa.array(
            [[], [100, 101], [900, 901], [100, 101, 102], [102, 103, 100], [101, 103, 102, 101]],
            pa.list_(pa.int64()),
        ),
        "is_member": pa.array([True] * 5 + [False]),
        "is_standalone": pa.array([False] * 5 + [True]),
    }))
    nodes = rd.from_arrow(pa.table({
        "id": pa.array([100, 101, 102, 103], pa.int64()),
        "lat": pa.array([-2.0, -2.001, -2.002, -2.0015], pa.float64()),
        "lon": pa.array([-79.0, -79.001, -79.0, -78.999], pa.float64()),
        "tags": dicts_to_map_array([{"name": "s100"}, {}, {"name": "s102"}, {}]),
    }))
    return ParserTables(relations=relations, ways=ways, nodes=nodes)


def _whole_rows(ds):
    """Every column of every row, maps as sorted items, ordered by id."""

    def canon(v):
        if isinstance(v, dict):
            return {k: canon(x) for k, x in v.items()}
        if isinstance(v, list) and v and isinstance(v[0], tuple):
            return sorted(v)  # a map column
        if isinstance(v, list):
            return [canon(x) for x in v]
        return v

    return sorted((canon(r) for r in ds.take_all()), key=lambda r: (r["id"], r.get("id_type")))


class TestAssemblyEmptyWayParity:
    def test_empty_or_unresolvable_member_ways(self, ray_session):
        """A member way with ZERO node refs, or whose refs all fail to
        resolve, behaves like a missing way — dropped (an empty NodeSeq
        would reach the flatten)."""
        from osmptparser_ray.stages.assemble import get_public_transports

        by_id = {r["id"]: r for r in _whole_rows(get_public_transports(_edge_tables(), gap=1500.0))}
        assert by_id[1]["status_code"] == 0      # the resolvable member flattens OK
        assert by_id[2]["status_code"] == 501    # every member unresolvable -> Broken

    def test_edge_members_and_stops(self, ray_session):
        """The other member/stop edge cases of ``_edge_tables``, whole
        rows: a missing stop node drops out of ``stops``, an untagged stop
        keeps an empty map, a way listed twice resolves twice, empty
        ``way_ids`` is Broken."""
        from osmptparser_ray.stages.assemble import get_public_transports

        rows = {r["id"]: r for r in _whole_rows(get_public_transports(_edge_tables(), gap=1500.0))}
        assert [(s["id"], s["tags"]) for s in rows[1]["stops"]] == [
            (100, [("name", "s100")]), (101, [])]
        assert rows[1]["tags"] == [("name", "r1"), ("type", "route")]
        assert rows[1]["info"] == [("version", "1")]
        assert rows[4]["status_code"] == 501 and rows[4]["geometry"] == []
        assert rows[4]["stops"] == []
        assert rows[5]["status_code"] == 0
        assert [s["id"] for s in rows[5]["stops"]] == [103, 100]
        # way 11 (nodes 100, 101) twice, 13 absent: both copies reach the
        # flatten, which joins them into 100, 101, 100
        assert [len(seg) for seg in rows[3]["geometry"]] == [3]

    def test_without_relations(self, ray_session):
        """No relation rows: the PT rows are an empty table that keeps its
        schema, and the areas are the way areas alone."""
        from osmptparser_ray.stages.assemble import (
            AREA_SCHEMA, PT_SCHEMA, get_areas, get_public_transports,
        )
        from osmptparser_ray.stages.elements import ParserTables

        t = _edge_tables()
        none = ParserTables(
            relations=t.relations.filter(expr="id < 0").materialize(), ways=t.ways, nodes=t.nodes
        )
        pt = get_public_transports(none, gap=1500.0)
        assert pt.count() == 0 and pt.schema().names == PT_SCHEMA.names
        areas = get_areas(none, gap=1500.0)
        assert [r["id"] for r in areas.take_all()] == [16]
        assert areas.schema().names == AREA_SCHEMA.names

    def test_areas_whole_rows(self, ray_session):
        """``get_areas`` over the same edge cases: relation ('r') and way
        ('w') areas."""
        from osmptparser_ray.stages.assemble import get_areas

        a = _whole_rows(get_areas(_edge_tables(), gap=1500.0))
        assert sorted((r["id_type"], r["id"]) for r in a) == [
            ("r", 1), ("r", 2), ("r", 3), ("r", 4), ("r", 5), ("w", 16)]
        assert {r["id"]: r["status_code"] for r in a if r["id_type"] == "r"}[5] == 0
