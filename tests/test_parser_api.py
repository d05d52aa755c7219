"""Parser-surface parity (J5/P2/P5/A5) + stream operators."""

import numpy as np
import pytest

from osmptparser_ray.sources import synthesize_pages_parquet


@pytest.fixture(scope="module")
def pages(tmp_path_factory):
    p = tmp_path_factory.mktemp("pages_api") / "pages.parquet"
    return synthesize_pages_parquet(str(p), replicas=1)


@pytest.fixture(scope="module")
def tables(ray_session, pages):
    from osmptparser_ray.kernel.filters import PTV2
    from osmptparser_ray.pipelines.ptv2 import parser_tables_from_pages

    return parser_tables_from_pages(pages, PTV2)


def _api_digest(tables) -> tuple:
    """``parser_summary`` and ``iter_relations`` of ``tables``, as
    comparable (and printable) Python values ordered by relation id."""
    from osmptparser_ray.pipelines.parser_api import iter_relations, parser_summary

    summary = sorted(parser_summary(tables).to_pylist(), key=lambda r: r["id"])
    return summary, sorted((dict(r) for r in iter_relations(tables)), key=lambda r: r["id"])


class TestParserApi:
    def test_get_relation_by_id(self, tables):
        from osmptparser_ray.pipelines.parser_api import get_relation_by_id

        r = get_relation_by_id(tables, 2030162)
        assert r is not None
        assert dict(r["tags"])["name"] == "B6 Mapasingue Oeste Ida"
        assert len(r["ways"]) == 20
        assert len(r["stops"]) == 1
        # missing id → None (reference panics on unwrap; we return None)
        assert get_relation_by_id(tables, 999999) is None

    def test_iter_relations(self, tables):
        from osmptparser_ray.pipelines.parser_api import iter_relations

        rows = list(iter_relations(tables))
        assert sorted(r["id"] for r in rows) == [85965, 2030162]
        big = next(r for r in rows if r["id"] == 85965)
        assert len(big["ways"]) == 106

    def test_par_map(self, tables):
        from osmptparser_ray.pipelines.parser_api import par_map_relations

        out = par_map_relations(
            tables,
            lambda r: {"id": r["id"], "total_nodes": sum(len(w["node_ids"]) for w in r["ways"])},
        )
        got = {r["id"]: r["total_nodes"] for r in out.take_all()}
        assert got[85965] == 575 and got[2030162] == 109

    def test_parser_summary(self, tables):
        from osmptparser_ray.pipelines.parser_api import parser_summary

        t = parser_summary(tables)
        rows = {r["id"]: r for r in t.to_pylist()}
        assert rows[85965]["n_ways"] == 106
        assert rows[85965]["n_stops"] == 31
        assert rows[85965]["n_nodes"] == 575
        assert rows[2030162]["n_nodes"] == 109

    def test_one_cpu(self, tables, pages):
        """The parser API finishes in a Ray session of 1 CPU, where a task
        that waited inside a worker for a ref no task had made yet would
        hold the only CPU, and gives the default session's results. A
        subprocess, because the test session's own Ray has 4 CPUs."""
        import ast

        from test_cosort import _run_script

        out = _run_script(_PARSER_API_AT_ONE_CPU, pages, 240)
        assert ast.literal_eval(out.strip().split("\n")[-1]) == _api_digest(tables)


_PARSER_API_AT_ONE_CPU = r"""
import os
import sys

import ray
from ray.data import DataContext

sys.path.insert(0, os.path.join(os.path.dirname(sys.argv[2]), "tests"))
from test_parser_api import _api_digest

from osmptparser_ray.kernel.filters import PTV2
from osmptparser_ray.pipelines.ptv2 import parser_tables_from_pages

ray.init(address="local", num_cpus=1, include_dashboard=False, logging_level="ERROR")
DataContext.get_current().enable_progress_bars = False
print(repr(_api_digest(parser_tables_from_pages(sys.argv[1], PTV2))), flush=True)
ray.shutdown()
"""


class TestStreams:
    def test_sessionize_gaps(self, ray_session):
        import datetime

        import pyarrow as pa
        import ray.data as rd

        from osmptparser_ray.streams import sessionize

        base = datetime.datetime(2024, 1, 1)
        rows = []
        # user 1: two sessions (gap of 2h between event 2 and 3)
        for i, off in enumerate([0, 600, 7800, 8000]):
            rows.append({"event_id": i, "user_id": 1, "ts": base + datetime.timedelta(seconds=off)})
        # user 2: one session
        rows.append({"event_id": 10, "user_id": 2, "ts": base})
        ds = rd.from_arrow(
            pa.table(
                {
                    "event_id": pa.array([r["event_id"] for r in rows], pa.int64()),
                    "user_id": pa.array([r["user_id"] for r in rows], pa.int64()),
                    "ts": pa.array([r["ts"] for r in rows], pa.timestamp("us")),
                }
            )
        )
        out = sessionize(ds, gap_seconds=1800.0).take_all()
        by_user = {}
        for r in out:
            by_user.setdefault(r["user_id"], []).append(r)
        u1 = sorted(by_user[1], key=lambda r: r["session_id"])
        assert [r["n_events"] for r in u1] == [2, 2]
        assert len(by_user[2]) == 1

    def test_tumbling_window(self, ray_session, sf_dir):
        import ray.data as rd

        from osmptparser_ray.streams import tumbling_window

        ev = rd.read_parquet(f"{sf_dir}/events.parquet", columns=["user_id", "ts", "value"])
        out = tumbling_window(ev, 3600.0)
        rows = out.take_all()
        assert len(rows) > 0
        assert all(r["n_events"] >= 1 for r in rows)


class TestShardedNodeIndex:
    def test_matches_unsharded(self, ray_session):
        """gather/stops_bulk of a 4-shard index equal those of a 1-shard
        one (the same split and merge with no routing), and gather equals
        a Python last-wins dict, including missing-id drops."""
        import numpy as np
        import pyarrow as pa
        import ray.data as rd

        from osmptparser_ray.kernel.filters import dicts_to_map_array
        from osmptparser_ray.stages.assemble import build_node_index_sharded

        rng = np.random.default_rng(6)
        ids = rng.integers(0, 500, size=400).astype(np.int64)  # duplicates on purpose
        lats = rng.uniform(-3, -2, 400)
        lons = rng.uniform(-80, -79, 400)
        tags = [{"name": f"n{i}"} for i in ids]
        tbl = pa.table(
            {
                "id": pa.array(ids, pa.int64()),
                "lat": pa.array(lats, pa.float64()),
                "lon": pa.array(lons, pa.float64()),
                "tags": dicts_to_map_array(tags),
            }
        )
        # several blocks so last-wins crosses block boundaries
        nodes = rd.from_arrow([tbl.slice(i, 100) for i in range(0, 400, 100)])
        stop_ids = np.unique(ids[::3])
        a = build_node_index_sharded(nodes, stop_ids, num_shards=1)
        b = build_node_index_sharded(nodes, stop_ids, num_shards=4)

        probe = np.concatenate([np.unique(ids), np.array([100000, -5], np.int64)])
        last = {int(i): (la, lo) for i, la, lo in zip(ids, lats, lons)}
        found = [int(i) for i in probe if int(i) in last]
        want = (found, [last[i][0] for i in found], [last[i][1] for i in found])
        for got in (a.gather(probe), b.gather(probe)):
            for x, y in zip(got, want):
                assert np.asarray(x).tolist() == y

        sa = a.stops_bulk(probe)
        sb = b.stops_bulk(probe)
        assert np.array_equal(sa[0], sb[0])
        assert np.allclose(sa[1], sb[1]) and np.allclose(sa[2], sb[2])
        assert [dict(t) for t in sa[3].to_pylist()] == [dict(t) for t in sb[3].to_pylist()]
        assert sa[3].to_pylist() == sb[3].to_pylist()

    def test_stop_tags_edge_cases(self, ray_session):
        """stops_bulk tags, element by element: stops whose node has no
        tags and probed nodes that are not stops give an empty map, missing
        ids are dropped, duplicates and input order are kept — equally in
        a 1-shard and a 3-shard index."""
        import numpy as np
        import pyarrow as pa
        import ray.data as rd

        from osmptparser_ray.kernel.filters import dicts_to_map_array
        from osmptparser_ray.stages.assemble import build_node_index_sharded

        ids = np.arange(1, 41, dtype=np.int64)
        # every 4th node carries no tags at all
        node_tags = {int(i): ({} if i % 4 == 0 else {"name": f"s{i}"}) for i in ids}
        tbl = pa.table(
            {
                "id": pa.array(ids, pa.int64()),
                "lat": pa.array(ids * 0.01, pa.float64()),
                "lon": pa.array(ids * -0.01, pa.float64()),
                "tags": dicts_to_map_array([node_tags[int(i)] for i in ids]),
            }
        )
        nodes = rd.from_arrow([tbl.slice(i, 7) for i in range(0, 40, 7)])
        # odd ids and multiples of 4 are stops; 1000 and 1001 are stops
        # without a node
        stop_ids = np.array(
            sorted({int(i) for i in ids if i % 2 or i % 4 == 0} | {1000, 1001}), np.int64
        )
        a = build_node_index_sharded(nodes, stop_ids, num_shards=1)
        b = build_node_index_sharded(nodes, stop_ids, num_shards=3)

        rng = np.random.default_rng(11)
        probe = np.concatenate([stop_ids, [2, 6, 10, -1, 5000, 3, 3, 8]]).astype(np.int64)
        probe = probe[rng.permutation(len(probe))]
        want_ok = np.isin(probe, ids)
        stops = set(stop_ids.tolist())
        want_tags = [
            list(node_tags[int(i)].items()) if int(i) in stops else []
            for i in probe[want_ok]
        ]
        for index in (a, b):
            ok, lats, lons, tags = index.stops_bulk(probe)
            assert np.array_equal(ok, want_ok)
            assert np.array_equal(lats, probe[want_ok] * 0.01)
            assert np.array_equal(lons, probe[want_ok] * -0.01)
            assert len(tags) == int(want_ok.sum())
            for got, want in zip(tags.to_pylist(), want_tags):
                assert got == want
            # an untagged stop is an empty map, never a null
            assert tags.null_count == 0
        for probe in (np.array([-1, 5000], np.int64), np.empty(0, np.int64)):
            for index in (a, b):
                ok, _, _, tags = index.stops_bulk(probe)
                assert not ok.any() and len(tags) == 0
