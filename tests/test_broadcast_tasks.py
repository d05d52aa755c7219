"""Broadcast small sides as task arguments: every operator whose small
side reaches its block tasks as a top-level argument keeps its typed
output on an input without rows, and a gate query per module finishes
in a Ray session of one CPU, where a task that waited inside a worker for
an object no task had made yet would hold the only CPU."""

import numpy as np
import pyarrow as pa
import pytest
import ray.data as rd

_PTS = pa.table(
    {
        "event_id": pa.array([1], pa.int64()),
        "value": pa.array([1.0]),
        "user_id": pa.array([1], pa.int64()),
        "lat": pa.array([1.0]),
        "lon": pa.array([1.0]),
        "cell": pa.array([1], pa.uint64()),
    }
)
_VEC = pa.table({"vec_id": pa.array([1], pa.int64()), "embedding": pa.array([[1.0, 0.0]], pa.list_(pa.float64()))})
_PAIRS = pa.table({"doc_a": pa.array([1], pa.int64()), "doc_b": pa.array([2], pa.int64())})
_EDGES = pa.table({"src": pa.array([1], pa.int64()), "dst": pa.array([2], pa.int64())})
_DOCS = pa.table({"doc_id": pa.array([1, 2], pa.int64()), "text": pa.array(["hello world", "hello there"])})

_POINT_COLS = {"event_id": "int64", "value": "double", "user_id": "int64", "lat": "double", "lon": "double",
               "cell": "uint64"}
_TOPK_COLS = {"query_id": "int64", "rank": "int64", "vec_id": "int64", "score": "double"}


def _cases() -> dict:
    """name → (the input's rows, the operator, its output columns with rows)."""
    from osmptparser_ray import graph
    from osmptparser_ray.embed import ann
    from osmptparser_ray.spatial import join
    from osmptparser_ray.stages import relational as rel
    from osmptparser_ray.stages.bloom import bloom_semi_join
    from osmptparser_ray.stages.elements import dedup_by_id
    from osmptparser_ray.text.analysis import tfidf_top_terms
    from osmptparser_ray.text.dedup import verify_jaccard

    keys = rd.from_arrow(pa.table({"k": pa.array([1, 5], pa.int64())}))
    small = rd.from_arrow(pa.table({"user_id": pa.array([1], pa.int64()), "seg": pa.array(["a"])}))
    hulls = rd.from_arrow(pa.table({"poly_id": pa.array([7], pa.int64()), "ring_lats": pa.array([[0.0, 0.0, 2.0]]),
                                    "ring_lons": pa.array([[0.0, 2.0, 0.0]])}))
    targets = rd.from_arrow(pa.table({"target_id": pa.array([7], pa.int64()), "lat": pa.array([1.0]),
                                      "lon": pa.array([1.0])}))
    point = pa.struct([("lat", pa.float64()), ("lon", pa.float64())])
    routes = rd.from_arrow(pa.table({"id": pa.array([3], pa.int64()), "geometry": pa.array(
        [[[{"lat": 0.0, "lon": 0.0}, {"lat": 0.1, "lon": 0.1}]]], pa.list_(pa.list_(point)))}))
    return {
        "broadcast_join": (_PTS, lambda d: rel.broadcast_join(d, small, "user_id"),
                           {**_POINT_COLS, "seg": "string"}),
        "interval_join": (_PTS, lambda d: rel.interval_join(d, [(1, 0.0, 2.0)]),
                          {"event_id": "int64", "interval_id": "int64"}),
        "anti_join_broadcast": (_PTS, lambda d: rel.anti_join(d, keys, "event_id", keys_on="k"), _POINT_COLS),
        "anti_join_shuffle": (_PTS, lambda d: rel.anti_join(d, keys, "event_id", keys_on="k", plan="shuffle"),
                              _POINT_COLS),
        "zscore_filter": (_PTS, lambda d: rel.zscore_filter(d, "user_id", "event_id", 2), _POINT_COLS),
        "topk_per_group": (_PTS, lambda d: rel.topk_per_group(d, "user_id", "value", 2),
                           {**_POINT_COLS, "rank": "int64"}),
        "bloom_semi_join": (_PTS, lambda d: bloom_semi_join(d, np.array([1, 2]), "event_id"), _POINT_COLS),
        "dedup_by_id": (_PTS.rename_columns(["id", *_PTS.column_names[1:]]), dedup_by_id,
                        {"id": "int64", **{k: v for k, v in _POINT_COLS.items() if k != "event_id"}}),
        "pip_join_broadcast": (_PTS, lambda d: join.pip_join_broadcast(d, hulls, point_id="event_id"),
                               {"point_id": "int64", "poly_id": "int64"}),
        "knn_join_broadcast": (_PTS, lambda d: join.knn_join_broadcast(d, targets, 2, 5000.0, query_id="event_id"),
                               {"point_id": "int64", "neighbor_id": "int64", "dist_m": "double", "rank": "int64"}),
        "raster_vector_join": (_PTS, lambda d: join.raster_vector_join(d, routes, 12),
                               {"cell": "uint64", "route_id": "int64"}),
        "cell_density_smoothed": (_PTS, lambda d: join.cell_density_smoothed(d, 12),
                                  {"cell_x": "int64", "cell_y": "int64", "n": "int64", "n_smoothed": "int64"}),
        "knn_bruteforce": (_VEC, lambda d: ann.knn_bruteforce(d, np.eye(2), np.array([1, 2]), k=2), _TOPK_COLS),
        "lsh_ann": (_VEC, lambda d: ann.lsh_ann(d, np.eye(2), np.array([1, 2]), k=2, bits=2), _TOPK_COLS),
        "cosine_near_dup": (_VEC, lambda d: ann.cosine_near_dup(d, bits=4),
                            {"doc_a": "int64", "doc_b": "int64", "score": "double"}),
        "ivf_ann_join": (_VEC, lambda d: ann.ivf_ann_join(rd.from_arrow(_VEC), d, k=2, n_lists=1, n_probe=1),
                         _TOPK_COLS),
        "verify_jaccard_broadcast": (_PAIRS, lambda d: verify_jaccard(d, rd.from_arrow(_DOCS), plan="broadcast"),
                                     {"doc_a": "int64", "doc_b": "int64", "jaccard": "double"}),
        "verify_jaccard_pruned": (_PAIRS, lambda d: verify_jaccard(d, rd.from_arrow(_DOCS)),
                                  {"doc_a": "int64", "doc_b": "int64", "jaccard": "double"}),
        "pagerank": (_EDGES, lambda d: graph.pagerank(d, n_iter=2), {"node": "int64", "rank": "double"}),
        "triangle_count": (_EDGES, lambda d: graph.triangle_count(d, plan="broadcast"), {"triangles": "int64"}),
        "tfidf_top_terms": (_DOCS, lambda d: tfidf_top_terms(d, k=2, plan="broadcast"),
                            {"doc_id": "int64", "rank": "int64", "token": "string", "tf": "int64", "df": "int64",
                             "score": "double"}),
    }


def _columns(ds) -> dict:
    schema = ds.schema(fetch_if_missing=True)
    schema = getattr(schema, "base_schema", schema)
    return {} if schema is None else {f.name: str(f.type) for f in schema}


@pytest.mark.parametrize("layout", ["schema_only", "columnless_block"])
@pytest.mark.parametrize("name", [
    "broadcast_join", "interval_join", "anti_join_broadcast", "anti_join_shuffle", "zscore_filter",
    "topk_per_group", "bloom_semi_join", "dedup_by_id", "pip_join_broadcast", "knn_join_broadcast",
    "raster_vector_join", "cell_density_smoothed", "knn_bruteforce", "lsh_ann", "cosine_near_dup",
    "ivf_ann_join", "verify_jaccard_broadcast", "verify_jaccard_pruned", "pagerank", "triangle_count",
    "tfidf_top_terms",
])
def test_no_rows_keeps_the_typed_output(ray_session, name, layout):
    """An input without rows, as a schema alone or with a columnless
    empty block besides, gives the columns and types the operator gives
    with rows, and no rows."""
    rows, op, want = _cases()[name]
    empty = rows.slice(0, 0)
    ds = rd.from_arrow(empty) if layout == "schema_only" else rd.from_arrow([empty, pa.table({})])
    out = op(ds)
    assert _columns(out) == want
    assert out.count() == (1 if name == "triangle_count" else 0)  # its one row counts 0 triangles


@pytest.mark.parametrize("layout", ["schema_only", "columnless_block"])
def test_bloom_ingest_without_rows(ray_session, layout):
    """The Bloom ingest of elements without rows gives the exact ingest's
    typed empty tables."""
    from osmptparser_ray.kernel.filters import PTV2
    from osmptparser_ray.sources.osmxml import ELEMENT_SCHEMA
    from osmptparser_ray.stages.elements import build_parser_tables

    empty = ELEMENT_SCHEMA.empty_table()
    ds = rd.from_arrow(empty) if layout == "schema_only" else rd.from_arrow([empty, pa.table({})])
    bloom = build_parser_tables(ds, PTV2, id_set_mode="bloom")
    exact = build_parser_tables(rd.from_arrow(empty), PTV2)
    for table in ("relations", "ways", "nodes"):
        assert _columns(getattr(bloom, table)) == _columns(getattr(exact, table)) != {}, table
        assert getattr(bloom, table).count() == 0


def test_with_rows_gives_the_same_columns(ray_session):
    """The expected columns are the operators' own with rows."""
    for name, (rows, op, want) in _cases().items():
        assert _columns(op(rd.from_arrow(rows))) == want, name


class TestOneCpu:
    def test_moved_gate_queries_finish_at_one_cpu(self, sf_dir):
        """One gate query per module whose small sides are task arguments,
        in a Ray session of 1 CPU, matches its DuckDB oracle. A
        subprocess, because the test session's own Ray has 4 CPUs."""
        from test_cosort import _run_script

        out = _run_script(_GATE_AT_ONE_CPU, sf_dir, 600)
        assert out.split("\n")[: len(_ONE_CPU_QUERIES)] == [f"{q} OK" for q in _ONE_CPU_QUERIES], out


_ONE_CPU_QUERIES = [
    "anti_join_shuffle",  # stages/relational.py, stages/bloom.py
    "ptv2_bloom_ingest",  # stages/elements.py
    "cell_density",  # spatial/join.py
    "pagerank_cycles",  # graph.py
    "ann_cosine_topk",  # embed/ann.py
    "kmeans_planted",  # embed/kmeans.py
    "minhash_near_dup",  # text/dedup.py
    "tfidf_top_terms",  # text/analysis.py
    "sessionize_incremental",  # state/incremental.py
    "semi_join_broadcast",  # __ray_entry__.py
]

_GATE_AT_ONE_CPU = r"""
import sys

import duckdb
import ray
from ray.data import DataContext

sys.path.insert(0, sys.argv[2])
from check_oracles import compare, to_pandas

sf_dir = sys.argv[1]
ray.init(address="local", num_cpus=1, include_dashboard=False, logging_level="ERROR")
DataContext.get_current().enable_progress_bars = False
import __ray_entry__ as entry

con = duckdb.connect()
for t in "customer orders lineitem events documents embeddings".split():
    con.sql(f"CREATE VIEW {t} AS SELECT * FROM '{sf_dir}/{t}.parquet'")
for name in %r:
    problems = compare(name, to_pandas(entry.queries()[name](sf_dir)), con.sql(entry.oracle_sql()[name]).df())
    print(name, "; ".join(problems) or "OK", flush=True)
ray.shutdown()
""" % (_ONE_CPU_QUERIES,)
