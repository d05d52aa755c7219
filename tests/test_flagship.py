"""Flagship: block tasks, executor-launch budget, plan parity, block-layout
invariance of the ingest plan and the spatial tail, and the replica grid of
the synthetic corpus."""

import contextlib
import logging

import numpy as np
import pyarrow as pa
import pytest

LAUNCH_BUDGET = 1  # the page read; ingest, assembly and the tail are block tasks
SHUFFLE_LAUNCH_BUDGET = 1  # the page read; the cosorts' row maps are block tasks too
LAYOUTS = ("one_block", "one_row_blocks", "empty_block")


@contextlib.contextmanager
def counting_launches():
    """Counts Ray Data streaming-executor launches inside the block."""
    from ray.data import DataContext

    from perfbench.workloads import ExecutionCounter

    log = logging.getLogger("ray.data._internal.execution.streaming_executor")
    ctx = DataContext.get_current()
    saved = (ctx.print_on_execution_start, log.level)
    counter = ExecutionCounter()
    counter.install()
    try:
        yield counter
    finally:
        log.removeHandler(counter)
        ctx.print_on_execution_start = saved[0]
        log.setLevel(saved[1])


# lambdas: workers cannot import this test module, so kernels travel by value
_col_sum = lambda block, col: int(np.asarray(block[col]).sum())  # noqa: E731
_first_last = lambda block: (block["x"][0].as_py(), block["x"][-1].as_py())  # noqa: E731
_table_of = lambda xs: pa.table({"x": xs})  # noqa: E731


def _digest(out: dict) -> tuple:
    """Order-free content of the pip, knn and tiles outputs."""
    rows = {k: out[k].take_all() for k in ("pip", "knn", "tiles")}
    return (
        sorted((r["point_id"], r["poly_id"]) for r in rows["pip"]),
        sorted(
            (r["point_id"], r["rank"], r["neighbor_id"], round(r["dist_m"], 9))
            for r in rows["knn"]
        ),
        sorted((r["stop_id"], r["cell"]) for r in rows["tiles"]),
    )


@pytest.fixture(scope="module")
def pages(tmp_path_factory):
    from osmptparser_ray.sources import synthesize_pages_parquet

    path = str(tmp_path_factory.mktemp("flagship") / "pages")
    synthesize_pages_parquet(path, replicas=3, files=4)
    return path


def _fused_run(pages: str, small_side: str) -> tuple:
    """The flagship with its pip/knn/tiles sinks materialized → (outputs,
    executor launches)."""
    from osmptparser_ray.pipelines.spatial_join import stop_route_spatial_join

    with counting_launches() as counter:
        out = stop_route_spatial_join(pages, validate=False, small_side=small_side)
        for k in ("pip", "knn", "tiles"):
            out[k] = out[k].materialize()
    return out, counter.count


@pytest.fixture(scope="module")
def broadcast(ray_session, pages):
    return _fused_run(pages, "broadcast")


@pytest.fixture(scope="module")
def shuffle(ray_session, pages):
    return _fused_run(pages, "shuffle")


class TestBlockTasks:
    def test_block_order_and_empty_blocks(self, ray_session):
        import ray
        import ray.data as rd

        from osmptparser_ray.util import block_tasks

        blocks = [
            pa.table({"x": [1, 2]}),
            pa.table({"x": pa.array([], pa.int64())}),
            pa.table({"x": [3]}),
            pa.table({"x": [4, 5, 6]}),
        ]
        ds = rd.from_arrow(blocks)
        assert ray.get(block_tasks(ds, _col_sum, "x")) == [3, 3, 15]
        pairs = block_tasks(ds, _first_last, num_returns=2)
        assert [tuple(ray.get(list(p))) for p in pairs] == [(1, 2), (3, 3), (4, 6)]

    def test_columnless_empty_blocks_are_skipped(self, ray_session):
        import ray
        import ray.data as rd

        from osmptparser_ray.util import block_tasks

        # a filter that drops every row of a block leaves Ray's columnless
        # empty block behind
        ds = (
            rd.range(12, override_num_blocks=4)
            .filter(lambda r: r["id"] < 3 or r["id"] >= 9)
            .materialize()
        )
        assert ray.get(block_tasks(ds, _col_sum, "id")) == [3, 30]
        assert block_tasks(rd.range(6).filter(lambda r: False).materialize(), _col_sum, "id") == []


    def test_block_ref_lists(self, ray_session):
        """A list of block refs is taken as it is, zero-row tables
        included, and a ref that a task has not made yet is waited for by
        the block task, not by the caller."""
        import ray

        from osmptparser_ray.util import block_tasks, submit

        later = submit(_table_of, [4, 5])
        refs = [ray.put(pa.table({"x": [1, 2]})), ray.put(pa.table({"x": pa.array([], pa.int64())})), later]
        assert ray.get(block_tasks(refs, _col_sum, "x")) == [3, 0, 9]


class TestFlagshipTail:
    def test_launch_budget(self, broadcast):
        out, launches = broadcast
        assert all(out[k].count() > 0 for k in ("pip", "knn", "tiles"))
        assert launches <= LAUNCH_BUDGET

    def test_shuffle_launch_budget(self, shuffle):
        out, launches = shuffle
        assert all(out[k].count() > 0 for k in ("pip", "knn", "tiles"))
        assert launches <= SHUFFLE_LAUNCH_BUDGET

    def test_broadcast_equals_shuffle(self, broadcast, shuffle):
        assert _digest(shuffle[0]) == _digest(broadcast[0])

    @pytest.mark.parametrize(
        "small_side, layout",
        [(side, layout) for side in ("broadcast", "shuffle") for layout in LAYOUTS],
        # the broadcast cases keep their bare layout ids
        ids=[*LAYOUTS, *(f"shuffle-{layout}" for layout in LAYOUTS)],
    )
    def test_layout_invariance(self, broadcast, small_side, layout):
        import ray
        import ray.data as rd

        from osmptparser_ray.pipelines.spatial_join import stop_route_joins

        out = broadcast[0]
        parts = ray.get(out["public_transports"].to_arrow_refs())
        pt = pa.concat_tables([t for t in parts if t.num_rows])
        got = stop_route_joins(rd.from_arrow(_layout_blocks(pt, layout)), small_side=small_side)
        assert _digest(got) == _digest(out)

    @pytest.mark.parametrize("small_side", ["broadcast", "shuffle"])
    def test_no_stops(self, ray_session, broadcast, small_side):
        import ray.data as rd

        from osmptparser_ray.pipelines.spatial_join import stop_route_joins

        pt = broadcast[0]["public_transports"]
        got = stop_route_joins(
            rd.from_arrow(pt.schema().base_schema.empty_table()), small_side=small_side
        )
        for k, cols in (("pip", "poly_id"), ("knn", "rank"), ("tiles", "cell")):
            assert got[k].count() == 0 and cols in got[k].schema().names


class TestTaskGraph:
    def test_no_driver_waits(self, broadcast, pages, monkeypatch):
        """The broadcast flagship submits its whole task graph without a
        ``ray.get`` or ``ray.wait`` in package code, and wraps each
        returned dataset with at most one ``rd.from_arrow_refs``. Only
        calls made from package frames count: Ray's own waits inside
        those wrappers and in the page read's executor are not the
        package's."""
        import sys

        import ray
        import ray.data as rd

        from osmptparser_ray.pipelines.spatial_join import stop_route_spatial_join

        calls = []

        def counted(name, fn):
            def call(*args, **kwargs):
                if sys._getframe(1).f_globals.get("__name__", "").startswith("osmptparser_ray"):
                    calls.append(name)
                return fn(*args, **kwargs)

            return call

        for module, name in ((ray, "get"), (ray, "wait"), (rd, "from_arrow_refs")):
            monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
        out = stop_route_spatial_join(pages, validate=False)
        monkeypatch.undo()
        assert calls.count("get") + calls.count("wait") == 0, calls
        assert calls.count("from_arrow_refs") <= len(out), calls
        assert _digest(out) == _digest(broadcast[0])

    def test_one_cpu(self, broadcast, pages):
        """The flagship finishes in a Ray session of 1 CPU, where a task
        that waited inside a worker for a ref no task had made yet would
        hold the only CPU, and gives the default session's outputs. A
        subprocess, because the test session's own Ray has 4 CPUs."""
        import ast

        from test_cosort import _run_script

        out = _run_script(_FLAGSHIP_AT_ONE_CPU, pages, 240)
        assert ast.literal_eval(out.strip().split("\n")[-1]) == _digest(broadcast[0])


_FLAGSHIP_AT_ONE_CPU = r"""
import os
import sys

import ray
from ray.data import DataContext

sys.path.insert(0, os.path.join(os.path.dirname(sys.argv[2]), "tests"))
from test_flagship import _digest

from osmptparser_ray.pipelines.spatial_join import stop_route_spatial_join

ray.init(address="local", num_cpus=1, include_dashboard=False, logging_level="ERROR")
DataContext.get_current().enable_progress_bars = False
print(repr(_digest(stop_route_spatial_join(sys.argv[1], validate=False))), flush=True)
ray.shutdown()
"""


def _layout_blocks(t: pa.Table, layout: str) -> list:
    return {
        "one_block": [t],
        "one_row_blocks": [t.slice(i, 1) for i in range(t.num_rows)],
        # a columnless zero-row table, the shape of Ray's empty blocks
        "empty_block": [t.slice(0, 2), pa.table({}), t.slice(2)],
    }[layout]


def _rows(ds) -> list:
    """All rows, in an order that does not depend on the block layout."""
    return sorted(ds.take_all(), key=lambda r: (r["id"], repr(r)))


class TestIngestLayout:
    @pytest.fixture(scope="class")
    def reference(self, ray_session, pages):
        """The pages path of the ingest plan (extraction inside its first
        tasks), its PT table, and the extracted elements as one table."""
        import ray

        from osmptparser_ray.kernel.filters import PTV2
        from osmptparser_ray.pipelines.ptv2 import parser_tables_from_pages
        from osmptparser_ray.stages.assemble import get_public_transports
        from osmptparser_ray.stages.elements import extract_elements, read_pages

        tables = parser_tables_from_pages(pages, PTV2, validate=False)
        elements = extract_elements(read_pages(pages, validate=False), validate=False)
        parts = ray.get(elements.materialize().to_arrow_refs())
        elements = pa.concat_tables([t for t in parts if t.num_rows])
        return tables, get_public_transports(tables, 1500.0), elements

    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_layout_invariance(self, reference, layout):
        """build_parser_tables gives row-identical relations, ways and nodes,
        and the same PT table, whatever the element block layout."""
        import ray.data as rd

        from osmptparser_ray.kernel.filters import PTV2
        from osmptparser_ray.stages.assemble import get_public_transports
        from osmptparser_ray.stages.elements import build_parser_tables

        want, want_pt, elements = reference
        got = build_parser_tables(rd.from_arrow(_layout_blocks(elements, layout)), PTV2)
        for name in ("relations", "ways", "nodes"):
            rows = _rows(getattr(got, name))
            assert rows == _rows(getattr(want, name)) and rows, name
        assert _rows(get_public_transports(got, 1500.0)) == _rows(want_pt)


class TestReplicaGrid:
    def test_replicas_never_stack(self):
        from osmptparser_ray.fixtures import load_osm_fixture
        from osmptparser_ray.sources.pages import _shift_element

        nodes = load_osm_fixture()["nodes"]
        ref = nodes[0]
        # the nodes at the fixture's coordinate extremes bound every shift
        extremes = [
            min(nodes, key=lambda n: n["lon"]), max(nodes, key=lambda n: n["lon"]),
            min(nodes, key=lambda n: n["lat"]), max(nodes, key=lambda n: n["lat"]),
        ]
        positions = set()
        for r in range(1500):
            moved = _shift_element(ref, "node", r)
            positions.add((moved["lon"], moved["lat"]))
            if 0 < r < 200:  # the benchmark corpus: coordinates unchanged
                assert moved["lon"] == ref["lon"] + r * 0.5 - 100.0
                assert moved["lat"] == ref["lat"]
            for n in extremes:
                m = _shift_element(n, "node", r)
                assert -180.0 <= m["lon"] <= 180.0 and -90.0 <= m["lat"] <= 90.0
        assert len(positions) == 1500
