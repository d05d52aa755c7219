"""The three workloads, each as one fused run and one traced run.

A fused run calls the public entry point once and stops the clock when
every output is materialized and counted. A traced run calls the public
functions of each layer in turn, materializes at each layer boundary and
records one span per layer: wall time, driver CPU time, rows and bytes
out, and Ray Data executor launches. Both return every output as a
materialized dataset, so every run is checked; the caller reads them
after its own measurements. Nothing here starts a thread pool; sinks are
consumed one after another.
"""

from __future__ import annotations

import logging
import time

import pyarrow as pa
import ray

GAP_M = 1500.0  # stop_route_spatial_join defaults, repeated by the traced run
PIP_LEVEL = 12
KNN_K = 5
KNN_RADIUS_M = 2000.0
TILE_LEVEL = 14

RELATIONAL_LAYERS = {
    "relational.salted_join": "salted_join",
    "relational.anti_join": "anti_join_shuffle",
    "text.span_dedup": "span_dedup",
    "text.webtext_e2e": "webtext_e2e",
}
STATUS_CODES = [0, 101, 102, 103, 501]


class ExecutionCounter(logging.Handler):
    """Counts Ray Data executor launches: the streaming executor logs one
    "Starting execution of Dataset" line per launched plan, from any
    thread of this process."""

    def __init__(self):
        super().__init__(logging.INFO)
        self.count = 0

    def emit(self, record):
        if record.getMessage().startswith("Starting execution of Dataset"):
            self.count += 1

    def install(self):
        from ray.data import DataContext

        DataContext.get_current().print_on_execution_start = True
        log = logging.getLogger("ray.data._internal.execution.streaming_executor")
        if self not in log.handlers:
            log.addHandler(self)
        if log.getEffectiveLevel() > logging.INFO:
            log.setLevel(logging.INFO)


EXECUTIONS = ExecutionCounter()


def _import_engine(batch):
    import __ray_entry__  # noqa: F401
    import osmptparser_ray.pipelines.spatial_join  # noqa: F401

    return batch


def warm_up():
    """One tiny Ray Data run that starts a worker per CPU and imports the
    engine in each."""
    import ray.data

    cpus = int(ray.cluster_resources()["CPU"])
    ray.data.range(cpus, override_num_blocks=cpus).map_batches(_import_engine).materialize()


def to_arrow(ds) -> pa.Table:
    return pa.concat_tables(ray.get(ds.to_arrow_refs()))


class Tracer:
    """In-memory spans, one per layer call, in call order."""

    def __init__(self):
        self.spans: dict[str, dict] = {}

    def span(self, name: str, fn, *args, **kwargs):
        e0, c0, t0 = EXECUTIONS.count, time.process_time(), time.perf_counter()
        out = fn(*args, **kwargs)
        t1 = time.perf_counter()
        self.spans[name] = {
            "start_s": t0, "wall_s": t1 - t0,
            "driver_cpu_s": time.process_time() - c0,
            "executions": EXECUTIONS.count - e0,
        }
        return out

    def output(self, name: str, *datasets, **extra):
        """Rows and bytes of a layer's materialized outputs (metadata only,
        read after the span's clock stopped)."""
        self.spans[name]["rows_out"] = sum(d.count() for d in datasets)
        self.spans[name]["bytes_out"] = sum(d.size_bytes() for d in datasets)
        self.spans[name].update(extra)


# -- flagship ---------------------------------------------------------------


def flagship_fused(pages: str, small_side: str) -> dict:
    from osmptparser_ray.pipelines.spatial_join import stop_route_spatial_join

    t0 = time.perf_counter()
    out = stop_route_spatial_join(pages, small_side=small_side, validate=False)
    sinks = {k: out[k].materialize() for k in ("pip", "knn", "tiles")}
    rows = sum(d.count() for d in sinks.values())
    wall = time.perf_counter() - t0
    sinks["public_transports"] = out["public_transports"]
    return {"wall_s": wall, "rows": rows, "sinks": sinks}


def _rename_targets(t: pa.Table) -> pa.Table:
    return t.rename_columns(["target_id", "lat", "lon"])


def flagship_traced(pages: str, small_side: str) -> dict:
    from osmptparser_ray.kernel.filters import PTV2
    from osmptparser_ray.pipelines.spatial_join import (
        assign_tiles, explode_stops, route_hulls, unique_stops,
    )
    from osmptparser_ray.spatial import join
    from osmptparser_ray.stages.assemble import get_public_transports
    from osmptparser_ray.stages.elements import (
        build_parser_tables, extract_elements, read_pages,
    )

    tr = Tracer()
    t0 = time.perf_counter()
    elements = tr.span(
        "sources",
        lambda: extract_elements(read_pages(pages, validate=False), validate=False).materialize(),
    )
    tr.output("sources", elements)
    tables = tr.span("elements", build_parser_tables, elements, PTV2)
    tr.output(
        "elements", tables.relations, tables.ways, tables.nodes,
        relations_out=tables.relations.count(), ways_out=tables.ways.count(),
        nodes_out=tables.nodes.count(),
    )
    pt = tr.span("assemble", lambda: get_public_transports(tables, GAP_M).materialize())

    def spatial_inputs():
        stops = unique_stops(explode_stops(pt)).materialize()
        targets = stops.map_batches(_rename_targets, batch_format="pyarrow").materialize()
        return stops, targets, route_hulls(pt).materialize()

    stops, targets, hulls = tr.span("spatial_join", spatial_inputs)
    tr.output("spatial_join", stops, hulls)
    if small_side == "broadcast":
        pip = tr.span(
            "spatial.pip",
            lambda: join.pip_join_broadcast(stops, hulls, point_id="stop_id").materialize(),
        )
        knn = tr.span(
            "spatial.knn",
            lambda: join.knn_join_broadcast(
                stops, targets, k=KNN_K, radius_m=KNN_RADIUS_M, query_id="stop_id"
            ).materialize(),
        )
    else:
        pip = tr.span(
            "spatial.pip",
            lambda: join.pip_join(stops, hulls, level=PIP_LEVEL, point_id="stop_id").materialize(),
        )
        knn = tr.span(
            "spatial.knn",
            lambda: join.knn_join(
                stops, targets, k=KNN_K, radius_m=KNN_RADIUS_M, query_id="stop_id"
            ).materialize(),
        )
    tiles = tr.span("spatial.tiles", lambda: assign_tiles(stops, TILE_LEVEL).materialize())
    wall = time.perf_counter() - t0
    for name, ds in (("spatial.pip", pip), ("spatial.knn", knn), ("spatial.tiles", tiles)):
        tr.output(name, ds)
    status = to_arrow(pt)["status_code"].to_pylist()
    tr.output("assemble", pt, **{f"status_{c}": status.count(c) for c in STATUS_CODES})
    return {
        "wall_s": wall,
        "rows": pip.count() + knn.count() + tiles.count(),
        "sinks": {"public_transports": pt, "pip": pip, "knn": knn, "tiles": tiles},
        "layers": tr.spans,
    }


# -- relational -------------------------------------------------------------


def relational(tables_dir: str) -> dict:
    """The four relational queries in turn; one span per query. The spans
    cost two clock reads each, so this is both the fused and the traced run."""
    import __ray_entry__

    queries = __ray_entry__.queries()
    tr = Tracer()
    t0 = time.perf_counter()
    done = {
        layer: tr.span(layer, lambda q=q: queries[q](tables_dir).materialize())
        for layer, q in RELATIONAL_LAYERS.items()
    }
    wall = time.perf_counter() - t0
    for layer, ds in done.items():
        tr.output(layer, ds)
    return {
        "wall_s": wall,
        "rows": sum(s["rows_out"] for s in tr.spans.values()),
        "sinks": {RELATIONAL_LAYERS[k]: d for k, d in done.items()},
        "layers": tr.spans,
    }
