"""Benchmark harness — one JSON line per run; --scaling for the N vs 4N
throughput-efficiency protocol (BASELINE.md).

Headline: the flagship stop→route spatial join (north-star metric:
spatial-join output rows/sec) over a deterministic synthetic page corpus,
plus operator benches over the $GRAFT_SF_DIR tables (default sf0.1).

Env:
    GRAFT_SF_DIR             table dir (default /root/testdata/sf0.1)
    RAY_GRAFT_CPUS           num_cpus for ray.init (default 32)
    GRAFT_REPLICAS           page-corpus replicas (default 2000)
    GRAFT_FLAGSHIP_ONLY      =1: flagship only (used by --scaling levels)
    GRAFT_SCALING_REPLICAS   --scaling corpus replicas (default 20000)
    GRAFT_SCALING_LEVELS     --scaling CPU levels (default "2,8,32")

--scaling flags: --pinned (taskset-bound process tree per level),
--weak (input grows with N; weak/Gustafson scaling — see BASELINE.md).
"""

from __future__ import annotations

import json
import logging
import os
import sys
import time


def _pages_path(replicas: int) -> str:
    path = f"/tmp/osmray_bench_pages_r{replicas}_seed42_sharded"
    if not os.path.exists(path):
        from osmptparser_ray.sources import synthesize_pages_parquet

        synthesize_pages_parquet(path, replicas=replicas, files=64)
    return path


def _host_calibration(num_cpus: int) -> dict:
    """Hardware-health probe so BENCH numbers are self-interpreting.

    The sandbox host's effective parallel capacity varies by wall-clock
    hour (hypervisor co-tenancy — observed from +38% per-task CPU
    inflation at 32 workers up to ~10× in degraded windows, while
    SINGLE-core speed stays normal). This runs a fixed numpy sort solo
    and then num_cpus-way parallel, and reports the per-task inflation
    factor: ~1-1.5 = healthy box, >>2 = the absolute timings in this
    BENCH record are host-limited and only ratios within the record are
    meaningful.
    """
    from concurrent.futures import ProcessPoolExecutor

    import numpy as np

    a = np.random.default_rng(1).random(2_000_000)

    def one() -> float:
        t0 = time.perf_counter()
        for _ in range(5):
            np.sort(a)
        return time.perf_counter() - t0

    solo = min(one() for _ in range(3))
    with ProcessPoolExecutor(num_cpus) as ex:
        times = list(ex.map(_calib_task, [2_000_000] * num_cpus))
    par = sorted(times)[len(times) // 2]
    return {
        "solo_sort_s": round(solo, 3),
        "parallel_sort_median_s": round(par, 3),
        "inflation": round(par / solo, 2),
        "workers": num_cpus,
    }


def _calib_task(n: int) -> float:
    import numpy as np

    a = np.random.default_rng(1).random(n)
    t0 = time.perf_counter()
    for _ in range(5):
        np.sort(a)
    return time.perf_counter() - t0


def run_benches(sf_dir: str, num_cpus: int, replicas: int) -> dict:
    import __ray_entry__ as entrymod

    from osmptparser_ray.pipelines.spatial_join import stop_route_spatial_join

    queries: dict[str, float] = {}
    calibration = _host_calibration(num_cpus)

    # -- flagship: pages → PT → PIP + kNN + tiles ---------------------------
    pages = _pages_path(replicas)
    # warm OS page cache (untimed)
    for name in sorted(os.listdir(pages)):
        with open(os.path.join(pages, name), "rb") as f:
            while f.read(1 << 24):
                pass

    # GRAFT_FLAGSHIP_SMALL_SIDE=shuffle runs the big-big shuffle plans
    # (identical outputs, parity-tested) — the plan that scales better on
    # the saturated single-box pairs where broadcast sides contend for one
    # memory bus (BASELINE.md)
    small_side = os.environ.get("GRAFT_FLAGSHIP_SMALL_SIDE", "broadcast")
    from perfbench.workloads import EXECUTIONS

    EXECUTIONS.install()
    launches0 = EXECUTIONS.count
    t0 = time.perf_counter()
    out = stop_route_spatial_join(pages, validate=False, small_side=small_side)
    sinks = {name: out[name].materialize() for name in ("pip", "knn", "tiles")}
    pip_rows, knn_rows, tile_rows = (sinks[n].count() for n in ("pip", "knn", "tiles"))
    flagship_s = time.perf_counter() - t0
    flagship_launches = EXECUTIONS.count - launches0
    if "--stats" in sys.argv:
        # per-stage wall/cpu/memory breakdown of the three join branches —
        # the feedback loop used to find stage bottlenecks (stderr only;
        # stdout stays a single JSON line)
        for name, ds in sinks.items():
            print(f"===== stats: {name} =====", file=sys.stderr)
            print(ds.stats(), file=sys.stderr)
    queries["flagship_spatial_join"] = flagship_s
    join_rows = pip_rows + knn_rows + tile_rows

    if os.environ.get("GRAFT_FLAGSHIP_ONLY"):
        return {
            "metric": "flagship spatial-join sec",
            "value": round(flagship_s, 3),
            "unit": "sec",
            "queries": {k: round(v, 3) for k, v in queries.items()},
            "sf": sf_dir,
            "num_cpus": num_cpus,
            "host_calibration": calibration,
            "flagship": {
                "pages_replicas": replicas,
                "join_rows": int(join_rows),
                "sec": round(flagship_s, 3),
                "join_rows_per_sec": round(join_rows / flagship_s, 1),
                "executor_launches": flagship_launches,
            },
        }

    # -- operator benches over the sf tables --------------------------------
    # warm the sf parquet files too (untimed), symmetrical with the page
    # corpus warm above — first-touch disk reads otherwise land on
    # whichever query runs first
    for name in sorted(os.listdir(sf_dir)):
        if name.endswith(".parquet"):
            with open(os.path.join(sf_dir, name), "rb") as f:
                while f.read(1 << 24):
                    pass
    def _minhash_corpus(sf):
        # the CORPUS-scale minhash pipeline (the driver query moved to a
        # planted-construction corpus in round 3 — benching that 42-doc
        # table would be meaningless; this keeps the BENCH series
        # comparable across rounds)
        import ray.data as rd

        from osmptparser_ray.text.dedup import (
            lsh_candidate_pairs,
            minhash_signatures,
            verify_jaccard,
        )

        docs = rd.read_parquet(
            os.path.join(sf, "documents.parquet"), columns=["doc_id", "text"]
        )
        sigs = minhash_signatures(docs, num_perm=64, shingle_k=5)
        pairs = lsh_candidate_pairs(sigs, bands=16)
        return verify_jaccard(pairs, docs, threshold=0.5).select_columns(
            ["doc_a", "doc_b"]
        )

    q = entrymod.queries()
    def _pagerank_orders(sf):
        # iterative-shape timing: 3 power iterations over a bipartite-ish
        # graph derived from orders (custkey -> orderkey mod 2^14); the
        # driver-gate pagerank query is a 12-node planted graph and times
        # nothing
        import pyarrow as pa
        import pyarrow.compute as _pc
        import ray.data as rd

        from osmptparser_ray.graph import pagerank

        edges = rd.read_parquet(
            os.path.join(sf, "orders.parquet"), columns=["o_custkey", "o_orderkey"]
        ).map_batches(
            lambda t: pa.table(
                {
                    "src": t["o_custkey"],
                    "dst": _pc.bit_wise_and(t["o_orderkey"], (1 << 14) - 1),
                }
            ),
            batch_format="pyarrow",
        )
        return pagerank(edges, n_iter=3, damping=0.85)

    q = dict(q, minhash_near_dup=_minhash_corpus, pagerank_orders=_pagerank_orders)
    for name in (
        "groupby_agg",
        "hash_join_revenue",
        "window_tumbling",
        "exact_dedup",
        "minhash_near_dup",
        "ann_cosine_topk",
        "spatial_knn",
        "pip_rect",
    ):
        t0 = time.perf_counter()
        res = q[name](sf_dir)
        import ray.data as rd

        n = res.count() if isinstance(res, rd.Dataset) else len(res)
        queries[name] = round(time.perf_counter() - t0, 3)
        _ = n

    # round-4 operators: timed but kept OUT of the headline total so the
    # BENCH_r{N} series stays comparable across rounds (9-query total)
    extra = {}
    for name in (
        "topk_per_group",
        "quantile_sketch",
        "approx_quantiles",
        "interval_join_shuffle",
        "running_agg",
        "anti_join_shuffle",
        "hll_distinct",
        "pack_sequences",
        "distance_join",
        # round-4 late-session operators
        "ann_bigbig_join",
        "tfidf_top_terms",
        "salted_join",
        "sessionize_incremental",
        "intersect_distinct",
        "pagerank_orders",
        # round-5 operators
        "lead_lag_rank",
        "heavy_hitters_incremental",
        "duplicate_groups",
        "corr_by_group",
        "triangle_count",
        "skyline",
        "group_concat",
        "kmeans_planted",
        # round-5 late-session operators
        "span_dedup",
        "repetition_ratio",
        "mode_per_group",
        "webtext_e2e",
        "unpivot",
        "full_outer_join",
    ):
        t0 = time.perf_counter()
        res = q[name](sf_dir)
        import ray.data as rd

        n = res.count() if isinstance(res, rd.Dataset) else len(res)
        extra[name] = round(time.perf_counter() - t0, 3)
        _ = n

    total = round(sum(queries.values()), 3)
    return {
        "metric": "spatial-join output rows/sec (stop->route PIP + kNN) + operator bench total sec",
        "value": total,
        "unit": "sec",
        "queries": {k: round(v, 3) for k, v in queries.items()},
        "extra_queries": extra,
        "sf": sf_dir,
        "num_cpus": num_cpus,
        "host_calibration": calibration,
        "flagship": {
            "pages_replicas": replicas,
            "join_rows": int(join_rows),
            "pip_rows": int(pip_rows),
            "knn_rows": int(knn_rows),
            "tile_rows": int(tile_rows),
            "sec": round(flagship_s, 3),
            "join_rows_per_sec": round(join_rows / flagship_s, 1),
            "executor_launches": flagship_launches,
        },
    }


def main() -> None:
    sf_dir = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
    num_cpus = int(os.environ.get("RAY_GRAFT_CPUS", "32"))
    replicas = int(os.environ.get("GRAFT_REPLICAS", "2000"))

    if "--scaling" in sys.argv:
        # Fresh processes at N and 4N CPUs on the SAME input — the sandbox
        # realization of the two-cluster-size rule (BASELINE.md). Two pairs
        # are measured: (2, 8) where neither level saturates the single
        # machine (the honest analogue of adding NODES, each bringing its
        # own memory bandwidth), and (8, 32) where the upper level runs
        # into single-box bandwidth + co-located-driver limits that a real
        # multi-node cluster does not share.
        import subprocess

        # 20k replicas (~2.2M pages): after the round-2 per-core speedups
        # the 10k corpus finished so fast at 8+ CPUs that fixed session /
        # driver costs (~8 s, constant in N) dominated the ratio — the
        # measurement was of overheads, not scaling. Doubling the input
        # (same deterministic corpus at EVERY level) restores a
        # work-dominated measurement.
        replicas_s = os.environ.get("GRAFT_SCALING_REPLICAS", "20000")
        levels = tuple(
            int(x)
            for x in os.environ.get("GRAFT_SCALING_LEVELS", "2,8,32").split(",")
        )
        # --pinned: bound the WHOLE process tree (driver, object store,
        # workers) to N physical cores with taskset. Without pinning,
        # `ray.init(num_cpus=N)` only caps logical task slots — Ray's
        # helper threads (plasma copies, serialization, the driver) run on
        # the box's FREE cores, which flatters the low-N levels and makes
        # the efficiency ratio pessimistic. Pinning is the honest
        # emulation of an N-core NODE that must do everything itself.
        pinned = "--pinned" in sys.argv
        # --weak: weak scaling (Gustafson) — the input grows with N (same
        # replicas-per-cpu at every level), the standard evidence that a
        # cluster can take on proportionally more work per added node.
        # Strong scaling on a small FIXED input under-states large-cluster
        # efficiency by construction: the serial floor S is constant while
        # the parallel share P/N shrinks, so the measured ratio falls as
        # the engine's per-core work gets FASTER (Amdahl). Efficiency here
        # = T(N, W) / T(4N, 4W).
        weak = "--weak" in sys.argv
        results = {}
        for n in levels:
            reps = (
                str(int(replicas_s) * n // levels[0]) if weak else replicas_s
            )
            env = dict(
                os.environ,
                RAY_GRAFT_CPUS=str(n),
                GRAFT_REPLICAS=reps,
                GRAFT_FLAGSHIP_ONLY="1",
            )
            cmd = [sys.executable, os.path.abspath(__file__)]
            if pinned:
                cmd = ["taskset", "-c", f"0-{n - 1}"] + cmd
            out = subprocess.run(
                cmd,
                env=env,
                capture_output=True,
                text=True,
                check=True,
            ).stdout
            results[n] = json.loads(out.strip().splitlines()[-1])

        def thr(n):
            return results[n]["flagship"]["join_rows_per_sec"]

        pairs = {}
        for a, b in zip(levels, levels[1:]):
            if weak:
                # T(a, W) / T(b, W*b/a): 1.0 == perfect weak scaling
                pairs[f"{a}->{b}"] = round(
                    results[a]["flagship"]["sec"] / results[b]["flagship"]["sec"], 3
                )
            else:
                pairs[f"{a}->{b}"] = round((thr(b) / thr(a)) / (b / a), 3)
        first_pair = next(iter(pairs.values()))
        print(
            json.dumps(
                {
                    "metric": "scaling efficiency (flagship join rows/sec, N vs 4N cpus)",
                    "value": first_pair,
                    "unit": "ratio",
                    "pairs": pairs,
                    "throughput_rows_per_sec": {str(n): thr(n) for n in levels},
                    "flagship_sec": {
                        str(n): results[n]["flagship"]["sec"] for n in levels
                    },
                    "scaling_replicas": int(replicas_s),
                    "pinned": pinned,
                    "weak": weak,
                }
            )
        )
        return

    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=num_cpus,
            include_dashboard=False,
            ignore_reinit_error=True,
            logging_level="ERROR",
        )
    logging.getLogger("ray.data").setLevel(logging.ERROR)
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.execution_options.verbose_progress = False

    result = run_benches(sf_dir, num_cpus, replicas)
    ray.shutdown()
    print(json.dumps(result))


if __name__ == "__main__":
    main()
