"""Local simulation of the driver's correctness gate.

Runs every ``queries()[name](sf_dir)`` and compares against
``oracle_sql()[name]`` via DuckDB: row count, column names (sorted), and
order-insensitive value comparison. Each query's line shows its wall,
its streaming executions (Ray Data executor launches, counted with
``perfbench.workloads.ExecutionCounter``) and the executor runs that log
no launch line (``UnloggedRuns``: iterating a ``rd.from_arrow_refs``
dataset runs the executor over its input blocks alone, about 20 ms each
time) and Ray Data's warnings that an operator produced a block of a
different schema than the blocks before it (``SchemaWarnings``: most
often a columnless empty block after typed ones); the last line gives
the totals.
Usage:

    python tools/check_oracles.py [sf_dir] [query ...]
"""

from __future__ import annotations

import gc
import logging
import sys
from pathlib import Path

import duckdb
import numpy as np
import pandas as pd

REPO = Path(__file__).resolve().parents[1]


def to_pandas(result) -> pd.DataFrame:
    import pyarrow as pa
    import ray.data as rd

    if isinstance(result, rd.Dataset):
        return result.to_pandas()
    if isinstance(result, pa.Table):
        return result.to_pandas()
    return result


def canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if df[c].dtype == object:
            df[c] = df[c].astype(str)
    return df.sort_values(list(df.columns), kind="stable").reset_index(drop=True)


def compare(name: str, mine: pd.DataFrame, oracle: pd.DataFrame) -> list[str]:
    problems = []
    if sorted(mine.columns) != sorted(oracle.columns):
        problems.append(f"columns {sorted(mine.columns)} vs {sorted(oracle.columns)}")
        return problems
    for c in mine.columns:
        a, b = mine[c].dtype, oracle[c].dtype
        if str(a) != str(b):
            problems.append(f"dtype {c}: {a} vs {b}")
    if len(mine) != len(oracle):
        problems.append(f"rows {len(mine)} vs {len(oracle)}")
    a, b = canon(mine), canon(oracle)
    if len(a) == len(b):
        for c in a.columns:
            av, bv = a[c].to_numpy(), b[c].to_numpy()
            if np.issubdtype(av.dtype, np.floating) or np.issubdtype(bv.dtype, np.floating):
                av = av.astype(np.float64)
                bv = bv.astype(np.float64)
                if not np.array_equal(av, bv):
                    bad = np.nonzero(av != bv)[0]
                    mx = np.max(np.abs(av[bad] - bv[bad]))
                    problems.append(f"float col {c}: {len(bad)} diffs, max {mx:.3e}")
            else:
                if not (av == bv).all():
                    bad = int((av != bv).sum())
                    i = int(np.nonzero(av != bv)[0][0])
                    problems.append(f"col {c}: {bad} diffs, first at {i}: {av[i]!r} vs {bv[i]!r}")
    return problems


class UnloggedRuns:
    """Counts the streaming executor's runs in this process by wrapping
    ``StreamingExecutor.execute``; ``unlogged`` is the runs the
    executor's log line misses (``logged`` is that line's count)."""

    def __init__(self):
        from ray.data._internal.execution.streaming_executor import StreamingExecutor

        self.runs = 0
        execute = StreamingExecutor.execute

        def counted(executor, *args, **kwargs):
            self.runs += 1
            return execute(executor, *args, **kwargs)

        StreamingExecutor.execute = counted

    def unlogged(self, logged: int) -> int:
        return self.runs - logged


class SchemaWarnings(logging.Handler):
    """Counts Ray Data's "Operator produced a RefBundle with a different
    schema" warnings, logged by the driver's streaming executor."""

    def __init__(self):
        super().__init__(logging.WARNING)
        self.count = 0
        logging.getLogger("ray.data").addHandler(self)

    def emit(self, record):
        if "different schema" in record.getMessage():
            self.count += 1


def main() -> int:
    import ray

    sf_dir = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.01"
    only = set(sys.argv[2:])

    if not ray.is_initialized():
        import os

        ncpu = int(os.environ.get("RAY_GRAFT_CPUS", "8"))
        ray.init(address="local", num_cpus=ncpu, include_dashboard=False, logging_level="ERROR")
    logging.getLogger("ray.data").setLevel(logging.WARNING)
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    sys.path.insert(0, str(REPO))
    import __ray_entry__ as entrymod
    from perfbench.workloads import ExecutionCounter

    executions = ExecutionCounter()
    executions.install()
    runs = UnloggedRuns()
    schemas = SchemaWarnings()

    con = duckdb.connect()
    for t in (
        "region nation customer supplier part orders lineitem events documents embeddings"
    ).split():
        con.sql(f"CREATE VIEW {t} AS SELECT * FROM '{sf_dir}/{t}.parquet'")

    qs = entrymod.queries()
    oracles = entrymod.oracle_sql()
    failures = 0
    import time as _time

    t_all = _time.perf_counter()
    for name, fn in qs.items():
        if only and name not in only:
            continue
        gc.collect()  # a collection pause from the queries before is not this query's wall
        t0, e0, r0, w0 = _time.perf_counter(), executions.count, runs.runs, schemas.count
        try:
            mine = to_pandas(fn(sf_dir))
        except Exception as e:  # noqa: BLE001
            print(f"FAIL {name}: query raised {type(e).__name__}: {e}")
            failures += 1
            continue
        wall, logged = _time.perf_counter() - t0, executions.count - e0
        cost = (f"[{wall:.2f}s, {logged} exec, {runs.runs - r0 - logged} unlogged, "
                f"{schemas.count - w0} schema warnings]")
        if name not in oracles:
            print(f"ok(rows-only) {name}: {len(mine)} rows {cost}")
            continue
        try:
            oracle = con.sql(oracles[name]).df()
        except Exception as e:  # noqa: BLE001
            print(f"FAIL {name}: oracle raised {type(e).__name__}: {e}")
            failures += 1
            continue
        problems = compare(name, mine, oracle)
        if problems:
            print(f"FAIL {name}: " + "; ".join(problems))
            failures += 1
        else:
            print(f"OK   {name}: {len(mine)} rows match {cost}")
    print(f"TOTAL {_time.perf_counter() - t_all:.1f}s, {executions.count} exec, "
          f"{runs.unlogged(executions.count)} unlogged, {schemas.count} schema warnings")
    ray.shutdown()
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
