"""Smoke test of the benchmark harness at tiny input sizes.

    python3 -m pytest perfbench/tests -q

The harness runs in this process with its input sizes patched down; each
run starts and stops its own 2-CPU Ray session. Takes a few minutes.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pyarrow as pa
import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [ROOT, BENCH]
with open(os.path.join(ROOT, "BENCHMARK.json")) as _f:
    SPEC = json.load(_f)

import checks  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402


@pytest.fixture
def tiny(monkeypatch):
    monkeypatch.setattr(run, "REPLICAS", 2)
    monkeypatch.setattr(run, "CUSTOMERS", 150)
    monkeypatch.setattr(run, "SETUP_CYCLES", 1)
    # run.main() points the Ray workers' import path at the checkout
    monkeypatch.setenv("PYTHONPATH", os.environ.get("PYTHONPATH", ""))
    monkeypatch.setenv("PYTHONHASHSEED", os.environ.get("PYTHONHASHSEED", ""))
    return run


@pytest.mark.parametrize(
    "workload,trace",
    [("flagship_broadcast", 0), ("relational_skew", 0),
     ("flagship_shuffle", 1), ("relational_skew", 1)],
)
def test_every_metric_printed_with_its_unit(tiny, capsys, workload, trace):
    argv = ["--workload", workload, "--seed", "7", "--seconds", "1", "--trace", str(trace)]
    assert tiny.main(argv) == 0
    *_, record, result = capsys.readouterr().out.strip().splitlines()
    record, result = json.loads(record)["record"], json.loads(result)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, record["problems"]
    assert result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec
    }
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    assert record["ray_num_cpus"] == 2 and record["error_rate"] == 0


def test_corrupted_relational_output_fails_the_check(tmp_path):
    tables = inputs.relational_tables(str(tmp_path), seed=7, customers=150)
    oracle = checks.relational_oracles(tables, ["salted_join"])["salted_join"]
    got = pa.Table.from_pandas(oracle, preserve_index=False)
    assert checks.check_relational("salted_join", got, oracle) == []
    reversed_rows = got.take(list(range(got.num_rows))[::-1])
    assert checks.check_relational("salted_join", reversed_rows, oracle) == []
    assert checks.check_relational("salted_join", got.slice(1), oracle)
    seg = got["c_mktsegment"].to_pylist()
    bumped = got.set_column(
        got.column_names.index("c_mktsegment"), "c_mktsegment",
        pa.array(seg[:-1] + ["X"]),
    )
    assert checks.check_relational("salted_join", bumped, oracle)


def test_broadcast_and_shuffle_plans_give_identical_outputs(tiny):
    import workloads

    os.environ["PYTHONPATH"] = os.pathsep.join([ROOT, BENCH])
    pages = inputs.pages_corpus(run.RUN_DIR, seed=7, replicas=2)
    run._ray_init()
    try:
        out = {}
        for side in ("broadcast", "shuffle"):
            sinks = workloads.flagship_fused(pages, side)["sinks"]
            out[side] = {k: workloads.to_arrow(d) for k, d in sinks.items()}
            assert checks.check_flagship(out[side], replicas=2) == []
    finally:
        run._stop_ray()
    assert checks.spatial_digest(out["broadcast"]) == checks.spatial_digest(out["shuffle"])
    # a dropped output row trips the check
    for name in ("tiles", "pip", "knn", "public_transports"):
        broken = dict(out["broadcast"], **{name: out["broadcast"][name].slice(1)})
        assert checks.check_flagship(broken, replicas=2), name


def test_directory_without_the_engine_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "flagship_broadcast",
         "--seed", "7", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
