"""``util.cosort``: every key reaches exactly one probe call, and the
output does not depend on block layout."""

import uuid

import numpy as np
import pyarrow as pa
import pytest
import ray.data as rd

from osmptparser_ray.util import cosort, key_runs

SCHEMA = pa.schema([("k", pa.int64()), ("side", pa.int8()), ("v", pa.int64())])
OUT = ["k", "n", "n_left", "v_sum", "sorted"]


def _make_probe():
    """A probe giving one row per key run of its sides' rows, tagged with
    an id of the call; a row's side is the position of its table (built
    in a closure so that Ray workers, which cannot import this test
    module, receive it by value)."""

    def probe(*sides: pa.Table) -> pa.Table:
        def col(name):
            return np.concatenate([t[name].to_numpy(zero_copy_only=False) for t in sides])

        k, v = col("k"), col("v")
        order = np.argsort(k, kind="stable")
        k, v = k[order], v[order]
        side = np.repeat(np.arange(len(sides)), [t.num_rows for t in sides])[order]
        each_sorted = all(np.all(np.diff(t["k"].to_numpy(zero_copy_only=False)) >= 0) for t in sides)
        b = key_runs(k)
        starts = b[:-1]
        return pa.table(
            {
                "k": pa.array(k[starts], pa.int64()),
                "n": pa.array(np.diff(b), pa.int64()),
                "n_left": pa.array(np.add.reduceat(side == 0, starts) if len(k) else [], pa.int64()),
                "v_sum": pa.array(np.add.reduceat(v, starts) if len(k) else [], pa.int64()),
                "sorted": pa.array([each_sorted] * len(starts), pa.bool_()),
                "call": pa.array([uuid.uuid4().hex] * len(starts), pa.string()),
            }
        )

    return probe


def _side(keys, side: int) -> pa.Table:
    keys = np.asarray(keys, np.int64)
    return pa.table(
        {
            "k": pa.array(keys, pa.int64()),
            "side": pa.array(np.full(len(keys), side, np.int8), pa.int8()),
            "v": pa.array(np.arange(len(keys), dtype=np.int64) * 7 + side, pa.int64()),
        },
        schema=SCHEMA,
    )


def _expected(left: pa.Table, right: pa.Table) -> list:
    t = pa.concat_tables([left, right]).to_pandas()
    g = t.groupby("k")
    return sorted(
        (int(k), int(len(x)), int((x.side == 0).sum()), int(x.v.sum()), True) for k, x in g
    )


def _layout(t: pa.Table, layout: str) -> rd.Dataset:
    if layout == "one_block":
        return rd.from_arrow(t)
    if layout == "one_row_blocks":
        return rd.from_arrow([t.slice(i, 1) for i in range(t.num_rows)])
    assert layout == "empty_block"
    h = t.num_rows // 2
    return rd.from_arrow([t.slice(0, h), pa.table({}), t.slice(h)])


def _data(hot: bool):
    rng = np.random.default_rng(5)
    if hot:
        # key 7 holds about 85% of all rows, on both sides
        left = np.where(rng.random(60) < 0.85, 7, rng.integers(0, 20, 60))
        right = np.where(rng.random(40) < 0.85, 7, rng.integers(0, 20, 40))
    else:
        left, right = rng.integers(0, 25, 60), rng.integers(5, 30, 40)
    return _side(left, 0), _side(right, 1)


class TestCosortLayout:
    @pytest.mark.parametrize("hot", [False, True], ids=["spread", "hot_key"])
    def test_layout_invariance(self, ray_session, hot):
        left, right = _data(hot)
        want = _expected(left, right)
        for layout in ("one_block", "one_row_blocks", "empty_block"):
            out = cosort(
                [_layout(left, layout), _layout(right, layout)], ["k"], _make_probe(), [SCHEMA] * 2
            ).to_pandas()
            # one output row per key: every key reached exactly one call
            assert out.k.is_unique, layout
            got = sorted(tuple(r) for r in out[OUT].itertuples(index=False))
            assert [(int(a), int(b), int(c), int(d), bool(e)) for a, b, c, d, e in got] == want, layout
        if hot:
            assert want[[k for k, *_ in want].index(7)][1] > 80

    def test_one_side(self, ray_session):
        left, _ = _data(False)
        out = cosort([_layout(left, "one_row_blocks")], ["k"], _make_probe(), [SCHEMA]).to_pandas()
        assert out.k.is_unique
        assert int(out.n.sum()) == left.num_rows

    @pytest.mark.parametrize("empty", ["schema_only", "columnless"])
    def test_no_rows_probes_empty_schema_table(self, ray_session, empty):
        t = SCHEMA.empty_table() if empty == "schema_only" else pa.table({})
        out = cosort([rd.from_arrow(t), rd.from_arrow(SCHEMA.empty_table())], ["k"], _make_probe(), [SCHEMA] * 2)
        assert out.count() == 0
        assert out.schema().names == OUT + ["call"]


# -- util.equi_join ----------------------------------------------------------

HOWS = ["inner", "left_outer", "left_anti", "full_outer"]
TAGS = pa.map_(pa.string(), pa.string())


def _join_sides(hot: bool):
    """Left keyed on ``k`` (int32), right on ``kk`` (int64): null keys and
    duplicate keys on both sides, a non-key name on both sides (``a``) and
    map/list payload columns; with ``hot`` one key holds ~85% of the rows."""
    rng = np.random.default_rng(11)

    def keys(n, lo, hi):
        k = rng.integers(lo, hi, n).astype(object)
        if hot:
            k[rng.random(n) < 0.85] = 4
        k[rng.random(n) < 0.15] = None
        return k

    lk, rk = keys(30, 0, 10), keys(20, 3, 14)
    left = pa.table(
        {
            "k": pa.array(lk, pa.int32()),
            "a": pa.array(np.arange(30), pa.int64()),
            "x": pa.array([f"x{i}" for i in range(30)]),
            "lst": pa.array([[i, i + 1] for i in range(30)], pa.list_(pa.int64())),
        }
    )
    right = pa.table(
        {
            "kk": pa.array(rk, pa.int64()),
            "a": pa.array(np.arange(100, 120), pa.int64()),
            "m": pa.array([[("t", f"v{i}")] for i in range(20)], TAGS),
        }
    )
    return left, right


def _join_oracle(left: pa.Table, right: pa.Table, how: str) -> list:
    """Row-by-row reference: null keys never match; full_outer puts the
    right key of an unmatched right row into the left key column."""
    lrows, rrows = left.to_pylist(), right.to_pylist()
    out, hit = [], set()
    for lr in lrows:
        js = [j for j, rr in enumerate(rrows) if lr["k"] is not None and rr["kk"] == lr["k"]]
        lv = (lr["k"], lr["a"], lr["x"], lr["lst"])
        if how == "left_anti":
            out += [lv] if not js else []
            continue
        out += [lv + (rrows[j]["a"], rrows[j]["m"]) for j in js]
        hit.update(js)
        if not js and how != "inner":
            out.append(lv + (None, None))
    if how == "full_outer":
        out += [(rr["kk"], None, None, None, rr["a"], rr["m"])
                for j, rr in enumerate(rrows) if j not in hit]
    return sorted(map(repr, out))


def _join_layout(t: pa.Table, layout: str) -> rd.Dataset:
    return _layout(t, "one_block" if layout == "hot_key" else layout)


JOIN_OUT = {"inner": ["k", "a_l", "x", "lst", "a_r", "m"]}
JOIN_OUT["left_outer"] = JOIN_OUT["full_outer"] = JOIN_OUT["inner"]
JOIN_OUT["left_anti"] = ["k", "a", "x", "lst"]
JOIN_TYPES = {"k": pa.int32(), "a": pa.int64(), "a_l": pa.int64(), "x": pa.string(),
              "lst": pa.list_(pa.int64()), "a_r": pa.int64(), "m": TAGS}


def _check(out: rd.Dataset, left: pa.Table, right: pa.Table, how: str):
    """Every output block carries the full typed schema (the left key
    keeps int32), and the rows are the oracle's."""
    import ray

    blocks = ray.get(out.to_arrow_refs())
    want = pa.schema([(n, JOIN_TYPES[n]) for n in JOIN_OUT[how]])
    assert blocks and all(b.schema == want for b in blocks)
    rows = pa.concat_tables(blocks).to_pylist()
    assert sorted(repr(tuple(r.values())) for r in rows) == _join_oracle(left, right, how)


class TestEquiJoin:
    @pytest.mark.parametrize("layout", ["one_block", "one_row_blocks", "empty_block", "hot_key"])
    @pytest.mark.parametrize("how", HOWS)
    def test_matches_oracle(self, ray_session, how, layout):
        from osmptparser_ray.util import equi_join

        left, right = _join_sides(layout == "hot_key")
        out = equi_join(
            _join_layout(left, layout), _join_layout(right, layout), "k", right_on="kk",
            how=how, left_suffix="_l", right_suffix="_r",
        )
        _check(out, left, right, how)

    @pytest.mark.parametrize("how", HOWS)
    def test_schema_matches_arrow_join(self, ray_session, how):
        """Where Acero can join (same key types, no nested payload), the
        output columns, their order and their types are Acero's."""
        from osmptparser_ray.util import equi_join

        left, right = _join_sides(False)
        left = left.drop_columns(["lst"]).cast(
            pa.schema([("k", pa.int64()), ("a", pa.int64()), ("x", pa.string())])
        )
        right = right.drop_columns(["m"]).rename_columns(["k", "a"])
        want = left.join(right, "k", join_type=how.replace("_", " "), left_suffix="_l", right_suffix="_r")
        out = equi_join(rd.from_arrow(left), rd.from_arrow(right), "k", how=how,
                        left_suffix="_l", right_suffix="_r")
        assert out.schema().base_schema == want.schema
        assert sorted(map(repr, out.to_pandas().itertuples(index=False))) == sorted(
            map(repr, want.to_pandas().itertuples(index=False))
        )

    @pytest.mark.parametrize("empty", ["left", "right"])
    @pytest.mark.parametrize("how", HOWS)
    def test_side_without_rows_gives_typed_output(self, ray_session, how, empty):
        from osmptparser_ray.util import equi_join

        left, right = _join_sides(False)
        if empty == "left":
            left = left.schema.empty_table()
        else:
            right = right.schema.empty_table()
        out = equi_join(rd.from_arrow(left), rd.from_arrow(right), "k", right_on="kk",
                        how=how, left_suffix="_l", right_suffix="_r")
        _check(out, left, right, how)

    def test_collision_without_suffix_rejected(self, ray_session):
        from osmptparser_ray.util import equi_join

        left, right = _join_sides(False)
        with pytest.raises(ValueError, match="suffix"):
            equi_join(rd.from_arrow(left), rd.from_arrow(right), "k", right_on="kk")


_JOINS_AT_TWO_CPUS = r"""
import sys

import duckdb
import ray
from ray.data import DataContext

sys.path.insert(0, sys.argv[2])
from check_oracles import compare, to_pandas

sf_dir = sys.argv[1]
ray.init(address="local", num_cpus=2, include_dashboard=False, logging_level="ERROR")
DataContext.get_current().enable_progress_bars = False
import __ray_entry__ as entry

con = duckdb.connect()
for t in ("customer", "orders", "lineitem", "events"):
    con.sql(f"CREATE VIEW {t} AS SELECT * FROM '{sf_dir}/{t}.parquet'")
for name in ("full_outer_join", "first_last_value", "hash_join_revenue"):
    mine = to_pandas(entry.queries()[name](sf_dir))
    problems = compare(name, mine, con.sql(entry.oracle_sql()[name]).df())
    print(name, "; ".join(problems) or "OK", flush=True)
ray.shutdown()
"""


def _run_script(script: str, sf_dir: str, timeout: int) -> str:
    """``script`` in a subprocess (its own Ray session) → its stdout; the
    test fails when it does not finish within ``timeout`` seconds."""
    import os
    import signal
    import subprocess
    import sys

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    proc = subprocess.Popen(
        [sys.executable, "-c", script, sf_dir, os.path.join(root, "tools")],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env={**os.environ, "PYTHONPATH": root}, start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # the driver and its Ray processes
        proc.communicate()
        pytest.fail(f"the script did not finish in {timeout} s")
    assert proc.returncode == 0, err[-3000:]
    return out


class TestJoinSmallCluster:
    def test_gate_joins_finish_at_two_cpus(self, sf_dir):
        """The gate's join queries in a Ray session of 2 CPUs finish within
        180 s and match their DuckDB oracles hash-exactly, dtypes included.
        A subprocess, because the test session's own Ray has 4 CPUs and a
        join that pins CPUs in actors deadlocks only in a smaller one."""
        out = _run_script(_JOINS_AT_TWO_CPUS, sf_dir, 180)
        assert out.split("\n")[:3] == [
            "full_outer_join OK", "first_last_value OK", "hash_join_revenue OK"
        ], out


_SMALL_BLOCKS = r"""
import sys

import duckdb
import pyarrow as pa
import ray
from ray.data import DataContext

sys.path.insert(0, sys.argv[2])
from check_oracles import compare

sf_dir = sys.argv[1]
ray.init(address="local", num_cpus=2, include_dashboard=False, logging_level="ERROR")
ctx = DataContext.get_current()
ctx.enable_progress_bars = False
ctx.target_min_block_size = 1024
import __ray_entry__ as entry

con = duckdb.connect()
for t in ("customer", "orders", "lineitem", "documents"):
    con.sql(f"CREATE VIEW {t} AS SELECT * FROM '{sf_dir}/{t}.parquet'")
for name in ("hash_join_revenue", "webtext_e2e"):
    blocks = ray.get(entry.queries()[name](sf_dir).to_arrow_refs())
    try:
        mine = pa.concat_tables(blocks).to_pandas()
    except Exception as e:
        print(name, f"{sum(not b.num_columns for b in blocks)} of {len(blocks)} blocks columnless: {e}", flush=True)
        continue
    problems = compare(name, mine, con.sql(entry.oracle_sql()[name]).df())
    print(name, "; ".join(problems) or "OK", flush=True)
ray.shutdown()
"""


class TestGroupAggSmallBlocks:
    def test_grouped_gate_queries_concat_at_small_block_size(self, sf_dir):
        """At 2 CPUs with ``target_min_block_size`` 1 KiB every probe of
        the grouped gate queries emits its own block; the blocks must all
        carry the schema (``pa.concat_tables`` of them works) and match
        the DuckDB oracle hash-exactly, dtypes included."""
        out = _run_script(_SMALL_BLOCKS, sf_dir, 300)
        assert out.split("\n")[:2] == ["hash_join_revenue OK", "webtext_e2e OK"], out


_SKEW_GATE = r"""
import sys

import duckdb
import ray
from ray.data import DataContext

sys.path.insert(0, sys.argv[2])
from check_oracles import compare, to_pandas

sf_dir = sys.argv[1]
ray.init(address="local", num_cpus=2, include_dashboard=False, logging_level="ERROR")
ctx = DataContext.get_current()
ctx.enable_progress_bars = False
ctx.target_min_block_size = 1024
import __ray_entry__ as entry
from osmptparser_ray import util

regroups, boundaries = [], util._boundaries


def counted(*args, **kwargs):
    regroups.append(1)
    return boundaries(*args, **kwargs)


util._boundaries = counted
con = duckdb.connect()
for t in ("customer", "orders", "events", "documents"):
    con.sql(f"CREATE VIEW {t} AS SELECT * FROM '{sf_dir}/{t}.parquet'")
for name in ("salted_join", "minhash_near_dup", "interval_join_shuffle"):
    regroups.clear()
    mine = to_pandas(entry.queries()[name](sf_dir))
    problems = compare(name, mine, con.sql(entry.oracle_sql()[name]).df())
    problems += [] if regroups else ["no regroup at P > 1"]
    print(name, "; ".join(problems) or "OK", flush=True)
ray.shutdown()
"""


class TestSkewGateSmallBlocks:
    def test_spreading_joins_match_duckdb_at_small_block_size(self, sf_dir):
        """The gate queries whose joins carried their own salting before
        the partitioner's skew rule, at 2 CPUs with
        ``target_min_block_size`` 1 KiB, so that each join regroups at
        P > 1 (at default sizes every gate regroup is one range): each
        matches its DuckDB oracle hash-exactly, dtypes included."""
        out = _run_script(_SKEW_GATE, sf_dir, 300)
        assert out.split("\n")[:3] == [
            "salted_join OK", "minhash_near_dup OK", "interval_join_shuffle OK"
        ], out


def test_sort_schema_warnings_dropped_errors_kept(ray_session, caplog):
    """A cosort whose sort leaves empty key ranges after a non-empty one
    (two keys, one of them over many blocks) logs no schema-change line;
    a real error still raises."""
    import logging

    log = logging.getLogger("ray.data._internal.execution.streaming_executor_state")
    log.addHandler(caplog.handler)
    try:
        with caplog.at_level(logging.WARNING, logger=log.name):
            t = _side(np.r_[np.full(2, 1), np.full(40, 3)], 0)
            out = cosort([_layout(t, "one_row_blocks")], ["k"], _make_probe(), [SCHEMA])
            assert sorted(out.to_pandas().n.tolist()) == [2, 40]
        assert not [r for r in caplog.records if "different schema" in r.getMessage()]
        with pytest.raises(Exception, match="nope"):
            cosort([_layout(t, "one_row_blocks")], ["nope"], _make_probe(), [SCHEMA])
    finally:
        log.removeHandler(caplog.handler)


# -- util.group_agg ----------------------------------------------------------


def _agg_table(hot: bool) -> pa.Table:
    """``k`` int32 with null keys, ``s`` string, ``v`` int32 with null
    values (one ``k`` group has no value at all; string group ``s4`` has
    no null, as Ray types a column of nulls only as null), ``f`` float64;
    with ``hot`` one ``k`` holds ~85% of the rows."""
    rng = np.random.default_rng(23)
    n = 60
    k = rng.integers(0, 8, n).astype(object)
    if hot:
        k[rng.random(n) < 0.85] = 5
    k[rng.random(n) < 0.1] = None
    k[:3] = 9  # the group without values
    s = np.array([f"s{i}" for i in rng.integers(0, 5, n)])
    s[:3] = "s0"
    v = rng.integers(-50, 50, n).astype(object)
    v[(rng.random(n) < 0.2) & (s != "s4")] = None  # no null in "s4"
    v[:3] = None
    return pa.table(
        {
            "k": pa.array(k, pa.int32()),
            "s": pa.array(s),
            "v": pa.array(v, pa.int32()),
            "f": pa.array(rng.integers(0, 80, n) / 8, pa.float64()),  # exact sums
        }
    )


def _aggs(case: str) -> list:
    from ray.data.aggregate import Count, Max, Min, Sum

    one = {
        "count": [Count(alias_name="n")],
        "sum": [Sum("v", alias_name="sv")],
        "min": [Min("v", alias_name="mn")],
        "max": [Max("s", alias_name="mx")],
    }
    if case in one:
        return one[case]
    return [Count(alias_name="n"), Sum("v", alias_name="sv"), Min("v", alias_name="mn"),
            Max("s", alias_name="mx"), Sum("f", alias_name="sf"), Count("v", ignore_nulls=True, alias_name="nv"),
            Min("v", ignore_nulls=False, alias_name="mn_strict")]


AGG_KEYS = {"int": ["k"], "string": ["s"], "two": ["k", "s"]}
AGG_TYPES = {"k": pa.int64(), "s": pa.string(), "n": pa.int64(), "sv": pa.int64(), "mn": pa.int64(),
             "mx": pa.string(), "sf": pa.float64(), "nv": pa.int64(), "mn_strict": pa.int64()}


@pytest.fixture
def one_probe_per_block():
    """Every sorted block gets its own probe, as on inputs past
    ``target_min_block_size``, so a key split over blocks would show."""
    from ray.data import DataContext

    ctx = DataContext.get_current()
    old, ctx.target_min_block_size = ctx.target_min_block_size, 1
    yield
    ctx.target_min_block_size = old


class TestGroupAgg:
    @pytest.mark.parametrize("layout", ["one_block", "one_row_blocks", "empty_block", "hot_key"])
    @pytest.mark.parametrize("keys", list(AGG_KEYS))
    @pytest.mark.parametrize("case", ["count", "sum", "min", "max", "all"])
    def test_matches_ray_groupby(self, ray_session, one_probe_per_block, case, keys, layout):
        """The rows, their order, the column order and the types of Ray's
        own ``groupby().aggregate()``; every output block has them all."""
        import ray

        from osmptparser_ray.util import group_agg

        t = _agg_table(layout == "hot_key")
        ds = rd.from_arrow([t.slice(i, 15) for i in range(0, 60, 15)]) if layout == "hot_key" else _layout(t, layout)
        keys, aggs = AGG_KEYS[keys], _aggs(case)
        want = pa.concat_tables(
            [b for b in ray.get(ds.groupby(keys).aggregate(*aggs).to_arrow_refs()) if b.num_columns],
            promote_options="permissive",
        )
        blocks = ray.get(group_agg(ds, keys, *aggs).to_arrow_refs())
        assert blocks and all(b.schema == want.schema for b in blocks)
        assert want.schema == pa.schema([(c, AGG_TYPES[c]) for c in want.column_names])
        assert pa.concat_tables(blocks).to_pylist() == want.to_pylist()

    def test_int32_sum_is_int64_without_overflow(self, ray_session):
        from ray.data.aggregate import Sum

        from osmptparser_ray.util import group_agg

        big = np.full(8, 2**31 - 1, np.int32)
        t = pa.table({"k": pa.array(np.zeros(8, np.int32)), "v": pa.array(big)})
        out = group_agg(_layout(t, "one_row_blocks"), "k", Sum("v", alias_name="sv"))
        assert out.schema().base_schema == pa.schema([("k", pa.int64()), ("sv", pa.int64())])
        assert out.to_pandas().sv.tolist() == [8 * (2**31 - 1)]

    @pytest.mark.parametrize("keys", list(AGG_KEYS))
    def test_no_rows_gives_typed_empty_output(self, ray_session, keys):
        from osmptparser_ray.util import group_agg

        keys = AGG_KEYS[keys]
        out = group_agg(rd.from_arrow(_agg_table(False).schema.empty_table()), keys, *_aggs("all"))
        assert out.count() == 0
        names = keys + [a.name for a in _aggs("all")]
        assert out.schema().base_schema == pa.schema([(c, AGG_TYPES[c]) for c in names])

    def test_no_aggregates_gives_distinct_keys(self, ray_session, one_probe_per_block):
        from osmptparser_ray.util import group_agg

        t = _agg_table(True)
        out = group_agg(_layout(t, "one_row_blocks"), ["k", "s"]).to_pandas()
        want = t.group_by(["k", "s"]).aggregate([]).to_pandas()
        assert sorted(map(repr, out.itertuples(index=False))) == sorted(map(repr, want.itertuples(index=False)))
        assert not out.duplicated().any()

    def test_other_aggregates_rejected(self, ray_session):
        from ray.data.aggregate import Mean

        from osmptparser_ray.util import group_agg

        with pytest.raises(ValueError, match="Count, Sum, Min and Max"):
            group_agg(rd.from_arrow(_agg_table(False)), "k", Mean("v"))


# -- the range partitioner: a nullable string key, many blocks, executions ----


@pytest.fixture(params=["default", "one_byte"])
def min_block_size(request):
    """The default ``target_min_block_size`` (one key range for these
    inputs) and 1 byte (√bytes ranges of a row or two each, so range
    boundaries are crossed)."""
    from ray.data import DataContext

    ctx = DataContext.get_current()
    old = ctx.target_min_block_size
    if request.param == "one_byte":
        ctx.target_min_block_size = 1
    yield
    ctx.target_min_block_size = old


def _nullable_string_sides():
    """30 left rows on a nullable string key ``s`` (5 nulls), with a
    unique order ``o`` and a value ``v``; 12 right rows ``(s, w)`` on an
    overlapping key set, 2 of them null."""
    rng = np.random.default_rng(31)
    ls = np.array([f"s{i}" for i in rng.integers(0, 6, 30)], object)
    ls[rng.permutation(30)[:5]] = None
    rs = np.array([f"s{i}" for i in rng.integers(3, 9, 12)], object)
    rs[[2, 7]] = None
    left = pa.table({"s": pa.array(ls, pa.string()), "o": pa.array(rng.permutation(30), pa.int64()),
                     "v": pa.array(rng.integers(-9, 9, 30), pa.int64())})
    right = pa.table({"s": pa.array(rs, pa.string()), "w": pa.array(np.arange(12), pa.int64())})
    return left, right


def _null_last(key):
    return (key is None, key or "")


def _rows(out: rd.Dataset) -> list:
    import ray

    return pa.concat_tables(ray.get(out.to_arrow_refs())).to_pylist()


class TestNullableStringKey:
    """One nullable string key over 30 one-row blocks: nulls form one
    group, sort last and never match in a join."""

    def test_group_agg(self, ray_session, min_block_size):
        from ray.data.aggregate import Count, Sum

        from osmptparser_ray.util import group_agg

        left, _ = _nullable_string_sides()
        out = group_agg(_layout(left, "one_row_blocks"), "s", Count(alias_name="n"),
                        Sum("v", alias_name="sv"))
        groups: dict = {}
        for r in left.to_pylist():
            n, sv = groups.get(r["s"], (0, 0))
            groups[r["s"]] = (n + 1, sv + r["v"])
        want = [{"s": k, "n": n, "sv": sv} for k, (n, sv) in sorted(groups.items(), key=lambda g: _null_last(g[0]))]
        assert want[-1]["s"] is None
        assert _rows(out) == want

    @pytest.mark.parametrize("how", HOWS)
    def test_equi_join(self, ray_session, min_block_size, how):
        from osmptparser_ray.util import equi_join

        left, right = _nullable_string_sides()
        out = equi_join(_layout(left, "one_row_blocks"), _layout(right, "one_row_blocks"), "s", how=how)
        rrows, hit, want = right.to_pylist(), set(), []
        for lr in left.to_pylist():
            js = [j for j, rr in enumerate(rrows) if lr["s"] is not None and rr["s"] == lr["s"]]
            lv = (lr["s"], lr["o"], lr["v"])
            if how == "left_anti":
                want += [lv] if not js else []
                continue
            want += [lv + (rrows[j]["w"],) for j in js] or ([] if how == "inner" else [lv + (None,)])
            hit.update(js)
        if how == "full_outer":
            want += [(rr["s"], None, None, rr["w"]) for j, rr in enumerate(rrows) if j not in hit]
        assert sorted(repr(tuple(r.values())) for r in _rows(out)) == sorted(map(repr, want))

    def test_sort_scan_running_agg(self, ray_session, min_block_size):
        from osmptparser_ray.stages.relational import running_agg

        left, _ = _nullable_string_sides()
        out = running_agg(_layout(left, "one_row_blocks"), "s", ["o"], "v")
        got = sorted(((r["s"], r["o"], r["running_n"], r["running_sum"]) for r in _rows(out)),
                     key=repr)
        want, runs = [], {}
        for r in sorted(left.to_pylist(), key=lambda r: (_null_last(r["s"]), r["o"])):
            n, total = runs.get(r["s"], (0, 0))
            runs[r["s"]] = (n + 1, total + r["v"])
            want.append((r["s"], r["o"], n + 1, total + r["v"]))
        assert got == sorted(want, key=repr)


def _hot_rows(n: int = 1280) -> pa.Table:
    """``n`` rows of ``SCHEMA``; key 7 holds 60% of them."""
    rng = np.random.default_rng(41)
    return _side(np.where(rng.random(n) < 0.6, 7, rng.integers(0, 100, n)), 0)


def _hot_join_sides(case: str, n: int = 400):
    """``_join_sides``' columns at ``n`` rows a side, 10% null keys, and
    key 4 on 55% of the rows of the side ``case`` names (``left``,
    ``right`` or ``both``); ``null`` makes the null key that of 55% of
    the left rows."""
    rng = np.random.default_rng(17)

    def keys(hot: bool, key=4):
        k = rng.integers(0, 60, n).astype(object)
        k[rng.random(n) < 0.1] = None
        if hot:
            k[rng.permutation(n)[: n * 11 // 20]] = key
        return k

    lk = keys(case in ("left", "both", "null"), None if case == "null" else 4)
    rk = keys(case in ("right", "both"))
    left = pa.table(
        {
            "k": pa.array(lk, pa.int32()),
            "a": pa.array(np.arange(n), pa.int64()),
            "x": pa.array([f"x{i}" for i in range(n)]),
            "lst": pa.array([[i, i + 1] for i in range(n)], pa.list_(pa.int64())),
        }
    )
    right = pa.table(
        {
            "kk": pa.array(rk, pa.int64()),
            "a": pa.array(np.arange(1000, 1000 + n), pa.int64()),
            "m": pa.array([[("t", f"v{i}")] for i in range(n)], TAGS),
        }
    )
    return left, right


@pytest.fixture
def tiny_ranges():
    """``target_min_block_size`` at 256 bytes: about ten ranges for
    ``_hot_join_sides`` (√(bytes / 256) ranges), so a key on half of a
    side's rows takes several of the boundary sample's quantile picks."""
    from ray.data import DataContext

    ctx = DataContext.get_current()
    old, ctx.target_min_block_size = ctx.target_min_block_size, 256
    yield
    ctx.target_min_block_size = old


@pytest.fixture
def small_ranges():
    """``target_min_block_size`` at 2 KiB: three ranges for ``_hot_rows``
    (17 bytes a row, √(bytes / 2 KiB) ranges)."""
    from ray.data import DataContext

    ctx = DataContext.get_current()
    old, ctx.target_min_block_size = ctx.target_min_block_size, 2048
    yield
    ctx.target_min_block_size = old


class TestManyBlocks:
    """The same rows as 64 and as 128 blocks, one key holding 60% of
    them: the range count comes from bytes, so both layouts get the same
    P, and every result is the oracle's."""

    @staticmethod
    def _blocks(t: pa.Table, n: int) -> rd.Dataset:
        size = t.num_rows // n
        return rd.from_arrow([t.slice(i, size) for i in range(0, t.num_rows, size)])

    def test_range_count_from_bytes(self, ray_session, small_ranges):
        from osmptparser_ray.util import _range_count, _side

        counts = []
        for n in (64, 128):
            ds = self._blocks(_hot_rows(), n)
            refs, rows, nbytes, _ = _side(ds)
            assert len(refs) == n
            counts.append(_range_count(nbytes, sum(rows))[0])
        assert counts[0] == counts[1] > 1

    @pytest.mark.parametrize("blocks", [8, 1024])
    def test_split_slices_stay_out_of_the_driver(self, blocks):
        """1 GiB as 8 blocks of 128 MiB and as 1024 of 1 MiB at the
        default block size: the same P ≫ 2 from bytes, and the split
        slices average at least ``_SLICE`` (Ray keeps task outputs under
        100 KiB in the driver), so the driver holds at most bytes /
        ``_SLICE`` slice refs, however many blocks there are."""
        from ray.data import DataContext

        from osmptparser_ray.util import _SLICE, _groups, _range_count

        assert DataContext.get_current().target_min_block_size == 1 << 20
        nbytes, nrows = 1 << 30, 1 << 26
        p, piece = _range_count(nbytes, nrows)
        assert (p, piece) == (64, _SLICE)
        groups = _groups(list(range(blocks)), [nrows // blocks] * blocks, nbytes, p * piece)
        assert [r for refs, _ in groups for r in refs] == list(range(blocks))
        assert [m for _, m in groups] == [nrows // len(groups)] * len(groups)
        assert p * len(groups) <= nbytes // _SLICE

    @pytest.mark.parametrize("n", [64, 128])
    def test_results_match_oracle(self, ray_session, small_ranges, n):
        from ray.data.aggregate import Count, Sum

        from osmptparser_ray.util import equi_join, group_agg

        t = _hot_rows()
        ds = self._blocks(t, n)
        out = cosort([ds], ["k"], _make_probe(), [SCHEMA])
        assert 1 < out.num_blocks()
        got = sorted(tuple(r) for r in out.to_pandas()[OUT].itertuples(index=False))
        assert [(int(a), int(b), int(c), int(d), bool(e)) for a, b, c, d, e in got] == _expected(
            t, SCHEMA.empty_table())

        df = t.to_pandas()
        agg = group_agg(ds, "k", Count(alias_name="n"), Sum("v", alias_name="sv")).to_pandas()
        want = df.groupby("k").agg(n=("v", "size"), sv=("v", "sum")).reset_index()
        assert agg.values.tolist() == want.values.tolist()

        right = pa.table({"k": pa.array(np.arange(0, 100, 2), pa.int64()),
                          "w": pa.array(np.arange(50) * 3, pa.int64())})
        joined = equi_join(ds, rd.from_arrow(right), "k").to_pandas()
        want = df.merge(right.to_pandas(), on="k")
        assert sorted(map(tuple, joined.values.tolist())) == sorted(map(tuple, want[joined.columns].values.tolist()))


    @pytest.mark.parametrize("how", HOWS)
    @pytest.mark.parametrize("case", ["left", "right", "both", "null"])
    def test_hot_key_joins_match_oracle(self, ray_session, tiny_ranges, spread_keys, case, how):
        """One key (or the null key) on at least half of the left rows, of
        the right rows or of both, in 64 blocks a side at P > 1: every
        join is the oracle's, and the partitioner spreads the key where
        ``how`` lets the side holding more of it spread (``inner`` either
        side, ``left_outer`` and ``left_anti`` the left, ``full_outer``
        none; with both sides hot either may hold more)."""
        from osmptparser_ray.util import equi_join

        left, right = _hot_join_sides(case)
        out = equi_join(self._blocks(left, 64), self._blocks(right, 64), "k", right_on="kk",
                        how=how, left_suffix="_l", right_suffix="_r")
        _check(out, left, right, how)
        spreads = how == "inner" or (how != "full_outer" and case in ("left", "null"))
        if how == "inner" or case != "both":
            assert (spread_keys[0] > 0) == spreads, spread_keys

    def test_left_hot_inner_join_is_balanced(self, ray_session, tiny_ranges, monkeypatch):
        """A key on 55% of the left rows: the inner join's range tasks
        (their probe swapped for one that returns its sides' row counts)
        receive at most twice the mean rows each; without the skew rule
        one task receives all the key's rows, more than twice the mean."""
        from osmptparser_ray import util

        def counts(left, right, **_):
            return pa.table({"n": [left.num_rows + right.num_rows]})

        monkeypatch.setattr(util, "_join_probe", counts)
        left, right = _hot_join_sides("left")
        out = util.equi_join(self._blocks(left, 64), self._blocks(right, 64), "k", right_on="kk",
                             left_suffix="_l", right_suffix="_r")
        n = np.array(out.to_pandas()["n"])
        assert len(n) > 4 and n.max() <= 2 * n.mean(), n.tolist()


@pytest.fixture
def executions():
    """A ``perfbench`` execution counter on this process's Ray Data
    executor log, removed afterwards."""
    import logging

    from ray.data import DataContext

    from perfbench.workloads import ExecutionCounter

    counter = ExecutionCounter()
    ctx = DataContext.get_current()
    log = logging.getLogger("ray.data._internal.execution.streaming_executor")
    old = ctx.print_on_execution_start, log.level
    counter.install()
    yield counter
    log.removeHandler(counter)
    ctx.print_on_execution_start, _ = old
    log.setLevel(old[1])


class TestExecutions:
    def test_materialized_sides_run_no_execution(self, ray_session, executions):
        from ray.data.aggregate import Count

        from osmptparser_ray.util import equi_join, group_agg

        left, right = _data(True)
        lds, rds = _layout(left, "one_row_blocks"), _layout(right, "one_row_blocks")
        before = executions.count
        group_agg(lds, "k", Count(alias_name="n"))
        equi_join(lds, rds, "k", left_suffix="_l")
        assert executions.count == before

    def test_lazy_side_runs_once(self, ray_session, executions):
        from osmptparser_ray.util import equi_join

        left, right = _data(False)
        lazy = _layout(left, "one_row_blocks").map_batches(lambda b: b, batch_format="pyarrow")
        before = executions.count
        out = equi_join(lazy, _layout(right, "one_row_blocks"), "k", left_suffix="_l")
        assert executions.count - before == 1
        assert out.count() == sum(1 for a in left["k"].to_pylist() for b in right["k"].to_pylist() if a == b)

    def test_shuffle_spatial_tail_runs_no_execution(self, ray_session, executions, tmp_path):
        """The flagship's shuffle tail over materialized PT blocks: the row
        maps of its pip and knn cosorts are block tasks, so it starts no
        streaming execution, and it gives the broadcast tail's outputs."""
        from test_flagship import _digest

        from osmptparser_ray.pipelines.spatial_join import stop_route_joins, stop_route_spatial_join
        from osmptparser_ray.sources import synthesize_pages_parquet

        pages = str(tmp_path / "pages")
        synthesize_pages_parquet(pages, replicas=2, files=1)
        out = stop_route_spatial_join(pages, validate=False)
        before = executions.count
        got = stop_route_joins(out["public_transports"], small_side="shuffle")
        assert executions.count == before
        assert _digest(got) == _digest(out)


class TestTopN:
    @pytest.mark.parametrize("layout", ["one_block", "one_row_blocks", "empty_block"])
    def test_matches_arrow_sort(self, ray_session, layout):
        """``util.top_n`` gives the first rows of one Arrow sort of all rows
        (nulls last, one flag per key), whatever the block layout; ties on
        the first key are broken by the second."""
        from osmptparser_ray.util import top_n

        rng = np.random.default_rng(3)
        t = pa.table({
            "k": pa.array([None if v < 2 else int(v) for v in rng.integers(0, 9, 40)], pa.int64()),
            "v": pa.array(np.arange(40), pa.int64()),
        })
        order = [("k", "descending"), ("v", "ascending")]
        for n in (1, 7, 40, 50):
            got = top_n(_layout(t, layout), ["k", "v"], n, descending=[True, False]).take_all()
            want = t.sort_by(order, null_placement="at_end").slice(0, n).to_pylist()
            assert got == want, n

    def test_empty_input_keeps_schema(self, ray_session):
        from osmptparser_ray.util import top_n

        empty = rd.from_arrow(pa.table({"k": pa.array([], pa.int64())}))
        out = top_n(empty, "k", 3)
        assert out.count() == 0 and out.schema().names == ["k"]
