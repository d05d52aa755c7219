"""Layout matrix for the thirteen ``util.sort_scan`` operators.

Each operator runs on one small seeded input in which one key holds about
80% of the rows, so that key spans many sorted blocks. Its output must not
depend on the layout of that input: one block (the reference), one row per
block, and about 40 blocks must give the same rows. An empty input, typed
as the other layouts are, must give the typed output of the reference
with no rows (or the fixed rows of a no-data answer).

The carry is what makes a key that spans blocks exact; a ``sort_scan``
whose fold passed no carry fails the multi-block layouts here.
"""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray
import ray.data as rd

N = 80  # rows per input; the hot key holds about 80% of them
QS = [0.0, 0.1, 0.5, 0.9, 1.0]


def _keys(rng, n=N, hot=7, cold=12):
    """About 80% ``hot``, the rest spread over ``cold`` other keys."""
    return np.where(rng.random(n) < 0.8, hot, rng.integers(0, cold, n)).astype(np.int64)


def _grouped(rng):
    return pa.table(
        {
            "k": pa.array(_keys(rng)),
            "o": pa.array(rng.permutation(N).astype(np.int64)),
            "v": pa.array(rng.integers(-50, 50, N).astype(np.int64)),
        }
    )


def _events(rng, n=N):
    return pa.table(
        {
            "user_id": pa.array(_keys(rng, n)),
            "ts": pa.array(np.cumsum(rng.integers(1, 3000, n)) * 1_000_000, pa.timestamp("us")),
            "event_id": pa.array(rng.permutation(n).astype(np.int64)),
            "value": pa.array(rng.random(n)),
        }
    )


def _edges(rng):
    # a hub (node 7) on about 80% of the edges, plus edges among its leaves
    a = _keys(rng, N, hot=7, cold=30)
    b = rng.integers(0, 30, N).astype(np.int64)
    return pa.table({"src": pa.array(a), "dst": pa.array(b)})


def _run(name):
    from osmptparser_ray.graph import triangle_count
    from osmptparser_ray.stages import relational as rel
    from osmptparser_ray.streams import asof_join, sessionize
    from osmptparser_ray.text import pack_sequences

    return {
        "topk_per_group": lambda d: rel.topk_per_group(d, "k", "v", 3, tiebreak_col="o"),
        "running_agg": lambda d: rel.running_agg(d, "k", ["o"], "v"),
        "lead_lag_rank": lambda d: rel.lead_lag_rank(d, "k", ["o"], "v"),
        "rolling_sum": lambda d: rel.rolling_sum(d, "k", ["o"], "v", 4),
        "global_index": lambda d: rel.global_index(d, "o", n_shards=3),
        "group_concat_sorted": lambda d: rel.group_concat_sorted(d, "k", ["o"], "s"),
        "exact_quantiles": lambda d: rel.exact_quantiles(d, "v", QS),
        "quantiles_per_group": lambda d: rel.quantiles_per_group(d, "k", "v", QS),
        "sessionize": lambda d: sessionize(d, gap_seconds=2000.0),
        "asof_join": lambda left, right: asof_join(left, right),
        "pack_sequences": lambda d: pack_sequences(d, "o", "v", budget=64),
        "triangles_broadcast": lambda d: triangle_count(d, plan="broadcast"),
        "triangles_shuffle": lambda d: triangle_count(d, plan="shuffle"),
    }[name]


def _inputs(name, seed=11):
    """The operator's input tables (one per dataset argument)."""
    rng = np.random.default_rng(seed)
    if name == "group_concat_sorted":
        t = _grouped(rng)
        return [t.append_column("s", pa.array([f"s{i}" for i in rng.integers(0, 9, N)]))]
    if name == "pack_sequences":
        t = _grouped(rng)
        return [t.set_column(2, "v", pa.array(rng.integers(0, 40, N).astype(np.int64)))]
    if name == "sessionize":
        return [_events(rng)]
    if name == "asof_join":
        return [_events(rng), _events(rng)]
    if name.startswith("triangles"):
        return [_edges(rng)]
    return [_grouped(rng)]


OPERATORS = [
    "topk_per_group", "running_agg", "lead_lag_rank", "rolling_sum", "global_index",
    "group_concat_sorted", "exact_quantiles", "quantiles_per_group", "sessionize",
    "asof_join", "pack_sequences", "triangles_broadcast", "triangles_shuffle",
]
# the answer an input without rows gives where it is not "no rows"
EMPTY_ROWS = {
    "exact_quantiles": {"q": QS, "value": [None] * len(QS)},
    "triangles_broadcast": {"triangles": [0]},
    "triangles_shuffle": {"triangles": [0]},
}


def _layout(t: pa.Table, layout: str, rng) -> rd.Dataset:
    t = t.take(pa.array(rng.permutation(t.num_rows)))
    if layout == "one_block":
        return rd.from_arrow(t)
    if layout == "empty":
        return rd.from_arrow(t.slice(0, 0))
    size = 1 if layout == "one_row_blocks" else -(-t.num_rows // 40)
    return rd.from_arrow([t.slice(i, size) for i in range(0, t.num_rows, size)])


def _table(out) -> pa.Table:
    if isinstance(out, pa.Table):
        return out
    tables = ray.get(out.to_arrow_refs())
    return pa.concat_tables(tables) if tables else out.schema().base_schema.empty_table()


def _canon(t: pa.Table) -> pd.DataFrame:
    df = t.to_pandas()
    return df.sort_values(list(df.columns), kind="stable").reset_index(drop=True)


def _output(name, layout, seed=11):
    rng = np.random.default_rng(seed + 1)
    return _table(_run(name)(*[_layout(t, layout, rng) for t in _inputs(name, seed)]))


@pytest.fixture(scope="module")
def reference(ray_session):
    from ray.data import DataContext

    # one task per sorted block: a small input would otherwise run as one
    # packed group and never need a carry (this also gives the triangle
    # plans' own sorts, after a distinct and a degree cosort, many blocks)
    ctx = DataContext.get_current()
    floor, ctx.target_min_block_size = ctx.target_min_block_size, 1
    cache = {}

    def get(name):
        if name not in cache:
            cache[name] = _output(name, "one_block")
        return cache[name]

    yield get
    ctx.target_min_block_size = floor


@pytest.mark.parametrize("name", OPERATORS)
@pytest.mark.parametrize("layout", ["one_row_blocks", "forty_blocks"])
def test_layout_gives_single_block_output(reference, name, layout):
    want = reference(name)
    got = _output(name, layout)
    assert got.schema == want.schema
    pd.testing.assert_frame_equal(_canon(got), _canon(want))


@pytest.mark.parametrize("name", OPERATORS)
def test_empty_input_gives_typed_output(reference, name):
    want = reference(name)
    got = _output(name, "empty")
    assert got.schema == want.schema
    assert got.to_pydict() == EMPTY_ROWS.get(name, {c: [] for c in want.column_names})


def _quantile(sorted_values: np.ndarray, q: float):
    n = len(sorted_values)
    return float(sorted_values[min(max(int(np.ceil(q * n)) - 1, 0), n - 1)])


def test_reference_matches_oracles(reference):
    """The reference itself is right where a missing carry could also
    break a single block, and the hot key really is most of the rows."""
    v = _inputs("exact_quantiles")[0]["v"].to_numpy()
    assert reference("exact_quantiles")["value"].to_pylist() == [_quantile(np.sort(v), q) for q in QS]
    df = _inputs("quantiles_per_group")[0].to_pandas()
    want = [
        (g, q, _quantile(np.sort(part["v"].to_numpy()), q))
        for g, part in sorted(df.groupby("k")) for q in QS
    ]
    got = reference("quantiles_per_group").to_pydict()
    assert list(zip(got["group"], got["q"], got["value"])) == want
    e = _inputs("triangles_broadcast")[0].to_pandas()
    edges = {(min(a, b), max(a, b)) for a, b in zip(e["src"], e["dst"]) if a != b}
    nodes = sorted({x for pair in edges for x in pair})
    brute = sum(
        (a, b) in edges and (b, c) in edges and (a, c) in edges
        for i, a in enumerate(nodes) for j, b in enumerate(nodes[i + 1:], i + 1) for c in nodes[j + 1:]
    )
    assert brute > 0
    assert reference("triangles_broadcast")["triangles"][0].as_py() == brute
    assert (reference("topk_per_group")["k"].to_numpy() == 7).sum() == 3
    assert reference("sessionize")["n_events"].to_numpy().sum() == N
