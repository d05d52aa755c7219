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
    """A probe giving one row per key run of its block, tagged with an id
    of the call (built in a closure so that Ray workers, which cannot
    import this test module, receive it by value)."""

    def probe(block: pa.Table) -> pa.Table:
        k = block["k"].to_numpy(zero_copy_only=False)
        side = block["side"].to_numpy(zero_copy_only=False)
        v = block["v"].to_numpy(zero_copy_only=False)
        b = key_runs(k)
        starts = b[:-1]
        return pa.table(
            {
                "k": pa.array(k[starts], pa.int64()),
                "n": pa.array(np.diff(b), pa.int64()),
                "n_left": pa.array(np.add.reduceat(side == 0, starts) if len(k) else [], pa.int64()),
                "v_sum": pa.array(np.add.reduceat(v, starts) if len(k) else [], pa.int64()),
                "sorted": pa.array([bool(np.all(k[1:] >= k[:-1]))] * len(starts), pa.bool_()),
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
                [_layout(left, layout), _layout(right, layout)], ["k"], _make_probe(), SCHEMA
            ).to_pandas()
            # one output row per key: every key reached exactly one call
            assert out.k.is_unique, layout
            got = sorted(tuple(r) for r in out[OUT].itertuples(index=False))
            assert [(int(a), int(b), int(c), int(d), bool(e)) for a, b, c, d, e in got] == want, layout
        if hot:
            assert want[[k for k, *_ in want].index(7)][1] > 80

    def test_one_side(self, ray_session):
        left, _ = _data(False)
        out = cosort([_layout(left, "one_row_blocks")], ["k"], _make_probe(), SCHEMA).to_pandas()
        assert out.k.is_unique
        assert int(out.n.sum()) == left.num_rows

    @pytest.mark.parametrize("empty", ["schema_only", "columnless"])
    def test_no_rows_probes_empty_schema_table(self, ray_session, empty):
        t = SCHEMA.empty_table() if empty == "schema_only" else pa.table({})
        out = cosort([rd.from_arrow(t), rd.from_arrow(SCHEMA.empty_table())], ["k"], _make_probe(), SCHEMA)
        assert out.count() == 0
        assert out.schema().names == OUT + ["call"]
