"""The ``util.sort_scan`` carries against a scan that needs none.

At the default ``target_min_block_size`` each matrix input of
``test_sort_scan.py`` is one key range, so its scan passes no carry; at
1 byte the same rows split into √bytes ranges of a few rows each, and a
hot key spans many of them. The two must give the same rows, so a carry that
is missing or wrong fails here even where every layout of the matrix
(all run at 1 byte) would agree with one another.
"""

import pandas as pd
import pytest

from test_sort_scan import OPERATORS, _canon, _output


@pytest.fixture(scope="module")
def one_range(ray_session):
    cache = {}

    def get(name):
        if name not in cache:
            cache[name] = _output(name, "one_block")
        return cache[name]

    return get


@pytest.mark.parametrize("name", OPERATORS)
def test_many_ranges_give_the_one_range_output(one_range, name):
    from ray.data import DataContext

    want = one_range(name)
    ctx = DataContext.get_current()
    floor, ctx.target_min_block_size = ctx.target_min_block_size, 1
    try:
        got = _output(name, "one_row_blocks")
    finally:
        ctx.target_min_block_size = floor
    assert got.schema == want.schema
    pd.testing.assert_frame_equal(_canon(got), _canon(want))
