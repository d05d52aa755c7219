"""id_set_mode="bloom" ingest path (round-3, VERDICT r2 #6): Bloom
prefilter + exact post-join must produce ParserTables IDENTICAL to the
exact sorted-array broadcast path on the fixture corpus — the Bloom side
is a pure physical-plan swap for id sets too big to ray.put."""

import pandas as pd
import ray.data as rd

from osmptparser_ray.kernel.filters import PTV2
from osmptparser_ray.sources.pages import synthesize_pages_table
from osmptparser_ray.stages.elements import build_parser_tables, extract_elements


def _tables(mode, ray_session):
    pages = rd.from_arrow(synthesize_pages_table(replicas=1))
    elements = extract_elements(pages, validate=True)
    return build_parser_tables(elements, PTV2, id_set_mode=mode)


def _canon(ds, sort_cols):
    df = ds.to_pandas()
    # map/list columns → stable string repr for frame comparison
    for c in df.columns:
        if df[c].map(lambda v: isinstance(v, (list, dict))).any():
            df[c] = df[c].map(repr)
    return df.sort_values(sort_cols).reset_index(drop=True)[sorted(df.columns)]


class TestBloomIngestParity:
    def test_forced_bloom_equals_exact(self, ray_session):
        exact = _tables("exact", ray_session)
        bloom = _tables("bloom", ray_session)
        for name, sort_cols in (
            ("relations", ["id"]),
            ("ways", ["id"]),
            ("nodes", ["id"]),
        ):
            a = _canon(getattr(exact, name), sort_cols)
            b = _canon(getattr(bloom, name), sort_cols)
            pd.testing.assert_frame_equal(a, b, check_like=True)

    def test_bloom_mode_rejects_unknown(self, ray_session):
        import pytest

        pages = rd.from_arrow(synthesize_pages_table(replicas=1))
        elements = extract_elements(pages, validate=True)
        with pytest.raises(ValueError):
            build_parser_tables(elements, PTV2, id_set_mode="nope")


def test_bloom_from_blocks_equals_one_build(ray_session):
    """The OR of the per-block partial filters has the bits of one filter
    built over every id, whatever the block layout (a columnless block
    included)."""
    import numpy as np
    import pyarrow as pa

    import ray

    from osmptparser_ray.stages.bloom import BloomFilter, bloom_of

    ids = np.random.default_rng(3).choice(1 << 40, 500, replace=False).astype(np.int64)
    t = pa.table({"id": ids})
    ds = rd.from_arrow([t.slice(0, 7), pa.table({})] + [t.slice(i, 61) for i in range(7, 500, 61)])
    got = ray.get(bloom_of(ds.materialize(), "id", len(ids), 0.01))
    want = BloomFilter.build(ids, 0.01)
    assert (got.n_bits, got.k) == (want.n_bits, want.k)
    assert np.array_equal(got.bits, want.bits)
