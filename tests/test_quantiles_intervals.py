"""Round-4 operators: approximate quantile sketch + big-big interval join.

- ``approx_quantiles``: the returned value's TRUE rank must be within the
  returned ``rank_err_bound`` of the quantile_disc target rank, on random
  data across several partitionings and eps settings.
- ``quantiles_by_sketch``: sketch → bracket → refine must equal
  ``exact_quantiles`` EXACTLY (same quantile_disc semantics, no sort).
- ``interval_join_shuffle``: pair-set parity with the broadcast
  ``interval_join`` plan, including overlapping bands, hot cells, negative
  values, and a degenerate all-in-one-cell corpus.
"""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray.data as rd


QS = [0.01, 0.1, 0.25, 0.5, 0.9, 0.99]


class TestApproxQuantiles:
    def _check_bound(self, data: np.ndarray, ds, eps):
        from osmptparser_ray.stages.relational import approx_quantiles

        out = approx_quantiles(ds, "x", QS, eps=eps)
        srt = np.sort(data)
        n = len(srt)
        for q, v, err in zip(
            out["q"].to_pylist(), out["value"].to_pylist(), out["rank_err_bound"].to_pylist()
        ):
            target = min(max(int(np.ceil(q * n)), 1), n)
            # true rank bracket of v in the sorted data (duplicates span)
            r_lo = int(np.searchsorted(srt, v, side="left")) + 1
            r_hi = int(np.searchsorted(srt, v, side="right"))
            dist = 0 if r_lo <= target <= r_hi else min(
                abs(target - r_lo), abs(target - r_hi)
            )
            assert dist <= err, (q, v, target, r_lo, r_hi, err)

    def test_rank_error_bound(self, ray_session):
        rng = np.random.default_rng(5)
        data = rng.normal(size=20_000) * 100
        for nparts, eps in [(4, 0.01), (16, 0.02), (40, 0.05)]:
            ds = rd.from_pandas(pd.DataFrame({"x": data})).repartition(nparts)
            self._check_bound(data, ds, eps)

    def test_duplicate_heavy(self, ray_session):
        rng = np.random.default_rng(6)
        data = rng.integers(0, 20, 30_000).astype(np.float64)
        ds = rd.from_pandas(pd.DataFrame({"x": data})).repartition(12)
        self._check_bound(data, ds, 0.02)

    def test_empty(self, ray_session):
        from osmptparser_ray.stages.relational import approx_quantiles

        ds = rd.from_arrow(pa.table({"x": pa.array([], pa.float64())}))
        out = approx_quantiles(ds, "x", [0.5])
        assert out["value"].to_pylist() == [None]


class TestQuantilesBySketch:
    def test_matches_exact(self, ray_session):
        from osmptparser_ray.stages.relational import (
            exact_quantiles,
            quantiles_by_sketch,
        )

        rng = np.random.default_rng(9)
        data = np.concatenate(
            [rng.normal(size=8_000) * 50, rng.integers(0, 5, 4_000).astype(float)]
        )
        ds = rd.from_pandas(pd.DataFrame({"x": data})).repartition(14).materialize()
        got = quantiles_by_sketch(ds, "x", QS, eps=0.02)
        want = exact_quantiles(ds, "x", QS)
        assert got["value"].to_pylist() == want["value"].to_pylist()

    def test_single_block_and_tiny(self, ray_session):
        from osmptparser_ray.stages.relational import (
            exact_quantiles,
            quantiles_by_sketch,
        )

        df = pd.DataFrame({"x": [3.0, 1.0, 2.0]})
        ds = rd.from_pandas(df).materialize()
        got = quantiles_by_sketch(ds, "x", [0.0, 0.5, 1.0], eps=0.5)
        want = exact_quantiles(ds, "x", [0.0, 0.5, 1.0])
        assert got["value"].to_pylist() == want["value"].to_pylist()


class TestIntervalJoinShuffle:
    def _pairs(self, out):
        t = (
            out.to_pandas()
            if hasattr(out, "to_pandas")
            else out
        )
        return set(zip(t["event_id"], t["interval_id"]))

    def _parity(self, values, bands, cell_width=None):
        from osmptparser_ray.stages.relational import (
            interval_join,
            interval_join_shuffle,
        )

        pts = rd.from_pandas(
            pd.DataFrame({"event_id": np.arange(len(values)), "value": values})
        ).repartition(6)
        ivs = rd.from_pandas(
            pd.DataFrame(
                {
                    "interval_id": [b[0] for b in bands],
                    "lo": [b[1] for b in bands],
                    "hi": [b[2] for b in bands],
                }
            )
        ).repartition(3)
        got = self._pairs(
            interval_join_shuffle(pts, ivs, cell_width=cell_width)
        )
        want = self._pairs(interval_join(pts, bands))
        assert got == want
        return got

    def test_overlapping_bands_parity(self, ray_session):
        rng = np.random.default_rng(3)
        values = rng.uniform(-5, 30, 3_000)
        bands = [(i, i * 1.5 - 4.0, i * 1.5 + 2.5) for i in range(18)]
        pairs = self._parity(values, bands)
        assert len(pairs) > 0

    def test_hot_cell_parity(self, ray_session, block_size, spread_keys):
        """Three cells hold every point; at a block size small enough for
        several key ranges the join's partitioner spreads them."""
        rng = np.random.default_rng(4)
        values = rng.uniform(0, 10, 2_000)
        bands = [(0, 0.0, 10.0), (1, 2.0, 3.0), (2, 9.5, 12.0)]
        block_size(1024)
        pairs = self._parity(values, bands)
        assert len(pairs) > 2_000  # band 0 catches everything
        assert max(spread_keys) > 0

    def test_degenerate_one_cell(self, ray_session):
        # huge cell width: every interval and point lands in one cell
        rng = np.random.default_rng(8)
        values = rng.uniform(0, 1, 500)
        bands = [(0, 0.2, 0.4), (1, 0.1, 0.9)]
        self._parity(values, bands, cell_width=1e6)

    def test_empty_intervals(self, ray_session):
        from osmptparser_ray.stages.relational import interval_join_shuffle

        pts = rd.from_pandas(
            pd.DataFrame({"event_id": [1, 2], "value": [0.5, 1.5]})
        )
        ivs = rd.from_pandas(
            pd.DataFrame({"interval_id": [7], "lo": [5.0], "hi": [5.0]})
        )  # hi <= lo: dropped
        assert interval_join_shuffle(pts, ivs).count() == 0


class TestSketchCompression:
    """Forced intermediate compression (max_samples tiny): the 10^6-block
    scale path. The rank bound must still hold (it grows by the re-stride
    W + max input weight per compressed partition, accounted exactly) and
    the sketch-refine exact path must still equal exact_quantiles."""

    def test_bound_holds_under_compression(self, ray_session):
        from osmptparser_ray.stages.relational import approx_quantiles

        rng = np.random.default_rng(13)
        data = rng.normal(size=25_000) * 10
        ds = rd.from_pandas(pd.DataFrame({"x": data})).repartition(30)
        out = approx_quantiles(ds, "x", QS, eps=0.01, max_samples=200)
        srt = np.sort(data)
        n = len(srt)
        errs = out["rank_err_bound"].to_pylist()
        assert max(errs) > int(0.01 * n) + 30  # compression really engaged
        for q, v, err in zip(out["q"].to_pylist(), out["value"].to_pylist(), errs):
            target = min(max(int(np.ceil(q * n)), 1), n)
            r_lo = int(np.searchsorted(srt, v, side="left")) + 1
            r_hi = int(np.searchsorted(srt, v, side="right"))
            dist = 0 if r_lo <= target <= r_hi else min(
                abs(target - r_lo), abs(target - r_hi)
            )
            assert dist <= err, (q, v, target, err)

    def test_exact_refine_survives_compression(self, ray_session):
        from osmptparser_ray.stages.relational import (
            exact_quantiles,
            quantiles_by_sketch,
        )

        rng = np.random.default_rng(14)
        data = rng.integers(0, 500, 20_000).astype(np.float64)
        ds = rd.from_pandas(pd.DataFrame({"x": data})).repartition(25).materialize()
        got = quantiles_by_sketch(ds, "x", QS, eps=0.02, max_samples=150)
        want = exact_quantiles(ds, "x", QS)
        assert got["value"].to_pylist() == want["value"].to_pylist()


class TestIntervalJoinMultiscale:
    """banding="multiscale": every interval bands at its own
    floor(log2(width)) scale with cell width 2^(s+1) — so replication is
    ≤ 2 cells per interval REGARDLESS of width mix (the documented
    single-scale contract limit: a domain-spanning interval replicates
    everywhere). Points probe each occupied scale once."""

    def _mixed_corpus(self):
        rng = np.random.default_rng(21)
        values = rng.uniform(-100, 100, 2_500)
        bands = [(i, c - 0.5, c + 0.5) for i, c in enumerate(rng.uniform(-90, 90, 30))]
        bands += [(100, -1e4, 1e4), (101, -50.0, 60.0)]  # domain-spanning
        bands += [(102, 0.0, 1e-3)]  # tiny
        return values, bands

    def _sets(self, values, bands, **kw):
        from osmptparser_ray.stages.relational import (
            interval_join,
            interval_join_shuffle,
        )

        pts = rd.from_pandas(
            pd.DataFrame({"event_id": np.arange(len(values)), "value": values})
        ).repartition(5)
        ivs = rd.from_pandas(
            pd.DataFrame(
                {
                    "interval_id": [b[0] for b in bands],
                    "lo": [b[1] for b in bands],
                    "hi": [b[2] for b in bands],
                }
            )
        ).repartition(2)
        got = interval_join_shuffle(pts, ivs, **kw).to_pandas()
        want = interval_join(pts, bands).to_pandas()
        return (
            set(zip(got["event_id"], got["interval_id"])),
            set(zip(want["event_id"], want["interval_id"])),
        )

    def test_multiscale_parity_mixed_widths(self, ray_session):
        values, bands = self._mixed_corpus()
        got, want = self._sets(values, bands, banding="multiscale")
        assert got == want and len(got) > len(values)  # spanner 100 catches all

    def test_auto_picks_multiscale_and_matches(self, ray_session):
        values, bands = self._mixed_corpus()
        got, want = self._sets(values, bands, banding="auto")
        assert got == want

    def test_single_explicit_still_works(self, ray_session):
        rng = np.random.default_rng(22)
        values = rng.uniform(0, 10, 800)
        bands = [(i, i * 1.0, i * 1.0 + 2.0) for i in range(10)]
        got, want = self._sets(values, bands, banding="single")
        assert got == want

    def test_multiscale_replication_bounded(self, ray_session):
        # direct check on the banded interval rows: ≤ 2 rows per
        # interval even for a domain-spanning one
        import pyarrow as pa

        from osmptparser_ray.stages import relational as R

        batch = pa.table(
            {
                "interval_id": pa.array([0, 1, 2], pa.int64()),
                "lo": pa.array([-1e6, 0.0, 3.0], pa.float64()),
                "hi": pa.array([1e6, 1e-4, 3.5], pa.float64()),
            }
        )
        # reach the inner function through the public API shape: band via
        # a tiny dataset and count rows per interval id
        ivs = rd.from_arrow(batch)
        pts = rd.from_pandas(pd.DataFrame({"event_id": [1], "value": [0.5]}))
        out = R.interval_join_shuffle(pts, ivs, banding="multiscale")
        out.count()  # force execution; correctness covered above
        # count banded rows by reproducing the banding math
        w = batch["hi"].to_numpy() - batch["lo"].to_numpy()
        sc = np.floor(np.log2(w))
        cw = np.exp2(sc + 1)
        c0 = np.floor(batch["lo"].to_numpy() / cw)
        c1 = np.floor(np.nextafter(batch["hi"].to_numpy(), -np.inf) / cw)
        assert ((c1 - c0 + 1) <= 2).all()


class TestQuantilesPerGroup:
    """quantiles_per_group: exact per-group quantile_disc via one sort +
    RLE block summaries + metadata rank mapping (the grouped twin of
    exact_quantiles)."""

    @staticmethod
    def _reference(df, qs):
        rows = []
        for g, sub in df.groupby("g"):
            v = np.sort(sub["v"].to_numpy())
            for q in qs:
                r = min(max(int(np.ceil(q * len(v))), 1), len(v)) - 1
                rows.append((g, q, float(v[r])))
        return sorted(rows)

    def _got(self, ds, qs):
        from osmptparser_ray.stages.relational import quantiles_per_group

        out = quantiles_per_group(ds, "g", "v", qs)
        return sorted(
            zip(out["group"].to_pylist(), out["q"].to_pylist(), out["value"].to_pylist())
        )

    def test_random_many_groups(self, ray_session):
        rng = np.random.default_rng(31)
        df = pd.DataFrame(
            {"g": rng.integers(0, 40, 10_000), "v": rng.normal(size=10_000) * 7}
        )
        ds = rd.from_pandas(df).repartition(12)
        qs = [0.1, 0.5, 0.9]
        assert self._got(ds, qs) == self._reference(df, qs)

    def test_string_groups_spanning_blocks(self, ray_session):
        rng = np.random.default_rng(32)
        df = pd.DataFrame(
            {
                "g": rng.choice(["alpha", "beta", "gamma"], 3_000),
                "v": rng.integers(0, 100, 3_000).astype(float),
            }
        )
        ds = rd.from_pandas(df).repartition(17)
        qs = [0.0, 0.25, 0.5, 0.75, 1.0]
        assert self._got(ds, qs) == self._reference(df, qs)

    def test_singleton_groups(self, ray_session):
        df = pd.DataFrame({"g": [1, 2, 3], "v": [5.0, 1.0, 9.0]})
        ds = rd.from_pandas(df)
        assert self._got(ds, [0.5]) == self._reference(df, [0.5])

    def test_empty(self, ray_session):
        from osmptparser_ray.stages.relational import quantiles_per_group

        ds = rd.from_arrow(
            pa.table({"g": pa.array([], pa.int64()), "v": pa.array([], pa.float64())})
        )
        assert quantiles_per_group(ds, "g", "v", [0.5]).num_rows == 0


class TestAssignSplit:
    def test_disjoint_exhaustive_stable(self, ray_session):
        from osmptparser_ray.stages.relational import assign_split

        ids = np.arange(10_000)
        ds = rd.from_pandas(pd.DataFrame({"id": ids})).repartition(7)
        out = assign_split(
            ds, "id", {"train": 0.8, "val": 0.1, "test": 0.1}, salt=3
        ).to_pandas()
        assert len(out) == len(ids)  # exhaustive, disjoint by construction
        frac = out["split"].value_counts(normalize=True)
        assert abs(frac["train"] - 0.8) < 0.02
        assert abs(frac["val"] - 0.1) < 0.01
        # stability: same row -> same split under a different partitioning
        out2 = assign_split(
            rd.from_pandas(pd.DataFrame({"id": ids})).repartition(2),
            "id", {"train": 0.8, "val": 0.1, "test": 0.1}, salt=3,
        ).to_pandas()
        m = out.set_index("id")["split"]
        m2 = out2.set_index("id")["split"]
        assert (m.sort_index() == m2.sort_index()).all()

    def test_remainder_goes_to_last(self, ray_session):
        from osmptparser_ray.stages.relational import assign_split

        ds = rd.from_pandas(pd.DataFrame({"id": np.arange(1_000)}))
        out = assign_split(ds, "id", {"a": 0.5, "b": 0.25}).to_pandas()
        # b absorbs the unassigned 25% remainder
        assert set(out["split"]) == {"a", "b"}
        assert (out["split"] == "b").mean() > 0.4

    def test_bad_fractions(self, ray_session):
        import pytest

        from osmptparser_ray.stages.relational import assign_split

        ds = rd.from_pandas(pd.DataFrame({"id": [1]}))
        with pytest.raises(ValueError):
            assign_split(ds, "id", {})
        with pytest.raises(ValueError):
            assign_split(ds, "id", {"a": 0.9, "b": 0.3})


class TestApproxDistinct:
    def test_accuracy_across_cardinalities(self):
        from osmptparser_ray.stages.relational import hll_estimate, hll_partial

        p = 12
        sigma = 1.04 / np.sqrt(1 << p)
        for n in (100, 5_000, 200_000):
            regs = hll_partial(np.arange(n, dtype=np.int64) * 7919 + 13, p)
            est = hll_estimate(regs)
            assert abs(est - n) / n <= 5 * sigma, (n, est)

    def test_merge_is_order_free_max(self):
        from osmptparser_ray.stages.relational import hll_estimate, hll_partial

        p, n = 10, 30_000
        vals = np.arange(n, dtype=np.int64)
        whole = hll_partial(vals, p)
        pieces = [hll_partial(c, p) for c in np.array_split(vals, 7)]
        merged = pieces[0]
        for r in pieces[1:]:
            merged = np.maximum(merged, r)
        assert np.array_equal(merged, whole)
        # duplicates across pieces change nothing
        dup = np.maximum(merged, hll_partial(vals[: n // 2], p))
        assert hll_estimate(dup) == hll_estimate(whole)

    def test_dataset_partition_invariance(self, ray_session):
        import ray.data as rd

        from osmptparser_ray.stages.relational import approx_distinct

        t = pa.table({"k": pa.array(np.arange(20_000, dtype=np.int64) % 3137)})
        a = approx_distinct(rd.from_arrow(t).repartition(3), "k")
        b = approx_distinct(rd.from_arrow(t).repartition(19), "k")
        assert a == b
        assert abs(a - 3137) / 3137 <= 0.1

    def test_invalid_p(self, ray_session):
        import ray.data as rd

        from osmptparser_ray.stages.relational import approx_distinct

        ds = rd.from_arrow(pa.table({"k": pa.array([1], pa.int64())}))
        with pytest.raises(ValueError):
            approx_distinct(ds, "k", p=2)


class TestApproxDistinctPerGroup:
    def test_accuracy_and_partition_invariance(self, ray_session):
        from osmptparser_ray.stages.relational import approx_distinct_per_group

        rng = np.random.default_rng(1)
        n = 60_000
        t = pa.table(
            {
                "g": pa.array((rng.integers(0, 3, n) * 11).astype("int64")).cast(
                    pa.string()
                ),
                "v": pa.array(rng.integers(0, 8000, n), pa.int64()),
            }
        )
        exact = {}
        for g, v in zip(t["g"].to_pylist(), t["v"].to_pylist()):
            exact.setdefault(g, set()).add(v)
        sigma = 1.04 / np.sqrt(1 << 12)
        outs = []
        for parts in (4, 13):
            out = approx_distinct_per_group(
                rd.from_arrow(t).repartition(parts), "g", "v"
            )
            outs.append(out)
            for g, est in zip(out["g"].to_pylist(), out["approx_distinct"].to_pylist()):
                e = len(exact[g])
                assert abs(est - e) / e <= 5 * sigma, (g, e, est)
        # register merges are order-free maxes → partitioning-invariant
        assert outs[0].equals(outs[1])

    def test_single_group_matches_global(self, ray_session):
        from osmptparser_ray.stages.relational import (
            approx_distinct,
            approx_distinct_per_group,
        )

        t = pa.table(
            {
                "g": pa.array(["x"] * 20_000, pa.string()),
                "v": pa.array(np.arange(20_000, dtype=np.int64) % 997, pa.int64()),
            }
        )
        grouped = approx_distinct_per_group(rd.from_arrow(t).repartition(5), "g", "v")
        whole = approx_distinct(rd.from_arrow(t).repartition(5), "v")
        assert grouped["approx_distinct"].to_pylist() == [int(round(whole))]


class TestRollupAgg:
    def test_matches_sql_rollup(self, ray_session, sf_dir):
        import duckdb
        import pyarrow.compute as pc

        from osmptparser_ray.stages.relational import rollup_agg

        ds = rd.read_parquet(
            f"{sf_dir}/orders.parquet",
            columns=["o_orderstatus", "o_orderpriority", "o_totalprice"],
        )

        def cents(t: pa.Table) -> pa.Table:
            return t.append_column(
                "cents",
                pc.cast(pc.floor(pc.multiply(t["o_totalprice"], 100.0)), pa.int64()),
            )

        out = rollup_agg(
            ds.map_batches(cents, batch_format="pyarrow"),
            ["o_orderstatus", "o_orderpriority"],
            "cents",
        ).to_pandas()
        oracle = duckdb.sql(
            "SELECT COALESCE(o_orderstatus,'ALL') AS o_orderstatus, "
            "COALESCE(o_orderpriority,'ALL') AS o_orderpriority, "
            "CAST(count(*) AS BIGINT) AS n, "
            "CAST(SUM(CAST(floor(o_totalprice*100) AS BIGINT)) AS BIGINT) AS sum_v "
            f"FROM '{sf_dir}/orders.parquet' "
            "GROUP BY ROLLUP(o_orderstatus, o_orderpriority)"
        ).df()
        cols = ["o_orderstatus", "o_orderpriority", "n", "sum_v"]
        a = out[cols].sort_values(cols).reset_index(drop=True)
        b = oracle[cols].sort_values(cols).reset_index(drop=True)
        assert a.equals(b)

    def test_single_level(self, ray_session):
        from osmptparser_ray.stages.relational import rollup_agg

        ds = rd.from_arrow(
            pa.table(
                {
                    "g": pa.array(["a", "a", "b"], pa.string()),
                    "v": pa.array([1, 2, 10], pa.int64()),
                }
            )
        )
        out = (
            rollup_agg(ds, ["g"], "v")
            .to_pandas()
            .sort_values("g")
            .reset_index(drop=True)
        )
        assert out["g"].tolist() == ["ALL", "a", "b"]
        assert out["n"].tolist() == [3, 2, 1]
        assert out["sum_v"].tolist() == [13, 3, 10]

    def test_empty_group_cols_raises(self, ray_session):
        from osmptparser_ray.stages.relational import rollup_agg

        ds = rd.from_arrow(pa.table({"v": pa.array([1], pa.int64())}))
        with pytest.raises(ValueError):
            rollup_agg(ds, [], "v")


class TestHeavyHitters:
    def test_guarantee_on_zipf(self, ray_session):
        import collections

        from osmptparser_ray.stages.relational import heavy_hitters

        rng = np.random.default_rng(3)
        vals = (rng.zipf(1.3, 150_000) % 3000).astype(np.int64)
        exact = collections.Counter(vals.tolist())
        ds = rd.from_arrow(pa.table({"v": pa.array(vals, pa.int64())})).repartition(9)
        top, err = heavy_hitters(ds, "v", k=48, capacity=48)
        assert err < len(vals) // 48 * 4  # additive error stays near n/capacity
        sk = dict(zip(top["v"].to_pylist(), top["lb"].to_pylist()))
        for item, lb in sk.items():
            assert lb <= exact[item] <= lb + err, (item, lb, exact[item], err)
        for item, c in exact.items():
            if c > err:
                assert item in sk, (item, c, err)

    def test_exact_when_capacity_covers_distinct(self, ray_session):
        import collections

        from osmptparser_ray.stages.relational import heavy_hitters

        rng = np.random.default_rng(4)
        vals = rng.integers(0, 25, 8000).astype(np.int64)
        ds = rd.from_arrow(pa.table({"v": pa.array(vals, pa.int64())})).repartition(6)
        top, err = heavy_hitters(ds, "v", k=5, capacity=1024)
        assert err == 0
        c = collections.Counter(vals.tolist())
        expect = sorted(c.items(), key=lambda kv: (-kv[1], kv[0]))[:5]
        assert list(zip(top["v"].to_pylist(), top["lb"].to_pylist())) == expect

    def test_merge_bound_composes(self):
        from osmptparser_ray.stages.relational import mg_merge, mg_partial

        rng = np.random.default_rng(5)
        vals = (rng.zipf(1.5, 50_000) % 400).astype(np.int64)
        cap = 20
        whole_items, whole_counts, _ = mg_partial(vals, 1 << 20)  # exact
        exact = dict(zip(whole_items.tolist(), whole_counts.tolist()))
        pieces = [mg_partial(c, cap) for c in np.array_split(vals, 7)]
        acc = pieces[0]
        for pc_ in pieces[1:]:
            acc = mg_merge(acc, pc_, cap)
        items, counts, err = acc
        for item, lb in zip(items.tolist(), counts.tolist()):
            assert lb <= exact[item] <= lb + err


class TestPivotAgg:
    def test_matches_case_oracle(self, ray_session, sf_dir):
        import duckdb

        from osmptparser_ray.stages.relational import pivot_agg

        ds = rd.read_parquet(
            f"{sf_dir}/orders.parquet", columns=["o_orderpriority", "o_orderstatus"]
        )
        out = pivot_agg(
            ds, "o_orderpriority", "o_orderstatus", ["F", "O", "P"]
        ).to_pandas()
        oracle = duckdb.sql(
            "SELECT o_orderpriority, "
            "CAST(COALESCE(SUM(CASE WHEN o_orderstatus='F' THEN 1 END),0) AS BIGINT) AS F_v, "
            "CAST(COALESCE(SUM(CASE WHEN o_orderstatus='O' THEN 1 END),0) AS BIGINT) AS O_v, "
            "CAST(COALESCE(SUM(CASE WHEN o_orderstatus='P' THEN 1 END),0) AS BIGINT) AS P_v "
            f"FROM '{sf_dir}/orders.parquet' GROUP BY o_orderpriority"
        ).df()
        cols = sorted(out.columns)
        a = out[cols].sort_values(cols).reset_index(drop=True)
        b = oracle[cols].sort_values(cols).reset_index(drop=True)
        assert a.equals(b)

    def test_value_sums_and_unknown_categories(self, ray_session):
        from osmptparser_ray.stages.relational import pivot_agg

        ds = rd.from_arrow(
            pa.table(
                {
                    "g": pa.array(["x", "x", "y", "x"], pa.string()),
                    "p": pa.array(["a", "b", "a", "zzz"], pa.string()),
                    "v": pa.array([1, 2, 3, 100], pa.int64()),
                }
            )
        ).repartition(2)
        out = (
            pivot_agg(ds, "g", "p", ["a", "b"], value_col="v")
            .to_pandas()
            .sort_values("g")
            .reset_index(drop=True)
        )
        # 'zzz' ignored (SQL CASE -> NULL)
        assert out["g"].tolist() == ["x", "y"]
        assert out["a_v"].tolist() == [1, 3]
        assert out["b_v"].tolist() == [2, 0]


class TestReviewRegressions:
    """Regressions for the round-4 code-review findings."""

    def test_mg_err_survives_empty_truncation(self, ray_session):
        """capacity+1 all-tied counts empty the MG summary; the decrement
        must still be counted or the lb<=true<=lb+err guarantee breaks."""
        import collections

        from osmptparser_ray.stages.relational import heavy_hitters

        b1 = pa.table({"v": pa.array(np.arange(17, dtype=np.int64))})
        b2 = pa.table({"v": pa.array([0], pa.int64())})
        ds = rd.from_arrow([b1, b2])
        top, err = heavy_hitters(ds, "v", k=17, capacity=16)
        exact = collections.Counter(list(range(17)) + [0])
        sk = dict(zip(top["v"].to_pylist(), top["lb"].to_pylist()))
        assert err >= 1
        for item, lb in sk.items():
            assert lb <= exact[item] <= lb + err
        for item, c in exact.items():
            if c > err:
                assert item in sk

    def test_rollup_int_group_columns(self, ray_session):
        from osmptparser_ray.stages.relational import rollup_agg

        ds = rd.from_arrow(
            pa.table(
                {
                    "year": pa.array([2024, 2024, 2025], pa.int64()),
                    "month": pa.array([1, 2, 1], pa.int64()),
                    "v": pa.array([10, 20, 30], pa.int64()),
                }
            )
        )
        out = (
            rollup_agg(ds, ["year", "month"], "v")
            .to_pandas()
            .sort_values(["year", "month"])
            .reset_index(drop=True)
        )
        # all levels stringified — union schemas agree
        assert set(out["year"]) == {"2024", "2025", "ALL"}
        total = out[(out["year"] == "ALL")]
        assert total["n"].tolist() == [3] and total["sum_v"].tolist() == [60]

    def test_grouped_hll_null_groups_dropped(self, ray_session):
        from osmptparser_ray.stages.relational import approx_distinct_per_group

        ds = rd.from_arrow(
            pa.table(
                {
                    "g": pa.array(["a", None, "a", "b"], pa.string()),
                    "v": pa.array([1, 2, 3, 4], pa.int64()),
                }
            )
        )
        out = approx_distinct_per_group(ds, "g", "v")
        assert out["g"].to_pylist() == ["a", "b"]


class TestReviewRegressionsBatch2:
    def test_quantiles_per_group_ignores_null_values(self, ray_session):
        from osmptparser_ray.stages.relational import quantiles_per_group

        t = pa.table(
            {
                "g": pa.array(["a"] * 10, pa.string()),
                "v": pa.array([1.0, 2, 3, 4, 5, 6, 7, 8, None, None]),
            }
        )
        out = quantiles_per_group(rd.from_arrow(t).repartition(3), "g", "v", [0.9])
        # quantile_disc over the 8 non-null values: rank ceil(0.9*8)=8 -> 8.0
        assert out["value"].to_pylist() == [8.0]

    def test_token_frequencies_null_text(self, ray_session):
        from osmptparser_ray.text.analysis import token_frequencies

        ds = rd.from_arrow(
            pa.table({"text": pa.array(["a b a", None, "b"], pa.string())})
        )
        out = token_frequencies(ds, "text", top_n=5).to_pandas()
        assert dict(zip(out["token"], out["cnt"])) == {"a": 2, "b": 2}

    def test_interval_cell_width_forces_single_banding(self, ray_session):
        """An explicit cell_width must not be silently discarded by
        auto→multiscale; parity of results regardless of plan."""
        import duckdb

        from osmptparser_ray.stages.relational import interval_join_shuffle

        # wildly mixed widths would trip auto->multiscale
        iv = pa.table(
            {
                "iv_id": pa.array([1, 2, 3], pa.int64()),
                "lo": pa.array([0.0, 0.0, 5.0]),
                "hi": pa.array([1000.0, 0.5, 6.0]),
            }
        )
        pts = pa.table(
            {
                "pt_id": pa.array(list(range(20)), pa.int64()),
                "v": pa.array([float(x) * 7.3 for x in range(20)]),
            }
        )
        out = (
            interval_join_shuffle(
                rd.from_arrow(pts),
                rd.from_arrow(iv),
                point_id="pt_id",
                interval_id="iv_id",
                value_col="v",
                lo_col="lo",
                hi_col="hi",
                cell_width=2.0,
            )
            .to_pandas()
            .sort_values(["pt_id", "iv_id"])
            .reset_index(drop=True)
        )
        pts_pd, iv_pd = pts.to_pandas(), iv.to_pandas()
        want = [
            (int(p.pt_id), int(i.iv_id))
            for p in pts_pd.itertuples()
            for i in iv_pd.itertuples()
            if i.lo <= p.v < i.hi
        ]
        got = list(zip(out["pt_id"], out["iv_id"]))
        assert sorted(got) == sorted(want)
