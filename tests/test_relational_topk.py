"""topk_per_group sort-scan plan: boundary-chain correctness.

The round-4 rewrite replaced the per-group ``map_groups`` merge with one
distributed sort + per-block vectorized head-k + an O(#blocks) driver
boundary chain (stages/relational.py). These tests pin the chain against
a pandas reference on shapes chosen to exercise the carry logic: groups
spanning many blocks, one group owning every block, empty input.
"""

import numpy as np
import pandas as pd
import pytest
import pyarrow as pa
import ray.data as rd


def _reference(df: pd.DataFrame, group, score, k, tiebreak) -> pd.DataFrame:
    cols = [score] + ([tiebreak] if tiebreak else [])
    asc = [False] + ([True] if tiebreak else [])
    out = (
        df.sort_values(cols, ascending=asc, kind="stable")
        .groupby(group, sort=False)
        .head(k)
        .copy()
    )
    out["rank"] = out.groupby(group).cumcount() + 1
    return out


def _assert_matches(ds, df, group, score, k, tiebreak=None):
    from osmptparser_ray.stages.relational import topk_per_group

    got = (
        topk_per_group(ds, group, score, k, tiebreak_col=tiebreak)
        .to_pandas()
        .sort_values([group, "rank"])
        .reset_index(drop=True)
    )
    want = (
        _reference(df, group, score, k, tiebreak)
        .sort_values([group, "rank"])
        .reset_index(drop=True)[got.columns]
    )
    pd.testing.assert_frame_equal(
        got.astype(str), want.astype(str), check_dtype=False
    )


class TestTopkPerGroup:
    def test_random_many_groups_many_blocks(self, ray_session):
        rng = np.random.default_rng(7)
        n = 4000
        df = pd.DataFrame(
            {
                "g": rng.integers(0, 50, n),
                "s": rng.integers(0, 1000, n),
                "id": np.arange(n),
            }
        )
        ds = rd.from_pandas(df).repartition(16)
        _assert_matches(ds, df, "g", "s", 3, tiebreak="id")

    def test_single_group_spans_all_blocks(self, ray_session):
        # one group across every block — every block's offset is nonzero
        # after the first, and only the first k rows overall survive
        n = 500
        df = pd.DataFrame({"g": 0, "s": np.arange(n)[::-1], "id": np.arange(n)})
        ds = rd.from_pandas(df).repartition(20)
        _assert_matches(ds, df, "g", "s", 7, tiebreak="id")

    def test_group_boundary_straddles_blocks(self, ray_session):
        # two groups, the second starting mid-block after sort; k larger
        # than any single block's share so the carry chain must add up
        df = pd.DataFrame(
            {
                "g": ["a"] * 30 + ["b"] * 30,
                "s": list(range(30)) + list(range(30)),
                "id": range(60),
            }
        )
        ds = rd.from_pandas(df.sample(frac=1, random_state=3)).repartition(9)
        _assert_matches(ds, df, "g", "s", 25, tiebreak="id")

    def test_k_exceeds_group_size(self, ray_session):
        df = pd.DataFrame({"g": [1, 1, 2], "s": [5, 3, 9], "id": [0, 1, 2]})
        _assert_matches(rd.from_pandas(df), df, "g", "s", 10, tiebreak="id")

    def test_empty_input(self, ray_session):
        from osmptparser_ray.stages.relational import topk_per_group

        ds = rd.from_arrow(
            pa.table(
                {
                    "g": pa.array([], pa.int64()),
                    "s": pa.array([], pa.int64()),
                }
            )
        )
        out = topk_per_group(ds, "g", "s", 3)
        assert out.count() == 0


class TestLeadLagRank:
    def test_matches_window_oracle_with_ties(self, ray_session):
        """Random keyed data with DUPLICATE order values (dense-rank ties)
        and many forced block boundaries, vs the DuckDB window oracle.
        LAG/LEAD are checked on the tie-free (key, o1, o2) total order."""
        import duckdb

        from osmptparser_ray.stages.relational import lead_lag_rank

        rng = np.random.default_rng(42)
        n = 5000
        t = pa.table(
            {
                "k": pa.array(rng.integers(0, 40, n), pa.int64()),
                "o1": pa.array(rng.integers(0, 25, n), pa.int64()),  # ties!
                "o2": pa.array(np.arange(n), pa.int64()),  # tiebreaker
                "v": pa.array(rng.integers(-100, 100, n), pa.int64()),
            }
        )
        ds = rd.from_arrow(t).repartition(29)
        out = (
            lead_lag_rank(ds, "k", ["o1", "o2"], "v")
            .to_pandas()
            .sort_values("o2")
            .reset_index(drop=True)
        )
        df = t.to_pandas()
        oracle = duckdb.sql(
            "SELECT o2, LAG(v) OVER w AS lag_v, LEAD(v) OVER w AS lead_v, "
            "CAST(dense_rank() OVER w AS BIGINT) AS dense_rank "
            "FROM df WINDOW w AS (PARTITION BY k ORDER BY o1, o2) ORDER BY o2"
        ).df()
        for c in ("lag_v", "lead_v"):
            a, b = out[c].values, oracle[c].values
            assert ((a == b) | (np.isnan(a) & np.isnan(b))).all(), c
        assert (out["dense_rank"].values == oracle["dense_rank"].values).all()
        # tie behavior (dense rank over o1 ALONE, ties share ranks) vs oracle
        out_t = (
            lead_lag_rank(ds, "k", ["o1"], "v")
            .to_pandas()
            .sort_values("o2")
            .reset_index(drop=True)
        )
        oracle_t = duckdb.sql(
            "SELECT o2, CAST(dense_rank() OVER (PARTITION BY k ORDER BY o1) "
            "AS BIGINT) AS dense_rank FROM df ORDER BY o2"
        ).df()
        assert (out_t["dense_rank"].values == oracle_t["dense_rank"].values).all()

    def test_single_key_spanning_blocks_and_boundary_tie(self, ray_session):
        """One key across many blocks; order values repeat ACROSS block
        boundaries, exercising the merge branch of the dense-rank carry."""
        from osmptparser_ray.stages.relational import lead_lag_rank

        n = 600
        o = np.repeat(np.arange(n // 3), 3)  # every order value 3 times
        ds = rd.from_arrow(
            pa.table(
                {
                    "k": pa.array([1] * n, pa.int64()),
                    "o": pa.array(o, pa.int64()),
                    "u": pa.array(np.arange(n), pa.int64()),
                    "v": pa.array(np.arange(n) * 10, pa.int64()),
                }
            )
        ).repartition(31)
        out = (
            lead_lag_rank(ds, "k", ["o", "u"], "v")
            .to_pandas()
            .sort_values("u")
            .reset_index(drop=True)
        )
        assert (out["dense_rank"].values == np.arange(1, n + 1)).all()
        assert np.isnan(out["lag_v"].values[0]) and np.isnan(out["lead_v"].values[-1])
        assert (out["lag_v"].values[1:] == (np.arange(n - 1)) * 10).all()
        assert (out["lead_v"].values[:-1] == (np.arange(1, n)) * 10).all()
        # dense rank over o ALONE (drop the tiebreaker): ties share ranks
        out2 = (
            lead_lag_rank(ds, "k", ["o"], "v")
            .to_pandas()
            .sort_values("u")
            .reset_index(drop=True)
        )
        assert (out2["dense_rank"].values == np.repeat(np.arange(1, n // 3 + 1), 3)).all()

    def test_empty_input(self, ray_session):
        from osmptparser_ray.stages.relational import lead_lag_rank

        ds = rd.from_arrow(
            pa.table(
                {
                    "k": pa.array([], pa.int64()),
                    "o": pa.array([], pa.int64()),
                    "v": pa.array([], pa.int64()),
                }
            )
        )
        # contract: no crash, zero rows. (Ray 2.49 from_arrow drops the
        # schema of 0-row tables entirely — same platform quirk as every
        # other sort-scan operator's empty branch.)
        out = lead_lag_rank(ds, "k", ["o"], "v").to_pandas()
        assert len(out) == 0


class TestRunningAgg:
    def test_matches_window_oracle(self, ray_session, sf_dir):
        import duckdb

        from osmptparser_ray.stages.relational import running_agg

        ds = rd.read_parquet(
            f"{sf_dir}/events.parquet", columns=["event_id", "ts", "user_id", "value"]
        )

        def add_cents(t: pa.Table) -> pa.Table:
            v = t["value"].to_numpy(zero_copy_only=False)
            return t.append_column(
                "v_cents", pa.array(np.floor(v * 100).astype(np.int64), pa.int64())
            )

        ds = (
            ds.map_batches(add_cents, batch_format="pyarrow")
            .drop_columns(["value"])
            .repartition(17)
        )
        out = (
            running_agg(ds, "user_id", ["ts", "event_id"], "v_cents")
            .to_pandas()
            .sort_values("event_id")
            .reset_index(drop=True)
        )
        oracle = duckdb.sql(
            "SELECT event_id, CAST(row_number() OVER w AS BIGINT) AS running_n, "
            "CAST(SUM(v) OVER w AS BIGINT) AS running_sum FROM ("
            "SELECT event_id, ts, user_id, CAST(floor(value*100) AS BIGINT) AS v "
            f"FROM '{sf_dir}/events.parquet') WINDOW w AS (PARTITION BY user_id "
            "ORDER BY ts, event_id ROWS UNBOUNDED PRECEDING) ORDER BY event_id"
        ).df()
        assert (out["running_n"].values == oracle["running_n"].values).all()
        assert (out["running_sum"].values == oracle["running_sum"].values).all()

    def test_key_spanning_many_blocks(self, ray_session):
        """One hot key across many blocks: the carry chain must accumulate
        through consecutive single-key blocks."""
        from osmptparser_ray.stages.relational import running_agg

        n = 900
        ds = rd.from_arrow(
            pa.table(
                {
                    "k": pa.array([7] * n + [9] * 30, pa.int64()),
                    "o": pa.array(range(n + 30), pa.int64()),
                    "v": pa.array([2] * (n + 30), pa.int64()),
                }
            )
        ).repartition(23)
        out = (
            running_agg(ds, "k", ["o"], "v")
            .to_pandas()
            .sort_values(["k", "o"])
            .reset_index(drop=True)
        )
        hot = out[out["k"] == 7]
        assert (hot["running_n"].values == np.arange(1, n + 1)).all()
        assert (hot["running_sum"].values == 2 * np.arange(1, n + 1)).all()
        cold = out[out["k"] == 9]
        assert (cold["running_n"].values == np.arange(1, 31)).all()

    def test_empty_input(self, ray_session):
        from osmptparser_ray.stages.relational import running_agg

        ds = rd.from_arrow(
            pa.table(
                {
                    "k": pa.array([], pa.int64()),
                    "o": pa.array([], pa.int64()),
                    "v": pa.array([], pa.int64()),
                }
            )
        )
        out = running_agg(ds, "k", ["o"], "v")
        assert out.count() == 0
        assert "running_sum" in out.schema().names


class TestAntiJoin:
    def _inputs(self, sf_dir):
        import pyarrow.compute as pc

        cust = rd.read_parquet(f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_name"])
        fkeys = rd.read_parquet(
            f"{sf_dir}/orders.parquet", columns=["o_custkey", "o_orderstatus"]
        ).map_batches(
            lambda t: t.filter(pc.equal(t["o_orderstatus"], "F")).select(["o_custkey"]),
            batch_format="pyarrow",
        )
        return cust, fkeys

    def test_plans_match_oracle(self, ray_session, sf_dir):
        import duckdb

        from osmptparser_ray.stages.relational import anti_join

        oracle = (
            duckdb.sql(
                f"SELECT c_custkey, c_name FROM '{sf_dir}/customer.parquet' "
                f"WHERE c_custkey NOT IN (SELECT o_custkey FROM "
                f"'{sf_dir}/orders.parquet' WHERE o_orderstatus='F') ORDER BY c_custkey"
            )
            .df()
            .reset_index(drop=True)
        )
        for plan in ("broadcast", "shuffle"):
            cust, fkeys = self._inputs(sf_dir)
            out = (
                anti_join(cust, fkeys, "c_custkey", keys_on="o_custkey", plan=plan)
                .to_pandas()[["c_custkey", "c_name"]]
                .sort_values("c_custkey")
                .reset_index(drop=True)
            )
            assert out.equals(oracle), plan

    def test_empty_key_side_passes_everything(self, ray_session, sf_dir):
        from osmptparser_ray.stages.relational import anti_join

        cust = rd.read_parquet(f"{sf_dir}/customer.parquet", columns=["c_custkey"])
        empty = rd.from_arrow(
            pa.table({"o_custkey": pa.array([], pa.int64())})
        )
        n = cust.count()
        for plan in ("broadcast", "shuffle"):
            out = anti_join(cust, empty, "c_custkey", keys_on="o_custkey", plan=plan)
            assert out.count() == n, plan

    def test_all_keys_match_empties_output(self, ray_session):
        from osmptparser_ray.stages.relational import anti_join

        probe = rd.from_arrow(
            pa.table({"k": pa.array([1, 2, 3], pa.int64())})
        )
        keys = rd.from_arrow(
            pa.table({"k": pa.array([1, 2, 3, 3], pa.int64())})
        )
        for plan in ("broadcast", "shuffle"):
            assert anti_join(probe, keys, "k", plan=plan).count() == 0, plan


class TestChainOperatorsRandomized:
    """Seeded randomized stress for the sort-scan carry chains: random key
    skew, random partitioning, pandas reference."""

    def test_running_agg_random(self, ray_session):
        from osmptparser_ray.stages.relational import running_agg

        for seed, parts in ((0, 3), (1, 11), (2, 29)):
            rng = np.random.default_rng(seed)
            n = 4000
            df = pd.DataFrame(
                {
                    "k": rng.integers(0, rng.integers(2, 40), n).astype("int64"),
                    "o": rng.permutation(n).astype("int64"),
                    "v": rng.integers(-50, 50, n).astype("int64"),
                }
            )
            ref = df.sort_values(["k", "o"]).reset_index(drop=True)
            grp = ref.groupby("k", sort=False)
            ref["running_n"] = grp.cumcount() + 1
            ref["running_sum"] = grp["v"].cumsum()
            out = (
                running_agg(
                    rd.from_pandas(df.sample(frac=1, random_state=seed)).repartition(
                        parts
                    ),
                    "k",
                    ["o"],
                    "v",
                )
                .to_pandas()
                .sort_values(["k", "o"])
                .reset_index(drop=True)
            )
            assert (out["running_n"].values == ref["running_n"].values).all(), seed
            assert (out["running_sum"].values == ref["running_sum"].values).all(), seed

    def test_pack_sequences_random(self, ray_session):
        from osmptparser_ray.text import pack_sequences

        for seed, parts, budget in ((0, 5, 64), (1, 17, 1000), (2, 2, 7)):
            rng = np.random.default_rng(seed)
            n = 3000
            df = pd.DataFrame(
                {
                    "doc_id": rng.permutation(n).astype("int64"),
                    "n_tokens": rng.integers(0, 200, n).astype("int64"),
                }
            )
            ref = df.sort_values("doc_id").reset_index(drop=True)
            start = ref["n_tokens"].cumsum() - ref["n_tokens"]
            ref["pack_id"] = start // budget
            ref["pack_off"] = start % budget
            out = (
                pack_sequences(
                    rd.from_pandas(df).repartition(parts),
                    budget=budget,
                )
                .to_pandas()
                .sort_values("doc_id")
                .reset_index(drop=True)
            )
            assert (out["pack_id"].values == ref["pack_id"].values).all(), seed
            assert (out["pack_off"].values == ref["pack_off"].values).all(), seed


class TestExplodeList:
    def test_values_positions_and_carry(self, ray_session):
        from osmptparser_ray.stages.relational import explode_list

        ds = rd.from_arrow(
            pa.table(
                {
                    "id": pa.array([1, 2, 3], pa.int64()),
                    "tag": pa.array(["a", "b", "c"], pa.string()),
                    "xs": pa.array([[10, 11], [], [20, 21, 22]], pa.list_(pa.int64())),
                }
            )
        )
        out = (
            explode_list(ds, "xs", out_col="x")
            .to_pandas()
            .sort_values(["id", "pos"])
            .reset_index(drop=True)
        )
        assert out["id"].tolist() == [1, 1, 3, 3, 3]
        assert out["tag"].tolist() == ["a", "a", "c", "c", "c"]
        assert out["pos"].tolist() == [0, 1, 0, 1, 2]
        assert out["x"].tolist() == [10, 11, 20, 21, 22]

    def test_null_and_empty_lists_drop(self, ray_session):
        from osmptparser_ray.stages.relational import explode_list

        ds = rd.from_arrow(
            pa.table(
                {
                    "id": pa.array([1, 2], pa.int64()),
                    "xs": pa.array([None, [5]], pa.list_(pa.int64())),
                }
            )
        )
        out = explode_list(ds, "xs", out_col="x").to_pandas()
        assert out["id"].tolist() == [2] and out["x"].tolist() == [5]


class TestRunningAggStringKeys:
    def test_string_keys_across_blocks(self, ray_session):
        from osmptparser_ray.stages.relational import running_agg

        rng = np.random.default_rng(7)
        n = 1200
        keys = np.array(["alpha", "beta", "gamma"], object)[
            rng.integers(0, 3, n)
        ]
        df = pd.DataFrame(
            {
                "k": keys,
                "o": rng.permutation(n).astype("int64"),
                "v": rng.integers(0, 9, n).astype("int64"),
            }
        )
        ref = df.sort_values(["k", "o"]).reset_index(drop=True)
        grp = ref.groupby("k", sort=False)
        ref["running_n"] = grp.cumcount() + 1
        ref["running_sum"] = grp["v"].cumsum()
        out = (
            running_agg(rd.from_pandas(df).repartition(9), "k", ["o"], "v")
            .to_pandas()
            .sort_values(["k", "o"])
            .reset_index(drop=True)
        )
        assert (out["running_n"].values == ref["running_n"].values).all()
        assert (out["running_sum"].values == ref["running_sum"].values).all()


class TestSetOps:
    def _ds(self, rows, cols):
        import ray.data as rd

        return rd.from_arrow(
            pa.table({c: pa.array([r[i] for r in rows]) for i, c in enumerate(cols)})
        ).repartition(3)

    def test_intersect_and_except_single_key(self, ray_session):
        from osmptparser_ray.stages.relational import (
            except_distinct,
            intersect_distinct,
        )

        a = self._ds([[1], [2], [2], [3], [5]], ["k"])
        b = self._ds([[2], [3], [3], [4]], ["k"])
        inter = sorted(r["k"] for r in intersect_distinct(a, b, "k").take_all())
        assert inter == [2, 3]
        exc = sorted(r["k"] for r in except_distinct(a, b, "k").take_all())
        assert exc == [1, 5]

    def test_multi_column_keys(self, ray_session):
        from osmptparser_ray.stages.relational import (
            except_distinct,
            intersect_distinct,
        )

        a = self._ds([[1, "x"], [1, "y"], [2, "x"], [1, "y"]], ["k", "s"])
        b = self._ds([[1, "y"], [2, "y"], [2, "x"]], ["k", "s"])
        inter = sorted(
            (r["k"], r["s"]) for r in intersect_distinct(a, b, ["k", "s"]).take_all()
        )
        assert inter == [(1, "y"), (2, "x")]
        exc = sorted(
            (r["k"], r["s"]) for r in except_distinct(a, b, ["k", "s"]).take_all()
        )
        assert exc == [(1, "x")]

    def test_disjoint_and_identical(self, ray_session):
        from osmptparser_ray.stages.relational import (
            except_distinct,
            intersect_distinct,
        )

        a = self._ds([[1], [2]], ["k"])
        b = self._ds([[3], [4]], ["k"])
        assert intersect_distinct(a, b, "k").count() == 0
        assert sorted(r["k"] for r in except_distinct(a, b, "k").take_all()) == [1, 2]
        assert sorted(r["k"] for r in intersect_distinct(a, a, "k").take_all()) == [1, 2]
        assert except_distinct(a, a, "k").count() == 0


class TestSaltedJoin:
    """The ``salted_join`` gate query's join on a skewed table: one
    ``util.equi_join``, whose partitioner spreads hot keys."""

    def _skewed(self):
        import ray.data as rd

        rng = np.random.default_rng(5)
        # one key = 50% of rows (degenerate hot key), rest uniform
        keys = np.where(rng.random(2000) < 0.5, 7, rng.integers(0, 200, 2000))
        left = rd.from_arrow(
            pa.table(
                {
                    "k": pa.array(keys, pa.int64()),
                    "lv": pa.array(np.arange(2000, dtype=np.int64)),
                }
            )
        ).repartition(4)
        right = rd.from_arrow(
            pa.table(
                {
                    "k": pa.array(np.arange(0, 200, dtype=np.int64)),
                    "rv": pa.array(np.arange(1000, 1200, dtype=np.int64)),
                }
            )
        ).repartition(2)
        return left, right

    @staticmethod
    def _oracle(left, right) -> list:
        want = left.to_pandas().merge(right.to_pandas(), on="k")
        return sorted(map(tuple, want[["k", "lv", "rv"]].values.tolist()))

    @staticmethod
    def _rows(out) -> list:
        return sorted((r["k"], r["lv"], r["rv"]) for r in out.take_all())

    def test_parity_with_plain_join(self, ray_session, block_size):
        """The ``salted_join`` gate query's join, ``equi_join``, at several
        key ranges: the plain join's rows."""
        from osmptparser_ray.util import equi_join

        block_size(256)
        left, right = self._skewed()
        got = self._rows(equi_join(left, right, "k"))
        assert got == self._oracle(left, right)
        assert len(got) > 1000  # hot key actually joined

    def test_no_hot_keys_path(self, ray_session, block_size, spread_keys):
        from osmptparser_ray.util import equi_join

        block_size(256)
        left, right = self._skewed()
        left = left.filter(lambda r: r["k"] != 7).materialize()
        assert self._rows(equi_join(left, right, "k")) == self._oracle(left, right)
        assert spread_keys and not any(spread_keys)

    def test_degenerate_key_spreads(self, ray_session, block_size, spread_keys):
        """No threshold to set: the partitioner finds the key on half the
        left rows in its boundary sample and spreads it."""
        from osmptparser_ray.util import equi_join

        block_size(256)
        left, right = self._skewed()
        assert equi_join(left, right, "k").count() == len(self._oracle(left, right))
        assert spread_keys[0] > 0


class TestZscoreFilter:
    def _ds(self, groups, vals):
        import ray.data as rd

        return rd.from_arrow(
            pa.table(
                {
                    "g": pa.array(groups),
                    "v": pa.array(np.asarray(vals, np.int64), pa.int64()),
                    "rid": pa.array(np.arange(len(vals), dtype=np.int64)),
                }
            )
        ).repartition(3)

    def test_matches_numpy_reference(self, ray_session):
        from osmptparser_ray.stages.relational import zscore_filter

        rng = np.random.default_rng(11)
        groups = rng.integers(0, 3, 300)
        vals = rng.integers(0, 100, 300)
        out = zscore_filter(self._ds(groups, vals), "g", "v", z=1)
        got = sorted(r["rid"] for r in out.take_all())
        want = []
        for gi in range(3):
            m = groups == gi
            mu, sd = vals[m].mean(), vals[m].std()
            want.extend(
                int(r)
                for r in np.arange(300)[m][np.abs(vals[m] - mu) > 1 * sd]
            )
        assert got == sorted(want)

    def test_inliers_complement(self, ray_session):
        from osmptparser_ray.stages.relational import zscore_filter

        groups = np.zeros(50, np.int64)
        vals = np.r_[np.full(48, 10), 1000, -1000]
        ds = self._ds(groups, vals)
        outs = {r["rid"] for r in zscore_filter(ds, "g", "v", z=2).take_all()}
        ins = {r["rid"] for r in zscore_filter(ds, "g", "v", z=2, mode="inliers").take_all()}
        assert outs == {48, 49}
        assert outs | ins == set(range(50)) and not (outs & ins)

    def test_fractional_values_raise(self, ray_session):
        import ray.data as rd

        from osmptparser_ray.stages.relational import zscore_filter

        ds = rd.from_arrow(
            pa.table(
                {
                    "g": pa.array([1, 1]),
                    "v": pa.array([1.5, 2.0], pa.float64()),
                }
            )
        )
        with pytest.raises(Exception, match="integer-valued|RayTaskError"):
            zscore_filter(ds, "g", "v").take_all()

    def test_string_groups(self, ray_session):
        from osmptparser_ray.stages.relational import zscore_filter

        groups = np.array(["a"] * 30 + ["b"] * 30)
        vals = np.r_[np.full(29, 5), 500, np.full(29, 7), -400]
        out = zscore_filter(self._ds(groups, vals), "g", "v", z=2)
        assert sorted(r["rid"] for r in out.take_all()) == [29, 59]


class TestHistogram:
    def test_matches_numpy(self, ray_session):
        from osmptparser_ray.stages.relational import histogram

        rng = np.random.default_rng(3)
        x = rng.normal(5, 3, 5000)
        ds = rd.from_arrow(pa.table({"v": pa.array(x, pa.float64())})).repartition(4)
        got = {
            r["bin"]: r["cnt"] for r in histogram(ds, "v", 0.0, 10.0, 8).take_all()
        }
        width = 10.0 / 8
        b = np.clip(np.floor((x - 0.0) / width), 0, 7).astype(int)
        want = {i: int(c) for i, c in enumerate(np.bincount(b, minlength=8)) if c}
        assert got == want
        assert sum(got.values()) == 5000

    def test_drop_mode_and_edges(self, ray_session):
        from osmptparser_ray.stages.relational import histogram

        x = np.array([-1.0, 0.0, 0.5, 1.0, 9.999, 10.0, 42.0])
        ds = rd.from_arrow(pa.table({"v": pa.array(x, pa.float64())}))
        rows = histogram(ds, "v", 0.0, 10.0, 10, clip=False).take_all()
        got = {r["bin"]: r["cnt"] for r in rows}
        # -1 dropped; 10.0 and 42.0 dropped (bin >= nbins); 0.0,0.5 -> 0; 1.0 -> 1; 9.999 -> 9
        assert got == {0: 2, 1: 1, 9: 1}
        for r in rows:
            assert r["bin_lo"] == r["bin"] * 1.0 and r["bin_hi"] == (r["bin"] + 1) * 1.0


class TestWeightedSample:
    def test_rate_follows_weight_and_determinism(self, ray_session):
        from osmptparser_ray.stages.relational import weighted_sample

        n = 20000
        ids = np.arange(n, dtype=np.int64)
        w = np.where(ids % 2 == 0, 8, 2)  # p=0.8 evens, p=0.2 odds
        ds = rd.from_arrow(
            pa.table({"id": pa.array(ids), "w": pa.array(w.astype(np.int64))})
        ).repartition(4)
        kept = [r["id"] for r in weighted_sample(ds, "id", "w", 10).take_all()]
        kept2 = [r["id"] for r in weighted_sample(ds, "id", "w", 10).take_all()]
        assert sorted(kept) == sorted(kept2)  # deterministic
        ev = sum(1 for i in kept if i % 2 == 0) / (n / 2)
        od = sum(1 for i in kept if i % 2 == 1) / (n / 2)
        assert abs(ev - 0.8) < 0.03 and abs(od - 0.2) < 0.03

    def test_weight_at_least_denom_always_keeps(self, ray_session):
        from osmptparser_ray.stages.relational import weighted_sample

        ids = np.arange(100, dtype=np.int64)
        ds = rd.from_arrow(
            pa.table(
                {"id": pa.array(ids), "w": pa.array(np.full(100, 10**6, np.int64))}
            )
        )
        assert weighted_sample(ds, "id", "w", 100).count() == 100


class TestRollingSum:
    def _check(self, ray_session, n_rows, n_keys, w, blocks):
        from osmptparser_ray.stages.relational import rolling_sum

        rng = np.random.default_rng(17)
        keys = rng.integers(0, n_keys, n_rows)
        order = np.arange(n_rows, dtype=np.int64)
        vals = rng.integers(-5, 20, n_rows)
        ds = rd.from_arrow(
            pa.table(
                {
                    "k": pa.array(keys, pa.int64()),
                    "o": pa.array(order),
                    "v": pa.array(vals.astype(np.int64)),
                }
            )
        ).repartition(blocks)
        got = {
            (r["k"], r["o"]): r["rolling_sum"]
            for r in rolling_sum(ds, "k", ["o"], "v", w).take_all()
        }
        df = pd.DataFrame({"k": keys, "o": order, "v": vals}).sort_values(["k", "o"])
        want = df.groupby("k")["v"].rolling(w, min_periods=1).sum().reset_index()
        for (_, row), (_, orig) in zip(want.iterrows(), df.iterrows()):
            assert got[(orig["k"], orig["o"])] == int(row["v"]), (orig["k"], orig["o"])

    def test_matches_pandas_rolling(self, ray_session):
        self._check(ray_session, 400, 7, 5, 4)

    def test_hot_key_window_spans_blocks(self, ray_session):
        # one key, many blocks, window larger than a block's share
        self._check(ray_session, 300, 1, 50, 16)

    def test_window_one_is_identity(self, ray_session):
        from osmptparser_ray.stages.relational import rolling_sum

        ds = rd.from_arrow(
            pa.table(
                {
                    "k": pa.array([1, 1, 2], pa.int64()),
                    "o": pa.array([0, 1, 0], pa.int64()),
                    "v": pa.array([10, 20, 30], pa.int64()),
                }
            )
        ).repartition(2)
        got = sorted(
            (r["k"], r["o"], r["rolling_sum"])
            for r in rolling_sum(ds, "k", ["o"], "v", 1).take_all()
        )
        assert got == [(1, 0, 10), (1, 1, 20), (2, 0, 30)]


class TestCubeAgg:
    def test_all_grouping_sets(self, ray_session):
        from osmptparser_ray.stages.relational import cube_agg

        ds = rd.from_arrow(
            pa.table(
                {
                    "a": pa.array(["x", "x", "y", "y", "y"]),
                    "b": pa.array(["1", "2", "1", "1", "2"]),
                    "v": pa.array([10, 20, 30, 40, 50], pa.int64()),
                }
            )
        ).repartition(2)
        rows = {
            (r["a"], r["b"]): (r["n"], r["sum_v"])
            for r in cube_agg(ds, ["a", "b"], "v").take_all()
        }
        assert rows[("x", "1")] == (1, 10)
        assert rows[("x", "2")] == (1, 20)
        assert rows[("y", "1")] == (2, 70)
        assert rows[("y", "2")] == (1, 50)
        assert rows[("x", "ALL")] == (2, 30)
        assert rows[("y", "ALL")] == (3, 120)
        assert rows[("ALL", "1")] == (3, 80)   # the set ROLLUP lacks
        assert rows[("ALL", "2")] == (2, 70)
        assert rows[("ALL", "ALL")] == (5, 150)
        assert len(rows) == 9

    def test_empty_input(self, ray_session):
        """ADVICE r4: empty input used to TypeError on int(None) — the
        contract is one grand-total row (ALL…, 0, 0)."""
        from osmptparser_ray.stages.relational import cube_agg, rollup_agg

        ds = rd.from_arrow(
            pa.table(
                {
                    "a": pa.array([], pa.string()),
                    "b": pa.array([], pa.string()),
                    "v": pa.array([], pa.int64()),
                }
            )
        )
        rows = [
            (r["a"], r["b"], r["n"], r["sum_v"])
            for r in cube_agg(ds, ["a", "b"], "v").take_all()
        ]
        assert rows == [("ALL", "ALL", 0, 0)]
        rows_r = [
            (r["a"], r["b"], r["n"], r["sum_v"])
            for r in rollup_agg(ds, ["a", "b"], "v").take_all()
        ]
        assert rows_r == [("ALL", "ALL", 0, 0)]


class TestEmptyInputGuards:
    def test_salted_join_empty_sides(self, ray_session):
        """The ``salted_join`` gate query's join (``equi_join``) with a
        side without rows, lazy or not."""
        from osmptparser_ray.util import equi_join

        empty = rd.from_arrow(
            pa.table({"k": pa.array([], pa.int64()), "lv": pa.array([], pa.int64())})
        )
        right = rd.from_arrow(
            pa.table({"k": pa.array([1], pa.int64()), "rv": pa.array([9], pa.int64())})
        )
        assert equi_join(empty, right, "k").count() == 0
        assert equi_join(right, empty.map_batches(
            lambda t: pa.table({"k": t["k"], "rv": t["lv"]}), batch_format="pyarrow"
        ), "k", right_suffix="_r").count() == 0

    def test_tfidf_empty_corpus(self, ray_session):
        from osmptparser_ray.text.analysis import tfidf_top_terms

        docs = rd.from_arrow(
            pa.table(
                {"doc_id": pa.array([], pa.int64()), "text": pa.array([], pa.string())}
            )
        )
        assert tfidf_top_terms(docs, k=3).count() == 0

    def test_ivf_ann_join_empty_vectors(self, ray_session):
        from osmptparser_ray.embed.ann import ivf_ann_join

        empty = rd.from_arrow(
            pa.table(
                {
                    "vec_id": pa.array([], pa.int64()),
                    "embedding": pa.array([], pa.list_(pa.float64())),
                }
            )
        )
        q = rd.from_arrow(
            pa.table(
                {
                    "vec_id": pa.array([1], pa.int64()),
                    "embedding": pa.array([[1.0, 0.0]]),
                }
            )
        )
        assert ivf_ann_join(empty, q, k=3, n_lists=2, n_probe=1).count() == 0

    def test_histogram_param_validation(self, ray_session):
        from osmptparser_ray.stages.relational import histogram

        ds = rd.from_arrow(pa.table({"v": pa.array([1.0], pa.float64())}))
        with pytest.raises(ValueError):
            histogram(ds, "v", 0.0, 10.0, 0)
        with pytest.raises(ValueError):
            histogram(ds, "v", 10.0, 0.0, 4)


class TestUniqueViolations:
    def test_finds_duplicate_keys(self, ray_session):
        from osmptparser_ray.stages.relational import unique_violations

        ds = rd.from_arrow(
            pa.table(
                {
                    "a": pa.array(["x", "x", "y", "y", "y", "z"]),
                    "b": pa.array([1, 1, 2, 2, 3, 4], pa.int64()),
                }
            )
        ).repartition(3)
        got = sorted(
            (r["a"], r["b"], r["n"])
            for r in unique_violations(ds, ["a", "b"]).take_all()
        )
        assert got == [("x", 1, 2), ("y", 2, 2)]
        assert unique_violations(ds.limit(1), ["a", "b"]).count() == 0


class TestGroupedHistogram:
    def test_matches_numpy_per_group(self, ray_session):
        from osmptparser_ray.stages.relational import histogram

        rng = np.random.default_rng(8)
        g = rng.choice(["en", "es", "de"], 3000)
        x = rng.normal(5, 3, 3000)
        ds = rd.from_arrow(
            pa.table({"g": pa.array(g), "v": pa.array(x, pa.float64())})
        ).repartition(4)
        got = {
            (r["g"], r["bin"]): r["cnt"]
            for r in histogram(ds, "v", 0.0, 10.0, 5, group_col="g").take_all()
        }
        width = 2.0
        want = {}
        for gi in ("en", "es", "de"):
            m = g == gi
            b = np.clip(np.floor((x[m] - 0.0) / width), 0, 4).astype(int)
            for i, c in enumerate(np.bincount(b, minlength=5)):
                if c:
                    want[(gi, i)] = int(c)
        assert got == want

    def test_grouped_matches_global_on_one_group(self, ray_session):
        from osmptparser_ray.stages.relational import histogram

        x = np.r_[np.linspace(0, 9.9, 97), np.nan, np.nan, 5.0]
        ds = rd.from_arrow(
            pa.table(
                {"g": pa.array(["only"] * 100), "v": pa.array(x, pa.float64())}
            )
        ).repartition(3)
        grouped = sorted(
            (r["bin"], r["cnt"])
            for r in histogram(ds, "v", 0.0, 10.0, 4, group_col="g").take_all()
        )
        plain = sorted(
            (r["bin"], r["cnt"]) for r in histogram(ds, "v", 0.0, 10.0, 4).take_all()
        )
        assert grouped == plain


class TestGlobalIndex:
    def test_matches_numpy_reference_and_block_invariance(self, ray_session):
        import numpy as np
        import ray.data as rd

        from osmptparser_ray.stages.relational import global_index

        rng = np.random.default_rng(3)
        ids = rng.permutation(5000).astype(np.int64)
        h = ((ids % (1 << 31)) * 2654435761) % (1 << 32)
        order = np.lexsort((ids, h))
        ref_pos = np.empty(len(ids), np.int64)
        ref_pos[order] = np.arange(1, len(ids) + 1)
        ref = {int(i): int(p) for i, p in zip(ids, ref_pos)}
        for parts in (1, 7, 64):
            ds = rd.from_items([{"id": int(i)} for i in ids]).repartition(parts)
            out = global_index(ds, "id", n_shards=8).take_all()
            got = {r["id"]: r["pos"] for r in out}
            assert got == ref, parts
            shards = {r["id"]: r["shard"] for r in out}
            n = len(ids)
            for r in out:
                assert r["shard"] == (r["pos"] - 1) * 8 // n
            # contiguous: shard is monotone in pos and spans 0..7
            by_pos = sorted(out, key=lambda r: r["pos"])
            sh = [r["shard"] for r in by_pos]
            assert sh == sorted(sh) and sh[0] == 0 and sh[-1] == 7

    def test_empty_input(self, ray_session):
        import pyarrow as pa
        import ray.data as rd

        from osmptparser_ray.stages.relational import global_index

        ds = rd.from_arrow(pa.table({"id": pa.array([], pa.int64())}))
        out = global_index(ds, "id", n_shards=4)
        assert out.count() == 0
        assert set(out.schema().names) == {"id", "pos", "shard"}


class TestUnpivot:
    def test_long_form_matches_manual(self, ray_session):
        import pyarrow as pa
        import ray.data as rd

        from osmptparser_ray.stages.relational import unpivot

        t = pa.table(
            {
                "id": pa.array([1, 2], pa.int64()),
                "a": pa.array([1.5, 2.5], pa.float64()),
                "b": pa.array([10.0, 20.0], pa.float64()),
            }
        )
        out = (
            unpivot(rd.from_arrow(t).repartition(2), ["id"], ["a", "b"])
            .to_pandas()
            .sort_values(["id", "metric"])
            .reset_index(drop=True)
        )
        assert list(out.columns) == ["id", "metric", "value"]
        assert len(out) == 4
        assert out.loc[(out.id == 1) & (out.metric == "a"), "value"].item() == 1.5
        assert out.loc[(out.id == 2) & (out.metric == "b"), "value"].item() == 20.0

    def test_mixed_types_loud_and_cast_escape(self, ray_session):
        import pyarrow as pa
        import pytest as _pytest
        import ray.data as rd

        from osmptparser_ray.stages.relational import unpivot

        t = pa.table(
            {
                "id": pa.array([1], pa.int64()),
                "a": pa.array([1], pa.int64()),
                "b": pa.array([2.0], pa.float64()),
            }
        )
        with _pytest.raises(Exception, match="mixed types"):
            unpivot(rd.from_arrow(t), ["id"], ["a", "b"]).to_pandas()
        ok = unpivot(
            rd.from_arrow(t), ["id"], ["a", "b"], value_type=pa.float64()
        ).to_pandas()
        assert sorted(ok.value) == [1.0, 2.0]
