"""sessionize (the round-3 distributed prefix scan, VERDICT r2 #4) must
equal a plain pandas per-user oracle exactly — including hot users whose
history spans many blocks and sessions that straddle block boundaries."""

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data as rd

from osmptparser_ray.streams import sessionize


def _events(spec, seed=3, shuffle=True, max_gap_s=4000):
    rng = np.random.default_rng(seed)
    rows, eid = [], 0
    for u, n in spec:
        ts = np.cumsum(rng.integers(1, max_gap_s, n)) * 1_000_000
        for t in ts:
            rows.append((u, int(t), eid))
            eid += 1
    if shuffle:
        rng.shuffle(rows)
    return pa.table(
        {
            "user_id": pa.array([r[0] for r in rows], pa.int64()),
            "ts": pa.array([r[1] for r in rows], pa.timestamp("us")),
            "event_id": pa.array([r[2] for r in rows], pa.int64()),
        }
    )


def _canon(df):
    df = df.sort_values(["user_id", "session_id"]).reset_index(drop=True)
    return df[sorted(df.columns)]


def _oracle(t: pa.Table, gap_seconds: float) -> pd.DataFrame:
    """Sessions by plain pandas over all events at once: sort by
    (user, ts, event_id), start a session where the user changes or the
    gap exceeds ``gap_seconds``, then aggregate per (user, session)."""
    df = t.to_pandas()
    df["us"] = df["ts"].astype("int64")
    df = df.sort_values(["user_id", "us", "event_id"], kind="stable").reset_index(drop=True)
    new_user = df["user_id"].ne(df["user_id"].shift())
    new = new_user | (df["us"].diff() > gap_seconds * 1_000_000)
    df["session_id"] = new.astype(np.int64).groupby(df["user_id"]).cumsum()
    out = (
        df.groupby(["user_id", "session_id"])
        .agg(n_events=("us", "size"), start_us=("us", "min"), end_us=("us", "max"))
        .reset_index()
    )
    return _canon(out)


class TestSessionizeScan:
    def test_skewed_hot_user_parity(self, ray_session):
        """One user with 5000 events (history spans many of the 16 blocks)
        + 79 cold users: scan == the pandas oracle row for row."""
        spec = [(0, 5000)] + [(i, 3 + i % 25) for i in range(1, 80)]
        t = _events(spec)
        ev = rd.from_arrow(t).repartition(16)
        a = _oracle(t, 1800)
        b = _canon(sessionize(ev, gap_seconds=1800).to_pandas())
        assert a.equals(b)
        assert len(a) > 100

    def test_single_session_spanning_all_blocks(self, ray_session):
        """All events 1s apart (one giant session) for one user across many
        blocks: the boundary-merge chain must collapse to session_id 1."""
        n = 2000
        t = pa.table(
            {
                "user_id": pa.array([7] * n, pa.int64()),
                "ts": pa.array(
                    (np.arange(n, dtype=np.int64) * 1_000_000).tolist(),
                    pa.timestamp("us"),
                ),
                "event_id": pa.array(np.arange(n, dtype=np.int64), pa.int64()),
            }
        )
        ev = rd.from_arrow(t).repartition(12)
        out = sessionize(ev, gap_seconds=1800).take_all()
        assert len(out) == 1
        assert out[0]["session_id"] == 1 and out[0]["n_events"] == n


class TestDuplicateEventsAcrossBlocks:
    def test_duplicate_first_rows_no_collision(self, ray_session):
        """Thousands of IDENTICAL (user, ts, event_id) rows straddling many
        blocks give several blocks the same first row; the boundary chain
        must key by block ordinal, not first-row contents (ADVICE r3 #5).
        Ground truth: the pandas oracle."""
        dup = 6000
        rows = []
        # user 1: a real earlier session, then a mountain of duplicates
        rows.append((1, 0, 100))
        rows += [(1, 10_000 * 1_000_000, 7)] * dup
        # a second user so some duplicate-headed block is multi-user
        rows += [(2, int(t) * 1_000_000, 200 + i) for i, t in enumerate(range(50))]
        t = pa.table(
            {
                "user_id": pa.array([r[0] for r in rows], pa.int64()),
                "ts": pa.array([r[1] for r in rows], pa.timestamp("us")),
                "event_id": pa.array([r[2] for r in rows], pa.int64()),
            }
        )
        ev = rd.from_arrow(t).repartition(16)
        a = _oracle(t, 1800)
        b = _canon(sessionize(ev, gap_seconds=1800).to_pandas())
        assert a.equals(b)
        # user 1: session 1 (the lone early event) + session 2 (the dups)
        u1 = a[a.user_id == 1].sort_values("session_id")
        assert list(u1.n_events) == [1, dup]
