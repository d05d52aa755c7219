"""Output checks, run outside the timed region.

Flagship outputs are checked per replica against a numpy brute force
computed from the run's own public-transport rows: replicas sit at least
55 km apart (``sources/pages.py`` ``_shift_element``), far beyond the
2 km kNN radius and any route hull, so every join pair stays inside one
replica. Relational outputs are checked against ``oracle_sql()`` through
DuckDB with the comparison of the repository's oracle gate,
``tools/check_oracles.py``. Each check returns a list of problems; an
empty list means the output is correct.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa

ID_STRIDE = 10**12  # replica id offset of the synthesized corpus
EARTH_RADIUS_M = 6_371_000.0  # the engine's haversine constant
KNN_K = 5
KNN_RADIUS_M = 2000.0
DIST_TOL_M = 1e-6


def _hull(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Strictly convex hull (collinear points dropped), counter-clockwise."""
    pts = sorted(set(zip(xs.tolist(), ys.tolist())))
    if len(pts) < 3:
        return np.array(pts, dtype=np.float64).reshape(-1, 2)

    def half(seq):
        chain = []
        for p in seq:
            while len(chain) >= 2:
                (ox, oy), (ax, ay) = chain[-2], chain[-1]
                if (ax - ox) * (p[1] - oy) - (ay - oy) * (p[0] - ox) > 0:
                    break
                chain.pop()
            chain.append(p)
        return chain[:-1]

    return np.array(half(pts) + half(pts[::-1]), dtype=np.float64)


def _inside(px: np.ndarray, py: np.ndarray, ring: np.ndarray) -> np.ndarray:
    """Even-odd crossing test; on-edge points follow the crossing rule."""
    x1, y1 = ring[:, 0], ring[:, 1]
    x2, y2 = np.roll(x1, -1), np.roll(y1, -1)
    cond = (y1[None, :] > py[:, None]) != (y2[None, :] > py[:, None])
    with np.errstate(divide="ignore", invalid="ignore"):
        xint = x1[None, :] + (py[:, None] - y1[None, :]) * (x2 - x1)[None, :] / (y2 - y1)[None, :]
    return ((cond & (px[:, None] < xint)).sum(axis=1) % 2).astype(bool)


def _haversine(lat1, lon1, lat2, lon2):
    p1, p2 = np.radians(lat1), np.radians(lat2)
    a = (
        np.sin((p2 - p1) / 2.0) ** 2
        + np.cos(p1) * np.cos(p2) * np.sin(np.radians(lon2 - lon1) / 2.0) ** 2
    )
    return EARTH_RADIUS_M * 2.0 * np.arctan2(np.sqrt(a), np.sqrt(1.0 - a))


def expected_spatial(pt: pa.Table) -> dict:
    """Brute-force stops, PIP pairs and kNN rows from public-transport rows."""
    stops: dict[int, tuple[float, float]] = {}
    hulls: list[tuple[int, np.ndarray]] = []
    for row in pt.select(["id", "stops", "geometry"]).to_pylist():
        pts = [(p["lon"], p["lat"]) for seg in row["geometry"] for p in seg]
        for s in row["stops"]:
            stops[s["id"]] = (s["lat"], s["lon"])
            pts.append((s["lon"], s["lat"]))
        ring = _hull(np.array([p[0] for p in pts]), np.array([p[1] for p in pts]))
        if len(ring) >= 3:
            hulls.append((row["id"], ring))
    ids = np.array(sorted(stops), dtype=np.int64)
    lat = np.array([stops[i][0] for i in ids])
    lon = np.array([stops[i][1] for i in ids])
    rep = ids // ID_STRIDE

    pip = set()
    for poly_id, ring in hulls:
        m = rep == poly_id // ID_STRIDE
        hit = _inside(lon[m], lat[m], ring)
        pip.update((int(s), poly_id) for s in ids[m][hit])

    knn = []
    for r in np.unique(rep):
        m = np.nonzero(rep == r)[0]
        d = _haversine(lat[m][:, None], lon[m][:, None], lat[m][None, :], lon[m][None, :])
        for qi, q in enumerate(m):
            near = [(d[qi, ti], int(ids[t])) for ti, t in enumerate(m) if d[qi, ti] <= KNN_RADIUS_M]
            for rank, (dist, nb) in enumerate(sorted(near)[:KNN_K], start=1):
                knn.append((int(ids[q]), nb, rank, float(dist)))
    return {"stop_ids": ids, "pip": pip, "knn": sorted(knn)}


def check_flagship(outputs: dict, replicas: int) -> list[str]:
    """``outputs``: Arrow tables for public_transports, pip, knn and tiles."""
    problems = []
    pt = outputs["public_transports"]
    status = pt["status_code"].to_numpy(zero_copy_only=False)
    if pt.num_rows != 2 * replicas:
        problems.append(f"public_transports rows {pt.num_rows} != {2 * replicas}")
    for code in (0, 501):
        if int((status == code).sum()) != replicas:
            problems.append(f"status {code}: {int((status == code).sum())} != {replicas}")
    exp = expected_spatial(pt)
    if len(exp["stop_ids"]) != 32 * replicas:
        problems.append(f"unique stops {len(exp['stop_ids'])} != {32 * replicas}")
    tiles = outputs["tiles"]["stop_id"].to_numpy(zero_copy_only=False)
    if tiles.size != 32 * replicas or not np.array_equal(np.sort(tiles), exp["stop_ids"]):
        problems.append(f"tiles: {tiles.size} rows, stop ids differ from the unique stops")

    pip = outputs["pip"]
    got_pip = list(zip(pip["point_id"].to_pylist(), pip["poly_id"].to_pylist()))
    if len(got_pip) != len(set(got_pip)) or set(got_pip) != exp["pip"]:
        problems.append(
            f"pip: {len(got_pip)} rows vs {len(exp['pip'])} brute-force pairs "
            f"({len(set(got_pip) ^ exp['pip'])} differ)"
        )

    knn = outputs["knn"]
    got = sorted(
        zip(
            knn["point_id"].to_pylist(), knn["neighbor_id"].to_pylist(),
            knn["rank"].to_pylist(), knn["dist_m"].to_pylist(),
        )
    )
    want = exp["knn"]
    if len(got) != len(want):
        problems.append(f"knn: {len(got)} rows vs {len(want)} brute-force rows")
    elif [g[:3] for g in got] != [w[:3] for w in want]:
        problems.append("knn: (point, neighbor, rank) rows differ from brute force")
    elif max((abs(g[3] - w[3]) for g, w in zip(got, want)), default=0.0) > DIST_TOL_M:
        problems.append("knn: dist_m differs from brute force")
    return problems


def spatial_digest(outputs: dict) -> tuple:
    """Exact, order-free content of the pip and knn outputs (plan parity)."""
    pip, knn = outputs["pip"], outputs["knn"]
    return (
        sorted(zip(pip["point_id"].to_pylist(), pip["poly_id"].to_pylist())),
        sorted(
            zip(
                knn["point_id"].to_pylist(), knn["neighbor_id"].to_pylist(),
                knn["rank"].to_pylist(), knn["dist_m"].to_pylist(),
            )
        ),
    )


def relational_oracles(tables_dir: str, names: list[str]) -> dict:
    """DuckDB results of ``oracle_sql()`` for ``names`` over ``tables_dir``,
    as pandas frames, the form ``tools/check_oracles.py`` compares."""
    import duckdb

    import __ray_entry__

    sql = __ray_entry__.oracle_sql()
    con = duckdb.connect()
    try:
        for f in sorted(os.listdir(tables_dir)):
            if f.endswith(".parquet"):
                path = os.path.join(tables_dir, f).replace("'", "''")
                con.execute(f"CREATE VIEW {f[:-8]} AS SELECT * FROM read_parquet('{path}')")
        return {n: con.sql(sql[n]).df() for n in names}
    finally:
        con.close()


def check_relational(name: str, got: pa.Table, oracle) -> list[str]:
    """The repository's oracle gate: columns, dtypes, rows and
    order-free values (``tools/check_oracles.py`` ``compare``)."""
    from tools.check_oracles import compare

    return [f"{name}: {p}" for p in compare(name, got.to_pandas(), oracle)]
