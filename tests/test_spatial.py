"""Spatial layer tests: cell index properties + PIP/kNN vs brute-force
oracles (FIXTURES.md §5) + hot-cell spreading equivalence."""

import numpy as np
import pytest

from osmptparser_ray.kernel.geometry import haversine_m, haversine_m_vec
from osmptparser_ray.spatial import (
    cell_bounds,
    cell_children,
    cell_level,
    cell_neighbors,
    cell_parent,
    cell_xy,
    choose_level_for_radius,
    convex_hull,
    cover_bbox,
    encode_cell,
    points_in_ring,
)

rng = np.random.default_rng(42)


class TestCellIndex:
    def test_roundtrip_xy(self):
        lats = rng.uniform(-90, 90, 10_000)
        lons = rng.uniform(-180, 180, 10_000)
        for level in (0, 5, 12, 29):
            cells = encode_cell(lats, lons, level)
            assert (cell_level(cells) == level).all()
            x, y = cell_xy(cells)
            n = 1 << level
            assert (x >= 0).all() and (x < n).all()
            assert (y >= 0).all() and (y < n).all()

    def test_point_inside_own_cell_bounds(self):
        lats = rng.uniform(-89.9, 89.9, 1000)
        lons = rng.uniform(-179.9, 179.9, 1000)
        cells = encode_cell(lats, lons, 12)
        min_lon, min_lat, max_lon, max_lat = cell_bounds(cells)
        assert (lons >= min_lon).all() and (lons <= max_lon).all()
        assert (lats >= min_lat).all() and (lats <= max_lat).all()

    def test_parent_contains_child(self):
        lats = rng.uniform(-89, 89, 500)
        lons = rng.uniform(-179, 179, 500)
        fine = encode_cell(lats, lons, 15)
        coarse = encode_cell(lats, lons, 10)
        assert (cell_parent(fine, 5) == coarse).all()

    def test_children_partition_parent(self):
        c = encode_cell([10.0], [20.0], 8)[0]
        kids = cell_children(c)
        assert len(set(kids.tolist())) == 4
        assert (cell_parent(kids) == c).all()

    def test_neighbors_are_adjacent(self):
        cells = encode_cell([0.5], [0.5], 10)
        neigh = cell_neighbors(cells)[0]
        assert len(set(neigh.tolist())) == 9
        x0, y0 = cell_xy(cells)
        for c in neigh:
            x, y = cell_xy(np.array([c]))
            assert abs(int(x[0]) - int(x0[0])) <= 1
            assert abs(int(y[0]) - int(y0[0])) <= 1

    def test_lon_wrap(self):
        c = encode_cell([0.0], [-179.99], 8)
        neigh = set(cell_neighbors(c)[0].tolist())
        east = encode_cell([0.0], [179.99], 8)[0]
        assert int(east) in neigh

    def test_cover_bbox_contains_points(self):
        cover = set(cover_bbox(-79.99, -2.3, -79.9, -2.1, 12).tolist())
        pts_lat = rng.uniform(-2.3, -2.1, 200)
        pts_lon = rng.uniform(-79.99, -79.9, 200)
        cells = encode_cell(pts_lat, pts_lon, 12)
        assert set(cells.tolist()) <= cover

    def test_choose_level_for_radius(self):
        lvl = choose_level_for_radius(2000.0)
        cell_h_m = 180.0 / (1 << lvl) * 111_195.0
        assert cell_h_m >= 2000.0
        assert 180.0 / (1 << (lvl + 1)) * 111_195.0 < 2000.0


class TestPipKernel:
    SQUARE = (np.array([0.0, 0.0, 1.0, 1.0]), np.array([0.0, 1.0, 1.0, 0.0]))  # lats, lons

    def test_square(self):
        lats = np.array([0.5, 1.5, -0.1, 0.5])
        lons = np.array([0.5, 0.5, 0.5, 1.5])
        got = points_in_ring(lats, lons, *self.SQUARE)
        assert got.tolist() == [True, False, False, False]

    def test_closed_ring_equivalent(self):
        ry = np.append(self.SQUARE[0], 0.0)
        rx = np.append(self.SQUARE[1], 0.0)
        lats = rng.uniform(-0.5, 1.5, 500)
        lons = rng.uniform(-0.5, 1.5, 500)
        a = points_in_ring(lats, lons, *self.SQUARE)
        b = points_in_ring(lats, lons, ry, rx)
        assert (a == b).all()

    def test_concave_polygon(self):
        # L-shape: unit square minus the top-LEFT quadrant (lat>0.5, lon<0.5)
        ry = np.array([0.0, 0.0, 1.0, 1.0, 0.5, 0.5])
        rx = np.array([0.0, 1.0, 1.0, 0.5, 0.5, 0.0])
        assert points_in_ring([0.25], [0.25], ry, rx)[0]
        assert points_in_ring([0.75], [0.75], ry, rx)[0]
        assert points_in_ring([0.25], [0.75], ry, rx)[0]
        assert not points_in_ring([0.75], [0.25], ry, rx)[0]

    def test_convex_hull_square(self):
        lats = np.array([0.0, 0.0, 1.0, 1.0, 0.5])
        lons = np.array([0.0, 1.0, 0.0, 1.0, 0.5])
        hy, hx = convex_hull(lats, lons)
        assert len(hy) == 4  # center point excluded


@pytest.fixture(scope="module")
def stops_polys():
    """FIXTURES.md §5: grid points + one dense mega-cell cluster; square
    polygons incl. points on edges/vertices."""
    lats = np.concatenate(
        [
            rng.uniform(-3.0, -1.0, 400),  # spread
            rng.normal(-2.15, 0.001, 600),  # mega-cell cluster (Guayaquil-ish)
        ]
    )
    lons = np.concatenate([rng.uniform(-80.5, -78.5, 400), rng.normal(-79.93, 0.001, 600)])
    ids = np.arange(len(lats), dtype=np.int64)
    polys = []
    for i, (clat, clon, r) in enumerate(
        [(-2.15, -79.93, 0.01), (-2.0, -79.5, 0.3), (-2.5, -80.0, 0.05), (-1.2, -78.8, 0.2)]
    ):
        polys.append(
            {
                "poly_id": i,
                "ring_lats": [clat - r, clat - r, clat + r, clat + r],
                "ring_lons": [clon - r, clon + r, clon + r, clon - r],
            }
        )
    return ids, lats, lons, polys


class TestPipJoin:
    def _oracle(self, ids, lats, lons, polys):
        pairs = set()
        for p in polys:
            hit = points_in_ring(lats, lons, p["ring_lats"], p["ring_lons"])
            for pid in ids[hit]:
                pairs.add((int(pid), p["poly_id"]))
        return pairs

    def test_matches_oracle(self, ray_session, stops_polys):
        import ray.data as rd
        from osmptparser_ray.spatial import pip_join

        ids, lats, lons, polys = stops_polys
        points = rd.from_arrow(
            __import__("pyarrow").table(
                {"point_id": ids, "lat": lats, "lon": lons}
            )
        )
        polys_ds = rd.from_items(polys)
        out = pip_join(points, polys_ds, level=10)
        got = {(r["point_id"], r["poly_id"]) for r in out.take_all()}
        assert got == self._oracle(ids, lats, lons, polys)


class TestKnnJoin:
    def _oracle(self, qids, qlat, qlon, tids, tlat, tlon, k, radius):
        out = {}
        for i, qi in enumerate(qids):
            d = haversine_m_vec(qlat[i], qlon[i], tlat, tlon)
            order = np.argsort(d, kind="stable")
            near = [(int(tids[j]), float(d[j])) for j in order if d[j] <= radius][:k]
            out[int(qi)] = near
        return out

    def test_matches_oracle(self, ray_session):
        import pyarrow as pa
        import ray.data as rd
        from osmptparser_ray.spatial import knn_join

        qlat = rng.uniform(-2.3, -2.0, 50)
        qlon = rng.uniform(-80.1, -79.8, 50)
        qids = np.arange(50, dtype=np.int64)
        tlat = rng.uniform(-2.3, -2.0, 300)
        tlon = rng.uniform(-80.1, -79.8, 300)
        tids = np.arange(1000, 1300, dtype=np.int64)
        q = rd.from_arrow(pa.table({"point_id": qids, "lat": qlat, "lon": qlon}))
        t = rd.from_arrow(pa.table({"target_id": tids, "lat": tlat, "lon": tlon}))
        out = knn_join(q, t, k=3, radius_m=2000.0)
        got: dict = {}
        for r in out.take_all():
            got.setdefault(r["point_id"], []).append((r["rank"], r["neighbor_id"], r["dist_m"]))
        oracle = self._oracle(qids, qlat, qlon, tids, tlat, tlon, 3, 2000.0)
        for qi in qids:
            mine = sorted(got.get(int(qi), []))
            want = oracle[int(qi)]
            assert [m[1] for m in mine] == [w[0] for w in want], f"query {qi}"
            for m, w in zip(mine, want):
                assert m[2] == pytest.approx(w[1])


class TestRasterVectorJoin:
    def test_route_tiles(self, ray_session):
        import pyarrow as pa
        import ray.data as rd
        from osmptparser_ray.spatial import raster_vector_join
        from osmptparser_ray.spatial.cell import cover_bbox

        # one diagonal route across a few cells
        seg = [{"lon": -79.95 + i * 0.01, "lat": -2.2 + i * 0.01} for i in range(6)]
        routes = rd.from_items([{"id": 7, "geometry": [seg]}])
        level = 12
        tiles_cells = cover_bbox(-80.0, -2.3, -79.8, -2.1, level)
        tiles = rd.from_arrow(pa.table({"cell": pa.array(tiles_cells, pa.uint64())}))
        out = raster_vector_join(tiles, routes, level)
        rows = out.take_all()
        assert len(rows) > 0
        assert all(r["route_id"] == 7 for r in rows)
        # every cell containing a vertex must be present
        from osmptparser_ray.spatial import encode_cell

        vcells = set(
            encode_cell([p["lat"] for p in seg], [p["lon"] for p in seg], level).tolist()
        )
        got = {r["cell"] for r in rows}
        assert vcells <= got


class TestBroadcastParity:
    """Broadcast (small-side) spatial joins must equal the shuffle plans."""

    def test_knn_broadcast_equals_cell_shuffle(self, ray_session):
        import pyarrow as pa
        import ray.data as rd
        from osmptparser_ray.spatial import knn_join, knn_join_broadcast

        r = np.random.default_rng(5)
        q = rd.from_arrow(pa.table({
            "point_id": np.arange(120, dtype=np.int64),
            "lat": r.uniform(-2.3, -2.0, 120), "lon": r.uniform(-80.1, -79.8, 120)}))
        t = rd.from_arrow(pa.table({
            "target_id": np.arange(1000, 1300, dtype=np.int64),
            "lat": r.uniform(-2.3, -2.0, 300), "lon": r.uniform(-80.1, -79.8, 300)}))
        a = sorted((x["point_id"], x["rank"], x["neighbor_id"])
                   for x in knn_join(q, t, k=3, radius_m=2000.0).take_all())
        b = sorted((x["point_id"], x["rank"], x["neighbor_id"])
                   for x in knn_join_broadcast(q, t, k=3, radius_m=2000.0).take_all())
        assert a == b and len(a) > 0

    def test_knn_parity_at_polar_clamp(self, ray_session):
        """cell_neighbors clamps at the latitude boundary by repeating the
        center cell; the shuffle plan dedups those replicas per target —
        a duplicated (query, target) candidate pair would otherwise fill
        two top-k slots and diverge from the broadcast plan."""
        import pyarrow as pa
        import ray.data as rd
        from osmptparser_ray.spatial import knn_join, knn_join_broadcast

        r = np.random.default_rng(9)
        q = rd.from_arrow(pa.table({
            "point_id": np.arange(30, dtype=np.int64),
            "lat": r.uniform(-89.9999, -89.995, 30), "lon": r.uniform(-1.0, 1.0, 30)}))
        t = rd.from_arrow(pa.table({
            "target_id": np.arange(500, 560, dtype=np.int64),
            "lat": r.uniform(-89.9999, -89.995, 60), "lon": r.uniform(-1.0, 1.0, 60)}))
        a = sorted((x["point_id"], x["rank"], x["neighbor_id"])
                   for x in knn_join(q, t, k=4, radius_m=2000.0).take_all())
        b = sorted((x["point_id"], x["rank"], x["neighbor_id"])
                   for x in knn_join_broadcast(q, t, k=4, radius_m=2000.0).take_all())
        assert a == b and len(a) > 0

    def test_pip_broadcast_equals_join(self, ray_session, stops_polys):
        import pyarrow as pa
        import ray.data as rd
        from osmptparser_ray.spatial import pip_join, pip_join_broadcast

        ids, lats, lons, polys = stops_polys
        points = rd.from_arrow(pa.table({"point_id": ids, "lat": lats, "lon": lons}))
        polys_ds = rd.from_items(polys)
        a = {(r["point_id"], r["poly_id"]) for r in pip_join(points, polys_ds, level=10).take_all()}
        b = {(r["point_id"], r["poly_id"]) for r in pip_join_broadcast(points, polys_ds).take_all()}
        assert a == b and len(a) > 0

    @pytest.mark.parametrize("layout", ["one_block", "one_row_blocks", "empty_block", "hot_cell"])
    def test_sort_plans_layout_invariant(self, ray_session, stops_polys, layout):
        """pip_join and knn_join equal the broadcast plans whatever
        the block layout of the points: one block, 1-row blocks, an
        injected columnless empty block, or every point in one hot cell."""
        import pyarrow as pa
        import ray
        import ray.data as rd
        from osmptparser_ray.spatial import (
            choose_level_for_radius, encode_cell, knn_join, knn_join_broadcast, pip_join,
            pip_join_broadcast,
        )

        ids, lats, lons, polys = stops_polys
        sel = np.r_[0:60, 400:460]  # spread points and mega-cell cluster points
        ids, lats, lons = ids[sel], lats[sel], lons[sel]
        if layout == "hot_cell":
            r = np.random.default_rng(23)
            lats = -2.15 + r.uniform(0.0, 0.002, len(sel))
            lons = -79.93 + r.uniform(0.0, 0.002, len(sel))
            for level in (10, choose_level_for_radius(2000.0)):
                assert len(np.unique(encode_cell(lats, lons, level))) == 1
        pts = pa.table({"point_id": ids, "lat": lats, "lon": lons})
        blocks = {
            "one_row_blocks": [pts.slice(i, 1) for i in range(pts.num_rows)],
            # a columnless zero-row table, the shape of Ray's empty blocks
            "empty_block": [pts.slice(0, 2), pa.table({}), pts.slice(2)],
        }.get(layout, [pts])
        polys_ds = rd.from_items(polys)
        targets = rd.from_arrow(pts.rename_columns(["target_id", "lat", "lon"]))

        def rows(ds):
            # block-wise concat: fails if any output block lacks the schema
            return pa.concat_tables(ray.get(ds.to_arrow_refs())).to_pylist()

        def pip_set(ds):
            return {(r["point_id"], r["poly_id"]) for r in rows(ds)}

        def knn_set(ds):
            return {(r["point_id"], r["rank"], r["neighbor_id"], r["dist_m"]) for r in rows(ds)}

        pip_b = pip_set(pip_join_broadcast(rd.from_arrow(pts), polys_ds))
        knn_b = knn_set(knn_join_broadcast(rd.from_arrow(pts), targets, k=4))
        assert pip_set(pip_join(rd.from_arrow(blocks), polys_ds, level=10)) == pip_b
        assert knn_set(knn_join(rd.from_arrow(blocks), targets, k=4)) == knn_b
        assert pip_b and knn_b


class TestHotCell:
    """One cell holds 55% of the points, and ``target_min_block_size`` is
    256 bytes, so that every cell join regroups at P > 1 and the hot cell
    takes several of the boundary sample's quantile picks: the
    partitioner's skew rule spreads it, and every join still equals its
    broadcast or brute-force result."""

    @pytest.fixture
    def hot_points(self, ray_session, block_size):
        import pyarrow as pa
        import ray.data as rd

        r = np.random.default_rng(31)
        lats = np.r_[r.uniform(-3.0, -1.0, 400), -2.15 + r.uniform(0.0, 0.002, 500)]
        lons = np.r_[r.uniform(-80.5, -78.5, 400), -79.93 + r.uniform(0.0, 0.002, 500)]
        for level in (10, choose_level_for_radius(2000.0)):
            assert np.unique(encode_cell(lats[400:], lons[400:], level)).size == 1
        t = pa.table({"point_id": np.arange(900, dtype=np.int64), "lat": lats, "lon": lons})
        block_size(256)
        return rd.from_arrow([t.slice(i, 100) for i in range(0, 900, 100)]), t

    def test_pip_spreads_and_matches_broadcast(self, hot_points, stops_polys, spread_keys):
        import ray.data as rd

        from osmptparser_ray.spatial import pip_join, pip_join_broadcast

        pts, _ = hot_points
        polys = rd.from_items(stops_polys[3])
        got = sorted((r["point_id"], r["poly_id"]) for r in pip_join(pts, polys, level=10).take_all())
        want = sorted((r["point_id"], r["poly_id"]) for r in pip_join_broadcast(pts, polys).take_all())
        assert got == want and len(got) > 500
        assert len(spread_keys) == 1 and spread_keys[0] > 0, spread_keys

    def test_pip_polygon_side_spreads(self, ray_session, block_size, spread_keys):
        """A cell C holding 285 polygon rows and 60 points, all points
        inside all polygons: the polygon side spreads C, so C's points are
        copied into each of C's ranges. 5 of the polygons also cover C's
        neighbour cells, which hold no other rows, so their rows share the
        last of C's ranges with C's points. Each pair still appears once."""
        import pyarrow as pa
        import ray.data as rd

        from osmptparser_ray.spatial import cell_bounds, pip_join, pip_join_broadcast

        r = np.random.default_rng(37)
        x0, y0, x1, y1 = (float(v[0]) for v in cell_bounds(encode_cell([-2.15], [-79.93], 10)))
        w, h = x1 - x0, y1 - y0
        lats = np.r_[r.uniform(-3.0, -2.4, 400), y0 + h * r.uniform(0.45, 0.55, 60)]
        lons = np.r_[r.uniform(-80.5, -78.5, 400), x0 + w * r.uniform(0.45, 0.55, 60)]

        def square(i, cx, cy, rx, ry):
            return {"poly_id": i, "ring_lats": [cy - ry, cy - ry, cy + ry, cy + ry],
                    "ring_lons": [cx - rx, cx + rx, cx + rx, cx - rx]}

        cx, cy = x0 + w / 2, y0 + h / 2
        polys = rd.from_items(
            [square(i, cx, cy, w * r.uniform(0.1, 0.45), h * r.uniform(0.1, 0.45)) for i in range(280)]
            + [square(280 + i, cx, cy, w * 1.2, h * 1.2) for i in range(5)]
        )
        t = pa.table({"point_id": np.arange(460, dtype=np.int64), "lat": lats, "lon": lons})
        pts = rd.from_arrow([t.slice(i, 46) for i in range(0, 460, 46)])
        block_size(256)
        got = sorted((r["point_id"], r["poly_id"]) for r in pip_join(pts, polys, level=10).take_all())
        want = sorted((r["point_id"], r["poly_id"]) for r in pip_join_broadcast(pts, polys).take_all())
        assert got == want and len(got) >= 60 * 285
        assert len(spread_keys) == 1 and spread_keys[0] > 0, spread_keys

    def test_pip_ranges_are_balanced(self, hot_points, stops_polys, monkeypatch):
        """pip's probe swapped for one that returns its rows in: the
        largest range input is at most twice the mean; without the skew
        rule the hot cell's range alone holds over half the points."""
        import pyarrow as pa
        import ray.data as rd

        from osmptparser_ray.spatial import join

        def counts(points, rings):
            return pa.table({"n": [points.num_rows + rings.num_rows]})

        monkeypatch.setattr(join, "_pip_cosort_probe", counts)
        pts, _ = hot_points
        n = np.array(join.pip_join(pts, rd.from_items(stops_polys[3]), level=10).to_pandas()["n"])
        assert len(n) > 4 and n.max() <= 2 * n.mean(), n.tolist()

    def test_knn_and_distance_match(self, hot_points, spread_keys):
        from osmptparser_ray.spatial import distance_join, knn_join, knn_join_broadcast

        pts, t = hot_points
        got = {(r["point_id"], r["rank"], r["neighbor_id"], r["dist_m"])
               for r in knn_join(pts, pts, k=4, target_id="point_id").take_all()}
        want = {(r["point_id"], r["rank"], r["neighbor_id"], r["dist_m"])
                for r in knn_join_broadcast(pts, pts, k=4, target_id="point_id").take_all()}
        assert got == want and len(got) > 4 * 500

        out = distance_join(pts, pts, 500.0, target_id="point_id", exclude_same_id=True).take_all()
        got = {(r["point_id"], r["neighbor_id"]) for r in out}
        lats, lons = t["lat"].to_numpy(), t["lon"].to_numpy()
        want = {(i, int(j)) for i in range(900)
                for j in np.flatnonzero(haversine_m_vec(lats[i], lons[i], lats, lons) <= 500.0) if j != i}
        assert len(out) == len(got) and got == want
        assert spread_keys[-1] > 0, spread_keys  # distance spreads target copies too


class TestCellDensitySmoothed:
    def test_edge_row_aliasing(self, ray_session):
        """Off-grid neighbor rows (y=-1 / y=2^level) alias under the
        key = x*2^level + y encoding to real cells at (x-1, 2^level-1) /
        (x+1, 0); the attach stage must mask them out, not emit spurious
        off-grid rows carrying the aliased cell's count (ADVICE r3 #2)."""
        import pyarrow as pa
        import ray.data as rd
        from osmptparser_ray.spatial.join import cell_density_smoothed

        level = 4  # 16x16 grid
        # bottom-row cell (8, 0) and top-row cell (7, 15): (8, -1) aliases
        # exactly to (7, 15) under the unmasked key encoding.
        pts = rd.from_arrow(pa.table({
            "lat": pa.array([-85.0, -85.0, 85.0], pa.float64()),
            "lon": pa.array([5.0, 5.0, -5.0], pa.float64()),
        }))
        rows = cell_density_smoothed(pts, level).take_all()
        got = {(r["cell_x"], r["cell_y"]): (r["n"], r["n_smoothed"]) for r in rows}
        assert all(0 <= x < 16 and 0 <= y < 16 for x, y in got), got
        # exactly the two non-empty cells; windows don't overlap in-grid
        assert got == {(8, 0): (2, 2), (7, 15): (1, 1)}


class TestPolyRowsVectorized:
    """_poly_rows (pip_join shuffle plan) round-4 vectorization: parity
    against the scalar cover_bbox/pack_ring semantics it replaced,
    including empty rings and a sliced (non-zero-offset) batch."""

    @staticmethod
    def _scalar_reference(batch, level):
        from osmptparser_ray.spatial.cell import cover_bbox
        from osmptparser_ray.spatial.pip import pack_ring, ring_bbox

        rows = set()
        for pid, la, lo in zip(
            batch["gid"].to_pylist(),
            batch["ring_lat"].to_pylist(),
            batch["ring_lon"].to_pylist(),
        ):
            if not la:
                continue
            blob = pack_ring(la, lo)
            cover = cover_bbox(*ring_bbox(la, lo), level)
            for c in cover:
                rows.add((int(c), pid, blob))
        return rows

    def _got(self, batch, level):
        from osmptparser_ray.spatial.join import _poly_rows

        out = _poly_rows(batch, level=level, id_col="gid", ring_lat_col="ring_lat", ring_lon_col="ring_lon")
        return {
            (int(c), g, b)
            for c, g, b in zip(out["cell"].to_pylist(), out["id"].to_pylist(), out["blob"].to_pylist())
        }

    def _mk_batch(self):
        import numpy as np
        import pyarrow as pa

        rng = np.random.default_rng(11)
        rings_lat, rings_lon, gids = [], [], []
        for i in range(40):
            if i % 7 == 3:  # empty ring interleaved
                rings_lat.append([])
                rings_lon.append([])
            else:
                m = int(rng.integers(3, 12))
                c_lat, c_lon = rng.uniform(-60, 60), rng.uniform(-170, 170)
                ext = rng.uniform(0.01, 3.0)
                rings_lat.append((c_lat + rng.uniform(-ext, ext, m)).tolist())
                rings_lon.append((c_lon + rng.uniform(-ext, ext, m)).tolist())
            gids.append(i)
        return pa.table({
            "gid": pa.array(gids, pa.int64()),
            "ring_lat": pa.array(rings_lat, pa.list_(pa.float64())),
            "ring_lon": pa.array(rings_lon, pa.list_(pa.float64())),
        })

    def test_parity_with_scalar_cover(self):
        batch = self._mk_batch()
        for level in (6, 9):
            got = self._got(batch, level)
            want = self._scalar_reference(batch, level)
            assert got == want and len(got) > 0

    def test_sliced_batch(self):
        batch = self._mk_batch().slice(13, 19)
        got = self._got(batch, 8)
        want = self._scalar_reference(batch, 8)
        assert got == want and len(got) > 0

    def test_all_empty_rings(self):
        import pyarrow as pa

        batch = pa.table({
            "gid": pa.array([1, 2], pa.int64()),
            "ring_lat": pa.array([[], []], pa.list_(pa.float64())),
            "ring_lon": pa.array([[], []], pa.list_(pa.float64())),
        })
        assert len(self._got(batch, 8)) == 0


class TestDistanceJoin:
    def test_haversine_matches_brute_force(self, ray_session):
        import pyarrow as pa
        import ray.data as rd

        from osmptparser_ray.spatial import distance_join

        qlat = rng.uniform(-2.3, -2.0, 60)
        qlon = rng.uniform(-80.1, -79.8, 60)
        qids = np.arange(60, dtype=np.int64)
        tlat = rng.uniform(-2.3, -2.0, 200)
        tlon = rng.uniform(-80.1, -79.8, 200)
        tids = np.arange(1000, 1200, dtype=np.int64)
        q = rd.from_arrow(pa.table({"point_id": qids, "lat": qlat, "lon": qlon}))
        t = rd.from_arrow(pa.table({"target_id": tids, "lat": tlat, "lon": tlon}))
        out = distance_join(q, t, 1500.0).to_pandas()
        got = set(zip(out["point_id"], out["neighbor_id"]))
        want = set()
        for i, qi in enumerate(qids):
            d = haversine_m_vec(qlat[i], qlon[i], tlat, tlon)
            for j in np.flatnonzero(d <= 1500.0):
                want.add((int(qi), int(tids[j])))
        assert got == want
        # distances returned match the kernel haversine
        for r in out.itertuples():
            i = int(r.point_id)
            j = int(r.neighbor_id) - 1000
            assert r.dist == pytest.approx(
                haversine_m(qlat[i], qlon[i], tlat[j], tlon[j])
            )

    def test_self_join_excludes_self(self, ray_session):
        import pyarrow as pa
        import ray.data as rd

        from osmptparser_ray.spatial import distance_join

        lat = rng.uniform(-2.3, -2.0, 80)
        lon = rng.uniform(-80.1, -79.8, 80)
        ids = np.arange(80, dtype=np.int64)
        a = rd.from_arrow(pa.table({"point_id": ids, "lat": lat, "lon": lon}))
        b = rd.from_arrow(pa.table({"point_id": ids, "lat": lat, "lon": lon}))
        out = distance_join(
            a, b, 3000.0, target_id="point_id", exclude_same_id=True
        ).to_pandas()
        assert (out["point_id"] != out["neighbor_id"]).all()
        # symmetric: (a,b) present iff (b,a) present
        got = set(zip(out["point_id"], out["neighbor_id"]))
        assert got == {(b_, a_) for a_, b_ in got}

    def test_planar_metric_brute_force(self, ray_session):
        import pyarrow as pa
        import ray.data as rd

        from osmptparser_ray.spatial import distance_join

        lat = rng.uniform(-3.0, -1.0, 100)
        lon = rng.uniform(-80.5, -78.5, 100)
        ids = np.arange(100, dtype=np.int64)
        a = rd.from_arrow(pa.table({"point_id": ids, "lat": lat, "lon": lon}))
        b = rd.from_arrow(pa.table({"point_id": ids, "lat": lat, "lon": lon}))
        r = 0.125
        out = distance_join(
            a, b, r, metric="planar_deg", target_id="point_id", exclude_same_id=True
        ).to_pandas()
        got = set(zip(out["point_id"], out["neighbor_id"]))
        want = set()
        for i in range(100):
            d2 = (lat[i] - lat) ** 2 + (lon[i] - lon) ** 2
            for j in np.flatnonzero(d2 <= r * r):
                if j != i:
                    want.add((int(ids[i]), int(ids[j])))
        assert got == want

    def test_bad_metric(self, ray_session):
        import pyarrow as pa
        import ray.data as rd

        from osmptparser_ray.spatial import distance_join

        ds = rd.from_arrow(
            pa.table({"point_id": [1], "lat": [0.0], "lon": [0.0]})
        )
        with pytest.raises(ValueError):
            distance_join(ds, ds, 1.0, metric="euclid")


class TestPolygonArea:
    def test_known_shapes(self, ray_session):
        import pyarrow as pa
        import ray.data as rd

        from osmptparser_ray.spatial import polygon_area

        ds = rd.from_arrow(
            pa.table(
                {
                    "poly_id": pa.array([1, 2, 3, 4, 5], pa.int64()),
                    "ring_lats": pa.array(
                        [[0, 0, 1, 1], [0, 1, 1, 0], [0, 0, 2, 2, 1, 1], [0], []],
                        pa.list_(pa.float64()),
                    ),
                    "ring_lons": pa.array(
                        [[0, 1, 1, 0], [0, 0, 1, 1], [0, 2, 2, 1, 1, 0], [5], []],
                        pa.list_(pa.float64()),
                    ),
                }
            )
        ).repartition(2)
        out = (
            polygon_area(ds)
            .to_pandas()
            .sort_values("poly_id")
            .reset_index(drop=True)
        )
        # CCW unit square +1, CW square -1, L-shape +3, degenerate 0, empty 0
        assert out["area"].tolist() == [1.0, -1.0, 3.0, 0.0, 0.0]

    def test_closing_vertex_optional(self, ray_session):
        import pyarrow as pa
        import ray.data as rd

        from osmptparser_ray.spatial import polygon_area

        open_ring = [[0, 0, 2, 2]], [[0, 2, 2, 0]]
        closed_ring = [[0, 0, 2, 2, 0]], [[0, 2, 2, 0, 0]]
        for lats, lons in (open_ring, closed_ring):
            ds = rd.from_arrow(
                pa.table(
                    {
                        "poly_id": pa.array([1], pa.int64()),
                        "ring_lats": pa.array(lats, pa.list_(pa.float64())),
                        "ring_lons": pa.array(lons, pa.list_(pa.float64())),
                    }
                )
            )
            out = polygon_area(ds).take_all()
            assert out[0]["area"] == 4.0


class TestPolylineLength:
    def test_planar_and_perimeter(self, ray_session):
        import pyarrow as pa
        import ray.data as rd

        from osmptparser_ray.spatial import polyline_length

        # 3-4-5 right triangle: open legs 3+4=7; closed perimeter 12
        ds = rd.from_arrow(
            pa.table(
                {
                    "poly_id": pa.array([1], pa.int64()),
                    "ring_lats": pa.array([[0, 0, 3]], pa.list_(pa.float64())),
                    "ring_lons": pa.array([[0, 4, 4]], pa.list_(pa.float64())),
                }
            )
        )
        open_len = polyline_length(ds, metric="planar_deg").take_all()[0]["length"]
        closed_len = polyline_length(ds, metric="planar_deg", closed=True).take_all()[
            0
        ]["length"]
        assert open_len == 7.0 and closed_len == 12.0

    def test_haversine_matches_kernel(self, ray_session):
        import pyarrow as pa
        import ray.data as rd

        from osmptparser_ray.spatial import polyline_length

        lats = [-2.1, -2.15, -2.2]
        lons = [-79.9, -79.95, -79.9]
        ds = rd.from_arrow(
            pa.table(
                {
                    "poly_id": pa.array([1], pa.int64()),
                    "ring_lats": pa.array([lats], pa.list_(pa.float64())),
                    "ring_lons": pa.array([lons], pa.list_(pa.float64())),
                }
            )
        )
        got = polyline_length(ds, metric="haversine").take_all()[0]["length"]
        want = sum(
            haversine_m(lats[i], lons[i], lats[i + 1], lons[i + 1]) for i in range(2)
        )
        assert got == pytest.approx(want)

    def test_degenerate(self, ray_session):
        import pyarrow as pa
        import ray.data as rd

        from osmptparser_ray.spatial import polyline_length

        ds = rd.from_arrow(
            pa.table(
                {
                    "poly_id": pa.array([1, 2], pa.int64()),
                    "ring_lats": pa.array([[5.0], []], pa.list_(pa.float64())),
                    "ring_lons": pa.array([[5.0], []], pa.list_(pa.float64())),
                }
            )
        )
        out = {r["poly_id"]: r["length"] for r in polyline_length(ds).take_all()}
        assert out == {1: 0.0, 2: 0.0}


class TestPolygonCentroid:
    def test_known_shapes(self, ray_session):
        import pyarrow as pa
        import ray.data as rd

        from osmptparser_ray.spatial import polygon_centroid

        ds = rd.from_arrow(
            pa.table(
                {
                    "poly_id": pa.array([1, 2, 3, 4], pa.int64()),
                    # unit square; CW square (orientation-invariant);
                    # degenerate segment (vertex mean); empty (null)
                    "ring_lats": pa.array(
                        [[0, 0, 1, 1], [0, 1, 1, 0], [0, 2], []],
                        pa.list_(pa.float64()),
                    ),
                    "ring_lons": pa.array(
                        [[0, 1, 1, 0], [0, 0, 1, 1], [0, 2], []],
                        pa.list_(pa.float64()),
                    ),
                }
            )
        ).repartition(2)
        out = (
            polygon_centroid(ds)
            .to_pandas()
            .sort_values("poly_id")
            .reset_index(drop=True)
        )
        assert out.loc[0, "centroid_lon"] == 0.5 and out.loc[0, "centroid_lat"] == 0.5
        assert out.loc[1, "centroid_lon"] == 0.5 and out.loc[1, "centroid_lat"] == 0.5
        assert out.loc[2, "centroid_lon"] == 1.0 and out.loc[2, "centroid_lat"] == 1.0
        assert np.isnan(out.loc[3, "centroid_lon"])

    def test_l_shape_area_weighting(self, ray_session):
        import pyarrow as pa
        import ray.data as rd

        from osmptparser_ray.spatial import polygon_centroid

        # L = [0,2]x[0,1] (area 2, c=(1,0.5)) + [1,2]x[1,2] (area 1, c=(1.5,1.5))
        ds = rd.from_arrow(
            pa.table(
                {
                    "poly_id": pa.array([1], pa.int64()),
                    "ring_lats": pa.array([[0, 0, 2, 2, 1, 1]], pa.list_(pa.float64())),
                    "ring_lons": pa.array([[0, 2, 2, 1, 1, 0]], pa.list_(pa.float64())),
                }
            )
        )
        r = polygon_centroid(ds).take_all()[0]
        assert r["centroid_lon"] == pytest.approx((2 * 1 + 1 * 1.5) / 3)
        assert r["centroid_lat"] == pytest.approx((2 * 0.5 + 1 * 1.5) / 3)
