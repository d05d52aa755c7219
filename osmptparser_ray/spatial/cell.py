"""Hierarchical spatial cell index — quadkey/Morton grid, from scratch.

Brand-new engine surface (SURVEY.md §7.1 step 5; north_rule "H3/S2 index …
implemented from scratch"): a deterministic quadtree over the equirectangular
lon/lat plane. No external geo libraries.

Cell id layout (uint64):
    bits [0..5)   level L (0..=MAX_LEVEL)
    bits [5..5+2L) Morton-interleaved (x, y) cell coordinates at level L,
                   x = floor((lon+180)/360 * 2^L), y = floor((lat+90)/180 * 2^L)

Properties:
* ``encode_cell`` is fully vectorized (numpy bit ops) — suitable for
  ``map_batches`` over millions of points per batch;
* parent/child relations are bit shifts (cheap hierarchical coarsening);
* neighbor lookup wraps in longitude and clamps in latitude;
* ``cover_bbox`` returns the exact cell set intersecting a bbox at a level
  (candidate generation for PIP / raster joins).

The grid is equal-angle, not equal-area: cells shrink in ground size near
the poles. For candidate generation + exact refine (our only use) this only
affects efficiency, never correctness; a mega-cell is spread over several
key ranges by the range partitioner's skew rule (spatial.join, util.cosort).
"""

from __future__ import annotations

import numpy as np

MAX_LEVEL = 29
_LEVEL_BITS = 5
_LEVEL_MASK = np.uint64((1 << _LEVEL_BITS) - 1)


def _part1by1(v: np.ndarray) -> np.ndarray:
    """Spread the low 32 bits of v into even bit positions (Morton helper)."""
    v = v.astype(np.uint64)
    v &= np.uint64(0xFFFFFFFF)
    v = (v | (v << np.uint64(16))) & np.uint64(0x0000FFFF0000FFFF)
    v = (v | (v << np.uint64(8))) & np.uint64(0x00FF00FF00FF00FF)
    v = (v | (v << np.uint64(4))) & np.uint64(0x0F0F0F0F0F0F0F0F)
    v = (v | (v << np.uint64(2))) & np.uint64(0x3333333333333333)
    v = (v | (v << np.uint64(1))) & np.uint64(0x5555555555555555)
    return v


def _compact1by1(v: np.ndarray) -> np.ndarray:
    """Inverse of _part1by1: gather even bit positions into the low 32 bits."""
    v = v.astype(np.uint64)
    v &= np.uint64(0x5555555555555555)
    v = (v | (v >> np.uint64(1))) & np.uint64(0x3333333333333333)
    v = (v | (v >> np.uint64(2))) & np.uint64(0x0F0F0F0F0F0F0F0F)
    v = (v | (v >> np.uint64(4))) & np.uint64(0x00FF00FF00FF00FF)
    v = (v | (v >> np.uint64(8))) & np.uint64(0x0000FFFF0000FFFF)
    v = (v | (v >> np.uint64(16))) & np.uint64(0x00000000FFFFFFFF)
    return v


def lonlat_to_xy(lats, lons, level: int) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized grid coordinates at ``level`` (clamped to valid range)."""
    n = 1 << level
    lats = np.asarray(lats, dtype=np.float64)
    lons = np.asarray(lons, dtype=np.float64)
    x = np.floor((lons + 180.0) / 360.0 * n).astype(np.int64)
    y = np.floor((lats + 90.0) / 180.0 * n).astype(np.int64)
    np.clip(x, 0, n - 1, out=x)
    np.clip(y, 0, n - 1, out=y)
    return x, y


def xy_to_cell(x, y, level: int) -> np.ndarray:
    x = np.asarray(x, dtype=np.uint64)
    y = np.asarray(y, dtype=np.uint64)
    morton = _part1by1(x) | (_part1by1(y) << np.uint64(1))
    return (morton << np.uint64(_LEVEL_BITS)) | np.uint64(level)


def encode_cell(lats, lons, level: int) -> np.ndarray:
    """(lat, lon) arrays → uint64 cell ids at ``level``. Fully vectorized."""
    if not 0 <= level <= MAX_LEVEL:
        raise ValueError(f"level must be in [0, {MAX_LEVEL}]")
    x, y = lonlat_to_xy(lats, lons, level)
    return xy_to_cell(x, y, level)


def cell_level(cells) -> np.ndarray:
    return (np.asarray(cells, dtype=np.uint64) & _LEVEL_MASK).astype(np.int64)


def cell_xy(cells) -> tuple[np.ndarray, np.ndarray]:
    c = np.asarray(cells, dtype=np.uint64) >> np.uint64(_LEVEL_BITS)
    return (
        _compact1by1(c).astype(np.int64),
        _compact1by1(c >> np.uint64(1)).astype(np.int64),
    )


def cell_parent(cells, levels_up: int = 1) -> np.ndarray:
    """Ancestor cell ``levels_up`` levels coarser (vectorized).

    Raises if any cell is already coarser than ``levels_up`` (uint
    arithmetic would silently wrap into garbage ids otherwise)."""
    cells = np.asarray(cells, dtype=np.uint64)
    lvl = cells & _LEVEL_MASK
    if len(cells) and int(lvl.min()) < levels_up:
        raise ValueError(f"cell_parent: level {int(lvl.min())} < levels_up {levels_up}")
    new_lvl = lvl - np.uint64(levels_up)
    morton = cells >> np.uint64(_LEVEL_BITS)
    morton >>= np.uint64(2 * levels_up)
    return (morton << np.uint64(_LEVEL_BITS)) | new_lvl


def cell_children(cell: int) -> np.ndarray:
    """The 4 children of one cell (scalar helper)."""
    cell = np.uint64(cell)
    lvl = int(cell & _LEVEL_MASK)
    morton = int(cell >> np.uint64(_LEVEL_BITS))
    base = morton << 2
    return np.array(
        [((base + i) << _LEVEL_BITS) | (lvl + 1) for i in range(4)], dtype=np.uint64
    )


def cell_bounds(cells) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(min_lon, min_lat, max_lon, max_lat) arrays for cell ids (vectorized)."""
    cells = np.asarray(cells, dtype=np.uint64)
    lvl = cell_level(cells)
    x, y = cell_xy(cells)
    n = (np.int64(1) << lvl).astype(np.float64)
    w = 360.0 / n
    h = 180.0 / n
    min_lon = -180.0 + x * w
    min_lat = -90.0 + y * h
    return min_lon, min_lat, min_lon + w, min_lat + h


def cell_neighbors(cells) -> np.ndarray:
    """8-neighborhood (plus self) per cell → shape (n, 9) uint64.

    Longitude wraps (x mod 2^L); latitude clamps (rows beyond the pole are
    dropped by returning the cell itself, keeping the array rectangular —
    duplicates are fine for candidate generation).
    """
    cells = np.asarray(cells, dtype=np.uint64)
    lvl = cell_level(cells)
    x, y = cell_xy(cells)
    n = np.int64(1) << lvl
    out = np.empty((len(cells), 9), dtype=np.uint64)
    k = 0
    for dy in (-1, 0, 1):
        for dx in (-1, 0, 1):
            nx = (x + dx) % n
            ny = y + dy
            valid = (ny >= 0) & (ny < n)
            ny_c = np.clip(ny, 0, n - 1)
            cand = xy_to_cell(nx.astype(np.uint64), ny_c.astype(np.uint64), 0)
            # patch per-row level (levels may differ across rows)
            cand = (cand >> np.uint64(_LEVEL_BITS) << np.uint64(_LEVEL_BITS)) | lvl.astype(
                np.uint64
            )
            out[:, k] = np.where(valid, cand, cells)
            k += 1
    return out


def cover_bbox(min_lon, min_lat, max_lon, max_lat, level: int) -> np.ndarray:
    """All cells at ``level`` intersecting the bbox (scalar bbox → uint64 array)."""
    n = 1 << level
    x0 = int(np.clip(np.floor((min_lon + 180.0) / 360.0 * n), 0, n - 1))
    x1 = int(np.clip(np.floor((max_lon + 180.0) / 360.0 * n), 0, n - 1))
    y0 = int(np.clip(np.floor((min_lat + 90.0) / 180.0 * n), 0, n - 1))
    y1 = int(np.clip(np.floor((max_lat + 90.0) / 180.0 * n), 0, n - 1))
    xs = np.arange(x0, x1 + 1, dtype=np.uint64)
    ys = np.arange(y0, y1 + 1, dtype=np.uint64)
    gx, gy = np.meshgrid(xs, ys)
    return xy_to_cell(gx.ravel(), gy.ravel(), level)


def choose_level_for_radius(radius_m: float, lat: float = 0.0) -> int:
    """Finest level whose cell height is ≥ radius_m (so a point's 3×3
    neighborhood always covers a radius_m disk). Equator-conservative."""
    meters_per_deg = 111_195.0  # ≈ earth circumference / 360
    for level in range(MAX_LEVEL, -1, -1):
        cell_h_m = 180.0 / (1 << level) * meters_per_deg
        if cell_h_m >= radius_m:
            return level
    return 0
