"""Skin masks and the spatial analysis grid.

The skin mask for a frame is the face bbox interior minus the eye and mouth
polygon interiors. Polygon membership is decided with the even-odd rule,
evaluated at pixel centers (x + 0.5, y + 0.5). Masks are built for a run of
frames from their rows of the (n, 4) bbox array and their entries in the
polygon map (see ingest), one chunk of a recording at a time, as
combine.pool_cells takes them: the bbox is a rectangle, so it is kept as a
row and a column indicator per frame, and only a chunk with a polygon has
a hole map, each frame's union of polygon interiors.

The grid tiles the bbox row-major into rows x cols rectangular cells,
stored as their row and column edges: x0 + [0, b, 2b, ..., bw] with
b = bw // cols, and likewise for y. When the bbox does not divide evenly
the last row/column absorbs the remainder, so the cells always cover the
bbox exactly.
"""

from __future__ import annotations

import numpy as np

from .errors import GeometryError


def rasterize_polygon(vertices, width: int, height: int) -> np.ndarray:
    """Even-odd-rule interior of a polygon as an (height, width) bool image.

    Fewer than three vertices rasterize to an empty mask.
    """
    inside = np.zeros((height, width), dtype=bool)
    verts = np.asarray(vertices, dtype=np.float64)
    if verts.size == 0 or verts.shape[0] < 3:
        return inside
    py = np.arange(height) + 0.5
    px = np.arange(width) + 0.5
    n = verts.shape[0]
    for i in range(n):
        x1, y1 = verts[i]
        x2, y2 = verts[(i + 1) % n]
        if y1 == y2:
            continue
        rows = np.nonzero((y1 > py) != (y2 > py))[0]
        if rows.size == 0:
            continue
        xcross = (x2 - x1) * (py[rows] - y1) / (y2 - y1) + x1
        inside[rows] ^= px[None, :] < xcross[:, None]
    return inside


def build_mask(bboxes, width: int, height: int, polygons=None, first: int = 0):
    """Skin masks of frames first, ..., first + n - 1 from their (n, 4) bboxes,
    less their polygons in load_landmarks's map, as pool_cells takes them:
    (ys, xs, holes), the bboxes' 0/1 row indicators ys (n, height) float32
    and column indicators xs (n, width) float64, and holes (n, height,
    width) bool, each frame's union of polygon interiors, or None when no
    frame has a polygon. Frame j's mask is outer(ys[j], xs[j]) less holes[j]."""
    x, y, w, h = np.asarray(bboxes).T[..., None]
    py, px = np.arange(height), np.arange(width)
    ys = ((py >= y) & (py < y + h)).astype(np.float32)
    xs = ((px >= x) & (px < x + w)).astype(np.float64)
    holes = None
    for j in range(len(ys)) if polygons else ():
        for poly in polygons.get(first + j, ()):
            if holes is None:
                holes = np.zeros((len(ys), height, width), dtype=bool)
            holes[j] |= rasterize_polygon(poly, width, height)
    return ys, xs, holes


def build_grid(bbox, rows: int, cols: int) -> tuple[np.ndarray, np.ndarray]:
    """Row-major cells over a bbox as (y_edges, x_edges): cell row r spans
    [y_edges[r], y_edges[r + 1]) and column c spans [x_edges[c], x_edges[c + 1]),
    in frame pixels that may lie outside the frame. rows and cols are at
    least 1, as RunConfig holds them."""
    x0, y0, bw, bh = (int(v) for v in bbox)
    if bw < cols or bh < rows:
        raise GeometryError(
            f"bbox {bw}x{bh} cannot host a {rows}x{cols} grid "
            "(every cell needs at least one pixel)"
        )
    y_edges = y0 + np.append(np.arange(rows) * (bh // rows), bh)
    x_edges = x0 + np.append(np.arange(cols) * (bw // cols), bw)
    return y_edges, x_edges
