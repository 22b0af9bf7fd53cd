"""Skin masks and the spatial analysis grid.

The skin mask for a frame is the face bbox interior minus the eye and mouth
polygon interiors. Polygon membership is decided with the even-odd rule,
evaluated at pixel centers (x + 0.5, y + 0.5). Masks are built for a run of
frames from their rows of the (n, 4) bbox array and their entries in the
polygon map (see ingest), one chunk of a recording at a time, and laid out
as combine.masked_planes takes them: a mask per channel, interleaved as a
frame row stores its pixels, then the pixel mask. Bboxes are filled frame
by frame in frames taller than FILL_ROWS, else in one broadcast.

The grid tiles the bbox row-major into rows x cols rectangular cells,
stored as their row and column edges: x0 + [0, b, 2b, ..., bw] with
b = bw // cols, and likewise for y. When the bbox does not divide evenly
the last row/column absorbs the remainder, so the cells always cover the
bbox exactly.
"""

from __future__ import annotations

import numpy as np

from .errors import GeometryError

# Taller frames fill their masks frame by frame, others in one broadcast: on
# a pass chunk of square frames' masks the broadcast leads up to 64 rows
# (52 against 60 us at 64), the loop from about 66 (46 against 51 us at 96),
# timed on a 2-vCPU x86-64 host with NumPy 2.4.
FILL_ROWS = 64


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


def build_mask(bboxes, width: int, height: int, polygons=None, first: int = 0) -> np.ndarray:
    """Skin masks of frames first, ..., first + n - 1 from their (n, 4) bboxes,
    less their polygons in load_landmarks's map, laid out as masked_planes
    takes them: (n, height, 4 * width) bool, each row the mask of its pixels'
    R, G and B in turn, as a frame row is stored, then the pixel mask."""
    n = len(bboxes)
    if height > FILL_ROWS:
        masks = np.zeros((n, height, 4 * width), dtype=bool)
    else:  # pixel p's channels are columns 3p to 3p + 2, its pixel mask 3 * width + p
        x, y, w, h = bboxes.T[..., None]
        py, px = np.arange(height), np.concatenate([np.arange(3 * width) // 3, np.arange(width)])
        masks = ((py >= y) & (py < y + h))[:, :, None] & ((px >= x) & (px < x + w))[:, None, :]
    rgb, pixel = masks[..., : 3 * width].reshape(n, height, width, 3), masks[..., 3 * width :]
    for r, p, (x, y, w, h) in zip(rgb, pixel, bboxes.tolist()) if height > FILL_ROWS else ():
        r[y : y + h, x : x + w] = p[y : y + h, x : x + w] = True
    for j in range(n) if polygons else ():
        for poly in polygons.get(first + j, ()):
            hole = rasterize_polygon(poly, width, height)
            rgb[j][hole] = pixel[j][hole] = False
    return masks


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
