"""Skin masks and the spatial analysis grid.

The skin mask for a frame is the face bbox interior minus the eye and mouth
polygon interiors. Polygon membership is decided with the even-odd rule,
evaluated at pixel centers (x + 0.5, y + 0.5).

The grid tiles the bbox row-major into rows x cols rectangular cells; when
the bbox does not divide evenly the last row/column absorbs the remainder,
so the cells always cover the bbox exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GridTooFineError
from .ingest import FrameSequence, LandmarkSidecar


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


def bbox_mask(bbox, width: int, height: int) -> np.ndarray:
    x, y, w, h = bbox
    m = np.zeros((height, width), dtype=bool)
    if w > 0 and h > 0:
        m[max(y, 0) : y + h, max(x, 0) : x + w] = True
    return m


def build_mask(seq: FrameSequence, sidecar: LandmarkSidecar) -> np.ndarray:
    """Per-frame skin masks, shape (n, height, width) bool."""
    masks = np.zeros((seq.count, seq.height, seq.width), dtype=bool)
    for i, rec in enumerate(sidecar.records):
        m = bbox_mask(rec.bbox, seq.width, seq.height)
        for poly in (*rec.eye_polygons, rec.mouth_polygon):
            if len(poly) >= 3:
                m &= ~rasterize_polygon(poly, seq.width, seq.height)
        masks[i] = m
    return masks


@dataclass(frozen=True)
class GridSpec:
    """Row-major cells over a bbox. cell_rects: (rows*cols, 4) of x, y, w, h."""

    rows: int
    cols: int
    bbox: tuple[int, int, int, int]
    cell_rects: np.ndarray

    @property
    def n_cells(self) -> int:
        return self.rows * self.cols

    @property
    def edges(self) -> tuple[np.ndarray, np.ndarray]:
        """(y_edges, x_edges): cell row r spans [y_edges[r], y_edges[r + 1]) and
        column c spans [x_edges[c], x_edges[c + 1]), in frame pixels that may
        lie outside the frame."""
        rects = self.cell_rects
        y_edges = np.append(rects[:: self.cols, 1], rects[-1, 1] + rects[-1, 3])
        x_edges = np.append(rects[: self.cols, 0], rects[-1, 0] + rects[-1, 2])
        return y_edges, x_edges


def build_grid(bbox, rows: int, cols: int) -> GridSpec:
    x0, y0, bw, bh = (int(v) for v in bbox)
    if rows < 1 or cols < 1:
        raise ValueError(f"grid must be at least 1x1, got {rows}x{cols}")
    if bw < cols or bh < rows:
        raise GridTooFineError(
            f"bbox {bw}x{bh} cannot host a {rows}x{cols} grid "
            "(every cell needs at least one pixel)"
        )
    base_w, rem_w = divmod(bw, cols)
    base_h, rem_h = divmod(bh, rows)
    widths = [base_w] * (cols - 1) + [base_w + rem_w]
    heights = [base_h] * (rows - 1) + [base_h + rem_h]
    xs = x0 + np.concatenate([[0], np.cumsum(widths)[:-1]])
    ys = y0 + np.concatenate([[0], np.cumsum(heights)[:-1]])
    rects = np.empty((rows * cols, 4), dtype=np.int64)
    k = 0
    for r in range(rows):
        for c in range(cols):
            rects[k] = (xs[c], ys[r], widths[c], heights[r])
            k += 1
    return GridSpec(rows=rows, cols=cols, bbox=(x0, y0, bw, bh), cell_rects=rects)
