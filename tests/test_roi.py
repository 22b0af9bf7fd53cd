import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rppg.errors import GeometryError
from rppg.roi import build_grid, build_mask, rasterize_polygon

from helpers import flat_sequence, label_map, pixel_masks


def brute_force_rasterize(poly, width, height):
    """Even-odd rule at pixel centers, one ray cast per pixel."""
    out = np.zeros((height, width), dtype=bool)
    n = len(poly)
    if n < 3:
        return out
    for py in range(height):
        cy = py + 0.5
        for px in range(width):
            cx = px + 0.5
            inside = False
            for i in range(n):
                x1, y1 = poly[i]
                x2, y2 = poly[(i + 1) % n]
                if (y1 <= cy) != (y2 <= cy):
                    x_cross = x1 + (cy - y1) * (x2 - x1) / (y2 - y1)
                    if cx < x_cross:
                        inside = not inside
            out[py, px] = inside
    return out


def test_rasterize_square():
    poly = ((1, 1), (5, 1), (5, 4), (1, 4))
    mask = rasterize_polygon(poly, 8, 6)
    expect = np.zeros((6, 8), dtype=bool)
    expect[1:4, 1:5] = True
    assert np.array_equal(mask, expect)


def test_rasterize_triangle_matches_oracle():
    poly = ((0, 0), (7, 1), (3, 6))
    assert np.array_equal(rasterize_polygon(poly, 9, 8), brute_force_rasterize(poly, 9, 8))


def test_rasterize_degenerate_polygon_is_empty():
    assert not rasterize_polygon((), 4, 4).any()
    assert not rasterize_polygon(((1, 1), (2, 2)), 4, 4).any()


@settings(deadline=None, max_examples=60)
@given(
    st.lists(
        st.tuples(st.integers(0, 11), st.integers(0, 9)),
        min_size=3,
        max_size=8,
    )
)
def test_rasterize_matches_oracle(poly):
    poly = tuple(poly)
    assert np.array_equal(
        rasterize_polygon(poly, 12, 10), brute_force_rasterize(poly, 12, 10)
    )


def masks_of(ys, xs, holes):
    """build_mask's (ys, xs, holes) as each frame's pixel mask (n, h, w): the
    outer product of its bbox indicators, less its holes."""
    masks = (ys[:, :, None] * xs[:, None, :]) == 1
    return masks if holes is None else masks & ~holes


def test_build_mask_subtracts_polygons():
    seq = flat_sequence(n=2, h=10, w=10)
    bboxes = np.array([[1, 1, 8, 8], [1, 1, 8, 8]])
    polygons = {0: ([[2, 2], [4, 2], [4, 4], [2, 4]], [], [[5, 5], [8, 5], [8, 8], [5, 8]])}
    ys, xs, holes = build_mask(bboxes, seq.width, seq.height, polygons)
    assert ys.shape == (2, 10) and xs.shape == (2, 10) and holes.shape == (2, 10, 10)
    m = masks_of(ys, xs, holes)
    # cutouts removed on frame 0 only
    assert not m[0][3, 3]
    assert not m[0][6, 6]
    assert m[1][3, 3] and m[1][6, 6]
    assert not holes[1].any()
    # outside the bbox never included
    assert not m[:, 0, :].any()
    # mask monotonicity: frame-0 mask is a subset of the bare bbox mask
    assert np.array_equal(m[0] & m[1], m[0])
    # no polygon in the chunk: no hole map
    assert build_mask(bboxes, seq.width, seq.height, polygons, first=1)[2] is None


@pytest.mark.parametrize("n, height, width", [(17, 96, 96), (160, 32, 32), (6, 64, 20), (6, 65, 20)])
def test_build_mask_equals_a_per_frame_fill(n, height, width):
    # The outer product of each frame's row and column indicators, less its
    # holes, is the frame's bbox less its polygons, frames offset by first.
    # Some bboxes reach one pixel past the frame, as rounding smoothed ones
    # can; the indicators stop at the frame's edge.
    rng = np.random.default_rng(height)
    xy = rng.integers(0, [width, height], size=(n, 2), endpoint=True)
    bboxes = np.concatenate([xy, rng.integers(0, [width, height] - xy, endpoint=True)], axis=1)
    bboxes[::3, 2:] += 1
    first = 7
    polygons = {}
    for j in rng.choice(n, size=n // 2, replace=False):
        x, y, w, h = bboxes[j]
        eye, mouth = rng.integers([x, y], [x + w, y + h], size=(2, 3, 2), endpoint=True).tolist()
        polygons[first + int(j)] = (eye, [], mouth)
    ys, xs, holes = build_mask(bboxes, width, height, polygons, first)
    assert ys.shape == (n, height) and ys.dtype == np.float32
    assert xs.shape == (n, width) and xs.dtype == np.float64
    assert holes.shape == (n, height, width) and holes.dtype == bool
    assert set(np.unique(ys)) | set(np.unique(xs)) <= {0.0, 1.0}
    expect = pixel_masks(bboxes, width, height, {j - first: p for j, p in polygons.items()})
    assert np.array_equal(masks_of(ys, xs, holes), expect)


def test_build_grid_partitions_bbox():
    grid = build_grid((3, 2, 10, 7), rows=3, cols=4)
    y_edges, x_edges = grid
    assert (y_edges.size - 1) * (x_edges.size - 1) == 12
    heights, widths = np.diff(y_edges), np.diff(x_edges)
    # cells tile the bbox exactly: total area matches, no overlap
    assert np.outer(heights, widths).sum() == 70
    labels = label_map(grid, 20, 15)
    inside = labels >= 0
    assert inside.sum() == 70
    assert np.array_equal(np.bincount(labels[inside]), np.outer(heights, widths).ravel())
    # remainder columns/rows absorbed by the last cell in each direction
    assert widths.max() == widths[-1] == 2 + 10 % 4
    assert heights.max() == heights[-1] == 2 + 7 % 3
    assert y_edges.tolist() == [2, 4, 6, 9]
    assert x_edges.tolist() == [3, 5, 7, 9, 13]


@settings(deadline=None, max_examples=60)
@given(
    st.integers(1, 5),
    st.integers(1, 5),
    st.integers(0, 4),
    st.integers(0, 4),
    st.integers(5, 14),
    st.integers(5, 14),
)
def test_build_grid_covers_every_bbox_pixel_once(rows, cols, x0, y0, bw, bh):
    grid = build_grid((x0, y0, bw, bh), rows=rows, cols=cols)
    labels = label_map(grid, 20, 20)
    block = labels[y0 : y0 + bh, x0 : x0 + bw]
    assert (block >= 0).all()
    # row-major cell ids, each cell contiguous
    counts = np.bincount(block.ravel(), minlength=rows * cols)
    assert (counts >= 1).all()
    outside = np.ones((20, 20), dtype=bool)
    outside[y0 : y0 + bh, x0 : x0 + bw] = False
    assert (labels[outside] == -1).all()


def test_build_grid_too_fine():
    with pytest.raises(GeometryError, match="cannot host a"):
        build_grid((0, 0, 4, 8), rows=2, cols=5)
    with pytest.raises(GeometryError, match="cannot host a"):
        build_grid((0, 0, 8, 4), rows=5, cols=2)


