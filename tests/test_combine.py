import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rppg.biophysics import CameraNoiseParams
from rppg.chrom import chrom_rows
from rppg.combine import (
    GridTraces,
    cell_indicators,
    combine_benchmark_snr,
    combine_proposed,
    grid_traces,
    pool_cells,
    snr_weights,
)
from rppg.diffuse import min_channel
from rppg.errors import RegionError, SignalError
from rppg.heartrate import periodogram, plan_windows, spectrum_rows, two_harmonic_snr
from rppg.roi import build_grid, build_mask, rasterize_polygon
from rppg.signals import zero_mean
from rppg.synth import SynthScene, bias_scene, render

from helpers import (
    block_edge_rows,
    chrom_one,
    diffuse_sums_of,
    diffuse_weights_of,
    facial_aggregate_of,
    grid_traces_of,
    grid_traces_row_major,
    label_map,
    pixel_masks,
    planar_masked_planes,
    planar_pool_planes,
    pooled,
    snr_weights_by_one_periodogram,
)


def random_scene(seed=0, n=8, h=6, w=8, mask_p=0.7):
    rng = np.random.default_rng(seed)
    frames = rng.integers(0, 256, size=(n, h, w, 3), dtype=np.uint8)
    masks = rng.random((n, h, w)) < mask_p
    masks[:, 0, 0] = True  # keep every frame non-empty
    return frames, masks


def grid_scene(seed=0, n=300, h=8, w=8, fps=30.0, hz=1.2, amp=6.0, noise_cell=None):
    """2x2-cell scene: uniform skin-like pulse, optionally one cell of noise."""
    rng = np.random.default_rng(seed)
    t = np.arange(n) / fps
    pulse = amp * np.sin(2 * np.pi * hz * t)
    base = np.array([150.0, 110.0, 80.0])
    frames = np.empty((n, h, w, 3))
    frames[...] = base + pulse[:, None, None, None] * np.array([0.5, 1.0, 0.25])
    if noise_cell is not None:
        r0, c0 = noise_cell
        ys = slice(r0 * h // 2, (r0 + 1) * h // 2)
        xs = slice(c0 * w // 2, (c0 + 1) * w // 2)
        frames[:, ys, xs, :] = base + rng.normal(0.0, amp, size=(n, h // 2, w // 2, 3))
    frames = np.clip(np.rint(frames), 0, 255).astype(np.uint8)
    masks = np.ones((n, h, w), dtype=bool)
    grid = build_grid((0, 0, w, h), rows=2, cols=2)
    return frames, masks, grid, fps


# ---------------------------------------------------------------------------
# facial_aggregate
# ---------------------------------------------------------------------------


def test_facial_aggregate_matches_loop_oracle():
    frames, masks = random_scene(seed=3)
    trace = facial_aggregate_of(frames, masks)
    for t in range(frames.shape[0]):
        expect = frames[t][masks[t]].astype(float).mean(axis=0)
        assert np.array_equal(trace[t], expect)


def test_facial_aggregate_empty_frame_raises():
    frames, masks = random_scene(seed=4)
    masks[3] = False
    with pytest.raises(RegionError, match="mask selects no pixels"):
        facial_aggregate_of(frames, masks)


def test_facial_aggregate_uniform_frame_is_exact():
    frames = np.full((4, 5, 5, 3), 77, dtype=np.uint8)
    masks = np.ones((4, 5, 5), dtype=bool)
    trace = facial_aggregate_of(frames, masks)
    assert np.allclose(trace, 77.0)


# ---------------------------------------------------------------------------
# grid_traces
# ---------------------------------------------------------------------------


def loop_grid_traces(frames, masks, grid, fps):
    """Reference: the per-frame bincount loop that grid_traces replaced,
    time-major samples (n_frames, n_cells, 3)."""
    n_frames = frames.shape[0]
    labels = label_map(grid, frames.shape[2], frames.shape[1])
    n = (grid[0].size - 1) * (grid[1].size - 1)
    samples = np.zeros((n_frames, n, 3))
    live = np.zeros(n, dtype=bool)
    for t in range(n_frames):
        sel = masks[t] & (labels >= 0)
        lab = labels[sel]
        counts = np.bincount(lab, minlength=n).astype(np.float64)
        vals = frames[t][sel].astype(np.float64)
        filled = counts > 0
        for c in range(3):
            sums = np.bincount(lab, weights=vals[:, c], minlength=n)
            samples[t, filled, c] = sums[filled] / counts[filled]
        if t == 0:
            live = filled
        else:
            samples[t, ~filled, :] = samples[t - 1, ~filled, :]  # carry forward
    return samples, live


def test_grid_traces_matches_loop_oracle():
    frames, masks = random_scene(seed=5, n=6, h=9, w=12)
    for poly in (((2, 2), (5, 2), (5, 4), (2, 4)), ((7, 6), (11, 6), (9, 8))):
        masks &= ~rasterize_polygon(poly, 12, 9)  # eye and mouth holes
    masks[3:, 1:4, 1:4] = False  # cell 0 of the first grid empties mid-window
    cases = (
        ((1, 1, 10, 7), 2, 3),  # uneven remainder cells
        ((-3, -2, 11, 8), 3, 2),  # partly outside the frame, negative x/y
        ((5, 4, 12, 9), 2, 4),  # partly outside the frame, right and bottom
        ((-20, 0, 12, 9), 2, 2),  # wholly outside: every cell dead
        ((0, 0, 12, 9), 1, 1),
    )
    for bbox, rows, cols in cases:
        grid = build_grid(bbox, rows=rows, cols=cols)
        traces = grid_traces_of(frames, masks, grid, 25.0)
        samples, live = loop_grid_traces(frames, masks, grid, 25.0)
        assert np.array_equal(traces.samples, samples), bbox
        assert np.array_equal(traces.live, live), bbox
    first = grid_traces_of(frames, masks, build_grid((1, 1, 10, 7), 2, 3), 25.0)
    assert np.array_equal(first.samples[3:, 0], np.repeat(first.samples[2:3, 0], 3, axis=0))


@settings(deadline=None, max_examples=100, derandomize=True)
@given(
    shape=st.tuples(st.integers(1, 40), st.integers(1, 8), st.integers(1, 8)),
    empty_p=st.sampled_from([0.0, 0.1, 0.5, 1.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_time_major_grid_traces_equals_the_row_major_oracle(shape, empty_p, seed):
    # sums and counts as the pass hands them on, views of one (t, rows, cols,
    # 4) block; dead cells, and cell 0 emptying halfway through the window
    rng = np.random.default_rng(seed)
    block = rng.uniform(0.0, 1e4, shape + (4,))
    block[..., -1] = rng.integers(0, 50, shape)
    block[..., -1][rng.random(shape) < empty_p] = 0.0
    block[: shape[0] // 2 + 1, 0, 0, -1] = 7.0
    block[shape[0] // 2 + 1 :, 0, 0, -1] = 0.0
    block[..., :3] *= block[..., -1:] > 0
    traces = grid_traces(block[..., :3], block[..., -1], 30.0)
    samples, live = grid_traces_row_major(block[..., :3], block[..., -1])
    assert np.array_equal(traces.samples, np.moveaxis(samples, 0, 1))
    assert np.array_equal(traces.live, live) and live[0]


def edges_in(size, cells=4):
    """1 to cells cells' increasing edges, reaching 4 px past the frame each side."""
    return st.lists(
        st.integers(-4, size + 4), min_size=2, max_size=cells + 1, unique=True
    ).map(sorted)


@st.composite
def skin_chunks(draw, max_n=6, max_side=40):
    """A run of frames as the pass pools them: (frames (n, h, w, 3) uint8,
    bboxes (n, 4), polygons {frame: (eye, eye, mouth)}, edges). The edges
    are those of a grid of up to 8x8 cells over a base bbox, which may reach
    past the frame. Each frame's bbox is the base one jittered by up to its
    own size and clipped to the frame (maybe one pixel past it, as rounded
    smoothed bboxes reach), so it cuts through cells or misses whole grid
    rows or columns. About half the frames have polygons, their vertices on
    or inside the bbox: free ones, an eye pair that overlaps each other and
    the mouth, or a mouth that is the bbox itself."""
    n, h, w = draw(st.integers(1, max_n)), draw(st.integers(1, max_side)), draw(st.integers(1, max_side))
    rows, cols = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    bx, by = draw(st.integers(-3, w - 1)), draw(st.integers(-3, h - 1))
    bw, bh = draw(st.integers(cols, max(cols, w + 3))), draw(st.integers(rows, max(rows, h + 3)))
    edges = build_grid((bx, by, bw, bh), rows, cols)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    frames = rng.integers(0, 256, size=(n, h, w, 3), dtype=np.uint8)
    if draw(st.booleans()):
        frames[...] = 255  # the largest sums
    jitter = rng.integers(-1, 2, size=(n, 4)) * rng.integers(0, [bw, bh, bw, bh], size=(n, 4), endpoint=True)
    x0 = np.clip(bx + jitter[:, 0], 0, w)
    y0 = np.clip(by + jitter[:, 1], 0, h)
    x1 = np.clip(bx + bw + jitter[:, 2], x0, w + rng.integers(0, 2, n))
    y1 = np.clip(by + bh + jitter[:, 3], y0, h + rng.integers(0, 2, n))
    bboxes = np.stack([x0, y0, x1 - x0, y1 - y0], axis=1)
    polygons = {}
    for j, (x, y, bw_j, bh_j) in enumerate(bboxes.tolist()):
        kind = draw(st.sampled_from(["none", "none", "free", "overlap", "bbox"]))

        def vertices(k):
            return rng.integers([x, y], [x + bw_j, y + bh_j], size=(k, 2), endpoint=True).tolist()

        if kind == "free":
            polygons[j] = (vertices(3), [], vertices(4))
        elif kind == "overlap":
            eye = vertices(3)
            polygons[j] = (eye, [[min(vx + 1, x + bw_j), vy] for vx, vy in eye], eye + vertices(1))
        elif kind == "bbox":
            polygons[j] = ([], [], [[x, y], [x + bw_j, y], [x + bw_j, y + bh_j], [x, y + bh_j]])
    return frames, bboxes, polygons, edges


def pooled_chunk(values, bboxes, polygons, edges, first=0):
    """pool_cells of values under build_mask's masks of frames first, ...,
    over one grid's edges."""
    h, w = values.shape[1:3]
    ys, xs, holes = build_mask(bboxes, w, h, polygons, first)
    k = 1 if values.ndim == 3 else values.shape[3]
    [cells] = pool_cells(values, ys, xs, holes, [cell_indicators(*edges, h, w, k)])
    return cells


@settings(deadline=None, max_examples=150, derandomize=True)
@given(chunk=skin_chunks(), min_pool=st.booleans())
@example(  # the bbox misses the grid's first row and last column; overlapping holes
    chunk=(
        np.arange(2 * 8 * 9 * 3, dtype=np.uint8).reshape(2, 8, 9, 3),
        np.array([[1, 3, 5, 5], [0, 0, 9, 8]]),
        {0: ([[1, 3], [4, 3], [2, 6]], [[2, 3], [5, 3], [3, 6]], [[1, 4], [6, 4], [6, 8], [1, 8]])},
        build_grid((0, 0, 9, 8), 4, 3),
    ),
    min_pool=False,
)
def test_interleaved_pooling_equals_the_planar_oracle_bit_for_bit(chunk, min_pool):
    # Each frame's bbox, folded into the row and column indicators, less its
    # holes, zeroed in the cast and their pooled count subtracted, pools
    # uint8 RGB (k = 3) and the min channel (k = 1) to the bits of the
    # channel-planar layout under a per-frame filled mask: sums and counts
    # are exact integers. A second grid, spanning the frame, pooled in the
    # same call, gets the sums of a call of its own.
    frames, bboxes, polygons, edges = chunk
    n, h, w = frames.shape[:3]
    values = min_channel(frames) if min_pool else frames
    oracle = planar_masked_planes(pixel_masks(bboxes, w, h, polygons), values)
    cells = pooled_chunk(values, bboxes, polygons, edges)
    assert cells.shape == (n, len(edges[0]) - 1, len(edges[1]) - 1, oracle.shape[2])
    assert np.array_equal(cells, planar_pool_planes(oracle, *edges))
    whole = (np.array([0, h]), np.array([0, w]))
    k = oracle.shape[2] - 1
    ys, xs, holes = build_mask(bboxes, w, h, polygons)
    both = pool_cells(values, ys, xs, holes, [cell_indicators(*g, h, w, k) for g in (edges, whole)])
    assert np.array_equal(both[0], cells)
    assert np.array_equal(both[1], pooled_chunk(values, bboxes, polygons, whole))


@settings(deadline=None, max_examples=60, derandomize=True)
@given(chunk=skin_chunks(max_n=3, max_side=12), luminance=st.booleans())
def test_bbox_and_hole_cell_sums_equal_a_loop_over_cells(chunk, luminance):
    # Luminance is float64 in quarter steps, so its sums are exact in any
    # order and the float64 products must match the loop too.
    frames, bboxes, polygons, (y_edges, x_edges) = chunk
    values = frames.sum(axis=-1) / 4 if luminance else frames
    cells = pooled_chunk(values, bboxes, polygons, (y_edges, x_edges))
    masks = pixel_masks(bboxes, frames.shape[2], frames.shape[1], polygons)
    want_sums, want_counts = loop_cell_sums(values, masks, y_edges, x_edges)
    assert cells.dtype == np.float64
    assert np.array_equal(cells[..., -1], want_counts)
    assert (cells[..., :-1].reshape(want_sums.shape) == want_sums).all()


@settings(deadline=None, max_examples=60, derandomize=True)
@given(chunk=skin_chunks(max_n=4, max_side=16))
def test_rgb_and_min_pools_equal_the_int64_diffuse_oracle(chunk):
    # proposed pools uint8 RGB and the uint8 min channel: both pools' sums
    # are the exact integers of diffuse_sums_of, which diffuse_weights reads.
    frames, bboxes, polygons, edges = chunk
    masks = pixel_masks(bboxes, frames.shape[2], frames.shape[1], polygons)
    rgb, mins, counts = diffuse_sums_of(frames, masks, edges)
    cells = pooled_chunk(frames, bboxes, polygons, edges)
    min_cells = pooled_chunk(min_channel(frames), bboxes, polygons, edges)
    assert (cells[..., :3] == rgb).all() and (cells[..., 3] == counts).all()
    assert (min_cells[..., 0] == mins).all() and (min_cells[..., 1] == counts).all()


@settings(deadline=None, max_examples=60, derandomize=True)
@given(chunk=skin_chunks(max_n=80, max_side=64), luminance=st.booleans(), data=st.data())
def test_masked_cell_sums_do_not_depend_on_how_the_frames_are_split(chunk, luminance, data):
    # The streaming pass pools a window chunk by chunk, each with its own
    # build_mask call, and concatenates the per-frame sums: they must equal,
    # bit for bit, one call over the stack. Float luminance (in thirds) is
    # not summed exactly, so only products taken per frame keep each frame's
    # summation order the same in any call.
    frames, bboxes, polygons, edges = chunk
    n = len(frames)
    values = frames.mean(axis=-1) if luminance else frames  # float64 or uint8 RGB
    whole = pooled_chunk(values, bboxes, polygons, edges)
    cuts = data.draw(st.lists(st.integers(1, max(1, n - 1)), max_size=6, unique=True).map(sorted))
    bounds = [0, *(c for c in cuts if c < n), n]
    parts = [pooled_chunk(values[a:b], bboxes[a:b], polygons, edges, a) for a, b in zip(bounds, bounds[1:])]
    assert np.array_equal(np.concatenate(parts), whole)


def loop_cell_sums(values, masks, y_edges, x_edges):
    """Per-cell masked sums and pixel counts by a Python loop over frames,
    cells and pixels, in exact Python integers or floats."""
    n, h, w = masks.shape
    rows, cols = len(y_edges) - 1, len(x_edges) - 1
    sums = np.zeros((n, rows, cols) + values.shape[3:], dtype=object)
    counts = np.zeros((n, rows, cols), dtype=np.int64)
    for t, r, c in np.ndindex(n, rows, cols):
        for y in range(max(y_edges[r], 0), min(y_edges[r + 1], h)):
            for x in range(max(x_edges[c], 0), min(x_edges[c + 1], w)):
                if masks[t, y, x]:
                    sums[t, r, c] += values[t, y, x].tolist() if values.ndim == 4 else values[t, y, x]
                    counts[t, r, c] += 1
    return sums, counts


@settings(deadline=None, max_examples=80, derandomize=True)
@given(
    y_edges=edges_in(9),
    x_edges=edges_in(12),
    luminance=st.booleans(),
    seed=st.integers(0, 2**16),
)
def test_masked_cell_sums_equal_a_loop_over_cells(y_edges, x_edges, luminance, seed):
    # Any pixel mask (frame-wide bboxes whose holes are the rest): edges may
    # lie partly or wholly outside the frame, and clipping can empty a cell.
    frames, masks = random_scene(seed=seed, n=3, h=9, w=12)
    values = frames.sum(axis=-1) / 4 if luminance else frames
    cells = pooled(values, masks, (np.array(y_edges), np.array(x_edges)))
    want_sums, want_counts = loop_cell_sums(values, masks, y_edges, x_edges)
    assert cells.shape == want_counts.shape + (4 if values.ndim == 4 else 2,)
    assert np.array_equal(cells[..., -1], want_counts)
    sums = cells[..., :-1].reshape(want_sums.shape)
    assert (sums == want_sums).all()


def test_masked_cell_sums_are_exact_at_camera_resolution():
    # One all-255 1080x1920 frame: each channel's sum, 255 * 2073600, is an
    # integer the float64 products hold exactly; a one-pixel-narrower bbox
    # leaves the last column out of every sum.
    frames = np.full((1, 1080, 1920, 3), 255, dtype=np.uint8)
    grids = [
        cell_indicators(*edges, 1080, 1920, 3)
        for edges in (([0, 1080], [0, 1920]), ([0, 500, 1080], [0, 1919, 1920]))
    ]
    ys, xs, holes = build_mask(np.array([[0, 0, 1920, 1080]]), 1920, 1080)
    whole, cells = pool_cells(frames, ys, xs, holes, grids)
    assert whole.tolist() == [[[[255 * 1080 * 1920] * 3 + [1080 * 1920]]]]
    assert cells[..., -1].tolist() == [[[500 * 1919, 500], [580 * 1919, 580]]]
    assert (cells[..., :-1] == 255 * cells[..., -1:]).all()
    ys, xs, holes = build_mask(np.array([[0, 0, 1919, 1080]]), 1920, 1080)
    [narrow] = pool_cells(frames, ys, xs, holes, grids[1:])
    assert narrow[..., -1].tolist() == [[[500 * 1919, 0], [580 * 1919, 0]]]


@settings(deadline=None, max_examples=80, derandomize=True)
@given(chunk=skin_chunks(), min_pool=st.booleans())
def test_float32_pooling_of_uint8_frames_equals_float64_bit_for_bit(chunk, min_pool):
    # uint8 values pool in float32 (every row-product sum is an integer of
    # at most h * 255 < 2**24) to the sums of the same values as float64,
    # bit for bit.
    frames, bboxes, polygons, edges = chunk
    values = min_channel(frames) if min_pool else frames
    cells = pooled_chunk(values, bboxes, polygons, edges)
    assert cells.dtype == np.float64
    assert np.array_equal(cells, pooled_chunk(values.astype(np.float64), bboxes, polygons, edges))


class CastSpy(np.ndarray):
    """An array that records the dtype of every astype call on it or its views."""

    casts: list = []

    def astype(self, dtype, *args, **kwargs):
        CastSpy.casts.append(np.dtype(dtype))
        return np.asarray(self).astype(dtype, *args, **kwargs)


@pytest.mark.parametrize("h", [2**24 // 255, 2**24 // 255 + 1])
def test_pooling_is_exact_at_the_float32_row_limit(h, monkeypatch):
    # One column of h rows of 255, but 254 in the last row of channel 0:
    # its sum is 255 * h - 1. Up to 65,793 rows every row-product sum is
    # exact in float32; at 65,794 the product runs in float64, where float32
    # would round the odd sum 16,777,469 past 2**24. Frame 1's hole, its
    # first row, takes 255 from each sum and 1 from the count. Both dtypes
    # give these sums, so the frames record the dtype of their one cast.
    monkeypatch.setattr(CastSpy, "casts", [])
    frames = np.full((2, h, 1, 3), 255, dtype=np.uint8).view(CastSpy)
    frames[:, -1, :, 0] = 254
    polygons = {1: ([], [], [[0, 0], [1, 0], [1, 1], [0, 1]])}
    whole = [255 * h - 1, 255 * h, 255 * h, h]
    want = [[[whole]], [[[s - 255 for s in whole[:3]] + [h - 1]]]]
    bboxes = np.array([[0, 0, 1, h]] * 2)
    assert pooled_chunk(frames, bboxes, polygons, ([0, h], [0, 1])).tolist() == want
    halves = pooled_chunk(frames, bboxes, polygons, ([0, h // 2, h], [0, 1]))
    assert halves.sum(axis=1, keepdims=True).tolist() == want
    assert CastSpy.casts == [np.float32 if h * 255 <= 2**24 else np.float64] * 2


def test_grid_traces_live_flags_and_carry_forward():
    frames = np.full((3, 4, 4, 3), 100, dtype=np.uint8)
    masks = np.zeros((3, 4, 4), dtype=bool)
    masks[:, :2, :2] = True          # top-left cell always filled
    masks[0, 2:, 2:] = True          # bottom-right only at t=0
    grid = build_grid((0, 0, 4, 4), rows=2, cols=2)
    traces = grid_traces_of(frames, masks, grid, 30.0)
    assert traces.live.tolist() == [True, False, False, True]
    # bottom-right cell: frame 0 sampled, frames 1-2 carried forward
    assert np.allclose(traces.samples[:, 3], 100.0)


# ---------------------------------------------------------------------------
# snr_weights
# ---------------------------------------------------------------------------


def test_snr_weights_noise_cell_gets_smallest_weight():
    frames, masks, grid, fps = grid_scene(seed=1, noise_cell=(1, 1))
    traces = grid_traces_of(frames, masks, grid, fps)
    w = snr_weights(traces)
    assert w.shape == (4,)
    assert w.sum() == pytest.approx(1.0)
    assert np.all(w >= 0)
    assert np.argmin(w) == 3  # row-major: cell (1, 1)
    assert w[3] < w[0] and w[3] < w[1] and w[3] < w[2]


def test_snr_weights_match_direct_per_cell_snr():
    frames, masks, grid, fps = grid_scene(seed=2, noise_cell=(0, 1))
    traces = grid_traces_of(frames, masks, grid, fps)
    w = snr_weights(traces)
    raw = np.zeros(4)
    for i in range(4):
        wave = chrom_one(traces.samples[:, i], traces.fps)
        freqs, power = periodogram(wave.samples, wave.fps)
        band = (freqs >= 0.7) & (freqs <= 3.5)
        peak = float(freqs[band][np.argmax(power[band])])
        raw[i] = two_harmonic_snr(wave, peak)
    assert np.allclose(w, raw / raw.sum(), atol=1e-12)


def test_snr_weights_uniform_fallback_on_flat_cells():
    frames = np.full((300, 4, 4, 3), 90, dtype=np.uint8)
    masks = np.ones((300, 4, 4), dtype=bool)
    grid = build_grid((0, 0, 4, 4), rows=2, cols=2)
    traces = grid_traces_of(frames, masks, grid, 30.0)
    w = snr_weights(traces)
    assert np.allclose(w, 0.25)


def test_snr_weights_dead_cells_excluded():
    frames, masks, grid, fps = grid_scene(seed=3)
    masks[:, : 8 // 2, : 8 // 2] = False  # kill cell 0 for the whole window
    traces = grid_traces_of(frames, masks, grid, fps)
    w = snr_weights(traces)
    assert w[0] == 0.0
    assert w.sum() == pytest.approx(1.0)


def test_snr_weights_all_dead_raises():
    frames, masks, grid, fps = grid_scene(seed=4)
    masks[0] = False  # first frame empty everywhere -> no live cells
    traces = grid_traces_of(frames, masks, grid, fps)
    with pytest.raises(RegionError, match="every grid cell is empty"):
        snr_weights(traces)


@settings(deadline=None, max_examples=60, derandomize=True)
@given(
    seed=st.integers(0, 2**16),
    shape=st.tuples(st.integers(1, 4), st.integers(1, 4)),
    scene=st.sampled_from(["pulse", "noise cell", "flat"]),
    mask_p=st.sampled_from([0.2, 0.7, 1.0]),
    dark=st.booleans(),
)
@example(seed=0, shape=(2, 2), scene="flat", mask_p=1.0, dark=True)
def test_weights_are_one_normalized_float64_per_cell(seed, shape, scene, mask_p, dark):
    # combine_benchmark_snr and combine_proposed take these weights unchecked.
    # Flat traces take snr_weights's even fallback, an all-black diffuse
    # region diffuse_weights's.
    if scene == "flat":
        frames = np.full((300, 8, 8, 3), 90, dtype=np.uint8)
    else:
        frames = grid_scene(seed=seed, noise_cell=(0, 1) if scene == "noise cell" else None)[0]
    masks = np.random.default_rng(seed).random(frames.shape[:3]) < mask_p
    masks[:, 0, 0] = True  # keep cell 0 live
    edges = build_grid((0, 0, 8, 8), *shape)
    snr_w = snr_weights(grid_traces_of(frames, masks, edges, 30.0))
    dif_w = diffuse_weights_of(np.zeros_like(frames) if dark else frames, edges, masks)
    for w in (snr_w, dif_w):
        assert w.dtype == np.float64 and w.shape == (shape[0] * shape[1],)
        assert np.all(w >= 0) and abs(w.sum() - 1.0) <= 1e-12


# ---------------------------------------------------------------------------
# combine_benchmark_snr
# ---------------------------------------------------------------------------


def test_combine_benchmark_is_weighted_waveform_mean():
    frames, masks, grid, fps = grid_scene(seed=5, noise_cell=(1, 0))
    traces = grid_traces_of(frames, masks, grid, fps)
    weights = np.array([0.3, 0.45, 0.05, 0.2])
    wave = combine_benchmark_snr(traces, weights)
    expect = np.zeros(frames.shape[0])
    for i, wi in enumerate(weights):
        expect += wi * chrom_one(traces.samples[:, i], traces.fps).samples
    assert wave.shape == expect.shape
    assert np.allclose(wave, zero_mean(expect), atol=1e-12)


# ---------------------------------------------------------------------------
# batched spectral core against the per-cell loop it replaced
# ---------------------------------------------------------------------------


def loop_snr_weights(traces):
    """Reference: one CHROM, one peak-picking PSD and one SNR PSD per cell."""
    w = np.zeros(traces.n_cells)
    for i in np.nonzero(traces.live)[0]:
        try:
            wave = chrom_one(traces.samples[:, i], traces.fps)
        except SignalError:
            continue
        freqs, power = periodogram(wave.samples, wave.fps)
        in_band = (freqs >= 0.7) & (freqs <= 3.5)
        if not in_band.any() or power[in_band].max() <= 0.0:
            continue
        peak_hz = float(freqs[in_band][np.argmax(power[in_band])])
        try:
            w[i] = two_harmonic_snr(wave, peak_hz)
        except SignalError:
            continue
    total = w.sum()
    if total <= 0.0:
        w[traces.live] = 1.0 / int(traces.live.sum())
        return w
    return w / total


def loop_combine_benchmark_snr(traces, weights):
    """Reference: a second CHROM pass per positive-weight cell."""
    acc = np.zeros(traces.samples.shape[0])
    for i in np.nonzero(weights > 0)[0]:
        acc += weights[i] * chrom_one(traces.samples[:, i], traces.fps).samples
    return zero_mean(acc)


def assert_matches_loop(traces):
    w = snr_weights(traces)
    ref = loop_snr_weights(traces)
    assert np.all(np.abs(w - ref) <= 1e-12 * ref)
    wave = combine_benchmark_snr(traces, w)
    assert np.max(np.abs(wave - loop_combine_benchmark_snr(traces, ref))) <= 1e-12
    return w


def scene_windows(scene, rows, cols):
    seq, sidecar, _ = render(scene)
    masks = pixel_masks(sidecar, seq.width, seq.height)
    for sl in plan_windows(seq.duration_s, 10.0, 5.0).frame_slices(seq.fps, seq.count):
        grid = build_grid(sidecar[sl.start], rows, cols)
        yield grid_traces_of(seq.frames[sl], masks[sl], grid, seq.fps)


def test_batched_snr_matches_loop_on_criterion_1_scene():
    scene = SynthScene(
        width=32, height=32, fps=30.0, duration_s=30.0, hr_bpm=96.0,
        shot_noise=False, noise=CameraNoiseParams(sigma_read=0.0), seed=3,
    )
    for traces in scene_windows(scene, 8, 8):
        assert_matches_loop(traces)


def test_batched_snr_matches_loop_on_bias_scene():
    for traces in scene_windows(bias_scene(0.40, 70.0, 1), 2, 2):
        assert_matches_loop(traces)


def test_batched_snr_zero_channel_mean_cell_among_good_cells():
    frames, masks, grid, fps = grid_scene(seed=11, noise_cell=(1, 0))
    frames[:, :4, 4:, 2] = 0  # cell 1 has no blue: no CHROM waveform
    traces = grid_traces_of(frames, masks, grid, fps)
    assert traces.waveforms[1].tolist() == [True, False, True, True]
    w = assert_matches_loop(traces)
    assert w[1] == 0.0 and np.all(w[[0, 2, 3]] > 0.0)
    with pytest.raises(SignalError, match="positive weight but no waveform"):
        combine_benchmark_snr(traces, np.array([0.4, 0.2, 0.2, 0.2]))


def test_batched_snr_flat_cell_among_textured_cells():
    frames, masks, grid, fps = grid_scene(seed=13, noise_cell=(1, 0))
    frames[:, :4, 4:] = 90  # cell 1 is flat: its waveform is rounding residue
    traces = grid_traces_of(frames, masks, grid, fps)
    w = assert_matches_loop(traces)
    assert w[1] == 0.0 and np.all(w[[0, 2, 3]] > 0.0)
    # a cell with no in-band power at all (no peak) keeps weight 0 although
    # its SNR is taken with the others', and the others keep theirs
    waves, ok = traces.waveforms
    waves[1] = 0.0
    assert np.array_equal(assert_matches_loop(traces), w)


def test_snr_weights_memory_is_a_few_spectra():
    # with the waveforms cached, the peak is one block of spectra
    # (periodogram_blocks) and its tapered rows: no copy of the power, nor
    # of the waveforms when every cell is kept
    rng = np.random.default_rng(8)
    pulse = 3.0 * np.sin(2 * np.pi * 1.2 * np.arange(300) / 30.0)
    samples = np.array([150.0, 110.0, 80.0]) + rng.normal(0.0, 1.0, (300, 64, 3))
    traces = GridTraces(samples=samples + pulse[:, None, None], live=np.ones(64, bool), fps=30.0)
    power = periodogram(traces.waveforms[0], 30.0)[1]
    tracemalloc.start()
    try:
        w = snr_weights(traces)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.all(w > 0.0)
    assert peak <= 3.5 * power.nbytes + 64 * 1024


def test_snr_weights_memory_is_a_few_waveforms_and_two_blocks():
    # 64 cells of a 60 s window at 60 fps (n = 3600, nfft 32768), one of them
    # dead, so that the usable waveforms are copied: with the waveforms
    # cached, the peak is a few waveform-sized arrays and the spectrum
    # blocks, not one spectrum of every row (25 MB with its power)
    n, fps = 3600, 60.0
    rng = np.random.default_rng(9)
    pulse = 3.0 * np.sin(2 * np.pi * 1.2 * np.arange(n) / fps)
    samples = np.array([150.0, 110.0, 80.0]) + rng.normal(0.0, 1.0, (n, 64, 3))
    live = np.ones(64, bool)
    live[5] = False
    traces = GridTraces(samples=samples + pulse[:, None, None], live=live, fps=fps)
    waves = traces.waveforms[0]
    block = spectrum_rows(n) * (32768 // 2 + 1) * 16  # a block's complex spectrum
    tracemalloc.start()
    try:
        w = snr_weights(traces)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert w[5] == 0.0 and np.all(np.delete(w, 5) > 0.0)
    assert peak <= 3 * waves.nbytes + 2 * block, (peak, waves.nbytes, block)


SNR_ROW_KINDS = ("pulse", "dead", "flat", "no blue", "silent")


def snr_scene(rows: int, n: int, kinds: list[str], seed: int) -> GridTraces:
    """rows cells of n samples, each a kind drawn from kinds: a pulse in
    noise, dead (empty in the first frame), flat (one colour), no blue (a
    zero channel mean, so no waveform) or silent (its waveform zeroed, so no
    in-band power)."""
    fps = 60.0 if n > 1000 else 30.0
    rng = np.random.default_rng(seed)
    kind = rng.choice(kinds, size=rows)
    t = np.arange(n) / fps
    pulse = np.sin(2 * np.pi * rng.uniform(0.8, 3.0, rows) * t[:, None])
    samples = np.array([150.0, 110.0, 80.0]) + 2.0 * pulse[..., None]
    samples += rng.normal(0.0, 1.0, samples.shape)
    samples[:, kind == "flat"] = 90.0
    samples[:, kind == "no blue", 2] = 0.0
    traces = GridTraces(samples=samples, live=kind != "dead", fps=fps)
    traces.waveforms[0][kind == "silent"] = 0.0
    return traces


@settings(deadline=None, max_examples=30, derandomize=True)
@given(
    n=st.sampled_from([64, 300, 3600]),
    pick=st.integers(0, 5),
    kinds=st.lists(st.sampled_from(SNR_ROW_KINDS), min_size=1, max_size=3).map(lambda k: ["pulse", *k]),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=3600, pick=5, kinds=["pulse", "dead", "flat", "no blue", "silent"], seed=1)
@example(n=300, pick=3, kinds=["pulse", "no blue"], seed=2)
@example(n=64, pick=4, kinds=["dead"], seed=3)
def test_snr_weights_equal_one_periodogram_over_every_row(n, pick, kinds, seed):
    # snr_weights takes its spectra a block of rows at a time; its weights
    # are those of one periodogram over every usable row, bit for bit, for
    # row counts on either side of a block, one window or one per cell
    traces = snr_scene(block_edge_rows(n)[pick], n, kinds, seed)
    for cells in (None, 1):
        try:
            want = snr_weights_by_one_periodogram(traces, cells)
        except RegionError:
            with pytest.raises(RegionError):
                snr_weights(traces, cells)
            continue
        assert np.array_equal(snr_weights(traces, cells), want)


def test_batched_snr_even_fallback_on_flat_cells():
    frames = np.full((300, 4, 4, 3), 90, dtype=np.uint8)
    masks = np.ones((300, 4, 4), dtype=bool)
    masks[:, :2, 2:] = False  # one dead cell among the flat ones
    traces = grid_traces_of(frames, masks, build_grid((0, 0, 4, 4), rows=2, cols=2), 30.0)
    w = assert_matches_loop(traces)
    assert np.array_equal(w, [1 / 3, 0.0, 1 / 3, 1 / 3])


def test_batched_snr_dead_cells_and_single_cell():
    frames, masks, grid, fps = grid_scene(seed=12, noise_cell=(0, 1))
    masks[0, 4:, :4] = False  # cell 2 empty in the first frame only: dead
    traces = grid_traces_of(frames, masks, grid, fps)
    assert traces.live.tolist() == [True, True, False, True]
    assert assert_matches_loop(traces)[2] == 0.0
    one = grid_traces_of(frames, masks, build_grid((0, 0, 8, 8), rows=1, cols=1), fps)
    assert np.array_equal(assert_matches_loop(one), [1.0])


def test_chrom_is_row_zero_of_batched_chrom():
    frames, masks, grid, fps = grid_scene(seed=13, noise_cell=(1, 1))
    traces = grid_traces_of(frames, masks, grid, fps)
    waves, ok = chrom_rows(traces.samples, fps)
    assert ok.all()
    for i in range(traces.n_cells):
        assert np.array_equal(chrom_one(traces.samples[:, i], traces.fps).samples, waves[i])


# ---------------------------------------------------------------------------
# combine_proposed
# ---------------------------------------------------------------------------


def test_combine_proposed_product_weighting_oracle():
    frames, masks, grid, fps = grid_scene(seed=7, noise_cell=(0, 1))
    traces = grid_traces_of(frames, masks, grid, fps)
    snr_w = np.array([0.4, 0.1, 0.3, 0.2])
    dif_w = np.array([0.25, 0.25, 0.4, 0.1])
    out = combine_proposed(traces, snr_w, dif_w)
    product = snr_w * dif_w
    product /= product.sum()
    expect = np.tensordot(product, traces.samples, axes=(0, 1))
    assert out.shape == (frames.shape[0], 3)
    assert np.allclose(out, expect, atol=1e-12)


def test_combine_proposed_zeroes_dead_cells():
    frames, masks, grid, fps = grid_scene(seed=8)
    masks[:, :4, :4] = False  # cell 0 dead
    traces = grid_traces_of(frames, masks, grid, fps)
    snr_w = np.array([0.7, 0.1, 0.1, 0.1])  # deliberately favours the dead cell
    dif_w = np.array([0.7, 0.1, 0.1, 0.1])
    out = combine_proposed(traces, snr_w, dif_w)
    live_product = np.array([0.0, 0.01, 0.01, 0.01])
    live_product /= live_product.sum()
    expect = np.tensordot(live_product, traces.samples, axes=(0, 1))
    assert np.allclose(out, expect, atol=1e-12)


def test_combine_proposed_disjoint_supports_degenerate():
    frames, masks, grid, fps = grid_scene(seed=9)
    traces = grid_traces_of(frames, masks, grid, fps)
    snr_w = np.array([1.0, 0.0, 0.0, 0.0])
    dif_w = np.array([0.0, 1.0, 0.0, 0.0])
    with pytest.raises(RegionError, match="no overlapping support"):
        combine_proposed(traces, snr_w, dif_w)


def test_single_cell_grid_reduces_to_aggregate():
    frames, masks, grid, fps = grid_scene(seed=10)
    grid1 = build_grid((0, 0, 8, 8), rows=1, cols=1)
    traces = grid_traces_of(frames, masks, grid1, fps)
    agg = facial_aggregate_of(frames, masks)
    assert np.allclose(traces.samples[:, 0], agg, atol=1e-12)
    one = np.array([1.0])
    assert np.allclose(combine_proposed(traces, one, one), agg, atol=1e-12)
    assert np.allclose(
        combine_benchmark_snr(traces, one), chrom_one(agg, fps).samples, atol=1e-12
    )
