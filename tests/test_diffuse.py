import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from rppg import diffuse
from rppg.combine import diffuse_weights
from rppg.diffuse import frame_chunks, min_channel, specular_free_min_subtract
from rppg.errors import DataFormatError, RegionError
from rppg.ingest import FrameSequence
from rppg.roi import build_grid

from helpers import diffuse_sums_of, diffuse_weights_of, label_map, mixed_frames


def estimate_diffuse(frame):
    """The specular-free estimate of one (h, w, 3) frame."""
    return specular_free_min_subtract(np.asarray(frame)[None])[0]

DIFFUSE_RGB = np.array([120.0, 80.0, 60.0])


def patch_frame(h=20, w=20, rect=(8, 8, 4, 4), add=60.0):
    frame = np.full((h, w, 3), DIFFUSE_RGB)
    x, y, pw, ph = rect
    frame[y : y + ph, x : x + pw] += add
    return np.clip(frame, 0, 255).astype(np.uint8)


def patch_mask(h=20, w=20, rect=(8, 8, 4, 4)):
    m = np.zeros((h, w), dtype=bool)
    x, y, pw, ph = rect
    m[y : y + ph, x : x + pw] = True
    return m


# ---------------------------------------------------------------------------
# Separation
# ---------------------------------------------------------------------------


def test_specular_free_frame_is_fixed_point():
    frame = np.full((16, 16, 3), DIFFUSE_RGB - DIFFUSE_RGB.min(), dtype=np.uint8)
    assert np.array_equal(estimate_diffuse(frame), frame)


def test_all_black_stays_black():
    out = estimate_diffuse(np.zeros((8, 8, 3), dtype=np.uint8))
    assert np.all(out == 0.0)


def test_white_patch_removed_within_tolerance():
    # an unclipped achromatic patch over a uniform body is removed exactly:
    # every pixel comes out as the body less its minimum channel
    frame = patch_frame()
    out = estimate_diffuse(frame)
    assert np.all(out[patch_mask()] < frame[patch_mask()])
    assert np.array_equal(np.unique(out.reshape(-1, 3), axis=0), [DIFFUSE_RGB - DIFFUSE_RGB.min()])


def test_non_amplification_on_patch_scene():
    frame = patch_frame(add=80.0)
    out = estimate_diffuse(frame)
    assert np.all(out <= frame.astype(np.float32) + 1e-3)


@settings(deadline=None, max_examples=20)
@given(hnp.arrays(np.uint8, (6, 10, 3), elements=st.integers(0, 255)))
def test_non_amplification_random_frames(frame):
    out = estimate_diffuse(frame)
    assert np.all(out <= frame.astype(np.float32) + 1e-3)
    assert np.all(out >= 0.0)


def test_approximate_idempotence():
    frame = patch_frame()
    once = estimate_diffuse(frame)
    assert once.dtype == np.uint8
    assert np.array_equal(estimate_diffuse(once), once)


def test_stack_matches_per_frame_estimates():
    frames = np.stack([patch_frame(), patch_frame(add=30.0)])
    stack = specular_free_min_subtract(frames)
    assert np.array_equal(stack[0], estimate_diffuse(frames[0]))
    assert np.array_equal(stack[1], estimate_diffuse(frames[1]))


def test_frame_chunks_cover_frames_in_order():
    chunks = frame_chunks(10, 200, 300)  # one frame's plane exceeds the budget
    assert chunks == [slice(i, i + 1) for i in range(10)]
    per_chunk = frame_chunks(1, 8, 8)[0].stop
    plane = 4 * (8 + diffuse.CHUNK_MARGIN_PX) ** 2  # float32 plane with its margin
    assert per_chunk * plane <= diffuse.CHUNK_PLANE_BYTES < (per_chunk + 1) * plane
    for per in (1, 3):
        chunks = frame_chunks(1000, 8, 8, per)
        assert all(sl.stop - sl.start == per * per_chunk for sl in chunks)
        covered = np.concatenate([np.arange(1000)[sl] for sl in chunks])
        assert np.array_equal(covered, np.arange(1000))


def test_stack_rejects_bad_shape():
    # The estimators trust their input's shape: a 3-D stack is refused where
    # frames enter the toolkit, as a FrameSequence.
    with pytest.raises(DataFormatError, match=r"must be \(n, h, w, 3\)"):
        FrameSequence(np.zeros((4, 4, 4), dtype=np.uint8), 30.0)


FRAMES_11 = mixed_frames(6, 9, 12, seed=11)


def test_min_subtract_bit_identical_to_channel_axis_form():
    # in the frames' own dtype: uint8 frames give uint8 diffuse frames
    inputs = (
        FRAMES_11,
        FRAMES_11.astype(np.float32) / 3,
        np.random.default_rng(11).uniform(0, 255, size=(3, 7, 5, 3)),
    )
    for frames in inputs:
        out = specular_free_min_subtract(frames)
        assert out.dtype == frames.dtype
        assert np.array_equal(out, frames - frames.min(axis=-1, keepdims=True)), frames.dtype


def test_min_subtract_removes_additive_achromatic_layer():
    rng = np.random.default_rng(3)
    body = rng.uniform(10, 180, size=(4, 6, 6, 3))
    specular = rng.uniform(0, 60, size=(4, 6, 6, 1))
    a = specular_free_min_subtract(body)
    b = specular_free_min_subtract(body + specular)
    assert np.allclose(a, b, atol=1e-4)


def test_min_subtract_zero_min_channel_and_bounds():
    frames = np.random.default_rng(4).integers(0, 256, size=(2, 5, 5, 3), dtype=np.uint8)
    out = specular_free_min_subtract(frames)
    assert np.allclose(out.min(axis=-1), 0.0)
    assert np.all(out <= frames)
    assert np.all(out >= 0.0)


def test_min_subtract_kills_saturated_highlights():
    frames = np.full((1, 4, 4, 3), 255, dtype=np.uint8)
    assert np.all(specular_free_min_subtract(frames) == 0.0)


# ---------------------------------------------------------------------------
# Min channel and weights
# ---------------------------------------------------------------------------


def test_min_channel_shapes():
    stack = np.arange(2 * 3 * 4 * 3, dtype=np.uint8).reshape(2, 3, 4, 3)
    mins = min_channel(stack)
    assert mins.shape == (2, 3, 4) and mins.dtype == np.uint8
    assert np.array_equal(mins, stack[..., 0])


def test_min_channel_bit_identical_to_channel_axis_form():
    # What the pass feeds it, uint8 RGB, and float stacks, in their dtype.
    inputs = (
        FRAMES_11,
        FRAMES_11.astype(np.float32) / 3,
        FRAMES_11[:, ::-1, ::2],  # a strided view
    )
    for frames in inputs:
        mins = min_channel(frames)
        assert mins.dtype == frames.dtype
        assert np.array_equal(mins, frames.min(axis=-1)), frames.dtype


def raw_weights_of(frames, grid, masks):
    """diffuse_weights with no minimum subtracted: the weights of the raw
    luminance (R + G + B) / 3."""
    rgb, mins, counts = diffuse_sums_of(frames, masks, grid)
    return diffuse_weights(rgb, 0 * mins, counts)


def diffuse_lum(frames):
    """The per-pixel diffuse luminance of min_subtract, float64 (t, h, w)."""
    return frames.mean(axis=-1) - frames.min(axis=-1)


def test_uniform_frames_give_uniform_weights():
    frames = np.full((3, 8, 8, 3), DIFFUSE_RGB, dtype=np.uint8)
    masks = np.ones((3, 8, 8), dtype=bool)
    grid = build_grid((0, 0, 8, 8), rows=2, cols=2)
    w = diffuse_weights_of(frames, grid, masks)
    assert np.allclose(w, 0.25, atol=1e-12)


def test_weights_match_loop_oracle():
    rng = np.random.default_rng(8)
    frames = rng.integers(0, 256, size=(4, 8, 12, 3), dtype=np.uint8)
    masks = rng.random((4, 8, 12)) < 0.6
    masks[:, 0, 0] = True
    grid = build_grid((1, 0, 10, 8), rows=2, cols=3)
    w = diffuse_weights_of(frames, grid, masks)
    labels = label_map(grid, 12, 8)
    lum = diffuse_lum(frames)
    expect = np.zeros(6)
    for i in range(6):
        vals = [
            lum[t][masks[t] & (labels == i)]
            for t in range(4)
            if (masks[t] & (labels == i)).any()
        ]
        flat = np.concatenate(vals) if vals else np.array([])
        expect[i] = flat.mean() if flat.size else 0.0
    expect = expect / expect.sum()
    assert np.allclose(w, expect, atol=1e-9)


def loop_diffuse_weights(lum, grid, masks):
    """Reference: the per-frame label_map/bincount loop over a float64
    per-pixel luminance lum (t, h, w) that diffuse_weights replaced."""
    masks = np.asarray(masks, dtype=bool)
    labels = label_map(grid, masks.shape[2], masks.shape[1])
    n = (grid[0].size - 1) * (grid[1].size - 1)
    sums = np.zeros(n)
    counts = np.zeros(n)
    for t in range(masks.shape[0]):
        sel = masks[t] & (labels >= 0)
        lab = labels[sel]
        sums += np.bincount(lab, weights=lum[t][sel], minlength=n)
        counts += np.bincount(lab, minlength=n)
    if counts.sum() == 0:
        raise RegionError("no masked pixels fall inside the grid")
    weights = np.where(counts > 0, sums / np.maximum(counts, 1), 0.0)
    total = weights.sum()
    if total <= 0:
        return (counts > 0) / max(1, int((counts > 0).sum()))
    return weights / total


def test_weights_match_bincount_loop_oracle():
    frames = mixed_frames(6, 9, 12, seed=9)
    masks = np.random.default_rng(9).random((6, 9, 12)) < 0.7
    masks[3:, 1:4, 1:4] = False  # a cell empties mid-window
    weights = (  # of the diffuse and of the raw luminance
        (diffuse_weights_of, diffuse_lum(frames)),
        (raw_weights_of, frames.mean(axis=-1)),
    )
    cases = (
        ((1, 1, 10, 7), 2, 3),  # uneven remainder cells
        ((-3, -2, 11, 8), 3, 2),  # partly outside the frame, negative x/y
        ((5, 4, 12, 9), 2, 4),  # partly outside the frame, right and bottom
        ((0, 0, 12, 9), 1, 1),
    )
    for bbox, rows, cols in cases:
        grid = build_grid(bbox, rows=rows, cols=cols)
        for weights_of, lum in weights:
            w = weights_of(frames, grid, masks)
            expect = loop_diffuse_weights(lum, grid, masks)
            assert np.allclose(w, expect, rtol=1e-12, atol=0.0), (bbox, weights_of)
    outside = build_grid((-20, 0, 12, 9), rows=2, cols=2)  # wholly outside
    for weights_of, _ in weights:
        with pytest.raises(RegionError, match="no masked pixels fall inside the grid"):
            weights_of(frames, outside, masks)


def test_highlight_cell_suppressed_vs_raw_weighting():
    # a local highlight inside grid cell (0, 1); weights from the
    # specular-suppressed stack must sit below weights from the raw stack
    frames = np.full((2, 8, 8, 3), DIFFUSE_RGB, dtype=np.float64)
    frames[:, 1:3, 5:7] += 60.0
    frames = np.clip(frames, 0, 255).astype(np.uint8)
    masks = np.ones((2, 8, 8), dtype=bool)
    grid = build_grid((0, 0, 8, 8), rows=2, cols=2)
    raw_w = raw_weights_of(frames, grid, masks)
    dif_w = diffuse_weights_of(frames, grid, masks)
    assert raw_w[1] > 0.25
    assert dif_w[1] < raw_w[1]
    # the unclipped highlight is removed, so the cell sits back at the
    # symmetric baseline
    assert dif_w[1] < 0.26


def test_saturated_cell_suppressed_by_min_subtract():
    frames = np.full((2, 8, 8, 3), DIFFUSE_RGB, dtype=np.float64)
    frames[:, 1:3, 5:7] = 255.0  # clipped achromatic highlight
    frames = frames.astype(np.uint8)
    masks = np.ones((2, 8, 8), dtype=bool)
    grid = build_grid((0, 0, 8, 8), rows=2, cols=2)
    raw_w = raw_weights_of(frames, grid, masks)
    sf_w = diffuse_weights_of(frames, grid, masks)
    assert sf_w[1] < 0.25 < raw_w[1]


def test_weights_empty_mask_raises():
    frames = np.full((1, 8, 8, 3), 90, dtype=np.uint8)
    masks = np.zeros((1, 8, 8), dtype=bool)
    grid = build_grid((0, 0, 8, 8), rows=2, cols=2)
    with pytest.raises(RegionError, match="no masked pixels fall inside the grid"):
        diffuse_weights_of(frames, grid, masks)


def test_weights_all_black_fall_back_to_uniform_over_covered_cells():
    frames = np.zeros((2, 8, 8, 3), dtype=np.uint8)
    masks = np.zeros((2, 8, 8), dtype=bool)
    masks[:, 0:4, :] = True  # only the top half has masked pixels
    grid = build_grid((0, 0, 8, 8), rows=2, cols=2)
    w = diffuse_weights_of(frames, grid, masks)
    assert np.allclose(w, [0.5, 0.5, 0.0, 0.0])


@settings(deadline=None, max_examples=40)
@given(st.integers(0, 2**31 - 1), st.integers(1, 3), st.integers(1, 3))
def test_weight_normalization_property(seed, rows, cols):
    rng = np.random.default_rng(seed)
    frames = rng.integers(0, 256, size=(2, 6, 6, 3), dtype=np.uint8)
    masks = rng.random((2, 6, 6)) < 0.5
    if not masks.any():
        masks[0, 3, 3] = True
    grid = build_grid((0, 0, 6, 6), rows=rows, cols=cols)
    w = diffuse_weights_of(frames, grid, masks)
    assert np.all(w >= 0.0)
    assert abs(w.sum() - 1.0) <= 1e-9
