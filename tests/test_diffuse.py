import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from rppg import diffuse
from rppg.diffuse import (
    diffuse_luminance,
    estimate_diffuse_stack,
    frame_chunks,
    specular_free_min_subtract,
)
from rppg.errors import DataFormatError, RegionError
from rppg.ingest import FrameSequence
from rppg.roi import build_grid

from helpers import diffuse_weights_of, label_map, mixed_frames


def estimate_diffuse(frame):
    """The diffuse estimate of one (h, w, 3) frame."""
    return estimate_diffuse_stack(np.asarray(frame)[None])[0]

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
# Bilateral estimator
# ---------------------------------------------------------------------------


def test_specular_free_frame_is_fixed_point():
    frame = np.full((16, 16, 3), DIFFUSE_RGB, dtype=np.uint8)
    out = estimate_diffuse(frame)
    assert np.abs(out.astype(float) - frame).max() <= 1.0


def test_all_black_stays_black():
    out = estimate_diffuse(np.zeros((8, 8, 3), dtype=np.uint8))
    assert np.all(out == 0.0)


def test_white_patch_removed_within_tolerance():
    frame = patch_frame()
    out = estimate_diffuse(frame)
    on = patch_mask()
    # on the patch: strictly lower than input and within 5 levels of the
    # known diffuse layer underneath
    assert np.all(out[on] < frame[on])
    assert np.abs(out[on] - DIFFUSE_RGB).max() <= 5.0
    # off the patch: unchanged within 1 level
    assert np.abs(out[~on] - frame[~on]).max() <= 1.0


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
    once = np.clip(np.rint(estimate_diffuse(frame)), 0, 255).astype(np.uint8)
    twice = estimate_diffuse(once)
    assert np.abs(twice - once.astype(np.float32)).max() <= 2.0


def test_stack_matches_per_frame_estimates():
    frames = np.stack([patch_frame(), patch_frame(add=30.0)])
    stack = estimate_diffuse_stack(frames)
    assert np.allclose(stack[0], estimate_diffuse(frames[0]))
    assert np.allclose(stack[1], estimate_diffuse(frames[1]))


# Reference: the brute-force kernel, range weights recomputed for every
# offset on every pass, and the 3-wide channel-axis reductions, over whole
# 512-frame chunks. The production kernel must match it bit for bit.


def reference_chromaticities(frames):
    total = frames.sum(axis=-1)
    dark = total < diffuse.DARK_FLOOR
    safe = np.where(dark, 1.0, total)
    smax = np.where(dark, 1.0 / 3.0, frames.max(axis=-1) / safe).astype(np.float32)
    smin = np.where(dark, 1.0 / 3.0, frames.min(axis=-1) / safe).astype(np.float32)
    return smax, smin


def reference_joint_bilateral(lam, guide):
    radius = diffuse.WINDOW_PX // 2
    inv_2ss = 1.0 / (2.0 * diffuse.SPATIAL_SIGMA_PX**2)
    inv_2sr = 1.0 / (2.0 * diffuse.RANGE_SIGMA**2)
    num = np.zeros_like(lam)
    den = np.zeros_like(lam)
    h, w = lam.shape[-2:]
    for dy in range(-radius, radius + 1):
        ys = slice(max(dy, 0), max(h + min(dy, 0), 0))
        yt = slice(max(-dy, 0), max(h + min(-dy, 0), 0))
        for dx in range(-radius, radius + 1):
            xs = slice(max(dx, 0), max(w + min(dx, 0), 0))
            xt = slice(max(-dx, 0), max(w + min(-dx, 0), 0))
            ws = np.float32(np.exp(-(dy * dy + dx * dx) * inv_2ss))
            diff = guide[..., yt, xt] - guide[..., ys, xs]
            wr = np.exp((-inv_2sr) * diff * diff)
            wr *= ws
            num[..., yt, xt] += wr * lam[..., ys, xs]
            den[..., yt, xt] += wr
    return num / den


def reference_reconstruct_diffuse(frames, lam):
    total = frames.sum(axis=-1)
    imax = frames.max(axis=-1)
    imin = frames.min(axis=-1)
    denom = 1.0 - 3.0 * lam
    chromatic = lam > (1.0 / 3.0 + diffuse.ACHROMATIC_EPS)
    ms = np.where(
        chromatic,
        3.0 * (imax - lam * total) / np.where(chromatic, denom, 1.0),
        0.0,
    )
    ms = np.clip(ms, 0.0, 3.0 * imin)
    out = frames - (ms / 3.0)[..., None]
    return np.clip(out, 0.0, 255.0).astype(np.float32)


def reference_diffuse_stack(frames, chunk=512, active_counts=None):
    """The brute-force estimate; appends each pass's count of iterating
    frames to active_counts when given."""
    out = np.empty(frames.shape, dtype=np.float32)
    for start in range(0, frames.shape[0], chunk):
        block = frames[start : start + chunk].astype(np.float32)
        smax, smin = reference_chromaticities(block)
        lam = smax.copy()
        active = np.ones(block.shape[0], dtype=bool)
        for _ in range(diffuse.MAX_ITERATIONS):
            if not active.any():
                break
            if active_counts is not None:
                active_counts.append(int(active.sum()))
            smoothed = reference_joint_bilateral(lam[active], smin[active])
            new = np.maximum(smax[active], smoothed)
            delta = np.abs(new - lam[active]).max(axis=(1, 2))
            lam[active] = new
            active[np.nonzero(active)[0][delta < diffuse.CONVERGENCE_TOL]] = False
        out[start : start + chunk] = reference_reconstruct_diffuse(block, lam)
    return out


@pytest.mark.parametrize("h, w", [(12, 20), (32, 32)])
def test_stack_bit_identical_to_reference(h, w):
    per_chunk = frame_chunks(1, h, w)[0].stop
    n = 2 * per_chunk + 3  # three chunks, the last one partial
    frames = mixed_frames(n, h, w, seed=h)
    assert len(frame_chunks(n, h, w)) == 3
    assert np.array_equal(estimate_diffuse_stack(frames), reference_diffuse_stack(frames))


@pytest.mark.parametrize("h, w", [(1, 1), (3, 8), (4, 4), (8, 3)])
def test_frames_under_window_radius_bit_identical_to_reference(h, w):
    # Offsets reach past the frame edge: they must contribute nothing.
    frames = mixed_frames(5, h, w, seed=h * 10 + w)
    assert np.array_equal(estimate_diffuse_stack(frames), reference_diffuse_stack(frames))


def test_frames_converging_at_different_passes_bit_identical_to_reference():
    # Noise frames take several passes, and some stop before the others:
    # the weight table is compacted to the frames still iterating.
    frames = np.random.default_rng(1).integers(0, 256, size=(9, 32, 32, 3), dtype=np.uint8)
    counts = []
    expect = reference_diffuse_stack(frames, active_counts=counts)
    assert counts == [9, 9, 9, 7]
    assert np.array_equal(estimate_diffuse_stack(frames), expect)


@settings(deadline=None, max_examples=25)
@given(
    st.integers(0, 2**32 - 1), st.integers(1, 24), st.integers(1, 40), st.integers(1, 40)
)
def test_stack_does_not_depend_on_the_chunk_size(seed, n, h, w):
    # A frame's result never depends on the frames sharing its chunk, nor on
    # where its block sits in the chunk: one frame per chunk, two, and the
    # whole stack in one chunk all give the default's bytes.
    frames = mixed_frames(n, h, w, seed=seed)
    expect = estimate_diffuse_stack(frames)
    plane = 4 * (h + diffuse.WINDOW_PX // 2) * (w + diffuse.WINDOW_PX // 2)
    for plane_bytes in (1, 2 * plane, n * plane):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(diffuse, "CHUNK_PLANE_BYTES", plane_bytes)
            assert np.array_equal(estimate_diffuse_stack(frames), expect), plane_bytes


@pytest.mark.parametrize("h, w", [(1, 1), (4, 4), (12, 20)])
def test_stack_does_not_depend_on_the_callers_fp_error_state(h, w):
    # Range weights to the pad underflow to 0 on purpose: the stage allows
    # that itself, so a caller that raises on every FP error gets the same
    # bytes as one that ignores them.
    frames = mixed_frames(6, h, w, seed=h + w)
    with np.errstate(all="ignore"):
        expect = estimate_diffuse_stack(frames)
    with np.errstate(all="raise"):
        assert np.array_equal(estimate_diffuse_stack(frames), expect)


def test_frame_chunks_cover_frames_in_order():
    chunks = frame_chunks(10, 200, 300)  # one frame's plane exceeds the budget
    assert chunks == [slice(i, i + 1) for i in range(10)]
    per_chunk = frame_chunks(1, 8, 8)[0].stop
    plane = 4 * (8 + diffuse.WINDOW_PX // 2) ** 2  # padded float32 plane
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


# ---------------------------------------------------------------------------
# Min-subtract fallback
# ---------------------------------------------------------------------------


FRAMES_11 = mixed_frames(6, 9, 12, seed=11)


def test_min_subtract_bit_identical_to_channel_axis_form():
    inputs = (
        FRAMES_11,
        estimate_diffuse_stack(FRAMES_11),
        np.random.default_rng(11).uniform(0, 255, size=(3, 7, 5, 3)),
    )
    for frames in inputs:
        f = frames.astype(np.float32)
        expect = f - f.min(axis=-1, keepdims=True)
        assert np.array_equal(specular_free_min_subtract(frames), expect), frames.dtype


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
# Luminance and weights
# ---------------------------------------------------------------------------


def test_diffuse_luminance_shapes():
    stack = np.arange(2 * 3 * 4 * 3, dtype=np.float32).reshape(2, 3, 4, 3)
    lum = diffuse_luminance(stack)
    assert lum.shape == (2, 3, 4)
    assert np.allclose(lum, stack.mean(axis=-1))


def test_diffuse_luminance_bit_identical_to_channel_axis_form():
    # What the pipeline and the tests feed it: uint8 RGB and both
    # estimators' float32 stacks.
    inputs = (
        FRAMES_11,
        estimate_diffuse_stack(FRAMES_11),
        specular_free_min_subtract(FRAMES_11),
    )
    for frames in inputs:
        lum = diffuse_luminance(frames)
        assert lum.dtype == np.float64
        assert np.array_equal(lum, frames.mean(axis=-1, dtype=np.float64)), frames.dtype


def test_uniform_frames_give_uniform_weights():
    frames = np.full((3, 8, 8, 3), 90, dtype=np.uint8)
    masks = np.ones((3, 8, 8), dtype=bool)
    grid = build_grid((0, 0, 8, 8), rows=2, cols=2)
    w = diffuse_weights_of(diffuse_luminance(frames), grid, masks)
    assert np.allclose(w, 0.25, atol=1e-12)


def test_weights_match_loop_oracle():
    rng = np.random.default_rng(8)
    frames = rng.integers(0, 256, size=(4, 8, 12, 3), dtype=np.uint8)
    masks = rng.random((4, 8, 12)) < 0.6
    masks[:, 0, 0] = True
    grid = build_grid((1, 0, 10, 8), rows=2, cols=3)
    w = diffuse_weights_of(diffuse_luminance(frames), grid, masks)
    labels = label_map(grid, 12, 8)
    lum = frames.astype(float).mean(axis=-1)
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


def loop_diffuse_weights(diffuse_frames, grid, masks):
    """Reference: the per-frame label_map/bincount loop that diffuse_weights
    replaced."""
    masks = np.asarray(masks, dtype=bool)
    d = np.asarray(diffuse_frames)
    lum = d.astype(np.float64) if d.shape == masks.shape else d.mean(axis=-1, dtype=np.float64)
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
    inputs = (
        diffuse_luminance(frames),  # of uint8 RGB
        diffuse_luminance(estimate_diffuse_stack(frames)),  # of a float32 diffuse stack
        frames.mean(axis=-1),  # float64 luminance
    )
    cases = (
        ((1, 1, 10, 7), 2, 3),  # uneven remainder cells
        ((-3, -2, 11, 8), 3, 2),  # partly outside the frame, negative x/y
        ((5, 4, 12, 9), 2, 4),  # partly outside the frame, right and bottom
        ((0, 0, 12, 9), 1, 1),
    )
    for bbox, rows, cols in cases:
        grid = build_grid(bbox, rows=rows, cols=cols)
        for d in inputs:
            w = diffuse_weights_of(d, grid, masks)
            expect = loop_diffuse_weights(d, grid, masks)
            assert np.allclose(w, expect, rtol=1e-12, atol=0.0), (bbox, d.dtype)
    outside = build_grid((-20, 0, 12, 9), rows=2, cols=2)  # wholly outside
    for d in inputs:
        with pytest.raises(RegionError, match="no masked pixels fall inside the grid"):
            diffuse_weights_of(d, outside, masks)


def test_highlight_cell_suppressed_vs_raw_weighting():
    # a local highlight inside grid cell (0, 1); weights from the
    # specular-suppressed stack must sit below weights from the raw stack
    frames = np.full((2, 8, 8, 3), DIFFUSE_RGB, dtype=np.float64)
    frames[:, 1:3, 5:7] += 60.0
    frames = np.clip(frames, 0, 255).astype(np.uint8)
    masks = np.ones((2, 8, 8), dtype=bool)
    grid = build_grid((0, 0, 8, 8), rows=2, cols=2)
    raw_w = diffuse_weights_of(diffuse_luminance(frames), grid, masks)
    dif_w = diffuse_weights_of(diffuse_luminance(estimate_diffuse_stack(frames)), grid, masks)
    assert raw_w[1] > 0.25
    assert dif_w[1] < raw_w[1]
    # highlight recovered to within a few levels, so the cell sits back
    # near the symmetric baseline
    assert dif_w[1] < 0.26


def test_saturated_cell_suppressed_by_min_subtract():
    frames = np.full((2, 8, 8, 3), DIFFUSE_RGB, dtype=np.float64)
    frames[:, 1:3, 5:7] = 255.0  # clipped achromatic highlight
    frames = frames.astype(np.uint8)
    masks = np.ones((2, 8, 8), dtype=bool)
    grid = build_grid((0, 0, 8, 8), rows=2, cols=2)
    raw_w = diffuse_weights_of(diffuse_luminance(frames), grid, masks)
    sf_w = diffuse_weights_of(diffuse_luminance(specular_free_min_subtract(frames)), grid, masks)
    assert sf_w[1] < 0.25 < raw_w[1]


def test_weights_empty_mask_raises():
    frames = np.full((1, 8, 8, 3), 90, dtype=np.uint8)
    masks = np.zeros((1, 8, 8), dtype=bool)
    grid = build_grid((0, 0, 8, 8), rows=2, cols=2)
    with pytest.raises(RegionError, match="no masked pixels fall inside the grid"):
        diffuse_weights_of(diffuse_luminance(frames), grid, masks)


def test_weights_all_black_fall_back_to_uniform_over_covered_cells():
    frames = np.zeros((2, 8, 8, 3), dtype=np.uint8)
    masks = np.zeros((2, 8, 8), dtype=bool)
    masks[:, 0:4, :] = True  # only the top half has masked pixels
    grid = build_grid((0, 0, 8, 8), rows=2, cols=2)
    w = diffuse_weights_of(diffuse_luminance(frames), grid, masks)
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
    w = diffuse_weights_of(diffuse_luminance(frames), grid, masks)
    assert np.all(w >= 0.0)
    assert abs(w.sum() - 1.0) <= 1e-9
