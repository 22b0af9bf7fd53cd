"""Specular/diffuse separation.

Under the dichromatic reflection model with white illumination a pixel is
I = m_d * D + m_s * (1/3, 1/3, 1/3): a diffuse chromaticity D scaled by
shading plus an achromatic specular lobe. Following the real-time bilateral
scheme of Yang, Wang & Ahuja (ECCV 2010), the maximum-chromaticity image
sigma_max = I_max / (R + G + B) is iteratively smoothed by a joint bilateral
filter (guided by the specular-stable minimum chromaticity) to estimate the
maximum *diffuse* chromaticity Lambda per pixel; the specular magnitude then
follows in closed form,

    m_s = 3 * (I_max - Lambda * I_sum) / (1 - 3 * Lambda),

and is subtracted from all channels. Pixels with Lambda at the achromatic
point 1/3 are left untouched (they carry no chroma evidence either way).

Both estimators take a whole (t, h, w, 3) stack: estimate_diffuse_stack
runs the bilateral scheme, and specular_free_min_subtract is a much
cheaper specular-free fallback (subtract the per-pixel minimum channel)
for large batch runs where only the *weighting* behaviour matters, not the
reconstruction quality. The bilateral iteration stops per frame once no
pixel moves by CONVERGENCE_TOL, or after MAX_ITERATIONS passes.

Frames are processed in chunks sized by bytes, not by frame count: each
chunk holds as many frames as fit CHUNK_PLANE_BYTES per float32 (t, h, w)
plane, so the bilateral temporaries stay cache-sized whatever the frame
size. The bilateral pass and its stopping rule are per frame, so results
do not depend on the chunk size.

The guide (the minimum chromaticity) never changes across a frame's
passes, so the range weights of the window offsets, and their sum, are
computed once per chunk (see _range_weights: 61 arrays for 121 offsets,
as an offset and its mirror share one); each pass then only accumulates
the weighted neighbours. As frames converge the table is compacted to the
frames still iterating, one array at a time, so mirrored offsets keep
sharing one copy. The channel sums, maxima and minima are taken once per
chunk as plane operations. Results are bit-identical to recomputing the
weights on every pass.
"""

from __future__ import annotations

import numpy as np

SPATIAL_SIGMA_PX = 5.0
RANGE_SIGMA = 0.05
WINDOW_PX = 11
CONVERGENCE_TOL = 0.03
MAX_ITERATIONS = 10
ACHROMATIC_EPS = 0.005
DARK_FLOOR = 1e-6
# Bytes per float32 (t, h, w) plane in one chunk: 4 frames at 96x96, small
# enough that a bilateral pass's temporaries stay close to the CPU caches.
CHUNK_PLANE_BYTES = 160 * 1024


def frame_chunks(
    n_frames: int, height: int, width: int, plane_bytes: int = CHUNK_PLANE_BYTES
) -> list[slice]:
    """Slices over n_frames frames, each holding at most plane_bytes of
    float32 (h, w) planes and at least one frame."""
    step = max(1, plane_bytes // (4 * height * width))
    return [slice(start, start + step) for start in range(0, n_frames, step)]


def _channel_planes(frames: np.ndarray):
    """(R + G + B, max channel, min channel) planes of a (..., 3) stack."""
    r, g, b = frames[..., 0], frames[..., 1], frames[..., 2]
    return (r + g) + b, np.maximum(np.maximum(r, g), b), np.minimum(np.minimum(r, g), b)


def _chromaticities(total: np.ndarray, imax: np.ndarray, imin: np.ndarray):
    """Max/min chromaticity maps from a float32 stack's channel planes."""
    dark = total < DARK_FLOOR
    safe = np.where(dark, 1.0, total)
    smax = np.where(dark, 1.0 / 3.0, imax / safe).astype(np.float32)
    smin = np.where(dark, 1.0 / 3.0, imin / safe).astype(np.float32)
    return smax, smin


def _window_offsets(h: int, w: int) -> list[tuple[np.float32, tuple, tuple]]:
    """(spatial weight, source index, target index) of each window offset d
    over (t, h, w) planes, in row-major order of d, so offset i's mirror -d
    is offset n - 1 - i.

    The target pixel p takes its neighbour p + d. Slice ends are clamped
    at 0: an offset beyond a small frame's edge selects nothing (a negative
    end would wrap around).
    """
    radius = WINDOW_PX // 2
    inv_2ss = 1.0 / (2.0 * SPATIAL_SIGMA_PX**2)
    offsets = []
    for dy in range(-radius, radius + 1):
        ys = slice(max(dy, 0), max(h + min(dy, 0), 0))
        yt = slice(max(-dy, 0), max(h + min(-dy, 0), 0))
        for dx in range(-radius, radius + 1):
            xs = slice(max(dx, 0), max(w + min(dx, 0), 0))
            xt = slice(max(-dx, 0), max(w + min(-dx, 0), 0))
            ws = np.float32(np.exp(-(dy * dy + dx * dx) * inv_2ss))
            offsets.append((ws, (..., ys, xs), (..., yt, xt)))
    return offsets


def _range_weights(guide: np.ndarray, offsets) -> tuple[list[np.ndarray], np.ndarray]:
    """Joint-bilateral weights of each window offset over a fixed guide
    (t, h, w), and their sum den.

    Returns one weight array per offset of the first half (and the centre);
    offset i uses entry min(i, n - 1 - i). The weights of d serve its
    mirror -d unshifted: the guide difference only changes sign, and the
    target slice of -d is the source slice of d. den is the sum of every
    offset's weights at its target pixels, in offset order.
    """
    inv_2sr = 1.0 / (2.0 * RANGE_SIGMA**2)
    den = np.zeros_like(guide)
    diff_buf = np.empty(guide.size, dtype=np.float32)
    weights: list[np.ndarray] = []
    last = len(offsets) - 1
    for i, (ws, src, tgt) in enumerate(offsets):
        if i <= last - i:
            source = guide[src]
            diff = diff_buf[: source.size].reshape(source.shape)
            np.subtract(guide[tgt], source, out=diff)
            wr = np.empty(source.shape, dtype=np.float32)
            np.multiply(-inv_2sr, diff, out=wr)
            wr *= diff
            np.exp(wr, out=wr)
            wr *= ws
            weights.append(wr)
        den[tgt] += weights[min(i, last - i)]
    return weights, den


def _joint_bilateral(lam: np.ndarray, weights, den: np.ndarray, offsets) -> np.ndarray:
    """One joint-bilateral pass of lam (t, h, w) with _range_weights' table."""
    num = np.zeros_like(lam)
    prod_buf = np.empty(lam.size, dtype=np.float32)
    last = len(offsets) - 1
    for i, (_, src, tgt) in enumerate(offsets):
        wr = weights[min(i, last - i)]
        prod = prod_buf[: wr.size].reshape(wr.shape)
        np.multiply(wr, lam[src], out=prod)
        num[tgt] += prod
    return num / den


def _reconstruct_diffuse(frames, lam, total, imax, imin) -> np.ndarray:
    denom = 1.0 - 3.0 * lam
    chromatic = lam > (1.0 / 3.0 + ACHROMATIC_EPS)
    ms = np.where(
        chromatic,
        3.0 * (imax - lam * total) / np.where(chromatic, denom, 1.0),
        0.0,
    )
    ms = np.clip(ms, 0.0, 3.0 * imin)
    out = frames - (ms / 3.0)[..., None]
    return np.clip(out, 0.0, 255.0)


def estimate_diffuse_stack(frames: np.ndarray) -> np.ndarray:
    """Diffuse component of a uint8 frame stack (t, h, w, 3), as float32.

    Frames are processed in byte-sized chunks (see frame_chunks); the
    chromaticity smoothing iterates per frame until the max per-pixel change
    drops below CONVERGENCE_TOL or MAX_ITERATIONS passes have run.
    """
    frames = np.asarray(frames)
    out = np.empty(frames.shape, dtype=np.float32)
    offsets = _window_offsets(*frames.shape[1:3])
    for sl in frame_chunks(*frames.shape[:3]):
        block = frames[sl].astype(np.float32)
        total, imax, imin = _channel_planes(block)
        smax, smin = _chromaticities(total, imax, imin)
        weights, den = _range_weights(smin, offsets)
        del smin  # only the weights needed the guide
        lam = smax.copy()
        live = np.arange(block.shape[0])  # frames still iterating
        for _ in range(MAX_ITERATIONS):
            if live.size == 0:
                break
            prev = lam[live]
            new = np.maximum(smax[live], _joint_bilateral(prev, weights, den, offsets))
            delta = np.abs(new - prev).max(axis=(1, 2))
            lam[live] = new
            done = delta < CONVERGENCE_TOL
            if done.any():
                # One array at a time, so compaction adds one plane at most.
                keep = ~done
                live = live[keep]
                for k in range(len(weights)):
                    weights[k] = weights[k][keep]
                den = den[keep]
        # Frames stopped by MAX_ITERATIONS still hold this chunk's weight
        # table: release it before the next one is built.
        del weights, den
        out[sl] = _reconstruct_diffuse(block, lam, total, imax, imin)
    return out


def specular_free_min_subtract(frames: np.ndarray) -> np.ndarray:
    """Cheap specular-free image: subtract the per-pixel minimum channel.

    Removes any additive achromatic lobe exactly (along with a chunk of the
    diffuse body colour, so it is only suitable for relative weighting).
    """
    frames = np.asarray(frames).astype(np.float32)
    imin = np.minimum(np.minimum(frames[..., 0], frames[..., 1]), frames[..., 2])
    frames -= imin[..., None]
    return frames


def diffuse_luminance(diffuse_frames: np.ndarray) -> np.ndarray:
    """(R + G + B) / 3 of a (..., 3) diffuse stack, as float64."""
    d = np.asarray(diffuse_frames)
    lum = np.add(d[..., 0], d[..., 1], dtype=np.float64)
    lum += d[..., 2]
    lum /= 3
    return lum
