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
do not depend on the chunk size. Within a pass the range weight of an
offset d is reused, unshifted, for its mirror -d: the guide difference
only changes sign, and the target slice of -d is the source slice of d.
That halves the exp passes and leaves every sum bit-identical.
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


def frame_chunks(n_frames: int, height: int, width: int) -> list[slice]:
    """Slices over n_frames frames, each holding at most CHUNK_PLANE_BYTES of
    float32 (h, w) planes and at least one frame."""
    step = max(1, CHUNK_PLANE_BYTES // (4 * height * width))
    return [slice(start, start + step) for start in range(0, n_frames, step)]


def _chromaticities(frames: np.ndarray):
    """Max/min chromaticity maps for a float32 frame stack (t, h, w, 3)."""
    total = frames.sum(axis=-1)
    dark = total < DARK_FLOOR
    safe = np.where(dark, 1.0, total)
    smax = np.where(dark, 1.0 / 3.0, frames.max(axis=-1) / safe).astype(np.float32)
    smin = np.where(dark, 1.0 / 3.0, frames.min(axis=-1) / safe).astype(np.float32)
    return smax, smin


def _joint_bilateral(lam: np.ndarray, guide: np.ndarray) -> np.ndarray:
    """One joint-bilateral pass of lam (t, h, w), range-guided by guide."""
    radius = WINDOW_PX // 2
    inv_2ss = 1.0 / (2.0 * SPATIAL_SIGMA_PX**2)
    inv_2sr = 1.0 / (2.0 * RANGE_SIGMA**2)
    num = np.zeros_like(lam)
    den = np.zeros_like(lam)
    h, w = lam.shape[-2:]
    # Contiguous scratch, viewed at each offset's overlap shape.
    diff_buf = np.empty(lam.size, dtype=np.float32)
    prod_buf = np.empty(lam.size, dtype=np.float32)
    # Weights of the first offset of each mirrored pair, keyed by the
    # offset that will reuse them.
    mirrored: dict[tuple[int, int], np.ndarray] = {}
    # Slice ends are clamped at 0: an offset beyond a small frame's edge
    # selects nothing (a negative end would wrap around).
    for dy in range(-radius, radius + 1):
        ys = slice(max(dy, 0), max(h + min(dy, 0), 0))
        yt = slice(max(-dy, 0), max(h + min(-dy, 0), 0))
        for dx in range(-radius, radius + 1):
            xs = slice(max(dx, 0), max(w + min(dx, 0), 0))
            xt = slice(max(-dx, 0), max(w + min(-dx, 0), 0))
            src = lam[..., ys, xs]
            wr = mirrored.pop((dy, dx), None)
            if wr is None:
                ws = np.float32(np.exp(-(dy * dy + dx * dx) * inv_2ss))
                diff = diff_buf[: src.size].reshape(src.shape)
                np.subtract(guide[..., yt, xt], guide[..., ys, xs], out=diff)
                wr = np.empty(src.shape, dtype=np.float32)
                np.multiply(-inv_2sr, diff, out=wr)
                wr *= diff
                np.exp(wr, out=wr)
                wr *= ws
                if (dy, dx) != (0, 0):
                    mirrored[(-dy, -dx)] = wr
            prod = prod_buf[: src.size].reshape(src.shape)
            np.multiply(wr, src, out=prod)
            num[..., yt, xt] += prod
            den[..., yt, xt] += wr
    return num / den


def _reconstruct_diffuse(frames: np.ndarray, lam: np.ndarray) -> np.ndarray:
    total = frames.sum(axis=-1)
    imax = frames.max(axis=-1)
    imin = frames.min(axis=-1)
    denom = 1.0 - 3.0 * lam
    chromatic = lam > (1.0 / 3.0 + ACHROMATIC_EPS)
    ms = np.where(
        chromatic,
        3.0 * (imax - lam * total) / np.where(chromatic, denom, 1.0),
        0.0,
    )
    ms = np.clip(ms, 0.0, 3.0 * imin)
    out = frames - (ms / 3.0)[..., None]
    return np.clip(out, 0.0, 255.0).astype(np.float32)


def estimate_diffuse_stack(frames: np.ndarray) -> np.ndarray:
    """Diffuse component of a uint8 frame stack (t, h, w, 3), as float32.

    Frames are processed in byte-sized chunks (see frame_chunks); the
    chromaticity smoothing iterates per frame until the max per-pixel change
    drops below CONVERGENCE_TOL or MAX_ITERATIONS passes have run.
    """
    frames = np.asarray(frames)
    if frames.ndim != 4 or frames.shape[-1] != 3:
        raise ValueError(f"expected (t, h, w, 3) frames, got {frames.shape}")
    out = np.empty(frames.shape, dtype=np.float32)
    for sl in frame_chunks(*frames.shape[:3]):
        block = frames[sl].astype(np.float32)
        smax, smin = _chromaticities(block)
        lam = smax.copy()
        active = np.ones(block.shape[0], dtype=bool)
        for _ in range(MAX_ITERATIONS):
            if not active.any():
                break
            smoothed = _joint_bilateral(lam[active], smin[active])
            new = np.maximum(smax[active], smoothed)
            delta = np.abs(new - lam[active]).max(axis=(1, 2))
            lam[active] = new
            active[np.nonzero(active)[0][delta < CONVERGENCE_TOL]] = False
        out[sl] = _reconstruct_diffuse(block, lam)
    return out


def specular_free_min_subtract(frames: np.ndarray) -> np.ndarray:
    """Cheap specular-free image: subtract the per-pixel minimum channel.

    Removes any additive achromatic lobe exactly (along with a chunk of the
    diffuse body colour, so it is only suitable for relative weighting).
    """
    frames = np.asarray(frames).astype(np.float32)
    return frames - frames.min(axis=-1, keepdims=True)


def diffuse_luminance(diffuse_frames: np.ndarray) -> np.ndarray:
    """(R + G + B) / 3 of a (..., 3) diffuse stack, as float64."""
    return np.asarray(diffuse_frames).mean(axis=-1, dtype=np.float64)
