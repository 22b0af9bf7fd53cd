"""Specular/diffuse separation.

Under the dichromatic reflection model with white illumination a pixel is
I = m_d * D + m_s * (1/3, 1/3, 1/3): a diffuse chromaticity D scaled by
shading plus an achromatic specular lobe. Following the real-time bilateral
scheme of Yang, Wang & Ahuja (ECCV 2010), the maximum-chromaticity image
sigma_max = I_max / (R + G + B) is iteratively smoothed by a joint bilateral
filter (guided by the minimum chromaticity, which is not specular-stable:
an achromatic lobe pulls it toward 1/3) to estimate the maximum *diffuse*
chromaticity Lambda per pixel; the specular magnitude then follows in
closed form,

    m_s = 3 * (I_max - Lambda * I_sum) / (1 - 3 * Lambda),

and is subtracted from all channels. Pixels with Lambda at the achromatic
point 1/3 are left untouched (they carry no chroma evidence either way).

Both estimators take a whole (t, h, w, 3) stack: estimate_diffuse_stack
runs the bilateral scheme, and specular_free_min_subtract is a much
cheaper specular-free fallback (subtract the per-pixel minimum channel)
for large batch runs where only the *weighting* behaviour matters, not the
reconstruction quality. The bilateral iteration stops per frame once no
pixel moves by CONVERGENCE_TOL, or after MAX_ITERATIONS passes.

The bilateral runs in diffuse chunks (frame_chunks, the one chunk rule):
as many frames as fit CHUNK_PLANE_BYTES per padded float32 plane. Each
frame gets r = WINDOW_PX // 2 pad rows and columns, and a chunk's blocks
lie end to end after one block of pad, so offset (dy, dx) is the flat
shift dy * (w + r) + dx and each weight and sum of an offset is one
contiguous slice. Neighbours outside the frame read the pad, whose guide
PAD_GUIDE makes their range weight exactly 0. The weights are computed
once per chunk (61 rows for 121 offsets: an offset and its mirror share
one) and compacted to the frames still iterating. Results do not depend on
the chunk size and are bit-identical to recomputing the weights every pass
over unpadded frames.
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
# Bytes per padded float32 plane of a chunk (4 frames at 96x96): cache-sized.
CHUNK_PLANE_BYTES = 160 * 1024
# The pad's guide: its range weight to any guide in [0, 1] underflows to 0.
PAD_GUIDE = 2.0


def frame_chunks(n_frames: int, height: int, width: int, per: int = 1) -> list[slice]:
    """Slices of per whole diffuse chunks over n_frames (h, w) frames, the
    last maybe short. A diffuse chunk is as many frames, at least one, as fit
    CHUNK_PLANE_BYTES per padded float32 plane, (h + r) x (w + r)."""
    pad = WINDOW_PX // 2
    step = per * max(1, CHUNK_PLANE_BYTES // (4 * (height + pad) * (width + pad)))
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


def _window_offsets(w: int) -> list[tuple[np.float32, int]]:
    """(spatial weight, flat shift) of each window offset d = (dy, dx) in
    row-major order of d, so offset i's mirror -d is offset n - 1 - i: in
    w-wide padded blocks, target p takes its neighbour p + dy * (w + r) + dx."""
    radius = WINDOW_PX // 2
    inv_2ss = 1.0 / (2.0 * SPATIAL_SIGMA_PX**2)
    return [
        (np.float32(np.exp(-(dy * dy + dx * dx) * inv_2ss)), dy * (w + radius) + dx)
        for dy in range(-radius, radius + 1)
        for dx in range(-radius, radius + 1)
    ]


def _range_weights(guide: np.ndarray, offsets, table, den: np.ndarray, diff) -> None:
    """Fills table and den (t, h + r, w + r) with each window offset's
    joint-bilateral weights, and their offset-order sum, for a padded guide
    (t + 1, h + r, w + r) whose first block is pad. Row k serves offset k and
    its mirror n - 1 - k: at j, the weight j takes from j + s (s < 0 is
    offset k's shift) and j + s takes from j. So offset i with shift s
    weights target p by row[p + max(s, 0)]. diff is scratch.
    """
    inv_2sr = 1.0 / (2.0 * RANGE_SIGMA**2)
    flat, margin, diff = guide.reshape(-1), guide[0].size, diff.reshape(-1)[: den.size]
    span, last = den.size - max(shift for _, shift in offsets), len(offsets) - 1
    den.fill(0.0)
    for i, (ws, shift) in enumerate(offsets):
        row = table[min(i, last - i)].reshape(-1)
        if i <= last - i:
            np.subtract(flat[margin:], flat[margin + shift : margin + shift + den.size], out=diff)
            np.multiply(-inv_2sr, diff, out=row)
            row *= diff
            np.exp(row, out=row)
            row *= ws
        start = max(shift, 0)
        den.reshape(-1)[:span] += row[start : start + span]


def _joint_bilateral(lam: np.ndarray, table, offsets, num: np.ndarray, prod) -> None:
    """Joint-bilateral numerator of one pass into num (t, h + r, w + r), for lam
    laid out as _range_weights' guide with any finite pad; prod is scratch."""
    flat, margin, sums = lam.reshape(-1), lam[0].size, num.reshape(-1)
    span, last = sums.size - max(shift for _, shift in offsets), len(offsets) - 1
    prod = prod.reshape(-1)[:span]
    sums.fill(0.0)
    for i, (_, shift) in enumerate(offsets):
        start = max(shift, 0)
        row = table[min(i, last - i)].reshape(-1)[start : start + span]
        np.multiply(row, flat[margin + shift : margin + shift + span], out=prod)
        sums[:span] += prod


def _smooth(smax: np.ndarray, lam: np.ndarray, smin: np.ndarray, chunks) -> None:
    """Iterates lam (t, h, w) in place, chunk by chunk: the maximum of smax
    and lam's joint bilateral guided by smin. All chunks share one set of
    buffers, as fresh ones would be faulted in again for each."""
    h, w = lam.shape[1:]
    radius = WINDOW_PX // 2
    offsets = _window_offsets(w)
    blocks = (max((len(lam[sl]) for sl in chunks), default=0), h + radius, w + radius)
    table = [np.empty(blocks, dtype=np.float32) for _ in range(len(offsets) // 2 + 1)]
    pad, den, num, prod = np.empty((4, blocks[0] + 1, *blocks[1:]), dtype=np.float32)
    for sl in chunks:
        lam_c, smax_c = lam[sl], smax[sl]
        live = np.arange(len(lam_c))  # frames still iterating
        padded = pad[: live.size + 1]  # the guide, then the live lam, on one pad
        padded.fill(PAD_GUIDE)
        padded[1:, :h, :w] = smin[sl]
        rows, sums = [row[: live.size] for row in table], den[: live.size]
        with np.errstate(under="ignore"):  # on purpose, in the pad
            _range_weights(padded, offsets, rows, sums, prod)
        for _ in range(MAX_ITERATIONS):
            if live.size == 0:
                break
            prev = padded[1 : live.size + 1, :h, :w]
            prev[...] = lam_c[live]
            _joint_bilateral(padded[: live.size + 1], rows, offsets, num[: live.size], prod)
            new = num[: live.size, :h, :w]  # the numerator's frames, divided in place
            np.divide(new, sums[:, :h, :w], out=new)
            np.maximum(smax_c[live], new, out=new)
            lam_c[live] = new
            prev -= new  # the change, negated, in place
            keep = np.abs(prev, out=prev).max(axis=(1, 2)) >= CONVERGENCE_TOL
            live = live[keep]
            if 0 < live.size < keep.size:
                for a in (*rows, sums):  # one copy of one plane at a time
                    a[: live.size] = a[keep]
                rows, sums = [a[: live.size] for a in rows], sums[: live.size]


def _reconstruct_diffuse(frames, lam) -> np.ndarray:
    total, imax, imin = _channel_planes(frames)
    denom = 1.0 - 3.0 * lam
    chromatic = lam > (1.0 / 3.0 + ACHROMATIC_EPS)
    ms = np.where(chromatic, 3.0 * (imax - lam * total) / np.where(chromatic, denom, 1.0), 0.0)
    ms = np.clip(ms, 0.0, 3.0 * imin)
    return np.clip(frames - (ms / 3.0)[..., None], 0.0, 255.0)


def estimate_diffuse_stack(frames: np.ndarray) -> np.ndarray:
    """Diffuse component of a uint8 frame stack (t, h, w, 3), as float32.

    Frames are processed in diffuse chunks (see frame_chunks); the
    chromaticity smoothing iterates per frame until the max per-pixel change
    drops below CONVERGENCE_TOL or MAX_ITERATIONS passes have run.
    """
    frames = np.asarray(frames)
    out = np.empty(frames.shape, dtype=np.float32)
    chunks = frame_chunks(*frames.shape[:3])
    # Until the last loop, the output's channels hold each frame's sigma_max,
    # Lambda and guide, so no chunk's planes are alive next to _smooth's.
    smax, lam, smin = (out[..., c] for c in range(3))
    for sl in chunks:
        smax[sl], smin[sl] = _chromaticities(*_channel_planes(frames[sl].astype(np.float32)))
    lam[...] = smax
    _smooth(smax, lam, smin, chunks)
    for sl in chunks:
        out[sl] = _reconstruct_diffuse(frames[sl].astype(np.float32), lam[sl].copy())
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
