"""Specular/diffuse separation.

Under the dichromatic reflection model with white illumination a pixel is
I = m_d * D + m_s * (1/3, 1/3, 1/3): a diffuse chromaticity D scaled by
shading plus an achromatic specular lobe. specular_free_min_subtract
subtracts each pixel's minimum channel, which removes any such lobe
exactly, along with part of the diffuse body colour: the result serves
the diffuse *weighting*, not a reconstruction of the skin. A white-clipped
pixel, which breaks the model, comes out 0. The pass pools only
min_channel (see combine.diffuse_weights); --dump-diffuse separates.

frame_chunks is the one chunk rule of the package: the pass, the diffuse
dump and the stream readers take frames as many at a time as fit
CHUNK_PLANE_BYTES per float32 plane of each frame and a CHUNK_MARGIN_PX
margin.
"""

from __future__ import annotations

import numpy as np

# Bytes per float32 plane of a chunk (4 frames at 96x96): cache-sized.
CHUNK_PLANE_BYTES = 160 * 1024
# Rows and columns added to each frame's plane in the chunk rule. Without
# them chunks hold more frames: the same results, at a higher peak memory.
CHUNK_MARGIN_PX = 5


def frame_chunks(n_frames: int, height: int, width: int, per: int = 1) -> list[slice]:
    """Slices of per whole diffuse chunks over n_frames (h, w) frames, the
    last maybe short. A diffuse chunk is as many frames, at least one, as fit
    CHUNK_PLANE_BYTES per float32 plane of (h + m) x (w + m), m the margin
    CHUNK_MARGIN_PX."""
    m = CHUNK_MARGIN_PX
    step = per * max(1, CHUNK_PLANE_BYTES // (4 * (height + m) * (width + m)))
    return [slice(start, start + step) for start in range(0, n_frames, step)]


def min_channel(frames: np.ndarray) -> np.ndarray:
    """Each pixel's minimum channel of a (..., 3) stack, in its dtype."""
    return np.minimum(np.minimum(frames[..., 0], frames[..., 1]), frames[..., 2])


def specular_free_min_subtract(frames: np.ndarray) -> np.ndarray:
    """Specular-free stack (t, h, w, 3), in the frames' dtype: each pixel
    less its minimum channel."""
    return frames - min_channel(frames)[..., None]
