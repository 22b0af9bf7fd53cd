"""Shared builders for the test suite."""

from __future__ import annotations

import numpy as np
from hypothesis import strategies as st

from rppg.chrom import chrom_rows
from rppg.combine import (
    diffuse_weights,
    facial_aggregate,
    grid_traces,
    masked_planes,
    pool_planes,
)
from rppg.errors import SignalError
from rppg.ingest import FrameSequence, LandmarkRecord
from rppg.signals import PulseWaveform


def flat_sequence(n=64, h=12, w=16, fps=16.0, level=(120, 90, 70)) -> FrameSequence:
    frames = np.empty((n, h, w, 3), dtype=np.uint8)
    frames[...] = np.asarray(level, dtype=np.uint8)
    return FrameSequence(frames=frames, fps=fps)


def full_sidecar(seq: FrameSequence, bbox=None) -> tuple[LandmarkRecord, ...]:
    """One record per frame, bbox covering the whole frame, no cutouts."""
    bbox = tuple(bbox) if bbox is not None else (0, 0, seq.width, seq.height)
    return tuple(
        LandmarkRecord(frame=i, bbox=bbox, eye_polygons=((), ()), mouth_polygon=())
        for i in range(seq.count)
    )


def pulsed_sequence(
    n=300,
    h=12,
    w=16,
    fps=30.0,
    hz=1.2,
    base=(150.0, 110.0, 80.0),
    amp=(4.0, 6.0, 2.0),
    seed=None,
    noise=0.0,
) -> FrameSequence:
    """Uniform frames whose RGB means carry a clean sinusoidal pulse."""
    t = np.arange(n) / fps
    pulse = np.sin(2 * np.pi * hz * t)
    levels = np.asarray(base) + np.outer(pulse, np.asarray(amp))
    frames = np.repeat(levels[:, None, None, :], h, axis=1)
    frames = np.repeat(frames, w, axis=2)
    if noise > 0.0:
        rng = np.random.default_rng(seed)
        frames = frames + rng.normal(0.0, noise, frames.shape)
    return FrameSequence(
        frames=np.clip(np.rint(frames), 0, 255).astype(np.uint8), fps=fps
    )


def mixed_frames(n, h, w, seed=0) -> np.ndarray:
    """Random uint8 frames seeded with the diffuse estimator's edge cases:
    dark (all-zero), achromatic grey, fully saturated and one-channel-clipped
    pixels."""
    rng = np.random.default_rng(seed)
    frames = rng.integers(0, 256, size=(n, h, w, 3), dtype=np.uint8)
    kind = rng.integers(0, 5, size=(n, h, w))
    frames[kind == 0] = 0
    grey = rng.integers(1, 256, size=(n, h, w), dtype=np.uint8)
    frames[kind == 1] = grey[kind == 1][:, None]
    frames[kind == 2] = 255
    frames[..., 0][kind == 3] = 255
    return frames


def label_map(edges, width: int, height: int) -> np.ndarray:
    """Cell index per pixel of a (height, width) frame, for a grid's
    (y_edges, x_edges); -1 outside the bbox. Cells are clipped to the frame
    on every side. The loop oracles index pixels by cell with it."""
    labels = np.full((height, width), -1, dtype=np.int32)
    y_edges, x_edges = np.maximum(edges[0], 0), np.maximum(edges[1], 0)
    cols = x_edges.size - 1
    for r in range(y_edges.size - 1):
        for c in range(cols):
            labels[y_edges[r] : y_edges[r + 1], x_edges[c] : x_edges[c + 1]] = r * cols + c
    return labels


def chrom_one(samples: np.ndarray, fps: float) -> PulseWaveform:
    """CHROM of one (n, 3) RGB trace: the one-row chrom_rows call. A zero
    channel mean raises, as the pipeline does for a window."""
    waves, ok = chrom_rows(np.asarray(samples, dtype=np.float64)[None], fps)
    if not ok[0]:
        raise SignalError(f"channel means {np.mean(samples, axis=0)}")
    return PulseWaveform(waves[0], fps)


def pooled_sums(values, masks, edges) -> tuple[np.ndarray, np.ndarray]:
    """pool_planes over the masked_planes of a whole stack, values (t, h, w,
    ...) and masks (t, h, w), split as the pass hands it on: contiguous sums
    (t, rows, cols, ...) and pixel counts (t, rows, cols), both float64."""
    pooled = pool_planes(masked_planes(masks, values), *edges)
    sums = pooled[..., :-1].reshape(pooled.shape[:3] + np.shape(values)[3:])
    return np.ascontiguousarray(sums), np.ascontiguousarray(pooled[..., -1])


# The window-level compositions the pipeline makes from pool_planes's
# output: pool a whole window's pixels, then reduce its per-frame sums.


def grid_traces_of(frames, masks, edges, fps: float):
    return grid_traces(*pooled_sums(frames, masks, edges), fps)


def facial_aggregate_of(frames, masks) -> np.ndarray:
    height, width = np.shape(masks)[1:]
    return facial_aggregate(*pooled_sums(frames, masks, ([0, height], [0, width])))


def diffuse_weights_of(lum, edges, masks) -> np.ndarray:
    return diffuse_weights(*pooled_sums(lum, masks, edges))


# Values that break a JSON field: out of float range, not finite, the wrong
# type, a bool where a number goes, an integer past 64 bits, bad JSON.
JSON_JUNK = (
    "1e400", "-1e400", "NaN", "Infinity", "null", "true", '"7"', "1.5", "-1", "0",
    "[]", "{}", "[1, 2", "18446744073709551617",
)


@st.composite
def json_object_text(draw, fields: dict[str, list[str]], near: dict[str, list[str]] | None = None):
    """The text of one JSON object over fields: each key holds one of its
    valid values (as JSON text), one of its near misses (such as a value
    of the wrong JSON type that int() or float() would coerce), a JSON_JUNK
    value, or is absent."""
    near = near or {}
    members = []
    for key, valid in fields.items():
        kinds = ("valid", "valid", "junk", "absent") + (("near",) if key in near else ())
        kind = draw(st.sampled_from(kinds))
        if kind != "absent":
            pool = {"valid": valid, "near": near.get(key), "junk": JSON_JUNK}[kind]
            value = draw(st.sampled_from(pool))
            members.append(f'"{key}": {value}')
    return "{" + ", ".join(members) + "}"
