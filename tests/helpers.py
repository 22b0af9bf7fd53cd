"""Shared builders for the test suite."""

from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np
from hypothesis import strategies as st

from rppg.chrom import chrom_rows
from rppg.combine import (
    cell_indicators,
    diffuse_weights,
    facial_aggregate,
    grid_traces,
    pool_cells,
)
from rppg.errors import DataFormatError, SignalError, reading
from rppg.heartrate import (
    FILTER_BLOCK,
    PSD_PAD_FACTOR,
    _bandpass_sos,
    _bandpass_step,
    _sosfilt_zi,
    bandpass_series,
)
from rppg.ingest import _PPM_HEADER, FrameSequence, read_ppm, read_text
from rppg.roi import build_mask, rasterize_polygon
from rppg.signals import PulseWaveform


def flat_sequence(n=64, h=12, w=16, fps=16.0, level=(120, 90, 70)) -> FrameSequence:
    frames = np.empty((n, h, w, 3), dtype=np.uint8)
    frames[...] = np.asarray(level, dtype=np.uint8)
    return FrameSequence(frames=frames, fps=fps)


def full_sidecar(seq: FrameSequence, bbox=None) -> np.ndarray:
    """One (n, 4) bbox row per frame, covering the whole frame."""
    bbox = tuple(bbox) if bbox is not None else (0, 0, seq.width, seq.height)
    return np.tile(np.array(bbox, dtype=np.int64), (seq.count, 1))


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
    """CHROM of one (n, 3) RGB trace: the one-row (n, 1, 3) chrom_rows call.
    A zero channel mean raises, as the pipeline does for a window."""
    waves, ok = chrom_rows(np.asarray(samples, dtype=np.float64)[:, None], fps)
    if not ok[0]:
        raise SignalError(f"channel means {np.mean(samples, axis=0)}")
    return PulseWaveform(waves[0], fps)


def pixel_masks(bboxes, width: int, height: int, polygons=None) -> np.ndarray:
    """Each frame's skin mask (n, height, width) bool, filled frame by frame:
    its bbox less the rasterize_polygon interiors of its polygons, frame j's
    in polygons[j]."""
    masks = np.zeros((len(bboxes), height, width), dtype=bool)
    for j, (x, y, w, h) in enumerate(np.asarray(bboxes).tolist()):
        masks[j, y : y + h, x : x + w] = True
        for poly in (polygons or {}).get(j, ()):
            masks[j] &= ~rasterize_polygon(poly, width, height)
    return masks


def pooled(values, masks, edges) -> np.ndarray:
    """pool_cells of values (t, h, w, ...) under pixel masks (t, h, w), over
    a grid's edges: (t, rows, cols, k + 1) float64. The masks go in as
    frame-wide bboxes whose holes are the pixels outside them."""
    t, h, w = np.shape(masks)
    values = np.asarray(values)
    ys, xs, _ = build_mask(np.tile([0, 0, w, h], (t, 1)), w, h)
    k = int(np.prod(values.shape[3:]))
    [cells] = pool_cells(values, ys, xs, ~np.asarray(masks), [cell_indicators(*edges, h, w, k)])
    return cells


def pooled_sums(values, masks, edges) -> tuple[np.ndarray, np.ndarray]:
    """pooled's sums and counts, split as the pass hands them on, as views:
    sums (t, rows, cols, ...) and pixel counts (t, rows, cols), both float64."""
    cells = pooled(values, masks, edges)
    return cells[..., :-1].reshape(cells.shape[:3] + np.shape(values)[3:]), cells[..., -1]


# The oracle of pool_cells: the same sums from channel-planar planes
# (t, h, k + 1, w), each channel a plane of its own times a per-pixel mask,
# then the mask, with the 0/1 indicators built from the edges on every call.


def planar_masked_planes(masks: np.ndarray, *values: np.ndarray) -> np.ndarray:
    """The planar planes, (t, h, k + 1, w): the k channels of the (t, h, w,
    ...) values arrays in turn, 0 where masks (t, h, w) is False, then the
    mask itself. float32 if every values array is uint8 and h * 255 <= 2**24,
    else float64."""
    t, h, w = masks.shape
    exact32 = h * 255 <= 2**24 and all(v.dtype == np.uint8 for v in values)
    values = [np.moveaxis(v.reshape(t, h, w, -1), 3, 2) for v in values]
    ends = np.cumsum([v.shape[2] for v in values])
    planes = np.empty((t, h, ends[-1] + 1, w), np.float32 if exact32 else np.float64)
    for v, end in zip(values, ends):
        np.multiply(v, masks[:, :, None], out=planes[:, :, end - v.shape[2] : end])
    planes[:, :, -1] = masks
    return planes


def planar_pool_planes(planes: np.ndarray, y_edges, x_edges) -> np.ndarray:
    """Per-cell sums of planar_masked_planes's planes (t, h, k + 1, w),
    float64 (t, rows, cols, k + 1): (rows, h) @ planes in the planes' dtype,
    then as float64 @ (w, cols), one product per frame each."""
    t, h, k1, w = planes.shape
    rows_of = _planar_indicator(y_edges, h, planes.dtype)
    cols_of = _planar_indicator(x_edges, w).T
    by_row = (rows_of @ planes.reshape(t, h, k1 * w)).astype(np.float64, copy=False)
    cells = by_row.reshape(t, -1, w) @ cols_of
    return np.moveaxis(cells.reshape(t, len(rows_of), k1, -1), 2, 3)


def _planar_indicator(edges, n: int, dtype=np.float64) -> np.ndarray:
    edges, px = np.asarray(edges)[:, None], np.arange(n)
    return ((px >= edges[:-1]) & (px < edges[1:])).astype(dtype)


# The window-level compositions the pipeline makes from pool_cells's
# output: pool a whole window's pixels, then reduce its per-frame sums.


def grid_traces_of(frames, masks, edges, fps: float):
    return grid_traces(*pooled_sums(frames, masks, edges), fps)


def facial_aggregate_of(frames, masks) -> np.ndarray:
    height, width = np.shape(masks)[1:]
    return facial_aggregate(*pooled_sums(frames, masks, ([0, height], [0, width])))


def diffuse_sums_of(frames, masks, edges) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The int64 oracle of the sums diffuse_weights reads, from uint8 frames
    (t, h, w, 3) under pixel masks (t, h, w) over a grid's edges, by
    label_map and integer einsum, not by the pooling: RGB sums
    (t, rows, cols, 3), min channel sums and pixel counts (t, rows, cols)."""
    t, h, w = np.shape(masks)
    rows, cols = len(edges[0]) - 1, len(edges[1]) - 1
    cells = label_map(edges, w, h)[..., None] == np.arange(rows * cols)  # (h, w, n)
    inside = (np.asarray(masks)[..., None] & cells).astype(np.int64)  # (t, h, w, n)
    frames = np.asarray(frames, dtype=np.int64)
    rgb = np.einsum("thwc,thwn->tnc", frames, inside)
    mins = np.einsum("thw,thwn->tn", frames.min(axis=-1), inside)
    grid = (t, rows, cols)
    return rgb.reshape(grid + (3,)), mins.reshape(grid), inside.sum(axis=(1, 2)).reshape(grid)


def diffuse_weights_of(frames, edges, masks) -> np.ndarray:
    """diffuse_weights of diffuse_sums_of's exact sums: the pass pools the
    same integers, so this is the pass's result bit for bit."""
    return diffuse_weights(*diffuse_sums_of(frames, masks, edges))


# The spectral path with its copies: heartrate's periodogram and band-pass
# as they were before they worked in place, the oracles they are held to
# bit for bit.


def periodogram_by_copies(x: np.ndarray, fps: float) -> np.ndarray:
    """heartrate.periodogram's power from spec.real**2 plus spec.imag**2, two
    new spectrum-sized arrays, then the one-sided doubling."""
    n = x.shape[-1]
    nfft = 1 << (PSD_PAD_FACTOR * n - 1).bit_length()
    win = (0.5 + 0.5 * np.cos(np.linspace(-np.pi, np.pi, n + 1)))[:-1]
    win = win * (1 / np.sqrt(sum(win**2) / (1.0 / fps)))
    spec = np.fft.rfft(x * win, n=nfft)
    power = spec.real**2
    power += spec.imag**2
    power[..., 1:-1] *= 2
    return power


def _sosfilt_steps_by_copies(g, x, states):
    """One sosfilt pass along the rows of x (k, t) into a new array, the rows
    zero-padded by concatenation to whole FILTER_BLOCK steps."""
    b = FILTER_BLOCK
    t = x.shape[1]
    x = np.concatenate((x, np.zeros((x.shape[0], -t % b))), axis=1)
    y = np.empty_like(x)
    step = np.empty((x.shape[0], 1, g.shape[0]))
    for start in range(0, x.shape[1], b):
        step[:, 0, :b] = x[:, start : start + b]
        step[:, 0, b:] = states
        out = np.matmul(step, g)[:, 0]
        y[:, start : start + b] = out[:, :b]
        states = out[:, b:]
    return y[:, :t]


def bandpass_by_copies(x: np.ndarray, fps: float) -> np.ndarray:
    """heartrate.bandpass_series with the odd extension concatenated to the
    rows and each pass into a new array, the second over the reversed first."""
    x = np.asarray(x, dtype=np.float64)
    n = x.shape[-1]
    sos = _bandpass_sos(float(fps))
    pad = min(3 * (2 * sos.shape[0] + 1), n - 1)
    rows = x.reshape(-1, n)
    if pad > 0:
        rows = np.concatenate(
            (2 * rows[:, :1] - rows[:, pad:0:-1], rows, 2 * rows[:, -1:] - rows[:, -2 : -pad - 2 : -1]),
            axis=1,
        )
    zi = _sosfilt_zi(float(fps)).reshape(1, -1)
    g = _bandpass_step(float(fps))
    y = _sosfilt_steps_by_copies(g, rows, zi * rows[:, :1])
    y = _sosfilt_steps_by_copies(g, y[:, ::-1], zi * y[:, -1:])[:, ::-1]
    return y[:, pad : pad + n].reshape(x.shape)


# The row-major cell layout, (cells, frames, 3), that the pooled sums were
# transposed into before the cell traces stayed time-major: chrom_rows and
# grid_traces as they were, the oracles the time-major code is held to bit
# for bit.


def chrom_rows_row_major(samples: np.ndarray, fps: float) -> tuple[np.ndarray, np.ndarray]:
    """chrom_rows of row-major traces (k, n, 3): the channel means taken down
    the strided frame axis, Xs and Ys written as (2, k, n) rows."""
    samples = np.asarray(samples, dtype=np.float64)
    means = samples.mean(axis=1)
    ok = np.all(means > 1e-12, axis=1)
    rn, gn, bn = np.moveaxis(samples / np.where(ok[:, None], means, 1.0)[:, None, :], -1, 0)
    xy = np.empty((2,) + rn.shape)
    xs, ys = xy
    np.multiply(3.0, rn, out=xs)
    xs -= 2.0 * gn
    np.multiply(1.5, rn, out=ys)
    ys += gn
    ys -= 1.5 * bn
    xf, yf = bandpass_series(xy, fps)
    sigma_y = yf.std(axis=-1)
    flat = sigma_y < 1e-12
    alpha = np.where(flat, 0.0, xf.std(axis=-1) / np.where(flat, 1.0, sigma_y))
    waves = alpha[:, None] * yf
    np.subtract(xf, waves, out=waves)
    waves -= waves.mean(axis=-1, keepdims=True)
    waves[~ok] = 0.0
    return waves, ok


def grid_traces_row_major(sums: np.ndarray, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """grid_traces's samples as row-major (n_cells, n_frames, 3), and its live
    flags, from pool_cells's sums (t, rows, cols, 3) and counts (t, rows,
    cols): the sums transposed, then divided where a cell has pixels."""
    n_frames, rows, cols = counts.shape
    n_cells = rows * cols
    sums = np.moveaxis(sums.reshape(n_frames, n_cells, 3), 0, 1)
    counts = counts.reshape(n_frames, n_cells).T
    filled = counts > 0
    samples = np.zeros((n_cells, n_frames, 3))
    np.divide(sums, counts[..., None], out=samples, where=filled[..., None])
    for i in np.flatnonzero(~filled.all(axis=1)):
        last = np.maximum.accumulate(np.where(filled[i], np.arange(n_frames), 0))
        samples[i] = samples[i, last]
    return samples, filled[:, 0]


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


# ---------------------------------------------------------------------------
# The landmark sidecar read one line at a time: the loader's oracle
# ---------------------------------------------------------------------------


def _is_json_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _parse_polygon(raw, where: str) -> list:
    if not isinstance(raw, list):
        raise DataFormatError(f"{where}: polygon must be a list of [x, y] pairs")
    if len(raw) == 0:
        return raw
    if len(raw) < 3:
        raise DataFormatError(f"{where}: polygon needs >= 3 vertices, got {len(raw)}")
    for v in raw:
        if not (isinstance(v, list) and len(v) == 2 and all(map(_is_json_int, v))):
            raise DataFormatError(f"{where}: vertex {v!r} is not an [x, y] integer pair")
    return raw


def _check_bbox(bbox, width: int, height: int, where: str) -> tuple[int, int, int, int]:
    if not (isinstance(bbox, list) and len(bbox) == 4 and all(map(_is_json_int, bbox))):
        raise DataFormatError(f"{where}: bbox must be [x, y, w, h] integers, got {bbox!r}")
    x, y, w, h = bbox
    if w < 0 or h < 0:
        raise DataFormatError(f"{where}: bbox has negative extent {bbox}")
    if x < 0 or y < 0 or x + w > width or y + h > height:
        raise DataFormatError(f"{where}: bbox {bbox} exceeds frame bounds {width}x{height}")
    return x, y, w, h


def _check_polygon_in_bbox(poly, bbox, where: str) -> None:
    x, y, w, h = bbox
    for vx, vy in poly:
        if not (x <= vx <= x + w and y <= vy <= y + h):
            raise DataFormatError(f"{where}: vertex ({vx}, {vy}) outside bbox {bbox}")


def load_landmarks_by_line(path: Path, frame_count: int, width: int, height: int):
    """What ingest.load_landmarks returns or raises, from one json.loads and
    one record check per line: the (frame_count, 4) bboxes in frame order and
    the (eye, eye, mouth) vertex lists of the frames that have any."""
    path = Path(path)
    bboxes: dict[int, tuple[int, int, int, int]] = {}
    polygons = {}
    lines = [ln for ln in read_text(path).splitlines() if ln.strip()]
    if not lines:
        raise DataFormatError(f"{path}: no landmark records")
    for lineno, line in enumerate(lines, start=1):
        where = f"{path}:{lineno}"
        try:
            obj = json.loads(line)
        except (json.JSONDecodeError, RecursionError) as exc:
            raise DataFormatError(f"{where}: bad JSON: {exc}") from exc
        try:
            frame = obj["frame"]
            raw_bbox = obj["bbox"]
            raw_eyes = obj["eyes"]
            raw_mouth = obj["mouth"]
        except (KeyError, TypeError) as exc:
            raise DataFormatError(f"{where}: missing field: {exc}") from exc
        if not _is_json_int(frame):
            raise DataFormatError(f"{where}: frame must be an integer, got {frame!r}")
        bbox = _check_bbox(raw_bbox, width, height, where)
        if not (isinstance(raw_eyes, list) and len(raw_eyes) == 2):
            raise DataFormatError(f"{where}: eyes must hold exactly two polygons")
        polys = tuple(_parse_polygon(p, where) for p in (*raw_eyes, raw_mouth))
        for poly in polys:
            _check_polygon_in_bbox(poly, bbox, where)
        if frame in bboxes:
            raise DataFormatError(f"{where}: duplicate record for frame {frame}")
        bboxes[frame] = bbox
        if any(polys):
            polygons[frame] = polys
    if sorted(bboxes) != list(range(frame_count)):
        raise DataFormatError(
            f"{path}: {len(bboxes)} records do not cover frames 0..{frame_count - 1}"
        )
    return np.array([bboxes[i] for i in range(frame_count)], dtype=np.int64), polygons


# ---------------------------------------------------------------------------
# A PPM file read through pathlib and int(): the frame reader's oracle
# ---------------------------------------------------------------------------


def read_ppm_by_pathlib(path: Path) -> np.ndarray:
    """What ingest.read_ppm returns or raises, from Path.read_bytes under
    errors.reading and a header read by int(), which also takes "+2", "1_0"
    and "-3"; read_ppm takes only ASCII decimal digits."""
    with reading(path):
        data = Path(path).read_bytes()
    if not data.startswith(b"P6"):
        raise DataFormatError(f"{path}: not a binary PPM (P6) file")
    header = _PPM_HEADER.match(data)
    if header is None:
        raise DataFormatError(f"{path}: truncated PPM header")
    tokens = list(header.groups())
    pos = header.end() + 1
    try:
        width, height, maxval = (int(t) for t in tokens)
    except ValueError as exc:
        raise DataFormatError(f"{path}: bad PPM header tokens {tokens}") from exc
    if width < 1 or height < 1:
        raise DataFormatError(f"{path}: PPM size {width}x{height} is not positive")
    if maxval != 255:
        raise DataFormatError(f"{path}: only 8-bit PPM supported (maxval {maxval})")
    need = width * height * 3
    raster = data[pos : pos + need]
    if len(raster) != need:
        raise DataFormatError(f"{path}: PPM payload truncated")
    return np.frombuffer(raster, dtype=np.uint8).reshape(height, width, 3)


# ---------------------------------------------------------------------------
# A frame directory read file by file: the chunk reader's oracle
# ---------------------------------------------------------------------------


def read_frame_dir_by_files(directory, start: int, stop: int) -> np.ndarray:
    """frames[start:stop] of a frame directory as ingest.load_frame_dir read
    them before the one-readv path: read_ppm on each file, then its size
    against the manifest's, with the paths spelled as load_frame_dir spells
    them."""
    manifest = json.loads(read_text(Path(directory) / "manifest.json"))
    width, height = manifest["width"], manifest["height"]
    base = os.fspath(directory)
    prefix = "" if base == "." else os.path.join(base, "")
    frames = np.empty((stop - start, height, width, 3), dtype=np.uint8)
    for j in range(stop - start):
        fp = f"{prefix}frame_{start + j:06d}.ppm"
        frame = read_ppm(fp)
        if frame.shape != (height, width, 3):
            raise DataFormatError(
                f"{fp}: frame is {frame.shape[1]}x{frame.shape[0]}, "
                f"manifest says {width}x{height}"
            )
        frames[j] = frame
    return frames
