"""End-to-end video -> heart-rate orchestration, in one pass over the frames.

One run slices the recording into overlapping analysis windows, pools each
window's masked pixels with the configured combination method, and reduces
the per-window rates to a single video-level estimate. The grid methods
re-anchor the cell grid to the face bbox at the start of every window so
slow drift does not smear cells across face regions; every window's grid
is built before any frame is read.

The recording is read once, PASS_CHUNKS diffuse chunks (frame_chunks) at
a time. For each such chunk build_mask gives each frame's bbox as a row and
a column indicator, and a hole map only where a frame has polygons; no
per-pixel mask is made. pool_cells pools each of its diffuse chunks into
the cells of every window that overlaps it, straight from the uint8 frames
(cast once to float32, exact, see combine), through 0/1 indicators built
once per window; windows with the same edges, such as aggregate's one cell
spanning the frame, share one pooling. For proposed the minimum channel is
a second pool: each pass chunk takes the min_channel of its own sampled
frames (see DIFFUSE_STRIDE) in one call and pools it through the same
function and masks into the windows that hold them; diffuse_weights reads
the diffuse sums from those and the sampled frames' RGB sums and counts
(the CLI's --dump-diffuse separates every frame after the pass). Nothing
the pass pools is float, so every sum is exact. A window is finished
(traces, weights, combination) as soon as its last frame is read, and its
sums are dropped, so peak memory is one chunk plus the per-frame cell sums
of the open windows, whatever the length of the recording. Per-frame sums
do not depend on how the frames are chunked, so every result is that of
pooling each window whole.

Traces stay time-major, as the pass pools them: a window's sums reach
grid_traces as views, and its RGB trace is (n, 3). Every window has the
same number of frames, so the RGB traces of aggregate and proposed go
through one chrom_rows call per WINDOW_BLOCK windows, (n, k, 3), and the
pulse waveforms of all three methods through one estimate_video_hr call
per block, (k, n), which takes their periodograms one window at a time.
Rows are independent, so the rates do not depend on the blocking; the
video rate is the mean over every window.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .chrom import chrom_rows
from .combine import (
    cell_indicators,
    combine_benchmark_snr,
    combine_proposed,
    diffuse_weights,
    facial_aggregate,
    grid_traces,
    pool_cells,
    snr_weights,
)
from .config import REPORT_SCHEMA_VERSION, RunConfig
from .diffuse import frame_chunks, min_channel
from .errors import SignalError, UsageError
from .heartrate import estimate_video_hr, plan_windows
from .ingest import FrameSequence, smooth_bboxes
from .roi import build_grid, build_mask
from .signals import PulseWaveform


# Diffuse chunks in one chunk of the pass (16 frames at 96x96, 116 at
# 32x32), so reading and masking take enough frames per call to amortise
# their per-call work, while the pooling takes the chunk's cache-sized
# diffuse chunks one at a time.
PASS_CHUNKS = 4
# proposed pools the min channel of frame i of the recording when
# i % k == 0, with k = min(DIFFUSE_STRIDE, the window's frame count) so that
# every window holds a sampled frame: diffuse_weights is a mean over a
# window's sampled frames, and its sums are exact, so results do not depend
# on the chunking. k = 1 would sample every frame.
DIFFUSE_STRIDE = 16
# Windows per chrom_rows call; estimate_video_hr then takes their spectra
# one at a time. The rows and waveforms alive at the end of a window are one
# block's, so this stage too is bounded by the window length, not the
# recording's.
WINDOW_BLOCK = 8


@dataclass
class PipelineResult:
    report: dict
    waveforms: list[PulseWaveform] = field(default_factory=list)
    window_weights: list[dict] = field(default_factory=list)


def _window_sums(
    seq: FrameSequence,
    bboxes: np.ndarray,
    polygons: dict | None,
    slices: list[slice],
    grids: list[tuple[np.ndarray, np.ndarray]],
    stride: int | None,
):
    """Each window's pool_cells sums over the edges grids[i], yielded in
    window order as soon as the window's last frame is read: (rgb, mins),
    rgb (t, rows, cols, 4) the RGB sums and pixel counts of its frames, mins
    (t_s, rows, cols, 2) the min_channel sums and pixel counts of its sampled
    frames, those whose index is a multiple of stride (None when stride is
    None).
    """
    height, width = seq.height, seq.width
    keys = [(tuple(y), tuple(x)) for y, x in grids]
    cells: list[dict | None] = [{} for _ in slices]  # cell_indicators of open windows, by k
    rgb: list[list | None] = [[] for _ in slices]
    mins: list[list | None] = [[] for _ in slices]
    done = 0

    def pool(values, masks, first, step, parts):
        """Pools values, frames first, first + step, ..., under their
        build_mask masks into the parts of every open window that holds one
        of them; windows with the same edges share one pooling."""
        k = values[0, 0, 0].size
        spans, shared = [], {}
        for i in range(done, len(slices)):
            sl = slices[i]
            if sl.start >= first + step * len(values):
                break
            a, b = (max(-((first - edge) // step), 0) for edge in (sl.start, sl.stop))
            if a < b:
                spans.append((i, a, b))
                if k not in cells[i]:
                    cells[i][k] = cell_indicators(*grids[i], height, width, k)
                shared.setdefault(keys[i], cells[i][k])
        pooled = dict(zip(shared, pool_cells(values, *masks, shared.values())))
        for i, a, b in spans:
            parts[i].append(pooled[keys[i]][a:b])

    for chunk in frame_chunks(seq.count, height, width, PASS_CHUNKS):
        frames = seq.frames[chunk]
        ys, xs, holes = build_mask(bboxes[chunk], width, height, polygons, chunk.start)

        def masks(part):  # the masks of the chunk's frames in part
            return ys[part], xs[part], None if holes is None else holes[part]

        if stride is not None:
            j = -chunk.start % stride  # the chunk's sampled frames are j, j + stride, ...
            if j < len(frames):
                part = slice(j, None, stride)
                pool(min_channel(frames[part]), masks(part), chunk.start + j, stride, mins)
        for sub in frame_chunks(len(frames), height, width):
            first = chunk.start + sub.start
            pool(frames[sub], masks(sub), first, 1, rgb)
            stop = chunk.start + min(sub.stop, len(frames))
            while done < len(slices) and slices[done].stop <= stop:
                sampled = np.concatenate(mins[done]) if stride is not None else None
                yield np.concatenate(rgb[done]), sampled
                rgb[done] = mins[done] = cells[done] = None
                done += 1


def _block_rates(rows: list[np.ndarray], first: int, starts, cfg: RunConfig, fps: float):
    """The pulse waveforms (k, n) and rates of the block of windows first,
    first + 1, ... from their pooled rows: one chrom_rows call on the (n, 3)
    RGB rows stacked time-major (aggregate, proposed; snr rows are waveforms
    already) and one estimate_video_hr call."""
    if cfg.method == "snr":
        waves = np.stack(rows)
    else:
        waves, ok = chrom_rows(np.stack(rows, axis=1), fps)
        if not ok.all():
            j = int(np.argmin(ok))
            raise SignalError(
                f"window {first + j} (start {starts[first + j]} s): "
                f"channel means {rows[j].mean(axis=0)} must all be positive"
            )
    bpm = estimate_video_hr(waves, fps, cfg.notch_hz)
    return waves, bpm


def run_pipeline(
    seq: FrameSequence,
    bboxes: np.ndarray,
    cfg: RunConfig,
    polygons: dict | None = None,
) -> PipelineResult:
    """Estimate the recording's heart rate in one pass over its frames, from
    its (n, 4) bboxes and polygon map (load_landmarks's, or none); proposed
    pools the min channel of only the frames of the DIFFUSE_STRIDE sample."""
    if min(cfg.window_s, cfg.hop_s) * seq.fps < 1:
        raise UsageError(f"window_s and hop_s must each span one frame at {seq.fps} fps")
    if cfg.bbox_smoothing_alpha:
        bboxes = smooth_bboxes(bboxes, cfg.bbox_smoothing_alpha)
    plan = plan_windows(seq.duration_s, cfg.window_s, cfg.hop_s)
    slices = plan.frame_slices(seq.fps, seq.count)
    if not slices:
        raise SignalError("no analysis windows fit in the recording")
    grids = [  # aggregate's one cell spans the frame
        build_grid(bboxes[sl.start], cfg.grid_rows, cfg.grid_cols)
        if cfg.method != "aggregate" else (np.array([0, seq.height]), np.array([0, seq.width]))
        for sl in slices
    ]
    stride = None  # proposed's min pool takes one frame in stride
    if cfg.method == "proposed":
        stride = min(DIFFUSE_STRIDE, slices[0].stop - slices[0].start)

    rows: list[np.ndarray] = []
    waves: list[np.ndarray] = []
    bpm: list[float] = []
    weight_log: list[dict] = []
    window_sums = _window_sums(seq, bboxes, polygons, slices, grids, stride)
    for i, (pooled, mins) in enumerate(window_sums):
        start_s = plan.starts[i]
        sums, counts = pooled[..., :3], pooled[..., -1]
        if cfg.method == "aggregate":
            rows.append(facial_aggregate(sums, counts))
        else:
            traces = grid_traces(sums, counts, seq.fps)
            w_snr = snr_weights(traces)
            if cfg.method == "snr":
                rows.append(combine_benchmark_snr(traces, w_snr))
                weight_log.append({"start_s": start_s, "snr": w_snr.tolist()})
            else:
                rgb = pooled[-slices[i].start % stride :: stride]  # the sampled frames' sums
                w_dif = diffuse_weights(rgb[..., :3], mins[..., 0], rgb[..., -1])
                rows.append(combine_proposed(traces, w_snr, w_dif))
                weight_log.append(
                    {"start_s": start_s, "snr": w_snr.tolist(), "diffuse": w_dif.tolist()}
                )
        if len(rows) == WINDOW_BLOCK or i == len(slices) - 1:
            block_waves, block_bpm = _block_rates(rows, len(bpm), plan.starts, cfg, seq.fps)
            waves.extend(block_waves)
            bpm.extend(block_bpm)
            rows = []

    report = {
        "schema_version": REPORT_SCHEMA_VERSION,
        "method": cfg.method,
        "fps": seq.fps,
        "n_frames": seq.count,
        "windows": [{"start_s": s, "bpm": b} for s, b in zip(plan.starts, bpm)],
        "video_bpm": float(np.mean(bpm)),
        "config": cfg.as_dict(),
    }
    return PipelineResult(
        report=report,
        waveforms=[PulseWaveform(w, seq.fps) for w in waves],
        window_weights=weight_log,
    )
