"""End-to-end video -> heart-rate orchestration.

One run slices the recording into overlapping analysis windows, pools each
window's masked pixels with the configured combination method, and reduces
the per-window rates to a single video-level estimate. The grid methods
re-anchor the cell grid to the face bbox at the start of every window so
slow drift does not smear cells across face regions.

Windows are the rows of one block, as grid cells are: every window has the
same number of frames, so the pooled RGB traces of aggregate and proposed,
(n_windows, n, 3), go through one chrom_rows call, and the pulse
waveforms of all three methods, (n_windows, n), through one
estimate_video_hr periodogram.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .chrom import chrom_rows
from .combine import (
    combine_benchmark_snr,
    combine_proposed,
    diffuse_weights,
    facial_aggregate,
    grid_traces,
    snr_weights,
)
from .config import REPORT_SCHEMA_VERSION, RunConfig
from .diffuse import (
    diffuse_luminance,
    estimate_diffuse_stack,
    frame_chunks,
    specular_free_min_subtract,
)
from .errors import NoWindowsError, UsageError, ZeroChannelMeanError
from .heartrate import estimate_video_hr, plan_windows
from .ingest import FrameSequence, LandmarkSidecar, smooth_bboxes
from .roi import build_grid, build_mask
from .signals import PulseWaveform


@dataclass
class PipelineResult:
    report: dict
    waveforms: list[PulseWaveform] = field(default_factory=list)
    window_weights: list[dict] = field(default_factory=list)
    diffuse_frames: np.ndarray | None = None


def diffuse_luminance_stack(
    frames: np.ndarray, estimator: str, keep_diffuse: bool = False
) -> tuple[np.ndarray, np.ndarray | None]:
    """Per-pixel diffuse luminance (t, h, w) as float64, built chunk by chunk.

    Only one chunk's diffuse frames are alive at a time; the full float32
    diffuse stack is also returned when keep_diffuse is set, else None.
    """
    separate = (
        specular_free_min_subtract if estimator == "min_subtract" else estimate_diffuse_stack
    )
    lum = np.empty(frames.shape[:3], dtype=np.float64)
    diffuse = np.empty(frames.shape, dtype=np.float32) if keep_diffuse else None
    for sl in frame_chunks(*frames.shape[:3]):
        block = separate(frames[sl])
        lum[sl] = diffuse_luminance(block)
        if diffuse is not None:
            diffuse[sl] = block
    return lum, diffuse


def run_pipeline(
    seq: FrameSequence,
    sidecar: LandmarkSidecar,
    cfg: RunConfig,
    keep_diffuse: bool = False,
) -> PipelineResult:
    if min(cfg.window_s, cfg.hop_s) * seq.fps < 1:
        raise UsageError(f"window_s and hop_s must each span one frame at {seq.fps} fps")
    if cfg.bbox_smoothing:
        sidecar = smooth_bboxes(sidecar, cfg.bbox_smoothing_alpha)
    masks = build_mask(seq, sidecar)
    plan = plan_windows(seq.duration_s, cfg.window_s, cfg.hop_s)
    slices = plan.frame_slices(seq.fps, seq.count)
    if not slices:
        raise NoWindowsError("no analysis windows fit in the recording")

    lum = None
    diffuse = None
    if cfg.method == "proposed":
        lum, diffuse = diffuse_luminance_stack(seq.frames, cfg.diffuse_estimator, keep_diffuse)

    rows: list[np.ndarray] = []
    weight_log: list[dict] = []
    for start_s, sl in zip(plan.starts, slices):
        fw, mw = seq.frames[sl], masks[sl]
        if cfg.method == "aggregate":
            rows.append(facial_aggregate(fw, mw, seq.fps).samples)
            continue
        grid = build_grid(sidecar.records[sl.start].bbox, cfg.grid_rows, cfg.grid_cols)
        traces = grid_traces(fw, mw, grid, seq.fps)
        w_snr = snr_weights(traces, cfg.snr_halfwidth_hz, cfg.passband_hz)
        if cfg.method == "snr":
            rows.append(combine_benchmark_snr(traces, w_snr).samples)
            weight_log.append({"start_s": start_s, "snr": w_snr.tolist()})
        else:
            w_dif = diffuse_weights(lum[sl], grid, mw)
            rows.append(combine_proposed(traces, w_snr, w_dif).samples)
            weight_log.append(
                {"start_s": start_s, "snr": w_snr.tolist(), "diffuse": w_dif.tolist()}
            )

    waves = np.stack(rows)
    if cfg.method != "snr":
        waves, ok = chrom_rows(waves, seq.fps)
        if not ok.all():
            i = int(np.argmin(ok))
            raise ZeroChannelMeanError(
                f"window {i} (start {plan.starts[i]} s): "
                f"channel means {rows[i].mean(axis=0)} must all be positive"
            )
    est = estimate_video_hr(waves, seq.fps, cfg.notch_hz, cfg.passband_hz, cfg.snr_halfwidth_hz)
    report = {
        "schema_version": REPORT_SCHEMA_VERSION,
        "method": cfg.method,
        "fps": seq.fps,
        "n_frames": seq.count,
        "windows": [
            {"start_s": s, "bpm": b} for s, b in zip(plan.starts, est.window_bpm)
        ],
        "video_bpm": est.video_bpm,
        "config": cfg.as_dict(),
    }
    return PipelineResult(
        report=report,
        waveforms=[PulseWaveform(w, seq.fps) for w in waves],
        window_weights=weight_log,
        diffuse_frames=diffuse,
    )
