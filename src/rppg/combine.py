"""Combining masked pixels into pulse traces: three strategies.

* aggregate - unweighted mean of every masked pixel (the usual benchmark).
* snr - per-cell CHROM waveforms averaged with two-harmonic-SNR weights.
* proposed - per-cell *RGB traces* averaged with the product of the SNR
  weight and a diffuse-strength weight, so chrominance inference runs once
  on a single debiased trace. Weighting in RGB space keeps cells with weak
  diffuse reflection (strong melanin attenuation or specular pollution)
  from diluting the pulse before inference.

Grid cells are handled as one (n_cells, n_frames, 3) block per window, not
cell by cell: one batched CHROM (GridTraces.waveforms), one periodogram
and one SNR pass give the weights, and snr reuses those same waveforms.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .chrom import chrom_rows
from .diffuse import frame_chunks
from .errors import (
    AllCellsDeadError,
    DegenerateWeightsError,
    EmptyRegionError,
    ZeroChannelMeanError,
)
from .heartrate import PASSBAND_HZ, SNR_HALFWIDTH_HZ, harmonic_snr, periodogram
from .roi import GridSpec
from .signals import PulseWaveform, RgbTrace, zero_mean

WEIGHT_EPS = 1e-12
NORMALIZATION_TOL = 1e-6


def facial_aggregate(frames: np.ndarray, masks: np.ndarray, fps: float) -> RgbTrace:
    """Mean RGB over all masked pixels, per frame."""
    frames = np.asarray(frames)
    masks = np.asarray(masks, dtype=bool)
    if frames.shape[:3] != masks.shape:
        raise ValueError(f"frames {frames.shape} and masks {masks.shape} disagree")
    out = np.empty((frames.shape[0], 3))
    for t in range(frames.shape[0]):
        sel = masks[t]
        if not sel.any():
            raise EmptyRegionError(f"frame {t}: mask selects no pixels")
        out[t] = frames[t][sel].mean(axis=0)
    return RgbTrace(out, fps)


@dataclass(frozen=True)
class GridTraces:
    """Per-cell mean RGB traces. samples: (n_cells, n_frames, 3), row-major cells.

    Cells with no masked pixels in the first frame are dead (live=False) and
    excluded from weighting; cells that go empty in a later frame carry the
    previous sample forward.
    """

    samples: np.ndarray
    live: np.ndarray
    fps: float
    rows: int
    cols: int

    @property
    def n_cells(self) -> int:
        return self.samples.shape[0]

    def cell_trace(self, i: int) -> RgbTrace:
        return RgbTrace(self.samples[i], self.fps)

    @cached_property
    def waveforms(self) -> tuple[np.ndarray, np.ndarray]:
        """CHROM of every cell in one batch, computed once and shared by the
        SNR weights and the snr combination: (waves (n_cells, n_frames),
        ok (n_cells,)); a cell with a zero channel mean has ok False."""
        return chrom_rows(self.samples, self.fps)


def grid_traces(frames: np.ndarray, masks: np.ndarray, grid: GridSpec, fps: float) -> GridTraces:
    """Mean masked RGB per grid cell and frame, from integer (uint8) frames.

    The bbox crop is summed per cell with exact int64 block sums over the
    cell row and column starts, a frame_chunks chunk at a time, so memory
    stays bounded by a chunk whatever the window length.
    """
    frames = np.asarray(frames)
    masks = np.asarray(masks, dtype=bool)
    if frames.shape[:3] != masks.shape:
        raise ValueError(f"frames {frames.shape} and masks {masks.shape} disagree")
    if not np.issubdtype(frames.dtype, np.integer):
        raise ValueError(f"frames must hold integer pixels, got {frames.dtype}")
    n_frames, height, width = masks.shape
    rects = grid.cell_rects
    # Cell edges along each axis, clipped to the frame; the non-empty cells
    # then tile the crop [y_edges[0], y_edges[-1]) x [x_edges[0], x_edges[-1]).
    y_edges = np.clip(np.append(rects[:: grid.cols, 1], rects[-1, 1] + rects[-1, 3]), 0, height)
    x_edges = np.clip(np.append(rects[: grid.cols, 0], rects[-1, 0] + rects[-1, 2]), 0, width)
    rs = np.flatnonzero(np.diff(y_edges) > 0)
    cs = np.flatnonzero(np.diff(x_edges) > 0)
    samples = np.zeros((grid.rows, grid.cols, n_frames, 3))
    filled = np.zeros((grid.rows, grid.cols, n_frames), dtype=bool)
    if rs.size and cs.size:
        crop = (slice(y_edges[0], y_edges[-1]), slice(x_edges[0], x_edges[-1]))
        y_starts, x_starts = y_edges[rs] - y_edges[0], x_edges[cs] - x_edges[0]
        cells = (slice(rs[0], rs[-1] + 1), slice(cs[0], cs[-1] + 1))
        for sl in frame_chunks(n_frames, y_edges[-1] - y_edges[0], x_edges[-1] - x_edges[0]):
            m = masks[sl][:, crop[0], crop[1]]
            px = np.where(m[..., None], frames[sl][:, crop[0], crop[1]], 0)
            sums = np.add.reduceat(np.add.reduceat(px, y_starts, axis=1, dtype=np.int64),
                                   x_starts, axis=2)
            counts = np.add.reduceat(np.add.reduceat(m, y_starts, axis=1, dtype=np.int64),
                                     x_starts, axis=2)
            hit = np.moveaxis(counts > 0, 0, -1)
            np.divide(np.moveaxis(sums, 0, -2), np.moveaxis(counts, 0, -1)[..., None],
                      out=samples[cells[0], cells[1], sl], where=hit[..., None])
            filled[cells[0], cells[1], sl] = hit
    samples = samples.reshape(grid.n_cells, n_frames, 3)
    filled = filled.reshape(grid.n_cells, n_frames)
    for i in np.flatnonzero(~filled.all(axis=1)):
        # carry the last filled sample forward (zeros before the first one)
        last = np.maximum.accumulate(np.where(filled[i], np.arange(n_frames), 0))
        samples[i] = samples[i, last]
    live = filled[:, :1].any(axis=1)
    return GridTraces(samples=samples, live=live, fps=fps, rows=grid.rows, cols=grid.cols)


def snr_weights(
    traces: GridTraces,
    halfwidth_hz: float = SNR_HALFWIDTH_HZ,
    band: tuple[float, float] = PASSBAND_HZ,
) -> np.ndarray:
    """Two-harmonic SNR per live cell, normalized to sum to one.

    The live cells' CHROM waveforms get one batched periodogram; each cell's
    SNR is taken on that spectrum around the cell's own dominant in-band
    peak. Cells without usable spectra (zero channel mean, no in-band
    power, zero total power) get weight zero; if no cell produces any SNR
    the live cells share the weight evenly (no spectral evidence to prefer
    one over another).
    """
    if not traces.live.any():
        raise AllCellsDeadError("every grid cell is empty in the first frame")
    waves, ok = traces.waveforms
    cells = np.flatnonzero(traces.live & ok)
    w = np.zeros(traces.n_cells)
    if cells.size:
        freqs, power = periodogram(waves[cells], traces.fps)
        in_band = (freqs >= band[0]) & (freqs <= band[1])
        if in_band.any():
            band_power = power[:, in_band]
            peak = band_power.argmax(axis=1)
            has_peak = band_power[np.arange(cells.size), peak] > 0.0
            w[cells[has_peak]] = harmonic_snr(
                freqs, power[has_peak], freqs[in_band][peak[has_peak]], halfwidth_hz
            )
    total = w.sum()
    if total <= 0.0:
        w[traces.live] = 1.0 / int(traces.live.sum())
        return w
    return w / total


def _check_normalized(weights: np.ndarray, name: str) -> np.ndarray:
    weights = np.asarray(weights, dtype=np.float64)
    if weights.ndim != 1:
        raise ValueError(f"{name} must be a flat vector")
    if np.any(weights < 0):
        raise ValueError(f"{name} must be non-negative")
    if abs(weights.sum() - 1.0) > NORMALIZATION_TOL:
        raise ValueError(f"{name} must sum to one, got {weights.sum()}")
    return weights


def combine_benchmark_snr(traces: GridTraces, weights: np.ndarray) -> PulseWaveform:
    """SNR-weighted mean of the per-cell CHROM waveforms (traces.waveforms)."""
    weights = _check_normalized(weights, "snr weights")
    if weights.size != traces.n_cells:
        raise ValueError("one weight per cell required")
    waves, ok = traces.waveforms
    cells = np.flatnonzero(weights > 0)
    missing = cells[~ok[cells]]
    if missing.size:
        raise ZeroChannelMeanError(f"cell {missing[0]} has positive weight but no waveform")
    acc = np.tensordot(weights[cells], waves[cells], axes=1)
    return PulseWaveform(zero_mean(acc), traces.fps)


def combine_proposed(
    traces: GridTraces, snr_w: np.ndarray, diffuse_w: np.ndarray
) -> RgbTrace:
    """Product-weighted mean of the raw per-cell RGB traces.

    Weights are snr_w * diffuse_w renormalized; the result feeds a single
    downstream CHROM pass.
    """
    snr_w = _check_normalized(snr_w, "snr weights")
    diffuse_w = _check_normalized(diffuse_w, "diffuse weights")
    if snr_w.size != traces.n_cells or diffuse_w.size != traces.n_cells:
        raise ValueError("one weight per cell required")
    product = snr_w * diffuse_w
    product[~traces.live] = 0.0
    total = product.sum()
    if total < WEIGHT_EPS:
        raise DegenerateWeightsError(
            "snr and diffuse weights have no overlapping support"
        )
    w = product / total
    combined = np.tensordot(w, traces.samples, axes=1)
    return RgbTrace(combined, traces.fps)
