"""Combining masked pixels into pulse traces: three strategies.

* aggregate - unweighted mean of every masked pixel (the usual benchmark).
* snr - per-cell CHROM waveforms averaged with two-harmonic-SNR weights.
* proposed - per-cell *RGB traces* averaged with the product of the SNR
  weight and the mean diffuse luminance weight, so chrominance inference
  runs once on a single debiased trace. Weighting in RGB space keeps cells
  with weak diffuse reflection (strong melanin attenuation or specular
  pollution) from diluting the pulse before inference.

Grid cells are handled as one time-major (n_frames, n_cells, 3) block, not
cell by cell, in the frame order pool_cells yields. A block holds the cells
of one window, or of a batch of windows side by side (the pipeline's
CELL_BLOCK): one batched CHROM (GridTraces.waveforms, (n_cells, n_frames)),
then periodograms and SNRs one block of rows at a time
(heartrate.periodogram_blocks) give the weights, which each window then
normalizes over its own cells, and snr reuses those same waveforms through
each window's slice of the block (GridTraces[cells]). Rows are independent
in all three, so a window's weights do not depend on its batch or block.
The periodogram is heartrate's, the one the window rates are read from,
as are the SNR's band and half-width (PASSBAND_HZ, SNR_HALFWIDTH_HZ).

This module owns the pixel-to-cell reduction and every cell weight:
pool_cells pools uint8 frames (RGB or the min channel) into cells by two
products, each one per frame, under build_mask's masks: the bbox folds
into the cell indicators as a row and a column indicator, and only
polygon holes are zeroed pixel by pixel. The frames keep the order in
which they are stored, each row its pixels' channels interleaved, until
the column product de-interleaves them. Integer values pool to their
exact integer sums, in float32 then float64 (see pool_cells), whatever
BLAS kernel, thread count or order of summation runs.
facial_aggregate, grid_traces and diffuse_weights take a window's
per-frame sums and counts from pool_cells's output, (t, rows, cols, ...)
and (t, rows, cols), not its pixels. diffuse_weights is a mean over the
frames it is given, so the pipeline pools the min channel of only one
frame in pipeline.DIFFUSE_STRIDE.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .chrom import chrom_rows
from .errors import RegionError, SignalError
from .heartrate import PASSBAND_HZ, _band, harmonic_snr, periodogram_blocks
from .signals import zero_mean

WEIGHT_EPS = 1e-12


def cell_indicators(y_edges, x_edges, height: int, width: int, k: int):
    """The 0/1 cell indicators of a grid's edges over (height, width) frames
    that pool_cells takes for k channels: rows (rows, height) float32, (r, y)
    1 where y_edges[r] <= y < y_edges[r + 1]; columns (width, cols) float64;
    and their spread (k * width, cols * (k + 1)) float64, which takes channel
    c of pixel x, row x * k + c as a frame row stores it, to column
    j * (k + 1) + c for every cell column j that holds x."""
    cols_of = _indicator(x_edges, width).T
    spread = np.einsum("xj,cd->xcjd", cols_of, np.eye(k, k + 1)).reshape(k * width, -1)
    return _indicator(y_edges, height, np.float32), cols_of, spread


def pool_cells(values: np.ndarray, ys, xs, holes, cells) -> list[np.ndarray]:
    """Per-cell sums of values (t, h, w, k), or (t, h, w) with k = 1, under
    each frame's skin mask, over every grid in cells (cell_indicators's for
    k): float64 (t, rows, cols, k + 1) per grid, the k channel sums, then
    the pixel counts. Frame i's mask is build_mask's: its bbox, rows ys[i]
    by columns xs[i], less holes[i] (none when holes is None).

    values is cast once, with its holes zeroed, to float32 if it is uint8
    and h * 255 <= 2**24 (frames up to 65,793 rows), else float64. Per grid,
    rows_of * ys[i] @ frame i, in that dtype, sums each row band inside the
    bbox, channels still interleaved; times xs[i] in float64, @ spread sums
    the bbox columns of each cell and de-interleaves the channels. A count
    is the cell's bbox rows times its bbox columns, less its hole pixels.
    Both products run one frame at a time, so a frame's sums do not depend
    on the other frames in the call (BLAS picks its kernel by size).
    Integer sums are exact: below 2**24 in float32, below 2**53 in float64."""
    t, h, w = values.shape[:3]
    exact32 = h * 255 <= 2**24 and values.dtype == np.uint8
    planes = values.reshape(t, h, -1).astype(np.float32 if exact32 else np.float64)
    k = planes.shape[2] // w
    if holes is not None:  # a contiguous multiply: boolean indexing is 5x slower
        planes *= np.stack((~holes,) * k, axis=-1).reshape(planes.shape)
        holes = holes.astype(planes.dtype)
    xs_k = np.repeat(xs, k, axis=1)[:, None]  # as a frame row stores its channels
    out = []
    for rows_of, cols_of, spread in cells:
        rows_t = rows_of.astype(planes.dtype, copy=False) * ys[:, None]
        pooled = (np.multiply(rows_t @ planes, xs_k) @ spread).reshape(t, len(rows_of), -1, k + 1)
        pooled[..., k] = (ys @ rows_of.T)[..., None] * (xs @ cols_of)[:, None]
        if holes is not None:
            pooled[..., k] -= (rows_t @ holes * xs[:, None]) @ cols_of
        out.append(pooled)
    return out


def _indicator(edges, n: int, dtype=np.float64) -> np.ndarray:
    """0/1 (len(edges) - 1, n): (i, p) is 1 where edges[i] <= p < edges[i + 1]."""
    edges, px = np.asarray(edges)[:, None], np.arange(n)
    return ((px >= edges[:-1]) & (px < edges[1:])).astype(dtype)


def facial_aggregate(sums: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Mean RGB over all masked pixels, per frame, (t, 3), from pool_cells's
    RGB sums (t, 1, 1, 3) and pixel counts (t, 1, 1) of one cell spanning
    the frame."""
    empty = np.flatnonzero(counts[:, 0, 0] == 0)
    if empty.size:
        raise RegionError(f"frame {empty[0]}: mask selects no pixels")
    return sums[:, 0, 0] / counts[:, 0, 0, None]


@dataclass(frozen=True)
class GridTraces:
    """Per-cell mean RGB traces. samples: (n_frames, n_cells, 3), time-major,
    the cells of a frame in row-major order.

    Cells with no masked pixels in the first frame are dead (live=False) and
    excluded from weighting; cells that go empty in a later frame carry the
    previous sample forward.
    """

    samples: np.ndarray
    live: np.ndarray
    fps: float

    @property
    def n_cells(self) -> int:
        return self.samples.shape[1]

    @cached_property
    def waveforms(self) -> tuple[np.ndarray, np.ndarray]:
        """CHROM of every cell in one batch, computed once and shared by the
        SNR weights and the snr combination: (waves (n_cells, n_frames),
        ok (n_cells,)); a cell with a zero channel mean has ok False."""
        return chrom_rows(self.samples, self.fps)

    def __getitem__(self, cells: slice) -> GridTraces:
        """The traces of a run of cells, such as one window of a batch, as
        views that share this block's waveforms (set in the slice's cache,
        as cached_property would)."""
        part = GridTraces(samples=self.samples[:, cells], live=self.live[cells], fps=self.fps)
        waves, ok = self.waveforms
        vars(part)["waveforms"] = waves[cells], ok[cells]
        return part


def grid_traces(sums: np.ndarray, counts: np.ndarray, fps: float) -> GridTraces:
    """Mean masked RGB per grid cell and frame, from pool_cells's RGB sums
    (t, rows, cols, 3) and pixel counts (t, rows, cols) (views) over a grid's
    edges, or over the grids of a batch of windows stacked along the rows."""
    n_frames, rows, cols = counts.shape
    n_cells = rows * cols
    counts = counts.reshape(n_frames, n_cells)
    filled = counts > 0
    sums = sums.reshape(n_frames, n_cells, 3)
    samples = np.empty((n_frames, n_cells, 3))
    with np.errstate(divide="ignore", invalid="ignore"):  # empty cells are fixed below
        for c in range(3):  # a channel at a time: a broadcast's inner loop is 3 long
            np.divide(sums[..., c], counts, out=samples[..., c])
    for i in np.flatnonzero(~filled.all(axis=0)):
        # carry the last filled sample forward (zeros before the first one)
        samples[~filled[:, i], i] = 0.0
        last = np.maximum.accumulate(np.where(filled[:, i], np.arange(n_frames), 0))
        samples[:, i] = samples[last, i]
    return GridTraces(samples=samples, live=filled[0], fps=fps)


def snr_weights(traces: GridTraces, cells: int | None = None) -> np.ndarray:
    """Two-harmonic SNR per live cell, normalized to sum to one in each window.

    traces holds the cells of one window, or of a batch of windows of cells
    cells each, side by side (cells None: one window). The live cells'
    CHROM waveforms take their periodograms one block at a time
    (periodogram_blocks), and each block is reduced to its cells' SNRs,
    each taken around the cell's own dominant peak in PASSBAND_HZ, before
    the next is taken, so one block of spectra is alive at a time. Cells
    without usable spectra (zero channel mean, no in-band power, zero total
    power) get weight zero; if no cell of a window produces any SNR, its
    live cells share the weight evenly (no spectral evidence to prefer one
    over another). A window with no live cell raises RegionError.
    """
    live = traces.live.reshape(-1, cells or traces.n_cells)
    n_live = live.sum(axis=1, keepdims=True)
    if not n_live.all():
        raise RegionError("every grid cell is empty in the first frame")
    waves, ok = traces.waveforms
    usable = np.flatnonzero(traces.live & ok)
    w = np.zeros(live.shape)
    if usable.size:
        spectra = periodogram_blocks(waves if usable.size == w.size else waves[usable], traces.fps)
        for rows, freqs, power in spectra:
            in_band = _band(freqs, *PASSBAND_HZ)
            band_power = power[:, in_band]
            peak = band_power.argmax(axis=1)
            has_peak = band_power[np.arange(len(power)), peak] > 0.0
            # every row's SNR (each row's is its own), so that no row is
            # copied; a row with no in-band power keeps weight zero
            snr = harmonic_snr(freqs, power, freqs[in_band][peak])
            w.flat[usable[rows]] = np.where(has_peak, snr, 0.0)
    total = w.sum(axis=1, keepdims=True)
    even = total <= 0.0
    return np.where(even, live / n_live, w / np.where(even, 1.0, total)).ravel()


def diffuse_weights(sums: np.ndarray, mins: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Per-cell mean diffuse luminance weights, normalized to sum to one.

    A pixel's diffuse luminance under min_subtract is mean(R, G, B) less
    min(R, G, B). From pool_cells's per-frame RGB sums (t, rows, cols, 3),
    min channel sums and pixel counts (t, rows, cols), integers below 2**53,
    a cell's weight is its exact Σ(R + G + B) - 3 Σmin over 3 x its pixel
    count in the t given frames (the pipeline gives a window's sampled
    frames, pipeline.DIFFUSE_STRIDE); a cell with no masked pixel gets 0.
    """
    counts = counts.sum(axis=0).ravel()
    if counts.sum() == 0:
        raise RegionError("no masked pixels fall inside the grid")
    tripled = (sums.sum(axis=(0, 3)) - 3 * mins.sum(axis=0)).ravel()
    weights = np.where(counts > 0, tripled / np.maximum(3 * counts, 1), 0.0)
    total = weights.sum()
    if total <= 0:
        # all-black diffuse region: no luminance evidence, weight evenly
        return (counts > 0) / max(1, int((counts > 0).sum()))
    return weights / total


def combine_benchmark_snr(traces: GridTraces, weights: np.ndarray) -> np.ndarray:
    """SNR-weighted mean of the per-cell CHROM waveforms (traces.waveforms),
    zero-mean, (n_frames,); weights are snr_weights's for these traces."""
    waves, ok = traces.waveforms
    cells = np.flatnonzero(weights > 0)
    missing = cells[~ok[cells]]
    if missing.size:
        raise SignalError(f"cell {missing[0]} has positive weight but no waveform")
    acc = np.tensordot(weights[cells], waves[cells], axes=1)
    return zero_mean(acc)


def combine_proposed(
    traces: GridTraces, snr_w: np.ndarray, diffuse_w: np.ndarray
) -> np.ndarray:
    """Product-weighted mean of the raw per-cell RGB traces, (n_frames, 3).

    Weights are snr_w * diffuse_w renormalized, from snr_weights and
    diffuse_weights over the same grid; the result feeds a single
    downstream CHROM pass.
    """
    product = snr_w * diffuse_w
    product[~traces.live] = 0.0
    total = product.sum()
    if total < WEIGHT_EPS:
        raise RegionError(
            "snr and diffuse weights have no overlapping support"
        )
    w = product / total
    # over a (cells, frames x 3) copy: the BLAS product layout the reports' bits rest on
    return np.tensordot(w, traces.samples, axes=(0, 1))
