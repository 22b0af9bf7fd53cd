"""Chrominance-based pulse extraction (CHROM, de Haan & Jeanne 2013).

Each channel is normalized by its window mean, projected onto the two
chrominance axes Xs = 3Rn - 2Gn and Ys = 1.5Rn + Gn - 1.5Bn, band-passed,
and recombined as S = Xf - alpha*Yf with alpha = sigma(Xf)/sigma(Yf). The
alpha ratio adapts the specular/skin-tone rejection to the actual window.

The extraction is batched over k time-major traces, (n, k, 3), pyVHR's
multi-patch layout as the pooling yields it: Xs and Ys are written into one
(2, n, k) array, which the band-pass reads, transposed, into its filter
buffer. The traces are the grid cells of one window (GridTraces.waveforms),
or the RGB traces of every window of a recording (run_pipeline). They are
independent: a waveform is bit-identical to a one-trace (n, 1, 3) call.
"""

from __future__ import annotations

import numpy as np

from .errors import SignalError
from .heartrate import bandpass_series

MIN_TRACE_SECONDS = 2.0
SIGMA_FLOOR = 1e-12


def chrom_rows(samples: np.ndarray, fps: float) -> tuple[np.ndarray, np.ndarray]:
    """CHROM of k time-major RGB traces: samples (n, k, 3) -> (waves (k, n), ok (k,)).

    A trace with a channel mean <= SIGMA_FLOOR has no waveform: ok is False
    and its row of waves is zero.
    """
    samples = np.asarray(samples, dtype=np.float64)
    n = samples.shape[0]
    if n < MIN_TRACE_SECONDS * fps:
        raise SignalError(f"{n} samples at {fps} fps is under {MIN_TRACE_SECONDS} s")
    means = samples.mean(axis=0)
    ok = np.all(means > SIGMA_FLOOR, axis=1)
    rn, gn, bn = np.moveaxis(samples / np.where(ok[:, None], means, 1.0), -1, 0)
    xy = np.empty((2,) + rn.shape)
    xs, ys = xy
    np.multiply(3.0, rn, out=xs)
    xs -= 2.0 * gn
    np.multiply(1.5, rn, out=ys)
    ys += gn
    ys -= 1.5 * bn
    del rn, gn, bn  # the normalized traces go before the filter's buffer is made
    xf, yf = bandpass_series(xy.transpose(0, 2, 1), fps)
    sigma_y = yf.std(axis=-1)
    flat = sigma_y < SIGMA_FLOOR
    alpha = np.where(flat, 0.0, xf.std(axis=-1) / np.where(flat, 1.0, sigma_y))
    waves = alpha[:, None] * yf
    np.subtract(xf, waves, out=waves)
    waves -= waves.mean(axis=-1, keepdims=True)
    waves[~ok] = 0.0
    return waves, ok

