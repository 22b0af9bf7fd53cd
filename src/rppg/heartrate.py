"""Spectral heart-rate estimation from pulse waveforms.

The physiological passband is 0.7-3.5 Hz (42-210 bpm). Filtering is a
zero-phase (forward-backward) 3rd-order Butterworth band-pass; spectra are
Hann-tapered periodograms zero-padded to at least 8x the window length.

Heart rate is picked from up to five in-band spectral peaks by harmonic
scoring: a candidate at p Hz is scored by the band power within +/-w of p
plus the band power within +/-2w of 2p, which rejects sub-harmonic and
motion peaks that lack a first harmonic.

Cells and windows share one spectral core: periodogram and harmonic_snr
work on a leading row axis, so the spectra of all grid cells of a window,
and of all windows of a recording, are each taken in one call. Every
window of a recording has the same length and frame rate
(WindowPlan.frame_slices), so estimate_video_hr takes the windows as the
rows of one (n_windows, n) block. suppress_artifacts and select_hr then
work on one plain (freqs, power) row; two_harmonic_snr, for a single
waveform, is the one-row case.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.signal

from .errors import (
    DegenerateSpectrumError,
    NoPeaksError,
    NoWindowsError,
    SampleRateTooLowError,
    SpectrumTooShortError,
    UsageError,
)
from .signals import PulseWaveform

PASSBAND_HZ = (0.7, 3.5)
FILTER_ORDER = 3
PSD_PAD_FACTOR = 8
PSD_MIN_SAMPLES = 64
SNR_HALFWIDTH_HZ = 0.1
NOTCH_HALFWIDTH_HZ = 0.05
MAX_PEAKS = 5
PEAK_PROMINENCE_FRAC = 0.05
SNR_CAP = 100.0
MIN_TOTAL_POWER = 1e-15


@lru_cache(maxsize=32)
def _bandpass_sos(fps: float) -> np.ndarray:
    return scipy.signal.butter(FILTER_ORDER, PASSBAND_HZ, btype="bandpass", output="sos", fs=fps)


def bandpass_series(x: np.ndarray, fps: float) -> np.ndarray:
    """Zero-phase Butterworth band-pass (PASSBAND_HZ) of a raw sample array."""
    if fps <= 2.0 * PASSBAND_HZ[1]:
        raise SampleRateTooLowError(
            f"fps {fps} leaves no headroom above the {PASSBAND_HZ[1]} Hz band edge"
        )
    x = np.asarray(x, dtype=np.float64)
    sos = _bandpass_sos(float(fps))
    padlen = min(3 * (2 * sos.shape[0] + 1), x.shape[-1] - 1)
    return scipy.signal.sosfiltfilt(sos, x, padlen=padlen)


def _next_pow2(n: int) -> int:
    return 1 << (int(n) - 1).bit_length()


def periodogram(x: np.ndarray, fps: float):
    """Hann-tapered periodograms of the rows of x (..., n), zero-padded to
    >= PSD_PAD_FACTOR x n. Returns (freqs, power (..., n_freqs))."""
    n = x.shape[-1]
    if n < PSD_MIN_SAMPLES:
        raise SpectrumTooShortError(f"need >= {PSD_MIN_SAMPLES} samples, got {n}")
    nfft = _next_pow2(PSD_PAD_FACTOR * n)
    return scipy.signal.periodogram(x, fs=fps, window="hann", nfft=nfft, detrend=False)


def suppress_artifacts(freqs: np.ndarray, power: np.ndarray, notch_hz) -> np.ndarray:
    """Bridge over known interference lines (e.g. flicker) in one power row.

    Power within +/-NOTCH_HALFWIDTH_HZ of each notch frequency is replaced by
    the linear interpolation between the band-edge bins; returns a copy.
    Notches outside the spectrum are ignored.
    """
    power = power.copy()
    f = freqs
    for f0 in notch_hz:
        idx = np.nonzero(np.abs(f - float(f0)) <= NOTCH_HALFWIDTH_HZ)[0]
        if idx.size == 0:
            continue
        lo, hi = idx[0] - 1, idx[-1] + 1
        if lo < 0 and hi >= f.size:
            continue  # notch swallows the whole spectrum; nothing to bridge with
        if lo < 0:
            power[idx] = power[hi]
        elif hi >= f.size:
            power[idx] = power[lo]
        else:
            power[idx] = np.interp(f[idx], (f[lo], f[hi]), (power[lo], power[hi]))
    return power


def select_hr(
    freqs: np.ndarray,
    power: np.ndarray,
    band: tuple[float, float] = PASSBAND_HZ,
    halfwidth_hz: float = SNR_HALFWIDTH_HZ,
) -> float:
    """Harmonic-scored peak selection on one power row; returns heart rate in bpm."""
    f = freqs
    if f[0] > band[0] or f[-1] < band[1]:
        raise UsageError(
            f"spectrum covers {f[0]:.3f}-{f[-1]:.3f} Hz, "
            f"does not span the {band[0]}-{band[1]} Hz analysis band"
        )
    in_band = (f >= band[0]) & (f <= band[1])
    peak_floor = power[in_band].max()
    if peak_floor <= 0.0:
        raise NoPeaksError("no in-band power")
    peaks, _ = scipy.signal.find_peaks(power, prominence=PEAK_PROMINENCE_FRAC * peak_floor)
    peaks = peaks[in_band[peaks]]
    if peaks.size == 0:
        raise NoPeaksError("no in-band spectral peaks above the prominence floor")
    peaks = peaks[np.argsort(power[peaks])[::-1][:MAX_PEAKS]]
    w = halfwidth_hz

    # Open intervals: a rival peak sitting exactly w away must not leak its
    # power into this candidate's score.
    def open_band(lo, hi):
        m = (f > lo) & (f < hi)
        return float(power[m].sum())

    scores = [
        open_band(f[p] - w, f[p] + w) + open_band(2.0 * f[p] - 2.0 * w, 2.0 * f[p] + 2.0 * w)
        for p in peaks
    ]
    best = peaks[int(np.argmax(scores))]
    return 60.0 * float(f[best])


def harmonic_snr(
    freqs: np.ndarray,
    power: np.ndarray,
    peak_hz,
    halfwidth_hz: float = SNR_HALFWIDTH_HZ,
) -> np.ndarray:
    """Two-harmonic SNR of each power row (..., n_freqs) around its peak_hz (...).

    Signal power is the sum of the bins in [p-w, p+w] plus those in
    [2p-2w, 2p+2w]; noise is everything else in the spectrum. The ratio is
    clamped to [0, SNR_CAP]; a near-pure tone (noise power < 1e-12 of total)
    reports the cap, and a row whose total power is under MIN_TOTAL_POWER
    reports 0.
    """
    if halfwidth_hz <= 0:
        raise UsageError("halfwidth must be positive")
    p = np.asarray(peak_hz, dtype=np.float64)[..., None]
    w = halfwidth_hz

    def band_sum(lo, hi):
        return np.where((freqs >= lo) & (freqs <= hi), power, 0.0).sum(axis=-1)

    total = power.sum(axis=-1)
    num = band_sum(p - w, p + w) + band_sum(2.0 * p - 2.0 * w, 2.0 * p + 2.0 * w)
    den = total - num
    with np.errstate(divide="ignore", invalid="ignore"):
        snr = np.clip(num / den, 0.0, SNR_CAP)
    snr = np.where(den <= 1e-12 * total, SNR_CAP, snr)
    return np.where(total < MIN_TOTAL_POWER, 0.0, snr)


def two_harmonic_snr(
    wave: PulseWaveform,
    peak_hz: float,
    halfwidth_hz: float = SNR_HALFWIDTH_HZ,
    band: tuple[float, float] = PASSBAND_HZ,
) -> float:
    """Signal-to-noise ratio of a pulse waveform around a known rate
    (harmonic_snr of its periodogram); a zero spectrum raises."""
    if not band[0] <= peak_hz <= band[1]:
        raise UsageError(f"peak {peak_hz} Hz outside the {band} Hz band")
    freqs, power = periodogram(wave.samples, wave.fps)
    if power.sum() < MIN_TOTAL_POWER:
        raise DegenerateSpectrumError("total spectral power is zero")
    return float(harmonic_snr(freqs, power, peak_hz, halfwidth_hz))


@dataclass(frozen=True)
class WindowPlan:
    """Sliding analysis windows: start offsets in seconds."""

    window_s: float
    hop_s: float
    starts: tuple[float, ...]

    def frame_slices(self, fps: float, n_frames: int) -> list[slice]:
        """Each window's frames in a recording of n_frames at fps.

        Every slice holds round(window_s * fps) frames. A start that would
        run the window past the recording (its rounding and the length's
        can add up to one frame) moves back to end on the last frame.
        """
        n = int(round(self.window_s * fps))
        starts = (min(int(round(s * fps)), n_frames - n) for s in self.starts)
        return [slice(start, start + n) for start in starts]


def plan_windows(duration_s: float, window_s: float = 10.0, hop_s: float = 5.0) -> WindowPlan:
    if window_s <= 0 or hop_s <= 0:
        raise UsageError("window and hop must be positive")
    starts = []
    k = 0
    while k * hop_s + window_s <= duration_s + 1e-9:
        starts.append(k * hop_s)
        k += 1
    return WindowPlan(window_s=window_s, hop_s=hop_s, starts=tuple(starts))


def estimate_video_hr(
    waves: np.ndarray,
    fps: float,
    notch_hz=(),
    band: tuple[float, float] = PASSBAND_HZ,
    halfwidth_hz: float = SNR_HALFWIDTH_HZ,
) -> tuple[float, ...]:
    """Per-window harmonic peak selection: the rate of each window in bpm.

    waves (n_windows, n) holds one pulse waveform per window, all at fps;
    the windows share one periodogram call.
    """
    waves = np.asarray(waves, dtype=np.float64)
    if waves.shape[0] == 0:
        raise NoWindowsError("no analysis windows fit in the recording")
    freqs, power = periodogram(waves, fps)
    return tuple(
        select_hr(freqs, suppress_artifacts(freqs, row, notch_hz), band, halfwidth_hz)
        for row in power
    )
