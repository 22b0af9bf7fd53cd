"""Spectral heart-rate estimation from pulse waveforms.

The physiological passband is 0.7-3.5 Hz (42-210 bpm). Filtering is a
zero-phase (forward-backward) 3rd-order Butterworth band-pass; spectra are
Hann-tapered periodograms zero-padded to at least 8x the window length.

The spectral core is NumPy only. The Butterworth design, the
forward-backward filter and the periodogram follow scipy.signal's butter,
sosfiltfilt and periodogram operation by operation, and the peak picking
follows find_peaks(prominence=...); the tests hold them to SciPy. Each pass
of the forward-backward filter is linear in the block of samples and the
filter state before it: one small matrix per frame rate, built once by
filtering impulses, steps it FILTER_BLOCK samples at a time, so its cost
and memory grow linearly with the window length.

Heart rate is picked from up to five in-band spectral peaks by harmonic
scoring: a candidate at p Hz scores the power in the open bands (p - w,
p + w) and (2p - 2w, 2p + 2w), which rejects sub-harmonic and motion peaks
that lack a first harmonic, and leaves out a rival peak exactly w away.
Every band is one run of bins, found by one search per edge (_band); the
analysis band and the two SNR bands are closed, [lo, hi]. The band-pass,
peak search and SNR share one band and half-width, PASSBAND_HZ and
SNR_HALFWIDTH_HZ, which no setting moves. The spectra are of waveforms
that chrom_rows has passed (fps > 7 Hz, >= 2 s), so they reach fps / 2 >
3.5 Hz with bins at most 1/16 Hz apart (nfft >= 8 n >= 16 fps): the
analysis band always holds bins, and select_hr and snr_weights trust that.

Cells and windows share one spectral core: periodogram and harmonic_snr
work on a leading row axis, so the spectra of all grid cells of a window,
and of all windows of a recording (of one length, WindowPlan.frame_slices),
are each taken in one call, (n_rows, n). suppress_artifacts and select_hr
then work on one (freqs, power) row; two_harmonic_snr is the one-row case.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import SignalError, UsageError
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
# Samples per step of a band-pass pass: each step is one gemv per row with a
# (FILTER_BLOCK + 6)-square matrix, which stays in cache.
FILTER_BLOCK = 32


@lru_cache(maxsize=32)
def _bandpass_sos(fps: float) -> np.ndarray:
    """scipy.signal.butter(FILTER_ORDER, PASSBAND_HZ, btype="bandpass",
    output="sos", fs=fps), step by step in its operation order. Read-only,
    since callers share it."""
    n = FILTER_ORDER
    wn = np.asarray(PASSBAND_HZ, dtype=np.float64) / (fps / 2)
    # analog low-pass prototype, and the band edges prewarped at fs = 2
    p = -np.exp(1j * np.pi * np.arange(-n + 1, n, 2, dtype=np.float64) / (2 * n))
    warped = 2 * 2.0 * np.tan(np.pi * wn / 2.0)
    bw = float(warped[1] - warped[0])
    wo = float(np.sqrt(warped[0] * warped[1]))
    # low-pass to band-pass: every pole splits in two, n zeros at s = 0
    p_lp = p * bw / 2
    root = np.sqrt(p_lp**2 - wo**2)
    p = np.concatenate((p_lp + root, p_lp - root))
    # bilinear transform: the zeros at s = 0 go to z = +1, those at infinity to -1
    k = bw**n * np.real(np.prod(np.full(n, 4.0 + 0j)) / np.prod(4.0 - p))
    p = (4.0 + p) / (4.0 - p)
    # zpk2sos(pairing="nearest"): one pole of each conjugate pair, then the
    # real poles; the pole nearest the unit circle goes to the last section
    real = np.abs(p.imag) <= 100 * np.finfo(np.float64).eps * np.abs(p)
    p = np.concatenate((np.sort(p[~real & (p.imag > 0)]), np.sort(p[real].real)))
    z = np.repeat([-1.0, 1.0], n)
    sos = np.zeros((n, 6))
    for section in range(n - 1, -1, -1):
        i = np.argmin(np.abs(1 - np.abs(p)))
        p1, p = p[i], np.delete(p, i)
        if np.isreal(p1):
            reals = np.flatnonzero(np.isreal(p))
            i = reals[np.argmin(np.abs(1 - np.abs(p[reals])))]
            p2, p = p[i], np.delete(p, i)
        else:
            p2 = p1.conj()
        zeros = []
        for _ in range(2):
            i = np.argsort(np.abs(z - p1))[0]
            zeros.append(z[i])
            z = np.delete(z, i)
        sos[section, :3] = np.poly(zeros)
        sos[section, 3:] = np.poly([p1, p2])
    sos[0, :3] *= k
    sos.flags.writeable = False
    return sos


@lru_cache(maxsize=32)
def _sosfilt_zi(fps: float) -> np.ndarray:
    """scipy.signal.sosfilt_zi of _bandpass_sos(fps): each section's state
    for a unit step input. Read-only, since callers share it."""
    sos = _bandpass_sos(fps)
    zi = np.empty((sos.shape[0], 2))
    scale = 1.0
    for section, (b, a) in enumerate(zip(sos[:, :3], sos[:, 3:])):
        i_minus_a = np.array([[1.0 + a[1], -1.0], [a[2], 1.0]])
        zi[section] = scale * np.linalg.solve(i_minus_a, b[1:] - a[1:] * b[0])
        scale *= b.sum() / a.sum()
    zi.flags.writeable = False
    return zi


def _sosfilt(sos: np.ndarray, x: np.ndarray, zi: np.ndarray) -> tuple[np.ndarray, list]:
    """scipy.signal.sosfilt down axis 0 of x (t, k), from the states zi
    (sections, 2, k): direct form II transposed, sample by sample through
    every section, in its operation order. Returns the output and the final
    states, as a list of each section's two."""
    y = np.empty_like(x)
    z = [list(state) for state in zi]
    sections = sos.tolist()
    for t in range(x.shape[0]):
        cur = x[t]
        for state, (b0, b1, b2, _, a1, a2) in zip(z, sections):
            new = b0 * cur + state[0]
            state[0] = b1 * cur - a1 * new + state[1]
            state[1] = b2 * cur - a2 * new
            cur = new
        y[t] = cur
    return y, z


@lru_cache(maxsize=32)
def _bandpass_step(fps: float) -> np.ndarray:
    """The matrix G that steps one sosfilt pass of the band-pass over a block
    of b = FILTER_BLOCK samples: with the filter's s = 2 x sections states
    before the block, [x_block, states] @ G is [y_block, states after it].
    Row i < b is the pass over an impulse at sample i from zero states, row
    b + j the pass over zeros from unit state j. It is read-only, since
    callers share it."""
    sos = _bandpass_sos(fps)
    b, s = FILTER_BLOCK, 2 * sos.shape[0]
    x = np.eye(b, b + s)  # time runs down axis 0, one input per column
    zi = np.zeros((s, b + s))
    zi[:, b:] = np.eye(s)
    y, z = _sosfilt(sos, x, zi.reshape(sos.shape[0], 2, b + s))
    g = np.ascontiguousarray(np.concatenate((y, np.array(z).reshape(s, b + s))).T)
    g.flags.writeable = False
    return g


def _sosfilt_steps(g: np.ndarray, x: np.ndarray, states: np.ndarray) -> None:
    """One sosfilt pass along the rows of x (k, t), in place, from their
    states (k, s), FILTER_BLOCK samples per step of G (_bandpass_step). t is
    a multiple of FILTER_BLOCK; x may be a reversed view. Each block is read
    into the step before its output overwrites it."""
    b = FILTER_BLOCK
    step = np.empty((x.shape[0], 1, g.shape[0]))
    out = np.empty_like(step)
    step[:, 0, b:] = states
    for start in range(0, x.shape[1], b):
        block = x[:, start : start + b]
        step[:, 0, :b] = block
        # Each row is its own (1, b + s) @ (b + s, b + s) product, one gemv
        # per row: a row's result does not depend on the other rows, which
        # one gemm over all of them does not promise.
        np.matmul(step, g, out=out)
        block[...] = out[:, 0, :b]
        step[:, 0, b:] = out[:, 0, b:]


def bandpass_series(x: np.ndarray, fps: float) -> np.ndarray:
    """Zero-phase Butterworth band-pass (PASSBAND_HZ) of a raw sample array,
    along its last axis: scipy.signal.sosfiltfilt with its odd extension of
    padlen = min(21, n - 1) samples and sosfilt_zi initial conditions.

    Both passes run in place in one buffer per call, laid out as [m zeros]
    [odd extension, rows, odd extension][m zeros] with m = -t % FILTER_BLOCK
    for the t extended samples, so that each pass is whole FILTER_BLOCK
    steps that end on zeros, which leave the output up to the last sample
    as it is. The forward pass steps over all but the leading margin; the
    backward pass steps over all but the trailing one, which the forward
    pass has filled, reversed. x, of any strides, is read into the buffer
    once; the result is a view of it."""
    if fps <= 2.0 * PASSBAND_HZ[1]:
        raise SignalError(
            f"fps {fps} leaves no headroom above the {PASSBAND_HZ[1]} Hz band edge"
        )
    x = np.asarray(x, dtype=np.float64)
    n = x.shape[-1]
    zi = _sosfilt_zi(float(fps)).reshape(1, -1)
    pad = min(3 * (zi.size + 1), n - 1)  # zi holds two states per section
    t = n + 2 * pad
    m = -t % FILTER_BLOCK
    buf = np.zeros(x.shape[:-1] + (t + 2 * m,))
    ext = buf[..., m : m + t]
    ext[..., pad : pad + n] = x
    if pad > 0:
        np.subtract(2 * x[..., :1], x[..., pad:0:-1], out=ext[..., :pad])
        np.subtract(2 * x[..., -1:], x[..., -2 : -pad - 2 : -1], out=ext[..., -pad:])
    rows = buf.reshape(-1, t + 2 * m)
    g = _bandpass_step(float(fps))
    _sosfilt_steps(g, rows[:, m:], zi * rows[:, m : m + 1])
    _sosfilt_steps(g, rows[:, m + t - 1 :: -1], zi * rows[:, m + t - 1 : m + t])
    return ext[..., pad : pad + n]


def _next_pow2(n: int) -> int:
    return 1 << (int(n) - 1).bit_length()


@lru_cache(maxsize=32)
def _hann(n: int, fps: float) -> np.ndarray:
    """scipy.signal.periodogram's periodic Hann window of n samples scaled to
    density at fps, in its operation order: summed with Python's sum as
    SciPy does. Read-only, since callers share it."""
    win = (0.5 + 0.5 * np.cos(np.linspace(-np.pi, np.pi, n + 1)))[:-1]
    win = win * (1 / np.sqrt(sum(win**2) / (1.0 / fps)))
    win.flags.writeable = False
    return win


def periodogram(x: np.ndarray, fps: float):
    """Hann-tapered periodograms of the rows of x (..., n), zero-padded to
    >= PSD_PAD_FACTOR x n. Returns (freqs, power (..., n_freqs))."""
    n = x.shape[-1]
    if n < PSD_MIN_SAMPLES:
        raise SignalError(f"need >= {PSD_MIN_SAMPLES} samples, got {n}")
    nfft = _next_pow2(PSD_PAD_FACTOR * n)
    # scipy.signal.periodogram(x, fs=fps, window="hann", nfft=nfft,
    # detrend=False), in its operation order
    spec = np.fft.rfft(x * _hann(n, float(fps)), n=nfft).view(np.float64)
    # re**2 and im**2 in place, interleaved as rfft stores them; their pairs
    # add into the power, the one new spectrum-sized array
    np.square(spec, out=spec)
    power = spec[..., 0::2] + spec[..., 1::2]
    power[..., 1:-1] *= 2  # one-sided; nfft is even, so the Nyquist bin has no mirror
    return np.fft.rfftfreq(nfft, 1.0 / fps), power


def _prominent_peaks(x: np.ndarray, keep: slice, min_prominence: float) -> np.ndarray:
    """The local maxima i of the row x in the band keep (a _band slice)
    whose prominence is at least min_prominence, in index order:
    scipy.signal.find_peaks(x, prominence=min_prominence) within keep.

    A plateau's peak is its middle sample (the left one of two); the first
    and last samples are never peaks. A peak's prominence is its height over
    the higher of the lowest points on either side before the row rises
    above the peak or ends. Between two neighbouring peaks the row only
    falls and then rises, so that lowest point is the least of the minima
    between neighbouring peaks, up to the nearest higher peak.
    """
    starts = np.flatnonzero(np.concatenate(([True], x[1:] != x[:-1])))
    level = x[starts]
    top = np.flatnonzero((level[1:-1] > level[:-2]) & (level[1:-1] > level[2:])) + 1
    peaks = (starts[top] + np.append(starts[1:], x.size)[top] - 1) // 2
    q = np.arange(*peaks.searchsorted((keep.start, keep.stop)))
    if q.size == 0:
        return peaks[q]
    # gap[j]: the least value left of peak j and right of peak j - 1
    # (gap[0] left of the first peak, gap[-1] right of the last)
    gap = np.concatenate(([x[: peaks[0] + 1].min()], np.minimum.reduceat(x, peaks)))
    height = x[peaks]
    j = np.arange(peaks.size)
    higher = height > height[q, None]
    left = np.where(higher & (j < q[:, None]), j, -1).max(axis=1)
    right = np.where(higher & (j > q[:, None]), j, peaks.size).min(axis=1)
    g = np.arange(peaks.size + 1)
    left_min = np.where((g > left[:, None]) & (g <= q[:, None]), gap, np.inf).min(axis=1)
    right_min = np.where((g > q[:, None]) & (g <= right[:, None]), gap, np.inf).min(axis=1)
    prominence = height[q] - np.maximum(left_min, right_min)
    return peaks[q[prominence >= min_prominence]]


def _band(freqs: np.ndarray, lo, hi, closed: bool = True) -> slice:
    """The bins of the ascending freqs in [lo, hi], or (lo, hi) if not closed,
    as one slice (empty if lo > hi; array edges for arrays lo and hi)."""
    sides = ("left", "right") if closed else ("right", "left")
    return slice(freqs.searchsorted(lo, sides[0]), freqs.searchsorted(hi, sides[1]))


def suppress_artifacts(freqs: np.ndarray, power: np.ndarray, notch_hz) -> np.ndarray:
    """Bridge over known interference lines (e.g. flicker) in one power row.

    Power within +/-NOTCH_HALFWIDTH_HZ of each notch frequency is replaced by
    the linear interpolation between the band-edge bins; returns a copy.
    Notches outside the spectrum are ignored.
    """
    power = power.copy()
    f = freqs
    for f0 in notch_hz:
        # not _band(f, f0 - w, f0 + w): its rounded edges pick other bins at
        # ties (244 of 36,234 notches over frame rates, lengths and f0)
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


def select_hr(freqs: np.ndarray, power: np.ndarray) -> float:
    """Harmonic-scored peak selection on one power row; returns heart rate in bpm."""
    f = freqs
    in_band = _band(f, *PASSBAND_HZ)
    peak_floor = power[in_band].max()
    if peak_floor <= 0.0:
        raise SignalError("no in-band power")
    peaks = _prominent_peaks(power, in_band, PEAK_PROMINENCE_FRAC * peak_floor)
    if peaks.size == 0:
        raise SignalError("no in-band spectral peaks above the prominence floor")
    peaks = peaks[np.argsort(power[peaks])[::-1][:MAX_PEAKS]]
    w = SNR_HALFWIDTH_HZ
    # open bands: a rival peak exactly w away adds nothing to the score
    scores = [
        float(power[_band(f, f[p] - w, f[p] + w, closed=False)].sum())
        + float(power[_band(f, 2.0 * f[p] - 2.0 * w, 2.0 * f[p] + 2.0 * w, closed=False)].sum())
        for p in peaks
    ]
    best = peaks[int(np.argmax(scores))]
    return 60.0 * float(f[best])


def harmonic_snr(freqs: np.ndarray, power: np.ndarray, peak_hz) -> np.ndarray:
    """Two-harmonic SNR of each power row (..., n_freqs) around its peak_hz (...).

    Signal power is the sum of the bins in [p-w, p+w] plus those in
    [2p-2w, 2p+2w]; noise is everything else in the spectrum. The ratio is
    clamped to [0, SNR_CAP]; a near-pure tone (noise power < 1e-12 of total)
    reports the cap, and a row whose total power is under MIN_TOTAL_POWER
    reports 0.
    """
    p = np.broadcast_to(np.asarray(peak_hz, dtype=np.float64), power.shape[:-1])
    w = SNR_HALFWIDTH_HZ
    # every row's band edges in one search per edge
    one, two = _band(freqs, p - w, p + w), _band(freqs, 2.0 * p - 2.0 * w, 2.0 * p + 2.0 * w)
    rows = power.reshape(-1, freqs.size)
    num = (_run_sums(rows, one) + _run_sums(rows, two)).reshape(p.shape)
    total = power.sum(axis=-1)
    den = total - num
    with np.errstate(divide="ignore", invalid="ignore"):
        snr = np.clip(num / den, 0.0, SNR_CAP)
    snr = np.where(den <= 1e-12 * total, SNR_CAP, snr)
    return np.where(total < MIN_TOTAL_POWER, 0.0, snr)


def _run_sums(rows: np.ndarray, band: slice) -> np.ndarray:
    """rows[i, band.start[i] : band.stop[i]].sum() of each row i of rows (k, n),
    bit for bit: the runs of one length are gathered and summed as one block."""
    starts, lengths = np.ravel(band.start), np.ravel(band.stop - band.start)
    sums = np.empty(rows.shape[0])
    for length in set(lengths.tolist()):  # np.unique here raised peak RSS by ~0.9 MB
        i = np.flatnonzero(lengths == length)
        sums[i] = rows[i[:, None], starts[i, None] + np.arange(length)].sum(axis=1)
    return sums


def two_harmonic_snr(wave: PulseWaveform, peak_hz: float) -> float:
    """Signal-to-noise ratio of a pulse waveform around a known rate in
    PASSBAND_HZ (harmonic_snr of its periodogram); a zero spectrum raises."""
    if not PASSBAND_HZ[0] <= peak_hz <= PASSBAND_HZ[1]:
        raise UsageError(f"peak {peak_hz} Hz outside the {PASSBAND_HZ} Hz band")
    freqs, power = periodogram(wave.samples, wave.fps)
    if power.sum() < MIN_TOTAL_POWER:
        raise SignalError("total spectral power is zero")
    return float(harmonic_snr(freqs, power, peak_hz))


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
        can add up to one frame) moves back to end on the last frame. With
        no starts there are no slices, whatever the window's length.
        """
        if not self.starts:
            return []
        n = int(round(self.window_s * fps))
        starts = (min(int(round(s * fps)), n_frames - n) for s in self.starts)
        return [slice(start, start + n) for start in starts]


def plan_windows(duration_s: float, window_s: float, hop_s: float) -> WindowPlan:
    if window_s <= 0 or hop_s <= 0:
        raise UsageError("window and hop must be positive")
    starts = []
    k = 0
    while k * hop_s + window_s <= duration_s + 1e-9:
        starts.append(k * hop_s)
        k += 1
    return WindowPlan(window_s=window_s, hop_s=hop_s, starts=tuple(starts))


def estimate_video_hr(waves: np.ndarray, fps: float, notch_hz=()) -> tuple[float, ...]:
    """Per-window harmonic peak selection: the rate of each window in bpm.

    waves (n_windows, n) holds one pulse waveform per window, all at fps;
    each window's periodogram is taken in turn, so one spectrum is alive at
    a time. Rows are independent, so the rates are those of one periodogram
    call over all the windows. run_pipeline passes at least one window.
    """
    spectra = (periodogram(wave, fps) for wave in np.asarray(waves, dtype=np.float64))
    return tuple(select_hr(f, suppress_artifacts(f, power, notch_hz)) for f, power in spectra)
