import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rppg.chrom import chrom_rows
from rppg.errors import SignalError
from rppg.heartrate import periodogram

from helpers import chrom_one, chrom_rows_row_major


def modulated_trace(n=300, fps=30.0, hz=1.2, amp=(0.0, 1.0, 0.0), base=(120.0, 150.0, 90.0)):
    t = np.arange(n) / fps
    pulse = np.sin(2 * np.pi * hz * t)
    samples = np.asarray(base) + np.outer(pulse, np.asarray(amp))
    return samples


def test_constant_trace_gives_zero_output():
    wave = chrom_one(np.full((128, 3), 80.0), 30.0)
    assert np.all(np.abs(wave.samples) < 1e-9)


def test_green_modulation_peaks_at_pulse_frequency():
    wave = chrom_one(modulated_trace(hz=1.2), 30.0)
    freqs, power = periodogram(wave.samples, wave.fps)
    peak = freqs[np.argmax(power)]
    assert peak == pytest.approx(1.2, abs=0.05)


def test_output_is_zero_mean_and_same_length():
    wave = chrom_one(modulated_trace(), 30.0)
    assert len(wave) == 300
    rms = np.sqrt((wave.samples**2).mean())
    assert abs(wave.samples.mean()) <= 1e-9 * rms


@settings(deadline=None, max_examples=30)
@given(st.floats(0.05, 50.0))
def test_scale_invariance(k):
    trace = modulated_trace(n=150)
    a = chrom_one(trace, 30.0).samples
    b = chrom_one(trace * k, 30.0).samples
    assert np.max(np.abs(a - b)) < 1e-9


def test_dc_rejection_small_offset():
    # mean normalization converts an additive offset into per-channel gain
    # changes of order offset/mean, so exact cancellation holds only in the
    # small-offset limit; the spectral peak location is offset-invariant.
    trace = modulated_trace()
    a = chrom_one(trace, 30.0).samples
    b = chrom_one(trace + 0.002, 30.0).samples
    assert np.sqrt(np.mean((a - b) ** 2)) < 1e-6


def test_dc_rejection_argmax_invariant_under_large_offset():
    trace = modulated_trace()
    _, base = periodogram(chrom_one(trace, 30.0).samples, 30.0)
    _, shifted = periodogram(chrom_one(trace + 25.0, 30.0).samples, 30.0)
    assert np.argmax(base) == np.argmax(shifted)


def test_zero_channel_mean_rejected():
    samples = np.full((128, 3), 50.0)
    samples[:, 2] = 0.0
    waves, ok = chrom_rows(np.stack([samples, modulated_trace(n=128)], axis=1), 30.0)
    assert ok.tolist() == [False, True]
    assert not waves[0].any() and waves[1].any()


def test_trace_too_short_rejected():
    with pytest.raises(SignalError, match="fps is under"):
        chrom_one(np.full((30, 3), 50.0), 30.0)  # 1 s at 30 fps


def test_alpha_zero_branch_keeps_x_chrominance():
    # R and B carry the same relative modulation and G is flat, so
    # Ys = 1.5Rn + Gn - 1.5Bn is constant and sigma(Yf) ~ 0 -> alpha = 0;
    # the output must then be Xf itself, mean-removed.
    n, fps = 300, 30.0
    t = np.arange(n) / fps
    pulse = np.sin(2 * np.pi * 1.0 * t)
    samples = np.stack(
        [
            120.0 * (1.0 + 0.02 * pulse),
            np.full(n, 150.0),
            90.0 * (1.0 + 0.02 * pulse),
        ],
        axis=1,
    )
    wave = chrom_one(samples, fps)
    from rppg.heartrate import bandpass_series

    rn = samples[:, 0] / samples[:, 0].mean()
    gn = samples[:, 1] / samples[:, 1].mean()
    xs = 3 * rn - 2 * gn
    xf = bandpass_series(xs, fps)
    expect = xf - xf.mean()
    assert np.max(np.abs(wave.samples - expect)) < 1e-9 * max(1.0, np.abs(expect).max())


TRACE_KINDS = ("pulse", "flat", "dead", "zero-mean")


def trace_block(kinds, n, fps, seed):
    """Time-major RGB traces (n, len(kinds), 3): a noisy pulse, a flat trace
    (alpha 0), a dead trace (no blue, so no waveform) or one whose red is
    zero-mean noise (its mean a rounding residue of either sign)."""
    rng = np.random.default_rng(seed)
    base = rng.uniform(20.0, 200.0, (len(kinds), 3))
    pulse = np.sin(2 * np.pi * rng.uniform(0.7, 3.5) * np.arange(n) / fps)
    block = base + rng.normal(0.0, 1.0, (n, len(kinds), 3)) + pulse[:, None, None]
    for i, kind in enumerate(kinds):
        if kind == "flat":
            block[:, i] = base[i]
        elif kind == "dead":
            block[:, i, 2] = 0.0
        elif kind == "zero-mean":
            block[:, i, 0] -= block[:, i, 0].mean()
    return block


@settings(deadline=None, max_examples=60, derandomize=True)
@given(
    kinds=st.lists(st.sampled_from(TRACE_KINDS), min_size=1, max_size=70),
    fps=st.sampled_from([8.0, 24.0, 29.97, 30.0, 60.0]),
    extra=st.integers(0, 600),
    seed=st.integers(0, 2**32 - 1),
)
@example(kinds=["pulse"], fps=30.0, extra=240, seed=1)
@example(kinds=list(TRACE_KINDS) * 17 + ["pulse", "flat"], fps=30.0, extra=240, seed=2)
def test_time_major_chrom_rows_equals_the_row_major_oracle(kinds, fps, extra, seed):
    # the time-major means, Xs and Ys give the row-major path's bits, and
    # every row is its own one-row (n, 1, 3) call
    block = trace_block(kinds, int(np.ceil(2 * fps)) + extra, fps, seed)
    waves, ok = chrom_rows(block, fps)
    want, want_ok = chrom_rows_row_major(np.moveaxis(block, 1, 0), fps)
    assert np.array_equal(ok, want_ok) and np.array_equal(waves, want)
    for i in range(len(kinds)):
        one, one_ok = chrom_rows(np.ascontiguousarray(block[:, i : i + 1]), fps)
        assert one_ok[0] == ok[i] and np.array_equal(one[0], waves[i])


def test_chrom_rows_memory_is_about_twice_its_input():
    # the normalized traces, then Xs and Ys, then the band-pass buffer: the
    # first is dropped before the last is made
    block = trace_block(["pulse"] * 64, 300, 30.0, seed=5)
    chrom_rows(block, 30.0)
    tracemalloc.start()
    try:
        waves, ok = chrom_rows(block, 30.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ok.all() and waves.shape == (64, 300)
    assert peak <= 2.25 * block.nbytes + 64 * 1024
