import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from rppg.signals import PulseWaveform, zero_mean


def test_pulse_waveform_requires_zero_mean():
    with pytest.raises(ValueError):
        PulseWaveform(samples=np.ones(16), fps=30.0)
    w = PulseWaveform(samples=zero_mean(np.random.default_rng(0).normal(5, 1, 64)), fps=30.0)
    assert abs(w.samples.mean()) <= 1e-9 * np.sqrt((w.samples**2).mean())


def test_pulse_waveform_allows_all_zero():
    w = PulseWaveform(samples=np.zeros(8), fps=10.0)
    assert len(w) == 8


@given(
    st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=200),
    st.floats(-1e6, 1e6),
)
def test_zero_mean_centers_and_ignores_shift(values, shift):
    x = np.asarray(values)
    a = zero_mean(x)
    b = zero_mean(x + shift)
    scale = max(1.0, np.abs(x).max())
    assert abs(a.mean()) <= 1e-9 * scale
    assert np.allclose(a, b, atol=1e-6 * max(1.0, abs(shift)) + 1e-9 * scale)

