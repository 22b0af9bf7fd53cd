"""The pulse waveform container shared across the extraction pipeline."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class PulseWaveform:
    """Zero-mean scalar pulse signal at the video frame rate."""

    samples: np.ndarray
    fps: float

    def __post_init__(self):
        s = np.asarray(self.samples, dtype=np.float64)
        if s.ndim != 1:
            raise ValueError("PulseWaveform samples must be one-dimensional")
        if not np.all(np.isfinite(s)):
            raise ValueError("PulseWaveform samples must be finite")
        if not self.fps > 0:
            raise ValueError("PulseWaveform fps must be positive")
        rms = float(np.sqrt(np.mean(s * s))) if s.size else 0.0
        if rms > 0 and abs(float(s.mean())) > 1e-9 * rms:
            raise ValueError("PulseWaveform must be zero-mean")
        object.__setattr__(self, "samples", s)

    def __len__(self) -> int:
        return self.samples.shape[0]


def zero_mean(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    return x - x.mean() if x.size else x

