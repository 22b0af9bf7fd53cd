"""Synthetic test videos with known heart rate and camera noise.

A scene is a uniform skin patch rendered through the biophysical
reflectance model: the blood volume fraction oscillates at the requested
heart rate, per-channel intensities are the illuminant/sensitivity-weighted
reflectance scaled to 8-bit range, and each pixel carries a static albedo
texture (small multiplicative variation) so that sub-level pulse amplitudes
survive integer quantization by spatial dithering. Optional extras: an
additive achromatic specular rectangle (clipped at 255), bbox motion
jitter, and a shot/read/quantization noise chain matching the camera noise
model (Poisson with variance p/g, Gaussian sigma_r/g, integer rounding).

Rendering is deterministic: all randomness derives from per-frame
counter-based generator streams seeded from (seed, stream tag, frame).
bias_scene is the one definition of the skin-tone bias scene.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .biophysics import (
    CameraNoiseParams,
    SkinParams,
    SpectralContext,
    reflectance_over_blood,
)
from .errors import InvalidSceneError, writing
from .heartrate import PASSBAND_HZ
from .ingest import (
    FrameSequence,
    GroundTruth,
    write_landmarks,
    write_raw_stream,
    write_frame_dir,
    write_timeseries_csv,
)

_STREAM_TEXTURE = 0xA1
_STREAM_MOTION = 0xB2
_STREAM_NOISE = 0xC3

SECOND_HARMONIC_FRACTION = 0.25
# The largest uint8 frame stack (n_frames x height x width x 3 bytes) a scene
# may render. render holds the whole stack and makes about 10 MB of it a
# second at 32x32 to 256x256, peaking near 1.2x the stack from 96x96 up: the
# largest scene takes about 2 minutes and 1.3 GB (a 10 s 1280x720 scene at
# 30 fps fits). It also keeps the raw header's uint32 millihertz fps in range.
MAX_SCENE_BYTES = 2**30
# Frames per block of _base_intensities, whose (block, wavelengths) float64
# reflectance and integrand would be 2.4 KB a frame for the whole scene.
BASE_BLOCK = 256


@dataclass(frozen=True)
class SpecularPatch:
    """Axis-aligned rectangle (x, y, w, h) of additive achromatic highlight."""

    rect: tuple[int, int, int, int]
    strength: float


@dataclass(frozen=True)
class SynthScene:
    width: int = 48
    height: int = 48
    fps: float = 30.0
    duration_s: float = 30.0
    hr_bpm: float = 72.0
    skin: SkinParams = field(default_factory=SkinParams)
    noise: CameraNoiseParams = field(default_factory=CameraNoiseParams)
    shot_noise: bool = True
    specular: SpecularPatch | None = None
    motion_px: int = 0
    exposure: float = 2.0
    texture_amplitude: float = 0.05
    two_harmonic: bool = False
    seed: int = 0

    def __post_init__(self):
        if self.width < 8 or self.height < 8:
            raise InvalidSceneError("frames must be at least 8x8")
        if self.fps <= 2.0 * PASSBAND_HZ[1]:
            raise InvalidSceneError("fps must exceed 7 Hz")
        if self.duration_s < 10.0:
            raise InvalidSceneError("scene must cover at least one 10 s window")
        if not 60.0 * PASSBAND_HZ[0] <= self.hr_bpm <= 60.0 * PASSBAND_HZ[1]:
            raise InvalidSceneError("hr_bpm must lie in [42, 210]")
        if not 0.0 <= self.texture_amplitude <= 0.5:
            raise InvalidSceneError("texture_amplitude must lie in [0, 0.5]")
        if self.exposure <= 0:
            raise InvalidSceneError("exposure must be positive")
        if self.seed < 0:
            raise InvalidSceneError("seed must be non-negative")
        if self.motion_px < 0 or 2 * self.motion_px >= min(self.width, self.height):
            raise InvalidSceneError("motion_px must be small against the frame")
        if self.specular is not None:
            x, y, w, h = self.specular.rect
            if w <= 0 or h <= 0 or x < 0 or y < 0 or x + w > self.width or y + h > self.height:
                raise InvalidSceneError(f"specular rect {self.specular.rect} outside frame")
            if self.specular.strength < 0:
                raise InvalidSceneError("specular strength must be non-negative")
        # Python integers from a finite frame count: the product cannot overflow
        if not (
            math.isfinite(self.duration_s * self.fps)
            and self.n_frames * self.height * self.width * 3 <= MAX_SCENE_BYTES
        ):
            raise InvalidSceneError(
                f"a {self.width}x{self.height} scene of {self.duration_s} s at {self.fps} fps "
                f"exceeds {MAX_SCENE_BYTES} bytes of frames"
            )
        # SkinParams keeps delta_f_blood under 0.1 * f_blood, so it stays above 0
        peak = float(blood_fraction_series(self)[1].max())
        if peak >= 1.0:
            raise InvalidSceneError(
                f"f_blood {self.skin.f_blood} with delta_f_blood {self.skin.delta_f_blood} "
                f"takes the blood fraction to {peak!r}, outside (0, 1)"
            )

    @property
    def n_frames(self) -> int:
        return int(round(self.duration_s * self.fps))


def bias_scene(f_mel: float, hr_bpm: float, seed: int, duration_s: float = 30.0,
               exposure: float = 1.1) -> SynthScene:
    """The skin-tone bias scene of acceptance criterion 4 and the bias study:
    a dim 24x24 face whose lower half carries a saturated specular band. It
    was calibrated so that plain facial aggregation sits on its detection
    cliff at f_mel 0.40 while the diffuse-gated combination still locks."""
    return SynthScene(
        width=24, height=24, fps=30.0, duration_s=duration_s, hr_bpm=hr_bpm,
        skin=SkinParams(f_mel=f_mel, f_blood=0.05, f_hg=0.45, delta_f_blood=0.004),
        specular=SpecularPatch(rect=(0, 12, 24, 12), strength=255.0),
        exposure=exposure, seed=seed,
    )


def _pulse_shape(phase: np.ndarray, two_harmonic: bool) -> np.ndarray:
    shape = np.sin(phase)
    if two_harmonic:
        shape = shape + SECOND_HARMONIC_FRACTION * np.sin(2.0 * phase)
    return shape


def blood_fraction_series(scene: SynthScene) -> tuple[np.ndarray, np.ndarray]:
    """Times and f_blood(t) = mean + delta * pulse shape."""
    t = np.arange(scene.n_frames) / scene.fps
    phase = 2.0 * np.pi * (scene.hr_bpm / 60.0) * t
    fb = scene.skin.f_blood + scene.skin.delta_f_blood * _pulse_shape(phase, scene.two_harmonic)
    return t, fb


def _base_intensities(scene: SynthScene, ctx: SpectralContext, fb: np.ndarray) -> np.ndarray:
    """Clean per-frame RGB levels (n, 3) before texture, specular, noise,
    BASE_BLOCK frames at a time: each frame's row is its own."""
    lam, scale = ctx.wavelengths_nm, 255.0 * scene.exposure
    out = np.empty((fb.size, 3))
    for start in range(0, fb.size, BASE_BLOCK):
        block = slice(start, start + BASE_BLOCK)
        refl = reflectance_over_blood(scene.skin, lam, fb[block])
        for c, name in enumerate("rgb"):
            w = ctx.illuminant * ctx.channel(name)
            out[block, c] = scale * np.trapezoid(w * refl, lam) / np.trapezoid(w, lam)
    return out


def render(scene: SynthScene, ctx: SpectralContext | None = None):
    """Render a scene; returns (FrameSequence, the (n, 4) int64 bboxes of its
    frames, GroundTruth). Synthetic faces have no eye or mouth polygons."""
    ctx = ctx or SpectralContext.default()
    t, fb = blood_fraction_series(scene)
    base = _base_intensities(scene, ctx, fb)

    h, w = scene.height, scene.width
    rng_tex = np.random.default_rng((scene.seed, _STREAM_TEXTURE))
    albedo = 1.0 + scene.texture_amplitude * rng_tex.uniform(-1.0, 1.0, size=(h, w))

    noise = scene.noise
    frames = np.empty((scene.n_frames, h, w, 3), dtype=np.uint8)
    m = scene.motion_px
    bboxes = np.tile([m, m, w - 2 * m, h - 2 * m], (scene.n_frames, 1))
    for i in range(scene.n_frames):
        clean = base[i][None, None, :] * albedo[:, :, None]
        if scene.specular is not None:
            x, y, pw, ph = scene.specular.rect
            clean = clean.copy()
            clean[y : y + ph, x : x + pw, :] += scene.specular.strength
        clean = np.clip(clean, 0.0, 255.0)
        levels = clean
        if scene.shot_noise or noise.sigma_read > 0:
            rng = np.random.default_rng((scene.seed, _STREAM_NOISE, i))
            if scene.shot_noise:
                levels = rng.poisson(levels * noise.gain).astype(np.float64) / noise.gain
            if noise.sigma_read > 0:
                levels = levels + rng.normal(0.0, noise.sigma_read / noise.gain, size=clean.shape)
        frames[i] = np.clip(np.rint(levels), 0.0, 255.0).astype(np.uint8)

        if m > 0:
            rng_m = np.random.default_rng((scene.seed, _STREAM_MOTION, i))
            bboxes[i, :2] += rng_m.integers(-m, m + 1, size=2)

    seq = FrameSequence(frames=frames, fps=scene.fps)
    hr_t = np.arange(0.0, scene.duration_s - 1e-9, 1.0)
    gt = GroundTruth(
        ppg_time_s=t,
        ppg_value=fb,
        hr_time_s=hr_t,
        hr_bpm=np.full(hr_t.shape, scene.hr_bpm),
    )
    return seq, bboxes, gt


def write_scene_dataset(scene: SynthScene, outdir: Path, layout: str = "raw") -> dict:
    """Render and persist a scene; returns the file map. An outdir or a file
    in it that cannot be written is a UsageError."""
    outdir = Path(outdir)
    with writing(outdir):
        outdir.mkdir(parents=True, exist_ok=True)
    seq, bboxes, gt = render(scene)
    if layout == "raw":
        frames_path = outdir / "frames.raw"
        write_raw_stream(seq, frames_path)
    elif layout == "ppm":
        frames_path = outdir / "frames"
        write_frame_dir(seq, frames_path)
    else:
        raise InvalidSceneError(f"unknown dataset layout {layout!r}")
    landmarks_path = outdir / "landmarks.jsonl"
    write_landmarks(bboxes, landmarks_path)
    hr_path = outdir / "hr.csv"
    write_timeseries_csv(gt.hr_time_s, gt.hr_bpm, hr_path)
    ppg_path = outdir / "ppg.csv"
    write_timeseries_csv(gt.ppg_time_s, gt.ppg_value, ppg_path)
    return {
        "frames": frames_path,
        "landmarks": landmarks_path,
        "hr": hr_path,
        "ppg": ppg_path,
    }
