"""Biophysical model of the pulse signal available to a camera.

Skin is modelled as two layers. Light crosses a melanin-bearing epidermis
twice (Beer-Lambert transmission T_ep, melanosome absorption after Jacques'
6.6e11 * lambda^-3.33 cm^-1 power law) and scatters back from a
blood-perfused dermis (semi-infinite Kubelka-Munk reflectance R_d with
hemoglobin absorption from a tabulated spectrum and a Rayleigh+Mie reduced
scattering law):

    R(lambda) = T_ep(lambda)^2 * R_d(lambda)

The cardiac pulse modulates the dermal blood volume fraction f_blood by
delta_f_blood, so the camera-visible signal and the intrinsic
signal-to-interference ratio at one wavelength are

    S(lambda) = dR/df_blood * delta_f_blood
    L(lambda) = |S(lambda)|^2 / |R(lambda)|^2      (R at the mean f_blood)

and a camera channel c with illuminant E and sensitivity S_c sees

    M = | integral E * S_c * S dlambda |           (signal strength)
    N =   integral E * S_c * L dlambda             (SINR)

Because melanin sits entirely in T_ep, which cancels between numerator and
denominator of L, N is independent of skin tone while M is not: melanin
attenuates the usable signal but not its intrinsic quality. What darker
skin loses in practice therefore enters through sensor noise, modelled by

    SNR(p) = p / sqrt(p/g + (sigma_r/g)^2 + sigma_q^2)

for a pixel at level p with gain g (electrons/level), read noise sigma_r
(electrons) and quantization noise sigma_q (levels).

Hemoglobin extinction values are a 10 nm tabulation after the Prahl/OMLC
compilation (whole blood at 150 g/l, molecular weight 64500 g/mol);
melanin, baseline absorption and dermal scattering follow Jacques' skin
optics summary. Tables cover 400-700 nm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .errors import ModelError, UsageError
from .ingest import read_two_column_csv

WAVELENGTH_MIN_NM = 400.0
WAVELENGTH_MAX_NM = 700.0
DEFAULT_STEP_NM = 5.0
# The finest default grid step: 30 001 wavelengths over 400-700 nm.
MIN_STEP_NM = 0.01
# The most rows of a melanin sweep. A row takes about 0.5 ms on the default
# 5 nm grid and 11 ms on the 0.01 nm one: the largest table, about 5 s.
MAX_MELANIN_POINTS = 10_000

# molar extinction of hemoglobin, cm^-1 / (mol/l), 400..700 nm at 10 nm
_HB_GRID_NM = np.arange(400.0, 701.0, 10.0)
_EXT_OXY = np.array([
    266232.0, 466840.0, 480360.0, 246072.0, 102580.0, 62816.0, 44480.0,
    33209.2, 26629.2, 23684.8, 20932.8, 20035.2, 24202.4, 39956.8, 53236.0,
    43016.0, 32613.2, 44496.0, 48720.0, 14400.8, 3200.0, 1506.0, 942.0,
    610.0, 442.0, 368.0, 319.6, 294.0, 277.6, 276.0, 290.0,
])
_EXT_DEOXY = np.array([
    223296.0, 303956.0, 407560.0, 528600.0, 413280.0, 90000.0, 40000.0,
    28324.0, 23774.4, 21900.0, 20862.0, 23500.0, 31000.0, 39036.4, 46592.0,
    52700.0, 53412.0, 45072.0, 37020.0, 24000.0, 14677.2, 9443.0, 6510.0,
    5148.8, 4345.0, 3750.1, 3226.6, 2841.0, 2407.0, 2052.0, 1794.3,
])

HEMOGLOBIN_G_PER_L = 150.0
HEMOGLOBIN_MOL_WEIGHT = 64500.0
OXYGEN_SATURATION = 0.75       # arterial/venous mix in the dermal plexus
HG_VOLUME_FRACTION_REF = 0.45  # red-cell volume fraction of whole blood
EPIDERMIS_THICKNESS_CM = 0.005


def _check_wavelengths(wavelengths_nm) -> np.ndarray:
    lam = np.atleast_1d(np.asarray(wavelengths_nm, dtype=np.float64))
    if np.any(lam < WAVELENGTH_MIN_NM) or np.any(lam > WAVELENGTH_MAX_NM):
        raise ModelError(
            f"wavelengths must lie in [{WAVELENGTH_MIN_NM}, {WAVELENGTH_MAX_NM}] nm"
        )
    return lam


def melanin_absorption(wavelengths_nm) -> np.ndarray:
    """Melanosome absorption coefficient, cm^-1."""
    lam = _check_wavelengths(wavelengths_nm)
    return 6.6e11 * lam**-3.33


def baseline_absorption(wavelengths_nm) -> np.ndarray:
    """Bloodless, melanin-free tissue absorption, cm^-1."""
    lam = _check_wavelengths(wavelengths_nm)
    return 0.244 + 85.3 * np.exp(-(lam - 154.0) / 66.2)


def whole_blood_absorption(wavelengths_nm, oxygen_saturation: float = OXYGEN_SATURATION) -> np.ndarray:
    """Absorption of whole blood at normal hemoglobin load, cm^-1."""
    lam = _check_wavelengths(wavelengths_nm)
    ext = oxygen_saturation * np.interp(lam, _HB_GRID_NM, _EXT_OXY)
    ext += (1.0 - oxygen_saturation) * np.interp(lam, _HB_GRID_NM, _EXT_DEOXY)
    return np.log(10.0) * ext * HEMOGLOBIN_G_PER_L / HEMOGLOBIN_MOL_WEIGHT


def dermal_scattering(wavelengths_nm) -> np.ndarray:
    """Reduced scattering of the dermis (Mie + Rayleigh terms), cm^-1."""
    lam = _check_wavelengths(wavelengths_nm)
    return 2.0e5 * lam**-1.5 + 2.0e12 * lam**-4.0


@dataclass(frozen=True)
class SkinParams:
    """Volume fractions of the two-layer model; the pulse rides on f_blood."""

    f_mel: float = 0.15
    f_blood: float = 0.05
    f_hg: float = 0.45
    delta_f_blood: float = 0.004

    def __post_init__(self):
        for name in ("f_mel", "f_blood", "f_hg"):
            v = getattr(self, name)
            if not 0.0 < v < 1.0:
                raise UsageError(f"{name} must lie in (0, 1), got {v}")
        if not 0.0 <= self.delta_f_blood <= 0.1 * self.f_blood:
            raise UsageError(
                "delta_f_blood must be a small perturbation "
                f"(<= 0.1 * f_blood = {0.1 * self.f_blood}), got {self.delta_f_blood}"
            )


_CHANNEL_INDEX = {"r": 0, "g": 1, "b": 2}
_SENSITIVITY_CENTERS_NM = (610.0, 540.0, 460.0)  # r, g, b
_SENSITIVITY_SIGMA_NM = 35.0


def _default_grid(step_nm: float) -> np.ndarray:
    # the most steps that stay inside 400-700 nm; 1e-9 absorbs the rounding
    # of a step that divides 300 nm, such as 0.3 or 0.01
    n = math.floor((WAVELENGTH_MAX_NM - WAVELENGTH_MIN_NM) / step_nm + 1e-9)
    return WAVELENGTH_MIN_NM + step_nm * np.arange(n + 1)


@dataclass(frozen=True)
class SpectralContext:
    """Illuminant and camera sensitivities on a shared wavelength grid.

    Defaults: flat illuminant, Gaussian channel sensitivities centered at
    610/540/460 nm with a 35 nm sigma, 5 nm grid over 400-700 nm.
    """

    wavelengths_nm: np.ndarray
    illuminant: np.ndarray
    sensitivities: np.ndarray  # (3, n) rows r, g, b

    def __post_init__(self):
        lam = _check_wavelengths(self.wavelengths_nm)
        if lam.size < 2:
            raise UsageError("spectral grid needs at least two wavelengths")
        steps = np.diff(lam)
        if np.any(steps <= 0) or not np.allclose(steps, steps[0], rtol=1e-9, atol=1e-9):
            raise UsageError("wavelength grid must be ascending and uniform")
        e = np.asarray(self.illuminant, dtype=np.float64)
        s = np.asarray(self.sensitivities, dtype=np.float64)
        if e.shape != lam.shape or s.shape != (3, lam.size):
            raise UsageError("illuminant/sensitivities must match the grid")
        if np.any(e < 0) or np.any(s < 0):
            raise UsageError("illuminant and sensitivities must be non-negative")
        object.__setattr__(self, "wavelengths_nm", lam)
        object.__setattr__(self, "illuminant", e)
        object.__setattr__(self, "sensitivities", s)

    @classmethod
    def default(cls, step_nm: float = DEFAULT_STEP_NM) -> "SpectralContext":
        if not (math.isfinite(step_nm) and step_nm >= MIN_STEP_NM):
            raise UsageError(
                f"wavelength step must be finite and at least {MIN_STEP_NM} nm, got {step_nm}"
            )
        lam = _default_grid(step_nm)
        sens = np.stack(
            [
                np.exp(-0.5 * ((lam - c) / _SENSITIVITY_SIGMA_NM) ** 2)
                for c in _SENSITIVITY_CENTERS_NM
            ]
        )
        return cls(
            wavelengths_nm=lam, illuminant=np.ones_like(lam), sensitivities=sens
        )

    @classmethod
    def from_csv(
        cls,
        illuminant_csv: Path | None = None,
        sensitivity_csvs: tuple[Path, Path, Path] | None = None,
        step_nm: float = DEFAULT_STEP_NM,
    ) -> "SpectralContext":
        """Override the defaults from wavelength_nm,value CSV tables."""
        base = cls.default(step_nm)
        lam = base.wavelengths_nm
        illuminant = base.illuminant
        sens = base.sensitivities.copy()
        if illuminant_csv is not None:
            illuminant = _interp_csv(illuminant_csv, lam)
        if sensitivity_csvs is not None:
            sens = np.stack([_interp_csv(p, lam) for p in sensitivity_csvs])
        return cls(wavelengths_nm=lam, illuminant=illuminant, sensitivities=sens)

    def channel(self, name: str) -> np.ndarray:
        try:
            return self.sensitivities[_CHANNEL_INDEX[name.lower()]]
        except KeyError:
            raise UsageError(f"channel must be one of r/g/b, got {name!r}") from None


def _interp_csv(path: Path, lam: np.ndarray) -> np.ndarray:
    wavelengths, values = read_two_column_csv(path, "wavelength_nm,value")
    order = np.argsort(wavelengths)
    return np.interp(lam, wavelengths[order], values[order])


# ---------------------------------------------------------------------------
# Reflectance model
# ---------------------------------------------------------------------------


def epidermal_transmission(wavelengths_nm, f_mel: float) -> np.ndarray:
    """One-way Beer-Lambert transmission of the melanin-bearing epidermis."""
    mu = f_mel * melanin_absorption(wavelengths_nm)
    return np.exp(-mu * EPIDERMIS_THICKNESS_CM)


def _dermal_absorption(wavelengths_nm, f_blood: float, f_hg: float) -> np.ndarray:
    mu_blood = whole_blood_absorption(wavelengths_nm) * (f_hg / HG_VOLUME_FRACTION_REF)
    return f_blood * mu_blood + (1.0 - f_blood) * baseline_absorption(wavelengths_nm)


def _km_reflectance(x: np.ndarray) -> np.ndarray:
    # semi-infinite Kubelka-Munk layer, x = K/S
    return 1.0 + x - np.sqrt(x * x + 2.0 * x)


def dermal_reflectance(wavelengths_nm, f_blood: float, f_hg: float) -> np.ndarray:
    k = _dermal_absorption(wavelengths_nm, f_blood, f_hg)
    s = dermal_scattering(wavelengths_nm)
    return _km_reflectance(k / s)


def skin_reflectance(params: SkinParams, wavelengths_nm) -> np.ndarray:
    """Total diffuse reflectance R(lambda) in (0, 1]."""
    t = epidermal_transmission(wavelengths_nm, params.f_mel)
    return t * t * dermal_reflectance(wavelengths_nm, params.f_blood, params.f_hg)


def reflectance_over_blood(params: SkinParams, wavelengths_nm, f_blood_values) -> np.ndarray:
    """R(lambda) for many blood fractions at once; shape (n_fb, n_lambda)."""
    lam = _check_wavelengths(wavelengths_nm)
    fb = np.asarray(f_blood_values, dtype=np.float64)
    if np.any(fb <= 0) or np.any(fb >= 1):
        raise UsageError("f_blood values must lie in (0, 1)")
    t = epidermal_transmission(lam, params.f_mel)
    return t * t * dermal_reflectance(lam, fb[:, None], params.f_hg)


def reflectance_blood_derivative(params: SkinParams, wavelengths_nm) -> np.ndarray:
    """dR/df_blood at the mean blood fraction, from the closed-form
    derivative of the Kubelka-Munk reflectance."""
    lam = _check_wavelengths(wavelengths_nm)
    t = epidermal_transmission(lam, params.f_mel)
    s = dermal_scattering(lam)
    k = _dermal_absorption(lam, params.f_blood, params.f_hg)
    x = k / s
    dr_dx = 1.0 - (x + 1.0) / np.sqrt(x * x + 2.0 * x)
    mu_blood = whole_blood_absorption(lam) * (params.f_hg / HG_VOLUME_FRACTION_REF)
    dk_dfb = mu_blood - baseline_absorption(lam)
    return t * t * dr_dx * dk_dfb / s


def pulse_signal_spectrum(params: SkinParams, wavelengths_nm) -> np.ndarray:
    """S(lambda): reflectance swing produced by the blood-volume pulse."""
    return reflectance_blood_derivative(params, wavelengths_nm) * params.delta_f_blood


def signal_strength(params: SkinParams, ctx: SpectralContext, channel: str = "g") -> float:
    """M: magnitude of the channel-integrated pulse signal."""
    lam = ctx.wavelengths_nm
    integrand = ctx.illuminant * ctx.channel(channel) * pulse_signal_spectrum(params, lam)
    return float(abs(np.trapezoid(integrand, lam)))


def sinr(params: SkinParams, ctx: SpectralContext, channel: str = "g") -> float:
    """N: channel-integrated signal-to-interference ratio of the pulse."""
    lam = ctx.wavelengths_nm
    r = skin_reflectance(params, lam)
    if np.any(r < 1e-9):
        raise ModelError("reflectance vanishes on the grid")
    s = pulse_signal_spectrum(params, lam)
    ratio = (s * s) / (r * r)
    integrand = ctx.illuminant * ctx.channel(channel) * ratio
    return float(np.trapezoid(integrand, lam))


# ---------------------------------------------------------------------------
# Camera noise
# ---------------------------------------------------------------------------

# The largest gain whose shot noise NumPy can draw: a full-scale level of 255
# times the gain must stay under rng.poisson's mean limit of about 9.2e18.
MAX_GAIN = 9.2e18 / 255.0


@dataclass(frozen=True)
class CameraNoiseParams:
    """gain in electrons/level, read noise in electrons, quantization in levels."""

    gain: float = 1.0
    sigma_read: float = 1.5
    sigma_quant: float = 0.5

    def __post_init__(self):
        if not 0 < self.gain <= MAX_GAIN:
            raise UsageError(f"gain must lie in (0, {MAX_GAIN:.6g}], got {self.gain}")
        if self.sigma_read < 0 or self.sigma_quant < 0:
            raise UsageError("noise sigmas must be non-negative")
        # a pixel's variance grows with its level: full scale bounds them all
        with np.errstate(over="ignore"):
            var = 255.0 / np.float64(self.gain) + (np.float64(self.sigma_read) / self.gain) ** 2
            var += np.float64(self.sigma_quant) ** 2
        if not np.isfinite(var):
            raise UsageError(
                "the noise variance of a full-scale pixel, 255/gain + (sigma_read/gain)^2 + "
                f"sigma_quant^2, overflows float64: gain {self.gain}, "
                f"sigma_read {self.sigma_read}, sigma_quant {self.sigma_quant}"
            )


def camera_snr(p, noise: CameraNoiseParams = CameraNoiseParams()):
    """Per-pixel SNR at intensity level p in [0, 255]."""
    p_arr = np.asarray(p, dtype=np.float64)
    if np.any(p_arr < 0) or np.any(p_arr > 255):
        raise UsageError("pixel level must lie in [0, 255]")
    var = p_arr / noise.gain + (noise.sigma_read / noise.gain) ** 2 + noise.sigma_quant**2
    if np.any(var == 0):
        raise ModelError(
            "zero pixel level with zero read and quantization noise"
        )
    out = p_arr / np.sqrt(var)
    return float(out) if np.isscalar(p) or np.ndim(p) == 0 else out


# ---------------------------------------------------------------------------
# Sweeps backing the diagnostic tables
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Sweep:
    """The tables' settings: `points` melanin fractions from f_mel_min to
    f_mel_max seen by one channel on a step_nm grid, and the pixel levels
    level_min..level_max."""

    channel: str = field(default="g", metadata={"choices": tuple(_CHANNEL_INDEX)})
    f_mel_min: float = 0.02
    f_mel_max: float = 0.45
    points: int = 44
    step_nm: float = DEFAULT_STEP_NM
    level_min: int = 1
    level_max: int = 255

    def __post_init__(self):
        if not 1 <= self.points <= MAX_MELANIN_POINTS:
            raise UsageError(f"points must lie in [1, {MAX_MELANIN_POINTS}], got {self.points}")
        if not 0 <= self.level_min <= self.level_max <= 255:
            raise UsageError(
                "pixel levels must satisfy 0 <= level_min <= level_max <= 255, "
                f"got {self.level_min} and {self.level_max}"
            )


def melanin_sweep(
    f_mel_values,
    base: SkinParams = SkinParams(),
    ctx: SpectralContext | None = None,
    channel: str = "g",
) -> list[tuple[float, float, float]]:
    """(f_mel, signal strength M, sinr N) rows over a melanin sweep."""
    f_mel_values = list(f_mel_values)
    if not f_mel_values:
        raise UsageError("empty melanin sweep")
    ctx = ctx or SpectralContext.default()
    out = []
    for f_mel in f_mel_values:
        params = replace(base, f_mel=float(f_mel))
        out.append(
            (float(f_mel), signal_strength(params, ctx, channel), sinr(params, ctx, channel))
        )
    return out


def pixel_snr_sweep(levels, noise: CameraNoiseParams = CameraNoiseParams()) -> list[tuple[float, float]]:
    """Camera SNR as a function of the pixel level."""
    levels = list(levels)
    if not levels:
        raise UsageError("empty pixel-level sweep")
    return [(float(p), camera_snr(float(p), noise)) for p in levels]
