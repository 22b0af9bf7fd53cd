import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from rppg.biophysics import (
    MAX_GAIN,
    MAX_MELANIN_POINTS,
    MIN_STEP_NM,
    CameraNoiseParams,
    SkinParams,
    SpectralContext,
    Sweep,
    _km_reflectance,
    camera_snr,
    dermal_reflectance,
    dermal_scattering,
    epidermal_transmission,
    melanin_absorption,
    melanin_sweep,
    pixel_snr_sweep,
    pulse_signal_spectrum,
    reflectance_blood_derivative,
    reflectance_over_blood,
    signal_strength,
    sinr,
    skin_reflectance,
    whole_blood_absorption,
)
from rppg.errors import ModelError, UsageError

AVG = SkinParams()  # f_mel 0.15, f_blood 0.05, f_hg 0.45, delta 0.004


def with_melanin(f_mel, base=AVG):
    return SkinParams(
        f_mel=f_mel,
        f_blood=base.f_blood,
        f_hg=base.f_hg,
        delta_f_blood=base.delta_f_blood,
    )


# ---------------------------------------------------------------------------
# Absorption and scattering primitives
# ---------------------------------------------------------------------------


def test_wavelengths_outside_table_rejected():
    for bad in (399.9, 700.1, [500.0, 800.0]):
        with pytest.raises(ModelError, match="wavelengths must lie in"):
            melanin_absorption(bad)
    melanin_absorption([400.0, 700.0])  # endpoints allowed


def test_melanin_power_law_spot_value():
    assert melanin_absorption(500.0) == pytest.approx(6.6e11 * 500.0**-3.33, rel=1e-12)
    # shorter wavelengths absorb more
    mu = melanin_absorption(np.arange(400.0, 701.0, 25.0))
    assert np.all(np.diff(mu) < 0)


def test_whole_blood_spot_value():
    # ln(10) * (sat * eps_oxy + (1-sat) * eps_deoxy) * 150 / 64500 at a
    # tabulated wavelength, so no interpolation is involved
    expect = math.log(10.0) * (0.75 * 43016.0 + 0.25 * 52700.0) * 150.0 / 64500.0
    assert whole_blood_absorption(550.0)[0] == pytest.approx(expect, rel=1e-12)


def test_hemoglobin_orderings_match_published_spectra():
    # pulse-oximetry red: deoxygenated blood absorbs far more at 660 nm
    oxy = whole_blood_absorption([540.0, 660.0], oxygen_saturation=1.0)
    deoxy = whole_blood_absorption([540.0, 660.0], oxygen_saturation=0.0)
    assert deoxy[1] > 5.0 * oxy[1]
    # green absorption dwarfs red for both species
    assert oxy[0] > 50.0 * oxy[1]
    assert deoxy[0] > 5.0 * deoxy[1]


def test_scattering_decreases_with_wavelength():
    s = dermal_scattering(np.arange(400.0, 701.0, 10.0))
    assert np.all(np.diff(s) < 0)
    assert np.all(s > 0)


# ---------------------------------------------------------------------------
# Layered reflectance
# ---------------------------------------------------------------------------


def test_zero_melanin_gives_unit_transmission():
    lam = np.arange(400.0, 701.0, 5.0)
    assert np.all(epidermal_transmission(lam, 0.0) == 1.0)
    # and the full reflectance collapses onto the dermis
    tiny = with_melanin(1e-12)
    assert np.allclose(
        skin_reflectance(tiny, lam),
        dermal_reflectance(lam, tiny.f_blood, tiny.f_hg),
        rtol=1e-8,
    )


def test_km_kernel_closed_forms():
    assert _km_reflectance(np.array([0.0]))[0] == pytest.approx(1.0)
    assert _km_reflectance(np.array([4.0]))[0] == pytest.approx(5.0 - math.sqrt(24.0), rel=1e-12)
    x = np.linspace(0.0, 10.0, 50)
    r = _km_reflectance(x)
    assert np.all(np.diff(r) < 0)
    assert np.all((r > 0) & (r <= 1.0))


def test_reflectance_bounded_and_darker_with_melanin():
    lam = np.arange(400.0, 701.0, 5.0)
    r_light = skin_reflectance(with_melanin(0.1), lam)
    r_dark = skin_reflectance(with_melanin(0.3), lam)
    for r in (r_light, r_dark):
        assert np.all((r > 0.0) & (r <= 1.0))
    assert np.all(r_dark < r_light)


def test_red_reflects_more_than_green():
    r = skin_reflectance(AVG, [550.0, 650.0])
    assert r[1] > r[0]


def test_reflectance_over_blood_matches_loop():
    lam = np.arange(400.0, 701.0, 10.0)
    fbs = [0.02, 0.05, 0.09]
    grid = reflectance_over_blood(AVG, lam, fbs)
    assert grid.shape == (3, lam.size)
    for i, fb in enumerate(fbs):
        p = SkinParams(f_mel=AVG.f_mel, f_blood=fb, f_hg=AVG.f_hg, delta_f_blood=0.0)
        assert np.allclose(grid[i], skin_reflectance(p, lam), rtol=1e-12)
    with pytest.raises(UsageError):
        reflectance_over_blood(AVG, lam, [0.0])


# ---------------------------------------------------------------------------
# Pulse signal and SINR
# ---------------------------------------------------------------------------


def test_zero_pulse_swing_gives_zero_signal():
    still = SkinParams(f_mel=0.15, f_blood=0.05, f_hg=0.45, delta_f_blood=0.0)
    ctx = SpectralContext.default()
    assert signal_strength(still, ctx) == 0.0
    assert sinr(still, ctx) == 0.0


def test_signal_strength_drops_with_melanin():
    ctx = SpectralContext.default()
    assert signal_strength(with_melanin(0.1), ctx, "g") > signal_strength(
        with_melanin(0.3), ctx, "g"
    )


def finite_difference_derivative(params, lam):
    """Oracle for dR/df_blood: a central difference with step 1e-4 * f_blood."""
    h = 1e-4 * params.f_blood
    t = epidermal_transmission(lam, params.f_mel)
    hi = dermal_reflectance(lam, params.f_blood + h, params.f_hg)
    lo = dermal_reflectance(lam, params.f_blood - h, params.f_hg)
    return t * t * (hi - lo) / (2.0 * h)


def test_derivative_routes_agree():
    lam = np.arange(400.0, 701.0, 5.0)
    analytic = reflectance_blood_derivative(AVG, lam)
    fd = finite_difference_derivative(AVG, lam)
    assert np.max(np.abs(fd - analytic) / np.abs(analytic)) < 1e-6


def trapezoid_oracle(y, x):
    total = 0.0
    for i in range(len(x) - 1):
        total += 0.5 * (y[i] + y[i + 1]) * (x[i + 1] - x[i])
    return total


def test_signal_strength_matches_quadrature_oracle():
    ctx = SpectralContext.default()
    lam = ctx.wavelengths_nm
    integrand = ctx.illuminant * ctx.channel("g") * pulse_signal_spectrum(AVG, lam)
    expect = abs(trapezoid_oracle(integrand, lam))
    assert signal_strength(AVG, ctx, "g") == pytest.approx(expect, rel=1e-12)


def test_sinr_matches_quadrature_oracle():
    ctx = SpectralContext.default()
    lam = ctx.wavelengths_nm
    s = pulse_signal_spectrum(AVG, lam)
    r = skin_reflectance(AVG, lam)
    integrand = ctx.illuminant * ctx.channel("g") * (s / r) ** 2
    assert sinr(AVG, ctx, "g") == pytest.approx(trapezoid_oracle(integrand, lam), rel=1e-12)


def test_sinr_independent_of_melanin():
    ctx = SpectralContext.default()
    values = [sinr(with_melanin(f), ctx, "g") for f in (0.05, 0.15, 0.30, 0.45)]
    ref = max(values)
    for v in values:
        assert abs(v - ref) / ref < 1e-9


def test_sinr_quadratic_in_pulse_swing():
    ctx = SpectralContext.default()
    small = SkinParams(f_mel=0.15, f_blood=0.05, f_hg=0.45, delta_f_blood=0.002)
    large = SkinParams(f_mel=0.15, f_blood=0.05, f_hg=0.45, delta_f_blood=0.004)
    assert sinr(large, ctx) == pytest.approx(4.0 * sinr(small, ctx), rel=1e-12)
    assert signal_strength(large, ctx) == pytest.approx(
        2.0 * signal_strength(small, ctx), rel=1e-12
    )


def test_quadrature_converges_under_grid_halving():
    coarse = SpectralContext.default(step_nm=5.0)
    fine = SpectralContext.default(step_nm=2.5)
    for f in (signal_strength, sinr):
        a, b = f(AVG, coarse, "g"), f(AVG, fine, "g")
        assert abs(a - b) / abs(b) < 0.005


# ---------------------------------------------------------------------------
# Camera noise model
# ---------------------------------------------------------------------------


def test_camera_snr_closed_forms():
    assert camera_snr(0.0, CameraNoiseParams(sigma_quant=0.5)) == 0.0
    got = camera_snr(100.0, CameraNoiseParams(gain=1.0, sigma_read=2.0, sigma_quant=1.0))
    assert got == pytest.approx(100.0 / math.sqrt(105.0), rel=1e-12)
    assert camera_snr(100.0) == pytest.approx(100.0 / math.sqrt(102.5), rel=1e-12)


def test_camera_snr_strictly_increasing():
    levels = np.arange(1.0, 256.0)
    snr = camera_snr(levels)
    assert snr.shape == levels.shape
    assert np.all(np.diff(snr) > 0)


def test_camera_snr_guards():
    with pytest.raises(UsageError):
        camera_snr(-1.0)
    with pytest.raises(UsageError):
        camera_snr(256.0)
    with pytest.raises(ModelError, match="zero pixel level"):
        camera_snr(0.0, CameraNoiseParams(sigma_read=0.0, sigma_quant=0.0))


@given(
    st.floats(0.01, 255.0),
    st.floats(0.1, 16.0),
    st.floats(0.0, 10.0),
    st.floats(0.0, 2.0),
)
def test_camera_snr_matches_formula(p, g, sr, sq):
    noise = CameraNoiseParams(gain=g, sigma_read=sr, sigma_quant=sq)
    expect = p / math.sqrt(p / g + (sr / g) ** 2 + sq**2)
    assert camera_snr(p, noise) == pytest.approx(expect, rel=1e-12)


# ---------------------------------------------------------------------------
# Parameter validation
# ---------------------------------------------------------------------------


def test_skin_params_validation():
    with pytest.raises(UsageError):
        SkinParams(f_mel=0.0)
    with pytest.raises(UsageError):
        SkinParams(f_blood=1.0)
    with pytest.raises(UsageError):
        SkinParams(f_hg=-0.1)
    with pytest.raises(UsageError):
        # swing larger than a tenth of the mean blood fraction
        SkinParams(f_blood=0.05, delta_f_blood=0.006)
    SkinParams(delta_f_blood=0.0)


def test_camera_noise_params_validation():
    with pytest.raises(UsageError):
        CameraNoiseParams(gain=0.0)
    # past MAX_GAIN, 255 x gain is beyond rng.poisson's mean limit
    assert 255.0 * MAX_GAIN <= 9.2e18
    CameraNoiseParams(gain=MAX_GAIN)
    for gain in (float(np.nextafter(MAX_GAIN, np.inf)), 1e20, float("nan")):
        with pytest.raises(UsageError):
            CameraNoiseParams(gain=gain)
    with pytest.raises(UsageError):
        CameraNoiseParams(sigma_read=-1.0)
    with pytest.raises(UsageError):
        CameraNoiseParams(sigma_quant=-0.5)


# camera_snr squares sigma_read / gain: a model whose full-scale variance is
# not a float64 is refused when it is built
@pytest.mark.parametrize(
    "kwargs",
    [
        {"gain": 1e-160},
        {"sigma_read": 1e200},
        {"sigma_quant": 1e200},
        {"gain": 5e-324, "sigma_read": 0.0},  # 255 / gain alone overflows
        {"sigma_read": float("nan")},
    ],
)
def test_camera_noise_params_refuse_a_variance_past_float64(kwargs):
    with pytest.raises(UsageError, match="variance of a full-scale pixel"):
        CameraNoiseParams(**kwargs)


def test_camera_noise_params_take_any_finite_variance():
    noise = CameraNoiseParams(gain=1e-150)  # (sigma_read / gain)^2 = 2.25e300
    assert 0.0 < camera_snr(255.0, noise) < 1e-140
    assert pixel_snr_sweep([0, 255], CameraNoiseParams(sigma_quant=1e150))[1][1] > 0.0


def test_spectral_context_default_layout():
    ctx = SpectralContext.default()
    assert ctx.wavelengths_nm[0] == 400.0
    assert ctx.wavelengths_nm[-1] == 700.0
    assert ctx.wavelengths_nm.size == 61
    assert SpectralContext.default(MIN_STEP_NM).wavelengths_nm.size == 30001
    assert np.all(ctx.illuminant == 1.0)
    # channel peaks sit at the stated centers
    lam = ctx.wavelengths_nm
    assert lam[np.argmax(ctx.channel("r"))] == 610.0
    assert lam[np.argmax(ctx.channel("G"))] == 540.0
    assert lam[np.argmax(ctx.channel("b"))] == 460.0


# The grid takes the most whole steps that stay inside 400-700 nm; a step
# that divides 300 nm ends on 700 nm.
@pytest.mark.parametrize(
    "step_nm, size",
    [(7.0, 43), (0.7, 429), (0.011, 27273), (150.1, 2),
     (5.0, 61), (2.5, 121), (0.3, 1001), (0.1, 3001), (0.01, 30001)],
)
def test_spectral_context_default_grid_stays_inside_the_band(step_nm, size):
    lam = SpectralContext.default(step_nm).wavelengths_nm
    assert lam.size == size
    assert lam[0] == 400.0
    assert lam[-1] <= 700.0 < lam[-1] + step_nm


# steps under MIN_STEP_NM are refused before any grid is allocated: 1e-9 nm
# would be 3e11 wavelengths
@pytest.mark.parametrize(
    "step_nm",
    [0.0, -5.0, float("nan"), float("inf"), 1e-9, float(np.nextafter(MIN_STEP_NM, 0.0))],
)
def test_spectral_context_default_rejects_bad_step(step_nm):
    with pytest.raises(UsageError):
        SpectralContext.default(step_nm)
    with pytest.raises(UsageError):
        SpectralContext.from_csv(step_nm=step_nm)


def test_spectral_context_validation():
    lam = np.arange(400.0, 701.0, 10.0)
    ones = np.ones_like(lam)
    sens = np.ones((3, lam.size))
    with pytest.raises(UsageError):
        SpectralContext(lam, ones[:-1], sens)
    with pytest.raises(UsageError):
        SpectralContext(lam, ones, sens[:2])
    with pytest.raises(UsageError):
        SpectralContext(lam, -ones, sens)
    with pytest.raises(UsageError):
        SpectralContext(lam[::-1], ones, sens)
    jagged = lam.copy()
    jagged[3] += 1.0
    with pytest.raises(UsageError):
        SpectralContext(jagged, ones, sens)
    with pytest.raises(UsageError):
        SpectralContext(np.array([500.0]), np.array([1.0]), np.ones((3, 1)))
    with pytest.raises(ModelError, match="wavelengths must lie in"):
        SpectralContext(lam + 100.0, ones, sens)
    with pytest.raises(UsageError):
        SpectralContext.default().channel("x")


def test_spectral_context_from_csv(tmp_path):
    ill = tmp_path / "illuminant.csv"
    ill.write_text("wavelength_nm,value\n400,2.0\n700,4.0\n")
    ctx = SpectralContext.from_csv(illuminant_csv=ill)
    assert ctx.illuminant[0] == pytest.approx(2.0)
    assert ctx.illuminant[-1] == pytest.approx(4.0)
    mid = np.searchsorted(ctx.wavelengths_nm, 550.0)
    assert ctx.illuminant[mid] == pytest.approx(3.0)
    # sensitivities untouched
    assert np.allclose(ctx.sensitivities, SpectralContext.default().sensitivities)

    flat = tmp_path / "flat.csv"
    flat.write_text("wavelength_nm,value\n400,1.0\n700,1.0\n")
    ctx2 = SpectralContext.from_csv(sensitivity_csvs=(flat, flat, flat))
    assert np.all(ctx2.sensitivities == 1.0)


# ---------------------------------------------------------------------------
# Diagnostic sweeps
# ---------------------------------------------------------------------------


def test_melanin_sweep_rows():
    f_mels = np.linspace(0.02, 0.45, 44)
    rows = melanin_sweep(f_mels)
    assert len(rows) == 44
    strengths = np.array([r[1] for r in rows])
    sinrs = np.array([r[2] for r in rows])
    assert np.all(np.diff(strengths) < 0)
    assert np.ptp(sinrs) / sinrs.max() < 1e-9
    with pytest.raises(UsageError):
        melanin_sweep([])
    # each row keeps the base's other fractions
    base = SkinParams(f_blood=0.08, f_hg=0.4, delta_f_blood=0.002)
    ctx = SpectralContext.default()
    ((_, m, n),) = melanin_sweep([0.3], base, ctx, "r")
    row = SkinParams(f_mel=0.3, f_blood=0.08, f_hg=0.4, delta_f_blood=0.002)
    assert (m, n) == (signal_strength(row, ctx, "r"), sinr(row, ctx, "r"))


def test_pixel_snr_sweep_rows():
    rows = pixel_snr_sweep(range(1, 256))
    assert len(rows) == 255
    snrs = np.array([r[1] for r in rows])
    assert np.all(np.diff(snrs) > 0)
    with pytest.raises(UsageError):
        pixel_snr_sweep([])


def test_sweep_validation():
    assert Sweep() == Sweep(channel="g", f_mel_min=0.02, f_mel_max=0.45, points=44,
                            step_nm=5.0, level_min=1, level_max=255)
    Sweep(points=1)
    Sweep(points=MAX_MELANIN_POINTS)
    Sweep(level_min=0, level_max=0)
    for kwargs in (
        {"points": 0},
        {"points": MAX_MELANIN_POINTS + 1},
        {"level_min": -1},
        {"level_max": 256},
        {"level_min": 9, "level_max": 3},
    ):
        with pytest.raises(UsageError):
            Sweep(**kwargs)
