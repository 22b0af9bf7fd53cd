import tracemalloc

import numpy as np
import pytest

from rppg import synth
from rppg.biophysics import CameraNoiseParams, SkinParams, SpectralContext
from rppg.config import RunConfig
from rppg.errors import InvalidSceneError
from rppg.ingest import load_frame_sequence, load_landmarks, read_timeseries_csv
from rppg.pipeline import run_pipeline
from rppg.synth import (
    MAX_SCENE_BYTES,
    SpecularPatch,
    SynthScene,
    blood_fraction_series,
    render,
    write_scene_dataset,
)


def quiet_scene(**kw):
    kw.setdefault("width", 16)
    kw.setdefault("height", 16)
    kw.setdefault("fps", 24.0)
    kw.setdefault("duration_s", 10.0)
    kw.setdefault("shot_noise", False)
    kw.setdefault("noise", CameraNoiseParams(sigma_read=0.0, sigma_quant=0.5))
    return SynthScene(**kw)


def melanin(f_mel, delta=0.004):
    return SkinParams(f_mel=f_mel, f_blood=0.05, f_hg=0.45, delta_f_blood=delta)


# ---------------------------------------------------------------------------
# Scene validation and basic layout
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "kw",
    [
        {"width": 7},
        {"height": 4},
        {"fps": 7.0},
        {"duration_s": 9.9},
        {"hr_bpm": 41.0},
        {"hr_bpm": 211.0},
        {"texture_amplitude": 0.6},
        {"exposure": 0.0},
        {"motion_px": 8},  # 2*8 >= 16
        {"specular": SpecularPatch(rect=(10, 10, 8, 8), strength=40.0)},
        {"specular": SpecularPatch(rect=(0, 0, 4, 4), strength=-1.0)},
        {"seed": -1},
    ],
)
def test_invalid_scenes_rejected(kw):
    with pytest.raises(InvalidSceneError):
        quiet_scene(**kw)


def test_scene_bytes_bounded_before_rendering():
    # Only constructed, never rendered: the largest stack that fits, then
    # one frame more.
    frame_bytes = 512 * 512 * 3
    n = MAX_SCENE_BYTES // frame_bytes
    assert SynthScene(width=512, height=512, fps=10.0, duration_s=n / 10).n_frames == n
    with pytest.raises(InvalidSceneError, match="bytes of frames"):
        SynthScene(width=512, height=512, fps=10.0, duration_s=(n + 1) / 10)
    assert SynthScene(width=32, height=32, duration_s=240.0).n_frames == 7200


@pytest.mark.parametrize("two_harmonic", [False, True])
def test_blood_fraction_past_one_is_refused_when_the_scene_is_built(two_harmonic):
    skin = SkinParams(f_blood=0.95, delta_f_blood=0.09)
    with pytest.raises(InvalidSceneError, match="f_blood 0.95 with delta_f_blood 0.09"):
        quiet_scene(skin=skin, two_harmonic=two_harmonic)
    # the series' own peak decides: 0.9 + 0.09 * 1.0 < 1 renders
    fb = blood_fraction_series(quiet_scene(skin=SkinParams(f_blood=0.9, delta_f_blood=0.09)))[1]
    assert fb.max() < 1.0


def test_frame_count_rounds_duration():
    assert quiet_scene(duration_s=12.5, fps=30.0).n_frames == 375
    assert quiet_scene(duration_s=10.0, fps=24.0).n_frames == 240


def test_render_shapes_and_sidecar():
    scene = quiet_scene()
    seq, sidecar, gt = render(scene)
    assert seq.frames.shape == (240, 16, 16, 3)
    assert seq.frames.dtype == np.uint8
    assert seq.fps == 24.0
    assert sidecar.shape == (240, 4) and sidecar.dtype == np.int64
    assert (sidecar == [0, 0, 16, 16]).all()
    assert np.all(gt.hr_bpm == 72.0)
    assert gt.hr_time_s[0] == 0.0 and gt.hr_time_s[-1] == 9.0
    assert gt.ppg_time_s.size == 240


def test_determinism_and_seed_sensitivity():
    a, _, _ = render(quiet_scene(seed=7))
    b, _, _ = render(quiet_scene(seed=7))
    c, _, _ = render(quiet_scene(seed=8))
    assert np.array_equal(a.frames, b.frames)
    assert not np.array_equal(a.frames, c.frames)


# ---------------------------------------------------------------------------
# Pulse content
# ---------------------------------------------------------------------------


def test_blood_fraction_is_pure_tone():
    scene = quiet_scene(fps=25.0, duration_s=20.0, hr_bpm=72.0)
    t, fb = blood_fraction_series(scene)
    spec = np.abs(np.fft.rfft(fb - fb.mean()))
    f0_bin = int(round(1.2 * fb.size / 25.0))
    assert np.argmax(spec) == f0_bin
    assert spec[2 * f0_bin] < 1e-9 * spec[f0_bin]


def test_two_harmonic_pulse_shape():
    scene = quiet_scene(fps=25.0, duration_s=20.0, hr_bpm=72.0, two_harmonic=True)
    _, fb = blood_fraction_series(scene)
    spec = np.abs(np.fft.rfft(fb - fb.mean()))
    f0_bin = int(round(1.2 * fb.size / 25.0))
    assert spec[2 * f0_bin] == pytest.approx(0.25 * spec[f0_bin], rel=1e-9)


def test_base_intensities_are_made_a_block_of_frames_at_a_time(monkeypatch):
    # a frame's levels are its own, so blocks give the bytes of one frame at
    # a time, and a 600 s scene never holds its (n, 61) spectra whole
    scene = quiet_scene(width=8, height=8, duration_s=600.0)
    ctx = SpectralContext.default()
    _, fb = blood_fraction_series(scene)
    synth._base_intensities(scene, ctx, fb[:1])  # fills the caches
    tracemalloc.start()
    try:
        levels = synth._base_intensities(scene, ctx, fb)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20 < fb.size * ctx.wavelengths_nm.size * 8
    monkeypatch.setattr(synth, "BASE_BLOCK", 1)
    assert np.array_equal(synth._base_intensities(scene, ctx, fb[:600]), levels[:600])


def test_melanin_darkens_and_flattens_the_pulse():
    light, _, _ = render(quiet_scene(skin=melanin(0.10)))
    dark, _, _ = render(quiet_scene(skin=melanin(0.35)))
    g_light = light.frames[..., 1].mean(axis=(1, 2))
    g_dark = dark.frames[..., 1].mean(axis=(1, 2))
    assert g_light.mean() > g_dark.mean()
    assert np.ptp(g_light) > np.ptp(g_dark)


def test_frame_mean_is_stationary_over_whole_periods():
    # 24 fps at 72 bpm puts exactly 20 frames in one pulse period
    scene = quiet_scene(duration_s=20.0)
    seq, _, _ = render(scene)
    means = seq.frames.mean(axis=(1, 2, 3)).reshape(-1, 20).mean(axis=1)
    assert np.ptp(means) <= 1.0


# ---------------------------------------------------------------------------
# Specular patch
# ---------------------------------------------------------------------------


def test_specular_patch_brightens_rect():
    scene = quiet_scene(texture_amplitude=0.0, specular=SpecularPatch((2, 2, 4, 4), 40.0))
    seq, _, _ = render(scene)
    frame = seq.frames[0].astype(float)
    inside = frame[2:6, 2:6].mean()
    outside = frame[8:, 8:].mean()
    assert inside > outside + 30.0


def test_saturated_patch_loses_relative_modulation():
    scene = quiet_scene(texture_amplitude=0.0, specular=SpecularPatch((2, 2, 4, 4), 220.0))
    seq, _, _ = render(scene)
    g = seq.frames[..., 1].astype(float)
    rel_in = np.ptp(g[:, 2:6, 2:6].mean(axis=(1, 2))) / g[:, 2:6, 2:6].mean()
    rel_out = np.ptp(g[:, 8:, 8:].mean(axis=(1, 2))) / g[:, 8:, 8:].mean()
    assert rel_in < rel_out
    # the +220 highlight drives the skin levels into clipping
    assert np.all(seq.frames[0, 2:6, 2:6] == 255)


# ---------------------------------------------------------------------------
# Motion jitter
# ---------------------------------------------------------------------------


def test_motion_jitters_bbox_within_frame():
    scene = quiet_scene(motion_px=3, duration_s=10.0)
    _, sidecar, _ = render(scene)
    xs, ys = sidecar[:, 0], sidecar[:, 1]
    assert (sidecar[:, 2:] == 10).all()
    assert xs.min() >= 0 and xs.max() <= 6
    assert ys.min() >= 0 and ys.max() <= 6
    assert xs.std() > 0  # jitter actually happens


# ---------------------------------------------------------------------------
# Noise model Monte-Carlo
# ---------------------------------------------------------------------------


def measured_noise_variance(scene):
    seq, _, _ = render(scene)
    f = seq.frames.astype(np.float64)
    return f.var(axis=0).mean(axis=(0, 1)), f.mean(axis=0).mean(axis=(0, 1))


@pytest.mark.parametrize("gain,sigma_read", [(1.0, 1.5), (2.0, 3.0)])
def test_full_noise_chain_variance(gain, sigma_read):
    scene = SynthScene(
        width=8,
        height=8,
        fps=20.0,
        duration_s=50.0,  # 1000 frames
        skin=melanin(0.15, delta=0.0),  # hold the clean level constant
        noise=CameraNoiseParams(gain=gain, sigma_read=sigma_read),
        texture_amplitude=0.0,
        seed=11,
    )
    var, mean = measured_noise_variance(scene)
    expect = mean / gain + (sigma_read / gain) ** 2 + 1.0 / 12.0
    assert np.all(np.abs(var - expect) / expect < 0.10)


def test_read_noise_only_variance():
    scene = SynthScene(
        width=8,
        height=8,
        fps=20.0,
        duration_s=50.0,
        skin=melanin(0.15, delta=0.0),
        shot_noise=False,
        noise=CameraNoiseParams(gain=1.0, sigma_read=3.0),
        texture_amplitude=0.0,
        seed=12,
    )
    var, _ = measured_noise_variance(scene)
    expect = 9.0 + 1.0 / 12.0
    assert np.all(np.abs(var - expect) / expect < 0.10)


def test_zero_noise_frames_are_static():
    scene = quiet_scene(skin=melanin(0.15, delta=0.0))
    seq, _, _ = render(scene)
    assert np.all(seq.frames == seq.frames[0])


# ---------------------------------------------------------------------------
# Closed loop and persistence
# ---------------------------------------------------------------------------


def test_clean_scene_recovers_true_rate():
    scene = quiet_scene(width=24, height=24, fps=30.0, duration_s=12.0, hr_bpm=72.0)
    seq, sidecar, _ = render(scene)
    cfg = RunConfig(method="aggregate")
    result = run_pipeline(seq, sidecar, cfg)
    assert abs(result.report["video_bpm"] - 72.0) <= 1.0


@pytest.mark.parametrize("layout", ["raw", "ppm"])
def test_dataset_round_trip(tmp_path, layout):
    scene = quiet_scene(duration_s=10.0, seed=3)
    paths = write_scene_dataset(scene, tmp_path / "scene", layout=layout)
    assert set(paths) == {"frames", "landmarks", "hr", "ppg"}

    seq, sidecar, _ = render(scene)
    loaded = load_frame_sequence(paths["frames"])
    assert loaded.fps == scene.fps
    assert np.array_equal(loaded.frames[:], seq.frames)

    again, polygons = load_landmarks(paths["landmarks"], scene.n_frames, 16, 16)
    assert np.array_equal(again, sidecar)
    assert polygons == {}

    t, hr = read_timeseries_csv(paths["hr"])
    assert np.all(hr == 72.0)
    t2, ppg = read_timeseries_csv(paths["ppg"])
    assert t2.size == scene.n_frames


def test_dataset_rejects_unknown_layout(tmp_path):
    with pytest.raises(InvalidSceneError):
        write_scene_dataset(quiet_scene(), tmp_path / "x", layout="mp4")


def test_bias_scene_is_criterion_4s_scene():
    # criterion 4's levels, seeds and heart-rate draw, and its scene spelled
    # as that frozen test spells it; one seed per level is rendered too
    hrs = np.random.default_rng(2024).uniform(55.0, 83.0, 20)
    for f_mel, rendered_seed in zip((0.10, 0.25, 0.40), (0, 9, 19)):
        for seed in range(20):
            hr = float(hrs[seed])
            frozen = SynthScene(
                width=24, height=24, fps=30.0, duration_s=30.0, hr_bpm=hr,
                skin=SkinParams(f_mel=f_mel, f_blood=0.05, f_hg=0.45, delta_f_blood=0.004),
                specular=SpecularPatch(rect=(0, 12, 24, 12), strength=255.0),
                exposure=1.1, seed=seed,
            )
            scene = synth.bias_scene(f_mel, hr, seed)
            assert scene == frozen
            if seed == rendered_seed:
                (seq, bboxes, gt), (ref, ref_bboxes, ref_gt) = render(scene), render(frozen)
                assert np.array_equal(seq.frames, ref.frames)
                assert np.array_equal(bboxes, ref_bboxes)
                for name, value in vars(gt).items():
                    assert np.array_equal(value, getattr(ref_gt, name)), name
