import tracemalloc

import numpy as np
import pytest

from rppg.biophysics import CameraNoiseParams
from rppg.config import RunConfig
from rppg.diffuse import (
    CHUNK_PLANE_BYTES,
    diffuse_luminance,
    estimate_diffuse_stack,
    frame_chunks,
    specular_free_min_subtract,
)
from rppg import pipeline
from rppg.chrom import chrom_rows
from rppg.combine import facial_aggregate
from rppg.errors import UsageError, ZeroChannelMeanError
from rppg.pipeline import diffuse_luminance_stack, run_pipeline
from rppg.synth import SynthScene, render

from helpers import full_sidecar, mixed_frames, pulsed_sequence


def make_scene(**kw):
    kw.setdefault("width", 24)
    kw.setdefault("height", 24)
    kw.setdefault("fps", 30.0)
    kw.setdefault("duration_s", 12.0)
    kw.setdefault("hr_bpm", 72.0)
    kw.setdefault("shot_noise", False)
    kw.setdefault("noise", CameraNoiseParams(sigma_read=0.0, sigma_quant=0.5))
    return SynthScene(**kw)


CLEAN = render(make_scene())
NOISY = render(make_scene(shot_noise=True, noise=CameraNoiseParams(), seed=5))


@pytest.mark.parametrize("method", ["aggregate", "snr", "proposed"])
def test_clean_scene_recovered_by_every_method(method):
    seq, sidecar, _ = CLEAN
    cfg = RunConfig(method=method, grid_rows=4, grid_cols=4, diffuse_estimator="min_subtract")
    result = run_pipeline(seq, sidecar, cfg)
    assert abs(result.report["video_bpm"] - 72.0) <= 1.0


def test_bilateral_estimator_route():
    seq, sidecar, _ = CLEAN
    cfg = RunConfig(method="proposed", grid_rows=4, grid_cols=4, diffuse_estimator="bilateral")
    result = run_pipeline(seq, sidecar, cfg, keep_diffuse=True)
    assert abs(result.report["video_bpm"] - 72.0) <= 1.0
    assert result.diffuse_frames is not None
    assert result.diffuse_frames.shape == seq.frames.shape


def test_report_structure():
    seq, sidecar, _ = CLEAN
    cfg = RunConfig(method="snr", grid_rows=4, grid_cols=4)
    result = run_pipeline(seq, sidecar, cfg)
    rep = result.report
    assert rep["schema_version"] == 1
    assert rep["method"] == "snr"
    assert rep["fps"] == 30.0
    assert rep["n_frames"] == 360
    assert [w["start_s"] for w in rep["windows"]] == [0.0]
    assert rep["config"] == cfg.as_dict()
    assert rep["video_bpm"] == pytest.approx(
        np.mean([w["bpm"] for w in rep["windows"]])
    )
    assert result.diffuse_frames is None


def test_longer_video_hops_windows():
    seq, sidecar, _ = render(make_scene(duration_s=20.0))
    result = run_pipeline(seq, sidecar, RunConfig(method="aggregate"))
    starts = [w["start_s"] for w in result.report["windows"]]
    assert starts == [0.0, 5.0, 10.0]
    assert result.report["video_bpm"] == pytest.approx(
        np.mean([w["bpm"] for w in result.report["windows"]])
    )


@pytest.mark.parametrize("method", ["aggregate", "snr"])
@pytest.mark.parametrize("kw", [{"hop_s": 1e-9}, {"window_s": 0.01}])
def test_window_or_hop_shorter_than_one_frame_rejected(method, kw):
    seq, sidecar, _ = CLEAN
    with pytest.raises(UsageError, match="span one frame"):
        run_pipeline(seq, sidecar, RunConfig(method=method, **kw))


def test_one_frame_hop_accepted():
    seq, sidecar, _ = CLEAN
    # exactly one frame is still a hop
    result = run_pipeline(seq, sidecar, RunConfig(method="aggregate", window_s=11.9, hop_s=1 / 30))
    assert len(result.report["windows"]) == 4


def test_weight_logs_per_method():
    seq, sidecar, _ = CLEAN
    agg = run_pipeline(seq, sidecar, RunConfig(method="aggregate"))
    assert agg.window_weights == []

    snr = run_pipeline(seq, sidecar, RunConfig(method="snr", grid_rows=3, grid_cols=2))
    assert len(snr.window_weights) == 1
    entry = snr.window_weights[0]
    assert set(entry) == {"start_s", "snr"}
    assert len(entry["snr"]) == 6
    assert sum(entry["snr"]) == pytest.approx(1.0)

    prop = run_pipeline(
        seq,
        sidecar,
        RunConfig(method="proposed", grid_rows=3, grid_cols=2, diffuse_estimator="min_subtract"),
    )
    entry = prop.window_weights[0]
    assert set(entry) == {"start_s", "snr", "diffuse"}
    assert sum(entry["diffuse"]) == pytest.approx(1.0)
    assert all(v >= 0.0 for v in entry["diffuse"])


@pytest.mark.parametrize("method", ["aggregate", "snr", "proposed"])
def test_zero_blue_channel_raises_zero_channel_mean(method):
    seq = pulsed_sequence(base=(150, 110, 0), amp=(4, 6, 0))
    cfg = RunConfig(method=method, grid_rows=2, grid_cols=2, diffuse_estimator="min_subtract")
    with pytest.raises(ZeroChannelMeanError):
        run_pipeline(seq, full_sidecar(seq), cfg)


@pytest.mark.parametrize("method", ["aggregate", "proposed"])
def test_one_chrom_rows_call_per_recording(monkeypatch, method):
    seq, sidecar, _ = render(make_scene(duration_s=20.0))
    calls = []

    def counted(samples, fps):
        calls.append(np.shape(samples))
        return chrom_rows(samples, fps)

    monkeypatch.setattr(pipeline, "chrom_rows", counted)
    cfg = RunConfig(method=method, grid_rows=2, grid_cols=2, diffuse_estimator="min_subtract")
    result = run_pipeline(seq, sidecar, cfg)
    assert calls == [(3, 300, 3)]
    assert len(result.waveforms) == 3


@pytest.mark.parametrize("fps", [24.0, 25.0, 29.97, 30.0])
def test_window_rows_equal_one_row_chrom_calls(fps):
    seq = pulsed_sequence(n=int(30 * fps), fps=fps, noise=3.0, seed=int(fps))
    sidecar = full_sidecar(seq)
    result = run_pipeline(seq, sidecar, RunConfig(method="aggregate", hop_s=1.0))
    slices = pipeline.plan_windows(seq.duration_s, 10.0, 1.0).frame_slices(fps, seq.count)
    assert len(slices) == len(result.waveforms) >= 20
    masks = np.ones(seq.frames.shape[:3], dtype=bool)
    for sl, wave in zip(slices, result.waveforms):
        trace = facial_aggregate(seq.frames[sl], masks[sl], fps)
        one, ok = chrom_rows(trace.samples[None], fps)
        assert ok[0] and np.array_equal(wave.samples, one[0])


def test_single_cell_grid_reduces_to_aggregation():
    seq, sidecar, _ = NOISY
    base = run_pipeline(seq, sidecar, RunConfig(method="aggregate"))
    for method, est in (("snr", "bilateral"), ("proposed", "min_subtract"), ("proposed", "bilateral")):
        cfg = RunConfig(method=method, grid_rows=1, grid_cols=1, diffuse_estimator=est)
        got = run_pipeline(seq, sidecar, cfg)
        assert got.report["video_bpm"] == pytest.approx(
            base.report["video_bpm"], abs=1e-6
        )


def test_pipeline_is_deterministic():
    seq, sidecar, _ = NOISY
    cfg = RunConfig(method="proposed", grid_rows=4, grid_cols=4, diffuse_estimator="min_subtract")
    a = run_pipeline(seq, sidecar, cfg)
    b = run_pipeline(seq, sidecar, cfg)
    assert a.report == b.report
    for wa, wb in zip(a.waveforms, b.waveforms):
        assert np.array_equal(wa.samples, wb.samples)


def test_bbox_smoothing_path():
    seq, sidecar, _ = render(make_scene(motion_px=2, seed=9))
    cfg = RunConfig(method="proposed", grid_rows=4, grid_cols=4,
                    diffuse_estimator="min_subtract", bbox_smoothing=True,
                    bbox_smoothing_alpha=0.8)
    result = run_pipeline(seq, sidecar, cfg)
    assert abs(result.report["video_bpm"] - 72.0) <= 2.0


@pytest.mark.parametrize(
    "estimator, separate",
    [("bilateral", estimate_diffuse_stack), ("min_subtract", specular_free_min_subtract)],
)
def test_chunked_luminance_matches_whole_stack(estimator, separate):
    h, w = 10, 14
    n = 2 * frame_chunks(1, h, w)[0].stop + 5
    frames = mixed_frames(n, h, w, seed=4)
    whole = separate(frames)
    lum, kept = diffuse_luminance_stack(frames, estimator, keep_diffuse=True)
    assert np.array_equal(lum, diffuse_luminance(whole))
    assert np.array_equal(kept, whole)
    lum_only, none = diffuse_luminance_stack(frames, estimator)
    assert none is None
    assert np.array_equal(lum_only, lum)


def test_luminance_stage_memory_is_bounded_by_the_chunk():
    # Uniform skin-coloured frames converge in one bilateral pass; noise
    # frames take three to five passes and stop at different ones, so each
    # chunk's weight table is compacted while it is alive. The pass's
    # temporaries and that table are what bound the peak.
    uniform = np.empty((640, 48, 48, 3), dtype=np.uint8)
    uniform[...] = (150, 110, 80)
    noise = np.random.default_rng(6).integers(0, 256, size=(640, 48, 48, 3), dtype=np.uint8)
    peaks = []
    for frames in (uniform, noise):
        for n in (64, 640):
            tracemalloc.start()
            try:
                lum, _ = diffuse_luminance_stack(frames[:n], "bilateral")
                peak = tracemalloc.get_traced_memory()[1] - lum.nbytes
            finally:
                tracemalloc.stop()
            peaks.append(peak)
    assert max(peaks) < 96 * CHUNK_PLANE_BYTES, peaks


def test_public_names_resolve():
    import rppg

    missing = [name for name in rppg.__all__ if not hasattr(rppg, name)]
    assert missing == []
    assert len(set(rppg.__all__)) == len(rppg.__all__)
