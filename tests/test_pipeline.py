import dataclasses
import tracemalloc

import numpy as np
import pytest

from rppg.biophysics import CameraNoiseParams
from rppg.config import RunConfig
from rppg.diffuse import CHUNK_PLANE_BYTES, frame_chunks, min_channel
from rppg import diffuse, pipeline
from rppg.chrom import chrom_rows
from rppg.errors import GeometryError, SignalError, UsageError
from rppg.ingest import FrameReader, FrameSequence
from rppg.pipeline import run_pipeline
from rppg.roi import build_grid
from rppg.synth import SynthScene, render

from helpers import (
    diffuse_weights_of,
    facial_aggregate_of,
    full_sidecar,
    mixed_frames,
    pixel_masks,
    pulsed_sequence,
)


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
    cfg = RunConfig(method=method, grid_rows=4, grid_cols=4)
    result = run_pipeline(seq, sidecar, cfg)
    assert abs(result.report["video_bpm"] - 72.0) <= 1.0


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
    assert not hasattr(result, "diffuse_frames")


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
        RunConfig(method="proposed", grid_rows=3, grid_cols=2),
    )
    entry = prop.window_weights[0]
    assert set(entry) == {"start_s", "snr", "diffuse"}
    assert sum(entry["diffuse"]) == pytest.approx(1.0)
    assert all(v >= 0.0 for v in entry["diffuse"])


@pytest.mark.parametrize("method", ["aggregate", "snr", "proposed"])
def test_zero_blue_channel_raises_zero_channel_mean(method):
    seq = pulsed_sequence(base=(150, 110, 0), amp=(4, 6, 0))
    cfg = RunConfig(method=method, grid_rows=2, grid_cols=2)
    with pytest.raises(SignalError, match="channel means|positive weight but no waveform"):
        run_pipeline(seq, full_sidecar(seq), cfg)


def logged_reads(seq, reads):
    """seq with its frames behind a FrameReader that logs each [a:b] read."""

    def read(start, stop):
        reads.append((start, stop))
        return seq.frames[start:stop]

    return FrameSequence(frames=FrameReader(seq.frames.shape, read), fps=seq.fps)


@pytest.mark.parametrize("method", ["aggregate", "snr", "proposed"])
def test_each_frame_is_read_once_a_chunk_at_a_time(method):
    seq = pulsed_sequence(n=609, h=48, w=48, noise=2.0, seed=2)
    sidecar = full_sidecar(seq)
    cfg = RunConfig(method=method, grid_rows=2, grid_cols=2)
    reads = []
    result = run_pipeline(logged_reads(seq, reads), sidecar, cfg)
    chunks = frame_chunks(seq.count, 48, 48, pipeline.PASS_CHUNKS)
    assert len(chunks) == 11
    # the frames after the last window (20 s of 20.3 s) are read too
    assert reads == [(sl.start, min(sl.stop, seq.count)) for sl in chunks]
    assert result.report == run_pipeline(seq, sidecar, cfg).report


def test_every_grid_is_built_before_any_frame_is_read():
    seq, sidecar, _ = render(make_scene(duration_s=20.0))
    bboxes = sidecar.copy()
    bboxes[300] = (0, 0, 3, 3)  # third window
    reads = []
    with pytest.raises(GeometryError, match="cannot host a"):
        run_pipeline(
            logged_reads(seq, reads),
            bboxes,
            RunConfig(method="snr", grid_rows=4, grid_cols=4),
        )
    assert reads == []


def counted_chrom_rows(monkeypatch):
    """The time-major sample blocks (n, k, 3) that run_pipeline passes to
    chrom_rows."""
    calls = []

    def counted(samples, fps):
        calls.append(np.array(samples))
        return chrom_rows(samples, fps)

    monkeypatch.setattr(pipeline, "chrom_rows", counted)
    return calls


@pytest.mark.parametrize("method", ["aggregate", "proposed"])
def test_one_chrom_rows_call_per_block_of_windows(monkeypatch, method):
    seq, sidecar, _ = render(make_scene(duration_s=20.0))
    calls = counted_chrom_rows(monkeypatch)
    cfg = RunConfig(method=method, grid_rows=2, grid_cols=2)
    result = run_pipeline(seq, sidecar, cfg)
    assert [c.shape for c in calls] == [(300, 3, 3)]
    assert len(result.waveforms) == 3
    # 11 windows: a full block of WINDOW_BLOCK, then the rest
    calls.clear()
    result = run_pipeline(seq, sidecar, dataclasses.replace(cfg, hop_s=1.0))
    assert pipeline.WINDOW_BLOCK == 8
    assert [c.shape for c in calls] == [(300, 8, 3), (300, 3, 3)]
    assert len(result.waveforms) == len(result.report["windows"]) == 11


def test_aggregate_rows_pooled_once_equal_per_window_calls(monkeypatch):
    # Each chunk is pooled once and its per-frame sums are shared by the
    # windows that contain it; the rows equal pooling each window whole.
    seq, sidecar, _ = render(make_scene(duration_s=20.0, motion_px=2, seed=3))
    calls = counted_chrom_rows(monkeypatch)
    run_pipeline(seq, sidecar, RunConfig(method="aggregate", window_s=7.3, hop_s=1.1))
    rows = np.moveaxis(np.concatenate(calls, axis=1), 1, 0)
    slices = pipeline.plan_windows(seq.duration_s, 7.3, 1.1).frame_slices(seq.fps, seq.count)
    assert len(rows) == len(slices) == 12
    masks = pixel_masks(sidecar, seq.width, seq.height)
    assert not masks.all()  # the eye and mouth cutouts move with the face
    for row, sl in zip(rows, slices):
        assert np.array_equal(row, facial_aggregate_of(seq.frames[sl], masks[sl]))


@pytest.mark.parametrize("fps", [24.0, 25.0, 29.97, 30.0])
def test_window_rows_equal_one_row_chrom_calls(fps):
    seq = pulsed_sequence(n=int(30 * fps), fps=fps, noise=3.0, seed=int(fps))
    sidecar = full_sidecar(seq)
    result = run_pipeline(seq, sidecar, RunConfig(method="aggregate", hop_s=1.0))
    slices = pipeline.plan_windows(seq.duration_s, 10.0, 1.0).frame_slices(fps, seq.count)
    assert len(slices) == len(result.waveforms) >= 20
    masks = np.ones(seq.frames.shape[:3], dtype=bool)
    for sl, wave in zip(slices, result.waveforms):
        trace = facial_aggregate_of(seq.frames[sl], masks[sl])
        one, ok = chrom_rows(trace[:, None], fps)
        assert ok[0] and np.array_equal(wave.samples, one[0])


def test_single_cell_grid_reduces_to_aggregation():
    seq, sidecar, _ = NOISY
    base = run_pipeline(seq, sidecar, RunConfig(method="aggregate"))
    for method in ("snr", "proposed"):
        cfg = RunConfig(method=method, grid_rows=1, grid_cols=1)
        got = run_pipeline(seq, sidecar, cfg)
        assert got.report["video_bpm"] == pytest.approx(
            base.report["video_bpm"], abs=1e-6
        )


def test_pipeline_is_deterministic():
    seq, sidecar, _ = NOISY
    cfg = RunConfig(method="proposed", grid_rows=4, grid_cols=4)
    a = run_pipeline(seq, sidecar, cfg)
    b = run_pipeline(seq, sidecar, cfg)
    assert a.report == b.report
    for wa, wb in zip(a.waveforms, b.waveforms):
        assert np.array_equal(wa.samples, wb.samples)


def test_bbox_smoothing_path():
    seq, sidecar, _ = render(make_scene(motion_px=2, seed=9))
    cfg = RunConfig(method="proposed", grid_rows=4, grid_cols=4, bbox_smoothing_alpha=0.8)
    result = run_pipeline(seq, sidecar, cfg)
    assert abs(result.report["video_bpm"] - 72.0) <= 2.0


def sampled(sl: slice, k: int) -> slice:
    """The rows of window sl whose frame index is a multiple of k."""
    return slice(-sl.start % k, None, k)


def test_chunked_luminance_matches_whole_stack(monkeypatch):
    # The pass pools the min channel of the frames whose index is a multiple
    # of k, chunk by chunk. At k = 1 (every frame) and at DIFFUSE_STRIDE, and
    # with diffuse chunks of one frame, of the default size and of the whole
    # recording, each window's diffuse weights equal, bit for bit, those of
    # the int64 oracle of its sampled rows' sums (diffuse_weights_of). The
    # diffuse dump's frames are checked against the whole stack in test_cli.
    h, w = 32, 40
    n = 2 * frame_chunks(1, h, w, pipeline.PASS_CHUNKS)[0].stop + 5
    seq = FrameSequence(frames=mixed_frames(n, h, w, seed=4), fps=30.0)
    cfg = RunConfig(method="proposed", window_s=4.0, hop_s=2.0, grid_rows=2, grid_cols=3)
    grid = build_grid((0, 0, w, h), 2, 3)
    masks = np.ones((n, h, w), dtype=bool)
    slices = pipeline.plan_windows(seq.duration_s, 4.0, 2.0).frame_slices(seq.fps, n)
    assert len(slices) == 2
    for k in (1, pipeline.DIFFUSE_STRIDE):
        monkeypatch.setattr(pipeline, "DIFFUSE_STRIDE", k)
        rows = [range(n)[sl][sampled(sl, k)] for sl in slices]
        expect = [
            diffuse_weights_of(seq.frames[r], grid, masks[r]).tolist() for r in rows
        ]
        for plane_bytes in (1, CHUNK_PLANE_BYTES, 1 << 40):
            monkeypatch.setattr(diffuse, "CHUNK_PLANE_BYTES", plane_bytes)
            result = run_pipeline(seq, full_sidecar(seq), cfg)
            assert [entry["diffuse"] for entry in result.window_weights] == expect, plane_bytes
        monkeypatch.setattr(diffuse, "CHUNK_PLANE_BYTES", CHUNK_PLANE_BYTES)


@pytest.mark.parametrize("h, w", [(96, 96), (32, 32), (24, 24), (40, 72)])
def test_each_pass_chunk_separates_its_own_sampled_frames(monkeypatch, h, w):
    # Each pass chunk takes the min channel of the frames whose index in the
    # recording is a multiple of DIFFUSE_STRIDE in one call, looked up as
    # rppg.pipeline's name: every such frame goes once, in order, and no
    # other frame goes.
    calls = []

    def take_min(frames):
        calls.append(np.array(frames))
        return min_channel(frames)

    monkeypatch.setattr(pipeline, "min_channel", take_min)
    k = pipeline.DIFFUSE_STRIDE
    n = max(2 * frame_chunks(1, h, w, pipeline.PASS_CHUNKS)[0].stop, 240) + 5
    seq = FrameSequence(frames=mixed_frames(n, h, w, seed=3), fps=30.0)
    cfg = RunConfig(method="proposed", window_s=4.0, hop_s=3.0, grid_rows=2, grid_cols=2)
    run_pipeline(seq, full_sidecar(seq), cfg)
    rows = [range(n)[sl][sampled(sl, k)] for sl in frame_chunks(n, h, w, pipeline.PASS_CHUNKS)]
    assert [len(c) for c in calls] == [len(r) for r in rows if r]
    assert np.array_equal(np.concatenate(calls), seq.frames[::k])


def test_a_stride_above_the_window_length_samples_every_window(monkeypatch):
    # k = min(DIFFUSE_STRIDE, n) for windows of n frames, so each window
    # holds a sampled frame: here exactly one, for every window of 2.5 s
    # hopped every 0.5 s, and its weights are that frame's.
    monkeypatch.setattr(pipeline, "DIFFUSE_STRIDE", 10**6)
    n, h, w = 150, 16, 16
    seq = FrameSequence(frames=mixed_frames(n, h, w, seed=5), fps=30.0)
    cfg = RunConfig(method="proposed", window_s=2.5, hop_s=0.5, grid_rows=2, grid_cols=2)
    result = run_pipeline(seq, full_sidecar(seq), cfg)
    grid = build_grid((0, 0, w, h), 2, 2)
    masks = np.ones((n, h, w), dtype=bool)
    slices = pipeline.plan_windows(seq.duration_s, 2.5, 0.5).frame_slices(seq.fps, n)
    assert len(slices) == len(result.window_weights) == 6
    for sl, entry in zip(slices, result.window_weights):
        rows = range(n)[sl][sampled(sl, 75)]
        assert len(rows) == 1
        expect = diffuse_weights_of(seq.frames[rows], grid, masks[rows])
        assert entry["diffuse"] == expect.tolist()


def working_memory(seq, cfg):
    """tracemalloc peak of run_pipeline less what it returns (the waveforms,
    weights and report it keeps), after a short untraced run at the same
    rate fills the caches."""
    warm = pulsed_sequence(n=int(cfg.window_s * seq.fps) + 1, h=8, w=8, fps=seq.fps)
    run_pipeline(warm, full_sidecar(warm), cfg)
    sidecar = full_sidecar(seq)
    tracemalloc.start()
    try:
        result = run_pipeline(seq, sidecar, cfg)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.waveforms
    return peak - kept


@pytest.mark.parametrize("size, long", [(16, 640), (48, 640), (96, 170)])
def test_luminance_stage_memory_is_bounded_by_the_chunk(size, long):
    # Uniform and noise frames, 64 frames or about ten pass chunks (640
    # frames at 48x48, 170 at 96x96; two hold all 640 at 16x16): the pass's
    # temporaries bound the peak of the whole run.
    uniform = pulsed_sequence(n=long, h=size, w=size).frames
    noise = np.random.default_rng(6).integers(0, 256, size=(long, size, size, 3), dtype=np.uint8)
    cfg = RunConfig(method="proposed", window_s=2.0, hop_s=1.0, grid_rows=4, grid_cols=4)
    peaks = [
        working_memory(FrameSequence(frames=frames[:n], fps=32.0), cfg)
        for frames in (uniform, noise)
        for n in (64, long)
    ]
    # measured 3.1-5.2 planes: the pass chunk's frames, its sampled frames'
    # min channel, and a diffuse chunk's float32 cast
    assert max(peaks) < 96 * CHUNK_PLANE_BYTES, [p / CHUNK_PLANE_BYTES for p in peaks]


@pytest.mark.parametrize("method", ["aggregate", "snr", "proposed"])
def test_run_pipeline_memory_does_not_grow_with_the_recording(method):
    # 20 s and 80 s (3 and 15 windows of 10 s) of 48x48 frames: frames,
    # min channels and cell sums live one chunk at a time, and the end stage
    # one block of windows at a time, each window's spectrum in turn, so the
    # working peak stays put (measured within 6 %: aggregate's, the
    # smallest, reads 0.52 MB at 20 s and 0.55 MB at 80 s).
    cfg = RunConfig(method=method, grid_rows=4, grid_cols=4)
    short, long = (
        working_memory(pulsed_sequence(n=n, h=48, w=48, noise=2.0, seed=1), cfg)
        for n in (600, 2400)
    )
    assert long <= 1.1 * short, (short, long)
