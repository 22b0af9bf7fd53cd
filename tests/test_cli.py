import argparse
import dataclasses
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import rppg
from rppg import cli, diffuse
from rppg.biophysics import MAX_GAIN, MAX_MELANIN_POINTS, CameraNoiseParams, SkinParams, Sweep
from rppg.cli import build_parser, main
from rppg.config import RunConfig
from rppg.diffuse import CHUNK_PLANE_BYTES, frame_chunks, specular_free_min_subtract
from rppg.errors import MissingInputError
from rppg.ingest import (
    FrameSequence,
    load_frame_sequence,
    write_frame_dir,
    write_landmarks,
    write_raw_stream,
    write_timeseries_csv,
)
from rppg.pipeline import run_pipeline
from rppg.synth import SpecularPatch, SynthScene, write_scene_dataset

from helpers import full_sidecar, pulsed_sequence


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("clean-scene")
    scene = SynthScene(
        width=24,
        height=24,
        fps=30.0,
        duration_s=12.0,
        shot_noise=False,
        noise=CameraNoiseParams(sigma_read=0.0, sigma_quant=0.5),
        seed=1,
    )
    paths = write_scene_dataset(scene, root)
    return {k: str(v) for k, v in paths.items()}


def run_estimate(dataset, *extra):
    return ["estimate", "--frames", dataset["frames"], "--landmarks", dataset["landmarks"], *extra]


# ---------------------------------------------------------------------------
# estimate
# ---------------------------------------------------------------------------


def test_estimate_to_stdout(dataset, capsys):
    assert main(run_estimate(dataset, "--method", "aggregate")) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["schema_version"] == 1
    assert report["method"] == "aggregate"
    assert abs(report["video_bpm"] - 72.0) <= 1.0
    assert report["config"]["method"] == "aggregate"


def test_estimate_writes_report_atomically(dataset, tmp_path):
    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    args = ("--method", "snr", "--grid-rows", "4", "--grid-cols", "4")
    assert main(run_estimate(dataset, "--out", str(out_a), *args)) == 0
    assert main(run_estimate(dataset, "--out", str(out_b), *args)) == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    assert abs(json.loads(out_a.read_text())["video_bpm"] - 72.0) <= 1.0
    # no temp droppings left next to the report
    assert [p.name for p in tmp_path.iterdir()] == sorted(["a.json", "b.json"])


def test_estimate_dump_weights(dataset, tmp_path):
    wpath = tmp_path / "weights.json"
    rc = main(
        run_estimate(
            dataset,
            "--out", str(tmp_path / "r.json"),
            "--method", "proposed",
            "--diffuse-estimator", "min_subtract",
            "--grid-rows", "3",
            "--grid-cols", "2",
            "--dump-weights", str(wpath),
        )
    )
    assert rc == 0
    entries = json.loads(wpath.read_text())
    assert len(entries) == 1
    assert set(entries[0]) == {"start_s", "snr", "diffuse"}
    assert len(entries[0]["snr"]) == 6
    assert sum(entries[0]["diffuse"]) == pytest.approx(1.0)


def test_estimate_dump_diffuse(dataset, monkeypatch, tmp_path):
    # The dump is a side output: after the pass, whose weights read only one
    # frame in DIFFUSE_STRIDE, it separates every frame one diffuse chunk at
    # a time. With diffuse chunks of one frame, of the default size and of
    # the whole recording, every frame equals the whole stack's separation,
    # uint8 as the frames are, and the report and weights are the bytes of a
    # run without the dump.
    frames = load_frame_sequence(dataset["frames"]).frames[:]
    expect = specular_free_min_subtract(frames)
    assert expect.dtype == np.uint8
    outputs = set()
    for plane_bytes in (None, 1, CHUNK_PLANE_BYTES, 1 << 40):
        ddir = tmp_path / f"dump-{plane_bytes}"
        dump = () if plane_bytes is None else ("--dump-diffuse", str(ddir))
        monkeypatch.setattr(diffuse, "CHUNK_PLANE_BYTES", plane_bytes or CHUNK_PLANE_BYTES)
        report, weights = tmp_path / "r.json", tmp_path / "w.json"
        rc = main(
            run_estimate(
                dataset,
                "--out", str(report),
                "--dump-weights", str(weights),
                "--method", "proposed",
                *dump,
            )
        )
        assert rc == 0
        outputs.add((report.read_bytes(), weights.read_bytes()))
        if dump:
            seq = load_frame_sequence(ddir)
            assert seq.frames.shape == (360, 24, 24, 3)
            assert np.array_equal(seq.frames[:], expect), plane_bytes
    assert len(outputs) == 1
    # min-subtract zeroes the per-pixel minimum channel
    assert expect.min(axis=-1).max() == 0


def test_dump_diffuse_separates_through_the_diffuse_name(dataset, monkeypatch, tmp_path):
    # The dump looks the separation up as rppg.diffuse's name at call time,
    # so a wrapper set there sees every call: one per diffuse chunk, every
    # frame once, in order. The pass separates no frame: it pools only the
    # sampled frames' min channel.
    calls = []

    def separate(frames):
        calls.append(np.array(frames))
        return specular_free_min_subtract(frames)

    monkeypatch.setattr(diffuse, "specular_free_min_subtract", separate)
    frames = load_frame_sequence(dataset["frames"]).frames[:]
    chunks = frame_chunks(len(frames), 24, 24)
    rc = main(run_estimate(
        dataset, "--method", "proposed",
        "--out", str(tmp_path / "r.json"), "--dump-diffuse", str(tmp_path / "d"),
    ))
    assert rc == 0
    assert [len(c) for c in calls] == [len(range(360)[sl]) for sl in chunks]
    assert np.array_equal(np.concatenate(calls), frames)


@pytest.mark.parametrize("size, long", [(16, 640), (48, 640), (96, 170)])
def test_diffuse_dump_memory_is_bounded_by_the_chunk(monkeypatch, tmp_path, size, long):
    # After the pass, the dump reads, separates and writes one diffuse chunk
    # at a time, so its tracemalloc peak above what the run holds when the
    # pass returns stays under the pass's own bound
    # (test_luminance_stage_memory_is_bounded_by_the_chunk), at the same
    # shapes: uniform and noise frames, 64 frames or about ten pass chunks.
    uniform = pulsed_sequence(n=long, h=size, w=size).frames
    noise = np.random.default_rng(6).integers(0, 256, size=(long, size, size, 3), dtype=np.uint8)
    held = []

    def pass_then_reset_peak(*args):
        result = run_pipeline(*args)
        tracemalloc.reset_peak()
        held.append(tracemalloc.get_traced_memory()[0])
        return result

    monkeypatch.setattr(cli, "run_pipeline", pass_then_reset_peak)
    peaks = []
    for frames in (uniform, noise):
        for n in (64, long):
            seq = FrameSequence(frames=frames[:n], fps=32.0)
            write_raw_stream(seq, tmp_path / "rec.raw")
            write_landmarks(full_sidecar(seq), tmp_path / "rec.jsonl")
            tracemalloc.start()
            try:
                assert main([
                    "estimate", "--frames", str(tmp_path / "rec.raw"),
                    "--landmarks", str(tmp_path / "rec.jsonl"), "--method", "proposed",
                    "--window-s", "2", "--hop-s", "1", "--grid-rows", "4", "--grid-cols", "4",
                    "--out", str(tmp_path / "r.json"), "--dump-diffuse", str(tmp_path / "d"),
                ]) == 0
                peaks.append(tracemalloc.get_traced_memory()[1] - held.pop())
            finally:
                tracemalloc.stop()
    # measured 0.8-1.7 planes: one diffuse chunk's uint8 frames, its min
    # channel and its uint8 diffuse frames
    assert max(peaks) < 96 * CHUNK_PLANE_BYTES, [p / CHUNK_PLANE_BYTES for p in peaks]


def test_failed_dump_diffuse_run_leaves_no_loadable_tree(tmp_path):
    # The dump's directory is made, and a stale manifest removed, before the
    # pass; its frames are separated and written after the pass, and its
    # manifest last, once the run has succeeded.
    scene = SynthScene(width=24, height=24, fps=30.0, duration_s=12.0, seed=2)
    paths = write_scene_dataset(scene, tmp_path / "scene", layout="ppm")

    def estimate(ddir):
        return main([
            "estimate", "--frames", str(paths["frames"]), "--landmarks", str(paths["landmarks"]),
            "--method", "proposed", "--diffuse-estimator", "min_subtract",
            "--out", str(tmp_path / "r.json"), "--dump-diffuse", str(ddir),
        ])

    assert estimate(tmp_path / "diffuse") == 0
    assert len(load_frame_sequence(tmp_path / "diffuse").frames) == 360
    # a frame that cannot be written is a usage error, and no report or
    # manifest follows
    (tmp_path / "taken" / "frame_000000.ppm").mkdir(parents=True)
    (tmp_path / "r.json").unlink()
    assert estimate(tmp_path / "taken") == 2
    assert not (tmp_path / "r.json").exists()
    # a frame missing from the input is found by the pass, before the dump
    # separates any frame: exit 3, and the directory is made but left empty
    (paths["frames"] / "frame_000300.ppm").unlink()
    assert estimate(tmp_path / "fresh") == 3
    assert list((tmp_path / "fresh").iterdir()) == []
    # over a finished tree, the failed run removes its manifest first
    assert estimate(tmp_path / "diffuse") == 3
    assert not (tmp_path / "diffuse" / "manifest.json").exists()
    for ddir in ("fresh", "diffuse", "taken"):
        with pytest.raises(MissingInputError, match="manifest.json not found"):
            load_frame_sequence(tmp_path / ddir)


def test_dump_diffuse_over_a_longer_dump_leaves_one_recording(tmp_path):
    # A 10 s dump over a 12 s one's directory: the frames past the new count
    # are removed once the dump is written, so the directory holds the 300
    # frames its manifest counts and nothing of the older run.
    def dump(duration_s):
        scene = SynthScene(width=16, height=16, fps=30.0, duration_s=duration_s, seed=2)
        paths = write_scene_dataset(scene, tmp_path / f"scene-{duration_s}")
        return main([
            "estimate", "--frames", str(paths["frames"]), "--landmarks", str(paths["landmarks"]),
            "--method", "proposed", "--diffuse-estimator", "min_subtract",
            "--out", str(tmp_path / "r.json"), "--dump-diffuse", str(tmp_path / "d"),
        ])

    assert dump(12.0) == 0
    assert len(list((tmp_path / "d").iterdir())) == 361
    assert dump(10.0) == 0
    names = sorted(p.name for p in (tmp_path / "d").iterdir())
    assert names == sorted(["manifest.json", *(f"frame_{i:06d}.ppm" for i in range(300))])
    assert len(load_frame_sequence(tmp_path / "d").frames) == 300


def test_dump_diffuse_into_the_frames_directory_exits_2(tmp_path):
    scene = SynthScene(width=16, height=16, fps=30.0, duration_s=10.0, seed=2)
    paths = write_scene_dataset(scene, tmp_path / "scene", layout="ppm")
    frames = paths["frames"]
    before = {p.name: p.read_bytes() for p in frames.iterdir()}
    (tmp_path / "link").symlink_to(frames)
    for ddir in (frames, tmp_path / "scene" / ".." / "scene" / "frames", tmp_path / "link"):
        rc = main([
            "estimate", "--frames", str(frames), "--landmarks", str(paths["landmarks"]),
            "--method", "proposed", "--diffuse-estimator", "min_subtract",
            "--out", str(tmp_path / "r.json"), "--dump-diffuse", str(ddir),
        ])
        assert rc == 2
        assert {p.name: p.read_bytes() for p in frames.iterdir()} == before
    assert not (tmp_path / "r.json").exists()


def test_an_estimate_output_naming_an_input_or_another_output_exits_2(
    dataset, tmp_path, monkeypatch, capsys
):
    # --out and --dump-weights may name neither an input (--frames,
    # --landmarks, the config file) nor each other, and no path may name the
    # manifest.json or a frame_NNNNNN.ppm of the --frames or --dump-diffuse
    # directory. That is found before any input is read: a missing --frames
    # is not reached, every input keeps its bytes, and no output is written.
    frames, landmarks = Path(dataset["frames"]), Path(dataset["landmarks"])
    ini = tmp_path / "run.ini"
    ini.write_text("[pipeline]\nmethod = aggregate\n")
    (tmp_path / "link.raw").symlink_to(frames)
    ppm = tmp_path / "ppm"
    write_frame_dir(pulsed_sequence(n=8, h=8, w=8), ppm)
    inputs = (frames, landmarks, ini, ppm / "manifest.json", ppm / "frame_000005.ppm")
    before = [p.read_bytes() for p in inputs]
    report = tmp_path / "r.json"
    dump = tmp_path / "dump"
    cases = [
        (frames, "--out", frames),
        (frames, "--out", tmp_path / "link.raw"),
        (frames, "--out", landmarks),
        (frames, "--config", ini, "--out", ini),
        (frames, "--dump-weights", frames),
        (frames, "--dump-weights", landmarks),
        (frames, "--config", ini, "--dump-weights", ini),
        (frames, "--out", report, "--dump-weights", report),
        (frames, "--out", report, "--dump-weights", tmp_path / "sub" / ".." / "r.json"),
        (tmp_path / "missing.raw", "--out", landmarks),
        # a manifest or frame file of the --frames or --dump-diffuse directory
        (frames, "--dump-diffuse", dump, "--out", dump / "manifest.json"),
        (frames, "--dump-diffuse", dump, "--dump-weights", dump / "frame_000003.ppm"),
        (frames, "--dump-diffuse", dump, "--config", dump / "manifest.json"),
        (ppm, "--out", ppm / "frame_000005.ppm"),
        (ppm, "--dump-weights", ppm / "sub" / ".." / "manifest.json"),
    ]
    for first, *extra in cases:
        argv = ["estimate", "--frames", str(first), "--landmarks", str(landmarks), *map(str, extra)]
        capsys.readouterr()
        assert main(argv) == 2, extra
        err = capsys.readouterr().err
        assert err.startswith("rppg: error: --") and "would be overwritten" in err, err
        assert [p.read_bytes() for p in inputs] == before
        assert not report.exists()
    monkeypatch.setenv("RPPG_CONFIG", str(ini))
    assert main(run_estimate(dataset, "--out", str(ini))) == 2
    assert "is also the config file" in capsys.readouterr().err
    assert ini.read_bytes() == before[2]
    # stdout is no file, and distinct files are fine
    monkeypatch.delenv("RPPG_CONFIG")
    weights = tmp_path / "w.json"
    assert main(run_estimate(dataset, "--out", "-", "--dump-weights", str(weights))) == 0
    assert main(run_estimate(dataset, "--out", str(report), "--dump-weights", str(weights))) == 0


@pytest.mark.parametrize("h, w", [(1, 1), (3, 8), (4, 4), (8, 3)])
def test_estimate_proposed_on_frames_under_window_radius(tmp_path, capsys, h, w):
    # synth refuses frames under 8x8, so the stream is written directly
    seq = pulsed_sequence(n=300, h=h, w=w, hz=1.2)
    write_raw_stream(seq, tmp_path / "tiny.raw")
    write_landmarks(full_sidecar(seq), tmp_path / "tiny.jsonl")
    rc = main([
        "estimate", "--frames", str(tmp_path / "tiny.raw"),
        "--landmarks", str(tmp_path / "tiny.jsonl"),
        "--method", "proposed", "--grid-rows", "1", "--grid-cols", "1",
    ])
    assert rc == 0
    assert abs(json.loads(capsys.readouterr().out)["video_bpm"] - 72.0) <= 1.0


def test_dump_diffuse_requires_proposed(dataset, tmp_path):
    # rejected before any input is read: no report and no weights dump
    for method in ("aggregate", "snr"):
        rc = main(
            run_estimate(
                dataset,
                "--out", str(tmp_path / "r.json"),
                "--dump-weights", str(tmp_path / "w.json"),
                "--method", method,
                "--dump-diffuse", str(tmp_path / "d"),
            )
        )
        assert rc == 2
        assert not (tmp_path / "r.json").exists()
        assert not (tmp_path / "w.json").exists()
        assert not (tmp_path / "d").exists()
    rc = main(
        ["estimate", "--frames", str(tmp_path / "missing.raw"), "--landmarks",
         str(tmp_path / "missing.jsonl"), "--method", "snr", "--dump-diffuse", str(tmp_path / "d")]
    )
    assert rc == 2  # a usage error, not the missing input (3)


# ---------------------------------------------------------------------------
# configuration precedence
# ---------------------------------------------------------------------------


def test_config_file_and_flag_precedence(dataset, tmp_path, capsys):
    ini = tmp_path / "run.ini"
    ini.write_text("[pipeline]\nmethod = snr\ngrid_rows = 2\ngrid_cols = 2\n")
    assert main(run_estimate(dataset, "--config", str(ini))) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["method"] == "snr"
    assert report["config"]["grid_rows"] == 2

    assert main(run_estimate(dataset, "--config", str(ini), "--method", "aggregate")) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["method"] == "aggregate"  # flag beats file
    assert report["config"]["grid_rows"] == 2  # file still applies elsewhere


def test_env_var_names_default_config(dataset, tmp_path, monkeypatch, capsys):
    ini = tmp_path / "env.ini"
    ini.write_text("[pipeline]\nmethod = snr\ngrid_rows = 2\ngrid_cols = 2\n")
    monkeypatch.setenv("RPPG_CONFIG", str(ini))
    assert main(run_estimate(dataset)) == 0
    assert json.loads(capsys.readouterr().out)["method"] == "snr"

    # an explicit --config wins over the environment
    other = tmp_path / "other.ini"
    other.write_text("[pipeline]\nmethod = aggregate\n")
    assert main(run_estimate(dataset, "--config", str(other))) == 0
    assert json.loads(capsys.readouterr().out)["method"] == "aggregate"


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------


def test_missing_inputs_exit_3(dataset, tmp_path):
    assert main(run_estimate(dataset, "--config", str(tmp_path / "no.ini"))) == 3
    assert main(["estimate", "--frames", str(tmp_path / "no.raw"), "--landmarks", dataset["landmarks"]]) == 3
    assert main(["estimate", "--frames", dataset["frames"], "--landmarks", str(tmp_path / "no.jsonl")]) == 3


def test_malformed_inputs_exit_4(dataset, tmp_path):
    bad_raw = tmp_path / "bad.raw"
    bad_raw.write_bytes(b"not a frame stream")
    assert main(["estimate", "--frames", str(bad_raw), "--landmarks", dataset["landmarks"]]) == 4

    bad_marks = tmp_path / "bad.jsonl"
    bad_marks.write_text("{ nope\n")
    assert main(["estimate", "--frames", dataset["frames"], "--landmarks", str(bad_marks)]) == 4


# Text inputs read through ingest.read_text: bytes that are not UTF-8 are
# malformed data (exit 4), not a UnicodeDecodeError traceback.


def test_landmarks_not_utf8_exits_4(dataset, tmp_path):
    marks = tmp_path / "latin1.jsonl"
    marks.write_bytes(open(dataset["landmarks"], "rb").read().replace(b"eyes", b"ey\xe9s", 1))
    assert main(["estimate", "--frames", dataset["frames"], "--landmarks", str(marks)]) == 4


def test_config_not_utf8_exits_4(dataset, tmp_path):
    ini = tmp_path / "latin1.ini"
    ini.write_bytes(b"[pipeline]\n# caf\xe9\nmethod = aggregate\n")
    assert main(run_estimate(dataset, "--config", str(ini))) == 4


def frame_dir_claiming(tmp_path, size, **manifest):
    """A two-frame PPM directory whose manifest.json is overridden by manifest."""
    d = tmp_path / "frames"
    write_frame_dir(pulsed_sequence(n=2, h=size, w=size), d)
    claimed = {**json.loads((d / "manifest.json").read_text()), **manifest}
    (d / "manifest.json").write_text(json.dumps(claimed))
    return str(d)


def test_frame_dir_manifest_without_positive_size_exits_4(dataset, tmp_path):
    for bad in ({"width": -4}, {"height": 0}):
        frames = frame_dir_claiming(tmp_path, 8, **bad)
        assert main(["estimate", "--frames", frames, "--landmarks", dataset["landmarks"]]) == 4


def test_frame_dir_manifest_count_past_the_files_exits_3_before_allocating(dataset, tmp_path):
    count = 1_000_000_000
    frames = frame_dir_claiming(tmp_path, 96, count=count)
    tracemalloc.start()
    try:
        rc = main(["estimate", "--frames", frames, "--landmarks", dataset["landmarks"]])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 3
    assert peak < 16 << 20 < count * 96 * 96 * 3  # the manifest claims ~25 TiB


def test_usage_errors_exit_2(dataset, tmp_path, capsys, monkeypatch):
    assert main(run_estimate(dataset, "--notch-hz", "abc")) == 2
    ini = tmp_path / "bad.ini"
    # an unknown key, and keys of settings the toolkit no longer has
    for line in ("windowing = 1", "passband_lo_hz = 0.7", "bbox_smoothing = true"):
        ini.write_text(f"[pipeline]\n{line}\n")
        assert main(run_estimate(dataset, "--config", str(ini))) == 2
        assert "unknown config key" in capsys.readouterr().err
    # argparse: missing required flags, and the flags of removed settings
    for argv in (["estimate"], run_estimate(dataset, "--snr-halfwidth-hz", "0.1"),
                 run_estimate(dataset, "--bbox-smoothing")):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
    # min_subtract is the one diffuse estimator, by flag, file or environment
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(run_estimate(dataset, "--diffuse-estimator", "bilateral"))
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "invalid choice: 'bilateral'" in err and "min_subtract" in err
    ini.write_text("[pipeline]\ndiffuse_estimator = bilateral\n")
    assert main(run_estimate(dataset, "--config", str(ini))) == 2
    assert "one of ('min_subtract',), got 'bilateral'" in capsys.readouterr().err
    monkeypatch.setenv("RPPG_CONFIG", str(ini))
    assert main(run_estimate(dataset)) == 2
    assert "one of ('min_subtract',), got 'bilateral'" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value", [("--hop-s", "1e-9"), ("--window-s", "0.01")])
def test_window_or_hop_shorter_than_one_frame_exits_2(dataset, flag, value):
    assert main(run_estimate(dataset, "--method", "aggregate", flag, value)) == 2


def test_geometry_error_exits_5(dataset):
    assert main(run_estimate(dataset, "--method", "snr", "--grid-cols", "30")) == 5


def test_empty_region_exits_6(dataset, tmp_path):
    # mouth polygon swallows the whole bbox, leaving no skin pixels
    mouth = [[0, 0], [24, 0], [24, 24], [0, 24]]
    record = {"bbox": [0, 0, 24, 24], "eyes": [[], []], "mouth": mouth}
    marks = tmp_path / "covered.jsonl"
    marks.write_text("".join(json.dumps({"frame": i, **record}) + "\n" for i in range(360)))
    assert main(["estimate", "--frames", dataset["frames"], "--landmarks", str(marks)]) == 6


def test_signal_error_exits_7(dataset):
    # 20 s windows never fit a 12 s recording
    assert main(run_estimate(dataset, "--window-s", "20")) == 7


@pytest.mark.parametrize("method", ["aggregate", "snr"])
def test_window_longer_than_the_recording_exits_7_for_every_method(dataset, method):
    assert main(run_estimate(dataset, "--method", method, "--window-s", "20")) == 7


def test_window_too_long_to_count_in_frames_exits_7(dataset, capsys):
    # 1e308 s is 3e309 frames at 30 fps, past float range: no window fits,
    # so the run ends in exit 7 before any window is counted in frames.
    assert main(run_estimate(dataset, "--window-s", "1e308")) == 7
    assert "no analysis windows fit" in capsys.readouterr().err


def test_model_error_exits_8():
    rc = main(
        ["biophys", "--table", "pixel-snr", "--level-min", "0",
         "--read-noise", "0", "--quant-noise", "0"]
    )
    assert rc == 8


def test_invalid_scene_exits_9(tmp_path):
    assert main(["synth", "--out", str(tmp_path / "s"), "--width", "4"]) == 9


@pytest.fixture(scope="module")
def bad_paths(dataset, tmp_path_factory):
    """Inputs that cannot be opened or parsed, and outputs that cannot be written."""
    root = tmp_path_factory.mktemp("bad-paths")
    (root / "dir").mkdir()
    (root / "file").write_text("x")
    assert main(run_estimate(dataset, "--method", "aggregate", "--out", str(root / "report.json"))) == 0
    (root / "hr.csv").write_text(open(dataset["hr"]).read())
    (root / "nested.json").write_text("[" * 200_000)
    for name, report, truth in (
        ("report-dir", "dir", "hr.csv"), ("truth-dir", "report.json", "dir"),
        ("report-long", "x" * 5000, "hr.csv"), ("report-nul", "report\0.json", "hr.csv"),
        ("report-nested", "nested.json", "hr.csv"),
    ):
        (root / f"{name}.csv").write_text(
            f"report,ground_truth,skin_tone,condition,viewpoint\n{report},{truth},light,room,front\n"
        )
    marks = open(dataset["landmarks"]).read()
    (root / "frame-1e400.jsonl").write_text(marks.replace('"frame": 0,', '"frame": 1e400,', 1))
    (root / "nested.jsonl").write_text("[" * 200_000 + "\n")
    # a PPM directory whose frame 100 is a directory, found when its chunk is read
    seq = pulsed_sequence(n=300, h=8, w=8)
    write_frame_dir(seq, root / "ppm")
    write_landmarks(full_sidecar(seq), root / "ppm.jsonl")
    (root / "ppm" / "frame_000100.ppm").unlink()
    (root / "ppm" / "frame_000100.ppm").mkdir()
    frames = frame_dir_claiming(root, 8)
    # output trees where one file's name is taken by a directory
    (root / "dump-taken" / "frame_000000.ppm").mkdir(parents=True)
    (root / "synth-taken" / "landmarks.jsonl").mkdir(parents=True)
    manifest = (Path(frames) / "manifest.json").read_text()
    (Path(frames) / "manifest.json").write_text(manifest.replace('"width": 8', '"width": 1e400'))
    return {**dataset, "root": str(root), "long": str(root / ("x" * 5000))}


ESTIMATE = "estimate --frames {frames} --landmarks {landmarks} --method aggregate"
EVALUATE = "evaluate --manifest {root}/"


@pytest.mark.parametrize(
    "argv, code",
    [
        # an input path that cannot be opened as a file: 3
        ("estimate --frames {frames} --landmarks {root}/dir", 3),
        (ESTIMATE + " --config {root}/dir", 3),
        ("evaluate --manifest {root}/dir", 3),
        (EVALUATE + "report-dir.csv", 3),
        (EVALUATE + "truth-dir.csv", 3),
        ("estimate --frames {root}/ppm --landmarks {root}/ppm.jsonl --method aggregate", 3),
        ("estimate --frames {long} --landmarks {landmarks}", 3),
        ("estimate --frames {frames} --landmarks {long}", 3),
        (EVALUATE + "report-long.csv", 3),
        # malformed input: 4
        (EVALUATE + "report-nul.csv", 4),
        (EVALUATE + "report-nested.csv", 4),
        ("estimate --frames {frames} --landmarks {root}/frame-1e400.jsonl", 4),
        ("estimate --frames {frames} --landmarks {root}/nested.jsonl", 4),
        ("estimate --frames {root}/frames --landmarks {landmarks}", 4),
        # an output path that cannot be written: 2
        (ESTIMATE + " --out {root}/dir", 2),
        (ESTIMATE + " --out {long}", 2),
        (ESTIMATE + " --dump-weights {root}/dir", 2),
        (ESTIMATE.replace("aggregate", "proposed") + " --dump-diffuse {root}/file", 2),
        (ESTIMATE.replace("aggregate", "proposed") + " --dump-diffuse {root}/dump-taken", 2),
        ("biophys --table pixel-snr --out {root}/dir", 2),
        ("synth --out {root}/file", 2),
        ("synth --out {root}/file/scene", 2),
        ("synth --out {root}/synth-taken", 2),
    ],
)
def test_paths_that_cannot_be_opened_exit_2_3_or_4(bad_paths, capsys, argv, code):
    capsys.readouterr()
    assert main([arg.format(**bad_paths) for arg in argv.split()]) == code
    err = capsys.readouterr().err
    assert err.startswith("rppg: error: ") and err.count("\n") == 1, err


# Bytes that break a file: values out of range or of the wrong kind, bytes
# that are not UTF-8, a NUL, a cut or joined line, nesting past the
# recursion limit.
SPLICES = st.one_of(
    st.sampled_from([b"1e400", b"-1", b"NaN", b"null", b"\xff", b"\x00", b"\n", b",", b"", b"[" * 200_000]),
    st.binary(max_size=4),
)


@pytest.fixture(scope="module")
def small_inputs(tmp_path_factory):
    """A 3.2 s 8x8 recording as a raw stream and a PPM directory, its
    landmarks, a config for one 3 s aggregate window, and an evaluate
    manifest naming its report and ground truth."""
    root = tmp_path_factory.mktemp("small")
    seq = pulsed_sequence(n=96, h=8, w=8)
    write_raw_stream(seq, root / "frames.raw")
    write_frame_dir(seq, root / "ppm")
    write_landmarks(full_sidecar(seq), root / "landmarks.jsonl")
    (root / "run.ini").write_text("[pipeline]\nmethod = aggregate\nwindow_s = 3\nhop_s = 3\n")
    write_timeseries_csv(np.array([0.0, 3.0]), np.array([72.0, 72.0]), root / "hr.csv")
    (root / "manifest.csv").write_text(
        "report,ground_truth,skin_tone,condition,viewpoint\nreport.json,hr.csv,light,room,front\n"
    )
    for frames in ("frames.raw", "ppm"):
        assert main(small_estimate(root, frames)) == 0
    (root / "out.json").rename(root / "report.json")
    return root


def small_estimate(root, frames):
    return ["estimate", "--frames", str(root / frames), "--landmarks", str(root / "landmarks.jsonl"),
            "--config", str(root / "run.ini"), "--out", str(root / "out.json")]


# each file input, and the run that reads it
FILE_INPUTS = {
    "landmarks.jsonl": "frames.raw",
    "run.ini": "frames.raw",
    "frames.raw": "frames.raw",
    "ppm/manifest.json": "ppm",
    "ppm/frame_000050.ppm": "ppm",
    "manifest.csv": None,
    "report.json": None,
    "hr.csv": None,
}


@settings(deadline=None, max_examples=80, derandomize=True)
@given(
    name=st.sampled_from(sorted(FILE_INPUTS)),
    at=st.integers(0, 2**20),
    cut=st.integers(0, 8),
    splice=SPLICES,
)
# the first landmark's frame index, and the frame directory's width
@example(name="landmarks.jsonl", at=10, cut=1, splice=b"1e400")
@example(name="ppm/manifest.json", at=49, cut=1, splice=b"1e400")
@example(name="landmarks.jsonl", at=0, cut=0, splice=b"[" * 200_000)
@example(name="report.json", at=0, cut=0, splice=b"[" * 200_000)
def test_no_file_input_exits_1(small_inputs, name, at, cut, splice):
    # splice bytes into the file at offset at (modulo its length), over cut bytes
    path = small_inputs / name
    original = path.read_bytes()
    at %= len(original) + 1
    path.write_bytes(original[:at] + splice + original[at + cut :])
    frames = FILE_INPUTS[name]
    if frames is None:
        argv = ["evaluate", "--manifest", str(small_inputs / "manifest.csv")]
    else:
        argv = small_estimate(small_inputs, frames)
    try:
        rc = main(argv)
    finally:
        path.write_bytes(original)
    assert rc == 0 or 2 <= rc <= 9, rc


# ---------------------------------------------------------------------------
# synth
# ---------------------------------------------------------------------------


def test_synth_cli_roundtrip(tmp_path, capsys):
    args = [
        "synth", "--out", str(tmp_path / "scene"), "--width", "16", "--height", "16",
        "--duration-s", "10", "--no-shot-noise", "--read-noise", "0", "--seed", "3",
    ]
    assert main(args) == 0
    paths = json.loads(capsys.readouterr().out)
    assert set(paths) == {"frames", "landmarks", "hr", "ppg"}
    seq = load_frame_sequence(paths["frames"])
    assert seq.frames.shape == (300, 16, 16, 3)

    # same seed elsewhere renders the same bytes
    args2 = list(args)
    args2[2] = str(tmp_path / "again")
    assert main(args2) == 0
    paths2 = json.loads(capsys.readouterr().out)
    a = open(paths["frames"], "rb").read()
    b = open(paths2["frames"], "rb").read()
    assert a == b


def test_synth_ppm_layout(tmp_path, capsys):
    rc = main(
        ["synth", "--out", str(tmp_path / "scene"), "--layout", "ppm",
         "--width", "16", "--height", "16", "--duration-s", "10"]
    )
    assert rc == 0
    paths = json.loads(capsys.readouterr().out)
    seq = load_frame_sequence(paths["frames"])
    assert seq.frames.shape == (300, 16, 16, 3)


def test_synth_bad_specular_exits_2(tmp_path):
    assert main(["synth", "--out", str(tmp_path / "s"), "--specular", "1,2,3"]) == 2
    assert main(["synth", "--out", str(tmp_path / "s"), "--specular", "1,1,4,4,nan"]) == 2


def test_synth_flags_set_the_scene_fields(tmp_path, capsys):
    # every synth flag, the renamed noise flags and the boolean pairs included
    rc = main(
        ["synth", "--out", str(tmp_path / "cli"), "--width", "16", "--height", "20",
         "--fps", "25", "--duration-s", "10", "--hr-bpm", "90", "--f-mel", "0.3",
         "--f-blood", "0.06", "--f-hg", "0.4", "--delta-f-blood", "0.005",
         "--gain", "2", "--read-noise", "0.7", "--quant-noise", "0.2", "--no-shot-noise",
         "--specular", "2,3,4,5,30", "--motion-px", "1", "--exposure", "1.5",
         "--texture-amplitude", "0.1", "--two-harmonic", "--seed", "4"]
    )
    assert rc == 0
    cli_paths = json.loads(capsys.readouterr().out)
    scene = SynthScene(
        width=16, height=20, fps=25.0, duration_s=10.0, hr_bpm=90.0,
        skin=SkinParams(f_mel=0.3, f_blood=0.06, f_hg=0.4, delta_f_blood=0.005),
        noise=CameraNoiseParams(gain=2.0, sigma_read=0.7, sigma_quant=0.2),
        shot_noise=False, specular=SpecularPatch(rect=(2, 3, 4, 5), strength=30.0),
        motion_px=1, exposure=1.5, texture_amplitude=0.1, two_harmonic=True, seed=4,
    )
    direct = write_scene_dataset(scene, tmp_path / "direct")
    for key, path in direct.items():
        assert open(cli_paths[key], "rb").read() == path.read_bytes(), key
    # the generated --shot-noise / --no-two-harmonic spell the defaults
    assert main(["synth", "--out", str(tmp_path / "a"), "--width", "16", "--height", "16",
                 "--duration-s", "10", "--shot-noise", "--no-two-harmonic"]) == 0
    assert main(["synth", "--out", str(tmp_path / "b"), "--width", "16", "--height", "16",
                 "--duration-s", "10"]) == 0
    assert (tmp_path / "a" / "frames.raw").read_bytes() == (tmp_path / "b" / "frames.raw").read_bytes()


@pytest.mark.parametrize(
    "flags",
    [["--duration-s", "1e12"], ["--width", "10000000"], ["--fps", "1e200", "--duration-s", "1e200"]],
)
def test_synth_scene_too_big_to_render_exits_9(tmp_path, flags):
    # refused before the output directory is made, not by the allocation
    assert main(["synth", "--out", str(tmp_path / "s"), *flags]) == 9
    assert not (tmp_path / "s").exists()


def test_synth_negative_seed_exits_9(tmp_path):
    assert main(["synth", "--out", str(tmp_path / "s"), "--seed", "-1"]) == 9


@pytest.mark.parametrize("flag", ["--fps", "--exposure", "--read-noise"])
def test_synth_non_finite_floats_exit_2(tmp_path, flag):
    assert main(["synth", "--out", str(tmp_path / "s"), flag, "nan"]) == 2
    assert not (tmp_path / "s").exists()


@pytest.mark.parametrize("flag", ["--gain=1e-160", "--read-noise=1e200", "--quant-noise=1e200"])
def test_noise_variance_past_float64_exits_2(tmp_path, capsys, flag):
    out = tmp_path / "s"
    assert main(["biophys", "--table", "pixel-snr", flag]) == 2
    assert main(["synth", "--out", str(out), "--width", "16", "--height", "16",
                 "--duration-s", "10", flag]) == 2
    assert not out.exists()
    assert "variance of a full-scale pixel" in capsys.readouterr().err


def test_synth_blood_fraction_past_one_exits_9_before_the_directory(tmp_path, capsys):
    out = tmp_path / "d"
    assert main(["synth", "--out", str(out), "--f-blood", "0.95", "--delta-f-blood", "0.09"]) == 9
    assert not out.exists()
    err = capsys.readouterr().err
    assert "f_blood 0.95" in err and "delta_f_blood 0.09" in err


def test_gain_past_the_poisson_limit_exits_2(tmp_path, capsys):
    out = tmp_path / "s"
    small = ["--width", "16", "--height", "16", "--duration-s", "10"]
    assert main(["synth", "--out", str(out), *small, "--gain=1e20"]) == 2
    assert not out.exists()
    assert main(["biophys", "--table", "pixel-snr", "--gain=1e20"]) == 2
    just_under = float(np.nextafter(MAX_GAIN, 0.0))
    assert main(["synth", "--out", str(out), *small, f"--gain={just_under!r}"]) == 0
    assert load_frame_sequence(out / "frames.raw").count == 300


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------


@pytest.fixture()
def manifest_dir(dataset, tmp_path):
    for method in ("aggregate", "proposed"):
        rc = main(
            run_estimate(
                dataset,
                "--method", method,
                "--diffuse-estimator", "min_subtract",
                "--grid-rows", "4", "--grid-cols", "4",
                "--out", str(tmp_path / f"{method}.json"),
            )
        )
        assert rc == 0
    (tmp_path / "hr.csv").write_text(open(dataset["hr"]).read())
    manifest = tmp_path / "manifest.csv"
    manifest.write_text(
        "report,ground_truth,skin_tone,condition,viewpoint\n"
        "aggregate.json,hr.csv,light,room,front\n"
        "proposed.json,hr.csv,light,room,front\n"
    )
    return tmp_path


def test_evaluate_summary_and_pair_files(manifest_dir, capsys):
    out = manifest_dir / "summary.csv"
    rc = main(
        ["evaluate", "--manifest", str(manifest_dir / "manifest.csv"),
         "--out", str(out),
         "--scatter", str(manifest_dir / "scatter.csv"),
         "--bland-altman", str(manifest_dir / "ba.csv")]
    )
    assert rc == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0].startswith("method,statistic,light,")
    assert any(l.startswith("proposed,delta_mae_vs_aggregate") for l in lines)

    scatter = (manifest_dir / "scatter.csv").read_text().strip().split("\n")
    assert scatter[0] == "gt,est"
    gt, est = (float(v) for v in scatter[1].split(","))
    assert gt == pytest.approx(72.0)
    assert abs(est - 72.0) <= 1.0
    ba = (manifest_dir / "ba.csv").read_text().strip().split("\n")
    mean, diff = (float(v) for v in ba[1].split(","))
    assert diff == pytest.approx(est - gt)


def tree_bytes(path: Path) -> dict:
    """Every file under path (or path itself) by its relative name, as bytes."""
    if path.is_file():
        return {".": path.read_bytes()}
    return {str(p.relative_to(path)): p.read_bytes() for p in sorted(path.rglob("*"))}


@pytest.mark.parametrize("case", ["landmarks", "frames", "manifest"])
def test_a_dash_output_is_stdout_only_for_out(
    dataset, manifest_dir, tmp_path, monkeypatch, capsys, case
):
    # To --dump-weights, --dump-diffuse and --scatter a "-" is a path in the
    # working directory like any other, so one that names an input "-" is
    # an overlap, found before anything is read or written.
    if case == "landmarks":
        monkeypatch.chdir(tmp_path)
        Path("-").write_bytes(Path(dataset["landmarks"]).read_bytes())
        argv = ["estimate", "--frames", dataset["frames"], "--landmarks", "-", "--dump-weights", "-"]
    elif case == "frames":
        scene = SynthScene(width=16, height=16, fps=30.0, duration_s=10.0, seed=2)
        paths = write_scene_dataset(scene, tmp_path / "scene", layout="ppm")
        monkeypatch.chdir(tmp_path / "scene")
        paths["frames"].rename("-")
        argv = ["estimate", "--frames", "-", "--landmarks", str(paths["landmarks"]),
                "--method", "proposed", "--dump-diffuse", "-"]
    else:
        monkeypatch.chdir(manifest_dir)
        Path("-").write_bytes(Path("manifest.csv").read_bytes())
        argv = ["evaluate", "--manifest", "-", "--scatter", "-"]
    before = tree_bytes(Path("-"))
    capsys.readouterr()
    assert main(argv) == 2
    assert "would be overwritten" in capsys.readouterr().err
    assert tree_bytes(Path("-")) == before


def test_an_evaluate_output_naming_the_manifest_or_another_output_exits_2(manifest_dir, capsys):
    # --out, --scatter and --bland-altman may name neither --manifest nor
    # each other; found before the manifest is read, and nothing is written
    manifest = manifest_dir / "manifest.csv"
    before = manifest.read_bytes()
    out = manifest_dir / "out.csv"
    cases = [
        ("--out", manifest),
        ("--scatter", manifest),
        ("--bland-altman", manifest),
        ("--out", out, "--scatter", out),
        ("--out", out, "--bland-altman", out),
        ("--scatter", out, "--bland-altman", manifest_dir / "." / "out.csv"),
    ]
    for extra in cases:
        capsys.readouterr()
        assert main(["evaluate", "--manifest", str(manifest), *map(str, extra)]) == 2, extra
        assert "would be overwritten" in capsys.readouterr().err
        assert manifest.read_bytes() == before
        assert not out.exists()
    missing = str(manifest_dir / "no.csv")
    assert main(["evaluate", "--manifest", missing, "--out", missing]) == 2  # not 3: not read


def test_written_reports_get_the_umask_mode(dataset, manifest_dir):
    # a temp file renamed into place must not keep mkstemp's 0600
    report, summary = manifest_dir / "aggregate.json", manifest_dir / "summary.csv"
    report.unlink()
    old = os.umask(0o022)
    try:
        rc_estimate = main(run_estimate(dataset, "--method", "aggregate", "--out", str(report)))
        rc_evaluate = main(
            ["evaluate", "--manifest", str(manifest_dir / "manifest.csv"), "--out", str(summary)]
        )
    finally:
        os.umask(old)
    assert (rc_estimate, rc_evaluate) == (0, 0)
    assert report.stat().st_mode & 0o777 == 0o644
    assert summary.stat().st_mode & 0o777 == 0o644


def test_written_reports_leave_the_umask_alone(dataset, tmp_path):
    # the umask belongs to the process: setting it to 0 and back, even for
    # a moment, lets other threads create files 0666 meanwhile
    out, weights = tmp_path / "r.json", tmp_path / "w.json"
    old = os.umask(0o027)
    try:
        with mock.patch.object(os, "umask", side_effect=AssertionError("umask")) as umask:
            rc = main(run_estimate(dataset, "--out", str(out), "--dump-weights", str(weights)))
    finally:
        os.umask(old)
    assert rc == 0
    assert umask.call_count == 0
    assert out.stat().st_mode & 0o777 == weights.stat().st_mode & 0o777 == 0o640
    assert sorted(p.name for p in tmp_path.iterdir()) == ["r.json", "w.json"]


def test_main_builds_one_parser_and_looks_commands_up_per_call(dataset, monkeypatch):
    # a wrapper installed at cli._cmd_estimate after the parser is built, as
    # a tracer installs one, still receives the next call
    build_parser.cache_clear()
    assert main(run_estimate(dataset, "--method", "aggregate")) == 0
    seen = []

    def wrapper(args):
        seen.append(args.command)
        return estimate(args)

    estimate = cli._cmd_estimate
    monkeypatch.setattr(cli, "_cmd_estimate", wrapper)
    assert main(run_estimate(dataset, "--method", "aggregate")) == 0
    assert seen == ["estimate"]
    assert build_parser.cache_info().misses == 1


def test_evaluate_error_paths(manifest_dir, tmp_path):
    assert main(["evaluate", "--manifest", str(tmp_path / "no.csv")]) == 3

    bad = manifest_dir / "bad_header.csv"
    bad.write_text("report,gt\nx,y\n")
    assert main(["evaluate", "--manifest", str(bad)]) == 4

    short_row = manifest_dir / "short.csv"
    short_row.write_text(
        "report,ground_truth,skin_tone,condition,viewpoint\naggregate.json,hr.csv,light\n"
    )
    assert main(["evaluate", "--manifest", str(short_row)]) == 4

    ghost = manifest_dir / "ghost.csv"
    ghost.write_text(
        "report,ground_truth,skin_tone,condition,viewpoint\nmissing.json,hr.csv,light,room,front\n"
    )
    assert main(["evaluate", "--manifest", str(ghost)]) == 3

    rc = main(
        ["evaluate", "--manifest", str(manifest_dir / "manifest.csv"),
         "--out", str(manifest_dir / "s.csv"),
         "--scatter", str(manifest_dir / "sc.csv"),
         "--pairs-method", "nonexistent"]
    )
    assert rc == 2

    # report fields of the wrong JSON type: method a string, video_bpm a finite number
    good = json.loads((manifest_dir / "aggregate.json").read_text())
    header = "report,ground_truth,skin_tone,condition,viewpoint\n"
    for i, field in enumerate(
        [{"method": ["aggregate"]}, {"method": 7}, {"video_bpm": True},
         {"video_bpm": "72.0"}, {"video_bpm": None}, {"video_bpm": 10**400},
         {"video_bpm": math.nan}, {"video_bpm": math.inf}]
    ):
        (manifest_dir / f"typed{i}.json").write_text(json.dumps({**good, **field}))
        typed = manifest_dir / f"typed{i}.csv"
        # the bad report sits next to a good one, as in a cohort
        typed.write_text(
            header + "aggregate.json,hr.csv,light,room,front\n"
            f"typed{i}.json,hr.csv,light,room,front\n"
        )
        assert main(["evaluate", "--manifest", str(typed)]) == 4, field


@pytest.mark.parametrize("pair_flag", ["--scatter", "--bland-altman"])
def test_evaluate_unmatched_pairs_method_writes_nothing(manifest_dir, capsys, pair_flag):
    out, pairs = manifest_dir / "s.csv", manifest_dir / "pairs.csv"
    rc = main(
        ["evaluate", "--manifest", str(manifest_dir / "manifest.csv"), "--out", str(out),
         pair_flag, str(pairs), "--pairs-method", "foo"]
    )
    assert rc == 2
    assert "no records with method 'foo'" in capsys.readouterr().err
    assert not out.exists() and not pairs.exists()


def test_evaluate_manifest_not_utf8_exits_4(manifest_dir):
    manifest = manifest_dir / "latin1.csv"
    manifest.write_bytes(
        b"report,ground_truth,skin_tone,condition,viewpoint\n"
        b"aggregate.json,hr.csv,light,room,front\n# \xff\xfe\n"
    )
    assert main(["evaluate", "--manifest", str(manifest)]) == 4


def test_evaluate_rejects_out_of_range_ground_truth(manifest_dir):
    # a 0 bpm ground truth fails the same range check as ingest.load_ground_truth
    (manifest_dir / "zero.csv").write_text("time_s,value\n0.0,0.0\n1.0,0.0\n")
    manifest = manifest_dir / "zero_manifest.csv"
    manifest.write_text(
        "report,ground_truth,skin_tone,condition,viewpoint\n"
        "aggregate.json,zero.csv,light,room,front\n"
    )
    assert main(["evaluate", "--manifest", str(manifest), "--out", str(manifest_dir / "z.csv")]) == 4
    assert not (manifest_dir / "z.csv").exists()


# ---------------------------------------------------------------------------
# biophys tables
# ---------------------------------------------------------------------------


def test_biophys_melanin_table(capsys):
    assert main(["biophys", "--table", "melanin"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "f_mel,signal,sinr"
    assert len(lines) == 1 + 44
    signal = [float(l.split(",")[1]) for l in lines[1:]]
    sinr_col = [float(l.split(",")[2]) for l in lines[1:]]
    assert all(a > b for a, b in zip(signal, signal[1:]))
    assert max(sinr_col) - min(sinr_col) < 1e-9 * max(sinr_col)


def test_biophys_pixel_snr_table(tmp_path):
    out = tmp_path / "snr.csv"
    assert main(["biophys", "--table", "pixel-snr", "--out", str(out)]) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "level,snr"
    assert len(lines) == 1 + 255
    assert lines[100] == f"{100.0!r},{100.0 / math.sqrt(102.5)!r}"
    snr = [float(l.split(",")[1]) for l in lines[1:]]
    assert all(a < b for a, b in zip(snr, snr[1:]))


def test_biophys_custom_spectra(tmp_path, capsys):
    ill = tmp_path / "ill.csv"
    ill.write_text("wavelength_nm,value\n400,0.5\n700,1.5\n")
    assert main(["biophys", "--table", "melanin", "--illuminant", str(ill), "--points", "5"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert len(lines) == 6
    assert main(["biophys", "--table", "melanin", "--sensitivities", "a.csv,b.csv"]) == 2
    assert main(["biophys", "--table", "melanin", "--points", "0"]) == 2
    assert main(["biophys", "--table", "pixel-snr", "--level-min", "9", "--level-max", "3"]) == 2
    # every table checks every sweep setting, its own or not
    assert main(["biophys", "--table", "melanin", "--points", "3", "--level-max", "999"]) == 2
    assert main(["biophys", "--table", "pixel-snr", "--points", "0"]) == 2


def test_biophys_out_may_not_name_a_spectrum_csv(tmp_path, capsys):
    # --out may name neither --illuminant nor any --sensitivities CSV:
    # exit 2 before anything is read, and each CSV keeps its bytes
    csvs = [tmp_path / f"{name}.csv" for name in ("ill", "r", "g", "b")]
    for path in csvs:
        path.write_text("wavelength_nm,value\n400,0.5\n700,1.5\n")
    ill, *sens = csvs
    spectra = ["--illuminant", str(ill), "--sensitivities", ",".join(map(str, sens))]
    for out, table in [*((p, "melanin") for p in csvs), (ill, "pixel-snr")]:
        capsys.readouterr()
        assert main(["biophys", "--table", table, *spectra, "--out", str(out)]) == 2, out
        err = capsys.readouterr().err
        assert err.startswith("rppg: error: --out") and "would be overwritten" in err, err
        assert all(p.read_text() == "wavelength_nm,value\n400,0.5\n700,1.5\n" for p in csvs)
    missing = str(tmp_path / "no.csv")
    assert main(["biophys", "--table", "melanin", "--illuminant", missing, "--out", missing]) == 2
    assert main(["biophys", "--table", "melanin", *spectra, "--out", str(tmp_path / "t.csv")]) == 0


@pytest.mark.parametrize("step_nm, rows", [("7", 3), ("0.7", 3), ("150.1", 1)])
def test_biophys_step_that_does_not_divide_the_band(capsys, step_nm, rows):
    # the grid stops at the last step inside 700 nm
    argv = ["biophys", "--table", "melanin", "--points", str(rows), "--step-nm", step_nm]
    assert main(argv) == 0
    assert len(capsys.readouterr().out.splitlines()) == 1 + rows


@pytest.mark.parametrize(
    "data",
    [
        b"wavelength_nm,value\n400,0.5,9\n700,1.5\n",  # three fields
        b"wavelength_nm,value\n400,bright\n700,1.5\n",  # not a number
        b"wavelength_nm,value\n",  # header only
        b"wavelength_nm,value\n400,nan\n700,1.5\n",
        b"400,0.5\n700,1.5\n",  # no header
        b"\xff\xfe\x00\x01",  # not text
    ],
)
def test_biophys_malformed_spectrum_csv_exits_4(tmp_path, data):
    good = tmp_path / "good.csv"
    good.write_text("wavelength_nm,value\n400,1.0\n700,1.0\n")
    bad = tmp_path / "bad.csv"
    bad.write_bytes(data)
    table = ["biophys", "--table", "melanin", "--points", "3"]
    assert main([*table, "--illuminant", str(bad)]) == 4
    assert main([*table, "--sensitivities", f"{good},{bad},{good}"]) == 4
    assert main([*table, "--sensitivities", f"{good},{good},{good}"]) == 0


@pytest.mark.parametrize(
    "flags",
    [
        ["--table", "pixel-snr", "--level-max", "256"],
        ["--table", "pixel-snr", "--level-min", "-1"],
        # 1e18 levels: refused before a range of them is built
        ["--table", "pixel-snr", "--level-max", "1000000000000000000"],
        ["--table", "melanin", "--points", str(MAX_MELANIN_POINTS + 1)],
    ],
)
def test_biophys_sweep_sizes_exit_2_before_the_sweep(capsys, flags):
    assert main(["biophys", *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith("rppg: error: ") and err.count("\n") == 1, err


def test_biophys_step_below_the_floor_exits_2(capsys):
    # 1e-9 nm would be a 3e11-wavelength grid; it is refused before the grid exists
    assert main(["biophys", "--table", "melanin", "--points", "3", "--step-nm=1e-9"]) == 2
    assert "wavelength step" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["0", "-1", "nan", "inf"])
@pytest.mark.parametrize("flag", ["--step-nm", "--f-mel-min", "--f-mel-max"])
def test_biophys_sweep_flags_rejected(capsys, flag, value):
    # parsed by main, as every field flag is: argparse no longer exits itself
    assert main(["biophys", "--table", "melanin", "--points", "3", f"{flag}={value}"]) == 2
    assert capsys.readouterr().err.startswith("rppg: error: ")


# ---------------------------------------------------------------------------
# every flag derived from a settings field, over malformed and edge values
# ---------------------------------------------------------------------------


def _field_flags():
    settings = (RunConfig, SynthScene, SkinParams, CameraNoiseParams, Sweep)
    names = {f.name for cls in settings for f in dataclasses.fields(cls)}
    subparsers = next(
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    return [
        (command, flag)
        for command, sub in subparsers.choices.items()
        for action in sub._actions
        if action.dest in names
        for flag in action.option_strings
    ]


FIELD_FLAGS = _field_flags()


def test_field_flags_cover_every_subcommand_that_takes_settings():
    commands = {command for command, _ in FIELD_FLAGS}
    assert commands == {"estimate", "synth", "biophys"}
    flags = {flag for _, flag in FIELD_FLAGS}
    assert {"--read-noise", "--quant-noise", "--no-shot-noise", "--two-harmonic",
            "--notch-hz", "--bbox-smoothing-alpha", "--channel", "--f-mel-min",
            "--f-mel-max", "--points", "--step-nm", "--level-min", "--level-max"} <= flags


@pytest.mark.parametrize(
    "token", ["nan", "inf", "-inf", "1e400", "abc", "", "0", "-1", "1e-300", "1e300"]
)
@pytest.mark.parametrize("command, flag", FIELD_FLAGS)
def test_no_flag_value_exits_1(dataset, tmp_path, capsys, command, flag, token):
    bases = {
        "estimate": [run_estimate(
            dataset, "--method", "proposed", "--diffuse-estimator", "min_subtract",
            "--grid-rows", "2", "--grid-cols", "2",
        )],
        "synth": [["synth", "--out", str(tmp_path / "s"), "--width", "16", "--height", "16",
                   "--duration-s", "10"]],
        # both tables, so that the melanin-only settings are used too
        "biophys": [["biophys", "--table", "pixel-snr"],
                    ["biophys", "--table", "melanin", "--points", "3"]],
    }[command]
    for base in bases:
        try:
            rc = main([*base, f"{flag}={token}"])
        except SystemExit as exc:  # argparse rejects the text itself
            rc = exc.code
        # 0 where the token is a valid value (e.g. --seed=0), else a documented code
        assert rc == 0 or 2 <= rc <= 9, (base, rc)


# ---------------------------------------------------------------------------
# SciPy is a test dependency only
# ---------------------------------------------------------------------------


def run_python(code: str, *args: str) -> subprocess.CompletedProcess:
    """Runs code in a fresh interpreter that imports this rppg package."""
    src = str(Path(rppg.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, "-c", code, *args],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True, timeout=300,
    )


WITHOUT_SCIPY = """
import json, sys
sys.modules["scipy"] = None  # every import of scipy or a submodule now fails
from rppg.cli import main
codes = []
for argv in json.loads(sys.argv[1]):
    try:
        codes.append(main(argv))
    except SystemExit as exc:  # --help
        codes.append(exc.code)
print(json.dumps(codes))
"""


def test_every_command_runs_with_scipy_blocked(tmp_path):
    scene = tmp_path / "scene"
    methods = ("aggregate", "snr", "proposed")
    estimate = ["estimate", "--frames", str(scene / "frames.raw"), "--landmarks", str(scene / "landmarks.jsonl"),
                "--grid-rows", "2", "--grid-cols", "2"]
    (tmp_path / "manifest.csv").write_text(
        "report,ground_truth,skin_tone,condition,viewpoint\n"
        + "".join(f"{m}.json,scene/hr.csv,medium,room,front\n" for m in methods)
    )
    calls = [
        ["--help"],
        ["synth", "--out", str(scene), "--width", "16", "--height", "16", "--duration-s", "12", "--seed", "1"],
        *([*estimate, "--method", m, "--out", str(tmp_path / f"{m}.json")] for m in methods),
        ["evaluate", "--manifest", str(tmp_path / "manifest.csv"), "--out", str(tmp_path / "cohort.csv")],
        ["biophys", "--table", "melanin", "--points", "3"],
    ]
    done = run_python(WITHOUT_SCIPY, json.dumps(calls))
    assert done.returncode == 0, done.stderr[-2000:]
    assert json.loads(done.stdout.splitlines()[-1]) == [0] * len(calls), done.stderr[-2000:]
    assert len((tmp_path / "cohort.csv").read_text().splitlines()) > 1


def test_importing_the_cli_leaves_scipy_unimported():
    done = run_python("import sys, rppg, rppg.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert done.returncode == 0, done.stderr[-2000:]
    assert done.stdout.strip() == "[]"
