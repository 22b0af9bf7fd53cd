import json
import struct
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rppg import errors, ingest
from rppg.ingest import (
    RAW_HEADER,
    RAW_MAGIC,
    FrameSequence,
    load_frame_dir,
    load_frame_sequence,
    load_ground_truth,
    load_landmarks,
    load_raw_stream,
    read_ppm,
    read_text,
    read_timeseries_csv,
    smooth_bboxes,
    write_frame_dir,
    write_landmarks,
    write_ppm,
    write_raw_stream,
    write_timeseries_csv,
)

from helpers import (
    flat_sequence,
    json_object_text,
    load_landmarks_by_line,
    read_frame_dir_by_files,
    read_ppm_by_pathlib,
)


def rand_frames(rng, n=3, h=5, w=7):
    return rng.integers(0, 256, size=(n, h, w, 3), dtype=np.uint8)


# ---------------------------------------------------------------------------
# FrameSequence validation
# ---------------------------------------------------------------------------


def test_frame_sequence_validation():
    with pytest.raises(errors.DataFormatError, match=r"must be \(n, h, w, 3\)"):
        FrameSequence(frames=np.zeros((3, 4, 5), dtype=np.uint8), fps=30.0)
    with pytest.raises(errors.DataFormatError):
        FrameSequence(frames=np.zeros((3, 4, 5, 3), dtype=np.float64), fps=30.0)
    with pytest.raises(errors.DataFormatError, match="fps must be positive"):
        FrameSequence(frames=np.zeros((3, 4, 5, 3), dtype=np.uint8), fps=0.0)
    seq = flat_sequence(n=4, h=6, w=8, fps=2.0)
    assert (seq.count, seq.height, seq.width) == (4, 6, 8)
    assert seq.duration_s == pytest.approx(2.0)


# ---------------------------------------------------------------------------
# PPM
# ---------------------------------------------------------------------------


def test_ppm_round_trip(tmp_path):
    frame = rand_frames(np.random.default_rng(0), n=1)[0]
    path = tmp_path / "f.ppm"
    write_ppm(frame, path)
    assert np.array_equal(read_ppm(path), frame)


def test_ppm_reads_comments_and_split_header(tmp_path):
    # header tokens may be separated by arbitrary whitespace and comments
    payload = bytes(range(2 * 2 * 3))
    raw = b"P6 # binary\n# full-line comment\n 2\n2 # size\n255\n" + payload
    path = tmp_path / "c.ppm"
    path.write_bytes(raw)
    img = read_ppm(path)
    assert img.shape == (2, 2, 3)
    assert img.tobytes() == payload
    # leading zeros are digits too
    path.write_bytes(b"P6 02 2 0255\n" + payload)
    assert read_ppm(path).tobytes() == payload


# each malformed file and the phrase of the check that must reject it
MALFORMED_PPM = {
    b"P5 2 2 255\n" + bytes(12): "not a binary PPM",      # wrong magic
    b"P6 2 2 65535\n" + bytes(24): "only 8-bit",          # 16-bit maxval
    b"P6 2 2 255\n" + bytes(11): "payload truncated",     # truncated payload
    b"P6 2 2\n": "truncated PPM header",
    # a token split by backtracking would read 11 x 25 with maxval 5
    b"P6 11 255\n   ": "truncated PPM header",
    # header tokens are ASCII decimal digits, which int() alone is not
    b"P6 1_0 +1 0255\n" + bytes(30): "bad PPM header tokens",
    b"P6 -1 1 255\n" + bytes(3): "bad PPM header tokens",
    b"P6 1 1 \xd9\xa3\n" + bytes(3): "bad PPM header tokens",  # Arabic-Indic 3
}


@pytest.mark.parametrize("raw", list(MALFORMED_PPM))
def test_ppm_rejects_malformed(tmp_path, raw):
    path = tmp_path / "bad.ppm"
    path.write_bytes(raw)
    with pytest.raises(errors.DataFormatError, match=MALFORMED_PPM[raw]):
        read_ppm(path)


# A PPM header: magic, then width, height and maxval tokens separated by
# whitespace and comments, then one whitespace byte before the raster.
PPM_SEPARATORS = st.sampled_from([b" ", b"\n", b"\t\r ", b" # note\n", b"#\n", b""])
PPM_JUNK = st.one_of(
    st.sampled_from([b"65535", b"0255", b"+2", b"1_0", b"2e0", b"\xd9\xa3", b"9" * 5000]),
    st.binary(min_size=1, max_size=3),
)


@st.composite
def ppm_files(draw):
    width, height = draw(st.integers(-3, 5)), draw(st.integers(-3, 5))
    tokens = [str(width).encode(), str(height).encode(), b"255"]
    for i in draw(st.lists(st.integers(0, 2), max_size=2)):
        tokens[i] = draw(PPM_JUNK)
    seps = [draw(PPM_SEPARATORS) for _ in range(4)]
    header = draw(st.sampled_from([b"P6", b"P5", b""]))
    header += b"".join(sep + tok for sep, tok in zip(seps, tokens)) + seps[3][:1]
    # a raster of the size the tokens imply, give or take a byte, or any
    size = abs(width * height * 3) + draw(st.sampled_from([0, 0, -1, 1]))
    payload = draw(st.one_of(st.binary(min_size=max(size, 0), max_size=max(size, 0)), st.binary(max_size=90)))
    return header, payload


@settings(deadline=None, max_examples=300, derandomize=True)
@given(ppm=ppm_files())
@example(ppm=(b"P6 +2 1 255\n", bytes(6)))
@example(ppm=(b"P6 1_0 1 255\n", bytes(30)))
def test_ppm_header_parses_or_exits_4(tmp_path_factory, ppm):
    header, payload = ppm
    path = tmp_path_factory.mktemp("ppm") / "f.ppm"
    path.write_bytes(header + payload)
    try:
        frame = read_ppm(path)
    except errors.ToolkitError as exc:
        assert exc.exit_code == errors.DataFormatError.exit_code
        return
    h, w, _ = frame.shape
    assert min(h, w) >= 1 and frame.tobytes() == payload[: h * w * 3]
    # only ASCII decimal digits read as a number: "+2" and "1_0" exit 4
    assert all(t.isdigit() for t in ingest._PPM_HEADER.match(header + payload).groups())


@settings(deadline=None, max_examples=300, derandomize=True)
@given(ppm=ppm_files())
@example(ppm=(b"P6 # c\n2 2 255\n", bytes(12)))
@example(ppm=(b"P6 -2 2 255\n", bytes(12)))
def test_read_ppm_matches_the_pathlib_oracle(tmp_path_factory, ppm):
    # the same array, or the same error; a header token other than ASCII
    # digits, which int() may read, is always a bad token
    header, payload = ppm
    path = tmp_path_factory.mktemp("ppm") / "f.ppm"
    path.write_bytes(header + payload)
    outcomes = []
    for read in (read_ppm_by_pathlib, read_ppm):
        try:
            outcomes.append(read(path))
        except errors.ToolkitError as exc:
            outcomes.append(exc)
    want, got = outcomes
    match = ingest._PPM_HEADER.match(header + payload) if header.startswith(b"P6") else None
    if match and not all(t.isdigit() for t in match.groups()):
        assert type(got) is errors.DataFormatError
        assert str(got) == f"{path}: bad PPM header tokens {list(match.groups())}"
    elif isinstance(want, Exception):
        assert (type(got), str(got)) == (type(want), str(want))
    else:
        assert got.dtype == want.dtype and np.array_equal(got, want)


# ---------------------------------------------------------------------------
# Raw stream
# ---------------------------------------------------------------------------


def test_raw_stream_round_trip_and_size(tmp_path):
    seq = FrameSequence(frames=rand_frames(np.random.default_rng(1), n=5), fps=12.5)
    path = tmp_path / "s.raw"
    write_raw_stream(seq, path)
    # fixed 24-byte header then tightly packed uint8 RGB payload
    assert path.stat().st_size == 24 + 5 * 5 * 7 * 3
    back = load_raw_stream(path)
    assert back.fps == pytest.approx(12.5)
    assert np.array_equal(back.frames[:], seq.frames)


def test_raw_stream_bad_magic(tmp_path):
    path = tmp_path / "s.raw"
    path.write_bytes(b"NOTRAW00" + bytes(100))
    with pytest.raises(errors.DataFormatError, match="bad magic"):
        load_raw_stream(path)


def test_raw_stream_truncated_payload(tmp_path):
    header = RAW_HEADER.pack(RAW_MAGIC, 4, 4, 2, 30_000)
    path = tmp_path / "s.raw"
    path.write_bytes(header + bytes(4 * 4 * 3 * 2 - 1))
    with pytest.raises(errors.DataFormatError, match="header implies"):
        load_raw_stream(path)


def test_raw_stream_overlong_payload(tmp_path):
    header = RAW_HEADER.pack(RAW_MAGIC, 4, 4, 2, 30_000)
    path = tmp_path / "s.raw"
    path.write_bytes(header + bytes(4 * 4 * 3 * 2 + 1))
    with pytest.raises(errors.DataFormatError, match="header implies"):
        load_raw_stream(path)


def test_raw_stream_zero_fps(tmp_path):
    header = RAW_HEADER.pack(RAW_MAGIC, 4, 4, 1, 0)
    path = tmp_path / "s.raw"
    path.write_bytes(header + bytes(4 * 4 * 3))
    with pytest.raises(errors.DataFormatError, match="fps_millihz must be positive"):
        load_raw_stream(path)


U32 = st.one_of(st.integers(0, 5), st.integers(0, 2**32 - 1))


@settings(deadline=None, max_examples=300, derandomize=True)
@given(
    magic=st.sampled_from([RAW_MAGIC, b"RPPGRAW2", b"\x00" * 8]),
    dims=st.tuples(U32, U32, U32),
    fps_millihz=st.sampled_from([0, 1, 30_000, 2**32 - 1]),
    extra=st.sampled_from([0, 0, 0, -1, 1, -3]),
    cut=st.one_of(st.none(), st.integers(0, RAW_HEADER.size - 1)),
)
def test_raw_stream_parses_or_exits_4(tmp_path_factory, magic, dims, fps_millihz, extra, cut):
    width, height, count = dims
    need = width * height * 3 * count
    size = max(0, need + extra) if need <= 4096 else 64
    payload = np.random.default_rng(size).integers(0, 256, size, dtype=np.uint8).tobytes()
    data = RAW_HEADER.pack(magic, width, height, count, fps_millihz) + payload
    path = tmp_path_factory.mktemp("raw") / "s.raw"
    path.write_bytes(data if cut is None else data[:cut])
    try:
        seq = load_raw_stream(path)
    except errors.ToolkitError as exc:
        assert exc.exit_code == errors.DataFormatError.exit_code
        return
    assert (seq.count, seq.height, seq.width) == (count, height, width)
    assert seq.fps == fps_millihz / 1000
    assert seq.frames[:].tobytes() == payload
    assert seq.frames[count - 1 :].tobytes() == payload[-width * height * 3 :]


def test_raw_stream_header_layout():
    # magic, then u32 little-endian width, height, count, fps_millihz
    packed = RAW_HEADER.pack(RAW_MAGIC, 2, 3, 4, 30_000)
    assert packed[:8] == b"RPPGRAW1"
    assert struct.unpack("<4I", packed[8:]) == (2, 3, 4, 30_000)


# ---------------------------------------------------------------------------
# Frame directory
# ---------------------------------------------------------------------------


def test_frame_dir_round_trip(tmp_path):
    seq = FrameSequence(frames=rand_frames(np.random.default_rng(2), n=4), fps=24.0)
    d = tmp_path / "frames"
    write_frame_dir(seq, d)
    manifest = json.loads((d / "manifest.json").read_text())
    assert manifest["count"] == 4
    assert manifest["fps"] == pytest.approx(24.0)
    back = load_frame_dir(d)
    assert np.array_equal(back.frames[:], seq.frames)
    assert back.fps == pytest.approx(24.0)


def test_frame_dir_over_a_longer_one_removes_its_stale_frames(tmp_path):
    # Writing 3 frames over a directory that held 6 leaves frames 0-2 and the
    # manifest; stale frame files past the count go, and every other name,
    # a frame-like one included, stays.
    d = tmp_path / "frames"
    write_frame_dir(FrameSequence(frames=rand_frames(np.random.default_rng(3), n=6), fps=24.0), d)
    others = ["notes.txt", "frame_0000004.ppm", "frame_000005.ppm.bak", "frame_00004.ppm"]
    for name in others:
        (d / name).write_text("kept")
    (d / "frame_000009.ppm").mkdir()
    seq = FrameSequence(frames=rand_frames(np.random.default_rng(4), n=3), fps=24.0)
    write_frame_dir(seq, d)
    frames = [f"frame_{i:06d}.ppm" for i in range(3)]
    assert sorted(p.name for p in d.iterdir()) == sorted(
        [*frames, "manifest.json", "frame_000009.ppm", *others]
    )
    assert all((d / name).read_text() == "kept" for name in others)
    assert np.array_equal(load_frame_dir(d).frames[:], seq.frames)


def test_frame_dir_missing_manifest(tmp_path):
    d = tmp_path / "frames"
    d.mkdir()
    with pytest.raises(errors.MissingInputError, match="manifest.json not found"):
        load_frame_dir(d)


def test_frame_dir_missing_frame_file(tmp_path):
    seq = flat_sequence(n=3, h=4, w=4)
    d = tmp_path / "frames"
    write_frame_dir(seq, d)
    (d / "frame_000001.ppm").unlink()
    # a middle frame is found missing when its chunk is read
    loaded = load_frame_dir(d)
    assert np.array_equal(loaded.frames[2:3], seq.frames[2:3])
    with pytest.raises(errors.MissingInputError, match="frame_000001"):
        loaded.frames[0:2]
    # the last one at load
    (d / "frame_000002.ppm").unlink()
    with pytest.raises(errors.MissingInputError, match="frame_000002"):
        load_frame_dir(d)


def test_frame_dir_middle_frame_faults_found_by_their_chunk(tmp_path):
    seq = FrameSequence(frames=rand_frames(np.random.default_rng(3), n=5), fps=10.0)
    d = tmp_path / "frames"
    write_frame_dir(seq, d)
    middle = d / "frame_000002.ppm"
    # a directory opens, and fails at the read: exit 3, naming the file
    middle.unlink()
    middle.mkdir()
    loaded = load_frame_dir(d)
    with pytest.raises(errors.MissingInputError, match=r"frame_000002\.ppm: cannot be read: Is a directory"):
        loaded.frames[1:4]
    middle.rmdir()
    # a truncated raster: exit 4
    write_ppm(seq.frames[2], middle)
    middle.write_bytes(middle.read_bytes()[:-1])
    with pytest.raises(errors.DataFormatError, match=r"frame_000002\.ppm: PPM payload truncated"):
        load_frame_dir(d).frames[1:4]
    # a header with comments: the same pixels
    middle.write_bytes(b"P6 # from a camera\n7 # width\n5\n# maxval next\n255\n" + seq.frames[2].tobytes())
    assert np.array_equal(load_frame_dir(d).frames[1:4], seq.frames[1:4])


def test_frame_dir_paths_are_spelled_as_pathlib_spells_them(tmp_path, monkeypatch):
    seq = flat_sequence(n=3, h=4, w=4)
    write_frame_dir(seq, tmp_path)
    (tmp_path / "frame_000001.ppm").unlink()
    monkeypatch.chdir(tmp_path)
    with pytest.raises(errors.MissingInputError, match=r"^frame_000001\.ppm: cannot be read"):
        load_frame_dir(".").frames[:]
    with pytest.raises(errors.MissingInputError, match=f"^{tmp_path}/frame_000001\\.ppm: "):
        load_frame_dir(f"{tmp_path}/").frames[:]


def test_frame_dir_dimension_mismatch(tmp_path):
    seq = flat_sequence(n=2, h=4, w=4)
    d = tmp_path / "frames"
    write_frame_dir(seq, d)
    write_ppm(np.zeros((3, 4, 3), dtype=np.uint8), d / "frame_000001.ppm")
    with pytest.raises(errors.DataFormatError, match="manifest says"):
        load_frame_dir(d)


def test_frame_dir_reads_write_ppm_files_without_the_fallback(tmp_path, monkeypatch):
    # a file in write_ppm's header form is read by one readv; read_ppm, the
    # fallback, reads only a file in another form
    seq = FrameSequence(frames=rand_frames(np.random.default_rng(5), n=40, h=6, w=9), fps=30.0)
    d = tmp_path / "frames"
    write_frame_dir(seq, d)
    loaded = load_frame_dir(d)
    calls = []

    def counted(path):
        calls.append(path)
        return read_ppm(path)

    monkeypatch.setattr(ingest, "read_ppm", counted)
    assert np.array_equal(loaded.frames[:], seq.frames) and calls == []
    middle = d / "frame_000017.ppm"
    middle.write_bytes(b"P6 # from a camera\n9 6\n255\n" + seq.frames[17].tobytes())
    assert np.array_equal(loaded.frames[:], seq.frames) and calls == [str(middle)]


# A middle frame's file, written by kind from the frame (h, w, 3) and a drawn
# cut or size change; None leaves no file, and a directory stands in for one.
FRAME_FILES = {
    "canonical": lambda f, k: ppm_bytes(f),
    "comments": lambda f, k: b"P6 # cam\n%d #w\n%d\n# maxval\n255\n" % f.shape[1::-1] + f.tobytes(),
    "whitespace": lambda f, k: b"P6\t %d\r\n%d  255 " % f.shape[1::-1] + f.tobytes(),
    "past the raster": lambda f, k: ppm_bytes(f) + bytes(k),
    "short raster": lambda f, k: ppm_bytes(f)[: -(k % f.size + 1)],
    "short header": lambda f, k: ppm_bytes(f)[: k % (len(ppm_bytes(f)) - f.size)],
    "other size": lambda f, k: ppm_bytes(np.zeros((f.shape[0] + k % 2, f.shape[1] + 1 - k % 2, 3), np.uint8)),
    "maxval": lambda f, k: b"P6\n%d %d\n%d\n" % (*f.shape[1::-1], (254, 65535, 0)[k % 3]) + f.tobytes(),
    "directory": None,
    "missing": None,
}


def ppm_bytes(frame: np.ndarray) -> bytes:
    """What write_ppm writes for frame."""
    h, w, _ = frame.shape
    return b"P6\n%d %d\n255\n" % (w, h) + frame.tobytes()


@st.composite
def frame_dirs(draw):
    n = draw(st.integers(3, 6))
    kinds = draw(st.lists(st.sampled_from(sorted(FRAME_FILES)), min_size=n - 2, max_size=n - 2))
    cuts = draw(st.lists(st.integers(0, 40), min_size=n - 2, max_size=n - 2))
    start = draw(st.integers(0, n))
    return draw(st.integers(1, 5)), draw(st.integers(1, 5)), kinds, cuts, start, draw(st.integers(start, n))


@settings(deadline=None, max_examples=200, derandomize=True)
@given(case=frame_dirs())
@example(case=(3, 2, ["comments", "missing", "canonical"], [0, 0, 0], 0, 5))
@example(case=(3, 2, ["directory", "short header"], [0, 5], 1, 3))
def test_frame_dir_chunks_match_the_file_by_file_oracle(tmp_path_factory, case):
    # the same array, or the same error (exit 3 or 4), as read_ppm file by file
    width, height, kinds, cuts, start, stop = case
    n = len(kinds) + 2
    seq = FrameSequence(frames=rand_frames(np.random.default_rng(n), n=n, h=height, w=width), fps=10.0)
    d = tmp_path_factory.mktemp("frames")
    write_frame_dir(seq, d)
    for i, (kind, cut) in enumerate(zip(kinds, cuts), start=1):
        path = d / f"frame_{i:06d}.ppm"
        if FRAME_FILES[kind] is not None:
            path.write_bytes(FRAME_FILES[kind](seq.frames[i], cut))
            continue
        path.unlink()
        if kind == "directory":
            path.mkdir()
    outcomes = []
    for read in (lambda: load_frame_dir(d).frames[start:stop], lambda: read_frame_dir_by_files(d, start, stop)):
        try:
            outcomes.append(read())
        except errors.ToolkitError as exc:
            outcomes.append(exc)
    got, want = outcomes
    if isinstance(want, Exception):
        assert (type(got), str(got)) == (type(want), str(want))
        assert got.exit_code in (errors.MissingInputError.exit_code, errors.DataFormatError.exit_code)
    else:
        assert got.dtype == want.dtype and np.array_equal(got, want)
        readable = ("canonical", "comments", "whitespace", "past the raster")
        if all(kinds[i - 1] in readable for i in range(max(start, 1), min(stop, n - 1))):
            assert np.array_equal(got, seq.frames[start:stop])


FRAME_DIR_FIELDS = {
    "fps": ["30.0", "12.5", "0", "25"],
    "width": ["8", "4"],
    "height": ["8"],
    "count": ["2", "1", "3"],
}
# near misses: the wrong JSON type, or past float64
FRAME_DIR_NEAR = {
    "fps": ["true", '"30"', "1e400", "18446744073709551617" + "0" * 300],
    "width": ["8.0", '"8"'],
    "height": ["8.0", "8.5"],
    "count": ["2.0", "1.5", "true", '"2"'],
}


@settings(deadline=None, max_examples=150, derandomize=True)
@given(text=st.one_of(json_object_text(FRAME_DIR_FIELDS, FRAME_DIR_NEAR), st.text(max_size=20)))
@example(text='{"fps": 30.0, "width": 1e400, "height": 8, "count": 2}')
@example(text='{"fps": 30.0, "width": 8, "height": 8, "count": 1.5}')
@example(text='{"fps": true, "width": 8, "height": 8, "count": 2}')
@example(text="[" * 200_000)
def test_frame_dir_manifest_parses_or_exits_3_or_4(tmp_path_factory, text):
    d = tmp_path_factory.mktemp("frames")
    write_frame_dir(flat_sequence(n=2, h=8, w=8), d)
    (d / "manifest.json").write_text(text)
    try:
        seq = load_frame_dir(d)
    except errors.ToolkitError as exc:
        # 3 when the manifest counts past the two frame files
        assert exc.exit_code in (errors.MissingInputError.exit_code, errors.DataFormatError.exit_code)
        return
    assert seq.frames[:].shape == (seq.count, 8, 8, 3) and seq.fps > 0
    # only JSON integers, and a JSON number for fps, load
    manifest = json.loads(text)
    assert all(type(manifest[k]) is int for k in ("width", "height", "count"))
    assert type(manifest["fps"]) in (int, float) and np.isfinite(seq.fps)


def test_load_frame_sequence_dispatch(tmp_path):
    seq = flat_sequence(n=2, h=4, w=4)
    d = tmp_path / "frames"
    write_frame_dir(seq, d)
    raw = tmp_path / "s.raw"
    write_raw_stream(seq, raw)
    assert np.array_equal(load_frame_sequence(d).frames[:], seq.frames)
    assert np.array_equal(load_frame_sequence(raw).frames[:], seq.frames)
    with pytest.raises(errors.MissingInputError):
        load_frame_sequence(tmp_path / "nope")


# ---------------------------------------------------------------------------
# Landmarks
# ---------------------------------------------------------------------------


def write_jsonl(path, rows):
    path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")


def record_dict(frame, bbox=(1, 1, 6, 4), eyes=([], []), mouth=[]):
    return {"frame": frame, "bbox": list(bbox), "eyes": eyes, "mouth": mouth}


def test_landmarks_round_trip(tmp_path):
    bboxes = np.array([[1, 1, 6, 4], [1, 1, 6, 4], [0, 0, 8, 6]])
    path = tmp_path / "lm.jsonl"
    write_landmarks(bboxes, path)
    back, polygons = load_landmarks(path, frame_count=3, width=8, height=6)
    assert back.dtype == np.int64
    assert np.array_equal(back, bboxes)
    assert polygons == {}


def test_landmarks_polygon_map_holds_only_frames_with_polygons(tmp_path):
    eye, mouth = [[2, 2], [3, 2], [3, 3]], [[2, 3], [4, 3], [4, 4], [2, 4]]
    path = tmp_path / "lm.jsonl"
    write_jsonl(path, [record_dict(0), record_dict(1, eyes=[eye, []], mouth=mouth), record_dict(2)])
    bboxes, polygons = load_landmarks(path, frame_count=3, width=8, height=6)
    assert bboxes.tolist() == [[1, 1, 6, 4]] * 3
    assert polygons == {1: (eye, [], mouth)}


def test_landmarks_in_any_line_order(tmp_path):
    path = tmp_path / "lm.jsonl"
    mouth = [[1, 1], [2, 1], [2, 2]]
    write_jsonl(path, [record_dict(1, bbox=(0, 0, 2, 2)), record_dict(0, mouth=mouth)])
    bboxes, polygons = load_landmarks(path, frame_count=2, width=8, height=6)
    assert bboxes.tolist() == [[1, 1, 6, 4], [0, 0, 2, 2]]
    assert polygons == {0: ([], [], mouth)}


def test_landmarks_missing_frame(tmp_path):
    path = tmp_path / "lm.jsonl"
    write_jsonl(path, [record_dict(0), record_dict(2)])
    with pytest.raises(errors.DataFormatError, match="do not cover frames"):
        load_landmarks(path, frame_count=3, width=8, height=6)
    # the record count is compared first: no range of 10**12 frames is built
    with pytest.raises(errors.DataFormatError, match=r"2 records do not cover frames 0\.\.999999999999"):
        load_landmarks(path, frame_count=10**12, width=8, height=6)


def test_landmarks_duplicate_frame(tmp_path):
    path = tmp_path / "lm.jsonl"
    write_jsonl(path, [record_dict(0), record_dict(0)])
    with pytest.raises(errors.DataFormatError, match="duplicate record for frame"):
        load_landmarks(path, frame_count=2, width=8, height=6)


def test_landmarks_bbox_out_of_frame(tmp_path):
    path = tmp_path / "lm.jsonl"
    write_jsonl(path, [record_dict(0, bbox=(4, 4, 6, 4))])
    with pytest.raises(errors.DataFormatError, match="exceeds frame bounds"):
        load_landmarks(path, frame_count=1, width=8, height=6)


@pytest.mark.parametrize("bad", ["a", None, 0.7, True])
def test_landmarks_bbox_entries_must_be_integers(tmp_path, bad):
    path = tmp_path / "lm.jsonl"
    write_jsonl(path, [record_dict(0, bbox=(bad, 1, 6, 4))])
    with pytest.raises(errors.DataFormatError):
        load_landmarks(path, frame_count=1, width=8, height=6)


@pytest.mark.parametrize("bad", ["x", None, 2.5])
def test_landmarks_vertex_coordinates_must_be_integers(tmp_path, bad):
    path = tmp_path / "lm.jsonl"
    write_jsonl(path, [record_dict(0, mouth=[[2, bad], [3, 2], [3, 3]])])
    with pytest.raises(errors.DataFormatError, match=r"is not an \[x, y\] integer pair"):
        load_landmarks(path, frame_count=1, width=8, height=6)


def test_landmarks_vertex_outside_bbox(tmp_path):
    path = tmp_path / "lm.jsonl"
    write_jsonl(path, [record_dict(0, eyes=[[[0, 0], [2, 2], [3, 2]], []])])
    with pytest.raises(errors.DataFormatError, match="outside bbox"):
        load_landmarks(path, frame_count=1, width=8, height=6)


def test_landmarks_short_polygon_is_malformed(tmp_path):
    # one or two vertices cannot bound a region; an empty list means absent
    path = tmp_path / "lm.jsonl"
    write_jsonl(path, [record_dict(0, mouth=[[2, 2], [3, 3]])])
    with pytest.raises(errors.DataFormatError, match="polygon needs >= 3 vertices"):
        load_landmarks(path, frame_count=1, width=8, height=6)


def test_landmarks_empty_polygon_means_absent(tmp_path):
    path = tmp_path / "lm.jsonl"
    write_jsonl(path, [record_dict(0)])
    bboxes, polygons = load_landmarks(path, frame_count=1, width=8, height=6)
    assert bboxes.tolist() == [[1, 1, 6, 4]]
    assert polygons == {}


def test_landmarks_bad_json(tmp_path):
    path = tmp_path / "lm.jsonl"
    path.write_text('{"frame": 0, "bbox": [0, 0, 2\n')
    with pytest.raises(errors.DataFormatError):
        load_landmarks(path, frame_count=1, width=8, height=6)


def test_read_text_reads_newlines_as_text_mode_open_does(tmp_path):
    path = tmp_path / "t.ini"
    path.write_bytes(b"[a]\r\nx = 1\ry = 2\n\r\n\xc3\xa9\r")
    assert read_text(path) == path.read_text(encoding="utf-8") == "[a]\nx = 1\ny = 2\n\n\u00e9\n"
    path.write_bytes(b"x = \xe9\r\n")
    with pytest.raises(errors.DataFormatError, match="not a text file"):
        read_text(path)


def test_landmarks_empty_file(tmp_path):
    path = tmp_path / "lm.jsonl"
    path.write_text("")
    with pytest.raises(errors.DataFormatError, match="no landmark records"):
        load_landmarks(path, frame_count=1, width=8, height=6)


def test_landmarks_missing_file(tmp_path):
    with pytest.raises(errors.MissingInputError):
        load_landmarks(tmp_path / "none.jsonl", frame_count=1, width=8, height=6)


LANDMARK_FIELDS = {
    "frame": ["0", "1"],
    "bbox": ["[0, 0, 8, 8]", "[1, 1, 6, 6]", "[2, 2, 0, 0]", "[4, 4, 8, 8]"],
    "eyes": ["[[], []]", "[[[2, 2], [4, 2], [3, 3]], []]", "[[]]"],
    "mouth": ["[]", "[[2, 5], [5, 5], [4, 6]]", "[[1, 1], [2, 2]]", "[[1, true], [2, 2], [3, 3]]"],
}


# what int() would read as frame 0 or 1
LANDMARK_NEAR = {"frame": ["true", "false", "1.0", "0.0", "1.5", '"1"', '"0"']}


@settings(deadline=None, max_examples=200, derandomize=True)
@given(
    lines=st.lists(
        st.one_of(json_object_text(LANDMARK_FIELDS, LANDMARK_NEAR), st.text(max_size=12)),
        min_size=1,
        max_size=3,
    )
)
@example(lines=['{"frame": 1e400, "bbox": [0, 0, 8, 8], "eyes": [[], []], "mouth": []}'])
@example(
    lines=[
        '{"frame": 0, "bbox": [0, 0, 8, 8], "eyes": [[], []], "mouth": []}',
        '{"frame": true, "bbox": [0, 0, 8, 8], "eyes": [[], []], "mouth": []}',
    ]
)
@example(lines=["[" * 200_000])
def test_landmarks_parse_or_exit_4(tmp_path_factory, lines):
    path = tmp_path_factory.mktemp("marks") / "lm.jsonl"
    path.write_text("\n".join(lines) + "\n")
    try:
        bboxes, _ = load_landmarks(path, frame_count=2, width=8, height=8)
    except errors.ToolkitError as exc:
        assert exc.exit_code == errors.DataFormatError.exit_code
        return
    assert bboxes.shape == (2, 4)
    assert all(type(json.loads(line)["frame"]) is int for line in lines)  # only JSON integers load


RECORD_0 = '{"frame": 0, "bbox": [0, 0, 8, 8], "eyes": [[], []], "mouth": []}'
RECORD_1 = (
    '{"frame": 1, "bbox": [1, 1, 6, 6], "eyes": [[], []], "mouth": [[2, 5], [5, 5], [4, 6]]}'
)
INT64_PAST = str(2**63)
EDGE_POLYGON_0 = RECORD_0.replace('"mouth": []', '"mouth": [[0, 0], [8, 0], [8, 8], [0, 8]]')
EYE_OUTSIDE_1 = (
    '{"frame": 1, "bbox": [3, 3, 5, 5], "eyes": [[[2, 2], [4, 2], [3, 3]], []], "mouth": []}'
)

# LANDMARK_FIELDS and integers past int64, where a column of them would overflow
ORACLE_FIELDS = {
    "frame": ["0", "1", "2", "-1", INT64_PAST],
    "bbox": [
        *LANDMARK_FIELDS["bbox"],
        f"[{INT64_PAST}, 0, 8, 8]",
        f"[0, 0, {2**63 - 1}, 8]",
        f"[-{2**63 + 1}, 0, 1, 1]",
    ],
    "eyes": [
        *LANDMARK_FIELDS["eyes"],
        "[[[2, 2], [4, 2], [3, 3]], [[5, 5], [6, 5], [6, 6]]]",
        f"[[[2, 2], [{INT64_PAST}, 2], [3, 3]], []]",
        "[[], [], []]",
        "[[], {}]",
    ],
    "mouth": [
        *LANDMARK_FIELDS["mouth"],
        "[[1, 1], [2, 2], [3]]",
        "[[2, 2], [3, 3], [4, 4, 4]]",
        "[1, 2, 3]",
        "{}",
    ],
}
ORACLE_RECORD = json_object_text(ORACLE_FIELDS, LANDMARK_NEAR)


# Lines that one parse of the joined sidecar could misread: two records on
# one line, a bare array or number, values past int64, and whitespace or a
# byte-order mark around a record.
ORACLE_LINES = st.one_of(
    ORACLE_RECORD,
    st.builds("{} {}".format, ORACLE_RECORD, ORACLE_RECORD),
    st.builds("{}, {}".format, ORACLE_RECORD, ORACLE_RECORD),
    st.builds("[{}]".format, ORACLE_RECORD),
    st.sampled_from(["7", "-1.5", "[]", "[0, 1]", '"x"', "null", INT64_PAST, "[" * 200_000]),
    st.sampled_from([" " + RECORD_0, RECORD_1 + "\t", "\ufeff" + RECORD_0]),
    st.text(max_size=12),
)


def compact(record: dict) -> str:
    return json.dumps(record, separators=(",", ":"))


def reordered(record: dict) -> str:
    return json.dumps(dict(reversed(record.items())))


def extra_key(record: dict) -> str:
    return json.dumps({**record, "source": [0, 1]})


def landmark_record(frame: int):
    """The text of a record for an 8x8 frame, mostly in json.dumps' form (the
    form decoded as columns), else compact, with its keys reversed or with an
    extra key; its polygons lie outside its bbox only when the bbox is
    [3, 3, 5, 5]."""
    return st.builds(
        lambda form, bbox, eye, mouth: form(
            {"frame": frame, "bbox": bbox, "eyes": [eye, []], "mouth": mouth}
        ),
        st.sampled_from([json.dumps, json.dumps, json.dumps, compact, reordered, extra_key]),
        st.sampled_from([[0, 0, 8, 8], [1, 1, 6, 6], [2, 2, 4, 4], [3, 3, 5, 5]]),
        st.sampled_from([[], [[2, 2], [4, 2], [3, 3]]]),
        st.sampled_from([[], [[2, 5], [5, 5], [4, 6]]]),
    )


@st.composite
def sidecar_lines(draw):
    """The two records of a 2-frame sidecar in either order, then up to three
    edits: a line replaced by or preceded with one of ORACLE_LINES, a line
    split in two, or two lines joined into one."""
    lines = draw(st.permutations([draw(landmark_record(0)), draw(landmark_record(1))]))
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        edit = draw(st.sampled_from(["replace", "insert", "split", "join"]))
        if edit == "replace":
            lines[i] = draw(ORACLE_LINES)
        elif edit == "insert":
            lines.insert(i, draw(ORACLE_LINES))
        elif edit == "split":
            cut = draw(st.integers(0, len(lines[i])))
            lines[i : i + 1] = [lines[i][:cut], lines[i][cut:]]
        elif i + 1 < len(lines):
            lines[i : i + 2] = [lines[i] + draw(st.sampled_from(["", " ", ", "])) + lines[i + 1]]
    return lines


LF, CRLF = {"newline": "\n", "final": True}, {"newline": "\r\n", "final": True}


@settings(deadline=None, max_examples=300, derandomize=True)
@given(
    lines=sidecar_lines(),
    block=st.sampled_from([1, 100, ingest.LANDMARK_BLOCK]),
    newline=st.sampled_from(["\n", "\r\n"]),
    final=st.booleans(),
)
# splits and merges that keep the count: one joined parse reads two good records
@example(lines=[RECORD_0[:-1] + ', "x": [1', '2]}, ' + RECORD_1], block=ingest.LANDMARK_BLOCK, **LF)
@example(lines=[RECORD_0 + " " + RECORD_1], block=ingest.LANDMARK_BLOCK, **LF)
@example(lines=[RECORD_1, RECORD_0.replace("[0, 0, 8, 8]", f"[0, 0, {INT64_PAST}, 8]")], block=1, **LF)
@example(lines=[RECORD_0, RECORD_1.replace('"frame": 1', f'"frame": {INT64_PAST}')], block=1, **LF)
@example(lines=[RECORD_0.replace('"frame": 0', '"frame": false'), RECORD_1], block=100, **LF)
@example(lines=[RECORD_0, RECORD_0, RECORD_1.replace("6]]", "9]]")], block=100, **LF)
@example(lines=[RECORD_1, "[" * 200_000], block=1, **LF)
@example(lines=[RECORD_1, " " + RECORD_0 + "\t"], block=1, **LF)
# each vertex is checked against its own record's bbox: frame 1's eye lies
# inside frame 0's bbox, not its own; frame 0's mouth lies on its bbox's edges
@example(lines=[EDGE_POLYGON_0, RECORD_1], block=100, **LF)
@example(lines=[EDGE_POLYGON_0, EYE_OUTSIDE_1], block=100, **LF)
@example(lines=[EYE_OUTSIDE_1, EDGE_POLYGON_0], block=100, **LF)
@example(lines=[RECORD_0, EYE_OUTSIDE_1], block=100, **LF)
# a vertex of three coordinates and one of one
@example(lines=[RECORD_0, RECORD_1.replace("[5, 5], [4, 6]", "[5, 5, 5], [4]")], block=100, **LF)
# CRLF, a last line with no newline, and the forms that are read line by line
@example(lines=[RECORD_1, EDGE_POLYGON_0], block=1, **CRLF)
@example(lines=[EDGE_POLYGON_0, RECORD_1], block=ingest.LANDMARK_BLOCK, newline="\n", final=False)
@example(lines=[RECORD_0, RECORD_1], block=1, newline="\r\n", final=False)
@example(lines=[RECORD_0, compact(json.loads(RECORD_1))], block=100, **LF)
@example(lines=[reordered(json.loads(RECORD_0)), RECORD_1], block=100, **CRLF)
@example(lines=[RECORD_0, extra_key(json.loads(RECORD_1))], block=100, **LF)
# text before a record, and integers that _RECORD does not take
@example(lines=[RECORD_1, RECORD_1 + " " + RECORD_0], block=100, **LF)
@example(lines=[RECORD_0, RECORD_1.replace("[1, 1, 6, 6]", "[01, 1, 6, 6]")], block=100, **LF)
@example(lines=[RECORD_0.replace("[0, 0, 8, 8]", "[-1, 0, 8, 8]"), RECORD_1], block=100, **LF)
@example(lines=[RECORD_0.replace('"frame": 0', '"frame": -0'), RECORD_1], block=100, **LF)
@example(lines=[RECORD_0, RECORD_1.replace('"frame": 1', f'"frame": {10**18}')], block=100, **LF)
def test_landmarks_match_the_line_by_line_oracle(tmp_path_factory, lines, block, newline, final):
    # blocks of 1 and 100 bytes decode one sidecar a line or two at a time
    path = tmp_path_factory.mktemp("marks") / "lm.jsonl"
    path.write_bytes((newline.join(lines) + (newline if final else "")).encode("utf-8"))
    with mock.patch.object(ingest, "LANDMARK_BLOCK", block):
        try:
            want_bboxes, want_polygons = load_landmarks_by_line(path, 2, 8, 8)
        except errors.DataFormatError as exc:
            with pytest.raises(errors.DataFormatError) as got:
                load_landmarks(path, frame_count=2, width=8, height=8)
            assert str(got.value) == str(exc)
            return
        bboxes, polygons = load_landmarks(path, frame_count=2, width=8, height=8)
    assert bboxes.dtype == want_bboxes.dtype
    assert np.array_equal(bboxes, want_bboxes)
    assert polygons == want_polygons


@pytest.mark.parametrize("polygons", [False, True])
def test_landmarks_in_dumps_form_are_decoded_as_columns(tmp_path, polygons):
    # write_landmarks' sidecar, and one with an eye and a mouth in every
    # record, load without the line-by-line path; a compact copy of either
    # loads through it to the same columns
    n = 700  # several blocks
    rng = np.random.default_rng(0)
    boxes = np.column_stack([rng.integers(0, 4, (n, 2)), rng.integers(10, 20, (n, 2))])
    path = tmp_path / "lm.jsonl"
    write_landmarks(boxes, path)
    records = [json.loads(line) for line in path.read_text().splitlines()]
    if polygons:
        for r in records:
            x, y, w, h = r["bbox"]
            r["eyes"] = [[[x, y], [x + w, y], [x + w // 2, y + h // 2]], []]
            r["mouth"] = [[x + 1, y + h], [x + w, y + h], [x + w, y + 1], [x + 2, y + 2]]
        path.write_text("".join(json.dumps(r) + "\n" for r in records))
    with mock.patch.object(ingest, "_line_by_line_columns", side_effect=AssertionError):
        bboxes, shapes = load_landmarks(path, frame_count=n, width=24, height=24)
    assert bboxes.dtype == np.int64 and bboxes.flags.c_contiguous
    assert np.array_equal(bboxes, boxes)
    assert shapes == {r["frame"]: (*r["eyes"], r["mouth"]) for r in records if polygons}
    lines = path.read_text().splitlines()
    path.write_text("".join(compact(json.loads(line)) + "\n" for line in lines))
    with mock.patch.object(
        ingest, "_line_by_line_columns", wraps=ingest._line_by_line_columns
    ) as by_line:
        again = load_landmarks(path, frame_count=n, width=24, height=24)
    assert by_line.call_count == 1
    assert np.array_equal(again[0], bboxes) and again[1] == shapes


# ---------------------------------------------------------------------------
# Bbox smoothing
# ---------------------------------------------------------------------------


def test_smooth_bboxes_fixed_point():
    bboxes = np.tile([2, 3, 5, 4], (5, 1))
    out = smooth_bboxes(bboxes, alpha=0.9)
    assert out.dtype == np.int64
    assert np.array_equal(out, bboxes)


def test_smooth_bboxes_matches_scalar_recursion():
    rng = np.random.default_rng(7)
    boxes = rng.integers(0, 20, size=(40, 4))
    out = smooth_bboxes(boxes, alpha=0.6)
    state = boxes[0].astype(float)
    for got, b in zip(out, boxes):
        state = 0.6 * state + 0.4 * b
        assert tuple(got) == tuple(int(round(v)) for v in state)


# ---------------------------------------------------------------------------
# Time-series CSV and ground truth
# ---------------------------------------------------------------------------


def test_timeseries_round_trip(tmp_path):
    t = np.array([0.0, 0.5, 1.25])
    v = np.array([71.5, 72.0, 73.25])
    path = tmp_path / "hr.csv"
    write_timeseries_csv(t, v, path)
    assert path.read_text().splitlines()[0] == "time_s,value"
    t2, v2 = read_timeseries_csv(path)
    assert np.array_equal(t, t2)
    assert np.array_equal(v, v2)


def test_timeseries_rejects_bad_files(tmp_path):
    p = tmp_path / "a.csv"
    p.write_text("time,value\n0,1\n")
    with pytest.raises(errors.DataFormatError):
        read_timeseries_csv(p)
    p.write_text("time_s,value\n")
    with pytest.raises(errors.DataFormatError, match="no data rows"):
        read_timeseries_csv(p)
    p.write_text("time_s,value\n0,1\n0,2\n")
    with pytest.raises(errors.DataFormatError, match="time_s must be strictly increasing"):
        read_timeseries_csv(p)
    p.write_text("time_s,value\n0,1,2\n")
    with pytest.raises(errors.DataFormatError):
        read_timeseries_csv(p)
    p.write_text("time_s,value\n0,x\n")
    with pytest.raises(errors.DataFormatError):
        read_timeseries_csv(p)
    for rows in ("0,nan\n", "0,1\ninf,2\n", "-inf,1\n0,2\n"):
        p.write_text("time_s,value\n" + rows)
        with pytest.raises(errors.DataFormatError, match="not finite"):
            read_timeseries_csv(p)
    p.write_bytes(b"time_s,value\n0,\xff\n")
    with pytest.raises(errors.DataFormatError, match="not a text file"):
        read_timeseries_csv(p)


CSV_CELLS = st.sampled_from(["0", "1", "2.5", "72", "-1", "nan", "inf", "1e400", "", "x", " 3 "])


@st.composite
def timeseries_texts(draw):
    header = draw(st.sampled_from(["time_s,value", "time_s, value", "time,value", ""]))
    rows = draw(st.lists(st.lists(CSV_CELLS, min_size=1, max_size=3).map(",".join), max_size=4))
    return "\n".join([header, *rows]) + "\n"


@settings(deadline=None, max_examples=200, derandomize=True)
@given(text=st.one_of(timeseries_texts(), st.text(max_size=30)))
def test_timeseries_csv_parses_or_exits_4(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("csv") / "hr.csv"
    path.write_text(text)
    try:
        gt = load_ground_truth(path)
    except errors.ToolkitError as exc:
        assert exc.exit_code == errors.DataFormatError.exit_code
        return
    assert np.all(np.diff(gt.hr_time_s) > 0)
    assert np.all((gt.hr_bpm >= 30.0) & (gt.hr_bpm <= 240.0))


def test_ground_truth_loading(tmp_path):
    hr = tmp_path / "hr.csv"
    write_timeseries_csv(np.array([0.0, 1.0, 2.0]), np.array([70.0, 72.0, 74.0]), hr)
    gt = load_ground_truth(hr_path=hr)
    assert gt.hr_time_s.tolist() == [0.0, 1.0, 2.0]
    assert gt.mean_hr_bpm == pytest.approx(72.0)


def test_ground_truth_rejects_out_of_range_bpm(tmp_path):
    hr = tmp_path / "hr.csv"
    write_timeseries_csv(np.array([0.0, 1.0]), np.array([70.0, 260.0]), hr)
    with pytest.raises(errors.DataFormatError):
        load_ground_truth(hr_path=hr)

