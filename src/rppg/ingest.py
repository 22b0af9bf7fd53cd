"""Video, landmark, and ground-truth ingestion.

Two frame-storage layouts are supported, chosen so that no video codec is
ever needed:

* frame directory: ``manifest.json`` with keys fps/width/height/count plus
  binary PPM files named ``frame_000000.ppm``, ``frame_000001.ppm``, ...
* raw stream: a single file with a 24-byte header (magic ``RPPGRAW1``, then
  little-endian u32 width, height, frame count, fps in millihertz) followed
  by count*width*height*3 interleaved RGB bytes.

Loading checks a recording's header and size (for a frame directory: its
manifest, and that its first and last frames exist at the stated size) but
reads no pixels: FrameSequence.frames is then a FrameReader, which reads
frames[a:b] from disk when asked, so a pass over the recording in chunks
holds one chunk at a time. A frame-directory chunk opens its directory
once and each file by its name in it (POSIX only): one os.readv a file
lands its header in the chunk's header buffer and its raster straight in
the chunk, and the headers and sizes are checked once a chunk. A file not
in write_ppm's header form is read again by read_ppm, the one PPM parser.
A frame-directory frame that is missing or mis-sized in mid-sequence is
found when its chunk is read. Frames rendered in memory stay a plain
ndarray; both answer frames[a:b] with a (b - a, h, w, 3) uint8 array.

Landmarks ride in a JSON-lines sidecar, one record per frame:
``{"frame": i, "bbox": [x, y, w, h], "eyes": [[[x, y], ...], [...]],
"mouth": [[x, y], ...]}``. Polygon vertex lists may be empty (no occluder),
but one or two vertices is malformed. load_landmarks returns its columns: an
(n, 4) int64 bbox array in frame order, and a polygon map from each frame
that has any polygon to its (eye, eye, mouth) vertex lists. A sidecar whose
every line is a record as json.dumps writes it (write_landmarks' form) is
decoded a block of lines at a time: the block less its digits must be the
records' skeleton, its integers are read by byte arithmetic, one to each
slot of the skeleton, and they are checked as integer columns. Any other
sidecar, or one that fails a check, is read line by line by json.loads,
which gives the same columns or names the first fault.

Ground truth is a two-column CSV with header ``time_s,value`` per signal
(contact-PPG waveform or heart-rate numerics). read_two_column_csv, which
reads it, also reads the ``wavelength_nm,value`` spectra of biophysics.
"""

from __future__ import annotations

import json
import math
import os
import re
import struct
import sys
from collections.abc import Callable
from dataclasses import dataclass
from itertools import chain
from pathlib import Path

import numpy as np

from .diffuse import frame_chunks
from .errors import DataFormatError, MissingInputError, reading, unreadable, writing

RAW_MAGIC = b"RPPGRAW1"
RAW_HEADER = struct.Struct("<8s4I")

HR_BPM_MIN = 30.0
HR_BPM_MAX = 240.0

LANDMARK_BLOCK = 1 << 14  # sidecar bytes decoded at a time, rounded up to a whole line
_FIELDS = ("frame", "bbox", "eyes", "mouth")


@dataclass(frozen=True)
class FrameReader:
    """Frames on disk, read on demand: frames[a:b] is read(a, b), a
    (b - a, h, w, 3) uint8 array. Only step-1 slices are answered."""

    shape: tuple[int, int, int, int]
    read: Callable[[int, int], np.ndarray]
    ndim = 4
    dtype = np.dtype(np.uint8)

    def __len__(self) -> int:
        return self.shape[0]

    def __getitem__(self, key: slice) -> np.ndarray:
        if not isinstance(key, slice) or key.step not in (None, 1):
            raise TypeError(f"frames on disk are read by [a:b] slices, not {key!r}")
        start, stop, _ = key.indices(self.shape[0])
        return self.read(start, max(start, stop))


@dataclass(frozen=True)
class FrameSequence:
    """8-bit RGB frames with a constant frame rate. frames is an (n, h, w, 3)
    uint8 ndarray or a FrameReader; frames[a:b] is an ndarray either way."""

    frames: np.ndarray | FrameReader
    fps: float

    def __post_init__(self):
        f = self.frames if isinstance(self.frames, FrameReader) else np.asarray(self.frames)
        if f.ndim != 4 or f.shape[3] != 3:
            raise DataFormatError(f"frames must be (n, h, w, 3), got {f.shape}")
        if f.dtype != np.uint8:
            raise DataFormatError(f"frames must be uint8, got {f.dtype}")
        if f.shape[0] < 1 or f.shape[1] < 1 or f.shape[2] < 1:
            raise DataFormatError("frame sequence must be non-empty")
        if not self.fps > 0:
            raise DataFormatError(f"fps must be positive, got {self.fps}")
        object.__setattr__(self, "frames", f)

    @property
    def count(self) -> int:
        return self.frames.shape[0]

    @property
    def height(self) -> int:
        return self.frames.shape[1]

    @property
    def width(self) -> int:
        return self.frames.shape[2]

    @property
    def duration_s(self) -> float:
        return self.count / self.fps


@dataclass(frozen=True)
class GroundTruth:
    """Reference signals: contact-PPG samples and/or heart-rate numerics."""

    ppg_time_s: np.ndarray | None = None
    ppg_value: np.ndarray | None = None
    hr_time_s: np.ndarray | None = None
    hr_bpm: np.ndarray | None = None

    @property
    def mean_hr_bpm(self) -> float:
        return float(np.mean(self.hr_bpm))


def read_text(path: Path) -> str:
    """A UTF-8 text file's contents, newlines read as text-mode open() reads
    them; other bytes raise DataFormatError, and a path that cannot be
    opened as a file (missing, a directory, a name too long, no permission)
    MissingInputError."""
    with reading(path):
        data = Path(path).read_bytes()
    return _utf8(path, data).replace("\r\n", "\n").replace("\r", "\n")


def _utf8(path: Path, data: bytes) -> str:
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"{path}: not a text file: {exc}") from exc


# ---------------------------------------------------------------------------
# PPM frames
# ---------------------------------------------------------------------------


# header = magic, width, height, maxval as whitespace-separated tokens, with
# '#' comments allowed between them; (?!\S) ends each token at whitespace, so
# that backtracking cannot split one token in two
_PPM_HEADER = re.compile(rb"P6" + rb"(?:\s|#[^\n]*(?:\n|\Z))*(\S+)(?!\S)" * 3)


def read_ppm(path: str | Path) -> np.ndarray:
    """A binary PPM (P6, maxval 255) as an (h, w, 3) uint8 array over the
    file's bytes; header tokens are ASCII decimal digits, and bytes past the
    raster are ignored. The file is read by one os.open, fstat and read (a
    short read is continued); an OSError on any of them is
    errors.unreadable, as under errors.reading. A directory opens, and
    fails at the read."""
    try:
        fd = os.open(path, os.O_RDONLY)
        try:
            size = os.fstat(fd).st_size
            data = os.read(fd, size + 1)  # at least one byte, so a directory fails
            while len(data) < size and (more := os.read(fd, size - len(data))):
                data += more
        finally:
            os.close(fd)
    except OSError as exc:
        raise unreadable(path, exc) from exc
    if not data.startswith(b"P6"):
        raise DataFormatError(f"{path}: not a binary PPM (P6) file")
    header = _PPM_HEADER.match(data)
    if header is None:
        raise DataFormatError(f"{path}: truncated PPM header")
    tokens = list(header.groups())
    pos = header.end() + 1  # single whitespace after maxval
    try:
        if not all(map(bytes.isdigit, tokens)):  # ASCII 0-9 only, not "+", "_" or "-"
            raise ValueError("not decimal digits")
        width, height, maxval = map(int, tokens)
    except ValueError as exc:
        raise DataFormatError(f"{path}: bad PPM header tokens {tokens}") from exc
    if width < 1 or height < 1:
        raise DataFormatError(f"{path}: PPM size {width}x{height} is not positive")
    if maxval != 255:
        raise DataFormatError(f"{path}: only 8-bit PPM supported (maxval {maxval})")
    need = width * height * 3
    if len(data) - pos < need:
        raise DataFormatError(f"{path}: PPM payload truncated")
    return np.frombuffer(data, np.uint8, need, pos).reshape(height, width, 3)


def _ppm_header(width: int, height: int) -> bytes:
    """The header that write_ppm writes, which load_frame_dir reads by readv."""
    return f"P6\n{width} {height}\n255\n".encode("ascii")


def write_ppm(frame: np.ndarray, path: Path) -> None:
    frame = np.ascontiguousarray(frame, dtype=np.uint8)
    h, w = frame.shape[:2]
    with writing(path), open(path, "wb") as fh:
        fh.write(_ppm_header(w, h))
        fh.write(frame.tobytes())


def _frame_name(i: int) -> str:
    return f"frame_{i:06d}.ppm"


FRAME_NAME = re.compile(r"frame_(\d{6,})\.ppm")
MANIFEST = "manifest.json"


def _readv_dir(directory: str, names: list[str], heads: memoryview, raster: memoryview):
    """The bytes that one os.readv of each named file in directory, opened
    once, lands in its slice of heads and then of raster (each split into
    len(names) equal slices); 0 where a file or the directory cannot be
    opened or read."""
    n = len(names)
    hl, step = len(heads) // n, len(raster) // n
    got = [0] * n
    try:
        dir_fd = os.open(directory, os.O_RDONLY | os.O_DIRECTORY)
    except OSError:
        return got
    try:
        for j, name in enumerate(names):
            try:
                fd = os.open(name, os.O_RDONLY, dir_fd=dir_fd)
                try:
                    buffers = heads[j * hl : (j + 1) * hl], raster[j * step : (j + 1) * step]
                    got[j] = os.readv(fd, buffers)
                finally:
                    os.close(fd)
            except OSError:
                pass
    finally:
        os.close(dir_fd)
    return got


def load_frame_dir(directory: Path) -> FrameSequence:
    directory = Path(directory)
    manifest_path = directory / MANIFEST
    if not manifest_path.exists():
        raise MissingInputError(f"{directory}: {MANIFEST} not found")
    try:
        manifest = json.loads(read_text(manifest_path))
        fps, width, height, count = (manifest[k] for k in ("fps", "width", "height", "count"))
    except (KeyError, TypeError, ValueError, RecursionError) as exc:
        raise DataFormatError(f"{manifest_path}: bad manifest: {exc}") from exc
    if not _all((width, height, count), int):
        raise DataFormatError(f"{manifest_path}: width, height and count must be integers")
    if not _is_json_number(fps):
        raise DataFormatError(f"{manifest_path}: fps must be a finite number, got {fps!r}")
    fps = float(fps)
    if fps <= 0:
        raise DataFormatError(f"{manifest_path}: fps must be positive, got {fps}")
    if count < 1:
        raise DataFormatError(f"{manifest_path}: count must be >= 1")
    if width < 1 or height < 1:
        raise DataFormatError(f"{manifest_path}: width and height must be >= 1")

    # frame paths as strings, spelled as directory / name would spell them
    base = os.fspath(directory)
    prefix = "" if base == "." else os.path.join(base, "")

    def read_frame(i: int) -> np.ndarray:
        fp = prefix + _frame_name(i)
        frame = read_ppm(fp)
        if frame.shape != (height, width, 3):
            raise DataFormatError(
                f"{fp}: frame is {frame.shape[1]}x{frame.shape[0]}, "
                f"manifest says {width}x{height}"
            )
        return frame

    # A file that write_ppm wrote is its header and raster: one readv lands
    # the header in the chunk's header buffer and the raster in the chunk,
    # and the headers and sizes are checked once a chunk. Any other file
    # (another header form, a short one, one that cannot be read) is read
    # again by read_frame, which parses it or raises its error.
    header = _ppm_header(width, height)
    step = height * width * 3  # a frame's raster bytes
    size = len(header) + step

    def read(start: int, stop: int) -> np.ndarray:
        n = stop - start
        frames = np.empty((n, height, width, 3), dtype=np.uint8)
        if n == 0:
            return frames  # a view with no bytes cannot be cast to one of bytes
        raster = memoryview(frames).cast("B")
        heads = bytearray(n * len(header))
        names = [_frame_name(i) for i in range(start, stop)]
        got = _readv_dir(base, names, memoryview(heads), raster)
        if got.count(size) < n or heads != header * n:
            for j in range(n):
                if got[j] != size or heads[j * len(header) : (j + 1) * len(header)] != header:
                    frames[j] = read_frame(start + j)
        return frames

    # The files must back the manifest: its first and last frames exist at
    # that size. The others are read with their chunk.
    for i in (0, count - 1):
        read_frame(i)
    return FrameSequence(frames=FrameReader((count, height, width, 3), read), fps=fps)


class FrameDirWriter:
    """Writes a frame directory chunk by chunk (write), then its manifest
    (finish). A stale manifest is removed first, so a directory whose writer
    did not finish does not load, and finish removes the frame files that a
    longer recording left past the new count, so the directory holds one
    recording. A directory, frame or manifest that cannot be written is a
    UsageError."""

    def __init__(self, directory: Path, fps: float, width: int, height: int):
        self.directory = Path(directory)
        with writing(directory):
            self.directory.mkdir(parents=True, exist_ok=True)
            (self.directory / MANIFEST).unlink(missing_ok=True)
        self.manifest = {"fps": fps, "width": width, "height": height, "count": 0}

    def write(self, frames: np.ndarray) -> None:
        for frame in frames:
            write_ppm(frame, self.directory / _frame_name(self.manifest["count"]))
            self.manifest["count"] += 1

    def finish(self) -> None:
        count = self.manifest["count"]
        with writing(self.directory), os.scandir(self.directory) as entries:
            for entry in entries:  # stale frame files, named as _frame_name names them
                match = FRAME_NAME.fullmatch(entry.name)
                i = int(match[1]) if match else -1
                if i >= count and entry.name == _frame_name(i) and not entry.is_dir():
                    os.unlink(entry.path)
        path = self.directory / MANIFEST
        with writing(path):
            path.write_text(json.dumps(self.manifest, sort_keys=True))


def write_frame_dir(seq: FrameSequence, directory: Path) -> None:
    writer = FrameDirWriter(directory, seq.fps, seq.width, seq.height)
    for sl in frame_chunks(seq.count, seq.height, seq.width):
        writer.write(seq.frames[sl])
    writer.finish()


# ---------------------------------------------------------------------------
# Raw stream
# ---------------------------------------------------------------------------


def load_raw_stream(path: Path) -> FrameSequence:
    """A raw stream whose header and payload size agree; frames are read by
    chunk with np.fromfile (not a memory map: mapped pages that a pass
    touches would stay resident and count toward its peak)."""
    with reading(path), open(path, "rb") as fh:
        header = fh.read(RAW_HEADER.size)
        if len(header) < RAW_HEADER.size:
            raise DataFormatError(f"{path}: shorter than the 24-byte header")
        magic, width, height, count, fps_millihz = RAW_HEADER.unpack(header)
        if magic != RAW_MAGIC:
            raise DataFormatError(f"{path}: bad magic {magic!r}")
        if fps_millihz == 0:
            raise DataFormatError(f"{path}: fps_millihz must be positive")
        need = width * height * 3 * count
        size = os.fstat(fh.fileno()).st_size - RAW_HEADER.size
        if size != need:
            raise DataFormatError(
                f"{path}: payload is {size} bytes, header implies {need}"
            )
    frame_bytes = width * height * 3

    def read(start: int, stop: int) -> np.ndarray:
        want = (stop - start) * frame_bytes
        offset = RAW_HEADER.size + start * frame_bytes
        with reading(path):
            frames = np.fromfile(path, dtype=np.uint8, count=want, offset=offset)
        if frames.size != want:
            raise DataFormatError(f"{path}: payload ends before frame {stop}")
        return frames.reshape(stop - start, height, width, 3)

    shape = (count, height, width, 3)
    return FrameSequence(frames=FrameReader(shape, read), fps=fps_millihz / 1000.0)


def write_raw_stream(seq: FrameSequence, path: Path) -> None:
    header = RAW_HEADER.pack(
        RAW_MAGIC, seq.width, seq.height, seq.count, round(seq.fps * 1000)
    )
    with writing(path), open(path, "wb") as fh:
        fh.write(header)
        for sl in frame_chunks(seq.count, seq.height, seq.width):
            fh.write(np.ascontiguousarray(seq.frames[sl]).tobytes())


def load_frame_sequence(path: Path) -> FrameSequence:
    """Load either storage layout: a directory of PPMs or a raw stream file."""
    path = Path(path)
    if os.path.isdir(path):
        return load_frame_dir(path)
    if os.path.isfile(path):
        return load_raw_stream(path)
    raise MissingInputError(f"{path}: no such file or directory")


# ---------------------------------------------------------------------------
# Landmark sidecar
# ---------------------------------------------------------------------------


def _all(values, kind: type) -> bool:
    """Whether every value is exactly a kind (a bool is no JSON integer)."""
    return set(map(type, values)) <= {kind}


def _is_json_number(v) -> bool:
    """True for a JSON number that is a finite float64 (json reads 1e400 as inf)."""
    if type(v) is int:
        return abs(v) <= sys.float_info.max
    return type(v) is float and math.isfinite(v)


def _require(ok: bool) -> None:
    if not ok:
        raise ValueError("a record fails its checks")


def _check_record(record, width: int, height: int, where: str):
    """A record's frame, or DataFormatError naming its first fault."""
    try:
        frame, bbox, eyes, mouth = (record[k] for k in _FIELDS)
    except (KeyError, TypeError) as exc:
        raise DataFormatError(f"{where}: missing field: {exc}") from exc
    if type(frame) is not int:
        raise DataFormatError(f"{where}: frame must be an integer, got {frame!r}")
    if not (isinstance(bbox, list) and len(bbox) == 4 and _all(bbox, int)):
        raise DataFormatError(f"{where}: bbox must be [x, y, w, h] integers, got {bbox!r}")
    x, y, w, h = bbox
    if w < 0 or h < 0:
        raise DataFormatError(f"{where}: bbox has negative extent {bbox}")
    if x < 0 or y < 0 or x + w > width or y + h > height:
        raise DataFormatError(f"{where}: bbox {bbox} exceeds frame bounds {width}x{height}")
    if not (isinstance(eyes, list) and len(eyes) == 2):
        raise DataFormatError(f"{where}: eyes must hold exactly two polygons")
    polygons = (*eyes, mouth)
    for poly in polygons:
        if not isinstance(poly, list):
            raise DataFormatError(f"{where}: polygon must be a list of [x, y] pairs")
        if 0 < len(poly) < 3:
            raise DataFormatError(f"{where}: polygon needs >= 3 vertices, got {len(poly)}")
        for v in poly:
            if not (isinstance(v, list) and len(v) == 2 and _all(v, int)):
                raise DataFormatError(f"{where}: vertex {v!r} is not an [x, y] integer pair")
    for vx, vy in chain.from_iterable(polygons):
        if not (x <= vx <= x + w and y <= vy <= y + h):
            raise DataFormatError(f"{where}: vertex ({vx}, {vy}) outside bbox {tuple(bbox)}")
    return frame


# A record as json.dumps writes it, less its digits (its skeleton): keys in
# order, ", " and ": " separators, each polygon a list of [x, y] pairs. A
# polygon's skeleton is 6 bytes a vertex ("[[, ], [, ]]"), or "[]". ^ and $
# (before a \n or at the end) make each match one whole line, less a \r
# before its \n.
_TEMPLATE = b'{"frame": , "bbox": [, , , ], "eyes": [[], []], "mouth": []}\n'
_POLYGON = rb"(\[(?:\[, \](?:, \[, \])*)?\])"
_SKELETON = re.compile(
    rb'^\{"frame": , "bbox": \[, , , \], "eyes": \[P, P\], "mouth": P\}\r?$'
    .replace(b"P", _POLYGON),
    re.MULTILINE,
)
_DIGITS = b"0123456789"
_POW10 = 10 ** np.arange(18, dtype=np.int64)


def _slots(skeleton: bytes) -> np.ndarray:
    """The offsets in a skeleton of the records above at which their
    integers go: the " " or "[" before each "," and the " " before each "]"."""
    s = np.frombuffer(skeleton, np.uint8)
    before, after = s[:-1], s[1:]
    comma, space = after == ord(","), before == ord(" ")
    slot = (comma & (space | (before == ord("[")))) | (space & (after == ord("]")))
    return np.flatnonzero(slot) + 1


_TEMPLATE_SLOTS = _slots(_TEMPLATE)


def _integers(text: bytes) -> tuple[np.ndarray, np.ndarray]:
    """The int64 value of each run of ASCII digits in text, and the offset
    of each in text's skeleton (text less its digits). A run must spell an
    integer as JSON does, below 10**18 so that no column overflows int64,
    else ValueError."""
    digits = np.frombuffer(text, np.uint8) - 48  # wraps: below 10 for "0"-"9" only
    at = np.flatnonzero(digits < 10)
    digits = digits[at]
    edge = np.empty(at.size + 1, bool)  # where a run starts, and the end
    edge[0] = edge[-1] = True
    np.not_equal(at[1:], at[:-1] + 1, out=edge[1:-1])
    edge = np.flatnonzero(edge)
    first, length = edge[:-1], np.diff(edge)
    _require(length.max(initial=0) <= 18 and ((digits[first] != 0) | (length == 1)).all())
    place = np.repeat(edge[1:], length) - np.arange(1, at.size + 1)  # from the run's end
    return np.add.reduceat(_POW10[place] * digits, first), at[first] - first


def _dumps_form_columns(data: bytes, frame_count: int, width: int, height: int):
    """The (frame_count, 4) bboxes in frame order and the polygon map of a
    sidecar whose every line is a record in json.dumps' form, decoded a
    block of lines at a time: the block's skeleton is checked line by line,
    each of its integers must fill one slot of it, and they are checked as
    columns. Raises ValueError where a line is in another form or a check
    fails."""
    _require(data.count(b"\n") + (not data.endswith(b"\n")) == frame_count)
    cols = np.empty((frame_count, 5), np.int64)  # frame, x, y, w, h
    polygons = {}
    pos = row = 0
    while pos < len(data):
        end = data.find(b"\n", pos + LANDMARK_BLOCK - 1) + 1 or len(data)
        text = data[pos:end]
        skeleton = text.translate(None, _DIGITS)
        n = len(skeleton) // len(_TEMPLATE)
        if skeleton == _TEMPLATE * n:  # n polygon-free lines, each ending in \n
            slots = (np.arange(n)[:, None] * len(_TEMPLATE) + _TEMPLATE_SLOTS).ravel()
            vertices = np.zeros((n, 3), np.intp)
        else:
            n = text.count(b"\n") + (not text.endswith(b"\n"))
            shapes = _SKELETON.findall(skeleton)
            _require(len(shapes) == n)
            slots = _slots(skeleton)
            vertices = np.fromiter(map(len, chain.from_iterable(shapes)), np.intp, 3 * n)
            vertices = vertices.reshape(n, 3) // 6
            _require(((vertices == 0) | (vertices >= 3)).all())
        ints, offsets = _integers(text)
        _require(np.array_equal(offsets, slots))
        if not vertices.any():
            block = ints.reshape(n, 5)
        else:
            # each line's frame and bbox, then its vertices' x and y in turn
            per_line = vertices.sum(1)
            runs = 5 + 2 * per_line
            head = (np.cumsum(runs) - runs)[:, None] + np.arange(5)
            block = ints[head]
            vertex = np.ones(ints.size, bool)
            vertex[head] = False
            xy = ints[vertex].reshape(-1, 2)
            box = np.repeat(block[:, 1:], per_line, axis=0)
            _require(((box[:, :2] <= xy) & (xy <= box[:, :2] + box[:, 2:])).all())
            # a line's polygons are xy[a:b], xy[b:c] and xy[c:d]
            ends = np.cumsum(vertices).reshape(n, 3)
            bounds = np.column_stack([ends[:, 2] - per_line, ends])
            have = vertices.any(1)
            xy = xy.tolist()
            for frame, (a, b, c, d) in zip(block[have, 0].tolist(), bounds[have].tolist()):
                polygons[frame] = (xy[a:b], xy[b:c], xy[c:d])
        _require((block[:, 3:] <= (width, height) - block[:, 1:3]).all())
        cols[row : row + n] = block
        pos, row = end, row + n
    _require(row == frame_count)  # an empty file counts one line, and has no block
    order = np.argsort(cols[:, 0])
    _require((cols[order, 0] == np.arange(frame_count)).all())
    return cols[order, 1:], polygons


def _line_by_line_columns(path: Path, text: str, frame_count: int, width: int, height: int):
    """The (frame_count, 4) bboxes in frame order and the polygon map of the
    records on text's non-blank lines, each read by json.loads and checked by
    _check_record; DataFormatError names the first faulty line, or the
    frames not covered."""
    # no more records than characters: a frame count past that is not covered
    bboxes = np.empty((min(frame_count, len(text)), 4), np.int64)
    seen, others = bytearray(len(bboxes)), set()  # frames past bboxes, if any
    polygons = {}
    lineno = pos = 0
    while pos < len(text):
        # a block of whole lines: a cut after a \n splits lines as
        # str.splitlines splits the whole text
        end = text.find("\n", pos + LANDMARK_BLOCK - 1) + 1 or len(text)
        frames, boxes = [], []
        for line in text[pos:end].splitlines():
            if not line.strip():
                continue
            lineno += 1
            where = f"{path}:{lineno}"
            try:
                record = json.loads(line)
            except (json.JSONDecodeError, RecursionError) as exc:
                raise DataFormatError(f"{where}: bad JSON: {exc}") from exc
            frame = _check_record(record, width, height, where)
            inside = 0 <= frame < len(seen)
            if seen[frame] if inside else frame in others:
                raise DataFormatError(f"{where}: duplicate record for frame {frame}")
            if inside:
                seen[frame] = 1
                frames.append(frame)
                boxes.append(record["bbox"])
            else:
                others.add(frame)
            if record["eyes"] != [[], []] or record["mouth"] != []:
                polygons[frame] = (*record["eyes"], record["mouth"])
        if frames:
            bboxes[frames] = boxes
        pos = end
    if not lineno:
        raise DataFormatError(f"{path}: no landmark records")
    if others or seen.count(0) or len(seen) < frame_count:
        records = len(seen) - seen.count(0) + len(others)
        raise DataFormatError(
            f"{path}: {records} records do not cover frames 0..{frame_count - 1}"
        )
    return bboxes, polygons


def load_landmarks(
    path: Path, frame_count: int, width: int, height: int
) -> tuple[np.ndarray, dict]:
    """Load and validate a JSONL sidecar against the owning frame sequence:
    its (frame_count, 4) int64 bboxes in frame order, and its polygon map.
    The file is read once; a sidecar in json.dumps' form throughout is
    decoded as columns, and any other, or one that fails a check, line by
    line, which names the first fault."""
    path = Path(path)
    with reading(path):
        data = path.read_bytes()
    try:
        return _dumps_form_columns(data, frame_count, width, height)
    except ValueError:
        pass  # another form, or a fault: read line by line below
    return _line_by_line_columns(path, _utf8(path, data), frame_count, width, height)


def write_landmarks(bboxes: np.ndarray, path: Path) -> None:
    """Write a sidecar whose frame i has the bbox bboxes[i] and no polygons."""
    with writing(path), open(path, "w") as fh:
        for frame, bbox in enumerate(bboxes.tolist()):
            obj = {"frame": frame, "bbox": bbox, "eyes": [[], []], "mouth": []}
            fh.write(json.dumps(obj) + "\n")


def smooth_bboxes(bboxes: np.ndarray, alpha: float) -> np.ndarray:
    """Exponentially smooth bbox jitter: s_t = alpha*s_{t-1} + (1-alpha)*b_t,
    alpha in [0, 1) as RunConfig holds it, each s_t rounded half to even."""
    state = bboxes[0].astype(np.float64)
    smoothed = [state := alpha * state + (1.0 - alpha) * bbox for bbox in bboxes]
    return np.rint(smoothed).astype(np.int64)


# ---------------------------------------------------------------------------
# Ground truth
# ---------------------------------------------------------------------------


def read_two_column_csv(path: Path, header: str) -> tuple[np.ndarray, np.ndarray]:
    """The two columns of a CSV whose first line is header (e.g. 'time_s,value'),
    every value a finite float."""
    path = Path(path)
    lines = [ln.strip() for ln in read_text(path).splitlines() if ln.strip()]
    if not lines or lines[0].replace(" ", "") != header:
        raise DataFormatError(f"{path}: first line must be the header {header!r}")
    rows = lines[1:]
    if not rows:
        raise DataFormatError(f"{path}: no data rows")
    x = np.empty(len(rows))
    y = np.empty(len(rows))
    for i, row in enumerate(rows):
        parts = row.split(",")
        if len(parts) != 2:
            raise DataFormatError(f"{path}: row {i + 2} is not two columns: {row!r}")
        try:
            x[i], y[i] = float(parts[0]), float(parts[1])
        except ValueError as exc:
            raise DataFormatError(f"{path}: row {i + 2} not numeric: {row!r}") from exc
        if not (np.isfinite(x[i]) and np.isfinite(y[i])):
            raise DataFormatError(f"{path}: row {i + 2} not finite: {row!r}")
    return x, y


def read_timeseries_csv(path: Path) -> tuple[np.ndarray, np.ndarray]:
    t, v = read_two_column_csv(path, "time_s,value")
    if np.any(np.diff(t) <= 0):
        raise DataFormatError(f"{path}: time_s must be strictly increasing")
    return t, v


def load_ground_truth(hr_path: Path) -> GroundTruth:
    """The heart-rate numerics of a time_s,value CSV, each within
    [HR_BPM_MIN, HR_BPM_MAX] bpm."""
    t, v = read_timeseries_csv(hr_path)
    if np.any(v < HR_BPM_MIN) or np.any(v > HR_BPM_MAX):
        raise DataFormatError(
            f"{hr_path}: heart-rate numerics outside "
            f"[{HR_BPM_MIN}, {HR_BPM_MAX}] bpm"
        )
    return GroundTruth(hr_time_s=t, hr_bpm=v)


def write_timeseries_csv(t: np.ndarray, v: np.ndarray, path: Path) -> None:
    with writing(path), open(path, "w") as fh:
        fh.write("time_s,value\n")
        for ti, vi in zip(t, v):
            fh.write(f"{float(ti)!r},{float(vi)!r}\n")
