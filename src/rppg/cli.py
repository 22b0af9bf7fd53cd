"""Command-line entry point.

Subcommands:
  estimate  video + landmarks -> heart-rate report (JSON)
  evaluate  manifest of reports + ground truth -> cohort agreement CSV
  synth     render a synthetic face dataset to disk
  biophys   dump the skin-signal / camera-noise diagnostic tables (CSV)

Every single-file output (--out, --dump-weights, --scatter, --bland-altman)
is written atomically (temp file + rename); synth's files and the
--dump-diffuse frames (each pixel less its minimum channel, the one
separation; the pass pools only the sampled frames' minimum channel) are
written in place, after the pass, one diffuse chunk at a time, and their
manifest once the run has succeeded. An output that names an input or
another output, or a frame file or manifest of the --frames or
--dump-diffuse directory, is a usage error, found before any input is
read. Errors map to stable exit codes: 2 usage or unwritable output, 3
missing or unreadable input, 4 malformed data, 5 geometry, 6 empty region,
7 signal, 8 model, 9 invalid scene.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import diffuse, ingest
from .biophysics import (
    CameraNoiseParams,
    SkinParams,
    SpectralContext,
    Sweep,
    melanin_sweep,
    pixel_snr_sweep,
)
from .config import ENV_CONFIG_VAR, KINDS, RunConfig, load_run_config, parse_value
from .errors import MissingInputError, ToolkitError, UsageError, writing
from .evaluation import (
    bland_altman_csv,
    cohort_report,
    load_manifest,
    report_to_csv,
    scatter_csv,
)
from .ingest import FrameDirWriter, load_frame_sequence, load_landmarks
from .pipeline import run_pipeline
from .synth import SpecularPatch, SynthScene, write_scene_dataset


def _atomic_write_text(path: Path, text: str) -> None:
    """Write text to path through a temp file and a rename; a path that
    cannot be written (a directory, a name too long) is a UsageError. The
    temp file is created 0o666, so the kernel gives it the mode open()
    would, 0o666 less the umask, and the rename keeps that mode."""
    path = Path(path)
    with writing(path):
        path.parent.mkdir(parents=True, exist_ok=True)
        while True:
            tmp = path.parent / f".{path.name}.{os.urandom(4).hex()}"
            try:
                fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
                break
            except FileExistsError:
                continue  # another writer's temp file: draw another name
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write(text)
            os.replace(tmp, path)
        except BaseException:
            with contextlib.suppress(FileNotFoundError):
                os.unlink(tmp)
            raise


def _emit(text: str, out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        _atomic_write_text(Path(out), text)


def _json_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


# ---------------------------------------------------------------------------
# flags derived from settings dataclasses
# ---------------------------------------------------------------------------

# Flags spelled other than "--" + the field name with "-" for "_".
_FLAG_NAMES = {"sigma_read": "--read-noise", "sigma_quant": "--quant-noise"}


def _flag(f: dataclasses.Field) -> str:
    return _FLAG_NAMES.get(f.name, "--" + f.name.replace("_", "-"))


def _settable_fields(cls, skip=()) -> list[dataclasses.Field]:
    return [f for f in dataclasses.fields(cls) if f.type in KINDS and f.name not in skip]


def _add_field_flags(p: argparse.ArgumentParser, cls, skip=()) -> None:
    """One flag per settable field of cls, kept as raw text until _field_values."""
    for f in _settable_fields(cls, skip):
        help_text = " ".join(filter(None, (f.metadata.get("help"), f"(default: {f.default})")))
        if f.type == "bool":
            how = {"action": argparse.BooleanOptionalAction}
        else:
            how = {"choices": f.metadata.get("choices")}
        p.add_argument(_flag(f), dest=f.name, default=None, help=help_text, **how)


def _field_values(args: argparse.Namespace, cls) -> dict:
    """The fields of cls set on the command line, parsed; unset ones are left out."""
    values = {}
    for f in _settable_fields(cls):
        value = getattr(args, f.name, None)
        if isinstance(value, str):
            try:
                value = parse_value(f.type, value)
            except ValueError as exc:
                raise UsageError(f"{_flag(f)}: {exc}") from exc
        if value is not None:
            values[f.name] = value
    return values


# ---------------------------------------------------------------------------
# estimate
# ---------------------------------------------------------------------------


def _config_path(args: argparse.Namespace) -> Path | None:
    """The INI file estimate reads: --config, else $RPPG_CONFIG, if either."""
    if args.config is None and os.environ.get(ENV_CONFIG_VAR):
        return Path(os.environ[ENV_CONFIG_VAR])
    return args.config


def _same_path(a, b) -> bool:
    """Whether paths a and b name the same file or directory: one that
    exists, or one path once links and '..' are resolved."""
    try:
        return os.path.samefile(a, b)
    except (OSError, ValueError):
        pass
    try:
        return os.path.realpath(a) == os.path.realpath(b)
    except (OSError, ValueError):
        return False


def _in_frame_dir(path, directory) -> bool:
    """Whether path, links resolved, names a frame or the manifest.json of a
    frame directory (see ingest) in directory."""
    with contextlib.suppress(OSError, ValueError):  # a path holding NUL, say
        head, name = os.path.split(os.path.realpath(path))
        frame_file = name == ingest.MANIFEST or ingest.FRAME_NAME.fullmatch(name)
        return bool(frame_file) and _same_path(head, directory)
    return False


def _check_outputs(outputs: dict, inputs: dict) -> None:
    """A UsageError when an output path names an input or another output, or
    a frame directory's file while the other names that directory, found
    before anything is read or written. None names no file, and neither does
    "-" for --out (stdout); to any other output "-" is a file name."""
    named = [(f, p) for f, p in outputs.items() if p is not None and (f, p) != ("--out", "-")]
    for i, (flag, path) in enumerate(named):
        for other, taken in [*inputs.items(), *named[:i]]:
            if taken is None:
                continue
            inside = _in_frame_dir(path, taken) or _in_frame_dir(taken, path)
            if inside or _same_path(path, taken):
                how = "overlaps" if inside else "is also"
                raise UsageError(f"{flag} {path} {how} {other}: it would be overwritten")


def _cmd_estimate(args: argparse.Namespace) -> int:
    cfg_path = _config_path(args)
    _check_outputs(
        {
            "--out": args.out,
            "--dump-weights": args.dump_weights,
            "--dump-diffuse": args.dump_diffuse,
        },
        {"--frames": args.frames, "--landmarks": args.landmarks, "the config file": cfg_path},
    )
    cfg = load_run_config(cfg_path, _field_values(args, RunConfig))
    if args.dump_diffuse is not None and cfg.method != "proposed":
        raise UsageError("--dump-diffuse requires --method proposed")
    seq = load_frame_sequence(args.frames)
    bboxes, polygons = load_landmarks(args.landmarks, seq.count, seq.width, seq.height)
    dump = None
    if args.dump_diffuse is not None:
        # before the pass, so an unwritable directory is found, a stale manifest gone
        dump = FrameDirWriter(Path(args.dump_diffuse), seq.fps, seq.width, seq.height)
    result = run_pipeline(seq, bboxes, cfg, polygons)
    if dump is not None:
        for chunk in diffuse.frame_chunks(seq.count, seq.height, seq.width):
            dump.write(diffuse.specular_free_min_subtract(seq.frames[chunk]))
    _emit(_json_dumps(result.report), args.out)
    if args.dump_weights is not None:
        _atomic_write_text(Path(args.dump_weights), _json_dumps(result.window_weights))
    if dump is not None:
        dump.finish()
    return 0


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------

def _cmd_evaluate(args: argparse.Namespace) -> int:
    _check_outputs(
        {"--out": args.out, "--scatter": args.scatter, "--bland-altman": args.bland_altman},
        {"--manifest": args.manifest},
    )
    records = load_manifest(args.manifest)
    # pairs are selected before anything is written
    pairs = [(r.truth_bpm, r.estimate_bpm) for r in records if r.method == args.pairs_method]
    if not pairs and (args.scatter is not None or args.bland_altman is not None):
        raise UsageError(f"no records with method {args.pairs_method!r}")
    _emit(report_to_csv(cohort_report(records)), args.out)
    if args.scatter is not None:
        _atomic_write_text(Path(args.scatter), scatter_csv(pairs))
    if args.bland_altman is not None:
        _atomic_write_text(Path(args.bland_altman), bland_altman_csv(pairs))
    return 0


# ---------------------------------------------------------------------------
# synth
# ---------------------------------------------------------------------------


def _parse_specular(raw: str | None) -> SpecularPatch | None:
    if raw is None:
        return None
    parts = raw.split(",")
    if len(parts) != 5:
        raise UsageError("--specular wants x,y,w,h,strength")
    try:
        x, y, w, h = (parse_value("int", v) for v in parts[:4])
        strength = parse_value("float", parts[4])
    except ValueError as exc:
        raise UsageError(f"--specular: {exc}") from exc
    return SpecularPatch(rect=(x, y, w, h), strength=strength)


def _cmd_synth(args: argparse.Namespace) -> int:
    scene = SynthScene(
        skin=SkinParams(**_field_values(args, SkinParams)),
        noise=CameraNoiseParams(**_field_values(args, CameraNoiseParams)),
        specular=_parse_specular(args.specular),
        **_field_values(args, SynthScene),
    )
    paths = write_scene_dataset(scene, args.out, layout=args.layout)
    sys.stdout.write(_json_dumps({k: str(v) for k, v in paths.items()}))
    return 0


# ---------------------------------------------------------------------------
# biophys
# ---------------------------------------------------------------------------


def _cmd_biophys(args: argparse.Namespace) -> int:
    sens = [] if args.sensitivities is None else args.sensitivities.split(",")
    _check_outputs(
        {"--out": args.out},
        {
            "--illuminant": args.illuminant,
            **{f"--sensitivities CSV {i + 1}": path for i, path in enumerate(sens)},
        },
    )
    sweep = Sweep(**_field_values(args, Sweep))
    base = SkinParams(**_field_values(args, SkinParams))
    noise = CameraNoiseParams(**_field_values(args, CameraNoiseParams))
    if args.table == "melanin":
        if sens and len(sens) != 3:
            raise UsageError("--sensitivities wants three CSVs: r.csv,g.csv,b.csv")
        paths = tuple(Path(p) for p in sens) or None
        ctx = SpectralContext.from_csv(args.illuminant, paths, sweep.step_nm)
        grid = np.linspace(sweep.f_mel_min, sweep.f_mel_max, sweep.points)
        rows = melanin_sweep(grid, base, ctx, channel=sweep.channel)
        lines = ["f_mel,signal,sinr"]
        lines += [f"{f!r},{m!r},{n!r}" for f, m, n in rows]
    else:
        rows = pixel_snr_sweep(range(sweep.level_min, sweep.level_max + 1), noise)
        lines = ["level,snr"]
        lines += [f"{p!r},{s!r}" for p, s in rows]
    _emit("\n".join(lines) + "\n", args.out)
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once a process; main runs the command named by
    args.command as _cmd_<command>, looked up when it runs."""
    parser = argparse.ArgumentParser(
        prog="rppg", description="remote photoplethysmography toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    est = sub.add_parser("estimate", help="estimate heart rate from a recording")
    est.add_argument("--frames", type=Path, required=True, help="raw stream or frame dir")
    est.add_argument("--landmarks", type=Path, required=True, help="JSONL sidecar")
    est.add_argument("--out", default=None, help="report path (default: stdout)")
    est.add_argument("--dump-weights", default=None, help="write per-window weights JSON")
    est.add_argument("--dump-diffuse", default=None, help="write diffuse frames as a PPM dir")
    est.add_argument("--config", type=Path, default=None, help="INI config file")
    _add_field_flags(est, RunConfig)

    ev = sub.add_parser("evaluate", help="cohort agreement statistics from a manifest")
    ev.add_argument("--manifest", type=Path, required=True)
    ev.add_argument("--out", default=None, help="summary CSV (default: stdout)")
    ev.add_argument("--scatter", default=None, help="write gt,est pairs CSV")
    ev.add_argument("--bland-altman", default=None, help="write mean,diff pairs CSV")
    ev.add_argument(
        "--pairs-method",
        default="proposed",
        help="method whose pairs feed --scatter/--bland-altman",
    )

    sy = sub.add_parser("synth", help="render a synthetic face dataset")
    sy.add_argument("--out", type=Path, required=True, help="output directory")
    sy.add_argument("--layout", choices=("raw", "ppm"), default="raw")
    sy.add_argument("--specular", default=None, help="x,y,w,h,strength additive patch")
    for cls in (SynthScene, SkinParams, CameraNoiseParams):
        _add_field_flags(sy, cls)

    bio = sub.add_parser("biophys", help="dump diagnostic tables")
    bio.add_argument("--table", choices=("melanin", "pixel-snr"), required=True)
    bio.add_argument("--out", default=None, help="CSV path (default: stdout)")
    bio.add_argument("--illuminant", type=Path, default=None, help="wavelength_nm,value CSV")
    bio.add_argument(
        "--sensitivities", default=None, help="three wavelength_nm,value CSVs: r,g,b"
    )
    _add_field_flags(bio, Sweep)
    _add_field_flags(bio, SkinParams, skip=("f_mel",))
    _add_field_flags(bio, CameraNoiseParams)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return globals()[f"_cmd_{args.command}"](args)
    except ToolkitError as exc:
        print(f"rppg: error: {exc}", file=sys.stderr)
        return exc.exit_code
    except FileNotFoundError as exc:
        print(f"rppg: error: {exc}", file=sys.stderr)
        return MissingInputError.exit_code
    except BrokenPipeError:
        return 0


if __name__ == "__main__":
    raise SystemExit(main())
