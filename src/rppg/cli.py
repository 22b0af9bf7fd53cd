"""Command-line entry point.

Subcommands:
  estimate  video + landmarks -> heart-rate report (JSON)
  evaluate  manifest of reports + ground truth -> cohort agreement CSV
  synth     render a synthetic face dataset to disk
  biophys   dump the skin-signal / camera-noise diagnostic tables (CSV)

Every output file is written atomically (temp file + rename). Errors map
to stable exit codes: 2 usage, 3 missing input, 4 malformed data,
5 geometry, 6 empty region, 7 signal, 8 model, 9 invalid scene.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import os
import sys
import tempfile
from pathlib import Path

from .biophysics import (
    CameraNoiseParams,
    SkinParams,
    SpectralContext,
    melanin_sweep,
    pixel_snr_sweep,
)
from .config import (
    DIFFUSE_ESTIMATORS,
    ENV_CONFIG_VAR,
    METHODS,
    RunConfig,
    _parse_value,
    load_run_config,
)
from .errors import DataFormatError, MissingInputError, ToolkitError, UsageError
from .evaluation import (
    CohortKey,
    CohortRecord,
    bland_altman_csv,
    cohort_report,
    report_to_csv,
    scatter_csv,
)
from .ingest import FrameSequence, load_frame_sequence, load_landmarks, read_timeseries_csv, write_frame_dir
from .pipeline import run_pipeline
from .synth import SpecularPatch, SynthScene, write_scene_dataset

MELANIN_SWEEP_DEFAULT = (0.02, 0.45, 44)
PIXEL_SWEEP_DEFAULT = (1, 255)


def _atomic_write_text(path: Path, text: str) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
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
# estimate
# ---------------------------------------------------------------------------


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", type=Path, default=None, help="INI config file")
    p.add_argument("--method", choices=METHODS)
    p.add_argument("--window-s", type=float, dest="window_s")
    p.add_argument("--hop-s", type=float, dest="hop_s")
    p.add_argument("--passband-lo-hz", type=float, dest="passband_lo_hz")
    p.add_argument("--passband-hi-hz", type=float, dest="passband_hi_hz")
    p.add_argument("--snr-halfwidth-hz", type=float, dest="snr_halfwidth_hz")
    p.add_argument(
        "--notch-hz",
        dest="notch_hz",
        help="comma-separated frequencies to suppress, e.g. 0.5,1.0",
    )
    p.add_argument("--grid-rows", type=int, dest="grid_rows")
    p.add_argument("--grid-cols", type=int, dest="grid_cols")
    p.add_argument("--diffuse-estimator", choices=DIFFUSE_ESTIMATORS, dest="diffuse_estimator")
    p.add_argument(
        "--bbox-smoothing",
        action=argparse.BooleanOptionalAction,
        default=None,
        dest="bbox_smoothing",
    )
    p.add_argument("--bbox-smoothing-alpha", type=float, dest="bbox_smoothing_alpha")


def _resolve_config(args: argparse.Namespace):
    cfg_path = args.config
    if cfg_path is None and os.environ.get(ENV_CONFIG_VAR):
        cfg_path = Path(os.environ[ENV_CONFIG_VAR])
    overrides = {f.name: getattr(args, f.name, None) for f in dataclasses.fields(RunConfig)}
    if overrides["notch_hz"] is not None:
        try:
            overrides["notch_hz"] = _parse_value("notch_hz", overrides["notch_hz"])
        except ValueError as exc:
            raise UsageError(f"--notch-hz: {exc}") from exc
    return load_run_config(cfg_path, overrides)


def _cmd_estimate(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args)
    seq = load_frame_sequence(args.frames)
    sidecar = load_landmarks(args.landmarks, seq.count, seq.width, seq.height)
    result = run_pipeline(seq, sidecar, cfg, keep_diffuse=args.dump_diffuse is not None)
    _emit(_json_dumps(result.report), args.out)
    if args.dump_weights is not None:
        _atomic_write_text(Path(args.dump_weights), _json_dumps(result.window_weights))
    if args.dump_diffuse is not None:
        diffuse = result.diffuse_frames
        if diffuse is None:
            raise UsageError("--dump-diffuse requires --method proposed")
        import numpy as np

        frames = np.clip(np.rint(diffuse), 0, 255).astype(np.uint8)
        write_frame_dir(FrameSequence(frames=frames, fps=seq.fps), Path(args.dump_diffuse))
    return 0


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------

_MANIFEST_COLUMNS = ("report", "ground_truth", "skin_tone", "condition", "viewpoint")


def _load_manifest(path: Path) -> list[CohortRecord]:
    path = Path(path)
    if not path.exists():
        raise MissingInputError(f"{path}: manifest not found")
    lines = [ln for ln in path.read_text().splitlines() if ln.strip()]
    if not lines:
        raise DataFormatError(f"{path}: empty manifest")
    header = tuple(col.strip() for col in lines[0].split(","))
    if header != _MANIFEST_COLUMNS:
        raise DataFormatError(
            f"{path}: manifest header must be {','.join(_MANIFEST_COLUMNS)}"
        )
    records = []
    for ln_no, line in enumerate(lines[1:], start=2):
        parts = [p.strip() for p in line.split(",")]
        if len(parts) != len(_MANIFEST_COLUMNS):
            raise DataFormatError(f"{path}:{ln_no}: expected {len(_MANIFEST_COLUMNS)} columns")
        report_path, gt_path, tone, condition, viewpoint = parts
        report_path = (path.parent / report_path).resolve() if not os.path.isabs(report_path) else Path(report_path)
        gt_path = (path.parent / gt_path).resolve() if not os.path.isabs(gt_path) else Path(gt_path)
        if not report_path.exists():
            raise MissingInputError(f"{path}:{ln_no}: report {report_path} not found")
        try:
            report = json.loads(report_path.read_text())
            method = report["method"]
            est = float(report["video_bpm"])
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            raise DataFormatError(f"{report_path}: not a valid report: {exc}") from exc
        _, hr = read_timeseries_csv(gt_path)
        records.append(
            CohortRecord(
                method=method,
                key=CohortKey(skin_tone=tone, condition=condition, viewpoint=viewpoint),
                estimate_bpm=est,
                truth_bpm=float(hr.mean()),
            )
        )
    return records


def _cmd_evaluate(args: argparse.Namespace) -> int:
    records = _load_manifest(args.manifest)
    summary = cohort_report(records)
    _emit(report_to_csv(summary), args.out)
    if args.scatter is not None or args.bland_altman is not None:
        pairs = [
            (r.truth_bpm, r.estimate_bpm)
            for r in records
            if r.method == args.pairs_method
        ]
        if not pairs:
            raise UsageError(f"no records with method {args.pairs_method!r}")
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
        x, y, w, h = (int(v) for v in parts[:4])
        strength = float(parts[4])
    except ValueError as exc:
        raise UsageError(f"--specular: {exc}") from exc
    return SpecularPatch(rect=(x, y, w, h), strength=strength)


def _cmd_synth(args: argparse.Namespace) -> int:
    skin = SkinParams(
        f_mel=args.f_mel,
        f_blood=args.f_blood,
        f_hg=args.f_hg,
        delta_f_blood=args.delta_f_blood,
    )
    noise = CameraNoiseParams(
        gain=args.gain, sigma_read=args.read_noise, sigma_quant=args.quant_noise
    )
    scene = SynthScene(
        width=args.width,
        height=args.height,
        fps=args.fps,
        duration_s=args.duration_s,
        hr_bpm=args.hr_bpm,
        skin=skin,
        noise=noise,
        shot_noise=not args.no_shot_noise,
        specular=_parse_specular(args.specular),
        motion_px=args.motion_px,
        exposure=args.exposure,
        texture_amplitude=args.texture_amplitude,
        two_harmonic=args.two_harmonic,
        seed=args.seed,
    )
    paths = write_scene_dataset(scene, args.out, layout=args.layout)
    sys.stdout.write(_json_dumps({k: str(v) for k, v in paths.items()}))
    return 0


# ---------------------------------------------------------------------------
# biophys
# ---------------------------------------------------------------------------


def _spectral_context(args: argparse.Namespace) -> SpectralContext:
    sens = None
    if args.sensitivities is not None:
        parts = [Path(p) for p in args.sensitivities.split(",")]
        if len(parts) != 3:
            raise UsageError("--sensitivities wants three CSVs: r.csv,g.csv,b.csv")
        sens = (parts[0], parts[1], parts[2])
    if args.illuminant is None and sens is None:
        return SpectralContext.default(args.step_nm)
    return SpectralContext.from_csv(
        illuminant_csv=args.illuminant, sensitivity_csvs=sens, step_nm=args.step_nm
    )


def _cmd_biophys(args: argparse.Namespace) -> int:
    if args.table == "melanin":
        import numpy as np

        if args.points < 1:
            raise UsageError("--points must be at least 1")
        ctx = _spectral_context(args)
        base = SkinParams(
            f_blood=args.f_blood, f_hg=args.f_hg, delta_f_blood=args.delta_f_blood
        )
        grid = np.linspace(args.f_mel_min, args.f_mel_max, args.points)
        rows = melanin_sweep(grid, base, ctx, channel=args.channel)
        lines = ["f_mel,signal,sinr"]
        lines += [f"{f!r},{m!r},{n!r}" for f, m, n in rows]
    else:
        noise = CameraNoiseParams(
            gain=args.gain, sigma_read=args.read_noise, sigma_quant=args.quant_noise
        )
        if args.level_min > args.level_max:
            raise UsageError("--level-min must not exceed --level-max")
        levels = range(args.level_min, args.level_max + 1)
        rows = pixel_snr_sweep(levels, noise)
        lines = ["level,snr"]
        lines += [f"{p!r},{s!r}" for p, s in rows]
    _emit("\n".join(lines) + "\n", args.out)
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
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
    _add_config_flags(est)
    est.set_defaults(func=_cmd_estimate)

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
    ev.set_defaults(func=_cmd_evaluate)

    sy = sub.add_parser("synth", help="render a synthetic face dataset")
    sy.add_argument("--out", type=Path, required=True, help="output directory")
    sy.add_argument("--layout", choices=("raw", "ppm"), default="raw")
    sy.add_argument("--width", type=int, default=48)
    sy.add_argument("--height", type=int, default=48)
    sy.add_argument("--fps", type=float, default=30.0)
    sy.add_argument("--duration-s", type=float, default=30.0)
    sy.add_argument("--hr-bpm", type=float, default=72.0)
    sy.add_argument("--f-mel", type=float, default=0.15)
    sy.add_argument("--f-blood", type=float, default=0.05)
    sy.add_argument("--f-hg", type=float, default=0.45)
    sy.add_argument("--delta-f-blood", type=float, default=0.004)
    sy.add_argument("--gain", type=float, default=1.0)
    sy.add_argument("--read-noise", type=float, default=1.5)
    sy.add_argument("--quant-noise", type=float, default=0.5)
    sy.add_argument("--no-shot-noise", action="store_true")
    sy.add_argument("--specular", default=None, help="x,y,w,h,strength additive patch")
    sy.add_argument("--motion-px", type=int, default=0)
    sy.add_argument("--exposure", type=float, default=2.0)
    sy.add_argument("--texture-amplitude", type=float, default=0.05)
    sy.add_argument("--two-harmonic", action="store_true")
    sy.add_argument("--seed", type=int, default=0)
    sy.set_defaults(func=_cmd_synth)

    bio = sub.add_parser("biophys", help="dump diagnostic tables")
    bio.add_argument("--table", choices=("melanin", "pixel-snr"), required=True)
    bio.add_argument("--out", default=None, help="CSV path (default: stdout)")
    bio.add_argument("--channel", choices=("r", "g", "b"), default="g")
    bio.add_argument("--f-mel-min", type=float, default=MELANIN_SWEEP_DEFAULT[0])
    bio.add_argument("--f-mel-max", type=float, default=MELANIN_SWEEP_DEFAULT[1])
    bio.add_argument("--points", type=int, default=MELANIN_SWEEP_DEFAULT[2])
    bio.add_argument("--f-blood", type=float, default=0.05)
    bio.add_argument("--f-hg", type=float, default=0.45)
    bio.add_argument("--delta-f-blood", type=float, default=0.004)
    bio.add_argument("--step-nm", type=float, default=5.0)
    bio.add_argument("--illuminant", type=Path, default=None, help="wavelength_nm,value CSV")
    bio.add_argument(
        "--sensitivities", default=None, help="three wavelength_nm,value CSVs: r,g,b"
    )
    bio.add_argument("--level-min", type=int, default=PIXEL_SWEEP_DEFAULT[0])
    bio.add_argument("--level-max", type=int, default=PIXEL_SWEEP_DEFAULT[1])
    bio.add_argument("--gain", type=float, default=1.0)
    bio.add_argument("--read-noise", type=float, default=1.5)
    bio.add_argument("--quant-noise", type=float, default=0.5)
    bio.set_defaults(func=_cmd_biophys)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
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
