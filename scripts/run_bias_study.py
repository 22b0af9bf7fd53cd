"""Skin-tone bias study on a synthetic cohort.

Renders synth.bias_scene (acceptance criterion 4's scene) at several melanin
fractions and compares combination methods by mean absolute heart-rate error
per melanin level. The scene is a small, dim face with a saturated specular
band across its lower half, so that plain facial aggregation sits on its
detection cliff at the darkest level while diffuse-gated weighting still
locks; the printed "improvement" row is MAE(aggregate) - MAE(method) and
should grow toward darker tones for the proposed method.

Example:
    python3 scripts/run_bias_study.py --seeds 20 --out bias.csv
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from rppg.config import METHODS, RunConfig
from rppg.errors import ToolkitError
from rppg.pipeline import run_pipeline
from rppg.synth import bias_scene, render


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--f-mel", type=float, nargs="+", default=(0.10, 0.25, 0.40))
    ap.add_argument("--methods", nargs="+", default=METHODS, choices=METHODS)
    ap.add_argument("--seeds", type=int, default=20, help="scenes per melanin level")
    ap.add_argument("--duration-s", type=float, default=30.0)
    ap.add_argument("--exposure", type=float, default=1.1)
    ap.add_argument("--grid", type=int, default=2, help="grid rows and cols")
    ap.add_argument("--hr-seed", type=int, default=2024,
                    help="seed for the per-scene heart-rate draw")
    ap.add_argument("--out", type=Path, default=None, help="also write a CSV")
    args = ap.parse_args(argv)
    # every setting is checked here, before the first scene is rendered
    if args.seeds < 1:
        ap.error("--seeds must be at least 1")
    if args.hr_seed < 0:
        ap.error("--hr-seed must be non-negative")
    try:
        args.configs = {
            m: RunConfig(method=m, grid_rows=args.grid, grid_cols=args.grid)
            for m in args.methods
        }
        for f_mel in args.f_mel:
            bias_scene(f_mel, 60.0, 0, args.duration_s, args.exposure)
    except ToolkitError as exc:
        ap.error(str(exc))
    return args


def study(args: argparse.Namespace) -> dict[str, dict[float, float]]:
    hrs = np.random.default_rng(args.hr_seed).uniform(55.0, 83.0, args.seeds)
    mae: dict[str, dict[float, float]] = {m: {} for m in args.methods}
    for f_mel in args.f_mel:
        errs = {m: [] for m in args.methods}
        for seed in range(args.seeds):
            hr = float(hrs[seed])
            seq, sidecar, _ = render(bias_scene(f_mel, hr, seed, args.duration_s, args.exposure))
            for method in args.methods:
                bpm = run_pipeline(seq, sidecar, args.configs[method]).report["video_bpm"]
                errs[method].append(abs(bpm - hr))
        for method in args.methods:
            mae[method][f_mel] = float(np.mean(errs[method]))
    return mae


def main(argv=None) -> int:
    args = parse_args(argv)
    mae = study(args)

    header = "method".ljust(12) + "".join(f"f_mel={f:<8.2f}" for f in args.f_mel)
    print(header)
    for method in args.methods:
        print(method.ljust(12)
              + "".join(f"{mae[method][f]:<14.2f}" for f in args.f_mel))
    if "aggregate" in args.methods:
        for method in args.methods:
            if method == "aggregate":
                continue
            imp = [mae["aggregate"][f] - mae[method][f] for f in args.f_mel]
            print(f"improvement ({method}): "
                  + "  ".join(f"{v:+.2f}" for v in imp))

    if args.out is not None:
        lines = ["method," + ",".join(str(f) for f in args.f_mel)]
        for method in args.methods:
            lines.append(method + ","
                         + ",".join(repr(mae[method][f]) for f in args.f_mel))
        args.out.write_text("\n".join(lines) + "\n")
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
