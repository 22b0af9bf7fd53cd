"""Benchmark workloads: scene specs, input rendering and the calls to time.

Each workload renders its recordings from the workload seed with the
package's own synthetic generator (``rppg.synth``) before any timing
starts; the timed program only ever sees the files written here.

* ``long_grid``: one 32x32, 120 s raw recording (23 analysis windows) and
  the default 8x8 grid. The per-cell spectral loop in ``combine``,
  ``chrom`` and ``heartrate`` is most of ``snr`` and a third of
  ``proposed``, whose larger part is the bilateral ``diffuse`` step.
* ``big_frame``: one 96x96, 20 s raw recording (600 frames, more than one
  512-frame diffuse chunk). ``diffuse.estimate_diffuse_stack`` is most of
  ``proposed`` and sets peak memory; three windows leave the per-cell loop
  little to do.
* ``cohort``: the bias-study scene (24x24, 30 s, saturated specular band,
  2x2 grid, ``min_subtract``) at three melanin levels, written as PPM
  frame directories. Ingest parses many small files, ``diffuse`` takes the
  cheap estimator, and ``rppg evaluate`` scores the cohort.

Every method of ``long_grid`` and ``big_frame`` runs in its own fresh
process, so each process's ``ru_maxrss`` is that method's peak. The cohort
runs all its calls in one process, as a study script would.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

METHODS = ("aggregate", "snr", "proposed")
TONES = (("light", 0.10), ("medium", 0.25), ("dark", 0.40))
HR_RANGE_BPM = (55.0, 83.0)
WINDOW_S = 10.0
HOP_S = 5.0


@dataclass(frozen=True)
class Workload:
    name: str
    size_px: int
    duration_s: float
    layout: str  # "raw" stream or "ppm" frame directory
    scenes_per_tone: int = 1
    bias_scene: bool = False  # dim face, saturated specular band, melanin sweep
    extra_flags: tuple[str, ...] = ()
    one_process: bool = False  # all calls share a process, then evaluate runs


WORKLOADS = {
    w.name: w
    for w in (
        Workload("long_grid", size_px=32, duration_s=120.0, layout="raw"),
        Workload("big_frame", size_px=96, duration_s=20.0, layout="raw"),
        Workload(
            "cohort",
            size_px=24,
            duration_s=30.0,
            layout="ppm",
            scenes_per_tone=4,
            bias_scene=True,
            extra_flags=("--grid-rows", "2", "--grid-cols", "2", "--diffuse-estimator", "min_subtract"),
            one_process=True,
        ),
    )
}


@dataclass(frozen=True)
class Scene:
    """One rendered recording and what the benchmark knows about it."""

    tone: str
    truth_bpm: float
    duration_s: float
    frames: Path
    landmarks: Path
    hr_csv: Path


def expected_windows(duration_s: float) -> int:
    """Window count of the default 10 s / 5 s plan, computed independently."""
    k = 0
    while k * HOP_S + WINDOW_S <= duration_s + 1e-9:
        k += 1
    return k


def render(w: Workload, seed: int, outdir: Path) -> list[Scene]:
    """Render the workload's recordings for ``seed`` into ``outdir``."""
    import numpy as np
    from rppg.biophysics import SkinParams
    from rppg.synth import SpecularPatch, SynthScene, write_scene_dataset

    tones = TONES if w.bias_scene else (("light", SkinParams().f_mel),)
    n = len(tones) * w.scenes_per_tone
    rng = np.random.default_rng(seed)
    hrs = rng.uniform(*HR_RANGE_BPM, size=n)
    render_seeds = rng.integers(0, 2**31, size=n)
    scenes = []
    for j in range(n):
        tone, f_mel = tones[j // w.scenes_per_tone]
        kwargs = {}
        if w.bias_scene:
            half = w.size_px // 2
            kwargs = {
                "skin": SkinParams(f_mel=f_mel, f_blood=0.05, f_hg=0.45, delta_f_blood=0.004),
                "specular": SpecularPatch(rect=(0, half, w.size_px, w.size_px - half), strength=255.0),
                "exposure": 1.1,
            }
        scene = SynthScene(
            width=w.size_px,
            height=w.size_px,
            fps=30.0,
            duration_s=w.duration_s,
            hr_bpm=float(hrs[j]),
            seed=int(render_seeds[j]),
            **kwargs,
        )
        paths = write_scene_dataset(scene, outdir / f"scene{j:02d}", layout=w.layout)
        scenes.append(
            Scene(
                tone=tone,
                truth_bpm=float(hrs[j]),
                duration_s=scene.n_frames / scene.fps,
                frames=paths["frames"],
                landmarks=paths["landmarks"],
                hr_csv=paths["hr"],
            )
        )
    return scenes


def report_path(scene: Scene, method: str) -> Path:
    return scene.frames.parent / f"report_{method}.json"


def estimate_argv(w: Workload, scene: Scene, method: str) -> list[str]:
    return [
        "estimate",
        "--frames", str(scene.frames),
        "--landmarks", str(scene.landmarks),
        "--method", method,
        "--out", str(report_path(scene, method)),
        *w.extra_flags,
    ]


def write_manifest(scenes: list[Scene], path: Path) -> None:
    lines = ["report,ground_truth,skin_tone,condition,viewpoint"]
    for scene in scenes:
        for method in METHODS:
            lines.append(f"{report_path(scene, method)},{scene.hr_csv},{scene.tone},room,front")
    path.write_text("\n".join(lines) + "\n")


def evaluate_argv(manifest: Path, out_csv: Path) -> list[str]:
    return ["evaluate", "--manifest", str(manifest), "--out", str(out_csv)]
