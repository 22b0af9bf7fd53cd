"""The benchmark's tracer finds the functions it wraps.

perfbench/tracing.py wraps package functions at the module attributes their
callers look them up by, and skips a name that no longer resolves. A
refactor that moves a function would silently lose that span; this test
makes it a deliberate, listed change instead.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

# Names the batched spectral core removed from rppg.combine: it calls
# chrom_rows, periodogram and harmonic_snr instead.
REMOVED = {
    ("rppg.combine", "chrom"),
    ("rppg.combine", "psd"),
    ("rppg.combine", "two_harmonic_snr"),
    # evaluate reads ground truth through ingest.load_ground_truth
    ("rppg.cli", "read_timeseries_csv"),
    # the manifest loader moved to evaluation.load_manifest
    ("rppg.cli", "_load_manifest"),
    # windows take one batched periodogram, as the cells do
    ("rppg.heartrate", "psd"),
    # windows are the rows of one chrom_rows call, as the cells are
    ("rppg.pipeline", "chrom"),
    # the bilateral estimator is gone: every separation is
    # specular_free_min_subtract, so diffuse.estimate_diffuse_stack.* read 0
    ("rppg.pipeline", "estimate_diffuse_stack"),
    # the pass pools the min channel and diffuse_weights reads the diffuse
    # sums from it and the RGB sums: no luminance is made, so
    # diffuse.diffuse_luminance.self_s reads 0
    ("rppg.pipeline", "diffuse_luminance"),
    # the pass separates no frame and the dump calls rppg.diffuse's name, so
    # diffuse.specular_free_min_subtract.* and diffuse.frames_in read 0
    ("rppg.pipeline", "specular_free_min_subtract"),
}


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_site_resolves_except_the_listed_removals():
    unresolved = {
        (module_name, attr)
        for module_name, attr, _ in load_tracing().SITES
        if not callable(getattr(importlib.import_module(module_name), attr, None))
    }
    assert unresolved == REMOVED
