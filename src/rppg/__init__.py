"""Remote photoplethysmography toolkit.

Estimates heart rate from facial video by combining per-region color
traces into a single pulse waveform. Three combination strategies are
provided: a whole-face mean, a per-cell SNR-weighted mean of chrominance
waveforms, and an RGB-space combination whose weights fold in the diffuse
reflection strength of each cell so that chrominance inference runs once
on a debiased trace. A biophysical skin/camera model and a synthetic video
generator back the closed-loop tests and diagnostic tables.
"""

from .biophysics import (
    CameraNoiseParams,
    SkinParams,
    SpectralContext,
    camera_snr,
    melanin_sweep,
    pixel_snr_sweep,
    signal_strength,
    sinr,
    skin_reflectance,
)
from .combine import (
    GridTraces,
    combine_benchmark_snr,
    combine_proposed,
    diffuse_weights,
    facial_aggregate,
    grid_traces,
    snr_weights,
)
from .config import RunConfig, load_run_config
from .diffuse import estimate_diffuse_stack, specular_free_min_subtract
from .errors import ToolkitError
from .evaluation import AgreementStats, CohortKey, CohortRecord, agreement, cohort_report
from .heartrate import (
    HrEstimate,
    WindowPlan,
    estimate_video_hr,
    plan_windows,
    select_hr,
    suppress_artifacts,
    two_harmonic_snr,
)
from .ingest import (
    FrameSequence,
    GroundTruth,
    LandmarkRecord,
    LandmarkSidecar,
    load_frame_sequence,
    load_ground_truth,
    load_landmarks,
)
from .pipeline import PipelineResult, run_pipeline
from .roi import GridSpec, build_grid, build_mask
from .signals import PulseWaveform, RgbTrace
from .synth import SpecularPatch, SynthScene, render, write_scene_dataset

__version__ = "0.1.0"

__all__ = [
    "AgreementStats",
    "CameraNoiseParams",
    "CohortKey",
    "CohortRecord",
    "FrameSequence",
    "GridSpec",
    "GridTraces",
    "GroundTruth",
    "HrEstimate",
    "LandmarkRecord",
    "LandmarkSidecar",
    "PipelineResult",
    "PulseWaveform",
    "RgbTrace",
    "RunConfig",
    "SkinParams",
    "SpecularPatch",
    "SpectralContext",
    "SynthScene",
    "ToolkitError",
    "WindowPlan",
    "agreement",
    "camera_snr",
    "cohort_report",
    "combine_benchmark_snr",
    "combine_proposed",
    "diffuse_weights",
    "estimate_diffuse_stack",
    "estimate_video_hr",
    "facial_aggregate",
    "grid_traces",
    "load_frame_sequence",
    "load_ground_truth",
    "load_landmarks",
    "load_run_config",
    "melanin_sweep",
    "pixel_snr_sweep",
    "plan_windows",
    "render",
    "run_pipeline",
    "select_hr",
    "signal_strength",
    "sinr",
    "skin_reflectance",
    "snr_weights",
    "specular_free_min_subtract",
    "suppress_artifacts",
    "two_harmonic_snr",
    "write_scene_dataset",
    "build_grid",
    "build_mask",
]
