"""Agreement statistics and cohort-level reporting.

agreement() compares per-video heart-rate estimates against ground truth:
MAE, the bias m (mean difference), the standard error SE (population
standard deviation of the differences), Pearson's r, and Bland-Altman
limits of agreement m +/- 1.96 * SE. When either side has zero variance r
is undefined and reported as NaN.

cohort_report() marginalizes a set of records over skin tone, lighting
condition, and viewpoint, one column per cohort value plus an overall
column, one row block per combination method, plus per-method delta rows
(method MAE minus the facial-aggregation MAE in the same column).

load_manifest() reads the records of a cohort from a manifest CSV that
names each report, its ground truth and its cohort values.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataFormatError
from .ingest import _is_json_number, load_ground_truth, read_text

LOA_FACTOR = 1.96

SKIN_TONES = ("light", "medium", "dark")
CONDITIONS = ("3200K", "5600K", "room", "talking")
VIEWPOINTS = ("front", "lower")
AGGREGATE_METHOD = "aggregate"


@dataclass(frozen=True)
class AgreementStats:
    n: int
    mae: float
    bias: float
    se: float
    loa_low: float
    loa_high: float
    r: float  # NaN when undefined


def agreement(estimates, truths) -> AgreementStats:
    est = np.asarray(estimates, dtype=np.float64)
    gt = np.asarray(truths, dtype=np.float64)
    if est.ndim != 1 or est.shape != gt.shape:
        raise DataFormatError(
            f"estimate/truth lengths differ: {est.shape} vs {gt.shape}"
        )
    if est.size < 1:
        raise DataFormatError("need at least one estimate/truth pair")
    diffs = est - gt
    bias = float(diffs.mean())
    se = float(diffs.std(ddof=0))
    if est.size >= 2 and est.std() > 0 and gt.std() > 0:
        r = float(np.corrcoef(est, gt)[0, 1])
    else:
        r = math.nan
    return AgreementStats(
        n=est.size,
        mae=float(np.abs(diffs).mean()),
        bias=bias,
        se=se,
        loa_low=bias - LOA_FACTOR * se,
        loa_high=bias + LOA_FACTOR * se,
        r=r,
    )


@dataclass(frozen=True)
class CohortKey:
    skin_tone: str
    condition: str
    viewpoint: str


@dataclass(frozen=True)
class CohortRecord:
    """One video's outcome under one method."""

    method: str
    key: CohortKey
    estimate_bpm: float
    truth_bpm: float


_MANIFEST_COLUMNS = ("report", "ground_truth", "skin_tone", "condition", "viewpoint")


def load_manifest(path: Path) -> list[CohortRecord]:
    """Cohort records from a report,ground_truth,skin_tone,condition,viewpoint
    CSV; relative paths are taken from the manifest's directory."""
    path = Path(path)
    lines = [ln for ln in read_text(path).splitlines() if ln.strip()]
    if not lines:
        raise DataFormatError(f"{path}: empty manifest")
    header = tuple(col.strip() for col in lines[0].split(","))
    if header != _MANIFEST_COLUMNS:
        raise DataFormatError(
            f"{path}: manifest header must be {','.join(_MANIFEST_COLUMNS)}"
        )
    records = []
    for ln_no, line in enumerate(lines[1:], start=2):
        if "\0" in line:
            raise DataFormatError(f"{path}:{ln_no}: NUL byte in a manifest row")
        parts = [p.strip() for p in line.split(",")]
        if len(parts) != len(_MANIFEST_COLUMNS):
            raise DataFormatError(f"{path}:{ln_no}: expected {len(_MANIFEST_COLUMNS)} columns")
        report_path, gt_path, tone, condition, viewpoint = parts
        report_path = (path.parent / report_path).resolve() if not os.path.isabs(report_path) else Path(report_path)
        gt_path = (path.parent / gt_path).resolve() if not os.path.isabs(gt_path) else Path(gt_path)
        try:
            report = json.loads(read_text(report_path))
            method, est = report["method"], report["video_bpm"]
        except (KeyError, TypeError, ValueError, RecursionError) as exc:
            raise DataFormatError(f"{report_path}: not a valid report: {exc}") from exc
        if not isinstance(method, str):
            raise DataFormatError(f"{report_path}: method must be a JSON string, got {method!r}")
        if any(ch in method for ch in ',"\r\n'):  # it heads summary CSV rows
            raise DataFormatError(f"{report_path}: method {method!r} has a comma, quote or line break")
        # a JSON number: bools and numeric strings do not count
        if not _is_json_number(est):
            raise DataFormatError(
                f"{report_path}: video_bpm must be a finite JSON number, got {est!r}"
            )
        records.append(
            CohortRecord(
                method=method,
                key=CohortKey(skin_tone=tone, condition=condition, viewpoint=viewpoint),
                estimate_bpm=float(est),
                truth_bpm=load_ground_truth(hr_path=gt_path).mean_hr_bpm,
            )
        )
    return records


_COLUMNS = (*SKIN_TONES, *CONDITIONS, *VIEWPOINTS, "overall")


def _column_members(key: CohortKey) -> tuple[str, ...]:
    return (key.skin_tone, key.condition, key.viewpoint, "overall")


def cohort_report(records) -> dict:
    """Marginal agreement stats per method and cohort column.

    Returns {"columns": ..., "methods": {method: {column: AgreementStats or
    None}}, "delta_mae": {method: {column: float or None}}}. Empty cells are
    None (absent), never zero.
    """
    records = list(records)
    if not records:
        raise DataFormatError("no evaluation records")
    pairs: dict[str, dict[str, list[tuple[float, float]]]] = {}
    for rec in records:
        cols = pairs.setdefault(rec.method, {c: [] for c in _COLUMNS})
        for col in _column_members(rec.key):
            if col not in cols:
                raise DataFormatError(f"unknown cohort value {col!r}")
            cols[col].append((rec.estimate_bpm, rec.truth_bpm))
    methods: dict[str, dict[str, AgreementStats | None]] = {}
    for method, cols in pairs.items():
        methods[method] = {}
        for col, pts in cols.items():
            if not pts:
                methods[method][col] = None
                continue
            est, gt = zip(*pts)
            methods[method][col] = agreement(est, gt)
    delta: dict[str, dict[str, float | None]] = {}
    base = methods.get(AGGREGATE_METHOD)
    if base is not None:
        for method, cols in methods.items():
            if method == AGGREGATE_METHOD:
                continue
            delta[method] = {}
            for col in _COLUMNS:
                a, b = cols.get(col), base.get(col)
                delta[method][col] = None if a is None or b is None else a.mae - b.mae
    return {"columns": _COLUMNS, "methods": methods, "delta_mae": delta}


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float) and math.isnan(value):
        return "nan"
    return f"{value:.6g}"


def report_to_csv(report: dict) -> str:
    """Flatten a cohort report into the tabular CSV layout."""
    lines = ["method,statistic," + ",".join(report["columns"])]
    for method in sorted(report["methods"]):
        cols = report["methods"][method]
        for stat in ("mae", "se", "r"):
            row = [
                _cell(None if cols[c] is None else getattr(cols[c], stat))
                for c in report["columns"]
            ]
            lines.append(f"{method},{stat}_bpm" if stat != "r" else f"{method},r")
            lines[-1] += "," + ",".join(row)
    for method in sorted(report["delta_mae"]):
        row = [_cell(report["delta_mae"][method][c]) for c in report["columns"]]
        lines.append(f"{method},delta_mae_vs_{AGGREGATE_METHOD}," + ",".join(row))
    return "\n".join(lines) + "\n"


def scatter_csv(pairs) -> str:
    """Ground-truth vs estimate pairs for scatter plotting."""
    lines = ["gt,est"]
    for gt, est in pairs:
        lines.append(f"{float(gt)!r},{float(est)!r}")
    return "\n".join(lines) + "\n"


def bland_altman_csv(pairs) -> str:
    """Mean/difference pairs for Bland-Altman plotting."""
    lines = ["mean,diff"]
    for gt, est in pairs:
        gt, est = float(gt), float(est)
        lines.append(f"{(gt + est) / 2.0!r},{est - gt!r}")
    return "\n".join(lines) + "\n"
