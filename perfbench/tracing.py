"""Span tracing of the package from outside it.

The tracer replaces a function at the module attribute its caller looks it
up by (``rppg.pipeline.snr_weights``, ``rppg.combine.psd``, ...) with a
wrapper that records a span: name, start, end, parent and the growth of
``ru_maxrss`` across the call. Spans stay in memory and are written out
when the worker ends. A site whose attribute no longer exists is skipped
and listed as uncovered, so a refactor that moves a function loses that
span instead of breaking the trace.

Counts that repeat exactly between runs (calls, live cell-windows, frames
into ``diffuse``, input bytes) are recorded at the same boundaries.
"""

from __future__ import annotations

import functools
import importlib
import os
import resource
import time

# (module the caller looks the name up in, attribute, span name)
SITES = (
    ("rppg.cli", "_cmd_estimate", "cli.estimate"),
    ("rppg.cli", "_cmd_evaluate", "cli.evaluate"),
    ("rppg.cli", "_load_manifest", "cli.load_manifest"),
    ("rppg.cli", "load_run_config", "config.load_run_config"),
    ("rppg.cli", "load_frame_sequence", "ingest.load_frame_sequence"),
    ("rppg.cli", "load_landmarks", "ingest.load_landmarks"),
    ("rppg.cli", "read_timeseries_csv", "ingest.read_timeseries_csv"),
    ("rppg.cli", "run_pipeline", "pipeline.run_pipeline"),
    ("rppg.cli", "cohort_report", "evaluation.cohort_report"),
    ("rppg.cli", "report_to_csv", "evaluation.report_to_csv"),
    ("rppg.pipeline", "smooth_bboxes", "ingest.smooth_bboxes"),
    ("rppg.pipeline", "build_mask", "roi.build_mask"),
    ("rppg.pipeline", "build_grid", "roi.build_grid"),
    ("rppg.pipeline", "plan_windows", "heartrate.plan_windows"),
    ("rppg.pipeline", "estimate_diffuse_stack", "diffuse.estimate_diffuse_stack"),
    ("rppg.pipeline", "specular_free_min_subtract", "diffuse.specular_free_min_subtract"),
    ("rppg.pipeline", "diffuse_luminance", "diffuse.diffuse_luminance"),
    ("rppg.pipeline", "diffuse_weights", "diffuse.diffuse_weights"),
    ("rppg.pipeline", "facial_aggregate", "combine.facial_aggregate"),
    ("rppg.pipeline", "grid_traces", "combine.grid_traces"),
    ("rppg.pipeline", "snr_weights", "combine.snr_weights"),
    ("rppg.pipeline", "combine_benchmark_snr", "combine.combine_benchmark_snr"),
    ("rppg.pipeline", "combine_proposed", "combine.combine_proposed"),
    ("rppg.pipeline", "chrom", "chrom.chrom"),
    ("rppg.pipeline", "estimate_video_hr", "heartrate.estimate_video_hr"),
    ("rppg.combine", "chrom", "chrom.chrom"),
    ("rppg.combine", "psd", "heartrate.psd"),
    ("rppg.combine", "two_harmonic_snr", "heartrate.two_harmonic_snr"),
    ("rppg.heartrate", "psd", "heartrate.psd"),
    ("rppg.chrom", "bandpass_series", "heartrate.bandpass_series"),
)

SELF_TIME_SPANS = (
    "diffuse.estimate_diffuse_stack",
    "diffuse.specular_free_min_subtract",
    "diffuse.diffuse_luminance",
    "diffuse.diffuse_weights",
    "combine.snr_weights",
    "combine.combine_benchmark_snr",
    "combine.combine_proposed",
    "combine.grid_traces",
    "combine.facial_aggregate",
    "chrom.chrom",
    "heartrate.psd",
    "heartrate.two_harmonic_snr",
    "heartrate.bandpass_series",
    "heartrate.estimate_video_hr",
    "roi.build_mask",
    "roi.build_grid",
    "ingest.load_frame_sequence",
    "ingest.load_landmarks",
    "config.load_run_config",
    "pipeline.run_pipeline",
    "cli.estimate",
    "cli.evaluate",
    "evaluation.cohort_report",
)
CALL_COUNT_SPANS = (
    "chrom.chrom",
    "heartrate.psd",
    "heartrate.bandpass_series",
    "diffuse.estimate_diffuse_stack",
)
MAXRSS_LAYERS = ("diffuse", "ingest")


def _path_bytes(path) -> int:
    if os.path.isdir(path):
        return sum(e.stat().st_size for e in os.scandir(path) if e.is_file())
    return os.path.getsize(path)


def _live_cells(args) -> dict:
    return {"cell_windows": int(args[0].live.sum())}


def _frames(args) -> dict:
    return {"frames_in": len(args[0])}


def _input_bytes(args) -> dict:
    return {"bytes_in": _path_bytes(args[0])}


COUNTERS = {
    "combine.snr_weights": _live_cells,
    "diffuse.estimate_diffuse_stack": _frames,
    "diffuse.specular_free_min_subtract": _frames,
    "ingest.load_frame_sequence": _input_bytes,
    "ingest.load_landmarks": _input_bytes,
}


def _maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Tracer:
    """Records spans as [name, start_s, end_s, parent, maxrss_growth_kb, excluded_s].

    ``excluded_s`` is time the benchmark itself spent inside the span (the
    speed probe, see worker.py); it does not count as the span's self time.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self.uncovered: list[str] = []
        self._stack: list[int] = []

    def install(self) -> None:
        for module_name, attr, span in SITES:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if not callable(fn):
                self.uncovered.append(f"{module_name}.{attr}")
                continue
            setattr(module, attr, self._wrap(fn, span))

    def _wrap(self, fn, span: str):
        counter = COUNTERS.get(span)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rss0 = _maxrss_kb()
            record = [span, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1, 0, 0.0]
            # The probe's signal handler may run between any two lines: the
            # span is open from the moment its index is on the stack.
            self.spans.append(record)
            self._stack.append(len(self.spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                record[4] = _maxrss_kb() - rss0
                self._stack.pop()
            if counter is not None:
                self._count(span, counter, args)
            return result

        return traced

    def _count(self, span: str, counter, args) -> None:
        try:
            counted = counter(args)
        except (AttributeError, IndexError, TypeError, OSError):
            # The call's signature changed: keep the run, report the lost count.
            if f"{span} (count)" not in self.uncovered:
                self.uncovered.append(f"{span} (count)")
            return
        for key, value in counted.items():
            self.counts[key] = self.counts.get(key, 0) + value

    def exclude(self, seconds: float) -> None:
        """Takes ``seconds`` of benchmark work off the innermost open span."""
        if self._stack:
            self.spans[self._stack[-1]][5] += seconds

    def dump(self) -> dict:
        return {"spans": self.spans, "counts": self.counts, "uncovered": self.uncovered}


def layer_metrics(traces: list[dict]) -> dict[str, float]:
    """Per-layer numbers summed over the worker traces of one round."""
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    growth_kb = dict.fromkeys(MAXRSS_LAYERS, 0)
    counts: dict[str, int] = {}
    per_cell = {"chrom.chrom": 0, "heartrate.psd": 0}
    for trace in traces:
        spans = trace["spans"]
        child_s = [0.0] * len(spans)
        for name, start, end, parent, _, _ in spans:
            if parent >= 0:
                child_s[parent] += end - start
        for i, (name, start, end, parent, grown, excluded) in enumerate(spans):
            self_s[name] = self_s.get(name, 0.0) + (end - start) - child_s[i] - excluded
            calls[name] = calls.get(name, 0) + 1
            layer = name.split(".")[0]
            ancestors = _ancestor_names(spans, parent)
            if layer in growth_kb and not any(a.startswith(layer + ".") for a in ancestors):
                growth_kb[layer] += grown
            if name in per_cell and any(a.startswith("combine.") for a in ancestors):
                per_cell[name] += 1
        for key, value in trace["counts"].items():
            counts[key] = counts.get(key, 0) + value
    cell_windows = counts.get("cell_windows", 0)
    out = {f"{name}.self_s": self_s.get(name, 0.0) for name in SELF_TIME_SPANS}
    out.update({f"{name}.calls": float(calls.get(name, 0)) for name in CALL_COUNT_SPANS})
    out.update({f"{layer}.maxrss_growth_mb": growth_kb[layer] / 1024.0 for layer in MAXRSS_LAYERS})
    out["combine.cell_windows"] = float(cell_windows)
    out["diffuse.frames_in"] = float(counts.get("frames_in", 0))
    out["ingest.bytes_in"] = float(counts.get("bytes_in", 0))
    out["chrom.calls_per_cell_window"] = per_cell["chrom.chrom"] / cell_windows if cell_windows else 0.0
    out["heartrate.psd_calls_per_cell_window"] = (
        per_cell["heartrate.psd"] / cell_windows if cell_windows else 0.0
    )
    return out


def _ancestor_names(spans: list, parent: int) -> list[str]:
    names = []
    while parent >= 0:
        names.append(spans[parent][0])
        parent = spans[parent][3]
    return names
