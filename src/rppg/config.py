"""Run configuration: defaults, config-file parsing, flag overrides.

Config files are flat key=value text with INI-style sections (the
[pipeline] section holds every pipeline key); values are literal, with no
%-interpolation, and float values must be finite. Any key can be overridden by
the command-line flag of the same name; the RPPG_CONFIG environment
variable names a default config file used when --config is not given.
"""

from __future__ import annotations

import configparser
import dataclasses
import math
from dataclasses import dataclass
from pathlib import Path

from .errors import MissingInputError, UsageError

METHODS = ("aggregate", "snr", "proposed")
DIFFUSE_ESTIMATORS = ("bilateral", "min_subtract")
ENV_CONFIG_VAR = "RPPG_CONFIG"
REPORT_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class RunConfig:
    method: str = "proposed"
    window_s: float = 10.0
    hop_s: float = 5.0
    passband_lo_hz: float = 0.7
    passband_hi_hz: float = 3.5
    snr_halfwidth_hz: float = 0.1
    notch_hz: tuple[float, ...] = ()
    grid_rows: int = 8
    grid_cols: int = 8
    diffuse_estimator: str = "bilateral"
    bbox_smoothing: bool = False
    bbox_smoothing_alpha: float = 0.9

    def __post_init__(self):
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if f.type == "float" and not math.isfinite(value):
                raise UsageError(f"{f.name} must be finite, got {value}")
        if not all(math.isfinite(v) for v in self.notch_hz):
            raise UsageError(f"notch_hz must be finite, got {self.notch_hz}")
        if self.method not in METHODS:
            raise UsageError(f"method must be one of {METHODS}, got {self.method!r}")
        if self.diffuse_estimator not in DIFFUSE_ESTIMATORS:
            raise UsageError(
                f"diffuse_estimator must be one of {DIFFUSE_ESTIMATORS}, "
                f"got {self.diffuse_estimator!r}"
            )
        if self.window_s <= 0 or self.hop_s <= 0:
            raise UsageError("window_s and hop_s must be positive")
        if not 0 < self.passband_lo_hz < self.passband_hi_hz:
            raise UsageError("passband must satisfy 0 < lo < hi")
        if self.snr_halfwidth_hz <= 0:
            raise UsageError("snr_halfwidth_hz must be positive")
        if self.grid_rows < 1 or self.grid_cols < 1:
            raise UsageError("grid must be at least 1x1")
        if not 0.0 <= self.bbox_smoothing_alpha < 1.0:
            raise UsageError("bbox_smoothing_alpha must lie in [0, 1)")

    @property
    def passband_hz(self) -> tuple[float, float]:
        return (self.passband_lo_hz, self.passband_hi_hz)

    def as_dict(self) -> dict:
        d = dataclasses.asdict(self)
        d["notch_hz"] = list(self.notch_hz)
        return d


_FIELD_TYPES = {f.name: f.type for f in dataclasses.fields(RunConfig)}


def _parse_value(key: str, raw: str):
    raw = raw.strip()
    if key == "notch_hz":
        return tuple(float(v) for v in raw.replace(",", " ").split()) if raw else ()
    kind = _FIELD_TYPES[key]
    if kind == "bool":
        if raw.lower() in ("1", "true", "yes", "on"):
            return True
        if raw.lower() in ("0", "false", "no", "off"):
            return False
        raise UsageError(f"{key}: cannot parse boolean from {raw!r}")
    if kind == "int":
        return int(raw)
    if kind == "float":
        return float(raw)
    return raw


def load_run_config(path: Path | None, overrides: dict | None = None) -> RunConfig:
    """Defaults, then the config file, then explicit overrides."""
    values: dict = {}
    if path is not None:
        path = Path(path)
        if not path.exists():
            raise MissingInputError(f"{path}: config file not found")
        parser = configparser.ConfigParser(interpolation=None)
        try:
            parser.read_string(path.read_text())
        except configparser.Error as exc:
            raise UsageError(f"{path}: {exc}") from exc
        for section in parser.sections():
            for key, raw in parser.items(section):
                if key not in _FIELD_TYPES:
                    raise UsageError(f"{path}: unknown config key {key!r}")
                try:
                    values[key] = _parse_value(key, raw)
                except ValueError as exc:
                    raise UsageError(f"{path}: bad value for {key}: {exc}") from exc
    for key, val in (overrides or {}).items():
        if val is not None:
            values[key] = val
    try:
        return RunConfig(**values)
    except TypeError as exc:
        raise UsageError(str(exc)) from exc
