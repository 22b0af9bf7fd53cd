"""Run configuration: defaults, config-file parsing, flag overrides.

Config files are flat key=value text with INI-style sections (the
[pipeline] section holds every pipeline key); values are literal, with no
%-interpolation. File values and command-line flags both go through
parse_value, keyed by the field's type name, and float values must be
finite. Any key can be overridden by the command-line flag of the same name;
the RPPG_CONFIG environment variable names a default config file used when
--config is not given. RunConfig checks every setting once, when it is made,
and the pipeline's stages trust it.
"""

from __future__ import annotations

import configparser
import dataclasses
import math
from dataclasses import dataclass, field
from pathlib import Path

from .errors import UsageError
from .ingest import read_text

METHODS = ("aggregate", "snr", "proposed")
# One estimator; the setting stays so that configs and reports naming it hold.
DIFFUSE_ESTIMATORS = ("min_subtract",)
ENV_CONFIG_VAR = "RPPG_CONFIG"
REPORT_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class RunConfig:
    method: str = field(default="proposed", metadata={"choices": METHODS})
    window_s: float = 10.0
    hop_s: float = 5.0
    notch_hz: tuple[float, ...] = field(
        default=(), metadata={"help": "comma-separated frequencies to suppress, e.g. 0.5,1.0"}
    )
    grid_rows: int = 8
    grid_cols: int = 8
    diffuse_estimator: str = field(default="min_subtract", metadata={"choices": DIFFUSE_ESTIMATORS})
    bbox_smoothing_alpha: float = field(
        default=0.0, metadata={"help": "EMA weight of the previous bbox, in [0, 1); 0 = off"}
    )

    def __post_init__(self):
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if f.type == "float" and not math.isfinite(value):
                raise UsageError(f"{f.name} must be finite, got {value}")
            choices = f.metadata.get("choices")
            if choices is not None and value not in choices:
                raise UsageError(f"{f.name} must be one of {choices}, got {value!r}")
        if not all(math.isfinite(v) for v in self.notch_hz):
            raise UsageError(f"notch_hz must be finite, got {self.notch_hz}")
        if self.window_s <= 0 or self.hop_s <= 0:
            raise UsageError("window_s and hop_s must be positive")
        if self.grid_rows < 1 or self.grid_cols < 1:
            raise UsageError("grid must be at least 1x1")
        if not 0.0 <= self.bbox_smoothing_alpha < 1.0:
            raise UsageError("bbox_smoothing_alpha must lie in [0, 1)")

    def as_dict(self) -> dict:
        d = dataclasses.asdict(self)
        d["notch_hz"] = list(self.notch_hz)
        return d


# The field type names (as annotated) that parse_value reads from text.
KINDS = ("float", "int", "bool", "str", "tuple[float, ...]")


def parse_value(kind: str, raw: str):
    """Parse a setting's text by its field type name; floats must be finite.

    Raises ValueError on text that is not a value of that type.
    """
    raw = raw.strip()
    if kind == "tuple[float, ...]":
        return tuple(parse_value("float", v) for v in raw.replace(",", " ").split())
    if kind == "bool":
        if raw.lower() in ("1", "true", "yes", "on"):
            return True
        if raw.lower() in ("0", "false", "no", "off"):
            return False
        raise ValueError(f"cannot parse boolean from {raw!r}")
    if kind == "int":
        return int(raw)
    if kind == "float":
        value = float(raw)
        if not math.isfinite(value):
            raise ValueError(f"{raw!r} is not a finite number")
        return value
    return raw


_FIELD_TYPES = {f.name: f.type for f in dataclasses.fields(RunConfig)}


def load_run_config(path: Path | None, overrides: dict | None = None) -> RunConfig:
    """Defaults, then the config file, then explicit overrides."""
    values: dict = {}
    if path is not None:
        parser = configparser.ConfigParser(interpolation=None)
        try:
            parser.read_string(read_text(path))
        except configparser.Error as exc:
            raise UsageError(f"{path}: {exc}") from exc
        for section in parser.sections():
            for key, raw in parser.items(section):
                if key not in _FIELD_TYPES:
                    raise UsageError(f"{path}: unknown config key {key!r}")
                try:
                    values[key] = parse_value(_FIELD_TYPES[key], raw)
                except ValueError as exc:
                    raise UsageError(f"{path}: bad value for {key}: {exc}") from exc
    for key, val in (overrides or {}).items():
        if val is not None:
            values[key] = val
    try:
        return RunConfig(**values)
    except TypeError as exc:
        raise UsageError(str(exc)) from exc
