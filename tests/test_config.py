import dataclasses
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rppg.cli import main
from rppg.config import METHODS, RunConfig, load_run_config, parse_value
from rppg.errors import MissingInputError, ToolkitError, UsageError


def test_defaults():
    # min_subtract is the only diffuse estimator, so RunConfig() is criteria 4
    # and 8's config: this pin stands in for their default-config twins.
    cfg = RunConfig()
    assert cfg.method == "proposed"
    assert cfg.window_s == 10.0
    assert cfg.hop_s == 5.0
    assert cfg.notch_hz == ()
    assert (cfg.grid_rows, cfg.grid_cols) == (8, 8)
    assert cfg.diffuse_estimator == "min_subtract"
    assert cfg.bbox_smoothing_alpha == 0.0


@pytest.mark.parametrize(
    "kw",
    [
        {"method": "pca"},
        {"diffuse_estimator": "retinex"},
        {"diffuse_estimator": "bilateral"},
        {"window_s": 0.0},
        {"hop_s": -1.0},
        {"grid_rows": 0},
        {"bbox_smoothing_alpha": 1.0},
        {"window_s": float("inf")},
        {"hop_s": float("nan")},
    ],
)
def test_invalid_configs_rejected(kw):
    with pytest.raises(UsageError, match="min_subtract" if "diffuse_estimator" in kw else None):
        RunConfig(**kw)


def test_all_methods_accepted():
    for m in METHODS:
        assert RunConfig(method=m).method == m


def test_as_dict_round_trips():
    cfg = RunConfig(method="snr", notch_hz=(1.0, 2.0))
    d = cfg.as_dict()
    assert d["method"] == "snr"
    assert d["notch_hz"] == [1.0, 2.0]
    assert RunConfig(**{**d, "notch_hz": tuple(d["notch_hz"])}) == cfg


def test_config_file_parsing(tmp_path):
    p = tmp_path / "run.ini"
    p.write_text(
        "[pipeline]\n"
        "method = snr\n"
        "grid_rows = 4\n"
        "grid_cols = 6\n"
        "notch_hz = 1.0, 2.5\n"
        "bbox_smoothing_alpha = 0.8\n"
    )
    cfg = load_run_config(p)
    assert cfg.method == "snr"
    assert (cfg.grid_rows, cfg.grid_cols) == (4, 6)
    assert cfg.notch_hz == (1.0, 2.5)
    assert cfg.bbox_smoothing_alpha == 0.8
    # untouched keys keep their defaults
    assert cfg.window_s == 10.0


def test_readme_config_example_loads(tmp_path):
    # README's [pipeline] example may name only settings that RunConfig has
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    (example,) = re.findall(r"```ini\n(\[pipeline\]\n.*?)```", readme, re.S)
    p = tmp_path / "pipeline.ini"
    p.write_text(example)
    assert load_run_config(p).as_dict().keys() >= set(re.findall(r"^(\w+) =", example, re.M))


def test_overrides_beat_file(tmp_path):
    p = tmp_path / "run.ini"
    p.write_text("[pipeline]\nmethod = snr\ngrid_rows = 4\n")
    cfg = load_run_config(p, {"method": "aggregate", "grid_cols": 2, "window_s": None})
    assert cfg.method == "aggregate"  # override wins
    assert cfg.grid_rows == 4  # file survives where no override
    assert cfg.grid_cols == 2
    assert cfg.window_s == 10.0  # None overrides are ignored


def test_no_file_just_overrides():
    cfg = load_run_config(None, {"method": "snr"})
    assert cfg.method == "snr"
    assert load_run_config(None) == RunConfig()


def test_missing_config_file(tmp_path):
    with pytest.raises(MissingInputError):
        load_run_config(tmp_path / "absent.ini")


def test_unknown_key_rejected(tmp_path):
    p = tmp_path / "run.ini"
    # an unknown key, and keys of settings the toolkit no longer has
    for line in ("windowing = 10", "passband_lo_hz = 0.7", "bbox_smoothing = true"):
        p.write_text(f"[pipeline]\n{line}\n")
        with pytest.raises(UsageError, match="unknown config key"):
            load_run_config(p)


def test_bad_values_rejected(tmp_path):
    for body in (
        "[pipeline]\ngrid_rows = many\n",
        "[pipeline]\nwindow_s = ten\n",
        "[pipeline]\nbbox_smoothing_alpha = maybe\n",
        "[pipeline]\nnotch_hz = 1.0, x\n",
        "[pipeline]\nwindow_s = nan\n",
        "[pipeline]\nnotch_hz = 1.0, inf\n",
        "[pipeline]\ndiffuse_estimator = bilateral\n",
        "not an ini file at all [",
    ):
        p = tmp_path / "run.ini"
        p.write_text(body)
        with pytest.raises(UsageError):
            load_run_config(p)


@pytest.mark.parametrize("line", ["method = 50%", "notch_hz = 1,%(x)s"])
def test_percent_values_are_literal_and_rejected(tmp_path, line):
    # no %-interpolation: the raw value reaches validation and fails there
    p = tmp_path / "run.ini"
    p.write_text(f"[pipeline]\n{line}\n")
    with pytest.raises(UsageError):
        load_run_config(p)
    argv = ["estimate", "--frames", str(tmp_path / "absent.raw"), "--landmarks",
            str(tmp_path / "absent.jsonl"), "--config", str(p)]
    assert main(argv) == 2


def test_notch_parsing_variants(tmp_path):
    p = tmp_path / "run.ini"
    p.write_text("[pipeline]\nnotch_hz =\n")
    assert load_run_config(p).notch_hz == ()
    p.write_text("[pipeline]\nnotch_hz = 0.5 1.5\n")
    assert load_run_config(p).notch_hz == (0.5, 1.5)


@pytest.mark.parametrize(
    "kind, raw, value",
    [
        ("float", " 2.5 ", 2.5),
        ("int", "7", 7),
        ("bool", "Yes", True),
        ("bool", "off", False),
        ("str", " snr ", "snr"),
        ("tuple[float, ...]", "0.5, 1.5 2", (0.5, 1.5, 2.0)),
        ("tuple[float, ...]", "", ()),
    ],
)
def test_parse_value_by_field_type(kind, raw, value):
    assert parse_value(kind, raw) == value


@pytest.mark.parametrize(
    "kind, raw",
    [
        ("float", "nan"),
        ("float", "-inf"),
        ("float", "1e400"),
        ("float", ""),
        ("int", "1.5"),
        ("bool", "maybe"),
        ("tuple[float, ...]", "1, nan"),
    ],
)
def test_parse_value_rejects_bad_text(kind, raw):
    with pytest.raises(ValueError):
        parse_value(kind, raw)


def test_choices_come_from_field_metadata():
    for f in dataclasses.fields(RunConfig):
        choices = f.metadata.get("choices")
        if choices is None:
            continue
        for choice in choices:
            assert getattr(RunConfig(**{f.name: choice}), f.name) == choice
        with pytest.raises(UsageError, match=f.name):
            RunConfig(**{f.name: "none-of-these"})


INI_LINES = st.one_of(
    st.sampled_from(
        ["[pipeline]", "[other]", "[DEFAULT]", "[", "windowing = 1", "hop_s=", "  grid_rows = 2", "; note"]
    ),
    st.builds(
        "{} = {}".format,
        st.sampled_from([f.name for f in dataclasses.fields(RunConfig)]),
        st.sampled_from(
            ["1", "0", "-1", "2.5", "nan", "1e400", "yes", "abc", "", "snr", "min_subtract",
             "0.5,1.0", "50%", "1,%(x)s"]
        ),
    ),
    st.text(max_size=15),
)


@settings(deadline=None, max_examples=200, derandomize=True)
@given(lines=st.lists(INI_LINES, max_size=6))
def test_ini_config_parses_or_exits_2(tmp_path_factory, lines):
    path = tmp_path_factory.mktemp("ini") / "run.ini"
    path.write_text("\n".join(lines) + "\n")
    try:
        cfg = load_run_config(path)
    except ToolkitError as exc:
        assert exc.exit_code == UsageError.exit_code
        return
    assert isinstance(cfg, RunConfig)
