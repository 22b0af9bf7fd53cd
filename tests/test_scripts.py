import importlib.util
from pathlib import Path

import numpy as np
import pytest

from rppg.synth import bias_scene

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("flag, value", [("--methods", "foo")])
def test_bias_study_refuses_an_unknown_choice_before_rendering(capsys, flag, value):
    study = load_script("run_bias_study")
    with pytest.raises(SystemExit) as exc:
        study.parse_args([flag, value, "--seeds", "1"])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--grid", "0"], "grid must be at least 1x1"),
        (["--seeds", "0"], "--seeds must be at least 1"),
        (["--hr-seed", "-1"], "--hr-seed must be non-negative"),
        (["--f-mel", "1.5"], "f_mel must lie in (0, 1)"),
        (["--duration-s", "5"], "at least one 10 s window"),
        (["--exposure", "0"], "exposure must be positive"),
    ],
)
def test_bias_study_checks_its_settings_before_rendering(capsys, monkeypatch, flags, message):
    study = load_script("run_bias_study")

    def no_render(scene):
        raise AssertionError("a scene was rendered")

    monkeypatch.setattr(study, "render", no_render)
    with pytest.raises(SystemExit) as exc:
        study.main(["--seeds", "1", *flags])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


def test_bias_study_runs_a_tiny_study(tmp_path, monkeypatch):
    study = load_script("run_bias_study")
    rendered, render = [], study.render

    def recording_render(scene):
        rendered.append(scene)
        return render(scene)

    monkeypatch.setattr(study, "render", recording_render)
    csv = tmp_path / "bias.csv"
    argv = ["--seeds", "1", "--f-mel", "0.4", "--duration-s", "10", "--out", str(csv)]
    assert study.main(argv) == 0
    hr = float(np.random.default_rng(2024).uniform(55.0, 83.0, 1)[0])
    assert rendered == [bias_scene(0.4, hr, 0, 10.0, 1.1)]
    header, *rows = [line.split(",") for line in csv.read_text().splitlines()]
    assert header == ["method", "0.4"]
    assert [row[0] for row in rows] == list(study.METHODS)
    assert all(len(row) == 2 and np.isfinite(float(row[1])) for row in rows)
