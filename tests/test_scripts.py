import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "flag, value", [("--methods", "foo"), ("--diffuse-estimator", "bilatreal")]
)
def test_bias_study_refuses_an_unknown_choice_before_rendering(capsys, flag, value):
    study = load_script("run_bias_study")
    with pytest.raises(SystemExit) as exc:
        study.parse_args([flag, value, "--seeds", "1"])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err

