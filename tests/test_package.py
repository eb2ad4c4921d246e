import ast
import math
import re
from pathlib import Path

import wristsim
from wristsim.config import Condition, ExperimentConfig, default_conditions, load_config

README = Path(__file__).resolve().parents[1] / "README.md"


def test_public_names_resolve():
    """Every name in ``__all__`` exists, so a removed one cannot linger."""
    missing = [name for name in wristsim.__all__ if not hasattr(wristsim, name)]
    assert not missing
    assert len(set(wristsim.__all__)) == len(wristsim.__all__)
    namespace = {}
    exec("from wristsim import *", namespace)
    assert set(wristsim.__all__) <= set(namespace)


def test_readme_library_use_runs_as_written(capsys):
    """The README's "Library use" example runs unchanged and prints the two
    dicts it promises: the tracking metrics and the plane fit."""
    section = README.read_text().split("\n## Library use\n", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, "README.md", "exec"), {})
    printed = [ast.literal_eval(line) for line in capsys.readouterr().out.splitlines()]
    assert [sorted(d) for d in printed] == [
        ["effort_mean_Nm", "effort_std_Nm", "rmse_y_m", "rmse_z_m"],
        ["offset_rad", "rms_residual_rad", "tilt_y", "tilt_z"],
    ]


def test_readme_yaml_blocks_load_as_written(tmp_path):
    """The README's YAML blocks load unchanged: the ``sweep`` block is the
    six gravity-on clock conditions of the defaults, and the full example
    is the condition ``soft`` with every other section at its default."""
    blocks = re.findall(r"```yaml\n(.*?)```", README.read_text(), re.S)
    path = tmp_path / "cfg.yaml"
    path.write_text(next(b for b in blocks if b.startswith("sweep:")))
    assert list(load_config(path).conditions) == default_conditions()[2:]
    path.write_text(next(b for b in blocks if b.startswith("body:")))
    cfg, defaults = load_config(path), ExperimentConfig()
    assert cfg.conditions == (Condition("soft", stiffness=1000.0, torsion=math.radians(-25.0)),)
    for name in ("body", "band", "task", "sim", "seed", "output_dir"):
        assert getattr(cfg, name) == getattr(defaults, name), name
