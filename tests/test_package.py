import ast
import re
from pathlib import Path

import wristsim


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
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## Library use\n", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, "README.md", "exec"), {})
    printed = [ast.literal_eval(line) for line in capsys.readouterr().out.splitlines()]
    assert [sorted(d) for d in printed] == [
        ["effort_mean_Nm", "effort_std_Nm", "rmse_y_m", "rmse_z_m"],
        ["offset_rad", "rms_residual_rad", "tilt_y", "tilt_z"],
    ]
