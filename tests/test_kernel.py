"""The compiled trial kernel: bit-identical to the Python loop, and its build
cache."""

import math
import sysconfig

import numpy as np
import pytest

from oracles import simulate_scalar
from wristsim import _kernel
from wristsim.experiments import (
    ClockTask,
    ParamSchedule,
    build_clock_schedule,
    build_retune_schedule,
    run_trial,
)

RECORDS = ("plan_pos", "quat_des", "quat", "omega", "tau_cmd", "err_angle", "disp_max")


def test_kernel_matches_python_oracle(task, body, band, opts):
    """All seven records equal the Python loop's bit for bit, and the
    parameter streams equal the per-sample schedule lookups."""
    short = ClockTask(n_targets=2, dwell=0.1)
    # edge cases of the leg table: the first target is the center, and a
    # repeated target starts no new leg
    edges = ParamSchedule(
        duration=0.3, gravity=False,
        stiffness_breaks=((0.0, 9000.0), (0.1, 2000.0)),
        torsion_breaks=((0.0, 0.1), (0.15, -0.2)),
        target_breaks=((0.05, -1), (0.1, 1), (0.2, 1)),
    )
    cases = (
        (build_retune_schedule(task, band), task),
        (build_clock_schedule(short, band, stiffness=1000.0,
                              torsion=math.radians(-25.0)), short),
        (edges, task),
    )
    for sched, tsk in cases:
        traj = run_trial(sched, tsk, body, band, opts)
        ref = simulate_scalar(sched, tsk, body, band, opts)
        for name in RECORDS:
            got, want = getattr(traj, name), getattr(ref, name)
            assert np.array_equal(got, want), name
            assert got.tobytes() == want.tobytes(), name  # also the sign of zeros
        assert np.array_equal(traj.stiffness, [sched.stiffness_at(t) for t in traj.t])
        targets = [sched.target_at(t) for t in traj.t]
        assert np.array_equal(traj.target, [-1 if i is None else i for i in targets])


def test_missing_or_failing_compiler_raises_named_error(tmp_path, monkeypatch):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    get_config_var = sysconfig.get_config_var
    cc = str(tmp_path / "no-such-cc")
    monkeypatch.setattr(sysconfig, "get_config_var",
                        lambda name: cc if name == "CC" else get_config_var(name))
    with pytest.raises(_kernel.KernelCompileError, match="no C compiler"):
        _kernel.build()
    cc = f"{get_config_var('CC') or 'cc'} --no-such-flag"
    with pytest.raises(_kernel.KernelCompileError, match="no-such-flag"):
        _kernel.build()
    # no temporary file is left behind
    assert list((tmp_path / "wristsim").iterdir()) == []


def test_stale_source_copy_is_rebuilt(tmp_path, monkeypatch):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    source = _kernel.SOURCE.read_bytes()
    lib = _kernel.build()
    copy = lib.with_suffix(".c")
    assert lib.parent == tmp_path / "wristsim"
    assert lib.parent.stat().st_mode & 0o777 == 0o700
    assert copy.read_bytes() == source
    built = lib.stat().st_ino
    assert _kernel.build() == lib and lib.stat().st_ino == built  # cached
    copy.write_bytes(bytes(len(source)))  # same length, other bytes
    assert _kernel.build() == lib
    assert lib.stat().st_ino != built
    assert copy.read_bytes() == source
    assert sorted(p.name for p in lib.parent.iterdir()) == sorted([lib.name, copy.name])
