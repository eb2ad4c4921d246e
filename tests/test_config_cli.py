"""Config parsing, condition expansion, and the command-line contract."""

import contextlib
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import threading
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wristsim._rules import (BOOLEAN, COUNT, NON_EMPTY_STRING, NON_NEGATIVE, NON_NEGATIVE_INT,
                             NUMBER, POSITIVE, STRING, VECTOR, rules)
from wristsim.cli import LISTING_COLUMNS, TRAJECTORY_COLUMNS, main
from wristsim.config import (
    MAX_SAMPLES,
    Condition,
    ConfigError,
    ExperimentConfig,
    default_conditions,
    load_config,
)
from wristsim.dynamics import BodyModel
from wristsim.experiments import ClockTask, SimOptions
from wristsim.planner import BandParams

DEFAULT_NAMES = [
    "online_single_target",
    "g_off_K10000_phi0",
    "g_on_K10000_phi0",
    "g_on_K8000_phi0",
    "g_on_K1000_phi0",
    "g_on_K10000_phiN25",
    "g_on_K8000_phiN25",
    "g_on_K1000_phiN25",
]


def write(tmp_path, text, name="cfg.yaml"):
    path = tmp_path / name
    path.write_text(text)
    return path


# ---------------------------------------------------------------------------
# config loading
# ---------------------------------------------------------------------------


def test_empty_file_reproduces_defaults(tmp_path):
    cfg = load_config(write(tmp_path, ""))
    assert cfg == ExperimentConfig()
    assert [c.name for c in cfg.conditions] == DEFAULT_NAMES
    retune = cfg.condition("online_single_target")
    assert retune.kind == "retune" and retune.gravity
    neg = cfg.condition("g_on_K1000_phiN25")
    assert neg.stiffness == 1000.0
    assert neg.torsion == pytest.approx(math.radians(-25.0))


def test_default_condition_list_is_stable():
    assert [c.name for c in default_conditions()] == DEFAULT_NAMES


def test_unknown_keys_fail_with_dotted_path(tmp_path):
    with pytest.raises(ConfigError, match="unknown key 'body.masss'"):
        load_config(write(tmp_path, "body:\n  masss: 2.0\n"))
    with pytest.raises(ConfigError, match="unknown key 'speed'"):
        load_config(write(tmp_path, "speed: 11\n"))


def test_invalid_values_name_the_field(tmp_path):
    with pytest.raises(ConfigError, match="body.mass"):
        load_config(write(tmp_path, "body:\n  mass: -1.0\n"))
    with pytest.raises(ConfigError, match="task.dwell"):
        load_config(write(tmp_path, "task:\n  dwell: -0.5\n"))
    with pytest.raises(ConfigError, match="com_offset"):
        load_config(write(tmp_path, "body:\n  com_offset: [1.0, 2.0]\n"))
    with pytest.raises(ConfigError, match="not valid YAML"):
        load_config(write(tmp_path, "body: [unclosed\n"))


# (YAML text, the loader's message, and for a leaf that is a dataclass field
# the same value passed straight to that dataclass, with its case number in
# test_dataclasses_reject_what_a_file_is_refused_for)
LEAF_CASES = (
    ("conditions:\n  - name: a\n    stiffness: '1.0e6'\n",
     "conditions[0].stiffness: must be a positive number, got '1.0e6'",
     (Condition, {"name": "a", "stiffness": "1.0e6"}, 0)),
    ("conditions:\n  - name: a\n    gravity: 1\n",
     "conditions[0].gravity: expected a boolean", (Condition, {"name": "a", "gravity": 1}, 1)),
    ("conditions:\n  - name: a\n    kind: bogus\n",
     "conditions[0].kind: must be 'clock' or 'retune', got 'bogus'",
     (Condition, {"name": "a", "kind": "bogus"}, 2)),
    ("conditions:\n  - name: a\n    torsion_deg: ten\n",
     "conditions[0].torsion_deg: expected a number", None),
    ("sweep:\n  stiffness: [1000.0, '1.0e6']\n",
     "sweep.stiffness[1]: must be a positive number, got '1.0e6'",
     (Condition, {"name": "a", "stiffness": "1.0e6"}, 3)),
    ("sweep:\n  gravity: [true, 0]\n",
     "sweep.gravity[1]: expected a boolean", (Condition, {"name": "a", "gravity": 0}, 4)),
    ("sim:\n  substeps: 2.5\n",
     "sim.substeps: must be a positive integer, got 2.5", (SimOptions, {"substeps": 2.5}, 5)),
    ("sim:\n  substeps: 0\n",
     "sim.substeps: must be a positive integer", (SimOptions, {"substeps": 0}, 6)),
    ("task:\n  n_targets: 2.5\n",
     "task.n_targets: must be a positive integer, got 2.5", (ClockTask, {"n_targets": 2.5}, 7)),
    ("seed: -1\n", "seed: must be a non-negative integer, got -1",
     (ExperimentConfig, {"seed": -1}, 8)),
    ("seed: true\n", "seed: must be a non-negative integer, got True",
     (ExperimentConfig, {"seed": True}, 9)),
    ("body:\n  com_offset: [a, 0, 0]\n",
     "body.com_offset: expected a 3-vector of numbers, got ['a', 0, 0]",
     (BodyModel, {"com_offset": ["a", 0, 0]}, 10)),
    ("body:\n  gravity: [0, 0, null]\n",
     "body.gravity: expected a 3-vector of numbers", (BodyModel, {"gravity": [0, 0, None]}, 11)),
    # a retune condition runs a fixed schedule
    ("conditions:\n  - name: r\n    kind: retune\n    stiffness: 500.0\n"
     "    torsion_deg: 40.0\n",
     "conditions[0].stiffness: a retune condition runs its fixed schedule",
     (Condition, {"name": "r", "kind": "retune", "stiffness": 500.0,
                  "torsion": math.radians(40.0)}, 12)),
    ("conditions:\n  - name: r\n    kind: retune\n    torsion_deg: 40.0\n",
     "conditions[0].torsion_deg: a retune condition runs its fixed schedule", None),
    # non-finite numbers: each would otherwise fail later, as exit 1
    ("body:\n  mass: .inf\n", "body.mass: must be a positive number, got inf",
     (BodyModel, {"mass": math.inf}, 13)),
    ("task:\n  dwell: .inf\n",
     "task.dwell: must be a non-negative number, got inf", (ClockTask, {"dwell": math.inf}, 14)),
    ("conditions:\n  - name: a\n    stiffness: .inf\n",
     "conditions[0].stiffness: must be a positive number, got inf",
     (Condition, {"name": "a", "stiffness": math.inf}, 15)),
    ("sweep:\n  torsion_deg: [0.0, -.inf]\n",
     "sweep.torsion_deg[1]: expected a number, got -inf", None),
    # a swept name is made from the stiffness and torsion the file wrote
    ("sweep: {stiffness: [1.0e300]}\n",
     "sweep.stiffness, sweep.torsion_deg: must be at most 255 bytes in UTF-8", None),
    ("sweep: {torsion_deg: [1.0e300]}\n",
     "sweep.stiffness, sweep.torsion_deg: must be at most 255 bytes in UTF-8", None),
    # two swept conditions whose names are the same
    ("sweep: {gravity: [true, true]}\n",
     "sweep.gravity, sweep.stiffness, sweep.torsion_deg: two swept conditions are named "
     "g_on_K10000_phi0 (a name gives gravity as on or off, the stiffness rounded to a "
     "whole N*m/rad and the torsion rounded to a whole degree)", None),
    ("sweep: {torsion_deg: [-0.3, 0.3]}\n",
     "sweep.gravity, sweep.stiffness, sweep.torsion_deg: two swept conditions are named "
     "g_on_K10000_phi0 (a name gives gravity as on or off, the stiffness rounded to a "
     "whole N*m/rad and the torsion rounded to a whole degree)", None),
    ("body:\n  com_offset: [.nan, 0, 0]\n",
     "body.com_offset: expected a 3-vector of numbers, got [nan, 0, 0]",
     (BodyModel, {"com_offset": [math.nan, 0, 0]}, 16)),
    ("body:\n  length: 1" + "0" * 400 + "\n",  # an int past the float range
     "body.length: must be a positive number, got 1000", (BodyModel, {"length": 10**400}, 17)),
    # a task whose pointer errors would overflow the metrics' squares
    ("task:\n  plane_distance: 1.0e300\n",
     "task.plane_distance, task.radius: their sum must be at most 1.341e+154 m", None),
    # YAML 1.1's boolean words are strings in YAML 1.2
    ("conditions:\n  - name: a\n    gravity: yes\n",
     "conditions[0].gravity: expected a boolean, got 'yes'", None),
    ("sweep:\n  gravity: [true, off]\n",
     "sweep.gravity[1]: expected a boolean, got 'off'", None),
    ("conditions:\n  - name: a\n    gravity: !!bool on\n",
     "not valid YAML: not a YAML 1.2 boolean: 'on'", None),
    ("seed: !!int 0b11\n", "not valid YAML: not a YAML 1.2 integer: '0b11'", None),
    ("conditions: []\n", "conditions: expected a non-empty list",
     (ExperimentConfig, {"conditions": ()}, 29)),
)


def test_leaf_types_name_the_dotted_key(tmp_path, capsys):
    """Mistyped leaves exit 2 naming the key (a quoted number is text)."""
    for text, message, _ in LEAF_CASES:
        cfg = write(tmp_path, text)
        with pytest.raises(ConfigError, match=re.escape(message)):
            load_config(cfg)
        assert main(["run", str(cfg), "--out", str(tmp_path / "res")]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "res").exists()


def _field_message(message):
    """The loader's message without its dotted path: 'sweep.stiffness[1]: x'
    and 'conditions[0].stiffness: x' both become 'stiffness: x'."""
    key, rest = message.split(":", 1)
    return re.sub(r"\[\d+\]$", "", key.rsplit(".", 1)[-1]) + ":" + rest


def _case(cls, kwargs, number, message):
    """A case whose id keeps the number it was added with, so deleting a
    case renames no other; a new case takes the next unused number, 33."""
    return pytest.param(cls, kwargs, message, id=f"{cls.__name__}-kwargs{number}-{message}")


@pytest.mark.parametrize("cls, kwargs, message", [
    *(_case(*call, _field_message(message)) for _, message, call in LEAF_CASES if call),
    # values no file can hold, or that the loader alone once refused
    _case(BodyModel, {"com_offset": (1, 2)}, 18, "com_offset: expected a 3-vector of numbers"),
    _case(BodyModel, {"gravity": (0, 0)}, 19, "gravity: expected a 3-vector of numbers"),
    _case(BodyModel, {"mass": True}, 20, "mass: must be a positive number, got True"),
    _case(ClockTask, {"n_targets": True}, 21, "n_targets: must be a positive integer, got True"),
    _case(ClockTask, {"radius": math.inf}, 22, "radius: must be a positive number, got inf"),
    _case(SimOptions, {"dt": True}, 23, "dt: must be a positive number, got True"),
    _case(BandParams, {"max_accel": math.inf}, 24,
          "max_accel: must be a positive number, got inf"),
    _case(Condition, {"name": "r", "kind": "retune", "torsion": 0.3}, 25,
          "torsion: a retune condition runs its fixed schedule"),
    _case(Condition, {"name": "a", "torsion": math.nan}, 26,
          "torsion: expected a number, got nan"),
    _case(ExperimentConfig, {"output_dir": ""}, 27,
          "output_dir: expected a non-empty string, got ''"),
    _case(ClockTask, {"radius": 1e300}, 28,
          "plane_distance, radius: their sum must be at most 1.341e+154 m"),
    _case(ExperimentConfig, {"conditions": ("a",)}, 30,
          "conditions[0]: expected a Condition, got 'a'"),
    _case(Condition, {"name": "\ud800x"}, 31,
          "name: must be text that UTF-8 can encode, got '\\ud800x'"),
    _case(Condition, {"name": "a", "kind": 5}, 32, "kind: must be 'clock' or 'retune', got 5"),
])
def test_dataclasses_reject_what_a_file_is_refused_for(cls, kwargs, message):
    """Each parameter dataclass checks its own fields with the loader's
    rules, so the library refuses a value at construction, not mid-trial."""
    with pytest.raises(ConfigError, match=re.escape(message)):
        cls(**kwargs)


def test_removed_sim_keys_are_unknown(tmp_path, capsys):
    for key, value in (("engine", "fast"), ("method", "rk4"), ("rtol", 1e-8)):
        cfg = write(tmp_path, f"sim:\n  {key}: {value}\n")
        assert main(["run", str(cfg), "--out", str(tmp_path / "res")]) == 2
        assert f"unknown key 'sim.{key}'" in capsys.readouterr().err


def test_removed_band_keys_are_unknown(tmp_path, capsys):
    """A reach depends on ``max_accel`` alone; the band has no other key."""
    for key, value in (("virtual_mass", 1.0), ("stiffness", 8.0)):
        cfg = write(tmp_path, f"band:\n  {key}: {value}\n")
        assert main(["run", str(cfg), "--out", str(tmp_path / "res")]) == 2
        assert f"unknown key 'band.{key}'" in capsys.readouterr().err


@pytest.mark.parametrize("section", ["task:\n  radius: 0.05\n", "band:\n  max_accel: 6.0\n"],
                         ids=["radius", "max_accel"])
def test_retune_reach_ending_before_its_steps_exits_2(tmp_path, capsys, section):
    """The retune steps K at 0.2 and 0.3 s and phi at 0.35 s; a reach to
    target 0 that starts at 0.05 s and lasts 0.278 s (radius 0.05 m) or
    0.287 s (max_accel 6) lands first, and the retune would test nothing."""
    cfg = write(tmp_path, section)
    assert main(["run", str(cfg), "--out", str(tmp_path / "res")]) == 2
    err = capsys.readouterr().err
    assert "retune condition 'online_single_target': the reach to target 0 ends at" in err
    assert "at or before the last stiffness/torsion step at 0.35 s" in err
    assert "task.radius" in err and "band.max_accel" in err
    assert not (tmp_path / "res").exists()


@pytest.mark.parametrize("text", [
    "band: {max_accel: 1.7976931348623157e+308}\ntask: {dwell: 0}\n",
    "task: {radius: 5.0e-324, dwell: 0}\n",
], ids=["max_accel", "radius"])
def test_clock_legs_that_take_no_time_exit_2(tmp_path, capsys, text):
    """A reach rate that overflows makes a 0 s reach; with no dwell the clock
    schedule would last 0 s, which the config refuses by its keys before
    anything is written."""
    cfg = write(tmp_path, text + "conditions: [{name: a}]\n")
    assert main(["run", str(cfg), "--out", str(tmp_path / "res")]) == 2
    err = capsys.readouterr().err
    assert "clock condition 'a': its legs take no time" in err
    assert "task.radius" in err and "band.max_accel" in err and "task.dwell" in err
    assert not (tmp_path / "res").exists()


@pytest.mark.parametrize("text, values", [
    ("band: {max_accel: 5.0e-324}\ntask: {radius: 2.0}\nconditions: [{name: a}]\n",
     "task.radius (2 m) at band.max_accel (4.94066e-324 m/s^2)"),
    ("band: {max_accel: 1.0e-320}\ntask: {radius: 1.0e5}\n"
     "conditions: [{name: r, kind: retune}]\n",
     "task.radius (100000 m) at band.max_accel (9.99989e-321 m/s^2)"),
], ids=["clock", "retune"])
def test_reach_whose_rate_underflows_exits_2(tmp_path, capsys, text, values):
    """The other end of the legs that take no time: a reach rate that
    underflows to 0 never arrives, which the config refuses by its keys, for
    either kind, before anything is written."""
    cfg = write(tmp_path, text)
    assert main(["run", str(cfg), "--out", str(tmp_path / "res")]) == 2
    assert capsys.readouterr().err == (
        f"wristsim: task.radius, band.max_accel: the reach of {values} never arrives, "
        "as its rate underflows to 0; lower task.radius or raise band.max_accel\n"
    )
    assert [p for p in tmp_path.rglob("*") if p != cfg] == []


INERTIA_KEYS = "body.mass, body.length, body.width, body.thickness, body.com_offset: "


@pytest.mark.parametrize("body, message", [
    ("{mass: 5.0e-324}", INERTIA_KEYS + "the inertia about the joint is not positive definite"),
    ("{length: 1.7976931348623157e+308}",
     INERTIA_KEYS + "the inertia about the joint is not finite"),
    ("{com_offset: [0, 0, 1.7976931348623157e+308]}",
     INERTIA_KEYS + "the inertia about the joint is not finite"),
    ("{mass: 1.0e-310}", INERTIA_KEYS + "the inverse of the inertia about the joint is not finite"),
    ("{mass: 1.7976931348623157e+308}",
     "body.mass, body.gravity, body.com_offset: the gravity moment m*|g|*|c| overflows"),
], ids=["mass-tiny", "length-huge", "com_offset-huge", "mass-subnormal", "mass-huge"])
def test_body_the_plant_cannot_take_exits_2(tmp_path, capsys, monkeypatch, body, message):
    """A body whose inertia the plant cannot invert, or whose gravity moment
    overflows, is refused by the keys that set it, before anything is
    simulated or written."""
    import wristsim.cli as cli

    def never(cond, cfg):
        raise AssertionError("a body the plant cannot take was simulated")

    monkeypatch.setattr(cli, "simulate_condition", never)
    cfg = write(tmp_path, f"body: {body}\nconditions: [{{name: a}}]\n")
    with pytest.raises(ConfigError, match=re.escape(message)):
        load_config(cfg)
    assert main(["run", str(cfg), "--out", str(tmp_path / "res")]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "res").exists()


def test_short_reach_is_accepted_without_a_retune_condition(tmp_path):
    cfg = load_config(write(tmp_path, "task:\n  radius: 0.05\nconditions:\n  - name: a\n"))
    assert cfg.task.radius == 0.05
    assert [c.kind for c in cfg.conditions] == ["clock"]


CLOCK_SIZE_KEYS = ("task.n_targets", "task.dwell", "task.radius", "band.max_accel",
                   "sim.substeps", "sim.dt")


@pytest.mark.parametrize("section, size, name", [
    ("task:\n  n_targets: 100000\n", "178,539,817 samples", "g_off_K10000_phi0"),
    ("task:\n  radius: 1.0e7\n", "62,839,854 samples", "g_off_K10000_phi0"),
    ("sim:\n  dt: 1.0e-9\n", "2,500,000,001 samples", "online_single_target"),
    ("sim:\n  dt: 1.0e-6\n", "2,500,001 samples", "online_single_target"),
    ("sim:\n  substeps: 1000000000\n", "10,000,000,000,000 right-hand-side evaluations",
     "online_single_target"),
    # 1,786 samples, but 2,000,002 legs to build and check
    ("task:\n  n_targets: 1000001\nsim:\n  dt: 1000.0\n", "2,000,002 legs",
     "g_off_K10000_phi0"),
], ids=["n_targets", "radius", "dt", "dt-retune", "substeps", "legs"])
def test_config_too_large_to_run_exits_2(tmp_path, capsys, monkeypatch, section, size, name):
    """A trial's size is computed from the config, so a config past the cap
    is refused before anything is built, simulated or written.  The advice
    names the keys that set that kind's size: the clock's task and reach,
    and for the retune, whose schedule is fixed, only the sampling."""
    import wristsim.cli as cli

    def never(cond, cfg):
        raise AssertionError("an oversized condition was simulated")

    monkeypatch.setattr(cli, "simulate_condition", never)
    cfg = write(tmp_path, section)
    assert main(["run", str(cfg), "--out", str(tmp_path / "res")]) == 2
    err = capsys.readouterr().err
    assert f"condition {name!r} is too large to run: " in err and size in err
    keys = CLOCK_SIZE_KEYS if name.startswith("g_") else CLOCK_SIZE_KEYS[-2:]
    assert [key for key in CLOCK_SIZE_KEYS if key in err] == list(keys)
    assert not (tmp_path / "res").exists()


@pytest.mark.parametrize("text, name", [
    # the retune's 2.5 s at 5 s per sample rounds to no step
    ("sim: {dt: 5.0}\n", "online_single_target"),
    ("sim: {dt: 40.0}\nconditions: [{name: a}]\n", "a"),
], ids=["retune", "clock"])
def test_trial_of_one_sample_exits_2(tmp_path, capsys, monkeypatch, text, name):
    """A ``sim.dt`` that leaves a trial one sample is refused by its key and
    the condition, before anything is simulated or written."""
    import wristsim.cli as cli

    def never(cond, cfg):
        raise AssertionError("a one-sample condition was simulated")

    monkeypatch.setattr(cli, "simulate_condition", never)
    cfg = write(tmp_path, text)
    assert main(["run", str(cfg), "--out", str(tmp_path / "res")]) == 2
    err = capsys.readouterr().err
    assert f"condition {name!r} is too short to run: sim.dt" in err
    assert "at least 2" in err
    assert not (tmp_path / "res").exists()


def test_trial_of_two_samples_is_accepted():
    """One step of ``sim.dt`` is the shortest trial: 2.5 s for the retune,
    about 14.3 s for the default clock condition."""
    for kind, dt in (("retune", 2.5), ("clock", 10.0)):
        cfg = ExperimentConfig(sim=SimOptions(dt=dt), conditions=(Condition("c", kind=kind),))
        assert cfg.trial_size(cfg.conditions[0])[0] == 2


def test_task_far_below_the_overflow_bound_runs(tmp_path):
    """A 1e150 m lever arm sags some 5e144 m under gravity, and its errors
    still square finitely."""
    cfg = write(tmp_path, "task: {n_targets: 1, dwell: 0, plane_distance: 1.0e150}\n"
                          "conditions: [{name: far}]\n")
    assert main(["run", str(cfg), "--out", str(tmp_path / "res")]) == 0
    metrics = json.loads((tmp_path / "res" / "far" / "metrics.json").read_text())
    assert 1e144 < metrics["rmse_z_m"] < 1e146


def test_size_cap_admits_the_trial_at_the_cap():
    """A clock leg lasts 0.8927 s by default, two per target, so 1,120
    targets are 1,999,647 samples and 1,121 targets are 2,001,432."""
    for n_targets, admitted in ((1120, True), (1121, False)):
        kwargs = dict(task=ClockTask(n_targets=n_targets), conditions=(Condition("c"),))
        if admitted:
            cfg = ExperimentConfig(**kwargs)
            assert cfg.trial_size(cfg.conditions[0])[0] <= MAX_SAMPLES
        else:
            with pytest.raises(ConfigError, match="'c' is too large to run"):
                ExperimentConfig(**kwargs)


def test_trial_size_counts_what_the_trial_runs():
    """The computed size is the sample count, schedule legs and RK4
    evaluation count of the trial the condition runs, for either kind."""
    from wristsim.cli import simulate_condition

    cfg = ExperimentConfig(
        task=ClockTask(n_targets=3, dwell=0.05), sim=SimOptions(substeps=3),
        conditions=(Condition("clock"), Condition("retune", kind="retune")),
    )
    for cond in cfg.conditions:
        samples = len(simulate_condition(cond, cfg))
        legs = len(cond.schedule(cfg.task, cfg.band).target_breaks)
        assert cfg.trial_size(cond) == (samples, legs, (samples - 1) * 3 * 4)


def test_sections_override_defaults(tmp_path):
    cfg = load_config(
        write(
            tmp_path,
            "body:\n  mass: 2.0\n"
            "task:\n  n_targets: 4\n  dwell: 0\n"
            "sim:\n  substeps: 5\n"
            "output_dir: out\nseed: 7\n",
        )
    )
    assert cfg.body.mass == 2.0
    assert cfg.task.n_targets == 4
    assert cfg.task.dwell == 0  # zero dwell is valid, as for ClockTask
    assert cfg.sim.substeps == 5
    assert cfg.output_dir == "out"
    assert cfg.seed == 7
    # untouched sections keep their defaults
    assert cfg.band == ExperimentConfig().band


@pytest.mark.parametrize("number", ["1e-3", "1E-3", "+1e-3", "1.0e-3"])
def test_numbers_in_exponent_form_load_as_floats(tmp_path, number):
    """YAML 1.1 reads ``1e-3`` as a string; the loader reads it as YAML 1.2
    does, and a plain integer stays an integer."""
    cfg = load_config(write(tmp_path, f"sim: {{dt: {number}}}\ntask: {{n_targets: 8}}\n"))
    assert cfg.sim.dt == 0.001
    assert type(cfg.task.n_targets) is int
    # so such a name is a number, and no name
    with pytest.raises(ConfigError, match=r"conditions\[0\]\.name"):
        load_config(write(tmp_path, f"conditions: [{{name: {number}}}]\n"))


@pytest.mark.parametrize("number, value", [
    ("010", 10), ("+010", 10), ("0o10", 8),
    ("0x8", 8),  # as YAML 1.1 reads it too: hex keeps its value
], ids=["leading-zero", "signed-leading-zero", "octal", "hex"])
def test_integers_load_as_yaml_1_2_reads_them(tmp_path, number, value):
    """YAML 1.1 reads ``010`` as eight and refuses ``0o10``; the loader reads
    integers as YAML 1.2 does."""
    seed = load_config(write(tmp_path, f"seed: {number}\n")).seed
    assert type(seed) is int and seed == value


@pytest.mark.parametrize("text, message", [
    ("seed: 1_000", "seed: must be a non-negative integer, got '1_000'"),
    ("seed: 0b11", "seed: must be a non-negative integer, got '0b11'"),
    ("task: {dwell: 1:30}", "task.dwell: must be a non-negative number, got '1:30'"),
    ("task: {dwell: 1:30.0}", "task.dwell: must be a non-negative number, got '1:30.0'"),
    ("task: {dwell: 1_0.5}", "task.dwell: must be a non-negative number, got '1_0.5'"),
], ids=["separated-int", "binary", "sexagesimal", "sexagesimal-float", "separated-float"])
def test_yaml_1_1_number_forms_are_refused(tmp_path, text, message):
    """YAML 1.1 reads these as 1000, 3, 90, 90.0 and 10.5; YAML 1.2 reads
    them as strings, which the field's rule refuses with the dotted key
    (``wristsim run`` exits 2)."""
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        load_config(write(tmp_path, text + "\n"))


def test_booleans_load_as_yaml_1_2_reads_them(tmp_path):
    """Booleans are YAML 1.2's six forms, also under an explicit ``!!bool``;
    YAML 1.1's ``yes``, ``no``, ``on`` and ``off`` are strings, and so names."""
    forms = ["true", "True", "TRUE", "!!bool true", "false", "False", "FALSE", "!!bool FALSE"]
    cfg = load_config(write(tmp_path, "conditions:\n" + "".join(
        f"  - {{name: c{i}, gravity: {form}}}\n" for i, form in enumerate(forms))))
    assert [c.gravity for c in cfg.conditions] == [True] * 4 + [False] * 4
    cfg = load_config(write(tmp_path, "conditions: [{name: on}, {name: off}, {name: yes}]\n"))
    assert [c.name for c in cfg.conditions] == ["on", "off", "yes"]


def test_explicit_conditions(tmp_path):
    cfg = load_config(
        write(
            tmp_path,
            "conditions:\n"
            "  - name: still\n    gravity: false\n"
            "  - name: soft\n    stiffness: 500.0\n    torsion_deg: -10.0\n",
        )
    )
    assert [c.name for c in cfg.conditions] == ["still", "soft"]
    assert not cfg.conditions[0].gravity
    assert cfg.conditions[1].torsion == pytest.approx(math.radians(-10.0))
    with pytest.raises(ConfigError, match="name"):
        load_config(write(tmp_path, "conditions:\n  - gravity: false\n"))


def test_experiment_config_holds_its_conditions_as_a_tuple():
    conditions = [Condition("a"), Condition("b", gravity=False)]
    assert ExperimentConfig(conditions=conditions).conditions == tuple(conditions)


def test_sweep_expands_cartesian_product(tmp_path):
    cfg = load_config(
        write(
            tmp_path,
            "sweep:\n"
            "  gravity: [true, false]\n"
            "  torsion_deg: [0.0, -25.0]\n"
            "  stiffness: [10000.0, 1000.0]\n",
        )
    )
    names = [c.name for c in cfg.conditions]
    assert len(names) == 8
    assert names[0] == "g_on_K10000_phi0"
    assert "g_off_K1000_phiN25" in names
    assert len(set(names)) == 8


def test_stiffness_only_sweep_gives_one_condition_per_level(tmp_path):
    cfg = load_config(
        write(tmp_path, "sweep:\n  stiffness: [10000.0, 8000.0, 1000.0]\n")
    )
    assert [c.name for c in cfg.conditions] == [
        "g_on_K10000_phi0",
        "g_on_K8000_phi0",
        "g_on_K1000_phi0",
    ]


def test_conditions_and_sweep_are_exclusive(tmp_path):
    with pytest.raises(ConfigError, match="not both"):
        load_config(
            write(
                tmp_path,
                "conditions:\n  - name: a\n"
                "sweep:\n  stiffness: [1000.0]\n",
            )
        )


def test_duplicate_condition_names_rejected(tmp_path):
    with pytest.raises(ConfigError, match="duplicate"):
        load_config(
            write(tmp_path, "conditions:\n  - name: a\n  - name: a\n")
        )


def test_clock_config_lists_the_default_clock_conditions():
    """configs/clock.yaml is the default battery without the retune trial."""
    path = Path(__file__).resolve().parents[1] / "configs" / "clock.yaml"
    expected = tuple(c for c in default_conditions() if c.kind == "clock")
    assert load_config(path).conditions == expected


def test_unknown_condition_lookup_lists_known():
    cfg = ExperimentConfig()
    with pytest.raises(ConfigError, match="online_single_target"):
        cfg.condition("nope")


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------

# one-target task keeps the end-to-end runs around a quarter second each
QUICK = (
    "task:\n  n_targets: 1\n  dwell: 0.05\n"
    "conditions:\n  - name: quick\n    gravity: false\n"
)


def test_cli_runs_named_condition_into_out_dir(tmp_path, capsys):
    cfg = write(tmp_path, QUICK)
    out = tmp_path / "res"
    assert main(["run", str(cfg), "--condition", "quick", "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert printed.startswith("quick: rmse_y=")
    cond_dir = out / "quick"
    for fname in ("trajectory.csv", "metrics.json",
                  "listing_measured.csv", "listing_desired.csv"):
        assert (cond_dir / fname).is_file()
    assert (out / "summary.json").is_file()


def test_default_battery_files_match_the_recorded_digests(tmp_path, capsys):
    """Every file of the default battery, the eight conditions' four each and
    the summary, is byte-identical to the digest the benchmark recorded."""
    reference = json.loads(
        (Path(__file__).resolve().parents[1] / "perfbench" / "reference.json").read_text()
    )
    out = tmp_path / "res"
    assert main(["run", "--out", str(out)]) == 0
    capsys.readouterr()
    files = reference["battery"]["files"]
    assert len(files) == 33
    written = sorted(p.relative_to(out).as_posix() for p in out.rglob("*") if p.is_file())
    assert written == sorted(files)
    for key, digest in files.items():
        assert hashlib.sha256((out / key).read_bytes()).hexdigest() == digest, key


def test_cli_unknown_condition_exits_2(tmp_path, capsys):
    cfg = write(tmp_path, QUICK)
    assert main(["run", str(cfg), "--condition", "nope"]) == 2
    assert "unknown condition" in capsys.readouterr().err


def test_cli_bad_config_exits_2(tmp_path, capsys):
    cfg = write(tmp_path, "body:\n  masss: 1\n")
    assert main(["run", str(cfg)]) == 2
    assert "unknown key" in capsys.readouterr().err
    assert main(["run", str(tmp_path / "missing.yaml")]) == 2


def test_config_that_is_not_utf8_exits_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_bytes(b"# r\xe9glages\n" + QUICK.encode())
    assert main(["run", str(cfg), "--out", str(tmp_path / "res")]) == 2
    assert f"{cfg}: not UTF-8 text" in capsys.readouterr().err
    assert [p for p in tmp_path.rglob("*") if p != cfg] == []


@pytest.mark.parametrize("text, line, key", [
    ("task: {n_targets: 1, dwell: 0.05, n_targets: 2}\n"
     "conditions:\n  - name: quick\n", 1, "n_targets"),
    (QUICK + "    gravity: true\n", 7, "gravity"),
    (QUICK + "task:\n  n_targets: 2\n", 7, "task"),
], ids=["flow", "block", "section"])
def test_key_given_twice_exits_2(tmp_path, capsys, text, line, key):
    """YAML's own loader keeps the last of a repeated key; the config loader
    refuses the file instead, naming the key and the line it repeats on."""
    cfg = write(tmp_path, text)
    assert main(["run", str(cfg), "--out", str(tmp_path / "res")]) == 2
    assert f"{cfg}, line {line}: key {key!r} given twice" in capsys.readouterr().err
    assert [p for p in tmp_path.rglob("*") if p != cfg] == []


@pytest.mark.parametrize(
    "name", ["../escaped", "", ".", "..", "summary.json", "a/b", "a\\b", "a\0b"]
)
def test_condition_name_outside_one_folder_exits_2(tmp_path, capsys, name):
    """A condition name is its folder under output_dir: a name that is not
    one plain path component stops the run before any simulation."""
    cfg = write(tmp_path, QUICK.replace("name: quick", f"name: {json.dumps(name)}"))
    assert main(["run", str(cfg), "--out", str(tmp_path / "res")]) == 2
    err = capsys.readouterr().err
    assert "conditions[0].name: must be one path component" in err
    assert f"got {name!r}" in err
    assert [p for p in tmp_path.rglob("*") if p != cfg] == []


def test_condition_name_past_the_longest_folder_name_exits_2(tmp_path, capsys):
    """A folder name holds at most 255 bytes, so a longer condition name is
    refused by its key before any condition runs or any folder is made."""
    assert Condition("a" * 255).name == "a" * 255
    (tmp_path / ("a" * 255)).mkdir()
    for name in ("a" * 256, "\u00e9" * 128):  # 256 bytes in UTF-8
        with pytest.raises(ConfigError, match="name: must be at most 255 bytes in UTF-8"):
            Condition(name)
    cfg = write(tmp_path, f"conditions: [{{name: r, kind: retune}}, {{name: {'a' * 300}}}]\n")
    assert main(["run", str(cfg), "--out", str(tmp_path / "res")]) == 2
    err = capsys.readouterr().err
    assert "conditions[1].name: must be at most 255 bytes in UTF-8" in err
    assert "got 300 bytes" in err
    assert not (tmp_path / "res").exists()


def test_condition_name_utf8_cannot_encode_exits_2(tmp_path, capsys, monkeypatch):
    """A name holding a lone surrogate has no UTF-8 form, so it can name no
    folder: it is refused by its key before any trial runs or folder is made."""
    import wristsim.cli as cli

    def never(cond, cfg):
        raise AssertionError("a condition whose name UTF-8 cannot encode was simulated")

    monkeypatch.setattr(cli, "simulate_condition", never)
    cfg = write(tmp_path, QUICK.replace("name: quick", 'name: "\\ud800x"'))
    assert main(["run", str(cfg), "--out", str(tmp_path / "res")]) == 2
    assert capsys.readouterr().err == (
        "wristsim: conditions[0].name: must be text that UTF-8 can encode, got '\\ud800x'\n")
    assert [p for p in tmp_path.rglob("*") if p != cfg] == []


def test_empty_out_exits_2(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = write(tmp_path, QUICK)
    assert main(["run", str(cfg), "--out", ""]) == 2
    assert "output_dir: expected a non-empty string, got ''" in capsys.readouterr().err
    assert [p for p in tmp_path.rglob("*") if p != cfg] == []


def test_yaml_is_imported_only_to_read_a_file(tmp_path):
    """Importing the command line and building its default config imports
    neither what a step loads only when it runs (``yaml`` to read a file,
    ``concurrent.futures`` to write CSVs) nor what the package never needs
    (``subprocess``, ``hashlib``): each adds import time and resident memory
    to every run, ``hashlib`` some 3.6 MB of peak RSS after numpy (26.8 to
    30.4 MB on x86-64 Linux, Python 3.11)."""
    root = Path(__file__).resolve().parents[1]
    code = (
        "import sys\n"
        "import wristsim.cli\n"
        "from wristsim.config import ExperimentConfig, load_config\n"
        "ExperimentConfig()\n"
        "for name in ('yaml', 'concurrent.futures', 'subprocess', 'hashlib'):\n"
        "    assert name not in sys.modules, name + ' imported'\n"
        "load_config(sys.argv[1])\n"
        "assert 'yaml' in sys.modules\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, str(write(tmp_path, ""))],
        env={**os.environ, "PYTHONPATH": str(root / "src")},
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr


def test_trajectory_csv_layout(tmp_path):
    cfg = write(tmp_path, QUICK + "output_dir: " + str(tmp_path / "res") + "\n")
    assert main(["run", str(cfg)]) == 0
    path = tmp_path / "res" / "quick" / "trajectory.csv"
    header = path.read_text().splitlines()[0]
    assert header == ",".join(TRAJECTORY_COLUMNS)
    assert len(TRAJECTORY_COLUMNS) == 24
    # every column name carries its unit except the dimensionless quaternions
    for col in TRAJECTORY_COLUMNS:
        assert col == "t_s" or col.startswith(("q_", "qd_")) or col.endswith(
            ("_m", "_rad_s", "_Nm")
        )
    table = np.loadtxt(path, delimiter=",", skiprows=1)
    assert table.shape[1] == 24
    assert np.all(np.isfinite(table))
    np.testing.assert_allclose(np.diff(table[:, 0]), 1e-3, atol=1e-12)

    listing = tmp_path / "res" / "quick" / "listing_measured.csv"
    assert listing.read_text().splitlines()[0] == ",".join(LISTING_COLUMNS)
    cloud = np.loadtxt(listing, delimiter=",", skiprows=1)
    assert cloud.shape[1] == 3
    # degrees: the single reach tilts the pointer about 18 deg at peak
    assert 10.0 < np.max(np.abs(cloud)) < 45.0


def test_metrics_json_schema(tmp_path):
    cfg = write(tmp_path, QUICK)
    out = tmp_path / "res"
    assert main(["run", str(cfg), "--out", str(out)]) == 0
    metrics = json.loads((out / "quick" / "metrics.json").read_text())
    for key in (
        "condition", "kind", "gravity", "stiffness_Nm_rad", "torsion_rad",
        "samples", "rmse_y_m", "rmse_z_m", "rmse_target_y_m",
        "rmse_target_z_m", "effort_mean_Nm", "effort_std_Nm",
        "plane_fit", "plane_fit_desired",
    ):
        assert key in metrics
    assert metrics["condition"] == "quick"
    assert metrics["kind"] == "clock"
    summary = json.loads((out / "summary.json").read_text())
    assert [m["condition"] for m in summary] == ["quick"]


def test_metric_functions_return_their_metrics_json_entries(tmp_path):
    """``compute_metrics``, ``target_rmse`` and ``fit_plane`` return the
    entries that ``metrics.json`` writes, under the same keys and with the
    same values."""
    from wristsim.cli import simulate_condition
    from wristsim.experiments import compute_metrics, extract_listing, fit_plane, target_rmse

    # three targets, so that both surfaces span a plane
    cfg_path = write(tmp_path, QUICK.replace("n_targets: 1", "n_targets: 3"))
    assert main(["run", str(cfg_path), "--out", str(tmp_path / "res")]) == 0
    written = json.loads((tmp_path / "res" / "quick" / "metrics.json").read_text())
    cfg = load_config(cfg_path)
    traj = simulate_condition(cfg.conditions[0], cfg)
    entries = {**compute_metrics(traj), **target_rmse(traj, cfg.task)}
    assert set(entries) == {"rmse_y_m", "rmse_z_m", "effort_mean_Nm", "effort_std_Nm",
                            "rmse_target_y_m", "rmse_target_z_m"}
    assert entries == {key: written[key] for key in entries}
    assert fit_plane(extract_listing(traj.quat)) == written["plane_fit"]
    assert fit_plane(extract_listing(traj.quat_des)) == written["plane_fit_desired"]
    assert set(written["plane_fit"]) == {"tilt_y", "tilt_z", "offset_rad", "rms_residual_rad"}


def test_surface_that_spans_no_plane_writes_a_null_fit(tmp_path):
    """A measured table whose rows are collinear fits to ``None``, and
    ``metrics.json`` writes it as ``null`` beside the desired fit."""
    from wristsim.cli import condition_metrics, simulate_condition, write_json
    from wristsim.experiments import extract_listing

    cfg = load_config(write(tmp_path, QUICK.replace("n_targets: 1", "n_targets: 3")))
    cond = cfg.conditions[0]
    traj = simulate_condition(cond, cfg)
    y = np.linspace(-0.1, 0.1, 50)
    collinear = np.column_stack([np.zeros(50), y, 2.0 * y])
    metrics = condition_metrics(cond, cfg, traj, collinear, extract_listing(traj.quat_des))
    write_json(tmp_path / "metrics.json", metrics)
    text = (tmp_path / "metrics.json").read_text()
    assert '"plane_fit": null' in text
    assert set(json.loads(text)["plane_fit_desired"]) == {"tilt_y", "tilt_z", "offset_rad",
                                                          "rms_residual_rad"}


def test_repeated_runs_are_byte_identical(tmp_path):
    cfg = write(tmp_path, QUICK)
    outs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        assert main(["run", str(cfg), "--out", str(out)]) == 0
        outs.append(out)
    for rel in (
        "quick/trajectory.csv", "quick/metrics.json",
        "quick/listing_measured.csv", "quick/listing_desired.csv",
        "summary.json",
    ):
        a = (outs[0] / rel).read_bytes()
        b = (outs[1] / rel).read_bytes()
        assert a == b, f"{rel} differs between runs"


def test_stiffness_spelling_does_not_reach_the_outputs(tmp_path, capsys):
    """``stiffness: 1000`` and ``stiffness: 1000.0`` are one condition: a
    condition carries its stiffness and torsion as floats."""
    cond = Condition("c", stiffness=1000, torsion=0)
    assert type(cond.stiffness) is float and type(cond.torsion) is float
    trees = []
    for spelling in ("1000", "1000.0"):
        cfg = write(tmp_path, QUICK.replace("gravity: false\n", f"stiffness: {spelling}\n"),
                    name=f"k{spelling}.yaml")
        out = tmp_path / spelling
        assert main(["run", str(cfg), "--out", str(out)]) == 0
        trees.append({p.relative_to(out): p.read_bytes() for p in out.rglob("*") if p.is_file()})
    capsys.readouterr()
    assert len(trees[0]) == 5 and trees[0] == trees[1]


def test_unstable_run_exits_1_without_outputs(tmp_path, capsys):
    """A stiffness far past the RK4 stability bound blows up within a few
    samples: the run stops with the condition named and writes no files."""
    cfg = write(
        tmp_path,
        "task:\n  n_targets: 1\n  dwell: 0.05\n"
        "conditions:\n  - name: stiff\n    stiffness: 1.0e+6\n",
    )
    out = tmp_path / "res"
    assert main(["run", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "stiff: non-finite state at sample" in err
    assert not (out / "stiff" / "trajectory.csv").exists()
    assert not (out / "stiff" / "metrics.json").exists()
    assert not (out / "summary.json").exists()


def poison_row_7(monkeypatch):
    """Make every simulated trajectory hold an infinity in row 7 of xd_y_m."""
    import wristsim.cli as cli

    simulate = cli.simulate_condition

    def poisoned(cond, cfg):
        traj = simulate(cond, cfg)
        traj.plan_pos[7, 1] = np.inf
        return traj

    monkeypatch.setattr(cli, "simulate_condition", poisoned)


def test_non_finite_table_exits_1_without_the_file(tmp_path, capsys, monkeypatch):
    """A trajectory column with a value that is not finite is refused by
    the formatter, naming the file and the row, and its file is removed."""
    poison_row_7(monkeypatch)
    cfg = write(tmp_path, QUICK)
    out = tmp_path / "res"
    assert main(["run", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "quick/trajectory.csv: row 7 holds a value that is not finite; nothing written" in err
    assert not (out / "quick" / "trajectory.csv").exists()


def test_refused_table_removes_an_earlier_runs_file(tmp_path, capsys, monkeypatch):
    """A rerun into the same folder whose trajectory is refused leaves no
    ``trajectory.csv``, not even the one the first run wrote."""
    cfg = write(tmp_path, QUICK)
    out = tmp_path / "res"
    assert main(["run", str(cfg), "--out", str(out)]) == 0
    assert (out / "quick" / "trajectory.csv").is_file()
    poison_row_7(monkeypatch)
    assert main(["run", str(cfg), "--out", str(out)]) == 1
    assert "trajectory.csv: row 7 " in capsys.readouterr().err
    assert not (out / "quick" / "trajectory.csv").exists()


# two quick conditions; a run writes each one's CSV rows behind the next
TWO = (
    "task:\n  n_targets: 1\n  dwell: 0.05\n"
    "conditions:\n  - name: first\n    gravity: false\n  - name: second\n"
)
CONDITION_FILES = (
    "trajectory.csv", "listing_measured.csv", "listing_desired.csv", "metrics.json",
)


def test_failure_leaves_earlier_conditions_complete(tmp_path, capsys):
    """When the second condition blows up, the first one's files are
    complete, the second gets none, no summary is written and no writer
    thread is left."""
    cfg = write(tmp_path, TWO.replace("name: second\n", "name: second\n    stiffness: 1.0e+6\n"))
    out, alone = tmp_path / "res", tmp_path / "alone"
    before = threading.active_count()
    assert main(["run", str(cfg), "--out", str(out)]) == 1
    assert threading.active_count() == before
    assert "second: non-finite state at sample" in capsys.readouterr().err
    assert main(["run", str(cfg), "--condition", "first", "--out", str(alone)]) == 0
    for name in CONDITION_FILES:
        assert (out / "first" / name).read_bytes() == (alone / "first" / name).read_bytes()
    assert not (out / "second").exists()
    assert not (out / "summary.json").exists()


def test_writer_error_is_not_lost(tmp_path, capsys, monkeypatch):
    """An error writing rows behind the run stops it before the next
    condition's folder, exits 2, and leaves no writer thread behind."""
    import wristsim.cli as cli

    write_rows, threads = cli.write_rows, []

    def failing(fh, columns):
        threads.append(threading.current_thread())
        if len(threads) == 1:
            raise OSError("disk full")
        write_rows(fh, columns)

    monkeypatch.setattr(cli, "write_rows", failing)
    cfg = write(tmp_path, TWO)
    out = tmp_path / "res"
    before = threading.active_count()
    assert main(["run", str(cfg), "--out", str(out)]) == 2
    # the job was writing the first condition's rows, and is named for it
    assert "wristsim: first: disk full" in capsys.readouterr().err
    assert threading.active_count() == before
    assert len(set(threads)) == 1 and threading.main_thread() not in threads
    assert not (out / "second").exists()
    assert not (out / "summary.json").exists()


def test_csv_that_cannot_be_opened_stops_the_run(tmp_path, capsys):
    """A CSV path taken by a folder stops the run before the next
    condition's folder, exits 2 naming the condition, and writes no
    summary."""
    cfg = write(tmp_path, TWO)
    out = tmp_path / "res"
    (out / "first" / "trajectory.csv").mkdir(parents=True)
    before = threading.active_count()
    assert main(["run", str(cfg), "--out", str(out)]) == 2
    assert "wristsim: first: " in capsys.readouterr().err
    assert threading.active_count() == before
    assert not (out / "second").exists()
    assert not (out / "summary.json").exists()


def test_failed_rerun_leaves_no_summary(tmp_path, capsys, monkeypatch):
    """A rerun into a folder that holds a finished run's ``summary.json``
    removes it before the first condition, so a rerun that fails leaves
    none that would describe the other run."""
    import wristsim.cli as cli

    cfg = write(tmp_path, "task: {n_targets: 1, dwell: 0}\nconditions: [{name: a}, {name: b}]\n")
    out = tmp_path / "res"
    assert main(["run", str(cfg), "--out", str(out)]) == 0
    assert (out / "summary.json").is_file()
    simulate = cli.simulate_condition

    def failing(cond, cfg):
        if cond.name == "b":
            raise RuntimeError("blown up")
        return simulate(cond, cfg)

    monkeypatch.setattr(cli, "simulate_condition", failing)
    assert main(["run", str(cfg), "--out", str(out)]) == 1
    assert "wristsim: simulation failed: b: blown up" in capsys.readouterr().err
    assert not (out / "summary.json").exists()


CHECK_LINES_SEED_0 = [
    "[PASS] torsion equivariance: worst deviation 2.719e-16 (tol 1e-12, 2000 samples)",
    "[PASS] pointing consistency: worst round trip 2.238e-16 m (tol 1e-10, 2000 samples)",
    "[PASS] euler round trip: worst angle 7.961e-14 rad over 100000 of 100000 samples"
    " (tol 1e-09)",
    "[PASS] integrator order: error ratio 16.12 for step halving (expect ~16)",
    "[PASS] quat norm drift: worst per-step drift 1.480e-11 (tol 1e-09, 500 steps)",
    "5/5 checks passed",
]


def test_cli_check_flag_runs_invariant_suite(capsys):
    # the default seed is 0; every figure the suite prints is pinned
    assert main(["run", "--check"]) == 0
    assert capsys.readouterr().out.splitlines() == CHECK_LINES_SEED_0


def test_check_takes_out_but_not_condition(tmp_path, capsys):
    """``--check`` simulates no condition, so naming one is a usage error
    (exit 2), known or not; ``--out`` is accepted, and nothing is written."""
    for name in ("nosuch", "online_single_target"):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--check", "--condition", name])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "not allowed with argument" in err and "--check" in err
    out = tmp_path / "res"
    assert main(["run", "--check", "--out", str(out)]) == 0
    assert capsys.readouterr().out.splitlines() == CHECK_LINES_SEED_0
    assert not out.exists()


# runs wristsim.cli.main(argv[2:]) with argv[1] as the C compiler
NO_COMPILER = (
    "import sys, sysconfig\n"
    "get_config_var = sysconfig.get_config_var\n"
    "sysconfig.get_config_var = lambda name: (\n"
    "    sys.argv[1] if name == 'CC' else get_config_var(name))\n"
    "from wristsim.cli import main\n"
    "sys.exit(main(sys.argv[2:]))\n"
)


def test_check_needs_no_compiler_but_a_run_does(tmp_path):
    """In a fresh process with an empty build cache and no C compiler,
    ``--check`` prints its seed-0 lines and exits 0, while a run exits 1
    naming the missing compiler and writes no summary."""
    root = Path(__file__).resolve().parents[1]
    cache, out = tmp_path / "cache", tmp_path / "res"
    cache.mkdir()
    env = {**os.environ, "PYTHONPATH": str(root / "src"), "XDG_CACHE_HOME": str(cache)}

    def run(*args):
        return subprocess.run(
            [sys.executable, "-c", NO_COMPILER, str(tmp_path / "no-such-cc"), "run", *args],
            env=env, capture_output=True, text=True,
        )

    check = run("--check")
    assert (check.returncode, check.stdout.splitlines()) == (0, CHECK_LINES_SEED_0)
    assert list(cache.iterdir()) == []
    proc = run(str(write(tmp_path, QUICK)), "--out", str(out))
    assert proc.returncode == 1
    assert "no C compiler" in proc.stderr
    assert not (out / "summary.json").exists() and not (out / "quick").exists()
    assert list((cache / "wristsim").iterdir()) == []


def trace_run(tmp_path, args):
    """Run ``wristsim`` under the out-of-package tracer; its stdout and trace."""
    root = Path(__file__).resolve().parents[1]
    trace = tmp_path / "trace.json"
    proc = subprocess.run(
        [sys.executable, str(root / "perfbench" / "trace_cli.py"), str(trace), *args],
        cwd=root, env={**os.environ, "PYTHONPATH": str(root / "src")},
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout, json.loads(trace.read_text())


def test_trace_cli_wraps_the_check_suite(tmp_path):
    """The out-of-package tracer finds every name it wraps and attributes
    the check suite's layers: one span per check and every stepper call."""
    stdout, data = trace_run(tmp_path, ["run", "--check"])
    assert stdout.splitlines() == CHECK_LINES_SEED_0
    checks = [span[0] for span in data["spans"] if span[0].startswith("checks.")]
    assert checks == [
        "checks.torsion_equivariance",
        "checks.pointing_consistency",
        "checks.euler_round_trip",
        "checks.integrator_order",
        "checks.quat_norm_drift",
    ]
    steps = sum(count for _, name, count, *_ in data["tallies"]
                if name == "dynamics.integrate_step")
    assert steps == 3 + 500  # the order check's three runs, the drift check's steps


def test_trace_cli_attributes_each_condition(tmp_path):
    """Every traced call stays on the main thread, in order: each condition
    span holds its own trial, Listing extractions and writers, and the
    per-sample post-processing sits under that condition's trial."""
    cfg = write(tmp_path, TWO)
    shapes = []
    for run in ("a", "b"):
        _, data = trace_run(tmp_path, ["run", str(cfg), "--out", str(tmp_path / run)])
        spans, tallies = data["spans"], data["tallies"]
        conditions = [i for i, span in enumerate(spans) if span[0] == "cli.emit_condition"]
        assert len(conditions) == 2
        for index in conditions:
            children = [i for i, span in enumerate(spans) if span[3] == index]
            assert [spans[i][0] for i in children] == [
                "experiments.build_clock_schedule",
                "experiments.run_trial",
                "cli.write_trajectory",
                "experiments.extract_listing",
                "experiments.extract_listing",
                "cli.write_listing",
                "cli.write_listing",
                "cli.condition_metrics",
            ]
            trial = children[1]
            calls = {name: count for parent, name, count, *_ in tallies if parent == trial}
            assert calls["dynamics.gravity_torque"] == 1
            assert calls["experiments.pointer_intersection"] == 1
        trials = {i for i, span in enumerate(spans) if span[0] == "experiments.run_trial"}
        assert all(parent in trials for parent, name, *_ in tallies
                   if name in ("dynamics.gravity_torque", "experiments.pointer_intersection"))
        shapes.append((
            [(span[0], span[3]) for span in spans],
            sorted((parent, name, count) for parent, name, count, *_ in tallies),
            data["counts"],
        ))
    assert shapes[0] == shapes[1]


# ---------------------------------------------------------------------------
# every config exits 0, 1 or 2
# ---------------------------------------------------------------------------

BIG, TINY = sys.float_info.max, 5e-324
#: per rule: values at its edges that pass it, and values that fail it
EDGES = {
    POSITIVE: ([TINY, 1, BIG], [0, -1.0, math.inf, math.nan, "1", True, None]),
    NON_NEGATIVE: ([0, -0.0, BIG], [-TINY, -math.inf, math.nan, "0", False]),
    COUNT: ([1], [0, -1, 1.5, 2.0, True, "2"]),
    NON_NEGATIVE_INT: ([0, 2**64], [-1, 0.5, False, "0"]),
    NUMBER: ([-0.0, BIG, -BIG], [math.inf, math.nan, "0", None]),
    VECTOR: ([[0, 0, 0], [-0.0, TINY, BIG]], [[1, 2], [1, 2, "3"], [1, 2, math.nan], 3]),
    BOOLEAN: ([True, False], [1, "true", None]),
    STRING: ([""], [5, None, ["a"]]),
    NON_EMPTY_STRING: (["-"], ["", 5]),
}
#: the sections of a file and the dataclass whose rules each one's keys follow
FILE_SECTIONS = {"body": BodyModel, "band": BandParams, "task": ClockTask, "sim": SimOptions}
# a condition's torsion is written in degrees
CONDITION_RULES = {**rules(Condition), "torsion_deg": NUMBER}
del CONDITION_RULES["torsion"]
#: a key path of the file: a section's key, a condition's, or a top-level one
DOTTED_KEY = re.compile(
    "|".join(
        [rf"\b{name}\.{key}\b" for name, cls in FILE_SECTIONS.items() for key in rules(cls)]
        + [rf"conditions\[\d+\]\.{key}\b" for key in CONDITION_RULES]
        + [rf"\b{key}: " for key in rules(ExperimentConfig)]
    )
)


#: a sweep's axes, whose values follow a condition's rules
SWEEP_RULES = {key: CONDITION_RULES[key] for key in ("gravity", "stiffness", "torsion_deg")}
#: a key path of a sweep file: a sweep axis, a section's key, or a top-level one
SWEEP_KEY = re.compile(
    "|".join(
        [rf"\bsweep\.{key}\b" for key in SWEEP_RULES]
        + [rf"\b{name}\.{key}\b" for name, cls in FILE_SECTIONS.items() for key in rules(cls)]
        + [rf"\b{key}: " for key in rules(ExperimentConfig)]
    )
)


def tiny_value(path, rule, default):
    """A value that passes ``rule`` and keeps the trial small: at most two
    targets with no dwell, and the other numbers near their defaults."""
    fixed = {"task.n_targets": st.integers(1, 2), "task.dwell": st.just(0),
             "sim.substeps": st.integers(1, 10)}
    if path in fixed:
        return fixed[path]
    if rule is VECTOR:
        return st.floats(0.5, 2.0).map(lambda s: [s * c for c in default])
    if rule is POSITIVE:
        return st.floats(0.5, 2.0).map(lambda s: s * default)
    return {NUMBER: st.floats(-45.0, 45.0), BOOLEAN: st.booleans(),
            NON_NEGATIVE_INT: st.integers(0, 2**32)}[rule]


@st.composite
def configs(draw, elsewhere):
    """A config mapping with every key of every section and one or two
    conditions, listed or swept, from each key's rule: values that pass it,
    then up to two keys at an edge of their rule and maybe one key failing it."""
    doc, leaves = {}, []  # leaves: (mapping or list, key or index, rule)

    def fill(node, prefix, key_rules, defaults):
        for key, rule in key_rules.items():
            node[key] = draw(tiny_value(f"{prefix}{key}", rule, defaults.get(key)))
            leaves.append((node, key, rule))

    for name, cls in FILE_SECTIONS.items():
        doc[name] = {}
        fill(doc[name], f"{name}.", rules(cls), {f.name: f.default for f in fields(cls)})
    if draw(st.booleans()):
        # one or two values per axis, and at most two conditions in all
        doc["sweep"], double = {}, draw(st.sampled_from([None, *SWEEP_RULES]))
        for key, rule in SWEEP_RULES.items():
            values = doc["sweep"][key] = []
            for j in range(1 + (key == double)):
                values.append(draw(tiny_value(key, rule, Condition.stiffness)))
                leaves.append((values, j, rule))
    else:
        doc["conditions"] = []
        for name in draw(st.lists(st.sampled_from(["first", "second"]), min_size=1,
                                  unique=True)):
            kind = draw(st.sampled_from(["clock", "retune"]))
            cond = {"name": name, "kind": kind}
            # a retune condition runs its own stiffness and torsion schedule
            keys = ("gravity",) if kind == "retune" else ("gravity", "stiffness", "torsion_deg")
            fill(cond, "", {k: CONDITION_RULES[k] for k in keys},
                 {"stiffness": Condition.stiffness})
            leaves += [(cond, "name", STRING), (cond, "kind", STRING)]
            doc["conditions"].append(cond)
    doc["seed"] = draw(tiny_value("seed", NON_NEGATIVE_INT, 0))
    doc["output_dir"] = elsewhere  # --out overrides it
    leaves += [(doc, "seed", NON_NEGATIVE_INT), (doc, "output_dir", NON_EMPTY_STRING)]
    for _ in range(draw(st.integers(0, 2))):
        node, key, rule = draw(st.sampled_from(leaves))
        node[key] = draw(st.sampled_from(EDGES[rule][0]))
    if draw(st.booleans()):
        node, key, rule = draw(st.sampled_from(leaves))
        node[key] = draw(st.sampled_from(EDGES[rule][1]))
    return doc


def assert_finite_files(folder):
    for path in folder.glob("*.csv"):
        table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        assert table.size and np.isfinite(table).all(), path
    for path in folder.glob("*.json"):
        json.loads(path.read_text(), parse_constant=lambda name: pytest.fail(f"{path}: {name}"))


# the same 100 examples on every run, so that the suite's verdict does not
# vary between runs; a wider search raises max_examples and drops derandomize
@settings(max_examples=100, derandomize=True)
@given(data=st.data())
def test_every_config_exits_0_1_or_2(data):
    """A config built from the field rules, with tiny tasks, ends in exit 0
    with finite files, exit 1 with every earlier condition complete and no
    summary, or exit 2 naming a key path and writing nothing."""
    import yaml

    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        doc = data.draw(configs(str(tmp / "elsewhere")))
        cfg, out = write(tmp, yaml.safe_dump(doc, sort_keys=False)), tmp / "res"
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["run", str(cfg), "--out", str(out)])
        err = err.getvalue()
        assert not (tmp / "elsewhere").exists()
        assert code in (0, 1, 2), err
        if code == 2:
            assert (SWEEP_KEY if "sweep" in doc else DOTTED_KEY).search(err), err
            assert sorted(tmp.iterdir()) == [cfg], err
            return
        names = ([c.name for c in load_config(cfg).conditions] if "sweep" in doc
                 else [c["name"] for c in doc["conditions"]])
        written = [name for name in names if (out / name).exists()]
        assert written == names[:len(written)]
        if code == 1:
            # the message names the condition that failed
            assert any(err.startswith(f"wristsim: simulation failed: {name}: ")
                       for name in names), err
            assert not (out / "summary.json").exists()
            # the condition that failed may have a folder; each one before it is whole
            for name in written[:-1]:
                assert sorted(p.name for p in (out / name).iterdir()) == sorted(CONDITION_FILES)
                assert_finite_files(out / name)
            return
        assert err == "" and written == names
        for name in names:
            assert sorted(p.name for p in (out / name).iterdir()) == sorted(CONDITION_FILES)
            assert_finite_files(out / name)
        assert_finite_files(out)
