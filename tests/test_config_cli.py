"""Config parsing, condition expansion, and the command-line contract."""

import hashlib
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from wristsim.cli import LISTING_COLUMNS, TRAJECTORY_COLUMNS, main
from wristsim.config import (
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
# the same value passed straight to that dataclass)
LEAF_CASES = (
    ("conditions:\n  - name: a\n    stiffness: 1.0e6\n",
     "conditions[0].stiffness: must be a positive number, got '1.0e6'",
     (Condition, {"name": "a", "stiffness": "1.0e6"})),
    ("conditions:\n  - name: a\n    gravity: 1\n",
     "conditions[0].gravity: expected a boolean", (Condition, {"name": "a", "gravity": 1})),
    ("conditions:\n  - name: a\n    kind: bogus\n",
     "conditions[0].kind: must be 'clock' or 'retune', got 'bogus'",
     (Condition, {"name": "a", "kind": "bogus"})),
    ("conditions:\n  - name: a\n    torsion_deg: ten\n",
     "conditions[0].torsion_deg: expected a number", None),
    ("sweep:\n  stiffness: [1000.0, 1.0e6]\n",
     "sweep.stiffness[1]: must be a positive number, got '1.0e6'",
     (Condition, {"name": "a", "stiffness": "1.0e6"})),
    ("sweep:\n  gravity: [true, 0]\n",
     "sweep.gravity[1]: expected a boolean", (Condition, {"name": "a", "gravity": 0})),
    ("sim:\n  substeps: 2.5\n",
     "sim.substeps: must be a positive integer, got 2.5", (SimOptions, {"substeps": 2.5})),
    ("sim:\n  substeps: 0\n",
     "sim.substeps: must be a positive integer", (SimOptions, {"substeps": 0})),
    ("task:\n  n_targets: 2.5\n",
     "task.n_targets: must be a positive integer, got 2.5", (ClockTask, {"n_targets": 2.5})),
    ("seed: -1\n", "seed: must be a non-negative integer, got -1",
     (ExperimentConfig, {"seed": -1})),
    ("seed: true\n", "seed: must be a non-negative integer, got True",
     (ExperimentConfig, {"seed": True})),
    ("body:\n  com_offset: [a, 0, 0]\n",
     "body.com_offset: expected a 3-vector of numbers, got ['a', 0, 0]",
     (BodyModel, {"com_offset": ["a", 0, 0]})),
    ("body:\n  gravity: [0, 0, null]\n",
     "body.gravity: expected a 3-vector of numbers", (BodyModel, {"gravity": [0, 0, None]})),
    ("band:\n  stiffness: 1e3\n",
     "band.stiffness: must be null or a positive number, got '1e3'",
     (BandParams, {"stiffness": "1e3"})),
    # non-finite numbers: each would otherwise fail later, as exit 1
    ("body:\n  mass: .inf\n", "body.mass: must be a positive number, got inf",
     (BodyModel, {"mass": math.inf})),
    ("task:\n  dwell: .inf\n",
     "task.dwell: must be a non-negative number, got inf", (ClockTask, {"dwell": math.inf})),
    ("conditions:\n  - name: a\n    stiffness: .inf\n",
     "conditions[0].stiffness: must be a positive number, got inf",
     (Condition, {"name": "a", "stiffness": math.inf})),
    ("sweep:\n  torsion_deg: [0.0, -.inf]\n",
     "sweep.torsion_deg[1]: expected a number, got -inf", None),
    ("body:\n  com_offset: [.nan, 0, 0]\n",
     "body.com_offset: expected a 3-vector of numbers, got [nan, 0, 0]",
     (BodyModel, {"com_offset": [math.nan, 0, 0]})),
    ("body:\n  length: 1" + "0" * 400 + "\n",  # an int past the float range
     "body.length: must be a positive number, got 1000", (BodyModel, {"length": 10**400})),
    # a retune condition runs a fixed schedule
    ("conditions:\n  - name: r\n    kind: retune\n    stiffness: 500.0\n"
     "    torsion_deg: 40.0\n",
     "conditions[0].stiffness: a retune condition runs its fixed schedule", None),
    ("conditions:\n  - name: r\n    kind: retune\n    torsion_deg: 40.0\n",
     "conditions[0].torsion_deg: a retune condition runs its fixed schedule", None),
)


def test_leaf_types_name_the_dotted_key(tmp_path, capsys):
    """Mistyped leaves exit 2 naming the key (PyYAML reads 1.0e6 as text)."""
    for text, message, _ in LEAF_CASES:
        cfg = write(tmp_path, text)
        with pytest.raises(ConfigError, match=re.escape(message)):
            load_config(cfg)
        assert main(["run", str(cfg), "--out", str(tmp_path / "res")]) == 2
        assert message in capsys.readouterr().err


def _field_message(message):
    """The loader's message without its dotted path: 'sweep.stiffness[1]: x'
    and 'conditions[0].stiffness: x' both become 'stiffness: x'."""
    key, rest = message.split(":", 1)
    return re.sub(r"\[\d+\]$", "", key.rsplit(".", 1)[-1]) + ":" + rest


@pytest.mark.parametrize("cls, kwargs, message", [
    *((*call, _field_message(message)) for _, message, call in LEAF_CASES if call),
    # values no file can hold, or that the loader alone once refused
    (BodyModel, {"com_offset": (1, 2)}, "com_offset: expected a 3-vector of numbers"),
    (BodyModel, {"gravity": (0, 0)}, "gravity: expected a 3-vector of numbers"),
    (BodyModel, {"mass": True}, "mass: must be a positive number, got True"),
    (ClockTask, {"n_targets": True}, "n_targets: must be a positive integer, got True"),
    (ClockTask, {"radius": math.inf}, "radius: must be a positive number, got inf"),
    (SimOptions, {"dt": True}, "dt: must be a positive number, got True"),
    (BandParams, {"max_accel": math.inf}, "max_accel: must be a positive number, got inf"),
    (BandParams, {"stiffness": True}, "stiffness: must be null or a positive number, got True"),
    (Condition, {"name": "a", "torsion": math.nan}, "torsion: expected a number, got nan"),
    (ExperimentConfig, {"output_dir": ""}, "output_dir: expected a non-empty string, got ''"),
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


def test_retune_condition_files_match_the_recorded_digests(tmp_path, capsys):
    """The retune condition's four files are byte-identical to the digests
    the benchmark recorded for the default battery."""
    reference = json.loads(
        (Path(__file__).resolve().parents[1] / "perfbench" / "reference.json").read_text()
    )
    out = tmp_path / "res"
    assert main(["run", "--condition", "online_single_target", "--out", str(out)]) == 0
    capsys.readouterr()
    files = {
        key: digest for key, digest in reference["battery"]["files"].items()
        if key.startswith("online_single_target/")
    }
    assert len(files) == 4
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


def test_empty_out_exits_2(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = write(tmp_path, QUICK)
    assert main(["run", str(cfg), "--out", ""]) == 2
    assert "output_dir: expected a non-empty string, got ''" in capsys.readouterr().err
    assert [p for p in tmp_path.rglob("*") if p != cfg] == []


def test_yaml_is_imported_only_to_read_a_file(tmp_path):
    """A run on the built-in defaults never imports the YAML parser."""
    root = Path(__file__).resolve().parents[1]
    code = (
        "import sys\n"
        "import wristsim.cli\n"
        "from wristsim.config import ExperimentConfig, load_config\n"
        "ExperimentConfig()\n"
        "assert 'yaml' not in sys.modules, 'yaml imported'\n"
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


def test_non_finite_table_exits_1_without_the_file(tmp_path, capsys, monkeypatch):
    """A table with a value that is not finite is refused before its file
    is opened, naming the file and the row."""
    import wristsim.cli as cli

    table = cli.trajectory_table

    def poisoned(traj):
        out = table(traj)
        out[7, 2] = np.inf
        return out

    monkeypatch.setattr(cli, "trajectory_table", poisoned)
    cfg = write(tmp_path, QUICK)
    out = tmp_path / "res"
    assert main(["run", str(cfg), "--out", str(out)]) == 1
    assert "trajectory.csv: row 7 " in capsys.readouterr().err
    assert not (out / "quick" / "trajectory.csv").exists()


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


def test_trace_cli_wraps_the_check_suite(tmp_path):
    """The out-of-package tracer finds every name it wraps and attributes
    the check suite's layers: one span per check and every stepper call."""
    root = Path(__file__).resolve().parents[1]
    trace = tmp_path / "trace.json"
    proc = subprocess.run(
        [sys.executable, str(root / "perfbench" / "trace_cli.py"), str(trace),
         "run", "--check"],
        cwd=root, env={**os.environ, "PYTHONPATH": str(root / "src")},
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == CHECK_LINES_SEED_0
    data = json.loads(trace.read_text())
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
