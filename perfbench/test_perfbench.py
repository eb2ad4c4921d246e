"""Tests of the benchmark itself: generator, correctness gate, counts, tracer.

Run with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest
import yaml

import run
import trace_cli
import workloads

sys.path.insert(0, str(run.SRC))


# ---------------------------------------------------------------------------
# seeded workload generator
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", [0, 1, 7, 2**31 - 1])
def test_generator_is_deterministic(seed):
    assert workloads.single_yaml(seed) == workloads.single_yaml(seed)
    assert workloads.check_yaml(seed) == workloads.check_yaml(seed)


def test_generated_single_condition_is_in_range_and_has_a_reference():
    reference = workloads.load_reference()
    names = set()
    for seed in range(200):
        cfg = yaml.safe_load(workloads.single_yaml(seed))
        (cond,) = cfg["conditions"]
        assert isinstance(cond["stiffness"], float)
        assert 1000.0 <= cond["stiffness"] <= 10000.0
        assert -25.0 <= cond["torsion_deg"] <= 0.0
        assert cond["gravity"] is True and cfg["seed"] == seed
        assert cond["name"] in reference["single"]
        names.add(cond["name"])
    assert len(names) > 30  # seeds spread over the grid


def test_generated_configs_load_in_the_program(tmp_path):
    from wristsim.config import load_config

    path = tmp_path / "single.yaml"
    path.write_text(workloads.single_yaml(5))
    params = workloads.single_params(5)
    (cond,) = load_config(path).conditions
    assert cond.name == params["name"] and cond.stiffness == params["stiffness"]
    path.write_text(workloads.check_yaml(11))
    assert load_config(path).seed == 11


# ---------------------------------------------------------------------------
# correctness gate
# ---------------------------------------------------------------------------

METRICS = {
    "condition": "c1",
    "samples": 3,
    "rmse_y_m": 1.25e-3,
    "plane_fit": {"tilt_y": 0.5, "offset_rad": 0.0},
}


def _write_tree(out_dir: Path, metrics=METRICS):
    cond = out_dir / "c1"
    cond.mkdir(parents=True)
    (cond / "trajectory.csv").write_text("t_s,q_w\n0,1\n0.001,1\n0.002,1\n")
    for name in ("listing_measured.csv", "listing_desired.csv"):
        (cond / name).write_text("theta_y_deg,theta_z_deg,theta_x_deg\n1,2,3\n")
    (cond / "metrics.json").write_text(json.dumps(metrics))
    (out_dir / "summary.json").write_text(json.dumps([metrics]))


@pytest.fixture
def reference(tmp_path):
    ref_dir = tmp_path / "ref"
    _write_tree(ref_dir)
    return {
        "conditions": ["c1"],
        "files": workloads.output_digests(ref_dir),
        "metrics": {"c1": METRICS},
    }


def test_gate_accepts_identical_outputs(tmp_path, reference):
    _write_tree(tmp_path / "out")
    res = workloads.gate_run_outputs(tmp_path / "out", 0, reference)
    assert (res.attempted, res.failed, res.identical) == (1, 0, True)
    assert res.output_files == 5


def test_gate_tolerates_rounding_but_reports_changed_bytes(tmp_path, reference):
    _write_tree(tmp_path / "out", dict(METRICS, rmse_y_m=1.25e-3 * (1 + 1e-9)))
    res = workloads.gate_run_outputs(tmp_path / "out", 0, reference)
    assert res.failed == 0 and not res.identical


def test_gate_flags_perturbed_metrics(tmp_path, reference):
    _write_tree(tmp_path / "out", dict(METRICS, rmse_y_m=1.25e-3 * (1 + 1e-4)))
    res = workloads.gate_run_outputs(tmp_path / "out", 0, reference)
    assert res.failed == 1 and any("rmse_y_m" in p for p in res.problems)


def test_gate_flags_missing_file(tmp_path, reference):
    _write_tree(tmp_path / "out")
    (tmp_path / "out" / "c1" / "listing_desired.csv").unlink()
    res = workloads.gate_run_outputs(tmp_path / "out", 0, reference)
    assert res.failed == 1 and any("missing" in p for p in res.problems)


def test_gate_flags_nan_in_csv(tmp_path, reference):
    _write_tree(tmp_path / "out")
    (tmp_path / "out" / "c1" / "trajectory.csv").write_text(
        "t_s,q_w\n0,1\n0.001,nan\n0.002,1\n")
    res = workloads.gate_run_outputs(tmp_path / "out", 0, reference)
    assert res.failed == 1


def test_gate_flags_nan_in_metrics(tmp_path, reference):
    _write_tree(tmp_path / "out", dict(METRICS, rmse_y_m=float("nan")))
    res = workloads.gate_run_outputs(tmp_path / "out", 0, reference)
    assert res.failed == 1


def test_gate_fails_every_condition_on_nonzero_exit(tmp_path, reference):
    _write_tree(tmp_path / "out")
    res = workloads.gate_run_outputs(tmp_path / "out", 1, reference)
    assert res.failed == res.attempted == 1


CHECK_OK = "\n".join(
    [f"[PASS] {name}: worst deviation 1.0e-15" for name in workloads.CHECK_NAMES]
    + ["5/5 checks passed"]
)


def test_check_gate():
    ref = {"checks": list(workloads.CHECK_NAMES)}
    assert workloads.gate_check_output(CHECK_OK, 0, ref).failed == 0
    failed = CHECK_OK.replace("[PASS] euler round trip", "[FAIL] euler round trip")
    assert workloads.gate_check_output(failed, 0, ref).failed == 1
    nan = CHECK_OK.replace("[PASS] quat norm drift: worst deviation 1.0e-15",
                           "[PASS] quat norm drift: worst deviation nan")
    assert workloads.gate_check_output(nan, 0, ref).failed == 1
    missing = "\n".join(CHECK_OK.splitlines()[1:])
    assert workloads.gate_check_output(missing, 0, ref).failed == 1
    assert workloads.gate_check_output(CHECK_OK, 1, ref).failed == 5


# ---------------------------------------------------------------------------
# counts and tracing
# ---------------------------------------------------------------------------


class _Samples:
    def __init__(self, n):
        self.n = n

    def __len__(self):
        return self.n


def test_rhs_count_of_default_clock_condition():
    from wristsim.experiments import ClockTask, SimOptions, build_clock_schedule
    from wristsim.planner import BandParams

    opts = SimOptions()
    schedule = build_clock_schedule(ClockTask(), BandParams())
    steps = round(schedule.duration / opts.dt)
    assert steps == 14_283
    tracer = trace_cli.Tracer()
    trace_cli._count_trial(tracer, _Samples(steps + 1), (schedule, None, None, None, opts), {})
    assert tracer.counts["experiments.rhs_evals"] == 571_320 == 14_283 * 10 * 4
    assert tracer.counts["experiments.samples"] == 14_284


def test_self_times_account_for_the_wall_time(monkeypatch):
    clock = iter(range(100))
    monkeypatch.setattr(trace_cli, "perf_counter", lambda: float(next(clock)))
    tracer = trace_cli.Tracer()
    leaf = tracer.tally("rotations.euler_xyz_from_quat", lambda: None)
    inner = tracer.span("experiments.extract_listing", lambda: [leaf(), leaf()])
    outer = tracer.span("cli.emit_condition", lambda: inner())
    outer()
    trace = {
        "spans": tracer.spans,
        "tallies": [[p, n, *v] for (p, n), v in tracer.tallies.items()],
        "counts": {},
    }
    # outer 0..7, inner 1..6, leaves 2..3 and 4..5
    table = run.self_times(trace, traced_wall=10.0)
    assert table["cli.emit_condition"]["self_s"] == 2.0
    assert table["experiments.extract_listing"]["self_s"] == 3.0
    assert table["rotations.euler_xyz_from_quat"] == {"calls": 2, "self_s": 2.0}
    assert table["(unattributed)"]["self_s"] == 3.0
    assert sum(row["self_s"] for row in table.values()) == 10.0
    layers = run.layer_metrics(trace, traced_wall=10.0)
    assert layers["experiments.listing_calls"] == 1
    assert layers["rotations.euler_calls"] == 2
    assert layers["trace.unattributed_s"] == 3.0
    assert set(layers) | {"cli.output_bytes", "cli.output_files", "cli.outputs_identical",
                          "process.cpu_s", "process.cpu_util",
                          "trace.overhead_frac"} == set(run.PER_LAYER_UNITS)


def test_benchmark_json_lists_every_reported_metric():
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in bench["per_layer"]] == list(run.PER_LAYER_UNITS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END_UNITS
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
