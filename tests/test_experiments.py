"""Task geometry, schedules, the trial loop, and the summary metrics."""

import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from wristsim.config import ConfigError
from wristsim.experiments import (
    ClockTask,
    ParamSchedule,
    PointerParallelError,
    SimOptions,
    Trajectory,
    build_clock_schedule,
    build_retune_schedule,
    compute_metrics,
    extract_listing,
    fit_plane,
    pointer_intersection,
    run_trial,
    target_rmse,
)
from wristsim.planner import ReachProfile, reach_duration
from oracles import plan_reach, torsion_about_pointer
from wristsim.rotations import (euler_xyz_from_quat, project_to_sphere, quat_from_euler_xyz,
                                quat_norm, quat_normalize)


# ---------------------------------------------------------------------------
# task geometry
# ---------------------------------------------------------------------------


def test_targets_sit_on_the_circle(task):
    pts = task.targets
    assert pts.shape == (8, 3)
    np.testing.assert_allclose(pts[:, 0], task.plane_distance, rtol=0, atol=0)
    radii = np.linalg.norm(pts[:, 1:], axis=1)
    np.testing.assert_allclose(radii, task.radius, atol=1e-12)
    # first target is the top of the clock face
    np.testing.assert_allclose(pts[0], [0.3, 0.0, 0.1], atol=1e-12)


def test_negative_index_addresses_center(task):
    """A target index selects a row of the positions: the targets, then the
    center as the last row."""
    assert task.positions.shape == (9, 3)
    np.testing.assert_array_equal(task.positions[-1], task.center)
    np.testing.assert_array_equal(task.positions[:-1], task.targets)


def test_task_validation():
    with pytest.raises(ValueError):
        ClockTask(radius=0.0)
    with pytest.raises(ValueError):
        ClockTask(n_targets=0)
    with pytest.raises(ValueError):
        ClockTask(dwell=-0.1)


@pytest.mark.parametrize("fields", [
    dict(dt=0.0), dict(dt=-1e-3), dict(dt=math.inf), dict(dt=math.nan),
    dict(substeps=0), dict(substeps=-2), dict(substeps=2.0), dict(substeps=True),
])
def test_sim_options_validation(fields):
    """A bad step fails at construction, not as an arithmetic error mid-trial."""
    with pytest.raises(ValueError, match="dt: must|substeps: must"):
        SimOptions(**fields)


# ---------------------------------------------------------------------------
# parameter schedules
# ---------------------------------------------------------------------------


def test_schedule_lookup_is_piecewise_constant():
    sched = ParamSchedule(
        duration=1.0,
        stiffness_breaks=((0.0, 10000.0), (0.2, 8000.0)),
        torsion_breaks=((0.0, 0.0), (0.35, -0.4)),
        target_breaks=((0.05, 3), (0.5, -1)),
    )
    assert sched.stiffness_at(0.0) == 10000.0
    assert sched.stiffness_at(0.1999) == 10000.0
    assert sched.stiffness_at(0.2) == 8000.0
    assert sched.torsion_at(0.34) == 0.0
    assert sched.torsion_at(0.9) == -0.4
    assert sched.target_at(0.0) is None
    assert sched.target_at(0.05) == 3
    assert sched.target_at(0.7) == -1


def test_schedule_validation():
    with pytest.raises(ValueError, match="strictly increasing"):
        ParamSchedule(duration=1.0, stiffness_breaks=((0.0, 1.0), (0.0, 2.0)))
    with pytest.raises(ValueError, match="start at t=0"):
        ParamSchedule(duration=1.0, stiffness_breaks=((0.1, 1.0),))
    with pytest.raises(ValueError, match="positive"):
        ParamSchedule(duration=1.0, stiffness_breaks=((0.0, -5.0),))
    # a non-finite or boolean value fails here, not mid-trial
    for fields, message in (
        (dict(torsion_breaks=((0.0, math.nan),)), "torsion_breaks[0] value: expected a number"),
        (dict(stiffness_breaks=((0.0, 1000.0), (0.5, math.inf))),
         "stiffness_breaks[1] value: must be a positive number, got inf"),
        (dict(duration=math.inf), "duration: must be a positive number, got inf"),
        (dict(stiffness_breaks=((0.0, True),)),
         "stiffness_breaks[0] value: must be a positive number, got True"),
        (dict(target_breaks=((math.inf, 0),)), "target_breaks[0] time: expected a number"),
    ):
        with pytest.raises(ConfigError, match=re.escape(message)):
            ParamSchedule(**{"duration": 1.0, **fields})


NOT_AN_INDEX = "target_breaks[0] value: must be a target index (an integer >= -1), got "


@pytest.mark.parametrize("value, message", [
    (1.5, NOT_AN_INDEX + "1.5"),
    (-5, NOT_AN_INDEX + "-5"),
    (True, NOT_AN_INDEX + "True"),
    ("0", NOT_AN_INDEX + "'0'"),
    (8, "target index 8 out of range for 8 targets"),
    (99, "target index 99 out of range for 8 targets"),
], ids=["float", "below-center", "bool", "str", "n_targets", "99"])
def test_bad_target_index_is_a_config_error(task, body, band, opts, value, message):
    """A target the task does not have fails with its index, not as a numpy
    IndexError mid-trial or a silent center hold."""
    with pytest.raises(ConfigError, match=re.escape(message)):
        sched = ParamSchedule(duration=0.01, target_breaks=((0.0, value),))
        run_trial(sched, task, body, band, opts)


def test_run_trial_builds_the_target_table_once(task, body, band, opts, monkeypatch):
    """Preparing a clock trial is linear in its legs: the targets are built
    once per trial, not once per out leg."""
    calls = []
    targets = ClockTask.targets.fget
    monkeypatch.setattr(ClockTask, "targets",
                        property(lambda self: calls.append(self) or targets(self)))
    run_trial(build_clock_schedule(task, band), task, body, band, opts)
    assert len(calls) == 1


def test_clock_schedule_walks_out_and_back(task, band):
    sched = build_clock_schedule(task, band)
    leg = reach_duration(task.radius, band) + task.dwell
    assert sched.duration == pytest.approx(2 * task.n_targets * leg)
    # out legs aim at target k, return legs back at the center
    for k in range(task.n_targets):
        assert sched.target_at(2 * k * leg + 1e-9) == k
        assert sched.target_at((2 * k + 1) * leg + 1e-9) == -1
    assert sched.stiffness_at(sched.duration) == 10000.0


def test_retune_schedule_steps_inside_outgoing_leg(task, band):
    sched = build_retune_schedule()
    assert sched.target_at(0.0) is None
    assert sched.target_at(0.05) == 0
    assert sched.target_at(1.5) == -1
    assert [k for _, k in sched.stiffness_breaks] == [10000.0, 8000.0, 1000.0]
    assert sched.torsion_at(0.35) == pytest.approx(math.radians(-25.0))
    # both steps land while the outgoing reach to the default task's target
    # is still in flight
    t_steps = [t for t, _ in sched.stiffness_breaks[1:]]
    t_steps.append(sched.torsion_breaks[-1][0])
    assert all(0.05 < t < 0.05 + reach_duration(task.radius, band) for t in t_steps)


# ---------------------------------------------------------------------------
# pointer ray
# ---------------------------------------------------------------------------


def test_pointer_intersection_identity(rng):
    hit = pointer_intersection(np.array([1.0, 0.0, 0.0, 0.0]), 0.3)
    np.testing.assert_allclose(hit, [0.3, 0.0, 0.0], atol=0)
    # a stack gives, row for row, exactly the single-quaternion results
    quats = rng.normal(size=(64, 4))
    quats /= np.linalg.norm(quats, axis=1, keepdims=True)
    rows = np.array([pointer_intersection(q, 0.3) for q in quats])
    np.testing.assert_array_equal(pointer_intersection(quats, 0.3), rows)


@given(
    y=st.floats(-0.25, 0.25),
    z=st.floats(-0.25, 0.25),
    phi=st.floats(-1.5, 1.5),
)
def test_projection_then_intersection_round_trips(y, z, phi):
    point = np.array([0.3, y, z])
    q = project_to_sphere(point, torsion=phi)
    np.testing.assert_allclose(pointer_intersection(q, 0.3), point, atol=1e-12)


def test_parallel_pointer_rejected():
    # +90 deg about y points the body x axis along -z, parallel to the plane
    s = math.sqrt(0.5)
    with pytest.raises(PointerParallelError):
        pointer_intersection(np.array([s, 0.0, s, 0.0]), 0.3)
    # in a stack, the error names the first parallel sample
    quats = np.array([[1.0, 0.0, 0.0, 0.0], [s, 0.0, s, 0.0], [s, 0.0, s, 0.0]])
    with pytest.raises(PointerParallelError, match="at sample 1 "):
        pointer_intersection(quats, 0.3)


# ---------------------------------------------------------------------------
# closed-form reach legs vs the integrated band
# ---------------------------------------------------------------------------


def _leg_rates(profile, t):
    """Velocity and acceleration of a closed-form leg at absolute time t."""
    rel = max(t - profile.t0, 0.0)
    if rel >= profile.duration:
        return np.zeros(3), np.zeros(3)
    half, unit = 0.5 * profile.dist, np.array(profile.unit)
    return (half * profile.omega * math.sin(profile.omega * rel) * unit,
            half * profile.omega**2 * math.cos(profile.omega * rel) * unit)


def test_reach_profile_matches_integrated_band(band):
    start = np.array([0.3, 0.0, 0.0])
    target = np.array([0.3, 0.0, 0.1])
    profile = ReachProfile.from_rest(start, target, band, 0.0)
    t, pos, vel, _ = plan_reach(start, target, band)
    worst_pos = worst_vel = 0.0
    for t_i, pos_i, vel_i in zip(t, pos, vel):
        if t_i >= profile.duration - 2e-3:
            continue  # the band snaps its sampled touchdown; compare before it
        worst_pos = max(worst_pos, float(np.linalg.norm(profile.position(t_i) - pos_i)))
        worst_vel = max(worst_vel, float(np.linalg.norm(_leg_rates(profile, t_i)[0] - vel_i)))
    assert worst_pos < 1e-9
    assert worst_vel < 1e-7
    np.testing.assert_array_equal(pos[-1], target)
    np.testing.assert_array_equal(vel[-1], 0.0)


def test_reach_profile_endpoints(band):
    profile = ReachProfile.from_rest([0.3, 0.0, 0.0], [0.3, 0.0, 0.1], band, 0.2)
    np.testing.assert_allclose(profile.position(0.2), [0.3, 0.0, 0.0], atol=1e-15)
    np.testing.assert_allclose(_leg_rates(profile, 0.2)[0], 0.0, atol=1e-15)
    t_end = 0.2 + profile.duration + 1.0
    np.testing.assert_array_equal(profile.position(t_end), [0.3, 0.0, 0.1])
    np.testing.assert_array_equal(_leg_rates(profile, t_end), 0.0)
    # before t0 the profile holds the start point
    np.testing.assert_allclose(profile.position(0.0), [0.3, 0.0, 0.0], atol=1e-15)


def test_degenerate_reach_profile(band):
    profile = ReachProfile.from_rest([0.3, 0.0, 0.1], [0.3, 0.0, 0.1], band, 0.0)
    assert profile.duration == 0.0
    np.testing.assert_array_equal(profile.position(0.5), [0.3, 0.0, 0.1])


# ---------------------------------------------------------------------------
# trial loop
# ---------------------------------------------------------------------------


def short_schedule(stiffness=10000.0, torsion=0.0, duration=0.45):
    return ParamSchedule(
        duration=duration,
        stiffness_breaks=((0.0, stiffness),),
        torsion_breaks=((0.0, torsion),),
        target_breaks=((0.02, 0),),
    )


def test_run_trial_record_shape_and_sanity(task, weightless, band, opts):
    sched = short_schedule()
    traj = run_trial(sched, task, weightless, band, opts)
    n = int(round(sched.duration / opts.dt)) + 1
    assert len(traj) == n
    for field in ("plan_pos", "quat_des", "quat", "omega", "tau_cmd",
                  "tau_grav", "pointer", "err_angle", "disp_max", "stiffness"):
        assert np.all(np.isfinite(getattr(traj, field)))
    norms = np.array([quat_norm(q) for q in traj.quat])
    np.testing.assert_allclose(norms, 1.0, atol=1e-9)
    np.testing.assert_array_equal(traj.stiffness, 10000.0)
    # reach completes well inside the horizon: pointer lands on the target
    assert np.linalg.norm(traj.pointer[-1] - task.targets[0]) < 1e-4


def test_gravity_off_zeroes_gravity_torque(task, body, weightless, band, opts):
    traj = run_trial(short_schedule(), task, weightless, band, opts)
    np.testing.assert_array_equal(traj.tau_grav, 0.0)
    traj_g = run_trial(short_schedule(), task, body, band, opts)
    assert np.max(np.abs(traj_g.tau_grav)) > 0.1


def test_desired_stream_ignores_plant_conditions(task, body, weightless, band, opts):
    """Plan and desired pose never react to gravity or stiffness."""
    ref = run_trial(short_schedule(), task, weightless, band, opts)
    for sched in (short_schedule(), short_schedule(stiffness=1000.0)):
        other = run_trial(sched, task, body, band, opts)
        np.testing.assert_array_equal(other.plan_pos, ref.plan_pos)
        np.testing.assert_array_equal(other.quat_des, ref.quat_des)


def test_desired_stream_carries_scheduled_torsion(task, weightless, band, opts):
    phi = math.radians(-25.0)
    traj = run_trial(short_schedule(torsion=phi), task, weightless, band, opts)
    np.testing.assert_allclose(torsion_about_pointer(traj.quat_des), phi, atol=1e-8)


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def synthetic_trajectory(n=5):
    t = np.arange(n) * 1e-3
    plan = np.zeros((n, 3))
    plan[:, 0] = 0.3
    pointer = plan.copy()
    pointer[:, 1] += 0.002
    pointer[:, 2] += np.linspace(0.0, 0.004, n)
    tau = np.zeros((n, 3))
    tau[:, 1] = np.linspace(1.0, 2.0, n)
    quat = np.tile([1.0, 0.0, 0.0, 0.0], (n, 1))
    return Trajectory(
        t=t, plan_pos=plan, quat_des=quat.copy(), quat=quat,
        omega=np.zeros((n, 3)), tau_cmd=tau, tau_grav=np.zeros((n, 3)),
        pointer=pointer, err_angle=np.zeros(n), disp_max=np.zeros(n),
        stiffness=np.full(n, 1e4), target=np.full(n, -1),
    )


def test_compute_metrics_formulas():
    traj = synthetic_trajectory()
    m = compute_metrics(traj)
    err = traj.pointer - traj.plan_pos
    assert m["rmse_y_m"] == pytest.approx(np.sqrt(np.mean(err[:, 1] ** 2)), rel=0)
    assert m["rmse_z_m"] == pytest.approx(np.sqrt(np.mean(err[:, 2] ** 2)), rel=0)
    effort = np.linalg.norm(traj.tau_cmd, axis=1)
    assert m["effort_mean_Nm"] == pytest.approx(np.mean(effort), rel=0)
    assert m["effort_std_Nm"] == pytest.approx(np.std(effort), rel=0)


def test_target_rmse_uses_scheduled_reference(task):
    # center (no target yet) for t < 1 ms, target 2 until 3 ms, then center
    traj = replace(synthetic_trajectory(), target=np.array([-1, 2, 2, -1, -1]))
    r = target_rmse(traj, task)
    ref = np.array([task.center, task.targets[2], task.targets[2],
                    task.center, task.center])
    err = traj.pointer - ref
    assert r["rmse_target_y_m"] == pytest.approx(np.sqrt(np.mean(err[:, 1] ** 2)), rel=0)
    assert r["rmse_target_z_m"] == pytest.approx(np.sqrt(np.mean(err[:, 2] ** 2)), rel=0)


# ---------------------------------------------------------------------------
# torsion surface
# ---------------------------------------------------------------------------


def test_extract_listing_counts_gimbal_samples():
    """Locked samples are dropped from the table."""
    ident = np.array([1.0, 0.0, 0.0, 0.0])
    s = math.sqrt(0.5)
    locked = np.array([s, 0.0, s, 0.0])  # pitch exactly 90 deg
    table = extract_listing(np.array([ident, ident, locked, ident, locked]))
    assert table.shape == (3, 3)
    np.testing.assert_allclose(table[:, 0], 0.0, atol=0)


def test_extract_listing_columns_are_the_unlocked_angles(rng, monkeypatch):
    """With and without a locked sample, the table holds the Euler angles of
    the unlocked samples, in order, bit for bit; with none locked it is the
    decomposition's own array."""
    from wristsim import _kernel

    decompose, made = _kernel.euler_xyz, []

    def euler_xyz(quats):
        made.append(decompose(quats))
        return made[-1]

    monkeypatch.setattr(_kernel, "euler_xyz", euler_xyz)
    free = quat_normalize(rng.standard_normal((50, 4)))
    locked = quat_from_euler_xyz(0.3, 0.5 * math.pi, -0.2)
    for quats in (free, np.insert(free, [0, 20, 50], locked, axis=0)):
        angles, lock = euler_xyz_from_quat(quats)
        table = extract_listing(quats)
        assert len(quats) - len(table) == np.count_nonzero(lock) == len(quats) - len(free)
        assert table.tobytes() == angles[~lock].tobytes()
        assert (table is made[-1][0]) == (not lock.any())


def test_fit_plane_recovers_synthetic_coefficients(rng):
    y = rng.uniform(-0.3, 0.3, 400)
    z = rng.uniform(-0.3, 0.3, 400)
    x = 0.31 * y - 0.17 * z + 0.045
    fit = fit_plane(np.column_stack([x, y, z]))
    assert fit["tilt_y"] == pytest.approx(0.31, abs=1e-12)
    assert fit["tilt_z"] == pytest.approx(-0.17, abs=1e-12)
    assert fit["offset_rad"] == pytest.approx(0.045, abs=1e-12)
    assert fit["rms_residual_rad"] < 1e-14


def test_fit_plane_rejects_collinear_cloud(rng):
    """Rows that do not span a plane, collinear or only two, fit to None."""
    y = rng.uniform(-0.3, 0.3, 50)
    assert fit_plane(np.column_stack([np.zeros(50), y, 2.0 * y])) is None
    assert fit_plane(rng.uniform(-0.3, 0.3, (2, 3))) is None
