"""Clock-task experiments: schedules, closed-loop trials, metrics.

A trial couples three pieces at a 1 kHz control/recording rate:

* the planner's closed-form reach leg (:class:`~.planner.ReachProfile`)
  gives the planned position at the integrator's stage times,
* the planned position is projected to a desired pointer orientation with
  the scheduled torsion, once per distinct position and torsion (a hold
  projects once per leg and torsion),
* the impedance controller torque drives the rigid-body plant.

Stiffness, torsion and the active target are piecewise-constant schedules,
so a single trial can sweep controller parameters online.  The planned
stream never looks at the measured state: deformation under gravity or low
stiffness is interaction, not re-planning, and the desired-pose stream is
bit-identical across those conditions.

The schedules become per-sample streams with one ``searchsorted`` each, the
closed loop runs in the compiled kernel (``_kernel.c``), and the streams
derived after it are computed on the whole record at once.

A torsion surface is one (m, 3) table of (theta_x, theta_y, theta_z) Euler
rows from :func:`extract_listing` to :func:`fit_plane`, which fits column 0
on columns 1 and 2 and returns ``None`` when the rows do not span a plane.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import _kernel
from ._rules import (COUNT, ConfigError, NON_NEGATIVE, NUMBER, POSITIVE, TARGET_INDEX,
                     check_fields, param)
from .dynamics import BodyModel, gravity_torque, plant_constants
from .planner import BandParams, ReachProfile, reach_duration
from .rotations import X_AXIS, pointing_quat, rotate_vec


class PointerParallelError(ValueError):
    """Raised when the pointer ray cannot pierce the target plane."""


class SimulationError(RuntimeError):
    """Raised when a trial's state stops being finite (numerical blow-up)."""


# ---------------------------------------------------------------------------
# task geometry and schedules
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClockTask:
    """Clock-face pointing task: targets on a circle in a frontal plane.

    Targets sit on a circle of ``radius`` in the plane ``x = plane_distance``
    (the joint is the origin), evenly spaced starting from the top and
    walking counter-clockwise in the y-z plane.  ``dwell`` is the hold time
    inserted after each reach.

    The metrics square the pointer's errors, so ``plane_distance + radius``
    may be at most sqrt(float max), about 1.34e154 m, where an error as
    large as the task (a pointer tilted 45 degrees) still squares finitely.
    """

    plane_distance: float = param(POSITIVE, 0.30)
    radius: float = param(POSITIVE, 0.10)
    n_targets: int = param(COUNT, 8)
    dwell: float = param(NON_NEGATIVE, 0.5)

    def __post_init__(self):
        check_fields(self)
        largest = math.sqrt(sys.float_info.max)
        if self.plane_distance + self.radius > largest:
            raise ConfigError(
                f"plane_distance, radius: their sum must be at most {largest:.4g} m, the "
                f"largest pointer error whose square is finite, got {self.plane_distance!r} "
                f"and {self.radius!r}"
            )

    @property
    def center(self) -> np.ndarray:
        return np.array([self.plane_distance, 0.0, 0.0])

    @property
    def targets(self) -> np.ndarray:
        angles = 0.5 * math.pi + 2.0 * math.pi / self.n_targets * np.arange(
            self.n_targets
        )
        out = np.empty((self.n_targets, 3))
        out[:, 0] = self.plane_distance
        out[:, 1] = self.radius * np.cos(angles)
        out[:, 2] = self.radius * np.sin(angles)
        return out

    @property
    def positions(self) -> np.ndarray:
        """The targets, then the center as the last row, so that a target
        index (-1 for the center) selects its row."""
        return np.vstack([self.targets, self.center])


def _in_force(breaks, times):
    """Index of the breakpoint in force at each of ``times`` (a time or an
    array of times), -1 before the first."""
    return np.searchsorted([t for t, _ in breaks], times, side="right") - 1


@dataclass(frozen=True)
class ParamSchedule:
    """Piecewise-constant controller parameters and target sequence.

    Breakpoints are ``(time, value)`` pairs; each value holds from its time
    until the next breakpoint.  A target value selects a row of
    :attr:`ClockTask.positions`: k is target k and -1 the center, its last
    row; before the first target breakpoint the plan holds the center.  A
    reach leg starts only where the target in force changes, so a target
    breakpoint that names the target already held (a first breakpoint to
    the center, too) starts no leg and leaves the controller as it is.
    """

    duration: float = param(POSITIVE)
    stiffness_breaks: tuple = ((0.0, 10000.0),)
    torsion_breaks: tuple = ((0.0, 0.0),)
    target_breaks: tuple = ()

    def __post_init__(self):
        check_fields(self)
        for name, rule in (("stiffness_breaks", POSITIVE), ("torsion_breaks", NUMBER),
                           ("target_breaks", TARGET_INDEX)):
            breaks = tuple(getattr(self, name))
            for i, (t, v) in enumerate(breaks):
                NUMBER.check(t, f"{name}[{i}] time")
                rule.check(v, f"{name}[{i}] value")
            breaks = tuple((float(t), v) for t, v in breaks)
            object.__setattr__(self, name, breaks)
            times = [t for t, _ in breaks]
            if any(b >= a for a, b in zip(times[1:], times)):
                raise ConfigError(f"{name} times must be strictly increasing")
        if not self.stiffness_breaks or self.stiffness_breaks[0][0] > 0.0:
            raise ConfigError("stiffness schedule must start at t=0")
        if not self.torsion_breaks or self.torsion_breaks[0][0] > 0.0:
            raise ConfigError("torsion schedule must start at t=0")

    @staticmethod
    def _value_at(breaks, t, default):
        i = _in_force(breaks, t)
        return breaks[i][1] if i >= 0 else default

    def stiffness_at(self, t: float) -> float:
        return self._value_at(self.stiffness_breaks, t, self.stiffness_breaks[0][1])

    def torsion_at(self, t: float) -> float:
        return self._value_at(self.torsion_breaks, t, self.torsion_breaks[0][1])

    def target_at(self, t: float) -> Optional[int]:
        return self._value_at(self.target_breaks, t, None)


def build_clock_schedule(
    task: ClockTask,
    band: BandParams,
    stiffness: float = 10000.0,
    torsion: float = 0.0,
) -> ParamSchedule:
    """Center-out-and-back visit of every clock target in order: the
    target order 0, -1, 1, -1, ... (-1 is the center).

    Leg ``i`` starts at ``i * leg`` and lasts ``leg``, one nominal reach
    duration plus the dwell.
    """
    leg = reach_duration(task.radius, band) + task.dwell
    order = [target for k in range(task.n_targets) for target in (k, -1)]
    return ParamSchedule(
        duration=len(order) * leg,
        stiffness_breaks=((0.0, stiffness),),
        torsion_breaks=((0.0, torsion),),
        target_breaks=tuple((i * leg, target) for i, target in enumerate(order)),
    )


def build_retune_schedule() -> ParamSchedule:
    """Out-and-back reach to target 0 with K and phi stepped mid-flight.

    The reach starts at 0.05 s and the return at 1.5 s; K steps 10000 ->
    8000 -> 1000 N*m/rad at 0.2 and 0.3 s and phi 0 -> -25 deg at 0.35 s.
    The return leg runs entirely under the final (K, phi) pair, so its
    measured speed profile shows the recovered bell shape.

    The step times are absolute, so they land inside the outgoing reach
    only while it ends after the last of them;
    :class:`~.config.ExperimentConfig` refuses a ``task.radius`` and
    ``band.max_accel`` whose reach ends at or before it.  The default reach
    lasts 0.3927 s and ends at 0.4427 s.
    """
    return ParamSchedule(
        duration=2.5,
        stiffness_breaks=((0.0, 10000.0), (0.2, 8000.0), (0.3, 1000.0)),
        torsion_breaks=((0.0, 0.0), (0.35, math.radians(-25.0))),
        target_breaks=((0.05, 0), (1.5, -1)),
    )


# ---------------------------------------------------------------------------
# trial runner
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SimOptions:
    """Integration options for a trial.

    The control/recording interval ``dt`` is split into ``substeps`` RK4
    steps, and the controller branch machine advances at the substep rate
    too.  Ten substeps resolve the stiffest (twist) error mode at
    clock-task stiffness well enough for the branch switches to land on
    time; five is numerically stable but mistimed switches feed the residual
    ring instead of draining it.
    """

    dt: float = param(POSITIVE, 1e-3)
    substeps: int = param(COUNT, 10)

    #: the only integrator; each substep evaluates the right-hand side 4 times
    method = "rk4"

    def __post_init__(self):
        check_fields(self)


@dataclass
class Trajectory:
    """Uniformly sampled record of one trial (SI units, body-frame omega)."""

    t: np.ndarray
    plan_pos: np.ndarray
    quat_des: np.ndarray
    quat: np.ndarray
    omega: np.ndarray
    tau_cmd: np.ndarray
    tau_grav: np.ndarray
    pointer: np.ndarray
    err_angle: np.ndarray
    disp_max: np.ndarray
    stiffness: np.ndarray
    #: scheduled target per sample, a row of :attr:`ClockTask.positions`:
    #: k for target k, -1 for the center (also before the first target
    #: breakpoint); a reach leg starts at each sample where it changes
    target: np.ndarray

    def __len__(self) -> int:
        return self.t.shape[0]


def pointer_intersection(q: np.ndarray, plane_distance: float) -> np.ndarray:
    """Point where the body x ray pierces the plane x = plane_distance, for
    one quaternion or an (n, 4) stack; names the first parallel sample."""
    ray = rotate_vec(q, X_AXIS)
    parallel = np.flatnonzero(np.abs(ray[..., 0]) <= 1e-6)
    if parallel.size:
        k = parallel[0]
        raise PointerParallelError(
            f"pointer ray {ray.reshape(-1, 3)[k]} at sample {k} "
            "is parallel to the target plane"
        )
    return plane_distance / ray[..., :1] * ray


def _leg_table(times, target, positions, band):
    """The plan's reach legs: the sample each takes over at and its row.

    The first leg holds the center from the start.  A new leg starts from
    the previous leg's planned position at each sample where ``target``
    (:attr:`Trajectory.target`) differs from the previous sample's, the
    center before sample 0; the plan never reads the measured state.
    """
    leg = ReachProfile.from_rest(positions[-1], positions[-1], band, 0.0)
    starts, legs = [0], [leg]
    for k in np.flatnonzero(np.diff(target, prepend=-1)):
        t_k = float(times[k])
        leg = ReachProfile.from_rest(leg.position(t_k), positions[target[k]], band, t_k)
        starts.append(k)
        legs.append(leg)
    rows = [(g.t0, g.duration, g.dist, g.omega, *g.target, *g.unit) for g in legs]
    return starts, rows


def run_trial(
    schedule: ParamSchedule,
    task: ClockTask,
    body: BodyModel,
    band: BandParams,
    opts: SimOptions = SimOptions(),
) -> Trajectory:
    """Simulate one scheduled trial and record it at the control rate.

    The closed loop runs in the compiled kernel (``_kernel.c``): the branch
    machine ticks at every substep boundary and is frozen inside the RK4
    stages.  The plan (the active leg's
    :meth:`~.planner.ReachProfile.position`) is evaluated at each distinct
    stage time, and the desired pose is computed once per distinct planned
    position and torsion.  The tick's orientation error also gives the
    record's torque and the first RK4 stage.
    """
    n = int(round(schedule.duration / opts.dt))
    times = np.arange(n + 1) * opts.dt
    # piecewise-constant parameter streams on the sample grid
    stiff = np.array([float(k) for _, k in schedule.stiffness_breaks])[
        _in_force(schedule.stiffness_breaks, times)]
    half = [0.5 * float(phi) for _, phi in schedule.torsion_breaks]
    phi_break = _in_force(schedule.torsion_breaks, times)
    cr = np.array([math.cos(a) for a in half])[phi_break]
    sr = np.array([math.sin(a) for a in half])[phi_break]
    # each full-length temporary goes at its last use: the torsion break
    # index before the kernel, the torsion streams after it
    del phi_break
    # break -1 (no target yet) picks the appended center
    target = np.array([*(idx for _, idx in schedule.target_breaks), -1])[
        _in_force(schedule.target_breaks, times)]
    beyond = target[target >= task.n_targets]
    if beyond.size:
        raise ConfigError(f"target index {beyond[0]} out of range for {task.n_targets} targets")
    leg_start, legs = _leg_table(times, target, task.positions, band)
    # initial state: at the plan start pose, at rest
    y0 = (*pointing_quat(*map(float, task.center), float(cr[0]), float(sr[0])),
          0.0, 0.0, 0.0)
    failed, records = _kernel.simulate(
        times, stiff, cr, sr, leg_start, legs, plant_constants(body), y0,
        opts.dt / opts.substeps, opts.substeps,
    )
    if failed >= 0:
        raise SimulationError(
            f"non-finite state at sample {failed} (t = {times[failed]:.3f} s)"
        )
    del cr, sr
    plan_pos, quat_des, quat, omega, tau_cmd, err_angle, disp_max = records
    return Trajectory(
        t=times,
        plan_pos=plan_pos,
        quat_des=quat_des,
        quat=quat,
        omega=omega,
        tau_cmd=tau_cmd,
        tau_grav=gravity_torque(quat, body),
        pointer=pointer_intersection(quat, task.plane_distance),
        err_angle=err_angle,
        disp_max=disp_max,
        stiffness=stiff,
        target=target,
    )


# ---------------------------------------------------------------------------
# metrics and the torsion surface
# ---------------------------------------------------------------------------


def _rmse_yz(a: np.ndarray, b: np.ndarray) -> tuple[float, float]:
    """Root-mean-square of the y and z columns of ``a - b``, for (n, 3)
    stacks, one column at a time."""
    return tuple(float(np.sqrt(np.mean((a[:, i] - b[:, i]) ** 2))) for i in (1, 2))


def compute_metrics(traj: Trajectory) -> dict:
    """Tracking error against the plan plus commanded-torque effort, keyed as
    in ``metrics.json``: ``rmse_y_m`` and ``rmse_z_m``, the pointer's RMS
    error in m, and ``effort_mean_Nm`` and ``effort_std_Nm``, the mean and
    standard deviation of the commanded torque's norm in N*m."""
    effort = np.linalg.norm(traj.tau_cmd, axis=1)
    rmse_y, rmse_z = _rmse_yz(traj.pointer, traj.plan_pos)
    return {"rmse_y_m": rmse_y, "rmse_z_m": rmse_z,
            "effort_mean_Nm": float(np.mean(effort)), "effort_std_Nm": float(np.std(effort))}


def target_rmse(traj: Trajectory, task: ClockTask) -> dict:
    """Alternative error: pointer against the scheduled target position,
    the row of :attr:`ClockTask.positions` that ``traj.target`` selects,
    keyed as in ``metrics.json``: ``rmse_target_y_m`` and
    ``rmse_target_z_m``, in m."""
    rmse_y, rmse_z = _rmse_yz(traj.pointer, task.positions[traj.target])
    return {"rmse_target_y_m": rmse_y, "rmse_target_z_m": rmse_z}


def extract_listing(quats: np.ndarray) -> np.ndarray:
    """Torsion surface of an (n, 4) quaternion stream: the (m, 3) table of
    intrinsic x-y-z Euler angles (theta_x, theta_y, theta_z) of the samples
    outside the gimbal-lock guard band, in order.

    The angles are :func:`~.rotations.euler_xyz_from_quat`'s, bit for bit,
    computed in the compiled library (:func:`~._kernel.euler_xyz`), which
    refuses a quaternion that is not finite with ``ValueError``.  When no
    sample is locked, the table is the decomposition's own array.
    """
    angles, locked = _kernel.euler_xyz(quats)
    # with no sample locked, a mask would only copy every row
    table = angles[~locked] if locked.any() else angles
    if not len(table):
        raise ValueError("no usable samples outside the gimbal guard band")
    return table


def fit_plane(table: np.ndarray) -> Optional[dict]:
    """Least-squares plane theta_x = a*theta_y + b*theta_z + c through an
    (m, 3) table of (theta_x, theta_y, theta_z) rows, keyed as in
    ``metrics.json``: ``tilt_y`` (a) and ``tilt_z`` (b), both rad/rad,
    ``offset_rad`` (c), and ``rms_residual_rad``, the RMS of the fit's
    residual in rad.  ``None`` (``null`` in ``metrics.json``) when the rows
    do not span a plane: collinear, or fewer than three."""
    design = np.column_stack([table[:, 1], table[:, 2], np.ones(len(table))])
    coef, _, rank, _ = np.linalg.lstsq(design, table[:, 0], rcond=None)
    if rank < 3:
        return None
    residual = design @ coef - table[:, 0]
    return {
        "tilt_y": float(coef[0]),
        "tilt_z": float(coef[1]),
        "offset_rad": float(coef[2]),
        "rms_residual_rad": float(np.sqrt(np.mean(residual**2))),
    }
