"""Clock-task experiments: schedules, closed-loop trials, metrics.

A trial couples three pieces at a 1 kHz control/recording rate:

* the planner's closed-form reach leg (:class:`~.planner.ReachProfile`)
  gives the planned position, evaluated at every integrator stage time,
* the planned position is projected to a desired pointer orientation with
  the scheduled torsion,
* the impedance controller torque drives the rigid-body plant.

Stiffness, torsion and the active target are piecewise-constant schedules,
so a single trial can sweep controller parameters online.  The planned
stream never looks at the measured state: deformation under gravity or low
stiffness is interaction, not re-planning, and the desired-pose stream is
bit-identical across those conditions.

Streams derived after the loop are computed on the whole record at once,
except the Euler angles of :func:`extract_listing`, kept on ``math``.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, replace
from operator import itemgetter
from typing import Optional, Sequence

import numpy as np

from .dynamics import BodyModel, gravity_torque, plant, rk4_step, unit_quat_state
from .fic import branch_step, branch_torque
from .planner import BandParams, ReachProfile, reach_duration
from .rotations import (
    GimbalLockError,
    X_AXIS,
    euler_xyz_from_quat,
    pointing_quat,
    rotate_vec,
)


class PointerParallelError(ValueError):
    """Raised when the pointer ray cannot pierce the target plane."""


class RankDeficientError(ValueError):
    """Raised when a plane fit has too little spread to be determined."""


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
    """

    plane_distance: float = 0.30
    radius: float = 0.10
    n_targets: int = 8
    dwell: float = 0.5

    def __post_init__(self):
        if not (self.plane_distance > 0.0 and self.radius > 0.0):
            raise ValueError("plane distance and radius must be positive")
        if self.n_targets < 1:
            raise ValueError("need at least one target")
        if self.dwell < 0.0:
            raise ValueError("dwell must be non-negative")

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

    def position(self, index: int) -> np.ndarray:
        """Target position by index; -1 addresses the circle center."""
        if index < 0:
            return self.center
        return self.targets[index]


@dataclass(frozen=True)
class ParamSchedule:
    """Piecewise-constant controller parameters and target sequence.

    Breakpoints are ``(time, value)`` pairs; each value holds from its time
    until the next breakpoint.  Target values index :class:`ClockTask`
    targets, with -1 for the center; before the first target breakpoint the
    plan holds the center.
    """

    duration: float
    gravity: bool = True
    stiffness_breaks: tuple = ((0.0, 10000.0),)
    torsion_breaks: tuple = ((0.0, 0.0),)
    target_breaks: tuple = ()

    def __post_init__(self):
        if not self.duration > 0.0:
            raise ValueError("duration must be positive")
        for name in ("stiffness_breaks", "torsion_breaks", "target_breaks"):
            breaks = tuple((float(t), v) for t, v in getattr(self, name))
            object.__setattr__(self, name, breaks)
            times = [t for t, _ in breaks]
            if any(b >= a for a, b in zip(times[1:], times)):
                raise ValueError(f"{name} times must be strictly increasing")
        if not self.stiffness_breaks or self.stiffness_breaks[0][0] > 0.0:
            raise ValueError("stiffness schedule must start at t=0")
        if not self.torsion_breaks or self.torsion_breaks[0][0] > 0.0:
            raise ValueError("torsion schedule must start at t=0")
        for _, k in self.stiffness_breaks:
            if not k > 0.0:
                raise ValueError(f"stiffness must be positive, got {k}")

    @staticmethod
    def _value_at(breaks, t, default):
        i = bisect_right(breaks, t, key=itemgetter(0))
        return breaks[i - 1][1] if i else default

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
    gravity: bool = True,
) -> ParamSchedule:
    """Center-out-and-back visit of every clock target in order.

    Each leg lasts one nominal reach duration plus the dwell; out legs aim
    at target k, return legs aim back at the center.
    """
    leg = reach_duration(task.radius, band) + task.dwell
    breaks = []
    for k in range(task.n_targets):
        breaks.append((2 * k * leg, k))
        breaks.append(((2 * k + 1) * leg, -1))
    return ParamSchedule(
        duration=2 * task.n_targets * leg,
        gravity=gravity,
        stiffness_breaks=((0.0, stiffness),),
        torsion_breaks=((0.0, torsion),),
        target_breaks=tuple(breaks),
    )


def build_retune_schedule(
    task: ClockTask,
    band: BandParams,
    stiffness_breaks: Sequence = ((0.0, 10000.0), (0.2, 8000.0), (0.3, 1000.0)),
    torsion_breaks: Sequence = ((0.0, 0.0), (0.35, math.radians(-25.0))),
    gravity: bool = True,
    target: int = 0,
    reach_start: float = 0.05,
    return_start: float = 1.5,
    duration: float = 2.5,
) -> ParamSchedule:
    """Out-and-back reach to one target with K and phi stepped mid-flight.

    Both parameter steps land inside the outgoing leg; the return leg runs
    entirely under the final (K, phi) pair, so its measured speed profile
    shows the recovered bell shape.
    """
    return ParamSchedule(
        duration=duration,
        gravity=gravity,
        stiffness_breaks=tuple(stiffness_breaks),
        torsion_breaks=tuple(torsion_breaks),
        target_breaks=((reach_start, target), (return_start, -1)),
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

    dt: float = 1e-3
    substeps: int = 10

    #: the only integrator; each substep evaluates the right-hand side 4 times
    method = "rk4"


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


def run_trial(
    schedule: ParamSchedule,
    task: ClockTask,
    body: BodyModel,
    band: BandParams,
    opts: SimOptions = SimOptions(),
) -> Trajectory:
    """Simulate one scheduled trial and record it at the control rate."""
    if not schedule.gravity:
        body = replace(body, gravity=(0.0, 0.0, 0.0))
    n = int(round(schedule.duration / opts.dt))
    times = np.arange(n + 1) * opts.dt
    # piecewise-constant parameter streams on the sample grid
    stiff = np.array([schedule.stiffness_at(t) for t in times])
    torsion = np.array([schedule.torsion_at(t) for t in times])
    idx_stream = [schedule.target_at(t) for t in times]
    plan_pos, quat_des, quat, omega, tau_cmd, err_angle, disp_max = _simulate(
        times, stiff, torsion, idx_stream, task, body, band, opts
    )
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
        stiffness=stiff.copy(),
    )


def _simulate(times, stiff, torsion, idx_stream, task, body, band, opts):
    """The trial kernel: closed loop on plain floats, RK4 with renormalization.

    The branch machine ticks at every substep boundary and is frozen inside
    the RK4 stages; the plan (the active leg's
    :meth:`~.planner.ReachProfile.position`) and the desired pose are
    evaluated at every stage time.
    """
    n = len(times) - 1
    plan_pos = np.empty((n + 1, 3))
    quat_des = np.empty((n + 1, 4))
    quat = np.empty((n + 1, 4))
    omega_rec = np.empty((n + 1, 3))
    tau_rec = np.empty((n + 1, 3))
    err_rec = np.empty(n + 1)
    dmax_rec = np.empty(n + 1)

    plant_rhs = plant(body)
    leg_position = ReachProfile.from_rest(task.center, task.center, band, 0.0).position

    def closed_loop(y, t):
        qw, qx, qy, qz, wx, wy, wz = y
        px, py, pz = leg_position(t)
        dw, dx, dy, dz = pointing_quat(px, py, pz, cr, sr)
        tx, ty, tz, _ = branch_torque(qw, qx, qy, qz, dw, dx, dy, dz,
                                      k_now, diverging, peak)
        return plant_rhs(qw, qx, qy, qz, wx, wy, wz, tx, ty, tz)

    # initial state: at the plan start pose, at rest
    phi0 = float(torsion[0])
    y = (*pointing_quat(float(task.center[0]), float(task.center[1]),
                        float(task.center[2]),
                        math.cos(0.5 * phi0), math.sin(0.5 * phi0)),
         0.0, 0.0, 0.0)
    diverging, peak, prev = True, 0.0, 0.0
    cur_idx: Optional[int] = None
    h = opts.dt / opts.substeps
    stiff_f = [float(v) for v in stiff]
    torsion_f = [float(v) for v in torsion]
    times_f = [float(v) for v in times]

    for k in range(n + 1):
        t_k = times_f[k]
        if idx_stream[k] is not None and idx_stream[k] != cur_idx:
            leg_position = ReachProfile.from_rest(
                leg_position(t_k), task.position(idx_stream[k]), band, t_k
            ).position
            cur_idx = idx_stream[k]
            diverging, peak, prev = True, 0.0, 0.0
        k_now = stiff_f[k]
        cr, sr = math.cos(0.5 * torsion_f[k]), math.sin(0.5 * torsion_f[k])

        # one finiteness test per sample: a sum of finite values is finite
        # unless the state has already diverged far enough to overflow
        if not math.isfinite(sum(y)):
            raise SimulationError(
                f"non-finite state at sample {k} (t = {t_k:.3f} s)"
            )
        for i in range(opts.substeps):
            t_sub = t_k + i * h
            # controller tick at the substep boundary
            qw, qx, qy, qz, wx, wy, wz = y
            px, py, pz = leg_position(t_sub)
            dw, dx, dy, dz = pointing_quat(px, py, pz, cr, sr)
            angle = branch_torque(qw, qx, qy, qz, dw, dx, dy, dz,
                                  k_now, diverging, peak)[3]
            diverging, peak = branch_step(diverging, peak, angle, angle - prev)
            prev = angle
            if i == 0:  # record the sample at the first tick of its interval
                tcx, tcy, tcz, _ = branch_torque(qw, qx, qy, qz, dw, dx, dy, dz,
                                                 k_now, diverging, peak)
                plan_pos[k] = px, py, pz
                quat_des[k] = dw, dx, dy, dz
                quat[k] = qw, qx, qy, qz
                omega_rec[k] = wx, wy, wz
                tau_rec[k] = tcx, tcy, tcz
                err_rec[k] = angle
                dmax_rec[k] = peak
                if k == n:  # the last sample is recorded, not integrated
                    break
            y = unit_quat_state(rk4_step(closed_loop, y, t_sub, h))

    return plan_pos, quat_des, quat, omega_rec, tau_rec, err_rec, dmax_rec


# ---------------------------------------------------------------------------
# metrics and the torsion surface
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TrialMetrics:
    rmse_y: float
    rmse_z: float
    effort_mean: float
    effort_std: float


def _rmse_yz(err: np.ndarray) -> tuple[float, float]:
    """Root-mean-square of the y and z columns of an (n, 3) error stack."""
    return tuple(float(np.sqrt(np.mean(err[:, i] ** 2))) for i in (1, 2))


def compute_metrics(traj: Trajectory) -> TrialMetrics:
    """Tracking error against the plan plus commanded-torque effort."""
    effort = np.linalg.norm(traj.tau_cmd, axis=1)
    return TrialMetrics(
        *_rmse_yz(traj.pointer - traj.plan_pos),
        effort_mean=float(np.mean(effort)),
        effort_std=float(np.std(effort)),
    )


def target_rmse(
    traj: Trajectory, schedule: ParamSchedule, task: ClockTask
) -> tuple[float, float]:
    """Alternative error: pointer against the scheduled target position;
    the center row of ``[targets; center]`` serves -1 and ``None``."""
    table = np.vstack([task.targets, task.center])
    rows = [-1 if idx is None else idx for idx in map(schedule.target_at, traj.t)]
    return _rmse_yz(traj.pointer - table[rows])


@dataclass(frozen=True)
class ListingSurface:
    """Euler-angle point cloud (x torsion as a function of y and z)."""

    theta_y: np.ndarray
    theta_z: np.ndarray
    theta_x: np.ndarray
    n_excluded: int = 0


@dataclass(frozen=True)
class PlaneFit:
    tilt_y: float
    tilt_z: float
    offset: float
    rms_residual: float


def extract_listing(quats: np.ndarray) -> ListingSurface:
    """Intrinsic x-y-z Euler decomposition of an (n, 4) quaternion stream.

    Samples inside the gimbal-lock guard band are excluded and counted.
    """
    angles, excluded = [], 0  # one flat list: a tuple per sample costs more memory
    for q in quats:
        try:
            angles.extend(euler_xyz_from_quat(q))
        except GimbalLockError:
            excluded += 1
    if not angles:
        raise ValueError("no usable samples outside the gimbal guard band")
    theta_x, theta_y, theta_z = np.reshape(angles, (-1, 3)).T
    return ListingSurface(
        theta_y=theta_y, theta_z=theta_z, theta_x=theta_x, n_excluded=excluded
    )


def fit_plane(surface: ListingSurface) -> PlaneFit:
    """Least-squares plane theta_x = a*theta_y + b*theta_z + c."""
    design = np.column_stack(
        [surface.theta_y, surface.theta_z, np.ones_like(surface.theta_y)]
    )
    coef, _, rank, _ = np.linalg.lstsq(design, surface.theta_x, rcond=None)
    if rank < 3:
        raise RankDeficientError(
            "surface samples do not span a plane (collinear or too few)"
        )
    residual = design @ coef - surface.theta_x
    return PlaneFit(
        tilt_y=float(coef[0]),
        tilt_z=float(coef[1]),
        offset=float(coef[2]),
        rms_residual=float(np.sqrt(np.mean(residual**2))),
    )
