"""Slow reference implementations that the shipped code is checked against.

* :func:`simulate_scalar` is the trial loop on plain floats through the
  package's float laws (``pointing_quat``, ``branch_step``,
  ``branch_torque``, ``plant``, ``rk4_step``); the compiled kernel must
  reproduce its records bit for bit.
* :func:`simulate_reference` is the trial loop written against the public
  numpy API (projection, controller tick, one-substep ``integrate_step``);
  the compiled kernel must reproduce it to float rounding.
* :func:`dp45_step` is an embedded Dormand-Prince 4(5) step with error
  control on the same plant, the cross-check for the fixed-step RK4.
* :func:`euler_xyz_scalar` is the Euler decomposition of one quaternion on
  ``math``; ``euler_xyz_from_quat`` must reproduce it bit for bit on stacks.
"""

import math
from dataclasses import replace
from types import SimpleNamespace
from typing import Optional

import numpy as np

from wristsim.dynamics import WristState, integrate_step, plant, rk4_step, unit_quat_state
from wristsim.experiments import SimulationError
from wristsim.fic import FicPhase, branch_step, branch_torque, fic_torque_quat, torque_for_phase
from wristsim.planner import ReachProfile
from wristsim.rotations import GIMBAL_GUARD, pointing_quat, project_to_sphere, quat_norm


def simulate_scalar(schedule, task, body, band, opts):
    """Record one scheduled trial like ``run_trial``, on Python floats.

    The branch machine ticks at every substep boundary and is frozen inside
    the RK4 stages; the plan (the active leg's
    :meth:`~.planner.ReachProfile.position`) and the desired pose are
    evaluated at every stage time.
    """
    if not schedule.gravity:
        body = replace(body, gravity=(0.0, 0.0, 0.0))
    n = int(round(schedule.duration / opts.dt))
    times = np.arange(n + 1) * opts.dt
    stiff_f = [float(schedule.stiffness_at(t)) for t in times]
    torsion_f = [float(schedule.torsion_at(t)) for t in times]
    idx_stream = [schedule.target_at(t) for t in times]
    times_f = [float(v) for v in times]

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
    phi0 = torsion_f[0]
    y = (*pointing_quat(float(task.center[0]), float(task.center[1]),
                        float(task.center[2]),
                        math.cos(0.5 * phi0), math.sin(0.5 * phi0)),
         0.0, 0.0, 0.0)
    diverging, peak, prev = True, 0.0, 0.0
    cur_idx: Optional[int] = None
    h = opts.dt / opts.substeps

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

    return SimpleNamespace(
        plan_pos=plan_pos, quat_des=quat_des, quat=quat, omega=omega_rec,
        tau_cmd=tau_rec, err_angle=err_rec, disp_max=dmax_rec,
    )


def simulate_reference(schedule, task, body, band, opts):
    """Record one scheduled trial like ``run_trial``, without its kernel."""
    if not schedule.gravity:
        body = replace(body, gravity=(0.0, 0.0, 0.0))
    n = int(round(schedule.duration / opts.dt))
    times = np.arange(n + 1) * opts.dt
    plan_pos = np.empty((n + 1, 3))
    quat_des = np.empty((n + 1, 4))
    quat = np.empty((n + 1, 4))
    omega_rec = np.empty((n + 1, 3))
    tau_rec = np.empty((n + 1, 3))
    err_rec = np.empty(n + 1)
    dmax_rec = np.empty(n + 1)

    profile = ReachProfile.from_rest(task.center, task.center, band, 0.0)
    cur_idx: Optional[int] = None
    phase = FicPhase()
    state = WristState(
        q=project_to_sphere(task.center, torsion=schedule.torsion_at(0.0)),
        omega=np.zeros(3),
    )
    h = opts.dt / opts.substeps
    for k in range(n + 1):
        t_k = times[k]
        idx = schedule.target_at(t_k)
        if idx is not None and idx != cur_idx:
            pos_now, _, _ = profile.sample(t_k)
            profile = ReachProfile.from_rest(pos_now, task.position(idx), band, t_k)
            cur_idx = idx
            phase = FicPhase()
        k_now, phi_now = schedule.stiffness_at(t_k), schedule.torsion_at(t_k)

        def desired(t):
            return project_to_sphere(profile.sample(t)[0], torsion=phi_now)

        q_des_k = desired(t_k)
        tau_k, angle_k, phase = fic_torque_quat(state.q, q_des_k, k_now, phase)
        plan_pos[k] = profile.sample(t_k)[0]
        quat_des[k] = q_des_k
        quat[k] = state.q
        omega_rec[k] = state.omega
        tau_rec[k] = tau_k
        err_rec[k] = angle_k
        dmax_rec[k] = phase.disp_max
        if k == n:
            break
        for i in range(opts.substeps):
            t_sub = t_k + i * h
            if i > 0:
                _, _, phase = fic_torque_quat(state.q, desired(t_sub), k_now, phase)

            def controller(q, w, t, _frozen=phase):
                return torque_for_phase(q, desired(t), k_now, _frozen)[0]

            # pin the clock so stage times do not accumulate rounding
            state = WristState(q=state.q, omega=state.omega, t=t_sub)
            state = integrate_step(state, controller, body, dt=h, substeps=1)
    return SimpleNamespace(
        plan_pos=plan_pos, quat_des=quat_des, quat=quat, omega=omega_rec,
        tau_cmd=tau_rec, err_angle=err_rec, disp_max=dmax_rec,
    )


# Dormand-Prince embedded 4(5) tableau
_DP_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_DP_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_DP_B5 = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0)
_DP_B4 = (
    5179 / 57600,
    0.0,
    7571 / 16695,
    393 / 640,
    -92097 / 339200,
    187 / 2100,
    1 / 40,
)

MIN_ADAPTIVE_STEP = 1e-9


class IntegrationError(RuntimeError):
    """Raised when the adaptive integrator cannot meet its tolerance."""


def dp45_step(state, controller, body, dt=1e-3, rtol=1e-8, atol=1e-12):
    """Advance like ``integrate_step`` with adaptive Dormand-Prince 4(5)."""
    plant_rhs = plant(body)

    def rhs(y, t):
        return np.array(plant_rhs(*y, *controller(y[:4], y[4:], t)))

    y = np.concatenate((state.q, state.omega)).astype(float)
    t0 = state.t
    t = 0.0
    h = dt
    while t < dt - 1e-15:
        h = min(h, dt - t)
        k = [rhs(y, t0 + t)]
        for row, c in zip(_DP_A[1:], _DP_C[1:]):
            y_stage = y + h * sum(a * ki for a, ki in zip(row, k))
            k.append(rhs(y_stage, t0 + t + c * h))
        y5 = y + h * sum(b * ki for b, ki in zip(_DP_B5, k))
        y4 = y + h * sum(b * ki for b, ki in zip(_DP_B4, k))
        scale = atol + rtol * np.maximum(np.abs(y), np.abs(y5))
        err = math.sqrt(float(np.mean(((y5 - y4) / scale) ** 2)))
        if err <= 1.0:
            t += h
            y = y5
        factor = 0.9 * (1.0 / err) ** 0.2 if err > 0.0 else 5.0
        h *= min(5.0, max(0.2, factor))
        if h < MIN_ADAPTIVE_STEP:
            raise IntegrationError(
                f"stiff dynamics: adaptive step collapsed below {MIN_ADAPTIVE_STEP}"
            )
    y[:4] /= quat_norm(y[:4])
    return WristState(q=y[:4], omega=y[4:], t=t0 + dt)


def euler_xyz_scalar(q):
    """Intrinsic x-y-z Euler angles of one quaternion, on Python floats,
    and whether the pose lies within ``GIMBAL_GUARD`` of lock."""
    w, x, y, z = map(float, q)
    r02 = 2.0 * (x * z + w * y)
    ang_y = math.asin(max(-1.0, min(1.0, r02)))
    locked = 0.5 * math.pi - abs(ang_y) < GIMBAL_GUARD
    r12 = 2.0 * (y * z - w * x)
    r22 = 1.0 - 2.0 * (x * x + y * y)
    r01 = 2.0 * (x * y - w * z)
    r00 = 1.0 - 2.0 * (y * y + z * z)
    return (math.atan2(-r12, r22), ang_y, math.atan2(-r01, r00)), locked
