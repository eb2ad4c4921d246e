"""Slow reference implementations that the shipped code is checked against.

The trial loop and :func:`dp45_step` step a float state tuple
``(qw, qx, qy, qz, wx, wy, wz)`` with a float right-hand side ``rhs(y, t)``,
as the package's one stepper, ``dynamics.integrate_step``, does.

* :func:`simulate_scalar` is the trial loop on plain floats through the
  package's float laws (``pointing_quat``, ``branch_step``,
  ``branch_torque``, ``plant``, one-substep ``integrate_step`` and
  ``unit_quat_state``); the
  compiled kernel must reproduce its records bit for bit.
* :func:`dp45_step` is an embedded Dormand-Prince 4(5) step with error
  control, called like ``integrate_step``; the cross-check for the
  fixed-step RK4.
* :func:`plan_reach` is the elastic band integrated step by step from rest;
  ``ReachProfile`` is its closed form and must match it before touchdown.
* :func:`simulate_release` integrates the controller's autonomous release
  on a point mass, and :func:`vdp_equivalent_mu` matches it to a van der
  Pol oscillator; the release analysis of the acceptance criterion A7.
* :func:`euler_xyz_scalar` is the Euler decomposition of one quaternion on
  ``math``; ``euler_xyz_from_quat`` and the compiled ``_kernel.euler_xyz``
  must reproduce it bit for bit on stacks.
* :func:`savetxt` is the CSV writer through ``np.savetxt`` and
  :func:`trajectory_table` the trajectory as one stacked table;
  ``write_csv`` and ``write_trajectory`` must reproduce its bytes.
* :func:`torsion_about_pointer` reads the roll about the pointer back out
  of a quaternion, through :func:`quat_canonical`; ``project_to_sphere``
  and the trial's desired stream must carry the scheduled torsion.
* :func:`rotation_vectors` is the torsion surface in rotation-vector
  coordinates, with the scheduled torsion factored out: the table of
  Listing's plane (Haslwanter, Vision Res 1995) that ``fit_plane`` takes.
* :func:`plan_torque` is the inverse dynamics of a desired stream: the
  torque that realises the plan on a body, against which the commanded
  effort is read.
* :func:`fick_quat` and :func:`helmholtz_quat` point the body x axis along
  a direction through a gimbal, the two controls that obey Donders' law
  but not Listing's, beside the shortest arc of ``pointing_quat``.
"""

import math
from types import SimpleNamespace
from typing import Optional

import numpy as np

from wristsim.dynamics import gravity_torque, integrate_step, plant, rk4_step, unit_quat_state
from wristsim.experiments import SimulationError
from wristsim.fic import branch_force, branch_step, branch_torque
from wristsim.planner import ReachProfile
from wristsim.rotations import GIMBAL_GUARD, _atan2, pointing_quat, quat_conj, quat_mul


def simulate_scalar(schedule, task, body, band, opts):
    """Record one scheduled trial like ``run_trial``, on Python floats.

    The branch machine ticks at every substep boundary and is frozen inside
    the RK4 stages; the plan (the active leg's
    :meth:`~.planner.ReachProfile.position`) and the desired pose are
    evaluated at every stage time.
    """
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
    positions = task.positions
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
                leg_position(t_k), positions[idx_stream[k]], band, t_k
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
            y = unit_quat_state(integrate_step(closed_loop, y, t_sub, h, 1))

    return SimpleNamespace(
        plan_pos=plan_pos, quat_des=quat_des, quat=quat, omega=omega_rec,
        tau_cmd=tau_rec, err_angle=err_rec, disp_max=dmax_rec,
    )


def plan_reach(start, target, params, dt=1e-3):
    """From-rest reach of the elastic band, integrated every ``dt``.

    The band is a point of unit mass pulled toward ``target`` by
    ``branch_force`` at stiffness ``params.max_accel / dist``, stepped with
    RK4 and the branch machine ``branch_step``.  Returns arrays ``(t, pos, vel, acc)`` from t = 0 up to
    and including the tick that snaps onto the target at rest; a reach
    shorter than 1e-6 is the single snapped sample.
    """
    target = np.asarray(target, dtype=float)
    pos, vel, t = np.asarray(start, dtype=float), np.zeros(3), 0.0
    dist = float(np.linalg.norm(pos - target))
    if dist <= 1e-6:
        return np.zeros(1), target[None].copy(), np.zeros((1, 3)), np.zeros((1, 3))
    stiffness = params.max_accel / dist
    # the sampled touchdown can sit up to accel * dt^2 / 2 off the target
    # (tangent approach on a discrete grid), so the snap ball must scale
    # with the deceleration there or long reaches bounce
    snap = max(1e-6, stiffness * dist * dt**2)
    diverging, peak = False, dist

    def accel(p):
        offset = target - p
        d = float(np.linalg.norm(offset))
        if d < 1e-15:
            return np.zeros(3)
        return branch_force(d, stiffness, diverging, peak) / d * offset

    rows = [(t, pos, vel, accel(pos))]
    while True:
        d_prev = float(np.linalg.norm(target - pos))
        pos, vel = rk4_step(lambda y, _: (y[1], accel(y[0])), (pos, vel), t, dt)
        t += dt
        d = float(np.linalg.norm(target - pos))
        if d <= snap:
            rows.append((t, target, np.zeros(3), np.zeros(3)))
            break
        diverging, peak = branch_step(diverging, peak, d, d - d_prev)
        rows.append((t, pos, vel, accel(pos)))
    return tuple(np.array(col) for col in zip(*rows))


def simulate_release(stiffness: float, mass: float, start_disp: float):
    """Integrate the autonomous point-mass release from rest at ``start_disp``.

    The state starts on the convergence branch with the peak at the release
    displacement, mirroring the end of a divergence stroke.  Integration is
    classical RK4 at 4000 steps per half period and stops when the
    displacement first crosses zero, giving up after two half periods; the
    crossing time is refined by linear interpolation and a final partial
    step lands the record exactly on it.

    Returns ``(t, disp, vel, t_arrive)`` with sample arrays ending at the
    arrival state.
    """
    if not stiffness > 0.0:
        raise ValueError(f"stiffness must be positive, got {stiffness}")
    omega = math.sqrt(2.0 * stiffness / mass)
    dt = (math.pi / omega) / 4000.0

    def rhs(y, t):
        return y[1], -branch_force(y[0], stiffness, False, start_disp) / mass

    ts, xs, vs = [0.0], [start_disp], [0.0]
    t, x, v = 0.0, start_disp, 0.0
    t_end = 2.0 * math.pi / omega
    while t < t_end:
        x_new, v_new = rk4_step(rhs, (x, v), t, dt)
        t += dt
        # arrival is a tangent touchdown: displacement reaches zero exactly
        # as the velocity does, so whichever numerical crossing shows first
        # locates it
        if x_new <= 0.0 or v < 0.0 <= v_new:
            if x_new <= 0.0:
                frac = x / (x - x_new)
            else:
                frac = v / (v - v_new)
            t_arrive = t - dt + frac * dt
            x_arr, v_arr = rk4_step(rhs, (x, v), t - dt, frac * dt)
            ts.append(t_arrive)
            xs.append(x_arr)
            vs.append(v_arr)
            return np.array(ts), np.array(xs), np.array(vs), t_arrive
        x, v = x_new, v_new
        ts.append(t)
        xs.append(x)
        vs.append(v)
    raise RuntimeError("release trajectory failed to reach the goal")


def vdp_equivalent_mu(peak_disp: float, stiffness: float, mass: float) -> float:
    """Damping coefficient of the van der Pol oscillator matched to the FIC.

    Matches the energy the controller sheds over one excursion of amplitude
    ``peak_disp`` against the work a Lienard damping term ``(1 - x^2) x'``
    performs along the same trajectory.  The work integral is evaluated by
    trapezoidal quadrature over the simulated autonomous release (the
    differential form collapses to ``(1 - x^2) x'^2 dt`` along the path).
    The stiffness is constant, so no stiffness-variation energy enters.
    """
    if peak_disp <= 0.0:
        raise ValueError("peak displacement must be positive")
    ts, xs, vs, _ = simulate_release(stiffness, mass, peak_disp)
    damping_work = float(np.trapezoid((1.0 - xs**2) * vs**2, ts))
    if damping_work < 1e-12:
        raise ValueError("degenerate damping integral along the release path")
    natural_freq_sq = stiffness / (2.0 * mass)
    numerator = mass * natural_freq_sq * peak_disp**2 + stiffness * peak_disp**2
    return numerator / (2.0 * damping_work)


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


def dp45_step(rhs, y, t, dt=1e-3, rtol=1e-8, atol=1e-12):
    """Advance like ``integrate_step`` with adaptive Dormand-Prince 4(5)."""
    y = np.array(y, dtype=float)
    elapsed = 0.0
    h = dt
    while elapsed < dt - 1e-15:
        h = min(h, dt - elapsed)
        k = [np.array(rhs(y, t + elapsed))]
        for row, c in zip(_DP_A[1:], _DP_C[1:]):
            y_stage = y + h * sum(a * ki for a, ki in zip(row, k))
            k.append(np.array(rhs(y_stage, t + elapsed + c * h)))
        y5 = y + h * sum(b * ki for b, ki in zip(_DP_B5, k))
        y4 = y + h * sum(b * ki for b, ki in zip(_DP_B4, k))
        scale = atol + rtol * np.maximum(np.abs(y), np.abs(y5))
        err = math.sqrt(float(np.mean(((y5 - y4) / scale) ** 2)))
        if err <= 1.0:
            elapsed += h
            y = y5
        factor = 0.9 * (1.0 / err) ** 0.2 if err > 0.0 else 5.0
        h *= min(5.0, max(0.2, factor))
        if h < MIN_ADAPTIVE_STEP:
            raise IntegrationError(
                f"stiff dynamics: adaptive step collapsed below {MIN_ADAPTIVE_STEP}"
            )
    return unit_quat_state(tuple(map(float, y)))


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


def savetxt(path, columns, table):
    """``table`` under a header of ``columns``, each value as ``%.17g``."""
    np.savetxt(path, table, fmt="%.17g", delimiter=",",
               header=",".join(columns), comments="")


def trajectory_table(traj):
    """The records of ``traj`` stacked in ``TRAJECTORY_COLUMNS`` order."""
    return np.column_stack(
        [
            traj.t, traj.plan_pos, traj.quat_des, traj.quat,
            traj.omega, traj.tau_cmd, traj.tau_grav, traj.pointer,
        ]
    )


def quat_canonical(q):
    """Flip sign so the scalar part is non-negative (same rotation), for one
    quaternion or an (n, 4) stack."""
    q = np.asarray(q, dtype=float)
    return np.where(q[..., :1] < 0.0, -q, q)


def torsion_about_pointer(q):
    """Signed roll of the body about its own x axis, in (-pi, pi].

    This is the twist angle of the swing-twist split about +x, which the
    pointing projection composes last; pure swing rotations return 0.
    ``q`` is one quaternion or an (n, 4) stack.
    """
    w, x, _, _ = quat_canonical(q).T
    pure_swing = (np.abs(w) < 1e-15) & (np.abs(x) < 1e-15)
    angle = 2.0 * _atan2(x, w)
    # a half turn with a zero scalar part keeps its negative x: -pi is pi
    angle = np.where(angle == -math.pi, math.pi, angle)
    return np.where(pure_swing, 0.0, angle)[()]


def rotation_vectors(quats, torsion):
    """The (n, 3) rotation vectors (angle times unit axis, rad) of an (n, 4)
    quaternion stack with the scheduled torsion factored out.

    The projection composes the roll last, q = swing * twist_x(torsion), so
    each quaternion is right-multiplied by twist_x(-torsion), canonicalised,
    and mapped to 2 atan2(|v|, w) v / |v| (0 where |v| = 0).  ``torsion``
    is one angle or one per quaternion.
    """
    half = -0.5 * np.asarray(torsion, dtype=float)
    twist = np.stack(np.broadcast_arrays(np.cos(half), np.sin(half), 0.0, 0.0), axis=-1)
    q = quat_canonical(quat_mul(quats, twist))
    v = q[:, 1:]
    norm = np.sqrt(np.sum(v * v, axis=1))
    scale = np.divide(2.0 * np.arctan2(norm, q[:, 0]), norm,
                      out=np.zeros_like(norm), where=norm > 0.0)
    return v * scale[:, None]


def plan_torque(t, quat_des, body):
    """The body-frame torque that realises the desired stream ``quat_des``
    on ``body``, on the interior samples, an (n - 2, 3) stack.

    The body rates are omega = 2 vec(q* q') and alpha = omega', both by
    central differences over ``t``, and tau = I alpha + omega x I omega -
    tau_g(q), the plant's law solved for its control torque.  A gravity-off
    trial takes the body with zero gravity.
    """
    q = np.asarray(quat_des, dtype=float)
    omega = 2.0 * quat_mul(quat_conj(q), np.gradient(q, t, axis=0))[:, 1:]
    alpha = np.gradient(omega, t, axis=0)
    inertia = body.inertia
    tau = alpha @ inertia.T + np.cross(omega, omega @ inertia.T) - gravity_torque(q, body)
    return tau[1:-1]


def _turn(angle, axis):
    """The (n, 4) quaternions of turns by ``angle`` about world axis 1 (y) or 2 (z)."""
    half = 0.5 * np.asarray(angle, dtype=float)
    q = np.zeros(half.shape + (4,))
    q[..., 0], q[..., 1 + axis] = np.cos(half), np.sin(half)
    return q


def fick_quat(d):
    """The Fick-gimbal pose that points body x along each row of the (n, 3)
    directions ``d``: a turn about world z, then one about the rotated y."""
    x, y, z = np.asarray(d, dtype=float).T
    return quat_mul(_turn(np.arctan2(y, x), 2), _turn(np.arctan2(-z, np.hypot(x, y)), 1))


def helmholtz_quat(d):
    """The Helmholtz-gimbal pose that points body x along each row of the
    (n, 3) directions ``d``: a turn about world y, then one about the
    rotated z, the other order of :func:`fick_quat`."""
    x, y, z = np.asarray(d, dtype=float).T
    return quat_mul(_turn(np.arctan2(-z, x), 1), _turn(np.arctan2(y, np.hypot(x, z)), 2))
