"""Fractal impedance controller: branch logic, force/torque laws, energy.

The controller is a nonlinear spring with two branches.  While the tracking
displacement grows (divergence) it pulls back as a linear spring;
once the displacement peaks it switches to a linear spring anchored at half
the recorded peak (convergence), which carries the state back to the goal in
a single harmonic half cycle and arrives at rest.  Every completed excursion
therefore dissipates the energy it stored, without any explicit damping
term, while the instantaneous output torque stays bounded by the stiffness
times the peak displacement.

The controller state is the pair ``(diverging, peak)``: the branch flag and
the recorded peak displacement.  The four laws are written once on plain
floats: the branch machine :func:`branch_step`, the force
:func:`branch_force`, its potential :func:`branch_potential` and the
quaternion torque :func:`branch_torque`.  The compiled trial kernel
(``_kernel.c``) repeats the machine, the force and the torque operation for
operation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

#: displacement below which a converged excursion is considered closed
DEADBAND = 1e-6


@dataclass(frozen=True)
class FicPhase:
    """Controller memory: branch flag and the peak displacement seen.

    ``disp_prev`` only feeds the displacement-rate estimate of
    :func:`fic_torque_quat`; it carries no control authority of its own.
    """

    diverging: bool = True
    disp_max: float = 0.0
    disp_prev: float = 0.0


def branch_step(diverging, peak, disp, rate):
    """Advance the branch machine; returns ``(diverging, peak)``.

    Divergence holds while the displacement grows and records its running
    peak; the first non-growing sample hands over to convergence with the
    peak frozen.  Convergence resets to a fresh divergence once the
    displacement closes to within :data:`DEADBAND` of the goal.

    A divergence re-opened mid-convergence (the descent stalled or was
    disturbed before reaching the goal) tracks its own peak from the point
    of re-entry rather than inheriting the stale one.  Keeping the old peak
    would anchor the next convergence spring at half a displacement the
    motion no longer visits, whose repelling inner half can trap the state
    in a sustained limit cycle; re-anchoring makes every aborted descent
    shed its energy mismatch instead.
    """
    if not diverging and disp <= DEADBAND:
        return True, 0.0
    if rate > 0.0 or disp > peak:
        if diverging:
            return True, disp if disp > peak else peak
        return True, disp
    return False, peak


def branch_force(disp, stiffness, diverging, peak):
    """Restoring force toward the goal (positive pulls the error down).

    Divergence is the linear spring; convergence is a spring of twice the
    gain anchored at half the peak, continuous with it at the switch.
    """
    if diverging:
        return stiffness * disp
    if peak > 0.0:
        return 2.0 * (stiffness * peak) / peak * (disp - 0.5 * peak)
    return 0.0


def branch_potential(disp, stiffness, diverging, peak):
    """Potential of :func:`branch_force`, continuous at the switch.

    Along either branch the sum of kinetic energy and this potential is an
    invariant of the autonomous motion; the discrete branch events can only
    remove energy from the ledger.
    """
    if diverging:
        return 0.5 * stiffness * disp * disp
    if peak <= 0.0:
        return 0.0
    gain = 2.0 * (stiffness * peak) / peak
    offset = 0.5 * stiffness * peak * peak - 0.5 * gain * (0.5 * peak) ** 2
    return 0.5 * gain * (disp - 0.5 * peak) ** 2 + offset


def branch_torque(qw, qx, qy, qz, dw, dx, dy, dz, stiffness, diverging, peak):
    """World torque pulling q toward the desired d; returns (tx, ty, tz, angle).

    The orientation error is ``d * q^-1``; its rotation angle drives the
    branch force and the torque acts along its unit axis, so the torque
    magnitude is exactly the branch force.  The angle does not depend on
    the branch state.
    """
    ew = dw * qw + dx * qx + dy * qy + dz * qz
    ex = dx * qw - dw * qx - dy * qz + dz * qy
    ey = dx * qz - dw * qy + dy * qw - dz * qx
    ez = -dw * qz - dx * qy + dy * qx + dz * qw
    vn = math.sqrt(ex * ex + ey * ey + ez * ez)
    angle = 2.0 * math.atan2(vn, ew)
    if vn < 1e-15:
        return 0.0, 0.0, 0.0, angle
    sign = 1.0 if ew > 0.0 else (-1.0 if ew < 0.0 else 0.0)
    scale = sign * branch_force(angle, stiffness, diverging, peak) / vn
    return scale * ex, scale * ey, scale * ez, angle


def update_phase(phase: FicPhase, disp: float, disp_rate: float) -> FicPhase:
    """Advance the branch machine for the current displacement sample.

    See :func:`branch_step`.
    """
    if disp < 0.0:
        raise ValueError("displacement must be non-negative")
    return FicPhase(
        *branch_step(phase.diverging, phase.disp_max, disp, disp_rate), disp
    )


# ---------------------------------------------------------------------------
# quaternion (spherical joint) form
# ---------------------------------------------------------------------------


def torque_for_phase(
    q: np.ndarray, q_des: np.ndarray, stiffness: float, phase: FicPhase
) -> tuple[np.ndarray, float]:
    """World-frame torque for a frozen branch state; returns (torque, angle).

    See :func:`branch_torque`.
    """
    *torque, angle = branch_torque(
        *map(float, q), *map(float, q_des), stiffness, phase.diverging, phase.disp_max
    )
    return np.array(torque), angle


def fic_torque_quat(
    q: np.ndarray, q_des: np.ndarray, stiffness: float, phase: FicPhase
) -> tuple[np.ndarray, float, FicPhase]:
    """One controller tick: update the branch machine, emit world torque.

    The displacement rate is estimated from the previous displacement
    stored in ``phase``.  Returns ``(torque, angle, phase')``.
    """
    _, angle = torque_for_phase(q, q_des, stiffness, phase)
    new_phase = update_phase(phase, angle, angle - phase.disp_prev)
    torque, _ = torque_for_phase(q, q_des, stiffness, new_phase)
    return torque, angle, new_phase
