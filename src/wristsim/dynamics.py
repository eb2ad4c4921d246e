"""Rigid-body wrist plant: a box on an ideal spherical joint at the origin.

State is the float tuple ``(qw, qx, qy, qz, wx, wy, wz)``: the body
orientation quaternion (body -> world) and the body-frame angular velocity.
The only torques are the commanded world-frame control torque and gravity
acting at the center of mass; there is no joint friction, so any damping
must come from the controller.

The plant law (:func:`plant`, :func:`gravity_moment`), the RK4 step and
:func:`integrate_step`, the one Python stepper, are written once on plain
floats; the compiled trial kernel (``_kernel.c``) repeats them operation for
operation.  They use arithmetic and ``math.sqrt`` only, both correctly
rounded in C and Python, so no transcendental stands between the two.
:func:`gravity_torque` feeds :func:`gravity_moment` the columns of a whole
quaternion record.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._rules import POSITIVE, VECTOR, ConfigError, check_fields, param
from .rotations import to_body

GRAVITY_DEFAULT = (0.0, 0.0, -9.81)


def inertia_box(
    mass: float, length: float, width: float, thickness: float, com_offset
) -> np.ndarray:
    """Inertia tensor about the joint for a uniform box.

    ``length`` runs along the body x (pointer) axis, ``width`` along y and
    ``thickness`` along z.  The center of mass sits at ``com_offset`` in the
    body frame and the joint at the body origin, so the central inertia is
    shifted by the parallel-axis term.
    """
    lx, ly, lz = length, width, thickness
    central = (
        mass
        / 12.0
        * np.diag([ly**2 + lz**2, lx**2 + lz**2, lx**2 + ly**2])
    )
    d = np.asarray(com_offset, dtype=float)
    return central + mass * (float(d @ d) * np.eye(3) - np.outer(d, d))


@dataclass(frozen=True)
class BodyModel:
    """Geometry, mass properties and the ambient gravity vector."""

    mass: float = param(POSITIVE, 1.0)
    length: float = param(POSITIVE, 0.10)
    width: float = param(POSITIVE, 0.08)
    thickness: float = param(POSITIVE, 0.02)
    com_offset: tuple = param(VECTOR, (0.05, 0.0, 0.0))
    gravity: tuple = param(VECTOR, GRAVITY_DEFAULT)

    def __post_init__(self):
        check_fields(self)
        object.__setattr__(self, "com_offset", tuple(float(c) for c in self.com_offset))
        object.__setattr__(self, "gravity", tuple(float(g) for g in self.gravity))
        # the plant inverts the inertia about the joint and adds the gravity moment
        shape = "mass, length, width, thickness, com_offset"
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                inertia = self.inertia
        except OverflowError:  # the square of a side is past the float range
            inertia = np.full((3, 3), math.inf)
        if not np.isfinite(inertia).all():
            raise ConfigError(f"{shape}: the inertia about the joint is not finite")
        # Sylvester's criterion on the inertia scaled to a largest entry of 1;
        # the inverse's largest entry is the largest cofactor / det / scale
        scale = float(np.abs(inertia).max())
        (a, b, c), (_, d, e), (_, _, f) = (inertia / (scale or 1.0)).tolist()
        cof = (d * f - e * e, c * e - b * f, b * e - c * d,
               a * f - c * c, b * c - a * e, a * d - b * b)
        det = a * cof[0] + b * cof[1] + c * cof[2]
        if not (a > 0.0 and cof[5] > 0.0 and det > 0.0):
            raise ConfigError(f"{shape}: the inertia about the joint is not positive definite")
        if not math.isfinite(max(map(abs, cof)) / det / scale):
            raise ConfigError(f"{shape}: the inverse of the inertia about the joint "
                              "is not finite")
        if not math.isfinite(self.mass * math.hypot(*self.gravity)
                             * math.hypot(*self.com_offset)):
            raise ConfigError("mass, gravity, com_offset: the gravity moment m*|g|*|c| "
                              "overflows the float range")

    @property
    def inertia(self) -> np.ndarray:
        return inertia_box(
            self.mass, self.length, self.width, self.thickness, self.com_offset
        )


def gravity_moment(qw, qx, qy, qz, mass, cx, cy, cz, gx, gy, gz):
    """Body-frame torque of gravity about the joint, on floats or arrays."""
    gbx, gby, gbz = to_body(qw, qx, qy, qz, gx, gy, gz)
    mgx, mgy, mgz = mass * gbx, mass * gby, mass * gbz
    return cy * mgz - cz * mgy, cz * mgx - cx * mgz, cx * mgy - cy * mgx


def gravity_torque(q: np.ndarray, body: BodyModel) -> np.ndarray:
    """Body-frame torque of gravity about the joint at orientation q: one
    quaternion gives a 3-vector, an (n, 4) stack an (n, 3) stack."""
    qw, qx, qy, qz = np.asarray(q, dtype=float).T
    moment = gravity_moment(qw, qx, qy, qz, body.mass, *body.com_offset, *body.gravity)
    return np.stack(moment, axis=-1)


def plant_constants(body: BodyModel) -> tuple:
    """The 25 floats the plant reads: the inertia about the joint and its
    inverse (row-major), the mass, the centre of mass and gravity."""
    inertia = body.inertia
    return (
        *map(float, inertia.ravel()), *map(float, np.linalg.inv(inertia).ravel()),
        float(body.mass), *body.com_offset, *body.gravity,
    )


def plant(body: BodyModel):
    """Right-hand side of the rigid plant for ``body``, on plain floats.

    Returns ``rhs(qw, qx, qy, qz, wx, wy, wz, tx, ty, tz)`` giving the time
    derivatives of the state (q, omega) under the world-frame control torque
    (tx, ty, tz); gravity and the gyroscopic term are added internally.
    """
    (ixx, ixy, ixz, iyx, iyy, iyz, izx, izy, izz,
     jxx, jxy, jxz, jyx, jyy, jyz, jzx, jzy, jzz,
     mass, cx, cy, cz, gx, gy, gz) = plant_constants(body)

    def rhs(qw, qx, qy, qz, wx, wy, wz, tx, ty, tz):
        tbx, tby, tbz = to_body(qw, qx, qy, qz, tx, ty, tz)
        gtx, gty, gtz = gravity_moment(qw, qx, qy, qz, mass, cx, cy, cz, gx, gy, gz)
        tbx += gtx
        tby += gty
        tbz += gtz
        # gyroscopic term
        lx = ixx * wx + ixy * wy + ixz * wz
        ly = iyx * wx + iyy * wy + iyz * wz
        lz = izx * wx + izy * wy + izz * wz
        tbx -= wy * lz - wz * ly
        tby -= wz * lx - wx * lz
        tbz -= wx * ly - wy * lx
        return (
            0.5 * (-qx * wx - qy * wy - qz * wz),
            0.5 * (qw * wx + qy * wz - qz * wy),
            0.5 * (qw * wy - qx * wz + qz * wx),
            0.5 * (qw * wz + qx * wy - qy * wx),
            jxx * tbx + jxy * tby + jxz * tbz,
            jyx * tbx + jyy * tby + jyz * tbz,
            jzx * tbx + jzy * tby + jzz * tbz,
        )

    return rhs


# ---------------------------------------------------------------------------
# integration of the closed loop
# ---------------------------------------------------------------------------


def rk4_step(rhs, y, t, h):
    """One classical RK4 step of ``rhs(y, t)`` on a state tuple."""
    half, sixth = 0.5 * h, h / 6.0
    k1 = rhs(y, t)
    k2 = rhs(tuple(a + half * b for a, b in zip(y, k1)), t + half)
    k3 = rhs(tuple(a + half * b for a, b in zip(y, k2)), t + half)
    k4 = rhs(tuple(a + h * b for a, b in zip(y, k3)), t + h)
    return tuple(
        a + sixth * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
        for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4)
    )


def unit_quat_state(y):
    """State tuple (q, omega) with q scaled back to unit norm."""
    qw, qx, qy, qz, wx, wy, wz = y
    n = math.sqrt(qw * qw + qx * qx + qy * qy + qz * qz)
    return qw / n, qx / n, qy / n, qz / n, wx, wy, wz


def integrate_step(rhs, y, t, dt, substeps, renormalize=True):
    """Advance the state tuple ``y`` of a closed loop by one control interval.

    ``rhs(y, t)`` is the loop's right-hand side on floats, for example
    :func:`plant` composed with a torque law, so the feedback is re-evaluated
    at every RK4 stage.  The interval is split into ``substeps`` classical
    RK4 substeps starting at ``t + i * dt / substeps`` (the stiffest
    torsional mode at clock-task stiffness sits outside the RK4 stability
    region at the full control interval), each followed by
    :func:`unit_quat_state` unless ``renormalize`` is false.
    """
    h = dt / substeps
    for i in range(substeps):
        y = rk4_step(rhs, y, t + i * h, h)
        if renormalize:
            y = unit_quat_state(y)
    return y
