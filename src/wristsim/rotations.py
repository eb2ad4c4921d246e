"""Quaternion algebra and the spherical pointing projection.

Conventions used throughout the package:

* quaternions are numpy arrays ``[w, x, y, z]`` (scalar first),
* unit quaternions rotate body-frame vectors into the world frame,
* composition ``quat_mul(a, b)`` applies ``b`` first, then ``a``,
* canonical form has a non-negative scalar part.

The projection maps a point on a planar workspace to the orientation of a
pointer (the body x axis) whose ray pierces that point, with an optional
torsion angle about the pointer itself.

The laws the trial kernel evaluates at every integrator stage
(:func:`pointing_quat`, :func:`to_body`) are written once on plain floats
and repeated operation for operation in the compiled kernel
(``_kernel.c``); the numpy functions wrap them, and :func:`rotate_vec` feeds
:func:`to_body` the columns of a whole quaternion stack.
"""

from __future__ import annotations

import math

import numpy as np

X_AXIS = np.array([1.0, 0.0, 0.0])


class DegeneratePointingError(ValueError):
    """Raised when a pointing target coincides with the projection center."""


class GimbalLockError(ValueError):
    """Raised when an Euler decomposition is evaluated too close to lock."""

    def __init__(self, quat):
        super().__init__(f"orientation within gimbal-lock guard band: {quat}")
        self.quat = np.asarray(quat, dtype=float)


def quat_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Hamilton product a*b."""
    aw, ax, ay, az = a
    bw, bx, by, bz = b
    return np.array(
        [
            aw * bw - ax * bx - ay * by - az * bz,
            aw * bx + ax * bw + ay * bz - az * by,
            aw * by - ax * bz + ay * bw + az * bx,
            aw * bz + ax * by - ay * bx + az * bw,
        ]
    )


def quat_conj(q: np.ndarray) -> np.ndarray:
    return np.array([q[0], -q[1], -q[2], -q[3]])


def quat_norm(q: np.ndarray) -> float:
    # multiplication, not **2: libm pow can land one ulp off an exact square
    return math.sqrt(q[0] * q[0] + q[1] * q[1] + q[2] * q[2] + q[3] * q[3])


def quat_normalize(q: np.ndarray) -> np.ndarray:
    n = quat_norm(q)
    if n < 1e-12:
        raise ValueError("cannot normalize a near-zero quaternion")
    return np.asarray(q, dtype=float) / n


def quat_canonical(q: np.ndarray) -> np.ndarray:
    """Flip sign so the scalar part is non-negative (same rotation)."""
    return -np.asarray(q, dtype=float) if q[0] < 0.0 else np.asarray(q, dtype=float)


def to_body(qw, qx, qy, qz, vx, vy, vz):
    """Rotate a world vector into the frame of the unit quaternion q.

    This is the conjugate rotation (world -> body), on floats or arrays.
    """
    tx = 2.0 * (vy * qz - vz * qy)
    ty = 2.0 * (vz * qx - vx * qz)
    tz = 2.0 * (vx * qy - vy * qx)
    return (
        vx + qw * tx - qy * tz + qz * ty,
        vy + qw * ty - qz * tx + qx * tz,
        vz + qw * tz - qx * ty + qy * tx,
    )


def rotate_vec(q: np.ndarray, v) -> np.ndarray:
    """Rotate a 3-vector by the unit quaternion q (body -> world).

    ``q`` is one quaternion or an (n, 4) stack, giving a 3-vector or an
    (n, 3) stack.  This is :func:`to_body` for the conjugate of q.
    """
    w, x, y, z = np.asarray(q, dtype=float).T  # the 4 components or 4 columns
    return np.stack(to_body(w, -x, -y, -z, *map(float, v)), axis=-1)


def quat_angle(q: np.ndarray) -> float:
    """Rotation angle in [0, pi] represented by q (sign-insensitive)."""
    vn = math.sqrt(q[1] * q[1] + q[2] * q[2] + q[3] * q[3])
    return 2.0 * math.atan2(vn, abs(q[0]))


def quat_angle_between(a: np.ndarray, b: np.ndarray) -> float:
    """Relative rotation angle between two unit quaternions."""
    return quat_angle(quat_mul(a, quat_conj(b)))


# ---------------------------------------------------------------------------
# pointing projection
# ---------------------------------------------------------------------------


def pointing_quat(px, py, pz, cr, sr):
    """Orientation that points the body x axis along (px, py, pz).

    The swing part is the shortest-arc rotation taking +x onto the ray;
    a reversed ray swings half a turn about z.  The roll about the pointer,
    given as the cosine and sine of half the torsion angle, is composed in
    the rotated frame, so the pointing direction is torsion-invariant.
    Returns the canonical (non-negative scalar) unit quaternion as floats.
    """
    norm = math.sqrt(px * px + py * py + pz * pz)
    rx, ry, rz = px / norm, py / norm, pz / norm
    w0 = 1.0 + rx
    if w0 <= 1e-15:
        a, b, c = 0.0, 0.0, 1.0
    else:
        m = math.sqrt(w0 * w0 + rz * rz + ry * ry)
        a, b, c = w0 / m, -rz / m, ry / m
    qw, qx, qy, qz = a * cr, a * sr, b * cr + c * sr, c * cr - b * sr
    if qw < 0.0:
        return -qw, -qx, -qy, -qz
    return qw, qx, qy, qz


def project_to_sphere(point, center=(0.0, 0.0, 0.0), torsion: float = 0.0) -> np.ndarray:
    """Orientation that points the body x axis at ``point``.

    The pointer ray runs from ``center`` to ``point``; ``torsion`` rolls
    the body about it, so ``torsion_about_pointer`` recovers the angle
    exactly.  See :func:`pointing_quat`.
    """
    ox, oy, oz = (float(p) - float(c) for p, c in zip(point, center))
    if math.sqrt(ox * ox + oy * oy + oz * oz) <= 1e-9:
        raise DegeneratePointingError(
            f"pointing target {point} coincides with projection center"
        )
    half = 0.5 * torsion
    return np.array(pointing_quat(ox, oy, oz, math.cos(half), math.sin(half)))


def torsion_about_pointer(q: np.ndarray) -> float:
    """Signed roll of the body about its own x axis, in (-pi, pi].

    This is the twist angle of the swing-twist split about +x, which the
    pointing projection composes last; pure swing rotations return 0.
    """
    q = quat_canonical(q)
    if abs(q[0]) < 1e-15 and abs(q[1]) < 1e-15:
        return 0.0
    return 2.0 * math.atan2(q[1], q[0])


# ---------------------------------------------------------------------------
# intrinsic x-y-z Euler decomposition
# ---------------------------------------------------------------------------

GIMBAL_GUARD = 1e-6


def euler_xyz_from_quat(q: np.ndarray) -> tuple[float, float, float]:
    """Intrinsic x-y-z Euler angles (rotate about x, then y', then z'').

    The middle angle lies in (-pi/2, pi/2); poses within ``GIMBAL_GUARD``
    radians of lock raise :class:`GimbalLockError`.
    """
    w, x, y, z = q
    r02 = 2.0 * (x * z + w * y)
    ang_y = math.asin(max(-1.0, min(1.0, r02)))
    if 0.5 * math.pi - abs(ang_y) < GIMBAL_GUARD:
        raise GimbalLockError(q)
    r12 = 2.0 * (y * z - w * x)
    r22 = 1.0 - 2.0 * (x * x + y * y)
    r01 = 2.0 * (x * y - w * z)
    r00 = 1.0 - 2.0 * (y * y + z * z)
    return math.atan2(-r12, r22), ang_y, math.atan2(-r01, r00)


def quat_from_euler_xyz(ang_x: float, ang_y: float, ang_z: float) -> np.ndarray:
    qx = np.array([math.cos(0.5 * ang_x), math.sin(0.5 * ang_x), 0.0, 0.0])
    qy = np.array([math.cos(0.5 * ang_y), 0.0, math.sin(0.5 * ang_y), 0.0])
    qz = np.array([math.cos(0.5 * ang_z), 0.0, 0.0, math.sin(0.5 * ang_z)])
    return quat_mul(qx, quat_mul(qy, qz))
