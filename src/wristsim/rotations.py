"""Quaternion algebra and the spherical pointing projection.

Conventions used throughout the package:

* quaternions are numpy arrays ``[w, x, y, z]`` (scalar first),
* unit quaternions rotate body-frame vectors into the world frame,
* composition ``quat_mul(a, b)`` applies ``b`` first, then ``a``,
* canonical form has a non-negative scalar part.

The projection maps a point on a planar workspace to the orientation of a
pointer (the body x axis) whose ray pierces that point, with an optional
torsion angle about the pointer itself.

The laws of the trial kernel (:func:`pointing_quat`, :func:`to_body`) are
written once on plain floats and repeated operation for operation in the
compiled kernel (``_kernel.c``).  The other quaternion functions take one
quaternion or an (n, 4) stack through one body.  The ``asin``/``atan2`` of
the Euler and angle laws stay on libm, element by element, as numpy's own
``arcsin``/``arctan2`` differ from libm in the last ulp on some inputs.
:func:`euler_xyz_from_quat` is the law that the compiled Listing extraction
(``_kernel.euler_xyz``) repeats bit for bit to write the listing files, and
the one that ``--check``'s Euler round trip runs, so ``--check`` needs no
compiler; :func:`quat_angle` feeds the ``--check`` text through
:func:`quat_angle_between`.  :func:`quat_from_euler_xyz` feeds no output
file and uses numpy's ``cos``/``sin``.
"""

from __future__ import annotations

import math

import numpy as np

X_AXIS = np.array([1.0, 0.0, 0.0])


class DegeneratePointingError(ValueError):
    """Raised when a pointing target coincides with the projection center."""


def _libm(fn):
    """``fn`` from ``math`` element-wise over its broadcast arguments; a
    scalar stays a scalar."""

    def call(*args):
        args = np.broadcast_arrays(*(np.asarray(a, dtype=float) for a in args))
        flat = map(fn, *(a.ravel().tolist() for a in args))
        return np.fromiter(flat, float, args[0].size).reshape(args[0].shape)[()]

    return call


_asin, _atan2 = _libm(math.asin), _libm(math.atan2)


def quat_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Hamilton product a*b; either factor may be a stack."""
    aw, ax, ay, az = np.asarray(a, dtype=float).T
    bw, bx, by, bz = np.asarray(b, dtype=float).T
    return np.stack(
        [
            aw * bw - ax * bx - ay * by - az * bz,
            aw * bx + ax * bw + ay * bz - az * by,
            aw * by - ax * bz + ay * bw + az * bx,
            aw * bz + ax * by - ay * bx + az * bw,
        ],
        axis=-1,
    )


def quat_conj(q: np.ndarray) -> np.ndarray:
    return np.asarray(q, dtype=float) * [1.0, -1.0, -1.0, -1.0]


def quat_norm(q: np.ndarray):
    w, x, y, z = np.asarray(q, dtype=float).T
    # multiplication, not **2: libm pow can land one ulp off an exact square
    return np.sqrt(w * w + x * x + y * y + z * z)


def quat_normalize(q: np.ndarray) -> np.ndarray:
    n = quat_norm(q)
    if np.any(n < 1e-12):
        raise ValueError("cannot normalize a near-zero quaternion")
    return np.asarray(q, dtype=float) / n[..., None]


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


def quat_angle(q: np.ndarray):
    """Rotation angle in [0, pi] represented by q (sign-insensitive)."""
    w, x, y, z = np.asarray(q, dtype=float).T
    return 2.0 * _atan2(np.sqrt(x * x + y * y + z * z), np.abs(w))


def quat_angle_between(a: np.ndarray, b: np.ndarray):
    """Relative rotation angle between two unit quaternions (or stacks)."""
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


def project_to_sphere(point, torsion: float = 0.0) -> np.ndarray:
    """Orientation that points the body x axis at ``point``.

    The pointer ray runs from the joint (the origin) to ``point``;
    ``torsion`` rolls the body about it, composed last, so the roll is the
    twist of the result's swing-twist split about +x.  See
    :func:`pointing_quat`.
    """
    ox, oy, oz = map(float, point)
    if math.sqrt(ox * ox + oy * oy + oz * oz) <= 1e-9:
        raise DegeneratePointingError(
            f"pointing target {point} coincides with projection center"
        )
    half = 0.5 * torsion
    return np.array(pointing_quat(ox, oy, oz, math.cos(half), math.sin(half)))


# ---------------------------------------------------------------------------
# intrinsic x-y-z Euler decomposition
# ---------------------------------------------------------------------------

GIMBAL_GUARD = 1e-6


def euler_xyz_from_quat(q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Intrinsic x-y-z Euler angles (rotate about x, then y', then z'').

    Returns ``(angles, locked)``: the angles as a 3-vector, or an (n, 3)
    stack for an (n, 4) stack, and whether each pose lies within
    ``GIMBAL_GUARD`` radians of lock, where the first and last angles are
    not determined.  The middle angle lies in [-pi/2, pi/2].
    """
    w, x, y, z = np.asarray(q, dtype=float).T
    r02 = 2.0 * (x * z + w * y)
    ang_y = _asin(np.maximum(-1.0, np.minimum(1.0, r02)))
    locked = 0.5 * math.pi - np.abs(ang_y) < GIMBAL_GUARD
    r12 = 2.0 * (y * z - w * x)
    r22 = 1.0 - 2.0 * (x * x + y * y)
    r01 = 2.0 * (x * y - w * z)
    r00 = 1.0 - 2.0 * (y * y + z * z)
    angles = np.stack([_atan2(-r12, r22), ang_y, _atan2(-r01, r00)], axis=-1)
    return angles, locked


def quat_from_euler_xyz(ang_x, ang_y, ang_z) -> np.ndarray:
    """Inverse of :func:`euler_xyz_from_quat`, for angles or angle arrays."""
    hx, hy, hz = np.broadcast_arrays(*(0.5 * np.asarray(a, dtype=float)
                                       for a in (ang_x, ang_y, ang_z)))
    zero = np.zeros_like(hx)
    qx = np.stack([np.cos(hx), np.sin(hx), zero, zero], axis=-1)
    qy = np.stack([np.cos(hy), zero, np.sin(hy), zero], axis=-1)
    qz = np.stack([np.cos(hz), zero, zero, np.sin(hz)], axis=-1)
    return quat_mul(qx, quat_mul(qy, qz))
