"""Built-in invariant suite behind the command line ``--check`` flag.

Each check exercises one structural property of the package on freshly
sampled inputs and reports the worst deviation it saw.  The suite is meant
as a fast field diagnostic (a few seconds), not a replacement for the test
suite; the bounds are the ones the rest of the package relies on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import BodyModel, integrate_step, plant, unit_quat_state
from .fic import branch_torque
from .rotations import (
    X_AXIS,
    euler_xyz_from_quat,
    project_to_sphere,
    quat_angle_between,
    quat_from_euler_xyz,
    quat_mul,
    quat_normalize,
    rotate_vec,
)
from .experiments import pointer_intersection


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _sample_plane_points(rng, n, plane_x=0.3, radius=0.25):
    pts = np.empty((n, 3))
    pts[:, 0] = plane_x
    pts[:, 1:] = rng.uniform(-radius, radius, size=(n, 2))
    return pts


def check_torsion_equivariance(rng, n=2000, tol=1e-12) -> CheckResult:
    """Rolling the torsion argument equals post-multiplying the fixed twist."""
    points = _sample_plane_points(rng, n)
    phi = rng.uniform(-math.pi + 1e-3, math.pi - 1e-3, size=n)
    q_plain = np.array([project_to_sphere(p) for p in points])
    q_rolled = np.array([project_to_sphere(p, torsion=f) for p, f in zip(points, phi)])
    roll = quat_from_euler_xyz(phi, 0.0, 0.0)
    worst = quat_angle_between(q_rolled, quat_mul(q_plain, roll)).max()
    # the twist must not move the pointing ray
    ray_diff = rotate_vec(q_rolled, X_AXIS) - rotate_vec(q_plain, X_AXIS)
    worst = max(worst, np.linalg.norm(ray_diff, axis=1).max())
    return CheckResult(
        "torsion equivariance",
        worst <= tol,
        f"worst deviation {worst:.3e} (tol {tol:.0e}, {n} samples)",
    )


def check_pointing_consistency(rng, n=2000, tol=1e-10) -> CheckResult:
    """Projecting a plane point and re-intersecting recovers the point."""
    points = _sample_plane_points(rng, n)
    phi = rng.uniform(-math.pi + 1e-3, math.pi - 1e-3, size=n)
    q = np.array([project_to_sphere(p, torsion=f) for p, f in zip(points, phi)])
    hit = pointer_intersection(q, points[:, :1])
    worst = np.linalg.norm(hit - points, axis=1).max()
    return CheckResult(
        "pointing consistency",
        worst <= tol,
        f"worst round trip {worst:.3e} m (tol {tol:.0e}, {n} samples)",
    )


def check_euler_round_trip(rng, n=100_000, tol=1e-9) -> CheckResult:
    """Euler decomposition followed by recomposition returns the rotation."""
    worst = 0.0
    kept = 0
    raw = rng.standard_normal((n, 4))
    # blocks of about 1,000 rows: the whole stack at once raises peak memory
    # by some 30 MB (the libm wrappers' .tolist() Python floats and the
    # stack's temporaries), a block ~1 MB
    for block in np.array_split(raw, max(1, n // 1000)):
        q = quat_normalize(block)
        angles, locked = euler_xyz_from_quat(q)
        err = quat_angle_between(q, quat_from_euler_xyz(*angles.T))[~locked]
        worst = max(worst, err.max(initial=0.0))
        kept += err.size
    return CheckResult(
        "euler round trip",
        worst <= tol and kept > 0,
        f"worst angle {worst:.3e} rad over {kept} of {n} samples (tol {tol:.0e})",
    )


def _smooth_torque(t):
    return 0.2 * math.sin(3.0 * t), 0.15 * math.cos(5.0 * t), 0.1 * math.sin(2.0 * t + 1.0)


def check_integrator_order(ratio_lo=10.0, ratio_hi=24.0) -> CheckResult:
    """Halving the step shrinks the global error ~16x (4th order)."""
    rhs_plant = plant(BodyModel(gravity=(0.0, 0.0, 0.0)))

    def rhs(y, t):
        return rhs_plant(*y, *_smooth_torque(t))

    q0 = quat_normalize(np.array([0.9, 0.1, -0.2, 0.15]))
    start = (*map(float, q0), 0.4, -0.3, 0.2)

    def endpoint(substeps):
        return np.array(
            integrate_step(rhs, start, 0.0, dt=0.2, substeps=substeps, renormalize=False)
        )

    ref = endpoint(1600)
    err_h = float(np.linalg.norm(endpoint(50) - ref))
    err_h2 = float(np.linalg.norm(endpoint(100) - ref))
    ratio = err_h / err_h2 if err_h2 > 0.0 else math.inf
    return CheckResult(
        "integrator order",
        ratio_lo <= ratio <= ratio_hi,
        f"error ratio {ratio:.2f} for step halving (expect ~16)",
    )


def check_quat_norm_drift(tol=1e-9, steps=500) -> CheckResult:
    """Norm drift per 1 ms step, unnormalized, at clock-task torque levels."""
    rhs_plant = plant(BodyModel())
    q_des = tuple(map(float, project_to_sphere(np.array([0.3, 0.0, 0.1]))))
    stiffness = 10000.0

    def rhs(y, t):
        # the divergence branch alone: a linear spring toward q_des
        tx, ty, tz, _ = branch_torque(*y[:4], *q_des, stiffness, True, 0.0)
        return rhs_plant(*y, tx, ty, tz)

    # start close enough that the spring torque stays at task scale
    q0 = project_to_sphere(np.array([0.3, 0.0005, 0.1002]))
    y = (*map(float, q0), 0.05, -1.2, 0.8)
    worst = 0.0
    for step in range(steps):
        y = integrate_step(rhs, y, step * 1e-3, dt=1e-3, substeps=10, renormalize=False)
        qw, qx, qy, qz = y[:4]
        norm = math.sqrt(qw * qw + qx * qx + qy * qy + qz * qz)
        worst = max(worst, abs(norm - 1.0))
        y = unit_quat_state(y)
    return CheckResult(
        "quat norm drift",
        worst <= tol,
        f"worst per-step drift {worst:.3e} (tol {tol:.0e}, {steps} steps)",
    )


def run_checks(seed: int = 0) -> list[CheckResult]:
    """Run the whole suite; deterministic for a fixed seed."""
    rng = np.random.default_rng(seed)
    return [
        check_torsion_equivariance(rng),
        check_pointing_consistency(rng),
        check_euler_round_trip(rng),
        check_integrator_order(),
        check_quat_norm_drift(),
    ]
