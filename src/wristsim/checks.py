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


#: the projection checks sample this many points on the square of half-width
#: PLANE_RADIUS in the plane x = PLANE_X
PLANE_SAMPLES = 2000
PLANE_X = 0.3
PLANE_RADIUS = 0.25
TORSION_TOL = 1e-12
POINTING_TOL = 1e-10
EULER_SAMPLES = 100_000
EULER_TOL = 1e-9
#: admitted error ratio for one step halving (a 4th-order method gives ~16)
ORDER_RATIO_LO = 10.0
ORDER_RATIO_HI = 24.0
DRIFT_STEPS = 500
DRIFT_TOL = 1e-9


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _sample_plane_points(rng):
    pts = np.empty((PLANE_SAMPLES, 3))
    pts[:, 0] = PLANE_X
    pts[:, 1:] = rng.uniform(-PLANE_RADIUS, PLANE_RADIUS, size=(PLANE_SAMPLES, 2))
    return pts


def check_torsion_equivariance(rng) -> CheckResult:
    """Rolling the torsion argument equals post-multiplying the fixed twist."""
    points = _sample_plane_points(rng)
    phi = rng.uniform(-math.pi + 1e-3, math.pi - 1e-3, size=PLANE_SAMPLES)
    q_plain = np.array([project_to_sphere(p) for p in points])
    q_rolled = np.array([project_to_sphere(p, torsion=f) for p, f in zip(points, phi)])
    roll = quat_from_euler_xyz(phi, 0.0, 0.0)
    worst = quat_angle_between(q_rolled, quat_mul(q_plain, roll)).max()
    # the twist must not move the pointing ray
    ray_diff = rotate_vec(q_rolled, X_AXIS) - rotate_vec(q_plain, X_AXIS)
    worst = max(worst, np.linalg.norm(ray_diff, axis=1).max())
    return CheckResult(
        "torsion equivariance",
        worst <= TORSION_TOL,
        f"worst deviation {worst:.3e} (tol {TORSION_TOL:.0e}, {PLANE_SAMPLES} samples)",
    )


def check_pointing_consistency(rng) -> CheckResult:
    """Projecting a plane point and re-intersecting recovers the point."""
    points = _sample_plane_points(rng)
    phi = rng.uniform(-math.pi + 1e-3, math.pi - 1e-3, size=PLANE_SAMPLES)
    q = np.array([project_to_sphere(p, torsion=f) for p, f in zip(points, phi)])
    hit = pointer_intersection(q, points[:, :1])
    worst = np.linalg.norm(hit - points, axis=1).max()
    return CheckResult(
        "pointing consistency",
        worst <= POINTING_TOL,
        f"worst round trip {worst:.3e} m (tol {POINTING_TOL:.0e}, {PLANE_SAMPLES} samples)",
    )


def check_euler_round_trip(rng) -> CheckResult:
    """Euler decomposition followed by recomposition returns the rotation."""
    worst = 0.0
    kept = 0
    # blocks of 1,000 rows, each drawn as it is checked, so the check holds
    # one block's arrays (about 0.3 MB) at any sample count; the whole stack
    # at once would add some 30 MB (the libm wrappers' .tolist() Python
    # floats and the stack's temporaries).  The draws read the generator's
    # stream as one (EULER_SAMPLES, 4) draw would, so the seed's text stays.
    for start in range(0, EULER_SAMPLES, 1000):
        q = quat_normalize(rng.standard_normal((min(1000, EULER_SAMPLES - start), 4)))
        angles, locked = euler_xyz_from_quat(q)
        err = quat_angle_between(q, quat_from_euler_xyz(*angles.T))[~locked]
        worst = max(worst, err.max(initial=0.0))
        kept += err.size
    return CheckResult(
        "euler round trip",
        worst <= EULER_TOL and kept > 0,
        f"worst angle {worst:.3e} rad over {kept} of {EULER_SAMPLES} samples "
        f"(tol {EULER_TOL:.0e})",
    )


def _smooth_torque(t):
    return 0.2 * math.sin(3.0 * t), 0.15 * math.cos(5.0 * t), 0.1 * math.sin(2.0 * t + 1.0)


def check_integrator_order() -> CheckResult:
    """Halving the step shrinks the global error ~16x (4th order)."""
    rhs_plant = plant(BodyModel(gravity=(0.0, 0.0, 0.0)))

    def rhs(y, t):
        return rhs_plant(*y, *_smooth_torque(t))

    q0 = quat_normalize(np.array([0.9, 0.1, -0.2, 0.15]))
    start = (*map(float, q0), 0.4, -0.3, 0.2)

    def endpoint(substeps):
        return np.array(integrate_step(rhs, start, 0.0, dt=0.2, substeps=substeps))

    ref = endpoint(1600)
    err_h = float(np.linalg.norm(endpoint(50) - ref))
    err_h2 = float(np.linalg.norm(endpoint(100) - ref))
    ratio = err_h / err_h2 if err_h2 > 0.0 else math.inf
    return CheckResult(
        "integrator order",
        ORDER_RATIO_LO <= ratio <= ORDER_RATIO_HI,
        f"error ratio {ratio:.2f} for step halving (expect ~16)",
    )


def check_quat_norm_drift() -> CheckResult:
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
    for step in range(DRIFT_STEPS):
        y = integrate_step(rhs, y, step * 1e-3, dt=1e-3, substeps=10)
        qw, qx, qy, qz = y[:4]
        norm = math.sqrt(qw * qw + qx * qx + qy * qy + qz * qz)
        worst = max(worst, abs(norm - 1.0))
        y = unit_quat_state(y)
    return CheckResult(
        "quat norm drift",
        worst <= DRIFT_TOL,
        f"worst per-step drift {worst:.3e} (tol {DRIFT_TOL:.0e}, {DRIFT_STEPS} steps)",
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
