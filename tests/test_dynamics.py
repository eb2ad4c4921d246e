import math

import numpy as np
import pytest

from wristsim.dynamics import (
    BodyModel,
    gravity_moment,
    gravity_torque,
    inertia_box,
    integrate_step,
    plant,
    rk4_step,
    unit_quat_state,
)
from wristsim.rotations import quat_angle_between, quat_norm, quat_normalize, rotate_vec
from oracles import dp45_step


def test_central_inertia_oracle():
    eye = inertia_box(1.0, 0.10, 0.08, 0.02, (0.0, 0.0, 0.0))
    np.testing.assert_allclose(
        np.diag(eye), [5.666667e-4, 8.666667e-4, 1.366667e-3], rtol=1e-6
    )
    assert np.all(eye == np.diag(np.diag(eye)))


def test_joint_inertia_adds_parallel_axis_term(body):
    joint = body.inertia
    np.testing.assert_allclose(
        np.diag(joint), [5.666667e-4, 3.366667e-3, 3.866667e-3], rtol=1e-6
    )
    # offset along the pointer leaves the twist row untouched
    central = inertia_box(1.0, 0.10, 0.08, 0.02, (0.0, 0.0, 0.0))
    assert joint[0, 0] == central[0, 0]


def test_body_validation():
    with pytest.raises(ValueError):
        BodyModel(mass=-1.0)
    with pytest.raises(ValueError):
        BodyModel(thickness=0.0)


def test_gravity_torque_oracle(body, rng):
    tau = gravity_torque(np.array([1.0, 0.0, 0.0, 0.0]), body)
    np.testing.assert_allclose(tau, [0.0, 0.4905, 0.0], atol=1e-12)
    # a stack and each single quaternion give exactly the float law's rows
    quats = rng.normal(size=(64, 4))
    quats /= np.linalg.norm(quats, axis=1, keepdims=True)
    rows = np.array([
        gravity_moment(*map(float, q), body.mass, *body.com_offset, *body.gravity)
        for q in quats
    ])
    np.testing.assert_array_equal(gravity_torque(quats, body), rows)
    np.testing.assert_array_equal([gravity_torque(q, body) for q in quats], rows)


def test_gravity_torque_has_no_twist_component(body, rng):
    # com along the pointer: gravity can never roll the body about it
    for _ in range(50):
        q = quat_normalize(rng.normal(size=4))
        assert abs(gravity_torque(q, body)[0]) < 1e-15


def test_gravity_torque_bounded_by_lever(body, rng):
    lever = body.mass * 9.81 * np.linalg.norm(body.com_offset)
    for _ in range(50):
        q = quat_normalize(rng.normal(size=4))
        assert np.linalg.norm(gravity_torque(q, body)) <= lever * (1 + 1e-12)


def torque_free(body):
    plant_rhs = plant(body)
    return lambda y, t: plant_rhs(*y, 0.0, 0.0, 0.0)


def test_free_tumble_conserves_energy_and_momentum(body):
    """Torque-free anisotropic tumble keeps E and world momentum fixed."""
    free = BodyModel(gravity=(0.0, 0.0, 0.0))
    inertia = free.inertia
    rhs = torque_free(free)
    y = (1.0, 0.0, 0.0, 0.0, 2.0, 3.0, -1.0)
    omega = np.array(y[4:])
    e0 = 0.5 * omega @ inertia @ omega
    l0 = rotate_vec(y[:4], inertia @ omega)
    for k in range(2000):
        y = unit_quat_state(integrate_step(rhs, y, k * 1e-3, dt=1e-3, substeps=4))
    omega = np.array(y[4:])
    e1 = 0.5 * omega @ inertia @ omega
    l1 = rotate_vec(y[:4], inertia @ omega)
    assert e1 == pytest.approx(e0, rel=1e-9)
    np.testing.assert_allclose(l1, l0, rtol=1e-8)


def test_integrate_step_is_its_substeps_and_nothing_else(body):
    """``integrate_step`` chains ``substeps`` RK4 steps and does not scale
    the quaternion back to unit norm."""
    rhs = torque_free(body)
    y = (0.5, 0.5, 0.5, 0.0, 1.0, -2.0, 0.5)  # |q| = sqrt(0.75)
    chained, h = y, 1e-3 / 5
    for i in range(5):
        chained = rk4_step(rhs, chained, 0.25 + i * h, h)
    stepped = integrate_step(rhs, y, 0.25, dt=1e-3, substeps=5)
    assert stepped == chained
    assert quat_norm(stepped[:4]) == pytest.approx(math.sqrt(0.75), abs=1e-12)


def test_renormalized_quaternion_stays_unit(body):
    rhs = torque_free(body)
    y = (1.0, 0.0, 0.0, 0.0, 1.0, -2.0, 0.5)
    for k in range(500):
        y = unit_quat_state(integrate_step(rhs, y, k * 1e-3, dt=1e-3, substeps=5))
        assert abs(quat_norm(y[:4]) - 1.0) < 1e-12


def test_unrenormalized_drift_stays_tiny(body):
    # raw RK4 drift per step is far below the 1e-9 budget
    rhs = torque_free(body)
    y = (1.0, 0.0, 0.0, 0.0, 1.0, -2.0, 0.5)
    worst = 0.0
    for k in range(200):
        prev = quat_norm(y[:4])
        y = integrate_step(rhs, y, k * 1e-3, dt=1e-3, substeps=5)
        worst = max(worst, abs(quat_norm(y[:4]) - prev))
    assert worst <= 1e-9


def test_adaptive_matches_fixed_step(body):
    plant_rhs = plant(body)

    def spring(y, t):
        # mild attitude spring toward identity, world frame
        q = np.array(y[:4])
        angle = 2.0 * math.atan2(np.linalg.norm(q[1:]), q[0])
        if angle < 1e-12:
            return plant_rhs(*y, 0.0, 0.0, 0.0)
        axis = q[1:] / np.linalg.norm(q[1:])
        return plant_rhs(*y, *map(float, -5.0 * angle * axis))

    a = b = (1.0, 0.0, 0.0, 0.0, 0.3, -0.4, 0.2)
    for k in range(200):
        a = unit_quat_state(integrate_step(spring, a, k * 1e-3, dt=1e-3, substeps=10))
        b = dp45_step(spring, b, k * 1e-3, dt=1e-3, rtol=1e-10)
    assert quat_angle_between(a[:4], b[:4]) < 1e-7
    np.testing.assert_allclose(a[4:], b[4:], atol=1e-6)
