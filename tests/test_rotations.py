import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import euler_xyz_scalar, quat_canonical, torsion_about_pointer
from wristsim.cli import simulate_condition
from wristsim.config import ExperimentConfig
from wristsim.rotations import (
    DegeneratePointingError,
    euler_xyz_from_quat,
    project_to_sphere,
    quat_angle_between,
    quat_conj,
    quat_from_euler_xyz,
    quat_mul,
    quat_norm,
    quat_normalize,
    rotate_vec,
)


def quat_from_axis_angle(axis, angle):
    """Rotation by ``angle`` about the unit 3-vector ``axis``."""
    half = 0.5 * angle
    return np.concatenate(([math.cos(half)], math.sin(half) * np.asarray(axis, dtype=float)))

unit_quats = st.tuples(
    st.floats(-1, 1), st.floats(-1, 1), st.floats(-1, 1), st.floats(-1, 1)
).filter(lambda t: 0.1 < sum(c * c for c in t) < 4.0).map(
    lambda t: quat_normalize(np.array(t))
)

angles = st.floats(-math.pi + 1e-6, math.pi - 1e-6)


def test_mul_identity():
    q = quat_from_axis_angle(np.array([0.0, 0.0, 1.0]), 0.7)
    e = np.array([1.0, 0.0, 0.0, 0.0])
    np.testing.assert_allclose(quat_mul(q, e), q)
    np.testing.assert_allclose(quat_mul(e, q), q)


def test_mul_matches_rotation_composition(rng):
    pairs = []
    for _ in range(20):
        a = quat_normalize(rng.normal(size=4))
        b = quat_normalize(rng.normal(size=4))
        v = rng.normal(size=3)
        np.testing.assert_allclose(
            rotate_vec(quat_mul(a, b), v), rotate_vec(a, rotate_vec(b, v)),
            atol=1e-12,
        )
        pairs.append((a, b))
    # stacks give, row for row, exactly the single-quaternion results
    a, b = (np.array(col) for col in zip(*pairs))
    np.testing.assert_array_equal(
        quat_mul(a, b), [quat_mul(*pair) for pair in pairs]
    )
    np.testing.assert_array_equal(
        quat_angle_between(a, b), [quat_angle_between(*pair) for pair in pairs]
    )


@given(unit_quats)
def test_conj_inverts(q):
    np.testing.assert_allclose(
        quat_mul(q, quat_conj(q)), [1.0, 0.0, 0.0, 0.0], atol=1e-12
    )


def test_projection_top_target():
    # pointing at (0.3, 0, 0.1) swings 18.435 deg about -y
    q = project_to_sphere(np.array([0.3, 0.0, 0.1]))
    np.testing.assert_allclose(
        q, [0.98708746, 0.0, -0.16018224, 0.0], atol=1e-8
    )
    half = 0.5 * math.atan2(0.1, 0.3)
    assert q[0] == pytest.approx(math.cos(half), abs=1e-15)


def test_projection_points_x_axis_at_target(task):
    for target in task.targets:
        q = project_to_sphere(target)
        ray = rotate_vec(q, np.array([1.0, 0.0, 0.0]))
        np.testing.assert_allclose(
            ray, target / np.linalg.norm(target), atol=1e-12
        )


def test_projection_degenerate_target():
    with pytest.raises(DegeneratePointingError):
        project_to_sphere(np.zeros(3))


def test_projection_antipodal_is_half_turn():
    q = project_to_sphere(np.array([-1.0, 0.0, 0.0]))
    assert abs(quat_norm(q) - 1.0) < 1e-15
    ray = rotate_vec(q, np.array([1.0, 0.0, 0.0]))
    np.testing.assert_allclose(ray, [-1.0, 0.0, 0.0], atol=1e-15)


@given(
    st.floats(-0.3, 0.3), st.floats(-0.3, 0.3),
    angles,
)
def test_torsion_roundtrip_on_clock_plane(y, z, phi):
    """Projection with torsion phi reports exactly phi about the pointer."""
    q = project_to_sphere(np.array([0.3, y, z]), torsion=phi)
    assert torsion_about_pointer(q) == pytest.approx(phi, abs=1e-12)


@given(st.floats(-0.25, 0.25), st.floats(-0.25, 0.25), angles)
def test_torsion_leaves_pointer_fixed(y, z, phi):
    target = np.array([0.3, y, z])
    q0 = project_to_sphere(target)
    q1 = project_to_sphere(target, torsion=phi)
    r0 = rotate_vec(q0, np.array([1.0, 0.0, 0.0]))
    r1 = rotate_vec(q1, np.array([1.0, 0.0, 0.0]))
    np.testing.assert_allclose(r0, r1, atol=1e-12)


@given(st.floats(-0.25, 0.25), st.floats(-0.25, 0.25), angles)
def test_torsion_equivariance(y, z, phi):
    """phi composes as a fixed right-multiplied twist of the phi=0 pose."""
    q0 = project_to_sphere(np.array([0.3, y, z]))
    q1 = project_to_sphere(np.array([0.3, y, z]), torsion=phi)
    roll = np.array([math.cos(0.5 * phi), math.sin(0.5 * phi), 0.0, 0.0])
    assert quat_angle_between(quat_mul(q0, roll), q1) < 1e-12


def test_euler_xyz_oracle():
    # single-axis rotations decompose onto their own angle
    for k, axis in enumerate(np.eye(3)):
        q = quat_from_axis_angle(axis, 0.3)
        ang, _ = euler_xyz_from_quat(q)
        expect = [0.0, 0.0, 0.0]
        expect[k] = 0.3
        np.testing.assert_allclose(ang, expect, atol=1e-12)


@given(unit_quats)
def test_euler_round_trip(q):
    (ax, ay, az), locked = euler_xyz_from_quat(q)
    if locked:
        return
    q2 = quat_from_euler_xyz(ax, ay, az)
    assert quat_angle_between(q, q2) < 1e-9


def test_euler_gimbal_guard():
    q = quat_from_axis_angle(np.array([0.0, 1.0, 0.0]), math.pi / 2)
    _, locked = euler_xyz_from_quat(q)
    assert locked


def test_euler_stack_matches_scalar_oracle(rng):
    """The stack law reproduces the per-sample libm law bit for bit, lock
    flags included, and its inverse reproduces the per-sample inverse."""
    random = quat_normalize(rng.normal(size=(10_000, 4)))
    traj = simulate_condition(
        ExperimentConfig().condition("online_single_target"), ExperimentConfig()
    )
    # poses at exactly +-90 deg pitch, within 1e-7 rad of it, and just
    # outside the guard band
    pitch = [s * (0.5 * math.pi - d) for s in (1.0, -1.0)
             for d in (0.0, 1e-7, -1e-7, 3e-8, 2e-6)]
    near_lock = np.array([quat_from_euler_xyz(0.3, p, -0.2) for p in pitch])
    exact = math.sqrt(0.5)
    near_lock = np.vstack([near_lock, [[exact, 0.0, exact, 0.0],
                                       [exact, 0.0, -exact, 0.0]]])
    for quats in (random, traj.quat, traj.quat_des, near_lock):
        angles, locked = euler_xyz_from_quat(quats)
        rows = [euler_xyz_scalar(q) for q in quats]
        expect = np.array([ang for ang, _ in rows])
        np.testing.assert_array_equal(locked, [lock for _, lock in rows])
        assert np.array_equal(angles[~locked], expect[~locked])
        np.testing.assert_array_equal(
            quat_from_euler_xyz(*angles.T),
            [quat_from_euler_xyz(*ang) for ang in angles],
        )
    assert np.count_nonzero(euler_xyz_from_quat(near_lock)[1]) == 10


def test_canonical_sign():
    q = np.array([-0.5, 0.5, 0.5, 0.5])
    assert quat_canonical(q)[0] > 0
    np.testing.assert_allclose(quat_canonical(q), -q)
    # a zero scalar part, of either sign, keeps the quaternion as it is
    stack = np.array([q, -q, [0.0, -0.6, 0.0, 0.8], [-0.0, 0.6, 0.0, -0.8]])
    expect = np.array([-q, -q, stack[2], stack[3]])
    assert quat_canonical(stack).tobytes() == expect.tobytes()
    for row, want in zip(stack, expect):
        assert quat_canonical(row).tobytes() == want.tobytes()


def test_torsion_about_pointer_takes_stacks():
    """A stack gives the per-row angles bit for bit, signed zeros included."""
    rng = np.random.default_rng(3)
    rows = rng.normal(size=(2000, 4))
    rows /= np.linalg.norm(rows, axis=1)[:, None]
    signed = [0.0, -0.0, 1e-16, -1e-16, 1.0, -1.0]
    edge = np.array([[w, x, 0.6, 0.8] for w in signed for x in signed])
    stack = np.vstack([rows, edge])
    per_row = np.array([torsion_about_pointer(row) for row in stack])
    assert torsion_about_pointer(stack).tobytes() == per_row.tobytes()
    pure_swing = (np.abs(edge[:, :2]) < 1e-15).all(axis=1)
    assert np.all(torsion_about_pointer(edge)[pure_swing] == 0.0)
    # half turns about the pointer read +pi, whatever the sign of x or of
    # the zero scalar part, as project_to_sphere(p, torsion=pi) does
    half = np.array([[0.0, -1.0, 0.0, 0.0], [-0.0, -1.0, 0.0, 0.0],
                     [0.0, 1.0, 0.0, 0.0], [-0.0, 1.0, 0.0, 0.0]])
    assert torsion_about_pointer(half).tolist() == [math.pi] * 4
    for row in half:
        assert torsion_about_pointer(row) == math.pi
    assert torsion_about_pointer(project_to_sphere([1.0, 0.0, 0.0], torsion=math.pi)) == math.pi


def test_libm_wrappers_match_math_bit_for_bit():
    """``_asin``/``_atan2`` give math's bits on stacks, broadcast or not, on
    0-d inputs and on signed zeros; a scalar comes back as a scalar."""
    from wristsim.rotations import _asin, _atan2

    rng = np.random.default_rng(11)
    signed = [0.0, -0.0, 1.0, -1.0, 5e-324, -5e-324]
    x = np.concatenate([rng.uniform(-1.0, 1.0, 3000), signed]).reshape(-1, 2)
    y = np.concatenate([rng.normal(size=3000), signed[::-1]]).reshape(-1, 2)

    def bits(values):
        return np.asarray(values, dtype=float).tobytes()

    assert bits(_asin(x)) == bits([[math.asin(v) for v in row] for row in x.tolist()])
    want = [[math.atan2(a, b) for a, b in zip(r, s)] for r, s in zip(x.tolist(), y.tolist())]
    assert bits(_atan2(x, y)) == bits(want)
    # a row broadcast against the stack
    want = [[math.atan2(a, b) for a, b in zip(r, y[0].tolist())] for r in x.tolist()]
    assert bits(_atan2(x, y[0])) == bits(want)
    for a in (0.0, -0.0):
        for b in (0.0, -0.0, 1.0, -1.0):
            got = _atan2(np.float64(a), b)
            assert np.ndim(got) == 0 and not isinstance(got, np.ndarray)
            assert bits(got) == bits(math.atan2(a, b))
            assert bits(_atan2(np.array(a), np.array(b))) == bits(math.atan2(a, b))
        assert bits(_asin(np.array(a))) == bits(math.asin(a))
        assert not isinstance(_asin(a), np.ndarray)
