import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import (euler_xyz_scalar, fick_quat, helmholtz_quat, quat_canonical,
                     rotation_vectors, torsion_about_pointer)
from wristsim.cli import simulate_condition
from wristsim.config import ExperimentConfig
from wristsim.experiments import fit_plane
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


# (plane_distance, radius, least gimbal residual, |twist| window) per extent
DISCS = [
    pytest.param(1.0, 0.0875, 5e-4, (0.49, 0.51), id="5deg"),
    pytest.param(0.3, 0.1, 1e-2, (0.49, 0.53), id="18deg"),
    pytest.param(0.3, 0.3, 5e-2, (0.51, 0.53), id="45deg"),
    pytest.param(0.1, 0.1732, 0.1, (0.53, 0.55), id="60deg"),
]


@pytest.mark.parametrize("plane_distance, radius, least_residual, twist_window", DISCS)
def test_donders_law_from_any_projection_listings_from_the_shortest_arc(
        plane_distance, radius, least_residual, twist_window):
    """Donders' law from any projection, Listing's law only from the
    shortest arc.  Each projection maps a point to one pose, so each is path
    independent; only the shortest arc puts the poses' rotation vectors on a
    plane.  A Fick gimbal (a turn about world z, then about the rotated y)
    and a Helmholtz gimbal (the other order) point as asked but twist their
    surface: the y*z coefficient of a quadratic fit of rotation-vector x on
    y and z is about -1/2 for Fick and +1/2 for Helmholtz, where it is 0 on
    Listing's plane.  On 2,000 seeded points uniform over a disc of
    ``radius`` at ``plane_distance``, 5 to 60 deg in extent (18.4 deg is the
    default task); the gimbals' residual and twist grow with the extent."""
    rng = np.random.default_rng(0)
    n = 2000
    r, angle = radius * np.sqrt(rng.random(n)), 2.0 * math.pi * rng.random(n)
    points = np.column_stack([np.full(n, plane_distance), r * np.cos(angle),
                              r * np.sin(angle)])
    rays = points / np.linalg.norm(points, axis=1)[:, None]
    poses = {"shortest arc": np.array([project_to_sphere(p) for p in points]),
             "Fick": fick_quat(rays), "Helmholtz": helmholtz_quat(rays)}
    for q in poses.values():
        np.testing.assert_allclose(rotate_vec(q, [1.0, 0.0, 0.0]), rays, rtol=0, atol=1e-12)
    residual, twist = {}, {}
    for name, q in poses.items():
        table = rotation_vectors(q, 0.0)
        residual[name] = fit_plane(table)["rms_residual_rad"]
        x, y, z = table.T
        design = np.column_stack([y, z, y * y, y * z, z * z, np.ones(n)])
        twist[name] = np.linalg.lstsq(design, x, rcond=None)[0][3]
    low, high = twist_window
    assert residual["shortest arc"] == 0.0
    assert residual["Fick"] >= least_residual and residual["Helmholtz"] >= least_residual
    assert -high <= twist["Fick"] <= -low and low <= twist["Helmholtz"] <= high


@pytest.mark.parametrize("end, listing_plane", [(2, False), (1, False), (4, True)])
def test_chords_turn_by_the_half_angle_rule(task, end, listing_plane):
    """Listing's law in velocity (Tweed & Vilis, Vision Res 1990): a pose
    that moves within Listing's law turns about an axis normal to a + g,
    where a is the primary pointer direction (world x) and g the current
    one, not about an axis in Listing's plane (normal to a).  Along the
    straight chord from target 0 to target ``end`` (2,001 shortest-arc
    poses, world-frame omega by central differences), the first deviation
    is rounding and the second is not, except on the chord through the
    centre (0 to 4), where both rules hold."""
    positions = task.positions
    s = np.linspace(0.0, 1.0, 2001)
    points = positions[0] + s[:, None] * (positions[end] - positions[0])
    q = np.array([project_to_sphere(p) for p in points])
    omega = 2.0 * quat_mul(np.gradient(q, s, axis=0), quat_conj(q))[1:-1, 1:]
    axis = omega / np.linalg.norm(omega, axis=1)[:, None]
    normal = [1.0, 0.0, 0.0] + points[1:-1] / np.linalg.norm(points[1:-1], axis=1)[:, None]
    normal /= np.linalg.norm(normal, axis=1)[:, None]
    assert np.abs(np.sum(axis * normal, axis=1)).max() <= 1e-15
    if listing_plane:
        assert np.abs(axis[:, 0]).max() <= 1e-15
    else:
        assert np.abs(axis[:, 0]).max() >= 0.1


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
