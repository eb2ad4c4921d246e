import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from wristsim.planner import (
    BandParams,
    ElasticBand,
    band_stiffness_for_accel,
    plan_reach,
    reach_duration,
)

coords = st.floats(-0.5, 0.5)
points = st.tuples(coords, coords, coords).map(np.array)


def test_stiffness_matches_acceleration_budget():
    # peak accel of the half cycle is K d0 / M, so K = M a_max / d0
    assert band_stiffness_for_accel(3.2, 0.1, 1.0) == pytest.approx(32.0)
    assert band_stiffness_for_accel(3.2, 0.2, 1.0) == pytest.approx(16.0)
    assert band_stiffness_for_accel(3.2, 0.1, 2.0) == pytest.approx(64.0)


def test_reach_duration_oracle(band):
    # 0.1 m at a_max 3.2 m/s^2: omega = 8 rad/s, T = pi/8
    assert reach_duration(0.1, band) == pytest.approx(0.39269908169872414,
                                                      rel=1e-15)


def test_reach_duration_fixed_stiffness():
    p = BandParams(stiffness=8.0)
    assert reach_duration(0.5, p) == pytest.approx(math.pi / 4.0, rel=1e-12)
    assert reach_duration(0.02, p) == pytest.approx(math.pi / 4.0, rel=1e-12)


def test_params_validation():
    with pytest.raises(ValueError):
        BandParams(virtual_mass=0.0)
    with pytest.raises(ValueError):
        BandParams(max_accel=-1.0)
    with pytest.raises(ValueError):
        BandParams(stiffness=0.0)


def _speed(samples):
    return np.array([np.linalg.norm(s.vel) for s in samples])


def test_plan_reaches_target_at_rest(band):
    samples = plan_reach([0.3, 0.0, 0.0], [0.3, 0.0, 0.1], band)
    np.testing.assert_allclose(samples[-1].pos, [0.3, 0.0, 0.1], atol=1e-12)
    assert np.linalg.norm(samples[-1].vel) == 0.0


def test_plan_bell_profile(band):
    samples = plan_reach([0.3, 0.0, 0.0], [0.3, 0.0, 0.1], band)
    speed = _speed(samples)
    peak = speed.max()
    assert peak == pytest.approx(0.05 * 8.0, rel=1e-3)
    assert speed[0] <= 1e-6 * peak and speed[-1] <= 1e-6 * peak
    inner = speed[1:-1]
    maxima = (inner >= speed[:-2]) & (inner >= speed[2:]) & (inner > 1e-6 * peak)
    idx = np.flatnonzero(maxima)
    runs = 1 if idx.size else 0
    runs += int(np.sum(np.diff(idx) > 1))
    assert runs == 1


@given(points, points)
def test_plan_path_is_straight(a, b):
    if np.linalg.norm(b - a) < 1e-3:
        return
    samples = plan_reach(a, b, BandParams())
    unit = (b - a) / np.linalg.norm(b - a)
    for s in samples[:: max(1, len(samples) // 25)]:
        off = s.pos - a
        lateral = off - (off @ unit) * unit
        assert np.linalg.norm(lateral) < 1e-12


@given(points, points)
def test_plan_acceleration_bounded(a, b):
    if np.linalg.norm(b - a) < 1e-3:
        return
    p = BandParams()
    samples = plan_reach(a, b, p)
    worst = max(np.linalg.norm(s.acc) for s in samples)
    assert worst <= p.max_accel + 1e-9


def test_retarget_keeps_position_and_velocity_continuous(band):
    bandit = ElasticBand([0.3, 0.0, 0.0], band)
    bandit.retarget([0.3, 0.0, 0.1])
    for _ in range(150):
        bandit.step()
    pos, vel = bandit.pos.copy(), bandit.vel.copy()
    target = np.array([0.3, 0.1, 0.0])
    dist_at_switch = np.linalg.norm(pos - target)
    bandit.retarget(target)
    np.testing.assert_allclose(bandit.pos, pos, atol=1e-15)
    np.testing.assert_allclose(bandit.vel, vel, atol=1e-15)
    # carried-over lateral velocity turns the approach into a bounded orbit
    # (the attractor force is central), so only boundedness is guaranteed
    for _ in range(2000):
        bandit.step()
        assert np.linalg.norm(bandit.pos - target) <= 2.0 * dist_at_switch


def test_retarget_from_rest_reaches_new_target(band):
    bandit = ElasticBand([0.3, 0.0, 0.0], band)
    bandit.retarget([0.3, 0.0, 0.1])
    for _ in range(2000):
        bandit.step()
        if bandit.arrived:
            break
    bandit.retarget([0.3, 0.1, 0.0])
    for _ in range(2000):
        bandit.step()
        if bandit.arrived:
            break
    np.testing.assert_allclose(bandit.pos, [0.3, 0.1, 0.0], atol=1e-12)
    np.testing.assert_allclose(bandit.vel, 0.0, atol=1e-12)
