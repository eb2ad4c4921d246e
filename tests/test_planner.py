import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import plan_reach
from wristsim._rules import ConfigError
from wristsim.experiments import ClockTask, build_clock_schedule
from wristsim.planner import BandParams, ReachProfile, reach_duration

coords = st.floats(-0.5, 0.5)
points = st.tuples(coords, coords, coords).map(np.array)


def test_stiffness_matches_acceleration_budget():
    # peak accel of the half cycle is K d0 at unit mass, so K = a_max / d0
    # and omega^2 = 2 K: the stroke peaks at omega^2 d0 / 2 = a_max
    p = BandParams(max_accel=3.2)
    for dist, omega in ((0.1, 8.0), (0.2, math.sqrt(32.0))):
        profile = ReachProfile.from_rest([0.0, 0.0, 0.0], [dist, 0.0, 0.0], p, 0.0)
        assert profile.omega == pytest.approx(omega, rel=1e-15)
        assert profile.omega**2 * profile.dist / 2.0 == pytest.approx(3.2, rel=1e-15)
    assert reach_duration(0.0, p) == 0.0
    assert ReachProfile.from_rest([0.1, 0.0, 0.0], [0.1, 0.0, 0.0], p, 0.0).omega == 0.0


def test_reach_whose_rate_underflows_is_refused_by_max_accel():
    """A rate that underflows to 0 would divide pi by 0: the library refuses
    the reach where the rate is made, for the schedule and the profile alike."""
    band = BandParams(max_accel=5e-324)
    message = "max_accel: the reach over 2 m at max_accel 4.94066e-324 m/s^2 never arrives"
    with pytest.raises(ConfigError, match=re.escape(message)):
        build_clock_schedule(ClockTask(radius=2.0), band)
    with pytest.raises(ConfigError, match=re.escape(message)):
        ReachProfile.from_rest([0.0, 0.0, 0.0], [2.0, 0.0, 0.0], band, 0.0)


def test_reach_duration_oracle(band):
    # 0.1 m at a_max 3.2 m/s^2: omega = 8 rad/s, T = pi/8
    assert reach_duration(0.1, band) == pytest.approx(0.39269908169872414,
                                                      rel=1e-15)


def test_params_validation():
    with pytest.raises(ValueError):
        BandParams(max_accel=-1.0)


def test_plan_reaches_target_at_rest(band):
    _, pos, vel, _ = plan_reach([0.3, 0.0, 0.0], [0.3, 0.0, 0.1], band)
    np.testing.assert_allclose(pos[-1], [0.3, 0.0, 0.1], atol=1e-12)
    assert np.linalg.norm(vel[-1]) == 0.0


def test_plan_bell_profile(band):
    _, _, vel, _ = plan_reach([0.3, 0.0, 0.0], [0.3, 0.0, 0.1], band)
    speed = np.linalg.norm(vel, axis=1)
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
    _, pos, _, _ = plan_reach(a, b, BandParams())
    unit = (b - a) / np.linalg.norm(b - a)
    for p in pos[:: max(1, len(pos) // 25)]:
        off = p - a
        lateral = off - (off @ unit) * unit
        assert np.linalg.norm(lateral) < 1e-12


@given(points, points)
def test_plan_acceleration_bounded(a, b):
    if np.linalg.norm(b - a) < 1e-3:
        return
    p = BandParams()
    _, _, _, acc = plan_reach(a, b, p)
    assert np.linalg.norm(acc, axis=1).max() <= p.max_accel + 1e-9


@given(points, points)
def test_reach_profile_is_the_integrated_band(a, b):
    dist = np.linalg.norm(b - a)
    if dist < 1e-3:
        return
    params = BandParams()
    profile = ReachProfile.from_rest(a, b, params, 0.0)
    t, pos, _, _ = plan_reach(a, b, params)
    np.testing.assert_array_equal(pos[-1], b)
    # compare the flight: before the last 2 ms and before the band's last,
    # snapped sample
    flight = t[:-1] < profile.duration - 2e-3
    closed = np.array([profile.position(s) for s in t[:-1][flight]])
    # the band's RK4 lags the half cycle by pi (omega dt)^4 / 120 in phase,
    # which outgrows 1e-9 on short reaches under the acceleration budget
    tol = dist * max(1e-9, math.pi * (profile.omega * 1e-3) ** 4 / 120)
    assert np.linalg.norm(closed - pos[:-1][flight], axis=1).max() <= tol
