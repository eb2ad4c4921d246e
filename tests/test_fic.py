import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import simulate_release, vdp_equivalent_mu
from wristsim.fic import (
    DEADBAND,
    FicPhase,
    branch_force,
    branch_potential,
    fic_torque_quat,
    update_phase,
)
from wristsim.rotations import project_to_sphere


def test_params_reject_nonpositive_stiffness():
    with pytest.raises(ValueError):
        simulate_release(0.0, mass=1.0, start_disp=0.1)


# ---------------------------------------------------------------------------
# branch machine
# ---------------------------------------------------------------------------


def test_phase_tracks_growing_displacement():
    ph = FicPhase()
    for d in (0.1, 0.2, 0.35):
        ph = update_phase(ph, d, 1.0)
        assert ph.diverging is True
    assert ph.disp_max == 0.35


def test_phase_switches_at_peak():
    ph = update_phase(FicPhase(), 0.4, 1.0)
    ph = update_phase(ph, 0.4, 0.0)
    assert ph.diverging is False
    assert ph.disp_max == 0.4


def test_phase_resets_at_goal():
    ph = FicPhase(False, 0.4, 0.01)
    ph = update_phase(ph, 0.5 * DEADBAND, -1.0)
    assert ph.diverging is True
    assert ph.disp_max == 0.0


def test_phase_reanchors_on_aborted_convergence():
    """A divergence reopened mid-convergence tracks its own peak.

    Keeping the stale peak would center the convergence spring at half the
    old excursion and trap small errors in a self-sustained cycle.
    """
    ph = update_phase(FicPhase(), 1.0, 1.0)
    ph = update_phase(ph, 0.6, -1.0)
    assert ph.diverging is False and ph.disp_max == 1.0
    ph = update_phase(ph, 0.61, 1.0)
    assert ph.diverging is True
    assert ph.disp_max == 0.61


def test_phase_rejects_negative_displacement():
    with pytest.raises(ValueError):
        update_phase(FicPhase(), -0.1, 0.0)


@given(
    st.floats(0.0, 2.0),
    st.floats(-3.0, 3.0),
    st.floats(0.0, 2.0),
    st.booleans(),
)
def test_phase_invariants(disp, rate, dmax, diverging):
    ph = update_phase(FicPhase(diverging, dmax, 0.0), disp, rate)
    assert ph.disp_prev == disp
    if ph.diverging:
        # the recorded peak covers the current sample (up to the reset band)
        assert ph.disp_max >= disp - DEADBAND
    else:
        assert ph.disp_max == dmax


# ---------------------------------------------------------------------------
# force law and stored energy
# ---------------------------------------------------------------------------


def test_force_divergence_is_linear_spring():
    assert branch_force(0.2, 1000.0, True, 0.2) == pytest.approx(200.0)


def test_force_continuous_at_switch():
    assert branch_force(0.2, 1000.0, True, 0.2) == pytest.approx(
        branch_force(0.2, 1000.0, False, 0.2), rel=1e-12
    )


def test_force_convergence_antirestoring_inner_half():
    assert branch_force(0.05, 1000.0, False, 0.2) < 0.0
    assert branch_force(0.15, 1000.0, False, 0.2) > 0.0
    assert branch_force(0.1, 1000.0, False, 0.2) == pytest.approx(0.0, abs=1e-12)


def test_energy_conserved_at_switch():
    for dmax in (1e-3, 0.1, 0.4363, 1.2):
        e_div = branch_potential(dmax, 8000.0, True, dmax)
        e_conv = branch_potential(dmax, 8000.0, False, dmax)
        assert e_div == pytest.approx(e_conv, rel=1e-9)


@given(
    st.floats(1.0, 2e4),
    st.floats(1e-4, 1.5),
    st.floats(0.0, 1.5),
    st.booleans(),
)
def test_force_bounded_by_twice_peak(K, dmax, disp, diverging):
    """|force| <= 2 K theta_max for any branch state, any K step included."""
    bound = 2.0 * K * max(dmax, disp)
    assert abs(branch_force(disp, K, diverging, dmax)) <= bound * (1 + 1e-12)


@given(
    st.floats(1.0, 2e4),
    st.floats(1e-3, 1.5),
    st.floats(0.0, 1.5),
    st.booleans(),
)
def test_potential_is_the_force_integral(K, dmax, disp, diverging):
    """The central difference of the potential is the branch force.

    Both branches are quadratic in the displacement, so the central
    difference is exact but for the rounding of the potential, about
    eps K s^2 with s = max(dmax, disp); over a step of 1e-4 s that is a
    slope error near 1e-12 K s, well inside the 1e-9 K s tolerance.
    """
    scale = max(dmax, disp)
    step = 1e-4 * scale
    slope = (branch_potential(disp + step, K, diverging, dmax)
             - branch_potential(disp - step, K, diverging, dmax)) / (2.0 * step)
    assert slope == pytest.approx(
        branch_force(disp, K, diverging, dmax), abs=1e-9 * K * scale
    )


def test_closed_excursion_injects_no_energy():
    """Goal -> peak -> goal: the controller only ever absorbs energy."""
    amp, omega = 0.3, 5.0
    ts = np.linspace(0.0, math.pi / omega, 20001)
    disp = amp * np.sin(omega * ts)
    disp[-1] = 0.0
    ph = FicPhase()
    prev = 0.0
    work = 0.0
    for k in range(1, ts.size):
        d = float(disp[k])
        ph = update_phase(ph, d, d - prev)
        # force on the state is the negative of the restoring pull
        force = -branch_force(d, 1000.0, ph.diverging, ph.disp_max)
        work += force * (d - prev)
        prev = d
    assert work <= 1e-9
    # strict absorption of the divergence half: ~ -K amp^2 / 2
    assert work == pytest.approx(-0.5 * 1000.0 * amp**2, rel=1e-3)


# ---------------------------------------------------------------------------
# quaternion torque law
# ---------------------------------------------------------------------------


def test_torque_oracle_top_target():
    # 18.435 deg of pointing error at K = 10 kN.m/rad commands 3217 N.m
    q_des = project_to_sphere(np.array([0.3, 0.0, 0.1]))
    q = np.array([1.0, 0.0, 0.0, 0.0])
    tau, angle, phase = fic_torque_quat(q, q_des, 10000.0, FicPhase())
    assert angle == pytest.approx(math.atan2(0.1, 0.3), rel=1e-12)
    assert np.linalg.norm(tau) == pytest.approx(3217.5055439664225, rel=1e-12)
    np.testing.assert_allclose(tau / np.linalg.norm(tau), [0.0, -1.0, 0.0],
                               atol=1e-12)
    assert phase.diverging is True


def test_torque_zero_at_goal():
    q = project_to_sphere(np.array([0.3, 0.05, -0.02]))
    tau, angle, _ = fic_torque_quat(q, q, 5000.0, FicPhase())
    assert angle == pytest.approx(0.0, abs=1e-12)
    np.testing.assert_allclose(tau, np.zeros(3), atol=1e-9)


def test_torque_infers_rate_from_previous_sample():
    q_des = project_to_sphere(np.array([0.3, 0.0, 0.1]))
    q = np.array([1.0, 0.0, 0.0, 0.0])
    _, angle, ph = fic_torque_quat(q, q_des, 1000.0, FicPhase())
    # moving toward the goal now: error shrinks, branch flips to convergence
    q_mid = project_to_sphere(np.array([0.3, 0.0, 0.02]))
    _, angle2, ph2 = fic_torque_quat(q_mid, q_des, 1000.0, ph)
    assert angle2 < angle
    assert ph2.diverging is False
    assert ph2.disp_max == pytest.approx(angle)


# ---------------------------------------------------------------------------
# autonomous release and the Lienard match
# ---------------------------------------------------------------------------


def test_release_arrival_time_and_speed():
    ts, xs, vs, t_arr = simulate_release(1000.0, mass=1.0, start_disp=0.1)
    ideal = math.pi * math.sqrt(1.0 / 2000.0)
    assert abs(t_arr - ideal) / ideal < 1e-3
    peak = float(np.max(np.abs(vs)))
    assert peak == pytest.approx(0.05 * math.sqrt(2000.0), rel=1e-6)
    assert abs(vs[-1]) <= 1e-6 * peak
    assert ts[-1] == t_arr


def test_release_energy_constant_along_branch():
    ts, xs, vs, _ = simulate_release(2500.0, mass=0.7, start_disp=0.2)
    e = 0.5 * 0.7 * vs**2 + np.array(
        [branch_potential(float(x), 2500.0, False, 0.2) for x in xs]
    )
    assert np.max(np.abs(e - e[0])) <= 1e-9 * max(e[0], 1.0)


def test_release_scaling_in_mass_and_stiffness():
    for m, k in ((0.5, 250.0), (2.0, 5000.0), (1.0, 16.0)):
        _, _, vs, t_arr = simulate_release(k, mass=m, start_disp=0.05)
        ideal = math.pi * math.sqrt(m / (2.0 * k))
        assert abs(t_arr - ideal) / ideal < 1e-3
        assert abs(vs[-1]) <= 1e-6 * np.max(np.abs(vs))


def test_vdp_mu_oracle():
    mu = vdp_equivalent_mu(0.1, 1000.0, mass=1.0)
    assert mu == pytest.approx(42.83962643764692, rel=1e-9)


def test_vdp_mu_finite_positive_for_constant_k():
    for k in (16.0, 1000.0, 10000.0):
        mu = vdp_equivalent_mu(0.1, k, mass=1.0)
        assert math.isfinite(mu) and mu > 0.0


def test_vdp_degenerate_quadrature():
    with pytest.raises(ValueError, match="degenerate"):
        vdp_equivalent_mu(1e-9, 1.0, mass=1e6)
