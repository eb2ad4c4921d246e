import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from wristsim.fic import (
    DEADBAND,
    FicParams,
    FicPhase,
    Mode,
    fic_force_linear,
    fic_potential_energy,
    fic_torque_quat,
    simulate_release,
    update_phase,
    vdp_equivalent_mu,
)
from wristsim.rotations import project_to_sphere


def test_params_reject_nonpositive_stiffness():
    with pytest.raises(ValueError):
        FicParams(stiffness=0.0)


# ---------------------------------------------------------------------------
# branch machine
# ---------------------------------------------------------------------------


def test_phase_tracks_growing_displacement():
    ph = FicPhase()
    for d in (0.1, 0.2, 0.35):
        ph = update_phase(ph, d, 1.0)
        assert ph.mode is Mode.DIVERGENCE
    assert ph.disp_max == 0.35


def test_phase_switches_at_peak():
    ph = update_phase(FicPhase(), 0.4, 1.0)
    ph = update_phase(ph, 0.4, 0.0)
    assert ph.mode is Mode.CONVERGENCE
    assert ph.disp_max == 0.4


def test_phase_resets_at_goal():
    ph = FicPhase(Mode.CONVERGENCE, 0.4, 0.01)
    ph = update_phase(ph, 0.5 * DEADBAND, -1.0)
    assert ph.mode is Mode.DIVERGENCE
    assert ph.disp_max == 0.0


def test_phase_reanchors_on_aborted_convergence():
    """A divergence reopened mid-convergence tracks its own peak.

    Keeping the stale peak would center the convergence spring at half the
    old excursion and trap small errors in a self-sustained cycle.
    """
    ph = update_phase(FicPhase(), 1.0, 1.0)
    ph = update_phase(ph, 0.6, -1.0)
    assert ph.mode is Mode.CONVERGENCE and ph.disp_max == 1.0
    ph = update_phase(ph, 0.61, 1.0)
    assert ph.mode is Mode.DIVERGENCE
    assert ph.disp_max == 0.61


def test_phase_rejects_negative_displacement():
    with pytest.raises(ValueError):
        update_phase(FicPhase(), -0.1, 0.0)


@given(
    st.floats(0.0, 2.0),
    st.floats(-3.0, 3.0),
    st.floats(0.0, 2.0),
    st.sampled_from([Mode.DIVERGENCE, Mode.CONVERGENCE]),
)
def test_phase_invariants(disp, rate, dmax, mode):
    ph = update_phase(FicPhase(mode, dmax, 0.0), disp, rate)
    assert ph.disp_prev == disp
    if ph.mode is Mode.DIVERGENCE:
        # the recorded peak covers the current sample (up to the reset band)
        assert ph.disp_max >= disp - DEADBAND
    else:
        assert ph.disp_max == dmax


# ---------------------------------------------------------------------------
# force law and stored energy
# ---------------------------------------------------------------------------


def test_force_divergence_is_linear_spring():
    p = FicParams(stiffness=1000.0)
    ph = FicPhase(Mode.DIVERGENCE, 0.2, 0.2)
    assert fic_force_linear(0.2, p, ph) == pytest.approx(200.0)


def test_force_continuous_at_switch():
    p = FicParams(stiffness=1000.0)
    div = FicPhase(Mode.DIVERGENCE, 0.2, 0.2)
    conv = FicPhase(Mode.CONVERGENCE, 0.2, 0.2)
    assert fic_force_linear(0.2, p, div) == pytest.approx(
        fic_force_linear(0.2, p, conv), rel=1e-12
    )


def test_force_convergence_antirestoring_inner_half():
    p = FicParams(stiffness=1000.0)
    conv = FicPhase(Mode.CONVERGENCE, 0.2, 0.1)
    assert fic_force_linear(0.05, p, conv) < 0.0
    assert fic_force_linear(0.15, p, conv) > 0.0
    assert fic_force_linear(0.1, p, conv) == pytest.approx(0.0, abs=1e-12)


def test_energy_conserved_at_switch():
    p = FicParams(stiffness=8000.0)
    for dmax in (1e-3, 0.1, 0.4363, 1.2):
        e_div = fic_potential_energy(dmax, p, FicPhase(Mode.DIVERGENCE, dmax))
        e_conv = fic_potential_energy(dmax, p, FicPhase(Mode.CONVERGENCE, dmax))
        assert e_div == pytest.approx(e_conv, rel=1e-9)


@given(
    st.floats(1.0, 2e4),
    st.floats(1e-4, 1.5),
    st.floats(0.0, 1.5),
    st.sampled_from([Mode.DIVERGENCE, Mode.CONVERGENCE]),
)
def test_force_bounded_by_twice_peak(K, dmax, disp, mode):
    """|force| <= 2 K theta_max for any branch state, any K step included."""
    p = FicParams(stiffness=K)
    ph = FicPhase(mode, dmax, disp)
    bound = 2.0 * K * max(dmax, disp)
    assert abs(fic_force_linear(disp, p, ph)) <= bound * (1 + 1e-12)


def test_closed_excursion_injects_no_energy():
    """Goal -> peak -> goal: the controller only ever absorbs energy."""
    p = FicParams(stiffness=1000.0)
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
        force = -fic_force_linear(d, p, ph)
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
    assert phase.mode is Mode.DIVERGENCE


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
    assert ph2.mode is Mode.CONVERGENCE
    assert ph2.disp_max == pytest.approx(angle)


# ---------------------------------------------------------------------------
# autonomous release and the Lienard match
# ---------------------------------------------------------------------------


def test_release_arrival_time_and_speed():
    p = FicParams(stiffness=1000.0)
    ts, xs, vs, t_arr = simulate_release(p, mass=1.0, start_disp=0.1)
    ideal = math.pi * math.sqrt(1.0 / 2000.0)
    assert abs(t_arr - ideal) / ideal < 1e-3
    peak = float(np.max(np.abs(vs)))
    assert peak == pytest.approx(0.05 * math.sqrt(2000.0), rel=1e-6)
    assert abs(vs[-1]) <= 1e-6 * peak
    assert ts[-1] == t_arr


def test_release_energy_constant_along_branch():
    p = FicParams(stiffness=2500.0)
    ph = FicPhase(Mode.CONVERGENCE, 0.2)
    ts, xs, vs, _ = simulate_release(p, mass=0.7, start_disp=0.2)
    e = 0.5 * 0.7 * vs**2 + np.array(
        [fic_potential_energy(float(x), p, ph) for x in xs]
    )
    assert np.max(np.abs(e - e[0])) <= 1e-9 * max(e[0], 1.0)


def test_release_scaling_in_mass_and_stiffness():
    for m, k in ((0.5, 250.0), (2.0, 5000.0), (1.0, 16.0)):
        p = FicParams(stiffness=k)
        _, _, vs, t_arr = simulate_release(p, mass=m, start_disp=0.05)
        ideal = math.pi * math.sqrt(m / (2.0 * k))
        assert abs(t_arr - ideal) / ideal < 1e-3
        assert abs(vs[-1]) <= 1e-6 * np.max(np.abs(vs))


def test_vdp_mu_oracle():
    p = FicParams(stiffness=1000.0)
    mu = vdp_equivalent_mu(0.1, p, mass=1.0)
    assert mu == pytest.approx(42.83962643764692, rel=1e-9)


def test_vdp_mu_finite_positive_for_constant_k():
    for k in (16.0, 1000.0, 10000.0):
        mu = vdp_equivalent_mu(0.1, FicParams(stiffness=k), mass=1.0)
        assert math.isfinite(mu) and mu > 0.0


def test_vdp_extra_energy_enters_linearly():
    p = FicParams(stiffness=1000.0)
    base = vdp_equivalent_mu(0.1, p, mass=1.0)
    up1 = vdp_equivalent_mu(0.1, p, mass=1.0, extra_energy=2.0)
    up2 = vdp_equivalent_mu(0.1, p, mass=1.0, extra_energy=4.0)
    assert up2 - base == pytest.approx(2.0 * (up1 - base), rel=1e-9)


def test_vdp_degenerate_quadrature():
    with pytest.raises(ValueError, match="degenerate"):
        vdp_equivalent_mu(1e-9, FicParams(stiffness=1.0), mass=1e6)
