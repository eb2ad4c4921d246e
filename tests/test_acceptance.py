"""End-to-end acceptance gate for the pointing-experiment battery.

One test per criterion (A1-A8).  Each prints a single ``[PASS]``/``[FAIL]``
line with the measured numbers before asserting, so the battery reads as a
checklist under ``pytest -s`` and a red criterion surfaces its evidence
instead of hiding behind a bare assert.

Known reds (measured honestly, not tuned away):

* A1 — the effort band assumes a controller that keeps spending torque
  after convergence; this implementation tracks so tightly without gravity
  that mean effort sits at ~0.011 N·m, below the 0.05 N·m floor.
* A4 — the plane is fitted on intrinsic x-y-z Euler angles, whose image of
  Listing's law is curved, so the residual (~1.18e-2 rad) is almost all
  coordinate curvature: the desired stream, which has no sag, reads
  1.181235463e-02 rad.  At K = 10k the gravity-on residual
  (1.181242313e-02) sits below the gravity-off one (1.181242380e-02), a
  difference of ~ -6.7e-10 rad.
"""

import math
import time
from dataclasses import dataclass

import numpy as np
import pytest

from oracles import simulate_release, torsion_about_pointer, vdp_equivalent_mu
from wristsim.checks import run_checks
from wristsim.experiments import (
    ParamSchedule,
    Trajectory,
    build_clock_schedule,
    build_retune_schedule,
    compute_metrics,
    extract_listing,
    fit_plane,
    run_trial,
)
from wristsim.fic import branch_potential
from wristsim.rotations import quat_angle_between, quat_mul

# (gravity, stiffness, torsion) of each clock run
CLOCK_SPECS = {
    "g_off_K10000": (False, 10000.0, 0.0),
    "g_on_K10000": (True, 10000.0, 0.0),
    "g_on_K8000": (True, 8000.0, 0.0),
    "g_on_K1000": (True, 1000.0, 0.0),
    "g_on_K10000_phiN25": (True, 10000.0, math.radians(-25.0)),
}


@dataclass
class Run:
    schedule: ParamSchedule
    traj: Trajectory
    metrics: object
    runtime: float


@pytest.fixture(scope="module")
def battery(body, weightless, band, task, opts):
    runs = {}
    for name, (gravity, stiffness, torsion) in CLOCK_SPECS.items():
        sched = build_clock_schedule(task, band, stiffness, torsion)
        tic = time.perf_counter()
        traj = run_trial(sched, task, body if gravity else weightless, band, opts)
        runs[name] = Run(sched, traj, compute_metrics(traj), time.perf_counter() - tic)
    sched = build_retune_schedule()
    tic = time.perf_counter()
    traj = run_trial(sched, task, body, band, opts)
    runs["retune"] = Run(sched, traj, compute_metrics(traj), time.perf_counter() - tic)
    return runs


def report(tag, clauses):
    """Print the checklist line and return the failed clause descriptions."""
    failed = [detail for ok, detail in clauses if not ok]
    status = "PASS" if not failed else "FAIL"
    print(f"[{status}] {tag}: " + "; ".join(detail for _, detail in clauses))
    return failed


def test_a1_gravity_off_baseline(battery):
    run = battery["g_off_K10000"]
    m = run.metrics
    failed = report(
        "A1 gravity-off baseline",
        [
            (m.rmse_y <= 2e-3, f"rmse_y={m.rmse_y * 1e3:.5f}mm (<=2mm)"),
            (m.rmse_z <= 4e-3, f"rmse_z={m.rmse_z * 1e3:.5f}mm (<=4mm)"),
            (
                0.05 <= m.effort_mean <= 0.55,
                f"effort={m.effort_mean:.4f}Nm (in [0.05, 0.55])",
            ),
            (run.runtime < 60.0, f"runtime={run.runtime:.1f}s (<60s)"),
        ],
    )
    assert not failed, "; ".join(failed)


def test_a2_gravity_on_effort_rises(battery):
    ref = battery["g_off_K10000"]
    run = battery["g_on_K10000"]
    m = run.metrics
    failed = report(
        "A2 gravity-on effort",
        [
            (
                0.25 <= m.effort_mean <= 0.65,
                f"effort={m.effort_mean:.4f}Nm (in [0.25, 0.65])",
            ),
            (m.rmse_z <= 6e-3, f"rmse_z={m.rmse_z * 1e3:.5f}mm (<=6mm)"),
            (
                np.array_equal(run.traj.quat_des, ref.traj.quat_des)
                and np.array_equal(run.traj.plan_pos, ref.traj.plan_pos),
                "desired stream bit-identical to gravity-off run",
            ),
        ],
    )
    assert not failed, "; ".join(failed)


def test_a3_stiffness_sweep(battery):
    by_k = {
        1000.0: battery["g_on_K1000"].metrics,
        8000.0: battery["g_on_K8000"].metrics,
        10000.0: battery["g_on_K10000"].metrics,
    }
    ks = sorted(by_k)
    ys = [by_k[k].rmse_y for k in ks]
    zs = [by_k[k].rmse_z for k in ks]
    efforts = [by_k[k].effort_mean for k in ks]
    spread = max(efforts) - min(efforts)
    failed = report(
        "A3 stiffness sweep",
        [
            (
                all(a >= b for a, b in zip(ys, ys[1:]))
                and all(a >= b for a, b in zip(zs, zs[1:])),
                "rmse non-increasing in K "
                f"(y: {', '.join(f'{v * 1e3:.5f}' for v in ys)}mm)",
            ),
            (
                by_k[1000.0].rmse_y <= 8e-3 and by_k[1000.0].rmse_z <= 18e-3,
                f"K=1k rmse within 2x of 4mm/9mm "
                f"({by_k[1000.0].rmse_y * 1e3:.5f}/{by_k[1000.0].rmse_z * 1e3:.5f}mm)",
            ),
            (spread < 0.05, f"effort spread={spread:.5f}Nm (<0.05)"),
        ],
    )
    assert not failed, "; ".join(failed)


def test_a4_listing_plane_deformation(battery):
    names = ("g_on_K1000", "g_on_K10000", "g_off_K10000")
    measured = {}
    desired = {}
    for name in names:
        traj = battery[name].traj
        measured[name] = fit_plane(extract_listing(traj.quat)).rms_residual
        desired[name] = fit_plane(extract_listing(traj.quat_des)).rms_residual
    r_soft, r_stiff, r_nog = (measured[n] for n in names)
    d_vals = [desired[n] for n in names]
    failed = report(
        "A4 torsion-plane deformation",
        [
            (
                r_soft > r_stiff,
                f"residual K=1k {r_soft:.9e} > K=10k {r_stiff:.9e} (gravity on)",
            ),
            (
                r_stiff > r_nog,
                f"residual gravity-on {r_stiff:.9e} > gravity-off {r_nog:.9e} (K=10k)",
            ),
            (
                d_vals[0] == d_vals[1] == d_vals[2],
                f"desired-stream residuals identical ({d_vals[0]:.9e})",
            ),
        ],
    )
    assert not failed, "; ".join(failed)


def test_a5_constant_torsion_offset(battery):
    phi = math.radians(-25.0)
    base = battery["g_on_K10000"]
    offset = battery["g_on_K10000_phiN25"]
    pooled = math.sqrt(
        0.5 * (base.metrics.effort_std**2 + offset.metrics.effort_std**2)
    )
    d_effort = abs(offset.metrics.effort_mean - base.metrics.effort_mean)
    twists = torsion_about_pointer(offset.traj.quat_des)
    twist_dev = float(np.max(np.abs(twists - phi)))
    roll = np.array([math.cos(0.5 * phi), math.sin(0.5 * phi), 0.0, 0.0])
    pair_dev = max(
        quat_angle_between(q25, quat_mul(q0, roll))
        for q0, q25 in zip(base.traj.quat_des, offset.traj.quat_des)
    )
    failed = report(
        "A5 constant torsion offset",
        [
            (
                abs(offset.metrics.rmse_y - base.metrics.rmse_y) <= 1e-3
                and abs(offset.metrics.rmse_z - base.metrics.rmse_z) <= 1e-3,
                "rmse within 1mm of the zero-torsion run",
            ),
            (d_effort <= pooled, f"effort delta={d_effort:.2e}Nm (<= pooled std {pooled:.4f})"),
            (twist_dev <= 1e-8, f"desired twist dev={twist_dev:.2e}rad (<=1e-8)"),
            (pair_dev <= 1e-10, f"paired twist dev={pair_dev:.2e}rad (<=1e-10)"),
        ],
    )
    assert not failed, "; ".join(failed)


def count_interior_maxima(speed, floor_frac=1e-3):
    # collapse plateau runs first so a flat crest counts as one maximum
    keep = np.insert(np.diff(speed) != 0.0, 0, True)
    vals = speed[keep]
    floor = floor_frac * float(speed.max())
    hits = 0
    for i in range(1, len(vals) - 1):
        if vals[i] > floor and vals[i - 1] < vals[i] > vals[i + 1]:
            hits += 1
    return hits


def test_a6_online_retuning_stability(battery):
    run = battery["retune"]
    traj = run.traj
    finite = all(
        np.all(np.isfinite(getattr(traj, f)))
        for f in ("plan_pos", "quat_des", "quat", "omega", "tau_cmd", "pointer")
    )
    tau_norm = np.linalg.norm(traj.tau_cmd, axis=1)
    bound = 2.0 * traj.stiffness * np.maximum(traj.disp_max, traj.err_angle)
    bound_ok = bool(np.all(tau_norm <= bound * (1.0 + 1e-9) + 1e-12))
    final_err = float(np.linalg.norm(traj.pointer[-1] - traj.plan_pos[-1]))

    # the planned (commanded) reach profile must stay bell-shaped through
    # the parameter steps; windows start one sample before each leg onset,
    # where the plan is still provably at rest
    dt = traj.t[1] - traj.t[0]
    speed = np.linalg.norm(np.gradient(traj.plan_pos, dt, axis=0), axis=1)
    onsets = [int(round(t / dt)) for t, _ in run.schedule.target_breaks]
    windows = [
        (onsets[0] - 1, onsets[1] - 1),
        (onsets[1] - 1, len(speed) - 1),
    ]
    bells = []
    for lo, hi in windows:
        leg = speed[lo : hi + 1]
        peak = float(leg.max())
        bells.append(
            count_interior_maxima(leg) == 1
            and leg[0] <= 1e-3 * peak
            and leg[-1] <= 1e-3 * peak
        )
    failed = report(
        "A6 online retuning",
        [
            (finite, "no NaN in any logged stream"),
            (bound_ok, "torque never exceeds 2*K*theta_max"),
            (final_err < 2e-3, f"final pointer error={final_err * 1e3:.4f}mm (<2mm)"),
            (
                all(bells),
                "per-reach speed profile single-peaked with resting endpoints",
            ),
        ],
    )
    assert not failed, "; ".join(failed)


def test_a7_autonomous_release(battery):
    clauses = []
    for mass, k, x0 in ((1.0, 10000.0, 0.3), (0.5, 250.0, 0.1), (2.0, 5000.0, 0.4)):
        ts, xs, vs, t_arrive = simulate_release(k, mass, x0)
        ideal = math.pi * math.sqrt(mass / (2.0 * k))
        t_err = abs(t_arrive - ideal) / ideal
        v_ratio = abs(vs[-1]) / np.max(np.abs(vs))
        energy = 0.5 * mass * vs**2 + np.array(
            [branch_potential(x, k, False, x0) for x in xs]
        )
        e_drift = float(np.ptp(energy) / energy[0])
        clauses.append(
            (t_err <= 1e-3, f"arrival within 0.1% (K={k:g}: err={t_err:.2e})")
        )
        clauses.append(
            (v_ratio <= 1e-6, f"terminal speed ratio={v_ratio:.2e} (<=1e-6)")
        )
        clauses.append(
            (e_drift <= 1e-9, f"energy drift={e_drift:.2e} (<=1e-9 rel)")
        )
    # branch potentials must agree where the controller switches
    switch_dev = 0.0
    for dmax in (1e-3, 0.1, 0.4363, 1.2):
        div = branch_potential(dmax, 10000.0, True, dmax)
        conv = branch_potential(dmax, 10000.0, False, dmax)
        switch_dev = max(switch_dev, abs(div - conv) / div)
    clauses.append(
        (switch_dev <= 1e-9, f"switch energy dev={switch_dev:.2e} (<=1e-9 rel)")
    )
    mu = vdp_equivalent_mu(0.3, 10000.0, 1.0)
    clauses.append(
        (math.isfinite(mu) and mu > 0.0, f"equivalent mu={mu:.4f} finite and positive")
    )
    failed = report("A7 autonomous release", clauses)
    assert not failed, "; ".join(failed)


def test_a8_property_suite():
    results = run_checks(seed=0)
    clauses = [(r.passed, f"{r.name}: {r.detail}") for r in results]
    clauses.append((len(results) == 5, f"{len(results)} checks registered"))
    failed = report("A8 property suite", clauses)
    assert not failed, "; ".join(failed)
