"""End-to-end acceptance gate for the pointing-experiment battery.

One test per criterion (A1-A8).  Each prints a single ``[PASS]``/``[FAIL]``
line with the measured numbers before asserting, so the battery reads as a
checklist under ``pytest -s`` and a red criterion surfaces its evidence
instead of hiding behind a bare assert.  Four more tests read the same
battery in the same way: its torsion surface in rotation-vector
coordinates, where Listing's plane is flat, its effort against the plan's
inverse dynamics, and its plan's speed profile against minimum jerk.

Known reds (measured honestly, not tuned away):

* A1 — without gravity the controller supplies the torque that realises
  the plan and little else: the inverse dynamics of the desired stream
  (``plan_torque``, the inertia of the half-cosine reaches).  So mean
  effort sits at ~0.011 N·m, and the 0.05 N·m floor is 4.7 times the
  plan's own torque.  Mean effort against mean |plan torque| on the
  default battery, at 10 substeps:

  ====================  ==================  ==================  =============
  condition             ``effort_mean_Nm``  mean |plan torque|  effort / plan
  ====================  ==================  ==================  =============
  g_off_K10000_phi0     1.1305e-02          1.0539e-02          1.0727
  g_on_K10000_phi0      0.48521             0.48507             1.0003
  g_on_K8000_phi0       0.48577             0.48507             1.0015
  g_on_K1000_phi0       0.48566             0.48507             1.0012
  g_on_K10000_phiN25    0.48522             0.48506             1.0003
  g_on_K8000_phiN25     0.48541             0.48506             1.0007
  g_on_K1000_phiN25     0.48548             0.48506             1.0009
  ====================  ==================  ==================  =============

  The other 7% of the gravity-off effort is the holds' chatter.  The
  retune is left out: its steps make the desired stream jump.
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

from oracles import (plan_torque, rotation_vectors, simulate_release, torsion_about_pointer,
                     vdp_equivalent_mu)
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
from wristsim.planner import reach_duration
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
    metrics: dict
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
            (m["rmse_y_m"] <= 2e-3, f"rmse_y={m['rmse_y_m'] * 1e3:.5f}mm (<=2mm)"),
            (m["rmse_z_m"] <= 4e-3, f"rmse_z={m['rmse_z_m'] * 1e3:.5f}mm (<=4mm)"),
            (
                0.05 <= m["effort_mean_Nm"] <= 0.55,
                f"effort={m['effort_mean_Nm']:.4f}Nm (in [0.05, 0.55])",
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
                0.25 <= m["effort_mean_Nm"] <= 0.65,
                f"effort={m['effort_mean_Nm']:.4f}Nm (in [0.25, 0.65])",
            ),
            (m["rmse_z_m"] <= 6e-3, f"rmse_z={m['rmse_z_m'] * 1e3:.5f}mm (<=6mm)"),
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
    ys = [by_k[k]["rmse_y_m"] for k in ks]
    zs = [by_k[k]["rmse_z_m"] for k in ks]
    efforts = [by_k[k]["effort_mean_Nm"] for k in ks]
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
                by_k[1000.0]["rmse_y_m"] <= 8e-3 and by_k[1000.0]["rmse_z_m"] <= 18e-3,
                f"K=1k rmse within 2x of 4mm/9mm "
                f"({by_k[1000.0]['rmse_y_m'] * 1e3:.5f}/{by_k[1000.0]['rmse_z_m'] * 1e3:.5f}mm)",
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
        measured[name] = fit_plane(extract_listing(traj.quat))["rms_residual_rad"]
        desired[name] = fit_plane(extract_listing(traj.quat_des))["rms_residual_rad"]
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


def rotvec_plane(quats, torsion):
    """``fit_plane`` of the rotation vectors of ``quats`` with the scheduled
    ``torsion`` factored out."""
    return fit_plane(rotation_vectors(quats, torsion))


def test_listing_plane_in_rotation_vectors(battery):
    """Listing's plane in rotation-vector coordinates (Haslwanter, Vision Res
    1995): the desired stream lies on a plane to rounding, and the measured
    stream's residual grows when gravity comes on and when the controller
    softens.  At the default 10 substeps."""
    desired = {name: rotvec_plane(battery[name].traj.quat_des, torsion)["rms_residual_rad"]
               for name, (_, _, torsion) in CLOCK_SPECS.items()}
    names = ("g_off_K10000", "g_on_K10000", "g_on_K1000")
    r_nog, r_stiff, r_soft = (
        rotvec_plane(battery[name].traj.quat, CLOCK_SPECS[name][2])["rms_residual_rad"]
        for name in names
    )
    flat = [name for name, (_, _, torsion) in CLOCK_SPECS.items() if torsion == 0.0]
    twisted = desired["g_on_K10000_phiN25"]
    failed = report(
        "Listing's plane in rotation vectors",
        [
            (all(desired[name] == 0.0 for name in flat),
             f"desired residual at phi=0 {max(desired[name] for name in flat):.3e} (== 0)"),
            (twisted <= 1e-15, f"desired residual at phi=-25deg {twisted:.3e} (<= 1e-15)"),
            (r_nog < r_stiff < r_soft,
             f"measured residual gravity-off K=10k {r_nog:.4e} < gravity-on K=10k "
             f"{r_stiff:.4e} < gravity-on K=1k {r_soft:.4e}"),
        ],
    )
    assert not failed, "; ".join(failed)


def test_gravity_tilts_the_plane_by_half_the_sag(battery, body, band, task, opts):
    """Each hold sags by m*g*c/K about a horizontal axis, and a fixed
    rotation composed with Listing-law poses tilts their plane by half of it
    (Tweed & Vilis, Vision Res 1990), so the measured rotation-vector plane
    has tilt_z = -m*g*c/(2K) (m mass, g gravity, c COM offset, K stiffness).

    Axes: gravity along -z and the COM on body x give a sag about y, which
    shows in ``tilt_z``, the slope of the plane's x along rotation-vector z.
    At the default 10 substeps; K = 1e5 keeps RK4 stable (rho = 1.88).
    """
    assert body.gravity[:2] == (0.0, 0.0) and body.com_offset[1:] == (0.0, 0.0)
    mgc = body.mass * -body.gravity[2] * body.com_offset[0]
    tilts = {name: rotvec_plane(battery[name].traj.quat, torsion)["tilt_z"]
             for name, (_, _, torsion) in CLOCK_SPECS.items()}
    gaps = {name: tilts[name] / (-mgc / (2.0 * stiffness)) - 1.0
            for name, (gravity, stiffness, _) in CLOCK_SPECS.items() if gravity}
    stiff = run_trial(build_clock_schedule(task, band, 1e5, 0.0), task, body, band, opts)
    sweep = {1e3: tilts["g_on_K1000"], 1e4: tilts["g_on_K10000"],
             1e5: rotvec_plane(stiff.quat, 0.0)["tilt_z"]}
    slope = np.polyfit(np.log(list(sweep)), np.log(np.abs(list(sweep.values()))), 1)[0]
    failed = report(
        "gravity tilt of Listing's plane",
        [
            (all(abs(gap) <= 0.01 for gap in gaps.values()),
             "tilt_z vs -mgc/(2K): "
             + ", ".join(f"{name} {gap:+.2%}" for name, gap in gaps.items()) + " (within 1%)"),
            (abs(tilts["g_off_K10000"]) < 1e-9,
             f"gravity-off tilt_z {tilts['g_off_K10000']:.2e} (|.| < 1e-9)"),
            (-1.02 <= slope <= -0.98,
             f"log-log slope of |tilt_z| over K = 1e3, 1e4, 1e5: {slope:.5f} (in [-1.02, -0.98])"),
        ],
    )
    assert not failed, "; ".join(failed)


def test_effort_is_the_plans_inverse_dynamics(battery, body, weightless):
    """The commanded effort of each clock condition is at least the mean
    torque that realises its plan (``plan_torque`` on its body) and at most
    10% above it; with gravity on, within 0.5% of it.  At the default 10
    substeps, where the gravity-off gap is the holds' chatter."""
    ratios = {}
    for name, (gravity, _, _) in CLOCK_SPECS.items():
        traj = battery[name].traj
        plan = plan_torque(traj.t, traj.quat_des, body if gravity else weightless)
        effort = battery[name].metrics["effort_mean_Nm"]
        ratios[name] = effort / np.linalg.norm(plan, axis=1).mean()
    gravity_on = [name for name, (gravity, _, _) in CLOCK_SPECS.items() if gravity]
    failed = report(
        "effort against the plan's torque",
        [
            (all(1.0 <= ratio <= 1.1 for ratio in ratios.values()),
             "effort / plan: " + ", ".join(f"{name} {ratio:.4f}" for name, ratio in ratios.items())
             + " (in [1, 1.1])"),
            (all(abs(ratios[name] - 1.0) <= 5e-3 for name in gravity_on),
             "gravity on within 0.5% of 1"),
        ],
    )
    assert not failed, "; ".join(failed)


def chord_deviation(points):
    """Largest distance of the rows of ``points`` from the chord through the
    first and the last of them, over the chord's length."""
    chord = points[-1] - points[0]
    rel = points - points[0]
    off = rel - np.outer(rel @ chord, chord) / (chord @ chord)
    return np.linalg.norm(off, axis=1).max() / np.linalg.norm(chord)


def test_plan_is_a_half_cosine_not_minimum_jerk(battery, band, task):
    """The plan's reaches are half cosines: their speed is a half sine,
    whose peak is pi/2 times its mean, where a minimum-jerk reach's is 1.875
    (Flash & Hogan, J Neurosci 1985).  They run along their chords to
    rounding, and the pointer leaves its chord more when gravity comes on
    and when the controller softens.  Over the 16 reach legs
    [j*leg, j*leg + T] of each clock condition (T the reach duration),
    speeds from ``plan_pos`` differences on the 1 ms grid."""
    reach = reach_duration(task.radius, band)
    leg = reach + task.dwell

    def reaches(traj):
        return [(traj.t >= j * leg) & (traj.t <= j * leg + reach)
                for j in range(2 * task.n_targets)]

    ratios = []
    for name in CLOCK_SPECS:
        traj = battery[name].traj
        for window in reaches(traj):
            step = np.linalg.norm(np.diff(traj.plan_pos[window], axis=0), axis=1)
            speed = step / np.diff(traj.t[window])
            ratios.append(speed.max() / speed.mean())
    plan = battery["g_off_K10000"].traj
    deviation = {"plan": max(chord_deviation(plan.plan_pos[w]) for w in reaches(plan))}
    for name in ("g_off_K10000", "g_on_K10000", "g_on_K1000"):
        traj = battery[name].traj
        deviation[name] = max(chord_deviation(traj.pointer[w]) for w in reaches(traj))
    devs = list(deviation.values())
    failed = report(
        "plan speed profile",
        [
            (all(abs(ratio / (math.pi / 2) - 1.0) <= 0.01 for ratio in ratios),
             f"plan peak/mean speed over {len(ratios)} legs {min(ratios):.4f}-{max(ratios):.4f} "
             f"(within 1% of pi/2 = {math.pi / 2:.4f})"),
            (max(ratios) <= 0.85 * 1.875,
             f"largest {max(ratios):.4f} (at least 15% below minimum jerk's 1.875)"),
            (all(a < b for a, b in zip(devs, devs[1:])),
             "largest deviation / chord: "
             + " < ".join(f"{name} {value:.3g}" for name, value in deviation.items())),
        ],
    )
    assert not failed, "; ".join(failed)


def test_a5_constant_torsion_offset(battery):
    phi = math.radians(-25.0)
    base = battery["g_on_K10000"]
    offset = battery["g_on_K10000_phiN25"]
    pooled = math.sqrt(
        0.5 * (base.metrics["effort_std_Nm"]**2 + offset.metrics["effort_std_Nm"]**2)
    )
    d_effort = abs(offset.metrics["effort_mean_Nm"] - base.metrics["effort_mean_Nm"])
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
                abs(offset.metrics["rmse_y_m"] - base.metrics["rmse_y_m"]) <= 1e-3
                and abs(offset.metrics["rmse_z_m"] - base.metrics["rmse_z_m"]) <= 1e-3,
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
