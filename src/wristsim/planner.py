"""Elastic-band reach planner.

Desired positions evolve as a unit-mass particle attracted to the target by
the impedance controller's convergence branch.  A reach released from rest
at distance d0 is then a single harmonic half cycle: a bell-shaped speed
profile that arrives at the target at rest after pi/omega seconds, with
omega^2 = 2 * stiffness / mass.  Choosing the band stiffness as
``mass * max_accel / d0`` caps the path acceleration at ``max_accel``
independently of reach length.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .fic import FicParams, FicPhase, Mode, fic_force_linear, update_phase

#: distance at which a reach is considered complete and the plan clamps
ARRIVAL_TOL = 1e-6


@dataclass(frozen=True)
class BandParams:
    """Virtual mass, acceleration budget and optional fixed stiffness.

    With ``stiffness=None`` each reach derives its own stiffness from the
    start distance so the acceleration peak equals ``max_accel``.
    """

    virtual_mass: float = 1.0
    max_accel: float = 3.2
    stiffness: Optional[float] = None

    def __post_init__(self):
        if not self.virtual_mass > 0.0:
            raise ValueError(f"virtual mass must be positive, got {self.virtual_mass}")
        if not self.max_accel > 0.0:
            raise ValueError(f"max accel must be positive, got {self.max_accel}")
        if self.stiffness is not None and not self.stiffness > 0.0:
            raise ValueError(f"stiffness must be positive, got {self.stiffness}")


@dataclass(frozen=True)
class PlanSample:
    t: float
    pos: np.ndarray
    vel: np.ndarray
    acc: np.ndarray


def band_stiffness_for_accel(max_accel: float, dist: float, virtual_mass: float) -> float:
    """Band stiffness whose convergence stroke peaks at ``max_accel``."""
    if dist <= 0.0:
        raise ValueError("band is already at the target; no stiffness defined")
    return virtual_mass * max_accel / dist


def reach_duration(dist: float, params: BandParams) -> float:
    """Half-cycle duration of a from-rest reach over ``dist`` meters."""
    if dist <= 0.0:
        return 0.0
    k = params.stiffness
    if k is None:
        k = band_stiffness_for_accel(params.max_accel, dist, params.virtual_mass)
    return math.pi / math.sqrt(2.0 * k / params.virtual_mass)


class ElasticBand:
    """Stateful desired-position generator stepped at a fixed rate.

    The band integrates its own point-mass dynamics under the branch force,
    so retargeting mid-flight keeps position and velocity continuous (only
    the acceleration jumps).  When the remaining distance drops inside
    ``arrival_tol`` the state snaps exactly onto the target and stays
    clamped there.
    """

    def __init__(
        self,
        start,
        params: BandParams,
        dt: float = 1e-3,
        arrival_tol: float = ARRIVAL_TOL,
    ):
        self.params = params
        self.dt = dt
        self.arrival_tol = arrival_tol
        self.t = 0.0
        self.pos = np.asarray(start, dtype=float).copy()
        self.vel = np.zeros(3)
        self.target = self.pos.copy()
        self.phase = FicPhase()
        self.reach_stiffness = None
        self.snap_tol = arrival_tol
        self.arrived = True

    def retarget(self, target) -> None:
        """Aim at a new target, carrying over the current state."""
        self.target = np.asarray(target, dtype=float).copy()
        dist = float(np.linalg.norm(self.pos - self.target))
        if dist <= self.arrival_tol:
            self._snap()
            return
        if self.params.stiffness is not None:
            self.reach_stiffness = self.params.stiffness
        else:
            self.reach_stiffness = band_stiffness_for_accel(
                self.params.max_accel, dist, self.params.virtual_mass
            )
        # the sampled touchdown can sit up to accel * dt^2 / 2 off the
        # target (tangent approach on a discrete grid), so the snap ball
        # must scale with the deceleration there or long reaches bounce
        touchdown_accel = self.reach_stiffness * dist / self.params.virtual_mass
        self.snap_tol = max(self.arrival_tol, touchdown_accel * self.dt**2)
        self.phase = FicPhase(Mode.CONVERGENCE, dist, dist)
        self.arrived = False

    def _snap(self):
        self.pos = self.target.copy()
        self.vel = np.zeros(3)
        self.arrived = True

    def _accel(self, pos, phase) -> np.ndarray:
        offset = self.target - pos
        dist = float(np.linalg.norm(offset))
        if dist < 1e-15:
            return np.zeros(3)
        force = fic_force_linear(dist, FicParams(self.reach_stiffness), phase)
        return force / self.params.virtual_mass / dist * offset

    def sample(self) -> PlanSample:
        """Current state as a plan sample (no time advance)."""
        acc = np.zeros(3) if self.arrived else self._accel(self.pos, self.phase)
        return PlanSample(self.t, self.pos.copy(), self.vel.copy(), acc)

    def step(self) -> PlanSample:
        """Advance one tick and return the new sample."""
        if not self.arrived:
            dt, phase = self.dt, self.phase
            p, v = self.pos, self.vel
            k1v = self._accel(p, phase)
            k2p = v + 0.5 * dt * k1v
            k2v = self._accel(p + 0.5 * dt * v, phase)
            k3p = v + 0.5 * dt * k2v
            k3v = self._accel(p + 0.5 * dt * k2p, phase)
            k4p = v + dt * k3v
            k4v = self._accel(p + dt * k3p, phase)
            dist_prev = float(np.linalg.norm(self.target - p))
            self.pos = p + dt / 6.0 * (v + 2.0 * k2p + 2.0 * k3p + k4p)
            self.vel = v + dt / 6.0 * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
            dist = float(np.linalg.norm(self.target - self.pos))
            if dist <= self.snap_tol:
                self._snap()
            else:
                self.phase = update_phase(
                    self.phase, dist, dist - dist_prev, self.snap_tol
                )
        self.t += self.dt
        return self.sample()


def plan_reach(start, target, params: BandParams, dt: float = 1e-3) -> list[PlanSample]:
    """From-rest reach from ``start`` to ``target`` sampled every ``dt``.

    Returns samples from t=0 up to and including the arrival tick on which
    the plan clamps to the target; a degenerate reach returns the single
    clamped sample.
    """
    band = ElasticBand(start, params, dt=dt)
    band.retarget(target)
    samples = [band.sample()]
    while not band.arrived:
        samples.append(band.step())
    return samples
