"""Elastic-band reach planner.

Desired positions evolve as a unit-mass particle attracted to the target by
the impedance controller's convergence branch.  A reach released from rest
at distance d0 is then a single harmonic half cycle: a bell-shaped speed
profile that arrives at the target at rest after pi/omega seconds, with
omega^2 = 2 * stiffness / mass.  Choosing the band stiffness as
``mass * max_accel / d0`` caps the path acceleration at ``max_accel``
independently of reach length.

:class:`ReachProfile` is that from-rest leg in closed form and is the plan
the trial kernel follows; :class:`ElasticBand` integrates the same band
step by step, so a reach can be retargeted mid-flight.  The band carries the
controller state ``(diverging, peak)`` and steps it with the float laws
:func:`~wristsim.fic.branch_step` and :func:`~wristsim.fic.branch_force`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .dynamics import rk4_step
from .fic import branch_force, branch_step

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

    def stiffness_for(self, dist: float) -> float:
        """Band stiffness of a reach over ``dist``: the fixed override if
        set, else the stiffness whose stroke peaks at ``max_accel``."""
        if self.stiffness is not None:
            return self.stiffness
        return band_stiffness_for_accel(self.max_accel, dist, self.virtual_mass)


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


def _half_cycle_rate(dist: float, params: BandParams) -> float:
    """Angular rate omega = sqrt(2 K / m) of a from-rest reach over ``dist``."""
    return math.sqrt(2.0 * params.stiffness_for(dist) / params.virtual_mass)


def reach_duration(dist: float, params: BandParams) -> float:
    """Half-cycle duration of a from-rest reach over ``dist`` meters."""
    if dist <= 0.0:
        return 0.0
    return math.pi / _half_cycle_rate(dist, params)


@dataclass(frozen=True)
class ReachProfile:
    """One from-rest band leg in closed form (harmonic half cycle + clamp).

    ``target`` and ``unit`` (start -> target direction) are plain float
    triples; the trial runner packs them into the compiled kernel's leg
    table, whose ``leg_position`` repeats :meth:`position`.
    """

    target: tuple
    unit: tuple
    t0: float
    dist: float
    omega: float
    duration: float

    @classmethod
    def from_rest(cls, start, target, params: BandParams, t0: float) -> "ReachProfile":
        start = np.asarray(start, dtype=float)
        target = np.asarray(target, dtype=float)
        dist = float(np.linalg.norm(target - start))
        if dist <= 1e-12:
            return cls(tuple(map(float, target)), (0.0, 0.0, 0.0), t0, 0.0, 0.0, 0.0)
        return cls(
            tuple(map(float, target)), tuple(map(float, (target - start) / dist)),
            t0, dist, _half_cycle_rate(dist, params), reach_duration(dist, params),
        )

    def position(self, t: float) -> tuple:
        """Planned position ``(x, y, z)`` at absolute time t.

        Before ``t0`` the leg holds its start point; from ``t0 + duration``
        on (at once for a degenerate leg) it is clamped to the target.
        """
        rel = t - self.t0
        if rel >= self.duration:
            return self.target
        if rel < 0.0:
            rel = 0.0
        rem = 0.5 * self.dist * (1.0 + math.cos(self.omega * rel))
        gx, gy, gz = self.target
        ux, uy, uz = self.unit
        return gx - rem * ux, gy - rem * uy, gz - rem * uz

    def sample(self, t: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Planned (position, velocity, acceleration) at absolute time t."""
        pos = np.array(self.position(t))
        rel = max(t - self.t0, 0.0)
        if rel >= self.duration:
            return pos, np.zeros(3), np.zeros(3)
        half = 0.5 * self.dist
        speed = half * self.omega * math.sin(self.omega * rel)
        accel = half * self.omega**2 * math.cos(self.omega * rel)
        unit = np.array(self.unit)
        return pos, speed * unit, accel * unit


class ElasticBand:
    """Stateful desired-position generator stepped at a fixed rate.

    The band integrates its own point-mass dynamics under the branch force
    of its state ``(diverging, peak)``, so retargeting mid-flight keeps
    position and velocity continuous (only the acceleration jumps).  When
    the remaining distance drops inside ``arrival_tol`` the state snaps
    exactly onto the target and stays clamped there.
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
        self.diverging, self.peak = True, 0.0
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
        self.reach_stiffness = self.params.stiffness_for(dist)
        # the sampled touchdown can sit up to accel * dt^2 / 2 off the
        # target (tangent approach on a discrete grid), so the snap ball
        # must scale with the deceleration there or long reaches bounce
        touchdown_accel = self.reach_stiffness * dist / self.params.virtual_mass
        self.snap_tol = max(self.arrival_tol, touchdown_accel * self.dt**2)
        self.diverging, self.peak = False, dist
        self.arrived = False

    def _snap(self):
        self.pos = self.target.copy()
        self.vel = np.zeros(3)
        self.arrived = True

    def _accel(self, pos) -> np.ndarray:
        offset = self.target - pos
        dist = float(np.linalg.norm(offset))
        if dist < 1e-15:
            return np.zeros(3)
        force = branch_force(dist, self.reach_stiffness, self.diverging, self.peak)
        return force / self.params.virtual_mass / dist * offset

    def sample(self) -> PlanSample:
        """Current state as a plan sample (no time advance)."""
        acc = np.zeros(3) if self.arrived else self._accel(self.pos)
        return PlanSample(self.t, self.pos.copy(), self.vel.copy(), acc)

    def step(self) -> PlanSample:
        """Advance one tick and return the new sample."""
        if not self.arrived:
            def rhs(y, t):
                return y[1], self._accel(y[0])

            dist_prev = float(np.linalg.norm(self.target - self.pos))
            self.pos, self.vel = rk4_step(rhs, (self.pos, self.vel), self.t, self.dt)
            dist = float(np.linalg.norm(self.target - self.pos))
            if dist <= self.snap_tol:
                self._snap()
            else:
                self.diverging, self.peak = branch_step(
                    self.diverging, self.peak, dist, dist - dist_prev, self.snap_tol
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
