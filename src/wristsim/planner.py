"""Elastic-band reach planner.

Desired positions evolve as a unit-mass particle attracted to the target by
the impedance controller's convergence branch.  A reach released from rest
at distance d0 is then a single harmonic half cycle: a bell-shaped speed
profile that arrives at the target at rest after pi/omega seconds, with
omega^2 = 2 * stiffness / mass.  Choosing the band stiffness as
``mass * max_accel / d0`` caps the path acceleration at ``max_accel``
independently of reach length.

:class:`ReachProfile` is that from-rest leg in closed form, and each leg of
the trial kernel's plan is one of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ._rules import NULL_OR_POSITIVE, POSITIVE, check_fields, param


@dataclass(frozen=True)
class BandParams:
    """Virtual mass, acceleration budget and optional fixed stiffness.

    With ``stiffness=None`` each reach derives its own stiffness from the
    start distance so the acceleration peak equals ``max_accel``.
    """

    virtual_mass: float = param(POSITIVE, 1.0)
    max_accel: float = param(POSITIVE, 3.2)
    stiffness: Optional[float] = param(NULL_OR_POSITIVE, None)

    def __post_init__(self):
        check_fields(self)

    def stiffness_for(self, dist: float) -> float:
        """Band stiffness of a reach over ``dist``: the fixed override if
        set, else the stiffness whose stroke peaks at ``max_accel``."""
        if self.stiffness is not None:
            return self.stiffness
        # the half cycle's acceleration peaks at K * dist / mass
        if dist <= 0.0:
            raise ValueError("band is already at the target; no stiffness defined")
        return self.virtual_mass * self.max_accel / dist


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
