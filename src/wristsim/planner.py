"""Elastic-band reach planner.

Desired positions evolve as a particle of unit virtual mass attracted to the
target by the impedance controller's convergence branch.  A reach released
from rest at distance d0 is then a single harmonic half cycle: a
bell-shaped speed profile that arrives at the target at rest after
pi/omega seconds, with omega^2 = 2 * stiffness.  The band stiffness
``max_accel / d0`` caps the path acceleration at ``max_accel`` independently
of reach length, so omega = sqrt(2 * max_accel / d0).

:class:`ReachProfile` is that from-rest leg in closed form, and each leg of
the trial kernel's plan is one of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._rules import POSITIVE, ConfigError, check_fields, param


@dataclass(frozen=True)
class BandParams:
    """Acceleration budget: every reach peaks at ``max_accel`` (m/s^2)."""

    max_accel: float = param(POSITIVE, 3.2)

    def __post_init__(self):
        check_fields(self)


def _half_cycle_rate(dist: float, params: BandParams) -> float:
    """Angular rate omega = sqrt(2 K) of a from-rest reach over ``dist`` > 0,
    with the band stiffness K = ``max_accel / dist``.  A rate that underflows
    to 0 is refused: that reach would never arrive."""
    rate = math.sqrt(2.0 * (params.max_accel / dist))
    if rate == 0.0:
        raise ConfigError(f"max_accel: the reach over {dist:g} m at max_accel "
                          f"{params.max_accel:g} m/s^2 never arrives, as its rate underflows to 0")
    return rate


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
