"""Wrist pointing on a spherical joint: projection, impedance control, trials.

The package couples four pieces at a 1 kHz control rate: a reach planner
that moves the desired position to each target along a closed-form leg
with a bell-shaped speed profile, a spherical projection that turns those
positions into pointer orientations, a fractal impedance controller that
pulls the wrist toward them, and a rigid-body plant integrated with the
controller in the loop.  The experiments module
runs the clock-pointing protocol and extracts tracking, effort and
torsion-surface statistics from the result.
"""

from .rotations import (
    euler_xyz_from_quat,
    project_to_sphere,
    quat_from_euler_xyz,
)
from .dynamics import BodyModel, gravity_torque, integrate_step
from .planner import BandParams, reach_duration
from .experiments import (
    ClockTask,
    ParamSchedule,
    SimOptions,
    Trajectory,
    build_clock_schedule,
    build_retune_schedule,
    compute_metrics,
    extract_listing,
    fit_plane,
    pointer_intersection,
    run_trial,
)
from .config import Condition, ExperimentConfig, default_conditions, load_config
from .checks import run_checks

__version__ = "0.1.0"

__all__ = [
    "BandParams",
    "BodyModel",
    "ClockTask",
    "Condition",
    "ExperimentConfig",
    "ParamSchedule",
    "SimOptions",
    "Trajectory",
    "build_clock_schedule",
    "build_retune_schedule",
    "compute_metrics",
    "default_conditions",
    "euler_xyz_from_quat",
    "extract_listing",
    "fit_plane",
    "gravity_torque",
    "integrate_step",
    "load_config",
    "pointer_intersection",
    "project_to_sphere",
    "quat_from_euler_xyz",
    "reach_duration",
    "run_checks",
    "run_trial",
    "__version__",
]
