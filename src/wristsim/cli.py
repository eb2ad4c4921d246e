"""Command-line surface: run configured experiments, emit logs and metrics.

Per condition the runner writes into ``<output_dir>/<condition>/``:

* ``trajectory.csv`` — one row per 1 ms sample, header names the columns
  with unit suffixes (SI throughout),
* ``metrics.json`` — scalar summary (RMSE, effort, plane fits; a plane fit
  is ``null`` when its surface does not span a plane),
* ``listing_measured.csv`` / ``listing_desired.csv`` — Euler point clouds
  in degrees (the one non-SI output, matching how such surfaces are
  usually plotted), columns 1, 2 and 0 of the surface's angle table.

A cross-condition ``summary.json`` lands next to the condition folders.
Fixed-step runs are deterministic, so repeated runs of the same config
produce byte-identical files.  Each of a condition's CSVs is written whole
(checked, opened, written and closed) by one job on a one-worker
:class:`~concurrent.futures.ThreadPoolExecutor` while the next condition is
simulated; every other step runs on the calling thread.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from ._kernel import write_rows
from .checks import run_checks
from .config import Condition, ConfigError, ExperimentConfig, load_config
from .experiments import (
    Trajectory,
    build_clock_schedule,
    build_retune_schedule,
    compute_metrics,
    extract_listing,
    fit_plane,
    run_trial,
    target_rmse,
)

if TYPE_CHECKING:
    from concurrent.futures import Executor, Future

TRAJECTORY_COLUMNS = (
    "t_s",
    "xd_x_m", "xd_y_m", "xd_z_m",
    "qd_w", "qd_x", "qd_y", "qd_z",
    "q_w", "q_x", "q_y", "q_z",
    "omega_x_rad_s", "omega_y_rad_s", "omega_z_rad_s",
    "tau_c_x_Nm", "tau_c_y_Nm", "tau_c_z_Nm",
    "tau_g_x_Nm", "tau_g_y_Nm", "tau_g_z_Nm",
    "x_x_m", "x_y_m", "x_z_m",
)

LISTING_COLUMNS = ("theta_y_deg", "theta_z_deg", "theta_x_deg")


def condition_schedule(cond: Condition, cfg: ExperimentConfig):
    if cond.kind == "retune":
        return build_retune_schedule()
    return build_clock_schedule(
        cfg.task, cfg.band, stiffness=cond.stiffness, torsion=cond.torsion,
    )


def simulate_condition(cond: Condition, cfg: ExperimentConfig):
    schedule = condition_schedule(cond, cfg)
    body = cfg.body if cond.gravity else replace(cfg.body, gravity=(0.0, 0.0, 0.0))
    return run_trial(schedule, cfg.task, body, cfg.band, cfg.sim)


def write_csv(path: Path, header, columns) -> None:
    """Write ``columns`` (arrays of shape (n,) or (n, m)) side by side under
    a header line of ``header``, each value as ``%.17g``.  Columns with a
    value that is not finite are refused before the file is opened."""
    bad = np.zeros(len(columns[0]), dtype=bool)
    for col in columns:
        finite = np.isfinite(col)
        bad |= ~(finite.all(axis=1) if finite.ndim == 2 else finite)
    if bad.any():
        raise ValueError(
            f"{path}: row {int(np.argmax(bad))} holds a value that is not finite; "
            "nothing written"
        )
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode())
        write_rows(fh, columns)


def write_trajectory(path: Path, traj: Trajectory, writer: Executor) -> Future:
    columns = (
        traj.t, traj.plan_pos, traj.quat_des, traj.quat,
        traj.omega, traj.tau_cmd, traj.tau_grav, traj.pointer,
    )
    return writer.submit(write_csv, path, TRAJECTORY_COLUMNS, columns)


def write_listing(path: Path, table, writer: Executor) -> Future:
    # the job converts, so the degree copies exist only while it writes
    return writer.submit(
        lambda: write_csv(path, LISTING_COLUMNS, [np.degrees(table[:, i]) for i in (1, 2, 0)]))


def condition_metrics(cond: Condition, cfg, traj, measured, desired) -> dict:
    """Scalar summary of one condition; ``measured`` and ``desired`` are its
    two torsion-surface tables, extracted once by the caller."""
    out = {
        "condition": cond.name,
        "kind": cond.kind,
        "gravity": cond.gravity,
        "stiffness_Nm_rad": cond.stiffness if cond.kind == "clock" else None,
        "torsion_rad": cond.torsion if cond.kind == "clock" else None,
        "samples": len(traj),
        **compute_metrics(traj),
        **target_rmse(traj, cfg.task),
        "plane_fit": fit_plane(measured),
        "plane_fit_desired": fit_plane(desired),
    }
    if cond.kind == "retune":
        err = np.linalg.norm(traj.pointer[-1] - traj.plan_pos[-1])
        speed = np.linalg.norm(np.diff(traj.pointer, axis=0), axis=1) / np.diff(traj.t)
        out["final_pointer_error_m"] = float(err)
        out["peak_pointer_speed_m_s"] = float(speed.max())
    return out


def write_json(path: Path, data) -> None:
    # encode first: a non-finite value fails before the file is touched
    text = json.dumps(data, indent=2, sort_keys=True, allow_nan=False)
    path.write_text(text + "\n")


class ConditionError(Exception):
    """A failure while simulating, measuring or writing one condition: the
    message names the condition, and ``__cause__`` is the failure itself."""


@contextmanager
def failing_as(name: str):
    """Raise an error of the block as a :class:`ConditionError` of ``name``."""
    try:
        yield
    except Exception as exc:
        raise ConditionError(f"{name}: {exc}") from exc


def wait_for(jobs: list[tuple[str, Future]]) -> None:
    """Wait for each ``(condition name, CSV job)`` of ``jobs`` and empty the
    list; the first error raises as that condition's."""
    for name, job in jobs:
        with failing_as(name):
            job.result()
    jobs.clear()


def emit_condition(cond: Condition, cfg: ExperimentConfig, out_root: Path,
                   writer: Executor, jobs: list[tuple[str, Future]]) -> dict:
    """Simulate ``cond`` and write its four files.  ``jobs`` holds the
    previous condition's CSV jobs: they are waited for before ``cond``'s
    folder is made, and then replaced by the jobs that write its three CSVs
    on ``writer``.  Every error raises as a
    :class:`ConditionError` of the condition it belongs to."""
    with failing_as(cond.name):
        traj = simulate_condition(cond, cfg)
    wait_for(jobs)
    with failing_as(cond.name):
        cond_dir = out_root / cond.name
        cond_dir.mkdir(parents=True, exist_ok=True)
        jobs.append((cond.name, write_trajectory(cond_dir / "trajectory.csv", traj, writer)))
        measured, desired = extract_listing(traj.quat), extract_listing(traj.quat_des)
        for table, name in ((measured, "listing_measured.csv"),
                            (desired, "listing_desired.csv")):
            jobs.append((cond.name, write_listing(cond_dir / name, table, writer)))
        metrics = condition_metrics(cond, cfg, traj, measured, desired)
        write_json(cond_dir / "metrics.json", metrics)
    return metrics


def run_and_emit(cfg: ExperimentConfig, only: str | None = None) -> int:
    """Run the conditions in order.  Each condition's CSVs are written
    while the next one is simulated; a failure leaves every earlier
    condition's files complete and no ``summary.json``, not even a previous
    run's."""
    conditions = list(cfg.conditions)
    if only is not None:
        conditions = [cfg.condition(only)]
    out_root = Path(cfg.output_dir)
    out_root.mkdir(parents=True, exist_ok=True)
    (out_root / "summary.json").unlink(missing_ok=True)
    # here, not at the top: it imports logging, and --check writes no CSV
    from concurrent.futures import ThreadPoolExecutor

    summary, jobs = [], []
    with ThreadPoolExecutor(1, thread_name_prefix="wristsim-writer") as writer:
        try:
            for cond in conditions:
                metrics = emit_condition(cond, cfg, out_root, writer, jobs)
                summary.append(metrics)
                print(
                    f"{cond.name}: rmse_y={metrics['rmse_y_m'] * 1e3:.3f}mm "
                    f"rmse_z={metrics['rmse_z_m'] * 1e3:.3f}mm "
                    f"effort={metrics['effort_mean_Nm']:.3f}"
                    f"+-{metrics['effort_std_Nm']:.3f}Nm"
                )
        finally:
            wait_for(jobs)
    write_json(out_root / "summary.json", summary)
    return 0


def run_check_suite(seed: int) -> int:
    results = run_checks(seed)
    failed = 0
    for res in results:
        tag = "PASS" if res.passed else "FAIL"
        print(f"[{tag}] {res.name}: {res.detail}")
        failed += not res.passed
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wristsim",
        description="Impedance-controlled wrist pointing experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="simulate configured conditions")
    run_p.add_argument(
        "config", nargs="?", default=None,
        help="YAML config file (omitted: built-in defaults)",
    )
    what = run_p.add_mutually_exclusive_group()
    what.add_argument(
        "--check", action="store_true",
        help="run the invariant suite instead of simulating",
    )
    what.add_argument(
        "--condition", metavar="NAME", default=None,
        help="run a single named condition",
    )
    run_p.add_argument(
        "--out", metavar="DIR", default=None,
        help="override the configured output directory",
    )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config) if args.config else ExperimentConfig()
        if args.out is not None:
            cfg = replace(cfg, output_dir=args.out)
        if args.check:
            return run_check_suite(cfg.seed)
        return run_and_emit(cfg, only=args.condition)
    except Exception as exc:
        cause = exc.__cause__ if isinstance(exc, ConditionError) else exc
        if isinstance(cause, (ConfigError, OSError)):
            print(f"wristsim: {exc}", file=sys.stderr)
            return 2
        # simulation failure: report, nonzero exit
        print(f"wristsim: simulation failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
