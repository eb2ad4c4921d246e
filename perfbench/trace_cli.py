"""Run the wristsim command line with timing wrappers around its layers.

Usage::

    PYTHONPATH=src python3 perfbench/trace_cli.py TRACE.json run [ARGS...]

The wrappers are installed from outside the package: every module-level
name in ``wristsim`` that is bound to one of the functions listed below is
replaced with a wrapper, so each call site sees it.  Layer calls become
spans (name, start, end, parent, run id); the per-sample functions, which
run more than 100k times per condition, are tallied as a count plus total
time under their parent span.  Everything is kept in memory and written to
TRACE.json when the command returns.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

perf_counter = time.perf_counter

# (module, attribute, span name); OPERATIONS below each open a new run id
SPANS = (
    ("cli", "run_and_emit", "cli.run_and_emit"),
    ("cli", "run_check_suite", "cli.run_check_suite"),
    ("cli", "emit_condition", "cli.emit_condition"),
    ("cli", "write_trajectory", "cli.write_trajectory"),
    ("cli", "write_listing", "cli.write_listing"),
    ("cli", "condition_metrics", "cli.condition_metrics"),
    ("config", "load_config", "config.load_config"),
    ("experiments", "build_clock_schedule", "experiments.build_clock_schedule"),
    ("experiments", "build_retune_schedule", "experiments.build_retune_schedule"),
    ("experiments", "run_trial", "experiments.run_trial"),
    ("experiments", "extract_listing", "experiments.extract_listing"),
    ("experiments", "compute_metrics", "experiments.compute_metrics"),
    ("experiments", "target_rmse", "experiments.target_rmse"),
    ("experiments", "fit_plane", "experiments.fit_plane"),
    ("checks", "check_torsion_equivariance", "checks.torsion_equivariance"),
    ("checks", "check_pointing_consistency", "checks.pointing_consistency"),
    ("checks", "check_euler_round_trip", "checks.euler_round_trip"),
    ("checks", "check_integrator_order", "checks.integrator_order"),
    ("checks", "check_quat_norm_drift", "checks.quat_norm_drift"),
)
OPERATIONS = {"cli.emit_condition"} | {name for _, _, name in SPANS if name.startswith("checks.")}

TALLIES = (
    ("rotations", "euler_xyz_from_quat", "rotations.euler_xyz_from_quat"),
    ("rotations", "project_to_sphere", "rotations.project_to_sphere"),
    ("dynamics", "gravity_torque", "dynamics.gravity_torque"),
    ("dynamics", "integrate_step", "dynamics.integrate_step"),
    ("experiments", "pointer_intersection", "experiments.pointer_intersection"),
    ("fic", "fic_torque_quat", "fic.fic_torque_quat"),
    ("fic", "torque_for_phase", "fic.torque_for_phase"),
    ("fic", "update_phase", "fic.update_phase"),
)
SCHEDULE_METHODS = ("stiffness_at", "torsion_at", "target_at")

CALLER_MODULES = (
    "cli", "config", "experiments", "checks", "dynamics", "fic", "planner", "rotations",
)


class Tracer:
    """In-memory span recorder; single-threaded, like the program it wraps."""

    def __init__(self):
        self.spans = []        # [name, start, end, parent, run, covered]
        self.tallies = {}      # (parent, name) -> [count, total, covered]
        self.counts = defaultdict(int)
        self._stack = []       # open frames: [owning span index, covered]

    def span(self, name, fn, after=None):
        spans, stack = self.spans, self._stack
        operation = name in OPERATIONS

        def wrapper(*args, **kwargs):
            parent = stack[-1][0] if stack else -1
            index = len(spans)
            run = index if operation else (spans[parent][4] if parent >= 0 else None)
            record = [name, 0.0, 0.0, parent, run, 0.0]
            spans.append(record)
            frame = [index, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                record[1], record[2], record[5] = start, end, frame[1]
                if stack:
                    stack[-1][1] += end - start
            if after is not None:
                after(self, result, args, kwargs)
            return result

        return wrapper

    def tally(self, name, fn):
        stack, tallies = self._stack, self.tallies

        def wrapper(*args, **kwargs):
            parent = stack[-1][0] if stack else -1
            frame = [parent, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                rec = tallies.get((parent, name))
                if rec is None:
                    rec = tallies[(parent, name)] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += elapsed
                rec[2] += frame[1]

        return wrapper

    def record(self, path):
        data = {
            "spans": self.spans,
            "tallies": [[p, n, *v] for (p, n), v in self.tallies.items()],
            "counts": dict(self.counts),
        }
        with open(path, "w") as fh:
            json.dump(data, fh)


def _count_trial(tracer, traj, args, kwargs):
    """Exact work counts of one trial; RHS evaluations are computed."""
    opts = args[4] if len(args) > 4 else kwargs.get("opts")
    if opts is None:
        from wristsim.experiments import SimOptions
        opts = SimOptions()
    steps = len(traj) - 1
    tracer.counts["experiments.samples"] += len(traj)
    if opts.method == "rk4":
        tracer.counts["experiments.rhs_evals"] += steps * opts.substeps * 4


def install(tracer):
    """Wrap every binding of the listed functions in the package's modules."""
    import importlib

    modules = {m: importlib.import_module(f"wristsim.{m}") for m in CALLER_MODULES}
    wrappers = {}
    for mod, attr, name in SPANS:
        fn = getattr(modules[mod], attr)
        after = _count_trial if attr == "run_trial" else None
        wrappers[id(fn)] = (fn, tracer.span(name, fn, after))
    for mod, attr, name in TALLIES:
        fn = getattr(modules[mod], attr)
        wrappers[id(fn)] = (fn, tracer.tally(name, fn))
    for module in modules.values():
        for attr, value in list(vars(module).items()):
            hit = wrappers.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, attr, hit[1])
    schedule = modules["experiments"].ParamSchedule
    for attr in SCHEDULE_METHODS:
        setattr(schedule, attr, tracer.tally(f"experiments.ParamSchedule.{attr}",
                                            getattr(schedule, attr)))


def main(argv):
    trace_path, cli_argv = argv[0], argv[1:]
    tracer = Tracer()
    start = perf_counter()
    import wristsim.cli as cli
    tracer.spans.append(["cli.import", start, perf_counter(), -1, None, 0.0])
    install(tracer)
    code = tracer.span("cli.main", cli.main)(cli_argv)
    tracer.record(trace_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
