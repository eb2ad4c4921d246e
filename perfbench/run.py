"""Benchmark of the wristsim command line, run as a user runs it.

Usage::

    python3 perfbench/run.py --workload {battery,single,check} --seed N \
        --seconds S --trace {0,1}

Load model: a closed loop with one client.  One CLI process is launched,
waited for, its outputs are checked and deleted, and only then is the next
one launched.  All times are host wall-clock seconds.

``--trace 0`` reports the end-to-end metrics: ``wall_s`` (median launch to
exit), ``setup_s`` (median of several launches that import ``wristsim.cli``
and build or load the config, then exit), ``peak_rss_mb`` and ``ok_frac``
(1 - failed/attempted operations).  ``--trace 1`` alternates an untraced
launch with one under ``trace_cli.py`` and reports per-layer metrics named
after the package modules.  The last stdout line is the result object; the
line before it holds provenance and the per-layer self-time breakdown.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

import trace_cli  # sibling modules: this directory is on sys.path
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

SETUP_REPS = 15
# every run ends well inside the 180 s a run may take
BUDGET_S = 165.0
SETUP_PROBE = (
    "import sys\n"
    "from wristsim.cli import ExperimentConfig, load_config\n"
    "cfg = load_config(sys.argv[1]) if sys.argv[1] else ExperimentConfig()\n"
)

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "ok_frac": "frac"}


@dataclass
class Launch:
    code: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    log: Path


class Bench:
    def __init__(self, workload, seconds, tmp):
        self.wl = workload
        self.seconds = seconds
        self.tmp = tmp
        self.t0 = time.monotonic()
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
        )
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.launches = 0

    def elapsed(self):
        return time.monotonic() - self.t0

    def launch(self, argv) -> Launch:
        """Run one process to exit; its rusage covers its waited-for children."""
        self.launches += 1
        log = self.tmp / f"launch{self.launches}.log"
        timeout = max(1.0, BUDGET_S - self.elapsed())
        with open(log, "wb") as out:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.tmp, env=self.env,
                                    stdout=out, stderr=subprocess.STDOUT)
            timer = threading.Timer(timeout, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Launch(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                      usage.ru_maxrss / 1024.0, log)

    def cli(self, out_dir, traced_to=None) -> Launch:
        prefix = [sys.executable]
        prefix += [str(HERE / "trace_cli.py"), str(traced_to)] if traced_to else ["-m", "wristsim"]
        return self.launch(prefix + self.wl.cli_args + ["--out", str(out_dir)])

    def gate(self, run: Launch, out_dir) -> workloads.GateResult:
        if self.wl.name == "check":
            res = workloads.gate_check_output(run.log.read_text(), run.code, self.wl.reference)
        else:
            res = workloads.gate_run_outputs(out_dir, run.code, self.wl.reference)
        self.attempted += res.attempted
        self.failed += res.failed
        if res.problems:
            tail = run.log.read_text().strip().splitlines()[-3:]
            self.problems.extend(res.problems + tail)
        return res

    def checked_run(self, traced_to=None):
        """One launch into a fresh output directory, gated, then deleted."""
        out_dir = Path(tempfile.mkdtemp(prefix="out", dir=self.tmp))
        try:
            run = self.cli(out_dir, traced_to)
            return run, self.gate(run, out_dir)
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)

    def keep_going(self, durations):
        """Repeat for the run length; never start what cannot end in budget."""
        if not durations:
            return True
        return (self.elapsed() < self.seconds
                and self.elapsed() + max(durations) < BUDGET_S)

    def setup_times(self):
        cfg = str(self.wl.config_path or "")
        argv = [sys.executable, "-c", SETUP_PROBE, cfg]
        times = []
        for i in range(SETUP_REPS + 1):
            run = self.launch(argv)
            if run.code != 0:
                self.problems.append(f"setup probe exit code {run.code}")
                self.problems.extend(run.log.read_text().strip().splitlines()[-3:])
                break
            if i:  # the first launch warms the bytecode and page caches
                times.append(run.wall_s)
        return times

    def timed(self):
        setup = self.setup_times()
        start = time.monotonic()
        walls, rss, durations = [], [], []
        while self.keep_going(durations):
            t = time.monotonic()
            run, _ = self.checked_run()
            walls.append(run.wall_s)
            rss.append(run.rss_mb)
            durations.append(time.monotonic() - t)
        metrics = {
            "wall_s": statistics.median(walls),
            "peak_rss_mb": statistics.median(rss),
            "ok_frac": 1.0 - self.failed / self.attempted,
        }
        if setup:
            metrics["setup_s"] = statistics.median(setup)
        info = {
            "wall_s_samples": len(walls),
            "wall_s_all": walls,
            "setup_s_samples": len(setup),
            "measured_s": time.monotonic() - start,
        }
        return metrics, info

    def traced(self):
        trace_path = self.tmp / "trace.json"
        pairs, durations = [], []
        while self.keep_going(durations):
            t = time.monotonic()
            plain, plain_gate = self.checked_run()
            trace_path.unlink(missing_ok=True)
            traced, traced_gate = self.checked_run(traced_to=trace_path)
            durations.append(time.monotonic() - t)
            try:
                trace = json.loads(trace_path.read_text())
            except (OSError, ValueError) as exc:
                self.problems.append(f"trace not written: {exc}")
                break
            layers = layer_metrics(trace, traced.wall_s)
            layers.update({
                "cli.output_bytes": plain_gate.output_bytes,
                "cli.output_files": plain_gate.output_files,
                "cli.outputs_identical": float(plain_gate.identical and traced_gate.identical),
                "process.cpu_s": plain.cpu_s,
                "process.cpu_util": plain.cpu_s / plain.wall_s,
            })
            pairs.append((plain.wall_s, traced.wall_s, layers, trace))
        if not pairs:
            return {}, {}
        WORK.mkdir(exist_ok=True)
        shutil.copyfile(trace_path, WORK / f"trace_{self.wl.name}.json")

        metrics = {}
        for key in pairs[0][2]:
            values = [p[2][key] for p in pairs]
            if key in COUNT_METRICS:
                if len(set(values)) != 1:
                    self.problems.append(f"{key} does not repeat exactly: {values}")
                metrics[key] = values[0]
            else:
                metrics[key] = statistics.median(values)
        plain_wall = statistics.median(p[0] for p in pairs)
        traced_wall = statistics.median(p[1] for p in pairs)
        metrics["trace.overhead_frac"] = traced_wall / plain_wall - 1.0
        _, last_traced, _, last_trace = pairs[-1]
        info = {
            "pairs": len(pairs),
            "last_traced_wall_s": last_traced,
            "self_time_s": self_times(last_trace, last_traced),
        }
        return metrics, info


# ---------------------------------------------------------------------------
# per-layer metrics from a trace
# ---------------------------------------------------------------------------

PER_LAYER_UNITS = {
    "experiments.run_trial_s": "s",
    "experiments.integrate_s": "s",
    "experiments.rhs_evals": "count",
    "experiments.ns_per_rhs": "ns",
    "experiments.samples": "count",
    "experiments.schedule_s": "s",
    "experiments.postproc_s": "s",
    "experiments.postproc_calls": "count",
    "experiments.listing_s": "s",
    "experiments.listing_calls": "count",
    "experiments.metrics_s": "s",
    "rotations.euler_s": "s",
    "rotations.euler_calls": "count",
    "rotations.project_s": "s",
    "rotations.project_calls": "count",
    "dynamics.integrate_step_s": "s",
    "dynamics.integrate_step_calls": "count",
    "dynamics.gravity_torque_calls": "count",
    "fic.calls": "count",
    "config.load_s": "s",
    "cli.import_s": "s",
    "cli.write_s": "s",
    "cli.condition_metrics_s": "s",
    "cli.output_bytes": "bytes",
    "cli.output_files": "count",
    "cli.outputs_identical": "bool",
    "checks.torsion_equivariance_s": "s",
    "checks.pointing_consistency_s": "s",
    "checks.euler_round_trip_s": "s",
    "checks.integrator_order_s": "s",
    "checks.quat_norm_drift_s": "s",
    "process.cpu_s": "s",
    "process.cpu_util": "ratio",
    "trace.wall_s": "s",
    "trace.unattributed_s": "s",
    "trace.overhead_frac": "frac",
}
COUNT_METRICS = {k for k, unit in PER_LAYER_UNITS.items() if unit in ("count", "bytes")}
POSTPROC = ("dynamics.gravity_torque", "experiments.pointer_intersection")
SCHEDULE_STREAMS = tuple(f"experiments.ParamSchedule.{m}" for m in trace_cli.SCHEDULE_METHODS)
CHECKS = tuple(name for _, _, name in trace_cli.SPANS if name.startswith("checks."))


def _totals(trace):
    """Inclusive time, self time and calls per span or tally name."""
    incl, self_t, calls = defaultdict(float), defaultdict(float), defaultdict(int)
    for name, start, end, _parent, _run, covered in trace["spans"]:
        incl[name] += end - start
        self_t[name] += end - start - covered
        calls[name] += 1
    for _parent, name, count, total, covered in trace["tallies"]:
        incl[name] += total
        self_t[name] += total - covered
        calls[name] += count
    return incl, self_t, calls


def layer_metrics(trace, traced_wall):
    incl, _, calls = _totals(trace)
    spans = trace["spans"]
    trials = {i for i, s in enumerate(spans) if s[0] == "experiments.run_trial"}
    in_trial_s, in_trial_calls = defaultdict(float), defaultdict(int)
    for parent, name, count, total, _covered in trace["tallies"]:
        if parent in trials:
            in_trial_s[name] += total
            in_trial_calls[name] += count
    postproc_s = sum(in_trial_s[n] for n in POSTPROC)
    integrate_s = incl["experiments.run_trial"] - postproc_s - sum(
        in_trial_s[n] for n in SCHEDULE_STREAMS)
    rhs = trace["counts"].get("experiments.rhs_evals", 0)
    top_level = sum(end - start for _, start, end, parent, *_ in spans if parent < 0)
    m = {
        "experiments.run_trial_s": incl["experiments.run_trial"],
        "experiments.integrate_s": integrate_s,
        "experiments.rhs_evals": rhs,
        "experiments.ns_per_rhs": integrate_s / rhs * 1e9 if rhs else 0.0,
        "experiments.samples": trace["counts"].get("experiments.samples", 0),
        "experiments.schedule_s": incl["experiments.build_clock_schedule"]
        + incl["experiments.build_retune_schedule"]
        + sum(incl[n] for n in SCHEDULE_STREAMS),
        "experiments.postproc_s": postproc_s,
        "experiments.postproc_calls": sum(in_trial_calls[n] for n in POSTPROC),
        "experiments.listing_s": incl["experiments.extract_listing"],
        "experiments.listing_calls": calls["experiments.extract_listing"],
        "experiments.metrics_s": incl["experiments.compute_metrics"]
        + incl["experiments.target_rmse"] + incl["experiments.fit_plane"],
        "rotations.euler_s": incl["rotations.euler_xyz_from_quat"],
        "rotations.euler_calls": calls["rotations.euler_xyz_from_quat"],
        "rotations.project_s": incl["rotations.project_to_sphere"],
        "rotations.project_calls": calls["rotations.project_to_sphere"],
        "dynamics.integrate_step_s": incl["dynamics.integrate_step"],
        "dynamics.integrate_step_calls": calls["dynamics.integrate_step"],
        "dynamics.gravity_torque_calls": calls["dynamics.gravity_torque"],
        "fic.calls": sum(calls[n] for n in calls if n.startswith("fic.")),
        "config.load_s": incl["config.load_config"],
        "cli.import_s": incl["cli.import"],
        "cli.write_s": incl["cli.write_trajectory"] + incl["cli.write_listing"],
        "cli.condition_metrics_s": incl["cli.condition_metrics"],
        "trace.wall_s": traced_wall,
        "trace.unattributed_s": traced_wall - top_level,
    }
    for check in CHECKS:
        m[f"{check}_s"] = incl[check]
    return m


def self_times(trace, traced_wall):
    """Self time per layer name; with the remainder they sum to the wall time."""
    _, self_t, calls = _totals(trace)
    table = {n: {"calls": calls[n], "self_s": round(self_t[n], 6)}
             for n in sorted(self_t, key=self_t.get, reverse=True)}
    attributed = sum(self_t.values())
    table["(unattributed)"] = {"calls": 0, "self_s": round(traced_wall - attributed, 6)}
    return table


# ---------------------------------------------------------------------------
# provenance and entry point
# ---------------------------------------------------------------------------


def provenance():
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = "not a git checkout"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or commit
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "loadavg_before": os.getloadavg(),
        "notes": "host wall-clock times; output files go through the page cache; "
                 "no machine setting is changed",
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "wristsim" / "cli.py").is_file():
        print(f"perfbench: no wristsim sources under {SRC}", file=sys.stderr)
        return 2
    reference = workloads.load_reference()
    info = provenance()
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="run", dir=WORK) as tmp:
        wl = workloads.make_workload(args.workload, args.seed, Path(tmp), reference)
        bench = Bench(wl, args.seconds, Path(tmp))
        metrics, run_info = bench.traced() if args.trace else bench.timed()
    info.update(run_info)
    info.update({
        "workload": wl.name,
        "seed": args.seed,
        "params": wl.params,
        "loadavg_after": os.getloadavg(),
        "problems": bench.problems[:40],
    })
    units = END_TO_END_UNITS if not args.trace else PER_LAYER_UNITS
    result = {
        "correct": bench.failed == 0 and not bench.problems and bench.attempted > 0,
        "attempted": max(bench.attempted, 1),
        "failed": bench.failed if bench.attempted else 1,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units if k in metrics},
    }
    print("perfbench-info " + json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
