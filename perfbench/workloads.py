"""Workload generation and the output correctness gate of the benchmark.

``battery`` is the paper's fixed protocol (``wristsim run`` with built-in
defaults).  ``single`` and ``check`` are generated from the workload seed;
the program only ever sees the generated YAML file.

The ``single`` condition draws its stiffness log-uniformly and its torsion
uniformly, each from a fixed grid inside the stated range.  The grid keeps
the set of possible inputs finite, so ``reference.json`` holds digests and
metrics for every input a seed can produce.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import re
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE_PATH = HERE / "reference.json"

# metrics.json values must match the reference within this tolerance.  A
# change of arithmetic order alone moves them by at most ~1e-10 relative
# (measured by reordering the RK4 update of the kernel), so 1e-6 admits
# rounding-level changes and rejects any change of behaviour.
METRIC_RTOL = 1e-6
METRIC_ATOL = 1e-12

# log-uniform in [1000, 10000] N*m/rad and uniform in [-25, 0] degrees
STIFFNESS_GRID = tuple(round(1000.0 * 10.0 ** (i / 9.0), 1) for i in range(10))
TORSION_GRID_DEG = (0.0, -5.0, -10.0, -15.0, -20.0, -25.0)

CONDITION_FILES = (
    "trajectory.csv", "listing_measured.csv", "listing_desired.csv", "metrics.json",
)
CHECK_NAMES = (
    "torsion equivariance",
    "pointing consistency",
    "euler round trip",
    "integrator order",
    "quat norm drift",
)

WORKLOADS = ("battery", "single", "check")


@dataclass
class Workload:
    """One generated workload: the CLI arguments and what its run must produce."""

    name: str
    cli_args: list          # arguments after ``wristsim``; ``--out DIR`` is appended
    config_path: Path | None
    params: dict            # the generated parameters, for the result's notes
    reference: dict


def clock_params(stiffness: float, torsion_deg: float) -> dict:
    phi = f"N{-torsion_deg:g}" if torsion_deg < 0 else f"{torsion_deg:g}"
    return {
        "name": f"g_on_K{stiffness:g}_phi{phi}",
        "gravity": True,
        "stiffness": stiffness,
        "torsion_deg": torsion_deg,
    }


def single_params(seed: int) -> dict:
    rng = random.Random(seed)
    stiffness = STIFFNESS_GRID[rng.randrange(len(STIFFNESS_GRID))]
    torsion_deg = TORSION_GRID_DEG[rng.randrange(len(TORSION_GRID_DEG))]
    return clock_params(stiffness, torsion_deg)


def clock_yaml(params: dict, seed: int) -> str:
    return (
        f"# one clock condition generated from workload seed {seed}\n"
        "conditions:\n"
        f"  - name: {params['name']}\n"
        "    kind: clock\n"
        "    gravity: true\n"
        f"    stiffness: {params['stiffness']:.1f}\n"
        f"    torsion_deg: {params['torsion_deg']:.1f}\n"
        f"seed: {seed}\n"
    )


def single_yaml(seed: int) -> str:
    return clock_yaml(single_params(seed), seed)


def check_yaml(seed: int) -> str:
    return f"# invariant-suite config generated from workload seed {seed}\nseed: {seed}\n"


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())


def make_workload(name: str, seed: int, work_dir: Path, reference: dict) -> Workload:
    """Write the workload's generated config (if any) into ``work_dir``."""
    if name == "battery":
        return Workload(name, ["run"], None, {"config": "built-in defaults"},
                        reference["battery"])
    cfg = work_dir / f"{name}_seed{seed}.yaml"
    if name == "single":
        cfg.write_text(single_yaml(seed))
        params = single_params(seed)
        return Workload(name, ["run", str(cfg)], cfg, params,
                        reference["single"][params["name"]])
    if name == "check":
        cfg.write_text(check_yaml(seed))
        return Workload(name, ["run", str(cfg), "--check"], cfg, {"seed": seed},
                        {"checks": list(CHECK_NAMES)})
    raise ValueError(f"unknown workload {name!r}")


# ---------------------------------------------------------------------------
# correctness gate
# ---------------------------------------------------------------------------


@dataclass
class GateResult:
    attempted: int
    failed: int
    identical: bool = False
    output_bytes: int = 0
    output_files: int = 0
    problems: list = field(default_factory=list)


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def output_digests(out_dir: Path) -> dict:
    """SHA-256 of every file under ``out_dir``, keyed by relative path."""
    return {
        p.relative_to(out_dir).as_posix(): sha256_file(p)
        for p in sorted(out_dir.rglob("*")) if p.is_file()
    }


def _reject_constant(token):
    raise ValueError(f"non-finite value {token}")


def strict_json(path: Path):
    """Parse JSON, refusing the bare NaN/Infinity that ``json.dump`` can emit."""
    return json.loads(path.read_text(), parse_constant=_reject_constant)


def _flatten(value, prefix=""):
    if isinstance(value, dict):
        for key in sorted(value):
            yield from _flatten(value[key], f"{prefix}{key}.")
    else:
        yield prefix.rstrip("."), value


def metric_mismatches(got: dict, want: dict) -> list:
    """Keys whose values differ from the reference beyond the stated tolerance."""
    got_flat, want_flat = dict(_flatten(got)), dict(_flatten(want))
    bad = sorted(set(got_flat) ^ set(want_flat))
    for key in sorted(set(got_flat) & set(want_flat)):
        a, b = got_flat[key], want_flat[key]
        numeric = all(
            isinstance(v, (int, float)) and not isinstance(v, bool) for v in (a, b)
        )
        if numeric:
            if not (math.isfinite(a) and math.isclose(
                    a, b, rel_tol=METRIC_RTOL, abs_tol=METRIC_ATOL)):
                bad.append(key)
        elif a != b:
            bad.append(key)
    return bad


def _csv_problem(path: Path, rows: int | None) -> str | None:
    data = path.read_bytes().lower()
    if b"nan" in data or b"inf" in data:
        return f"{path.name}: non-finite value"
    lines = data.count(b"\n")
    if rows is not None and lines != rows + 1:
        return f"{path.name}: {lines - 1} rows, expected {rows}"
    return None


def gate_run_outputs(out_dir: Path, exit_code: int, reference: dict) -> GateResult:
    """Check a ``wristsim run`` output tree; one operation per condition."""
    conditions = reference["conditions"]
    res = GateResult(attempted=len(conditions), failed=0)
    files = [p for p in out_dir.rglob("*") if p.is_file()] if out_dir.is_dir() else []
    res.output_files = len(files)
    res.output_bytes = sum(p.stat().st_size for p in files)
    if exit_code != 0:
        res.failed = res.attempted
        res.problems.append(f"exit code {exit_code}")
        return res

    try:
        summary = strict_json(out_dir / "summary.json")
    except (OSError, ValueError) as exc:
        summary = None
        res.problems.append(f"summary.json: {exc}")
    if not (isinstance(summary, list) and len(summary) == len(conditions)):
        res.problems.append("summary.json does not list every condition in order")
        summary = [None] * len(conditions)
    for cond, entry in zip(conditions, summary):
        want = reference["metrics"][cond]
        problems = _condition_problems(out_dir / cond, want)
        if not isinstance(entry, dict) or metric_mismatches(entry, want):
            problems.append("summary.json entry outside tolerance")
        res.problems.extend(f"{cond}: {p}" for p in problems)
        res.failed += bool(problems)

    res.identical = output_digests(out_dir) == reference["files"]
    return res


def _condition_problems(cond_dir: Path, want: dict) -> list:
    problems = []
    for name in CONDITION_FILES:
        if not (cond_dir / name).is_file():
            problems.append(f"missing {name}")
    if problems:
        return problems
    try:
        metrics = strict_json(cond_dir / "metrics.json")
    except ValueError as exc:
        return [f"metrics.json: {exc}"]
    bad = metric_mismatches(metrics, want)
    if bad:
        problems.append(f"metrics outside tolerance: {', '.join(bad)}")
    samples = want.get("samples")
    for name in CONDITION_FILES[:3]:
        problem = _csv_problem(cond_dir / name, samples if name == "trajectory.csv" else None)
        if problem:
            problems.append(problem)
    return problems


_CHECK_LINE = re.compile(r"^\[(PASS|FAIL)\] ([^:]+): (.*)$")
_NON_FINITE = re.compile(r"\b(nan|inf)\b", re.IGNORECASE)


def gate_check_output(stdout: str, exit_code: int, reference: dict) -> GateResult:
    """Check ``wristsim run --check`` output; one operation per invariant check.

    The suite's inputs depend on the seed, so its pass bounds (stated in
    ``wristsim.checks``) are the reference here.
    """
    names = reference["checks"]
    res = GateResult(attempted=len(names), failed=0, identical=True)
    seen = {}
    for line in stdout.splitlines():
        m = _CHECK_LINE.match(line.strip())
        if m:
            seen[m.group(2)] = (m.group(1), m.group(3))
    for name in names:
        tag, detail = seen.get(name, (None, ""))
        if tag != "PASS" or _NON_FINITE.search(detail):
            res.failed += 1
            res.problems.append(f"{name}: {tag or 'missing'} {detail}".rstrip())
    if exit_code != 0 or f"{len(names)}/{len(names)} checks passed" not in stdout:
        res.problems.append(f"exit code {exit_code}")
        res.failed = res.attempted
    return res
