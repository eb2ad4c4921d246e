"""Record the reference outputs the benchmark's correctness gate compares with.

Usage::

    python3 perfbench/make_reference.py

Runs ``wristsim run`` on the default battery and on every point of the
``single`` grid, and writes ``perfbench/reference.json``: the SHA-256 of
every output file and the values of every ``metrics.json``.  Re-run it only
when a change to the outputs is intended, and state that change.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import workloads

ROOT = workloads.HERE.parent


def record(cli_args, work_dir: Path) -> dict:
    out_dir = Path(tempfile.mkdtemp(prefix="out", dir=work_dir))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    subprocess.run([sys.executable, "-m", "wristsim", *cli_args, "--out", str(out_dir)],
                   env=env, check=True, stdout=subprocess.DEVNULL)
    try:
        summary = workloads.strict_json(out_dir / "summary.json")
        return {
            "conditions": [m["condition"] for m in summary],
            "files": workloads.output_digests(out_dir),
            "metrics": {m["condition"]: m for m in summary},
        }
    finally:
        shutil.rmtree(out_dir)


def single_reference(params, work_dir: Path) -> dict:
    cfg = work_dir / f"{params['name']}.yaml"
    cfg.write_text(workloads.clock_yaml(params, 0))
    return record(["run", str(cfg)], work_dir)


def main():
    grid = [workloads.clock_params(k, phi)
            for k in workloads.STIFFNESS_GRID for phi in workloads.TORSION_GRID_DEG]
    (ROOT / ".perfbench").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / ".perfbench") as tmp:
        work = Path(tmp)
        with ThreadPoolExecutor(max_workers=2) as pool:
            battery = pool.submit(record, ["run"], work)
            singles = [pool.submit(single_reference, p, work) for p in grid]
            reference = {
                "battery": battery.result(),
                "single": {p["name"]: f.result() for p, f in zip(grid, singles)},
            }
    workloads.REFERENCE_PATH.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
