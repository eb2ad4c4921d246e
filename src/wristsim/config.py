"""Experiment configuration: YAML parsing, validation, condition expansion.

A config file is a YAML mapping; every section is optional and an empty
file reproduces the built-in defaults (the full eight-condition protocol).
Unknown keys are rejected with their dotted path so typos fail loudly.

Conditions can be given explicitly under ``conditions:`` or generated as a
cartesian product under ``sweep:``; torsion is written in degrees in the
file (``torsion_deg``) and carried in radians internally.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Optional

import yaml

from .dynamics import BodyModel
from .experiments import ClockTask, SimOptions
from .planner import BandParams


class ConfigError(ValueError):
    """Malformed or invalid configuration; message names the offending key."""


@dataclass(frozen=True)
class Condition:
    """One experiment to simulate and log.

    ``kind="clock"`` runs the full eight-target protocol at fixed stiffness
    and torsion; ``kind="retune"`` runs the single-target trial whose
    stiffness and torsion step mid-reach.
    """

    name: str
    kind: str = "clock"
    gravity: bool = True
    stiffness: float = 10000.0
    torsion: float = 0.0

    def __post_init__(self):
        if self.kind not in ("clock", "retune"):
            raise ConfigError(
                f"condition {self.name!r}: kind must be 'clock' or 'retune', "
                f"got {self.kind!r}"
            )
        if not self.stiffness > 0.0:
            raise ConfigError(
                f"condition {self.name!r}: stiffness must be positive, "
                f"got {self.stiffness}"
            )


def _condition_name(gravity: bool, stiffness: float, torsion: float) -> str:
    phi_deg = round(math.degrees(torsion))
    phi = f"N{-phi_deg}" if phi_deg < 0 else f"{phi_deg}"
    return f"g_{'on' if gravity else 'off'}_K{round(stiffness)}_phi{phi}"


def default_conditions() -> list[Condition]:
    """The stock protocol: one online-retuning trial plus seven clock runs."""
    phi_neg = math.radians(-25.0)
    out = [
        Condition("online_single_target", kind="retune"),
        Condition("g_off_K10000_phi0", gravity=False),
    ]
    for torsion in (0.0, phi_neg):
        for k in (10000.0, 8000.0, 1000.0):
            out.append(
                Condition(_condition_name(True, k, torsion),
                          stiffness=k, torsion=torsion)
            )
    return out


@dataclass(frozen=True)
class ExperimentConfig:
    body: BodyModel = BodyModel()
    band: BandParams = BandParams()
    task: ClockTask = ClockTask()
    sim: SimOptions = SimOptions()
    conditions: tuple = field(default_factory=lambda: tuple(default_conditions()))
    output_dir: str = "results"
    seed: int = 0

    def condition(self, name: str) -> Condition:
        for cond in self.conditions:
            if cond.name == name:
                return cond
        known = ", ".join(c.name for c in self.conditions)
        raise ConfigError(f"unknown condition {name!r}; known: {known}")


_SCHEMA = {
    "body": {"mass", "length", "width", "thickness", "com_offset", "gravity"},
    "band": {"virtual_mass", "max_accel", "stiffness"},
    "task": {"plane_distance", "radius", "n_targets", "dwell"},
    "sim": {"dt", "substeps"},
    "conditions": {"name", "kind", "gravity", "stiffness", "torsion_deg"},
    "sweep": {"gravity", "stiffness", "torsion_deg"},
}
_TOP_KEYS = {"body", "band", "task", "sim", "conditions", "sweep",
             "output_dir", "seed"}


def _require_mapping(node, path):
    if not isinstance(node, dict):
        raise ConfigError(f"{path}: expected a mapping, got {type(node).__name__}")


def _check_keys(node, allowed, path):
    for key in node:
        if key not in allowed:
            raise ConfigError(f"unknown key '{path}{key}'")


def _is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_count(value):
    return isinstance(value, int) and not isinstance(value, bool) and value > 0


# expected type of each condition and sweep-entry leaf
_LEAF_TYPES = {
    "name": (lambda v: isinstance(v, str), "a string"),
    "gravity": (lambda v: isinstance(v, bool), "a boolean"),
    "stiffness": (_is_number, "a number"),
    "torsion_deg": (_is_number, "a number"),
}


def _check_leaf(key, value, path):
    test, expected = _LEAF_TYPES[key]
    if not test(value):
        raise ConfigError(f"{path}: expected {expected}, got {value!r}")


def _build_section(cls, node, path, positives=(), counts=(), vectors=()):
    _require_mapping(node, path.rstrip("."))
    _check_keys(node, _SCHEMA[path.rstrip(".")], path)
    for key in positives:
        if key in node and not (_is_number(node[key]) and node[key] > 0):
            raise ConfigError(
                f"{path}{key}: must be a positive number, got {node[key]!r}"
            )
    for key in counts:
        if key in node and not _is_count(node[key]):
            raise ConfigError(
                f"{path}{key}: must be a positive integer, got {node[key]!r}"
            )
    kwargs = {}
    for key, value in node.items():
        if key in vectors:
            if not (isinstance(value, (list, tuple)) and len(value) == 3):
                raise ConfigError(f"{path}{key}: expected a 3-vector, got {value!r}")
            value = tuple(float(v) for v in value)
        kwargs[key] = value
    try:
        return cls(**kwargs)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"{path.rstrip('.')}: {exc}") from exc


def _parse_condition(node, index):
    path = f"conditions[{index}]."
    _require_mapping(node, path.rstrip("."))
    _check_keys(node, _SCHEMA["conditions"], path)
    if "name" not in node:
        raise ConfigError(f"{path}name: required")
    for key in _LEAF_TYPES:
        if key in node:
            _check_leaf(key, node[key], path + key)
    kwargs = {k: v for k, v in node.items() if k != "torsion_deg"}
    if "torsion_deg" in node:
        kwargs["torsion"] = math.radians(float(node["torsion_deg"]))
    return Condition(**kwargs)


def _expand_sweep(node):
    path = "sweep."
    _require_mapping(node, "sweep")
    _check_keys(node, _SCHEMA["sweep"], path)
    gravities = node.get("gravity", [True])
    stiffnesses = node.get("stiffness", [10000.0])
    torsions_deg = node.get("torsion_deg", [0.0])
    for key, values in (("gravity", gravities), ("stiffness", stiffnesses),
                        ("torsion_deg", torsions_deg)):
        if not isinstance(values, (list, tuple)) or not values:
            raise ConfigError(f"{path}{key}: expected a non-empty list")
        for j, value in enumerate(values):
            _check_leaf(key, value, f"{path}{key}[{j}]")
    out = []
    for gravity in gravities:
        for torsion_deg in torsions_deg:
            for stiffness in stiffnesses:
                torsion = math.radians(float(torsion_deg))
                out.append(
                    Condition(
                        _condition_name(bool(gravity), float(stiffness), torsion),
                        gravity=bool(gravity),
                        stiffness=float(stiffness),
                        torsion=torsion,
                    )
                )
    return out


def load_config(path) -> ExperimentConfig:
    """Read and validate a config file; empty file means all defaults."""
    text = Path(path).read_text()
    try:
        raw = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: not valid YAML: {exc}") from exc
    if raw is None:
        return ExperimentConfig()
    _require_mapping(raw, str(path))
    _check_keys(raw, _TOP_KEYS, "")

    cfg = ExperimentConfig()
    if "body" in raw:
        body = _build_section(
            BodyModel, raw["body"], "body.",
            positives=("mass", "length", "width", "thickness"),
            vectors=("com_offset", "gravity"),
        )
        cfg = replace(cfg, body=body)
    if "band" in raw:
        band = _build_section(
            BandParams, raw["band"], "band.",
            positives=("virtual_mass", "max_accel"),
        )
        cfg = replace(cfg, band=band)
    if "task" in raw:
        task = _build_section(
            ClockTask, raw["task"], "task.",
            positives=("plane_distance", "radius", "dwell"),
            counts=("n_targets",),
        )
        cfg = replace(cfg, task=task)
    if "sim" in raw:
        sim = _build_section(
            SimOptions, raw["sim"], "sim.",
            positives=("dt",),
            counts=("substeps",),
        )
        cfg = replace(cfg, sim=sim)
    if "conditions" in raw and "sweep" in raw:
        raise ConfigError("give either 'conditions' or 'sweep', not both")
    if "conditions" in raw:
        if not isinstance(raw["conditions"], list) or not raw["conditions"]:
            raise ConfigError("conditions: expected a non-empty list")
        conds = [_parse_condition(c, i) for i, c in enumerate(raw["conditions"])]
        cfg = replace(cfg, conditions=tuple(conds))
    elif "sweep" in raw:
        cfg = replace(cfg, conditions=tuple(_expand_sweep(raw["sweep"])))
    names = [c.name for c in cfg.conditions]
    if len(set(names)) != len(names):
        dupes = sorted({n for n in names if names.count(n) > 1})
        raise ConfigError(f"duplicate condition names: {', '.join(dupes)}")
    if "output_dir" in raw:
        if not isinstance(raw["output_dir"], str) or not raw["output_dir"]:
            raise ConfigError("output_dir: expected a non-empty string")
        cfg = replace(cfg, output_dir=raw["output_dir"])
    if "seed" in raw:
        if not isinstance(raw["seed"], int):
            raise ConfigError(f"seed: expected an integer, got {raw['seed']!r}")
        cfg = replace(cfg, seed=raw["seed"])
    return cfg
