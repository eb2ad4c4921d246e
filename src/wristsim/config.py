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
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path

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
        # the name is the condition's folder under output_dir
        if (self.name in ("", ".", "..", "summary.json")
                or any(c in self.name for c in "/\\\0")):
            raise ConfigError(
                f"condition {self.name!r}: name must be one path component, "
                "not '', '.', '..' or 'summary.json', without '/', '\\' or NUL"
            )
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


def _require_mapping(node, path):
    if not isinstance(node, dict):
        raise ConfigError(f"{path}: expected a mapping, got {type(node).__name__}")


def _check_keys(node, allowed, path):
    for key in node:
        if key not in allowed:
            raise ConfigError(f"unknown key '{path}{key}'")


def _is_int(value):
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value):
    """An int or float whose float value is finite; bools are not numbers."""
    # compares exactly, so inf, nan and ints past the float range all fail
    return (_is_int(value) or isinstance(value, float)) and abs(value) <= sys.float_info.max


# leaf rules: (test, what the message says when the test fails)
_POSITIVE = (lambda v: _is_number(v) and v > 0, "must be a positive number")
_NON_NEGATIVE = (lambda v: _is_number(v) and v >= 0, "must be a non-negative number")
_COUNT = (lambda v: _is_int(v) and v > 0, "must be a positive integer")
_VECTOR = (
    lambda v: isinstance(v, (list, tuple)) and len(v) == 3 and all(map(_is_number, v)),
    "expected a 3-vector of numbers",
)
_NUMBER = (_is_number, "expected a number")

# each section: the dataclass it builds and the rule for each of its keys
_SECTIONS = {
    "body": (BodyModel, {
        "mass": _POSITIVE, "length": _POSITIVE, "width": _POSITIVE,
        "thickness": _POSITIVE, "com_offset": _VECTOR, "gravity": _VECTOR,
    }),
    "band": (BandParams, {
        "virtual_mass": _POSITIVE, "max_accel": _POSITIVE,
        "stiffness": (lambda v: v is None or _POSITIVE[0](v),
                      "must be null or a positive number"),
    }),
    "task": (ClockTask, {
        "plane_distance": _POSITIVE, "radius": _POSITIVE,
        "n_targets": _COUNT, "dwell": _NON_NEGATIVE,
    }),
    "sim": (SimOptions, {"dt": _POSITIVE, "substeps": _COUNT}),
}

# condition and sweep-entry leaves
_CONDITION_LEAVES = {
    "name": (lambda v: isinstance(v, str), "expected a string"),
    "gravity": (lambda v: isinstance(v, bool), "expected a boolean"),
    "stiffness": _NUMBER,
    "torsion_deg": _NUMBER,
}
_CONDITION_KEYS = {"kind", *_CONDITION_LEAVES}
_SWEEP_KEYS = {"gravity", "stiffness", "torsion_deg"}

_TOP_LEAVES = {
    "output_dir": (lambda v: isinstance(v, str) and bool(v), "expected a non-empty string"),
    "seed": (lambda v: _is_int(v) and v >= 0, "must be a non-negative integer"),
}
_TOP_KEYS = {*_SECTIONS, "conditions", "sweep", *_TOP_LEAVES}


def _check_leaf(rule, value, path):
    test, expected = rule
    if not test(value):
        raise ConfigError(f"{path}: {expected}, got {value!r}")


def _build_section(name, node):
    cls, leaves = _SECTIONS[name]
    _require_mapping(node, name)
    _check_keys(node, leaves, f"{name}.")
    for key, value in node.items():
        _check_leaf(leaves[key], value, f"{name}.{key}")
    try:
        return cls(**node)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"{name}: {exc}") from exc


def _parse_condition(node, index):
    path = f"conditions[{index}]."
    _require_mapping(node, path.rstrip("."))
    _check_keys(node, _CONDITION_KEYS, path)
    if "name" not in node:
        raise ConfigError(f"{path}name: required")
    for key, rule in _CONDITION_LEAVES.items():
        if key in node:
            _check_leaf(rule, node[key], path + key)
    for key in ("stiffness", "torsion_deg"):
        if key in node and node.get("kind") == "retune":
            raise ConfigError(f"{path}{key}: a retune condition runs its fixed schedule")
    kwargs = {k: v for k, v in node.items() if k != "torsion_deg"}
    if "torsion_deg" in node:
        kwargs["torsion"] = math.radians(float(node["torsion_deg"]))
    return Condition(**kwargs)


def _expand_sweep(node):
    path = "sweep."
    _require_mapping(node, "sweep")
    _check_keys(node, _SWEEP_KEYS, path)
    gravities = node.get("gravity", [True])
    stiffnesses = node.get("stiffness", [10000.0])
    torsions_deg = node.get("torsion_deg", [0.0])
    for key, values in (("gravity", gravities), ("stiffness", stiffnesses),
                        ("torsion_deg", torsions_deg)):
        if not isinstance(values, (list, tuple)) or not values:
            raise ConfigError(f"{path}{key}: expected a non-empty list")
        for j, value in enumerate(values):
            _check_leaf(_CONDITION_LEAVES[key], value, f"{path}{key}[{j}]")
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
    import yaml  # here, not at the top: a run without a file never needs it

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
    for name in _SECTIONS:
        if name in raw:
            cfg = replace(cfg, **{name: _build_section(name, raw[name])})
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
    for key, rule in _TOP_LEAVES.items():
        if key in raw:
            _check_leaf(rule, raw[key], key)
            cfg = replace(cfg, **{key: raw[key]})
    return cfg
