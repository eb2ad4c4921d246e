"""Experiment configuration: conditions, the whole config, and the YAML loader.

A config file is a YAML mapping; every section is optional and an empty
file reproduces the built-in defaults (the full eight-condition protocol).
A section's keys are its dataclass's fields, and each dataclass checks its
own values; the loader only maps the file onto them, rejecting unknown keys
and prefixing a field's error with its dotted path so typos fail loudly.

Conditions can be given explicitly under ``conditions:`` or generated as a
cartesian product under ``sweep:``; torsion is written in degrees in the
file (``torsion_deg``) and carried in radians internally.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from pathlib import Path

from ._rules import (BOOLEAN, NON_EMPTY_STRING, NON_NEGATIVE_INT, NUMBER, POSITIVE,
                     STRING, ConfigError, check_fields, param, rules)
from .dynamics import BodyModel
from .experiments import ClockTask, SimOptions
from .planner import BandParams


@dataclass(frozen=True)
class Condition:
    """One experiment to simulate and log.

    ``kind="clock"`` runs the full eight-target protocol at fixed stiffness
    and torsion; ``kind="retune"`` runs the single-target trial whose
    stiffness and torsion step mid-reach.
    """

    name: str = param(STRING)
    kind: str = param(STRING, "clock")
    gravity: bool = param(BOOLEAN, True)
    stiffness: float = param(POSITIVE, 10000.0)
    torsion: float = param(NUMBER, 0.0)

    def __post_init__(self):
        check_fields(self)
        # the name is the condition's folder under output_dir
        if (self.name in ("", ".", "..", "summary.json")
                or any(c in self.name for c in "/\\\0")):
            raise ConfigError(
                "name: must be one path component, not '', '.', '..' or "
                f"'summary.json', without '/', '\\' or NUL, got {self.name!r}"
            )
        if self.kind not in ("clock", "retune"):
            raise ConfigError(f"kind: must be 'clock' or 'retune', got {self.kind!r}")


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
    output_dir: str = param(NON_EMPTY_STRING, "results")
    seed: int = param(NON_NEGATIVE_INT, 0)

    def __post_init__(self):
        check_fields(self)
        names = [c.name for c in self.conditions]
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise ConfigError(f"duplicate condition names: {', '.join(dupes)}")

    def condition(self, name: str) -> Condition:
        for cond in self.conditions:
            if cond.name == name:
                return cond
        known = ", ".join(c.name for c in self.conditions)
        raise ConfigError(f"unknown condition {name!r}; known: {known}")


_SECTIONS = {"body": BodyModel, "band": BandParams, "task": ClockTask, "sim": SimOptions}
# a condition's YAML keys: its fields, with the torsion written in degrees
_CONDITION_KEYS = {f.name for f in fields(Condition)} - {"torsion"} | {"torsion_deg"}
_LEAF_RULES = {**rules(Condition), "torsion_deg": NUMBER}


def _require_mapping(node, path):
    if not isinstance(node, dict):
        raise ConfigError(f"{path}: expected a mapping, got {type(node).__name__}")


def _check_keys(node, allowed, path):
    for key in node:
        if key not in allowed:
            raise ConfigError(f"unknown key '{path}{key}'")


def _build(cls, kwargs, path):
    """``cls(**kwargs)``, with the dotted ``path`` prepended to a field's error."""
    try:
        return cls(**kwargs)
    except ConfigError as exc:
        raise ConfigError(f"{path}{exc}") from None


def _parse_condition(node, index):
    path = f"conditions[{index}]."
    _require_mapping(node, path.rstrip("."))
    _check_keys(node, _CONDITION_KEYS, path)
    if "name" not in node:
        raise ConfigError(f"{path}name: required")
    kwargs = dict(node)
    if "torsion_deg" in kwargs:
        _LEAF_RULES["torsion_deg"].check(kwargs["torsion_deg"], path + "torsion_deg")
        kwargs["torsion"] = math.radians(kwargs.pop("torsion_deg"))
    cond = _build(Condition, kwargs, path)
    for key in ("stiffness", "torsion_deg"):
        if key in node and cond.kind == "retune":
            raise ConfigError(f"{path}{key}: a retune condition runs its fixed schedule")
    return cond


def _expand_sweep(node):
    _require_mapping(node, "sweep")
    _check_keys(node, ("gravity", "stiffness", "torsion_deg"), "sweep.")
    axes = {"gravity": [True], "stiffness": [10000.0], "torsion_deg": [0.0], **node}
    for key, values in axes.items():
        if not isinstance(values, (list, tuple)) or not values:
            raise ConfigError(f"sweep.{key}: expected a non-empty list")
        for j, value in enumerate(values):
            _LEAF_RULES[key].check(value, f"sweep.{key}[{j}]")
    out = []
    for gravity in axes["gravity"]:
        for torsion_deg in axes["torsion_deg"]:
            for stiffness in axes["stiffness"]:
                torsion = math.radians(float(torsion_deg))
                out.append(
                    Condition(
                        _condition_name(gravity, float(stiffness), torsion),
                        gravity=gravity,
                        stiffness=float(stiffness),
                        torsion=torsion,
                    )
                )
    return out


def load_config(path) -> ExperimentConfig:
    """Read a config file onto the dataclasses; empty file means all defaults."""
    import yaml  # here, not at the top: a run without a file never needs it

    text = Path(path).read_text()
    try:
        raw = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: not valid YAML: {exc}") from exc
    if raw is None:
        return ExperimentConfig()
    _require_mapping(raw, str(path))
    _check_keys(raw, {f.name for f in fields(ExperimentConfig)} | {"sweep"}, "")

    kwargs = {}
    for name, cls in _SECTIONS.items():
        if name in raw:
            _require_mapping(raw[name], name)
            _check_keys(raw[name], {f.name for f in fields(cls)}, f"{name}.")
            kwargs[name] = _build(cls, raw[name], f"{name}.")
    if "conditions" in raw and "sweep" in raw:
        raise ConfigError("give either 'conditions' or 'sweep', not both")
    if "conditions" in raw:
        if not isinstance(raw["conditions"], list) or not raw["conditions"]:
            raise ConfigError("conditions: expected a non-empty list")
        kwargs["conditions"] = tuple(
            _parse_condition(c, i) for i, c in enumerate(raw["conditions"]))
    elif "sweep" in raw:
        kwargs["conditions"] = tuple(_expand_sweep(raw["sweep"]))
    kwargs.update((key, raw[key]) for key in ("output_dir", "seed") if key in raw)
    return ExperimentConfig(**kwargs)
