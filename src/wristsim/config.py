"""Experiment configuration: conditions, the whole config, and the YAML loader.

A config file is a YAML mapping; every section is optional and an empty
file reproduces the built-in defaults (the full eight-condition protocol).
A section's keys are its dataclass's fields, and each dataclass checks its
own values; the loader only maps the file onto them, rejecting unknown keys
and prefixing a field's error with its dotted path so typos fail loudly.
The file must be UTF-8, and a key given twice in one mapping is refused
with its line rather than letting the last one win.  Numbers are read as
YAML 1.2 reads them: ``1e-3`` is a float, ``010`` is ten, ``0o10`` and
``0x8`` are eight, and YAML 1.1's binary (``0b11``), sexagesimal (``1:30``)
and separated (``1_000``) forms are strings, which a number field refuses.
Booleans are YAML 1.2's too: ``true`` and ``false`` (or ``True``, ``TRUE``,
``False``, ``FALSE``), so YAML 1.1's ``yes``, ``no``, ``on`` and ``off`` are
strings, which a boolean field refuses and a name takes.

Conditions can be given explicitly under ``conditions:`` or generated as a
cartesian product under ``sweep:``; torsion is written in degrees in the
file (``torsion_deg``) and carried in radians internally.  A condition whose
trial would exceed :data:`MAX_SAMPLES` (in samples or in schedule legs) or
:data:`MAX_RHS_EVALS`, or would record fewer than two samples, is refused.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from ._rules import (BOOLEAN, NON_EMPTY_STRING, NON_NEGATIVE_INT, NUMBER, POSITIVE,
                     STRING, ConfigError, check_fields, param, rules)
from .dynamics import BodyModel
from .experiments import ClockTask, SimOptions, build_retune_schedule
from .planner import BandParams, reach_duration


@dataclass(frozen=True)
class Condition:
    """One experiment to simulate and log.

    ``kind="clock"`` runs the full eight-target protocol at fixed stiffness
    and torsion; ``kind="retune"`` runs the single-target trial whose
    stiffness and torsion step mid-reach, and refuses a stiffness or torsion
    other than the defaults.
    """

    name: str = param(STRING)
    kind: str = param(STRING, "clock")
    gravity: bool = param(BOOLEAN, True)
    stiffness: float = param(POSITIVE, 10000.0)
    torsion: float = param(NUMBER, 0.0)

    def __post_init__(self):
        check_fields(self)
        object.__setattr__(self, "stiffness", float(self.stiffness))
        object.__setattr__(self, "torsion", float(self.torsion))
        # the name is the condition's folder under output_dir
        if (self.name in ("", ".", "..", "summary.json")
                or any(c in self.name for c in "/\\\0")):
            raise ConfigError(
                "name: must be one path component, not '', '.', '..' or "
                f"'summary.json', without '/', '\\' or NUL, got {self.name!r}"
            )
        if self.kind not in ("clock", "retune"):
            raise ConfigError(f"kind: must be 'clock' or 'retune', got {self.kind!r}")
        if self.kind == "retune":
            for f in fields(self):
                if f.name in ("stiffness", "torsion") and getattr(self, f.name) != f.default:
                    raise ConfigError(f"{f.name}: a retune condition runs its fixed schedule")


def _condition_name(gravity: bool, stiffness: float, torsion: float) -> str:
    phi_deg = round(math.degrees(torsion))
    phi = f"N{-phi_deg}" if phi_deg < 0 else f"{phi_deg}"
    return f"g_{'on' if gravity else 'off'}_K{round(stiffness)}_phi{phi}"


def default_conditions() -> list[Condition]:
    """The stock protocol: one online-retuning trial plus seven clock runs,
    six of them a gravity-on sweep."""
    return [
        Condition("online_single_target", kind="retune"),
        Condition("g_off_K10000_phi0", gravity=False),
        *_expand_sweep({"stiffness": [10000.0, 8000.0, 1000.0], "torsion_deg": [0.0, -25.0]}),
    ]


#: the largest trial a condition may ask for: about 2,000 s at the default
#: 1 kHz (a peak of some 0.75 GB, at about 365 bytes per sample) and as many
#: schedule legs, and a few minutes of the kernel
MAX_SAMPLES = 2_000_000
MAX_RHS_EVALS = 1_000_000_000


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
        if not isinstance(self.conditions, (tuple, list)) or not self.conditions:
            raise ConfigError("conditions: expected a non-empty list")
        for i, cond in enumerate(self.conditions):
            if not isinstance(cond, Condition):
                raise ConfigError(f"conditions[{i}]: expected a Condition, got {cond!r}")
        object.__setattr__(self, "conditions", tuple(self.conditions))
        names = [c.name for c in self.conditions]
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise ConfigError(f"duplicate condition names: {', '.join(dupes)}")
        retune = [c.name for c in self.conditions if c.kind == "retune"]
        if retune:
            # the retune steps must land while the reach to target 0 is in flight
            sched = build_retune_schedule()
            last_step = max(sched.stiffness_breaks[-1][0], sched.torsion_breaks[-1][0])
            end = sched.target_breaks[0][0] + reach_duration(self.task.radius, self.band)
            if end <= last_step:
                raise ConfigError(
                    f"retune condition {retune[0]!r}: the reach to target 0 ends at "
                    f"{end:.3f} s, at or before the last stiffness/torsion step at "
                    f"{last_step:g} s; raise task.radius (now {self.task.radius:g} m) "
                    f"or lower band.max_accel (now {self.band.max_accel:g} m/s^2)"
                )
        clock = [c.name for c in self.conditions if c.kind == "clock"]
        if clock and not reach_duration(self.task.radius, self.band) + self.task.dwell > 0:
            # a reach whose rate overflows lasts 0 s: the schedule would be empty
            raise ConfigError(
                f"clock condition {clock[0]!r}: its legs take no time, as the reach of "
                f"task.radius ({self.task.radius:g} m) at band.max_accel "
                f"({self.band.max_accel:g} m/s^2) rounds to 0 s and task.dwell is 0; "
                f"raise task.radius or task.dwell, or lower band.max_accel"
            )
        # one sample has no motion to measure.  Refused after every condition's
        # cap: the cap's advice may be to raise sim.dt, this one's is to lower it
        short = []
        for cond in self.conditions:
            samples, evals = self.trial_size(cond)
            if samples < 2:
                short.append(cond.name)
            # two legs per clock target (retune: out and back), each built and
            # checked one by one, whatever sim.dt is
            legs = 2 * self.task.n_targets if cond.kind == "clock" else 2
            if max(samples, legs) > MAX_SAMPLES or evals > MAX_RHS_EVALS:
                raise ConfigError(
                    f"condition {cond.name!r} is too large to run: {samples:,.0f} samples, "
                    f"{legs:,} legs and {evals:,.0f} right-hand-side evaluations, where the "
                    f"cap is {MAX_SAMPLES:,} samples or legs and {MAX_RHS_EVALS:,} "
                    f"evaluations; lower "
                    f"task.n_targets (now {self.task.n_targets}), task.dwell (now "
                    f"{self.task.dwell:g} s) or sim.substeps (now {self.sim.substeps}), "
                    f"or raise sim.dt (now {self.sim.dt:g} s)"
                )
        if short:
            raise ConfigError(
                f"condition {short[0]!r} is too short to run: sim.dt (now {self.sim.dt:g} s) "
                f"leaves it 1 sample, where a trial needs at least 2; lower sim.dt"
            )

    def trial_size(self, cond: Condition) -> tuple[float, float]:
        """Samples and right-hand-side evaluations of ``cond``'s trial, from
        its schedule's duration; the clock schedule is not built, so a huge
        task is sized at once."""
        if cond.kind == "retune":
            duration = build_retune_schedule().duration
        else:  # build_clock_schedule's: two legs per target, a reach plus the dwell
            leg = reach_duration(self.task.radius, self.band) + self.task.dwell
            duration = 2 * self.task.n_targets * leg
        steps = float(np.rint(duration / self.sim.dt))  # run_trial's rounding, inf-safe
        return steps + 1, steps * self.sim.substeps * 4

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
# a sweep axis left out holds the one value of Condition's default
_SWEEP_DEFAULTS = {
    "gravity": [Condition.gravity],
    "stiffness": [Condition.stiffness],
    "torsion_deg": [math.degrees(Condition.torsion)],
}


def _require_mapping(node, path):
    if not isinstance(node, dict):
        raise ConfigError(f"{path}: expected a mapping, got {type(node).__name__}")


def _check_keys(node, allowed, path):
    for key in node:
        if key not in allowed:
            raise ConfigError(f"unknown key '{path}{key}'")


def _build(cls, kwargs, path):
    """``cls(**kwargs)``, with the dotted ``path`` prepended to each field an
    error names before its colon."""
    try:
        return cls(**kwargs)
    except ConfigError as exc:
        keys, colon, reason = str(exc).partition(": ")
        dotted = ", ".join(path + key for key in keys.split(", "))
        raise ConfigError(f"{dotted}{colon}{reason}") from None


def _parse_condition(node, index):
    path = f"conditions[{index}]."
    _require_mapping(node, path.rstrip("."))
    _check_keys(node, _CONDITION_KEYS, path)
    if "name" not in node:
        raise ConfigError(f"{path}name: required")
    for key in ("stiffness", "torsion_deg"):
        if key in node and node.get("kind") == "retune":
            raise ConfigError(f"{path}{key}: a retune condition runs its fixed schedule")
    kwargs = dict(node)
    if "torsion_deg" in kwargs:
        _LEAF_RULES["torsion_deg"].check(kwargs["torsion_deg"], path + "torsion_deg")
        kwargs["torsion"] = math.radians(kwargs.pop("torsion_deg"))
    return _build(Condition, kwargs, path)


def _expand_sweep(node):
    _require_mapping(node, "sweep")
    _check_keys(node, ("gravity", "stiffness", "torsion_deg"), "sweep.")
    axes = {**_SWEEP_DEFAULTS, **node}
    for key, values in axes.items():
        if not isinstance(values, (list, tuple)) or not values:
            raise ConfigError(f"sweep.{key}: expected a non-empty list")
        for j, value in enumerate(values):
            _LEAF_RULES[key].check(value, f"sweep.{key}[{j}]")
    out = []
    for gravity in axes["gravity"]:
        for torsion_deg in axes["torsion_deg"]:
            for stiffness in axes["stiffness"]:
                torsion = math.radians(torsion_deg)
                out.append(
                    Condition(
                        _condition_name(gravity, stiffness, torsion),
                        gravity=gravity,
                        stiffness=stiffness,
                        torsion=torsion,
                    )
                )
    return out


_BOOL, _INT, _FLOAT = ("tag:yaml.org,2002:bool", "tag:yaml.org,2002:int",
                       "tag:yaml.org,2002:float")
# YAML 1.2's core schema; the int form is tried first, as "10" is both
_YAML12_INT = re.compile(r"^(?:[-+]?[0-9]+|0o[0-7]+|0x[0-9a-fA-F]+)$")
_YAML12_FLOAT = re.compile(
    r"^(?:[-+]?(?:\.[0-9]+|[0-9]+(?:\.[0-9]*)?)(?:[eE][-+]?[0-9]+)?"
    r"|[-+]?\.(?:inf|Inf|INF)|\.(?:nan|NaN|NAN))$"
)
_YAML12_BOOL = re.compile(r"^(?:true|True|TRUE|false|False|FALSE)$")


def load_config(path) -> ExperimentConfig:
    """Read a config file onto the dataclasses; empty file means all defaults."""
    import yaml  # here, not at the top: a run without a file never needs it

    class Loader(yaml.SafeLoader):
        def construct_mapping(self, node, deep=False):
            # YAML's own loader keeps the last of a key written twice; a list,
            # not a set, so that an unhashable key reaches the base class's error
            keys = []
            for key_node, _ in node.value:
                if key_node.tag != "tag:yaml.org,2002:merge":
                    key = self.construct_object(key_node, deep=deep)
                    if key in keys:
                        raise ConfigError(f"{path}, line {key_node.start_mark.line + 1}: "
                                          f"key {key!r} given twice in one mapping")
                    keys.append(key)
            return super().construct_mapping(node, deep)

    # YAML 1.2's number and boolean forms in place of YAML 1.1's (see the module docstring)
    Loader.yaml_implicit_resolvers = {
        first: [(tag, regexp) for tag, regexp in resolvers if tag not in (_BOOL, _INT, _FLOAT)]
        for first, resolvers in yaml.SafeLoader.yaml_implicit_resolvers.items()
    }
    Loader.add_implicit_resolver(_INT, _YAML12_INT, list("-+0123456789"))
    Loader.add_implicit_resolver(_FLOAT, _YAML12_FLOAT, list("-+.0123456789"))
    Loader.add_implicit_resolver(_BOOL, _YAML12_BOOL, list("tTfF"))

    def strict(tag, pattern, kind, value):
        # an explicit !!int or !!bool too, so that no YAML 1.1 form gets through
        def construct(loader, node):
            text = loader.construct_scalar(node)
            if not pattern.match(text):
                raise yaml.constructor.ConstructorError(
                    None, None, f"not a YAML 1.2 {kind}: {text!r}", node.start_mark)
            return value(text)
        Loader.add_constructor(tag, construct)

    strict(_INT, _YAML12_INT, "integer", lambda t: int(t, {"0o": 8, "0x": 16}.get(t[:2], 10)))
    strict(_BOOL, _YAML12_BOOL, "boolean", lambda t: t.lower() == "true")

    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text: {exc}") from exc
    try:
        raw = yaml.load(text, Loader=Loader)
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
        if not isinstance(raw["conditions"], list):  # ExperimentConfig refuses an empty one
            raise ConfigError("conditions: expected a non-empty list")
        kwargs["conditions"] = tuple(
            _parse_condition(c, i) for i, c in enumerate(raw["conditions"]))
    elif "sweep" in raw:
        kwargs["conditions"] = tuple(_expand_sweep(raw["sweep"]))
    kwargs.update((key, raw[key]) for key in ("output_dir", "seed") if key in raw)
    return ExperimentConfig(**kwargs)
