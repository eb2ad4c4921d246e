"""Experiment configuration: conditions, the whole config, and the YAML loader.

A config file is a YAML mapping; every section is optional and an empty
file reproduces the built-in defaults (the full eight-condition protocol).
A section's keys are its dataclass's fields, and each dataclass checks its
own values; the loader only maps the file onto them, rejecting unknown keys
and naming in a field's error the key the file wrote, with its dotted path
(``conditions[0].torsion_deg`` for a condition's torsion, and
``sweep.stiffness, sweep.torsion_deg`` for a swept condition's name, which
is made from them), so typos fail loudly.
The file must be UTF-8, and a key given twice in one mapping is refused
with its line rather than letting the last one win.  Numbers are read as
YAML 1.2 reads them: ``1e-3`` is a float, ``010`` is ten, ``0o10`` and
``0x8`` are eight, and YAML 1.1's binary (``0b11``), sexagesimal (``1:30``)
and separated (``1_000``) forms are strings, which a number field refuses.
Booleans are YAML 1.2's too: ``true`` and ``false`` (or ``True``, ``TRUE``,
``False``, ``FALSE``), so YAML 1.1's ``yes``, ``no``, ``on`` and ``off`` are
strings, which a boolean field refuses and a name takes.  An explicit
``!!int``, ``!!float`` or ``!!bool`` takes only YAML 1.2's forms of its type
(``!!float 10`` is 10.0, ``!!float 1:30`` is refused), and a tagged value
that YAML cannot build (``!!timestamp abc``) is refused as not valid YAML.

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

from ._rules import (BOOLEAN, KIND, NON_EMPTY_STRING, NON_NEGATIVE_INT, NUMBER, POSITIVE,
                     STRING, ConfigError, check_fields, param, rules)
from .dynamics import BodyModel
from .experiments import (ClockTask, ParamSchedule, SimOptions, build_clock_schedule,
                          build_retune_schedule)
from .planner import BandParams, reach_duration


@dataclass(frozen=True)
class Condition:
    """One experiment to simulate and log.

    ``kind="clock"`` visits each of the task's ``n_targets`` targets
    center-out-and-back at fixed stiffness and torsion; ``kind="retune"``
    runs the single-target trial whose stiffness and torsion step mid-reach,
    and refuses a stiffness or torsion other than the defaults.  The kind
    is decided here alone: :meth:`schedule` builds the schedule it runs.
    """

    name: str = param(STRING)
    kind: str = param(KIND, "clock")
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
        try:  # a lone surrogate, which a YAML escape can write, has no UTF-8 form
            size = len(self.name.encode("utf-8"))
        except UnicodeEncodeError:
            raise ConfigError(
                f"name: must be text that UTF-8 can encode, got {self.name!r}") from None
        # NAME_MAX, the longest folder name, is 255 bytes on ext4 and most others
        if size > 255:
            raise ConfigError(f"name: must be at most 255 bytes in UTF-8, the longest "
                              f"folder name, got {size} bytes: {self.name[:40]!r}...")
        if self.kind == "retune":
            for f in fields(self):
                if f.name in ("stiffness", "torsion") and getattr(self, f.name) != f.default:
                    raise ConfigError(f"{f.name}: a retune condition runs its fixed schedule")

    def schedule(self, task: ClockTask, band: BandParams) -> ParamSchedule:
        """The schedule this condition's trial runs on ``task`` and ``band``."""
        if self.kind == "retune":
            return build_retune_schedule()
        return build_clock_schedule(task, band, self.stiffness, self.torsion)


def _condition_name(gravity: bool, stiffness: float, torsion: float) -> str:
    phi_deg = round(math.degrees(torsion))
    phi = f"N{-phi_deg}" if phi_deg < 0 else f"{phi_deg}"
    return f"g_{'on' if gravity else 'off'}_K{round(stiffness)}_phi{phi}"


def _repeated(names) -> list[str]:
    """The names that occur more than once, sorted."""
    names = list(names)
    return sorted({n for n in names if names.count(n) > 1})


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
        dupes = _repeated(c.name for c in self.conditions)
        if dupes:
            raise ConfigError(f"duplicate condition names: {', '.join(dupes)}")
        # one sample has no motion to measure.  Refused after every condition's
        # cap: the cap's advice may be to raise sim.dt, this one's is to lower it
        short = [c.name for c in self.conditions if self.trial_size(c)[0] < 2]
        if short:
            raise ConfigError(
                f"condition {short[0]!r} is too short to run: sim.dt (now {self.sim.dt:g} s) "
                f"leaves it 1 sample, where a trial needs at least 2; lower sim.dt"
            )

    def trial_size(self, cond: Condition) -> tuple[float, int, float]:
        """Samples, schedule legs and right-hand-side evaluations of
        ``cond``'s trial, from its schedule's duration; the clock schedule
        is not built, so a huge task is sized at once.  Each leg is built
        and checked one by one, whatever ``sim.dt`` is.  A trial that cannot
        run, or is larger than the caps, is refused with the keys to change."""
        try:
            reach = reach_duration(self.task.radius, self.band)
        except ConfigError:  # the rate of a reach underflows to 0
            raise ConfigError(
                f"task.radius, band.max_accel: the reach of task.radius ({self.task.radius:g} m) "
                f"at band.max_accel ({self.band.max_accel:g} m/s^2) never arrives, as its rate "
                f"underflows to 0; lower task.radius or raise band.max_accel"
            ) from None
        if cond.kind == "retune":
            # the retune steps must land while the reach to target 0 is in flight
            sched = cond.schedule(self.task, self.band)
            last_step = max(sched.stiffness_breaks[-1][0], sched.torsion_breaks[-1][0])
            end = sched.target_breaks[0][0] + reach
            if end <= last_step:
                raise ConfigError(
                    f"retune condition {cond.name!r}: the reach to target 0 ends at "
                    f"{end:.3f} s, at or before the last stiffness/torsion step at "
                    f"{last_step:g} s; raise task.radius (now {self.task.radius:g} m) "
                    f"or lower band.max_accel (now {self.band.max_accel:g} m/s^2)"
                )
            duration, legs = sched.duration, len(sched.target_breaks)
            lower = higher = ""  # the keys that set the size: a retune's schedule is fixed
        else:  # build_clock_schedule's: two legs per target, a reach plus the dwell
            leg = reach + self.task.dwell
            if not leg > 0:
                # a reach whose rate overflows lasts 0 s: the schedule would be empty
                raise ConfigError(
                    f"clock condition {cond.name!r}: its legs take no time, as the reach of "
                    f"task.radius ({self.task.radius:g} m) at band.max_accel "
                    f"({self.band.max_accel:g} m/s^2) rounds to 0 s and task.dwell is 0; "
                    f"raise task.radius or task.dwell, or lower band.max_accel"
                )
            legs = 2 * self.task.n_targets
            duration = legs * leg
            lower = (f"task.n_targets (now {self.task.n_targets}), task.dwell (now "
                     f"{self.task.dwell:g} s), task.radius (now {self.task.radius:g} m) or ")
            higher = f"band.max_accel (now {self.band.max_accel:g} m/s^2) or "
        steps = float(np.rint(duration / self.sim.dt))  # run_trial's rounding, inf-safe
        samples, evals = steps + 1, steps * self.sim.substeps * 4
        if max(samples, legs) > MAX_SAMPLES or evals > MAX_RHS_EVALS:
            raise ConfigError(
                f"condition {cond.name!r} is too large to run: {samples:,.0f} samples, "
                f"{legs:,} legs and {evals:,.0f} right-hand-side evaluations, where the "
                f"cap is {MAX_SAMPLES:,} samples or legs and {MAX_RHS_EVALS:,} evaluations; "
                f"lower {lower}sim.substeps (now {self.sim.substeps}), or raise "
                f"{higher}sim.dt (now {self.sim.dt:g} s)"
            )
        return samples, legs, evals

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
# the file keys that set a field a condition's error names, where they differ
# from the field: a swept condition's name is made from its stiffness and torsion
_LISTED = {"torsion": ("torsion_deg",)}
_SWEPT = {**_LISTED, "name": ("stiffness", "torsion_deg")}
# a sweep axis left out holds the one value of Condition's default
_SWEEP_DEFAULTS = {
    "gravity": [Condition.gravity],
    "stiffness": [Condition.stiffness],
    "torsion_deg": [math.degrees(Condition.torsion)],
}


def _check_mapping(node, keys, path, name=None):
    """Refuse ``node`` unless it is a mapping of ``keys`` alone; a key is named
    by its dotted ``path``, a node by ``name`` (by default ``path`` undotted)."""
    if not isinstance(node, dict):
        raise ConfigError(f"{name or path[:-1]}: expected a mapping, got {type(node).__name__}")
    for key in node:
        if key not in keys:
            raise ConfigError(f"unknown key '{path}{key}'")


def _build(cls, kwargs, path, keys={}):
    """``cls(**kwargs)``, with each field an error names before its colon
    replaced by the key or keys of the file that set it (``keys``, where they
    differ from the field) and prefixed with the dotted ``path``."""
    try:
        return cls(**kwargs)
    except ConfigError as exc:
        names, colon, reason = str(exc).partition(": ")
        dotted = ", ".join(path + key for name in names.split(", ")
                           for key in keys.get(name, (name,)))
        raise ConfigError(f"{dotted}{colon}{reason}") from None


def _condition(values, path, keys):
    """The :class:`Condition` of a file's ``values``, with the torsion in
    degrees (a value that is no number reaches Condition as it is, to be
    refused there); a swept one, with no name, is named after its values."""
    values = dict(values)
    if "torsion_deg" in values:
        deg = values.pop("torsion_deg")
        values["torsion"] = math.radians(deg) if NUMBER.test(deg) else deg
    if "name" not in values:
        values["name"] = _condition_name(**values)
    return _build(Condition, values, path, keys)


def _parse_condition(node, index):
    path = f"conditions[{index}]."
    _check_mapping(node, _CONDITION_KEYS, path)
    if "name" not in node:
        raise ConfigError(f"{path}name: required")
    for key in ("stiffness", "torsion_deg"):
        if key in node and node.get("kind") == "retune":
            raise ConfigError(f"{path}{key}: a retune condition runs its fixed schedule")
    return _condition(node, path, _LISTED)


def _expand_sweep(node):
    _check_mapping(node, _SWEEP_DEFAULTS, "sweep.")
    axes = {**_SWEEP_DEFAULTS, **node}
    for key, values in axes.items():
        if not isinstance(values, (list, tuple)) or not values:
            raise ConfigError(f"sweep.{key}: expected a non-empty list")
        for j, value in enumerate(values):
            _LEAF_RULES[key].check(value, f"sweep.{key}[{j}]")
    conditions = [_condition({"gravity": g, "stiffness": k, "torsion_deg": d}, "sweep.", _SWEPT)
                  for g in axes["gravity"] for d in axes["torsion_deg"] for k in axes["stiffness"]]
    dupes = _repeated(c.name for c in conditions)
    if dupes:
        raise ConfigError(
            f"sweep.gravity, sweep.stiffness, sweep.torsion_deg: two swept conditions are "
            f"named {dupes[0]} (a name gives gravity as on or off, the stiffness rounded to a "
            f"whole N*m/rad and the torsion rounded to a whole degree)"
        )
    return conditions


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
        # an explicit !!int, !!float or !!bool too, so that no YAML 1.1 form gets through
        def construct(loader, node):
            text = loader.construct_scalar(node)
            if not pattern.match(text):
                raise yaml.constructor.ConstructorError(
                    None, None, f"not a YAML 1.2 {kind}: {text!r}", node.start_mark)
            return value(text)
        Loader.add_constructor(tag, construct)

    strict(_INT, _YAML12_INT, "integer", lambda t: int(t, {"0o": 8, "0x": 16}.get(t[:2], 10)))
    strict(_FLOAT, _YAML12_FLOAT, "float",
           lambda t: float(t.lower().replace(".inf", "inf").replace(".nan", "nan")))
    strict(_BOOL, _YAML12_BOOL, "boolean", lambda t: t.lower() == "true")

    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text: {exc}") from exc
    try:
        raw = yaml.load(text, Loader=Loader)
    except ConfigError:
        raise
    # PyYAML's constructors raise plain errors on some tagged values (!!timestamp abc)
    except (yaml.YAMLError, ValueError, AttributeError, TypeError) as exc:
        raise ConfigError(f"{path}: not valid YAML: {exc}") from exc
    if raw is None:
        return ExperimentConfig()
    _check_mapping(raw, {f.name for f in fields(ExperimentConfig)} | {"sweep"}, "", str(path))

    kwargs = {}
    for name, cls in _SECTIONS.items():
        if name in raw:
            _check_mapping(raw[name], {f.name for f in fields(cls)}, f"{name}.")
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
