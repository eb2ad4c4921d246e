"""Field rules: the one place a parameter's admissible values are written.

A parameter dataclass declares each checked field with :func:`param`,
naming its rule, and calls :func:`check_fields` from ``__post_init__``. A
value that fails raises :class:`ConfigError` as ``"<field>: <rule>, got
<value>"``, and a check of several fields names them all before the colon,
``"<field>, <field>: <reason>"``; the YAML loader prepends each field's
dotted path in the file.
"""

from __future__ import annotations

import sys
from dataclasses import MISSING, field, fields
from typing import Callable, NamedTuple


class ConfigError(ValueError):
    """Malformed or invalid configuration; message names the offending key."""


class Rule(NamedTuple):
    test: Callable[[object], bool]
    expected: str

    def check(self, value, key: str) -> None:
        if not self.test(value):
            raise ConfigError(f"{key}: {self.expected}, got {value!r}")


def _is_int(value):
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value):
    """An int or float whose float value is finite; bools are not numbers."""
    # compares exactly, so inf, nan and ints past the float range all fail
    return (_is_int(value) or isinstance(value, float)) and abs(value) <= sys.float_info.max


NUMBER = Rule(_is_number, "expected a number")
POSITIVE = Rule(lambda v: _is_number(v) and v > 0, "must be a positive number")
NON_NEGATIVE = Rule(lambda v: _is_number(v) and v >= 0, "must be a non-negative number")
COUNT = Rule(lambda v: _is_int(v) and v > 0, "must be a positive integer")
NON_NEGATIVE_INT = Rule(lambda v: _is_int(v) and v >= 0, "must be a non-negative integer")
TARGET_INDEX = Rule(lambda v: _is_int(v) and v >= -1, "must be a target index (an integer >= -1)")
VECTOR = Rule(
    lambda v: isinstance(v, (list, tuple)) and len(v) == 3 and all(map(_is_number, v)),
    "expected a 3-vector of numbers",
)
BOOLEAN = Rule(lambda v: isinstance(v, bool), "expected a boolean")
STRING = Rule(lambda v: isinstance(v, str), "expected a string")
NON_EMPTY_STRING = Rule(lambda v: isinstance(v, str) and bool(v), "expected a non-empty string")


def param(rule: Rule, default=MISSING):
    """A dataclass field whose value must pass ``rule``."""
    return field(default=default, metadata={"rule": rule})


def rules(cls) -> dict:
    """The rule of each of ``cls``'s fields declared with :func:`param`."""
    return {f.name: f.metadata["rule"] for f in fields(cls) if "rule" in f.metadata}


def check_fields(obj) -> None:
    """Check each of ``obj``'s rule-bearing fields, in declaration order."""
    for name, rule in rules(obj).items():
        rule.check(getattr(obj, name), name)
