"""The config schema. A config section's fields declare their type in the
annotation, read as written and never evaluated: every config module has
`from __future__ import annotations`, so a checked field's annotation is the
string "int", "float", "str" or "list[str]", on every Python version. Its
bounds are declared in `field(metadata=...)`: inclusive `low` and
`high`, an exclusive lower bound `above`, or the `choices` of a str field or
of each element of a list[str] one, which names each element once.
`check_fields` checks both as a section is built, so a bad value is a
ConfigError naming its field when the config loads; only rules relating two
fields are hand-written after it, and a section with none inherits
`ConfigSection`'s `__post_init__`. `check_values` holds a mapping, such as
the settings an artifact records, to a declaration."""

from __future__ import annotations

import json
import math
import operator
from dataclasses import fields

from .errors import ConfigError, PipelineError
from .fileio import lone_surrogate


def _fail(name: str, expected: str, value) -> ConfigError:
    return ConfigError(f"{name} must be {expected}, got {value!r}", field=name)


def _as_int(name: str, value):
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise _fail(name, "an integer", value)
    return value


def _as_float(name: str, value):
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            number = float(value)
        except OverflowError:
            number = math.inf
        if math.isfinite(number):
            return number
    raise _fail(name, "a finite number", value)


def _as_str(name: str, value):
    if not isinstance(value, str):
        raise _fail(name, "a string", value)
    # A lone surrogate, which a `\ud800` escape or a non-UTF-8 byte in an
    # argv flag decodes to, could not be recorded in `meta/`.
    if lone_surrogate(value):
        raise _fail(name, "text that UTF-8 can encode", value)
    return value


def _as_str_list(name: str, value):
    if not isinstance(value, list) or not all(isinstance(x, str) for x in value):
        raise _fail(name, "a list of strings", value)
    return [_as_str(name, item) for item in value]


_CHECKS = {"int": _as_int, "float": _as_float, "str": _as_str, "list[str]": _as_str_list}


# Each bound a field may declare: how it is written, and its test.
_BOUNDS = {"low": (">=", operator.ge), "high": ("<=", operator.le), "above": (">", operator.gt)}


def describe_bounds(bounds) -> str:
    """A field's declared bounds as its errors and the README state them,
    e.g. `>= 1`, `>= 0 and <= 1` or `one of "on" | "off"`."""
    if "choices" in bounds:
        return "one of " + " | ".join(json.dumps(c) for c in bounds["choices"])
    return " and ".join(f"{sym} {bounds[key]}" for key, (sym, _) in _BOUNDS.items() if key in bounds)


def _check(name: str, value, check, bounds):
    value = check(name, value)
    seen = set()
    for item in value if isinstance(value, list) else (value,):
        if item not in bounds.get("choices", (item,)) or not all(
            test(item, bounds[key]) for key, (_, test) in _BOUNDS.items() if key in bounds
        ):
            raise _fail(name, describe_bounds(bounds), item)
        if item in seen:
            raise ConfigError(f"{name} names {item!r} more than once", field=name)
        seen.add(item)
    return value


def check_fields(obj) -> None:
    """Check every int, float, str and list-of-str field of a dataclass
    against its declared type and bounds.

    An int field rejects bools and non-integral numbers; a float field takes
    an int and rejects NaN and infinities. Accepted values are normalized in
    place (2.0 -> 2 for an int, 1 -> 1.0 for a float), so equal settings
    always fingerprint alike. Fields of other types are left to the caller.
    """
    for name, (check, bounds) in _checks_for(type(obj)).items():
        object.__setattr__(obj, name, _check(name, getattr(obj, name), check, bounds))


class ConfigSection:
    """Base of the config sections with no cross-field rule."""

    def __post_init__(self):
        check_fields(self)


def check_values(cls, values: dict, error: type[PipelineError], prefix: str) -> None:
    """Check each value of `values` against the declaration of the field of
    `cls` its key names, as `check_fields` would, normalizing nothing. A bad
    value, or a key that names no such field, raises `error` with a message
    that starts with `prefix`."""
    checks = _checks_for(cls)
    for name, value in values.items():
        if name not in checks:
            raise error(f"{prefix}{name} is not a field of {cls.__name__}")
        try:
            _check(name, value, *checks[name])
        except ConfigError as exc:
            raise error(f"{prefix}{exc}") from exc


def _checks_for(cls) -> dict:
    return {f.name: (_CHECKS[f.type], f.metadata) for f in fields(cls) if f.type in _CHECKS}
