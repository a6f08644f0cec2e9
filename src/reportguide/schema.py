"""Type checks shared by the config dataclasses, which are the sections of
the config file: each calls `check_fields` first in `__post_init__`, so a
value of the wrong type is a ConfigError when the config loads."""

from __future__ import annotations

import functools
import math
from dataclasses import fields
from typing import get_type_hints

from .errors import ConfigError


def _as_int(name: str, value):
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    return value


def _as_float(name: str, value):
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            number = float(value)
        except OverflowError:
            number = math.inf
        if math.isfinite(number):
            return number
    raise ConfigError(f"{name} must be a finite number, got {value!r}")


def _as_str(name: str, value):
    if not isinstance(value, str):
        raise ConfigError(f"{name} must be a string, got {value!r}")
    return value


def _as_str_list(name: str, value):
    if not isinstance(value, list) or not all(isinstance(x, str) for x in value):
        raise ConfigError(f"{name} must be a list of strings, got {value!r}")
    return list(value)


_CHECKS = {int: _as_int, float: _as_float, str: _as_str, list[str]: _as_str_list}


def check_fields(obj) -> None:
    """Check every int, float, str and list-of-str field of a dataclass.

    An int field rejects bools and non-integral numbers; a float field takes
    an int and rejects NaN and infinities. Accepted values are normalized in
    place (2.0 -> 2 for an int, 1 -> 1.0 for a float), so equal settings
    always fingerprint alike. Fields of other types are left to the caller.
    """
    for name, check in _checks_for(type(obj)):
        object.__setattr__(obj, name, check(name, getattr(obj, name)))


@functools.cache
def _checks_for(cls) -> tuple:
    # Resolving the annotations costs far more than checking the values, and
    # some configs are built once per request.
    hints = get_type_hints(cls)
    return tuple((f.name, _CHECKS[hints[f.name]]) for f in fields(cls) if hints[f.name] in _CHECKS)
