"""The config schema: every config section, the loader that builds them
from the config file and the `--set` overrides, and the rules that check
them. Library modules import their sections from here, never from `cli`.

A section is an immutable plain class whose constructor takes its fields,
with their defaults, in the order `_fields` lists them. One table, `FIELDS`,
declares every leaf field by its dotted key: its type ("int", "float",
"str" or "list[str]") and its bounds: inclusive `low` and `high`, an
exclusive lower bound `above`, or the `choices` of a str field or of each
element of a list[str] one, which names each element once. A section
checks each leaf field against its declaration as it is built
(`ConfigSection._set`), so a bad value is a ConfigError naming its field,
and echoing the value cut short, when the config loads; only rules relating
two fields are hand-written after it. `check_values` holds a mapping, such
as the settings an artifact records, to a declaration. `as_dict` gives the
nested dict of a config that `meta/<stage>.json` records and
`config_fingerprint` hashes."""

from __future__ import annotations

import hashlib
import json
import math
import operator
import reprlib
from pathlib import Path
from urllib.parse import urlsplit

from .errors import ConfigError, PipelineError
from .fileio import lone_surrogate, read_json

_ECHO = reprlib.Repr()
_ECHO.maxstring = _ECHO.maxlong = 80


def _cut(text: str, width: int = 80) -> str:
    """`text` if it fits in `width` characters, else its two ends around "..."."""
    head = (width - 3) // 2
    return text if len(text) <= width else f"{text[:head]}...{text[head + 3 - width:]}"


def _echo(value) -> str:
    """`value` as an error echoes it: at most 80 characters, a deep value cut."""
    return _cut(_ECHO.repr(value))


def _fail(name: str, expected: str, value) -> ConfigError:
    return ConfigError(f"{name} must be {expected}, got {_echo(value)}", field=name)


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
            raise ConfigError(f"{name} names {_echo(item)} more than once", field=name)
        seen.add(item)
    return value


# The record splits of a manifest; `corpus` reads them from here.
SPLITS = ("train", "val", "test")
MODES = ("image_only", "label_only", "image_and_label")
LABEL_SOURCES = ("gt", "pred")
# The metrics `evaluate` can score, in `metrics.json` order; `metrics` reads
# them from here.
METRIC_NAMES = ("bleu", "rouge_l", "cider_d", "meteor_simple", "entity_f1")

# Every leaf field of the config, section by section in constructor order:
# its type and its bounds.
FIELDS = {
    "paths.manifest": ("str", {}),
    "paths.features": ("str", {}),
    "paths.workdir": ("str", {}),
    "bootstrap.b": ("int", {"low": 1}),
    "bootstrap.kappa": ("int", {"low": 1}),
    "bootstrap.theta": ("int", {"low": 0}),
    "gateway.backend": ("str", {"choices": ("mock", "http")}),
    "gateway.endpoint": ("str", {}),
    "gateway.model": ("str", {}),
    "gateway.api_key_env": ("str", {}),
    "gateway.max_retries": ("int", {"low": 0}),
    "gateway.parallelism": ("int", {"low": 1}),
    "gateway.requests_per_minute": ("int", {"low": 1}),
    "train.learning_rate": ("float", {"above": 0}),
    "train.epochs": ("int", {"low": 1}),
    "train.batch_size": ("int", {"low": 1}),
    "train.seed": ("int", {"low": 0}),
    "train.tau": ("float", {"low": 0}),
    "train.adjustment": ("str", {"choices": ("on", "off")}),
    "guidance.mode": ("str", {"choices": MODES}),
    "guidance.label_source": ("str", {"choices": LABEL_SOURCES}),
    "guidance.threshold": ("float", {"low": 0, "high": 1}),
    "guidance.split": ("str", {"choices": SPLITS}),
    "guidance.generator.backend": ("str", {"choices": ("mock", "command", "http")}),
    "guidance.generator.command": ("str", {}),
    "guidance.generator.endpoint": ("str", {}),
    "guidance.generator.model": ("str", {}),
    "metrics.enabled": ("list[str]", {"choices": METRIC_NAMES}),
}


class ConfigSection:
    """Base of the config sections: immutable, equal to a section of its
    class whose fields are equal, and hashed by its fields. A section names
    its dotted key in `_key` ("" for the whole config) and its fields, in
    constructor order, in `_fields`; its constructor hands its arguments to
    `_set`."""

    __slots__ = ()
    _key = ""
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # Each leaf field to its (check, bounds); a subsection field has none.
        cls._checks = {}
        for name in cls._fields:
            declared = FIELDS.get(f"{cls._key}.{name}")
            if declared is not None:
                cls._checks[name] = (_CHECKS[declared[0]], declared[1])

    def _set(self, values: dict) -> None:
        """Set each field to its value in `values`, a leaf field once it has
        passed its check. An int field rejects bools and non-integral
        numbers; a float field takes an int and rejects NaN and infinities.
        Accepted values are normalized (2.0 -> 2 for an int, 1 -> 1.0 for a
        float), so equal settings always fingerprint alike."""
        for name in self._fields:
            value = values[name]
            if name in self._checks:
                value = _check(name, value, *self._checks[name])
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"

    def replace(self, **changes):
        """A new section of this class with the fields `changes` names set
        to its values and the others kept, built and checked as any section
        is; an init-only argument that `changes` does not name takes its
        default."""
        return type(self)(**{**{name: getattr(self, name) for name in self._fields}, **changes})


def as_dict(section: ConfigSection) -> dict:
    """Each field of `section` by name, in order, a subsection as a dict of
    its own and a list copied: what `meta/<stage>.json` records as `config`
    and `config_fingerprint` hashes."""
    doc = {}
    for name in section._fields:
        value = getattr(section, name)
        if isinstance(value, ConfigSection):
            value = as_dict(value)
        elif isinstance(value, list):
            value = list(value)
        doc[name] = value
    return doc


def check_values(cls, values: dict, error: type[PipelineError], prefix: str) -> None:
    """Check each value of `values` against the declaration of the field of
    section class `cls` its key names, as building the section would,
    normalizing nothing. A bad value, or a key that names no such field,
    raises `error` with a message that starts with `prefix`."""
    for name, value in values.items():
        if name not in cls._checks:
            raise error(f"{prefix}{name} is not a field of {cls.__name__}")
        try:
            _check(name, value, *cls._checks[name])
        except ConfigError as exc:
            raise error(f"{prefix}{exc}") from exc


class PathsConfig(ConfigSection):
    _key = "paths"
    __slots__ = _fields = ("manifest", "features", "workdir")

    def __init__(self, manifest: str = "", features: str = "", workdir: str = ""):
        self._set(locals())


class BootstrapConfig(ConfigSection):
    """Batching and filtering knobs for the bootstrap stage.

    `b` is the number of reports per extraction batch, `kappa` the token
    budget of one merge call, and `theta` the minimum number of positive
    training records a label needs to be kept.
    """

    _key = "bootstrap"
    __slots__ = _fields = ("b", "kappa", "theta")

    def __init__(self, b: int = 200, kappa: int = 200, theta: int = 15):
        self._set(locals())


class GatewayConfig(ConfigSection):
    """Where and how to send chat calls.

    `endpoint` is the full chat-completions URL for the http backend. The API
    key is only ever read from the environment variable named by
    `api_key_env`; the key itself never appears in configs or artifacts.
    `call_log_path`, when set, receives one JSON line per real (http) call,
    reply text included, and answers a repeat of a logged request in its
    place; it is an init-only argument, not a field, so no config file can
    set it.
    """

    _key = "gateway"
    _fields = ("backend", "endpoint", "model", "api_key_env", "max_retries", "parallelism",
               "requests_per_minute")
    __slots__ = (*_fields, "call_log_path")

    def __init__(
        self, backend: str = "mock", endpoint: str = "", model: str = "mock-clinical-1",
        api_key_env: str = "LLM_API_KEY", max_retries: int = 3, parallelism: int = 4,
        requests_per_minute: int = 600, call_log_path: str | None = None,
    ):
        object.__setattr__(self, "call_log_path", call_log_path)
        self._set(locals())
        if self.backend == "http":
            if not self.endpoint:
                raise ConfigError("http backend requires an endpoint URL")
            try:
                parts = urlsplit(self.endpoint)
                parts.port  # a non-numeric or out-of-range port raises here
            except ValueError as exc:
                # The error may quote the port, which is as long as the value.
                raise ConfigError(
                    f"endpoint {_echo(self.endpoint)} is not a valid URL: {_cut(str(exc), 50)}"
                ) from exc
            if parts.scheme not in ("http", "https") or not parts.hostname:
                raise ConfigError(
                    f"endpoint must be an http:// or https:// URL with a host, "
                    f"got {_echo(self.endpoint)}"
                )


class TrainConfig(ConfigSection):
    _key = "train"
    __slots__ = _fields = ("learning_rate", "epochs", "batch_size", "seed", "tau", "adjustment")

    def __init__(
        self, learning_rate: float = 1e-2, epochs: int = 200, batch_size: int = 32,
        seed: int = 0, tau: float = 1.0, adjustment: str = "on",
    ):
        self._set(locals())


class GeneratorConfig(ConfigSection):
    """How reports get generated from guidance prompts.

    backend "mock" expands labels through a fixed phrase rule; "command"
    spawns `command` once per record with a one-line JSON request on stdin;
    "http" forwards the prompt through the chat gateway.

    For "http", the init-only `gateway` argument (the config's gateway
    section) supplies the key variable, limits and call log, and the endpoint
    and model where `endpoint` and `model` are empty. After init, `gateway` is
    the resolved http gateway, or None for the other backends.
    """

    _key = "guidance.generator"
    _fields = ("backend", "command", "endpoint", "model")
    __slots__ = (*_fields, "gateway")

    def __init__(
        self, backend: str = "mock", command: str = "", endpoint: str = "", model: str = "",
        gateway: GatewayConfig | None = None,
    ):
        self._set(locals())
        if self.backend == "command" and not self.command:
            raise ConfigError("command generator backend requires a command line")
        chat = None
        if self.backend == "http":
            base = gateway or GatewayConfig()
            chat = base.replace(backend="http", endpoint=self.endpoint or base.endpoint,
                                model=self.model or base.model, call_log_path=base.call_log_path)
        object.__setattr__(self, "gateway", chat)


class GuidanceConfig(ConfigSection):
    _key = "guidance"
    __slots__ = _fields = ("mode", "label_source", "threshold", "split", "generator")

    def __init__(
        self, mode: str = "image_and_label", label_source: str = "pred", threshold: float = 0.5,
        split: str = "test", generator: GeneratorConfig | None = None,
    ):
        generator = generator or GeneratorConfig()
        self._set(locals())

    @property
    def cell(self) -> tuple[str, str]:
        """The (mode, label source) cell to generate and evaluate: image_only
        prompts carry no labels, whatever label_source says."""
        return self.mode, "none" if self.mode == "image_only" else self.label_source


class MetricsConfig(ConfigSection):
    _key = "metrics"
    __slots__ = _fields = ("enabled",)

    def __init__(self, enabled: list[str] | None = None):
        if enabled is None:
            enabled = list(METRIC_NAMES)
        self._set(locals())


class PipelineConfig(ConfigSection):
    """The config file: one field per section, each the config of the stage
    code that reads it."""

    __slots__ = _fields = ("paths", "bootstrap", "gateway", "train", "guidance", "metrics")

    def __init__(
        self, paths: PathsConfig | None = None, bootstrap: BootstrapConfig | None = None,
        gateway: GatewayConfig | None = None, train: TrainConfig | None = None,
        guidance: GuidanceConfig | None = None, metrics: MetricsConfig | None = None,
    ):
        self._set({
            "paths": paths or PathsConfig(),
            "bootstrap": bootstrap or BootstrapConfig(),
            "gateway": gateway or GatewayConfig(),
            "train": train or TrainConfig(),
            "guidance": guidance or GuidanceConfig(),
            "metrics": metrics or MetricsConfig(),
        })


def _section(cls, data, path: str, **wiring):
    """Build one config section from its JSON object.

    Unknown keys and values its section rejects become ConfigErrors naming
    the dotted path. `wiring` passes an already built subsection, or an
    init-only argument that no file key can set.
    """
    if not isinstance(data, dict):
        raise ConfigError(f"config section {_echo(path)} must be an object")
    for key in data:
        if key not in cls._fields:
            raise ConfigError(f"unknown config key {_echo(path + '.' + key)}")
    try:
        return cls(**{**data, **wiring})
    except ConfigError as exc:
        raise ConfigError(f"{path}.{exc}" if exc.field else f"{path}: {exc}") from exc


def load_config(path: str | Path | None, overrides: list[tuple[str, str]]) -> PipelineConfig:
    """Build the effective config: file values over defaults, then flag
    overrides over the file. Unknown keys are rejected, not ignored, and
    every value is type-checked here, before any stage runs."""
    doc = {} if path is None else read_json(path, ConfigError, f"config file {path}")
    for dotted, raw in overrides:
        _apply_override(doc, dotted, raw)
    for name in doc:
        if name not in PipelineConfig._fields:
            raise ConfigError(f"unknown config section {_echo(name)}")

    paths = _section(PathsConfig, doc.get("paths", {}), "paths")
    for key in ("workdir", "manifest", "features"):
        if not getattr(paths, key):
            raise ConfigError(f"paths.{key} is required")
    for what, name in (("manifest", paths.manifest), ("feature", paths.features)):
        if not Path(name).exists():
            raise ConfigError(f"{what} file {name} does not exist")
    # Every http call of every stage, generation's included, appends a line.
    call_log = str(Path(paths.workdir) / "gateway_calls.jsonl")
    gateway = _section(GatewayConfig, doc.get("gateway", {}), "gateway", call_log_path=call_log)
    guidance = doc.get("guidance", {})
    # The one cross-section rule: an http generator takes its key variable
    # and limits, and its endpoint and model where unset, from the gateway.
    generator = _section(
        GeneratorConfig,
        guidance.get("generator", {}) if isinstance(guidance, dict) else {},
        "guidance.generator",
        gateway=gateway,
    )
    return PipelineConfig(
        paths=paths,
        bootstrap=_section(BootstrapConfig, doc.get("bootstrap", {}), "bootstrap"),
        gateway=gateway,
        train=_section(TrainConfig, doc.get("train", {}), "train"),
        guidance=_section(GuidanceConfig, guidance, "guidance", generator=generator),
        metrics=_section(MetricsConfig, doc.get("metrics", {}), "metrics"),
    )


def _apply_override(doc: dict, dotted: str, raw: str) -> None:
    """Set one dotted key in the raw config document; the value is checked
    with the rest of its section."""
    *parents, leaf = dotted.split(".")
    node = doc
    for part in parents:
        node = node.setdefault(part, {})
        if not isinstance(node, dict):
            raise ConfigError(f"config key {_echo(dotted)} does not name a field")
    try:
        value = json.loads(raw)
    except (ValueError, RecursionError):
        value = raw  # bare strings may be given unquoted
    node[leaf] = value


def config_fingerprint(config: PipelineConfig) -> str:
    doc = json.dumps(as_dict(config), sort_keys=True)
    return hashlib.sha256(doc.encode("utf-8")).hexdigest()
