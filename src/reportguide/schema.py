"""The config schema: every config section, the loader that builds them
from the config file and the `--set` overrides, and the rules that check
them. Library modules import their sections from here, never from `cli`.

A field declares its type in the annotation, read as written and never
evaluated: with `from __future__ import annotations`, a checked field's
annotation is the string "int", "float", "str" or "list[str]". Its bounds
are declared in `field(metadata=...)`: inclusive `low` and `high`, an
exclusive lower bound `above`, or the `choices` of a str field or of each
element of a list[str] one, which names each element once. `check_fields`
checks both as a section is built, so a bad value is a ConfigError naming
its field, and echoing the value cut short, when the config loads; only
rules relating two fields are hand-written after it, and a section with
none inherits `ConfigSection`'s `__post_init__`. `check_values` holds a
mapping, such as the settings an artifact records, to a declaration."""

from __future__ import annotations

import hashlib
import json
import math
import operator
import reprlib
from dataclasses import InitVar, asdict, dataclass, field, fields, replace
from pathlib import Path
from urllib.parse import urlsplit

from .corpus import SPLITS
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


@dataclass(frozen=True)
class PathsConfig(ConfigSection):
    manifest: str = ""
    features: str = ""
    workdir: str = ""


@dataclass(frozen=True)
class BootstrapConfig(ConfigSection):
    """Batching and filtering knobs for the bootstrap stage.

    `b` is the number of reports per extraction batch, `kappa` the token
    budget of one merge call, and `theta` the minimum number of positive
    training records a label needs to be kept.
    """

    b: int = field(default=200, metadata={"low": 1})
    kappa: int = field(default=200, metadata={"low": 1})
    theta: int = field(default=15, metadata={"low": 0})


@dataclass(frozen=True)
class GatewayConfig:
    """Where and how to send chat calls.

    `endpoint` is the full chat-completions URL for the http backend. The API
    key is only ever read from the environment variable named by
    `api_key_env`; the key itself never appears in configs or artifacts.
    `call_log_path`, when set, receives one JSON line per real (http) call,
    reply text included, and answers a repeat of a logged request in its
    place; it is an init-only argument, not a field, so no config file can
    set it.
    """

    backend: str = field(default="mock", metadata={"choices": ("mock", "http")})
    endpoint: str = ""
    model: str = "mock-clinical-1"
    api_key_env: str = "LLM_API_KEY"
    max_retries: int = field(default=3, metadata={"low": 0})
    parallelism: int = field(default=4, metadata={"low": 1})
    requests_per_minute: int = field(default=600, metadata={"low": 1})
    call_log_path: InitVar[str | None] = None

    def __post_init__(self, call_log_path):
        object.__setattr__(self, "call_log_path", call_log_path)
        check_fields(self)
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


@dataclass(frozen=True)
class TrainConfig(ConfigSection):
    learning_rate: float = field(default=1e-2, metadata={"above": 0})
    epochs: int = field(default=200, metadata={"low": 1})
    batch_size: int = field(default=32, metadata={"low": 1})
    seed: int = field(default=0, metadata={"low": 0})
    tau: float = field(default=1.0, metadata={"low": 0})
    adjustment: str = field(default="on", metadata={"choices": ("on", "off")})


MODES = ("image_only", "label_only", "image_and_label")
LABEL_SOURCES = ("gt", "pred")


@dataclass(frozen=True)
class GeneratorConfig:
    """How reports get generated from guidance prompts.

    backend "mock" expands labels through a fixed phrase rule; "command"
    spawns `command` once per record with a one-line JSON request on stdin;
    "http" forwards the prompt through the chat gateway.

    For "http", the init-only `gateway` argument (the config's gateway
    section) supplies the key variable, limits and call log, and the endpoint
    and model where `endpoint` and `model` are empty. After init, `gateway` is
    the resolved http gateway, or None for the other backends.
    """

    backend: str = field(default="mock", metadata={"choices": ("mock", "command", "http")})
    command: str = ""
    endpoint: str = ""
    model: str = ""
    gateway: InitVar[GatewayConfig | None] = None

    def __post_init__(self, gateway):
        check_fields(self)
        if self.backend == "command" and not self.command:
            raise ConfigError("command generator backend requires a command line")
        chat = None
        if self.backend == "http":
            base = gateway or GatewayConfig()
            endpoint, model = self.endpoint or base.endpoint, self.model or base.model
            chat = replace(base, backend="http", endpoint=endpoint, model=model,
                           call_log_path=base.call_log_path)
        object.__setattr__(self, "gateway", chat)


@dataclass(frozen=True)
class GuidanceConfig(ConfigSection):
    mode: str = field(default="image_and_label", metadata={"choices": MODES})
    label_source: str = field(default="pred", metadata={"choices": LABEL_SOURCES})
    threshold: float = field(default=0.5, metadata={"low": 0, "high": 1})
    split: str = field(default="test", metadata={"choices": SPLITS})
    generator: GeneratorConfig = field(default_factory=GeneratorConfig)

    @property
    def cell(self) -> tuple[str, str]:
        """The (mode, label source) cell to generate and evaluate: image_only
        prompts carry no labels, whatever label_source says."""
        return self.mode, "none" if self.mode == "image_only" else self.label_source


# The metrics `evaluate` can score, in `metrics.json` order; `metrics` reads
# them from here.
METRIC_NAMES = ("bleu", "rouge_l", "cider_d", "meteor_simple", "entity_f1")


@dataclass(frozen=True)
class MetricsConfig(ConfigSection):
    enabled: list[str] = field(
        default_factory=lambda: list(METRIC_NAMES), metadata={"choices": METRIC_NAMES}
    )


@dataclass(frozen=True)
class PipelineConfig:
    """The config file: one field per section, each the config of the stage
    code that reads it."""

    paths: PathsConfig = field(default_factory=PathsConfig)
    bootstrap: BootstrapConfig = field(default_factory=BootstrapConfig)
    gateway: GatewayConfig = field(default_factory=GatewayConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    guidance: GuidanceConfig = field(default_factory=GuidanceConfig)
    metrics: MetricsConfig = field(default_factory=MetricsConfig)


def _section(cls, data, path: str, **wiring):
    """Build one config section from its JSON object.

    Unknown keys and values its dataclass rejects become ConfigErrors naming
    the dotted path. `wiring` passes an already built subsection, or an
    init-only argument that no file key can set.
    """
    if not isinstance(data, dict):
        raise ConfigError(f"config section {_echo(path)} must be an object")
    known = {f.name for f in fields(cls)}
    for key in data:
        if key not in known:
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
    sections = {f.name for f in fields(PipelineConfig)}
    for name in doc:
        if name not in sections:
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
    doc = json.dumps(asdict(config), sort_keys=True)
    return hashlib.sha256(doc.encode("utf-8")).hexdigest()
