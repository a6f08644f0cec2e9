"""Command-line pipeline orchestrator.

The five stages are the rows of one table, `STAGES`: each names the workdir
files it writes and a run function that returns their text and writes
nothing. Each stage command reads one JSON config file, validates it, takes
a lock on the working directory, refuses to overwrite any selected stage's
outputs without --force, and reads the manifest once; `run_stage` then runs
a stage on that corpus, writes the outputs only after the whole run has
returned, and leaves `meta/<stage>.json` describing the run. `pipeline` runs
the table's rows in order in-process, so its artifacts are byte-identical to
running the stages one by one. The subcommands, and the stage named when an
input is missing, come from the same table. A run reads every other input
through `read(name)`, once per stage, and `_read` reads each with the
artifact's one reader (`load_checkpoint` binds the checkpoint to the
taxonomy, `load_generated` checks a whole generated file), so this module
raises only configuration, missing-prerequisite and artifact-write errors.

A command exits 0 on success. Every failure is a `PipelineError`, logged
under its `label` and exiting with its `exit_code`, as `errors` declares.
"""

from __future__ import annotations

import argparse
import fcntl
import functools
import gc
import hashlib
import json
import logging
import os
import sys
import time
from collections.abc import Callable
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

# `classifier` and `synthetic` load numpy, which bootstrap and evaluate never
# use, and `bootstrap` is code that only bootstrap, train, predict and
# generate run: each is imported inside the functions that run it, so a
# stage's process loads only the code of that stage.
from . import guidance as guidance_mod
from . import metrics as metrics_mod
from .corpus import SPLITS, Corpus, load_features, load_manifest
from .errors import ArtifactWriteError, ConfigError, PipelineError, PrerequisiteError
from .fileio import json_text, read_json, write_atomic
from .gateway import GatewayConfig
from .guidance import GeneratorConfig
from .schema import ConfigSection

logger = logging.getLogger(__name__)


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------


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
class TrainConfig(ConfigSection):
    learning_rate: float = field(default=1e-2, metadata={"above": 0})
    epochs: int = field(default=200, metadata={"low": 1})
    batch_size: int = field(default=32, metadata={"low": 1})
    seed: int = field(default=0, metadata={"low": 0})
    tau: float = field(default=1.0, metadata={"low": 0})
    adjustment: str = field(default="on", metadata={"choices": ("on", "off")})


@dataclass(frozen=True)
class GuidanceConfig(ConfigSection):
    mode: str = field(default="image_and_label", metadata={"choices": guidance_mod.MODES})
    label_source: str = field(default="pred", metadata={"choices": guidance_mod.LABEL_SOURCES})
    threshold: float = field(default=0.5, metadata={"low": 0, "high": 1})
    split: str = field(default="test", metadata={"choices": SPLITS})
    generator: GeneratorConfig = field(default_factory=GeneratorConfig)

    @property
    def cell(self) -> tuple[str, str]:
        """The (mode, label source) cell to generate and evaluate: image_only
        prompts carry no labels, whatever label_source says."""
        return self.mode, "none" if self.mode == "image_only" else self.label_source


@dataclass(frozen=True)
class MetricsConfig(ConfigSection):
    enabled: list[str] = field(
        default_factory=lambda: list(metrics_mod.METRIC_NAMES),
        metadata={"choices": metrics_mod.METRIC_NAMES},
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
        raise ConfigError(f"config section {path!r} must be an object")
    known = {f.name for f in fields(cls)}
    for key in data:
        if key not in known:
            raise ConfigError(f"unknown config key {path + '.' + key!r}")
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
            raise ConfigError(f"unknown config section {name!r}")

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
            raise ConfigError(f"config key {dotted!r} does not name a field")
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw  # bare strings may be given unquoted
    node[leaf] = value


def config_fingerprint(config: PipelineConfig) -> str:
    doc = json.dumps(asdict(config), sort_keys=True)
    return hashlib.sha256(doc.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# Workdir bookkeeping
# ---------------------------------------------------------------------------


class _WorkdirLock:
    """Exclusive `flock` on the working directory's lock file, guarding it
    against concurrent pipeline commands. The kernel drops the lock when its
    holder exits, so a lock file left by a killed run is taken over."""

    def __init__(self, workdir: Path):
        self.path = workdir / ".lock"
        self._fd: int | None = None

    def __enter__(self):
        # A holder unlinks the file before releasing it, so a lock won on an
        # unlinked file means that holder just finished: open the path anew.
        for _ in range(2):
            try:
                fd = os.open(self.path, os.O_CREAT | os.O_WRONLY)
            except OSError as exc:
                raise ConfigError(f"cannot open lock file {self.path}: {exc}") from exc
            try:
                fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
            except BlockingIOError:
                os.close(fd)
                break
            try:
                current = os.stat(self.path).st_ino == os.fstat(fd).st_ino
            except FileNotFoundError:
                current = False
            if current:
                self._fd = fd
                try:
                    os.ftruncate(fd, 0)
                    os.write(fd, str(os.getpid()).encode("ascii"))
                except OSError as exc:
                    self.__exit__()
                    raise ConfigError(f"cannot write lock file {self.path}: {exc}") from exc
                return self
            os.close(fd)
        raise ConfigError(f"workdir is locked by another running command ({self.path})")

    def __exit__(self, *exc_info):
        # Unlink while still holding the lock (see __enter__).
        try:
            self.path.unlink()
        except FileNotFoundError:
            pass
        if self._fd is not None:
            os.close(self._fd)
            self._fd = None
        return False


def _read(name: str, config: PipelineConfig, corpus: Corpus, read: Callable[[str], object]):
    """One stage input: `features`, or a workdir artifact by its one reader,
    bound to `read("taxonomy.json")`. A missing artifact names the stage that
    writes it; the checkpoint is found before, and checked after, the labels."""
    if name == "features":
        return load_features(config.paths.features, corpus)
    if name == "labels.jsonl":
        taxonomy = read("taxonomy.json")
    path = Path(config.paths.workdir) / name
    if not path.exists():
        # With ablation, generate names every cell's file.
        producer = next(stage.name for stage in STAGES if name in stage.outputs(config, True))
        raise PrerequisiteError(
            f"missing {name} in {path.parent}; run `reportguide {producer}` first"
        )
    if name in ("taxonomy.json", "labels.jsonl"):
        from . import bootstrap as bootstrap_mod

        if name == "taxonomy.json":
            return bootstrap_mod.load_taxonomy(path)
        return bootstrap_mod.load_labels(path, corpus, taxonomy)
    if name == "checkpoint.json":
        from . import classifier as classifier_mod

        read("labels.jsonl")  # the labels are checked first
        return classifier_mod.load_checkpoint(path, read("taxonomy.json"))
    mode, source = config.guidance.cell
    return guidance_mod.load_generated(path, corpus, mode, source, config.guidance.split)


# ---------------------------------------------------------------------------
# Stages: each run function reads the corpus and, through `read`, its
# inputs, returns its outputs' text by name and writes nothing.
# ---------------------------------------------------------------------------


def _bootstrap(config: PipelineConfig, corpus: Corpus, ablation: bool, read) -> dict[str, str]:
    from . import bootstrap as bootstrap_mod

    dataset = bootstrap_mod.bootstrap_dataset(corpus, config.bootstrap, config.gateway)
    audit = bootstrap_mod.audit_taxonomy(dataset)
    logger.info(
        "bootstrap: %d labels, %d annotated records, %d skipped",
        len(dataset.taxonomy),
        len(dataset.items),
        len(dataset.skipped),
    )
    return {
        "taxonomy.json": bootstrap_mod.taxonomy_to_json(dataset.taxonomy),
        "labels.jsonl": bootstrap_mod.labels_to_jsonl(dataset),
        "audit.json": json_text(audit),
    }


def _train(config: PipelineConfig, corpus: Corpus, ablation: bool, read) -> dict[str, str]:
    from . import classifier as classifier_mod

    features = read("features")
    params = classifier_mod.train(read("labels.jsonl"), features, config.train)
    return {"checkpoint.json": classifier_mod.checkpoint_to_json(params)}


def _predict_split(config: PipelineConfig, corpus: Corpus, read):
    """Predict every record of `guidance.split`, in id order, with the
    workdir's checkpoint; returns the predictions by record id."""
    from . import classifier as classifier_mod

    features, params = read("features"), read("checkpoint.json")
    ids = sorted(rec.id for rec in corpus.split(config.guidance.split))
    return classifier_mod.predict_records(params, features, ids, config.guidance.threshold)


def _predict(config: PipelineConfig, corpus: Corpus, ablation: bool, read) -> dict[str, str]:
    from . import classifier as classifier_mod

    predictions = _predict_split(config, corpus, read)
    split = config.guidance.split
    positives = {rid: pred.positives for rid, pred in predictions.items()}
    items = read("labels.jsonl").split_items(split)
    scores = classifier_mod.evaluate_mlc(read("checkpoint.json").k, items, positives)
    logger.info(
        "predict: split=%s macro_f1=%.4f micro_f1=%.4f",
        split,
        scores["macro_f1"],
        scores["micro_f1"],
    )
    lines = [
        json.dumps({"id": rid, "positives": list(pred.positives),
                    "probs": [float(p) for p in pred.probabilities]}) + "\n"
        for rid, pred in predictions.items()
    ]
    return {"predictions.jsonl": "".join(lines), "mlc_metrics.json": json_text(scores)}


def _cells(config: PipelineConfig, ablation: bool) -> tuple[tuple[str, str], ...]:
    return guidance_mod.ABLATION_MODES if ablation else (config.guidance.cell,)


def _generate(config: PipelineConfig, corpus: Corpus, ablation: bool, read) -> dict[str, str]:
    g = config.guidance
    cells = _cells(config, ablation)
    sources = {source for _, source in cells}
    # image_only cells, whose source is "none", read neither the labels nor
    # the taxonomy. Each record is predicted once, however many cells read
    # `pred`; the checkpoint's reader reads the labels first.
    labels = {}
    if "pred" in sources:
        predictions = _predict_split(config, corpus, read)
        labels["pred"] = {rid: pred.positives for rid, pred in predictions.items()}
    if "gt" in sources:
        labels["gt"] = {item.record_id: item.positives for item in read("labels.jsonl").items}
    taxonomy = read("taxonomy.json") if labels else None
    return {
        guidance_mod.generated_filename(mode, source): guidance_mod.generated_to_jsonl(
            guidance_mod.run_generation(
                corpus, taxonomy, mode, source, labels.get(source, {}), g.generator, g.split
            )
        )
        for mode, source in cells
    }


def _evaluate(config: PipelineConfig, corpus: Corpus, ablation: bool, read) -> dict[str, str]:
    mode, source = config.guidance.cell
    split = config.guidance.split
    rows = read(guidance_mod.generated_filename(mode, source))
    report = metrics_mod.evaluate_generation(
        [(rec.id, row["report"], rec.report) for _, row, rec in rows],
        gateway=config.gateway,
        enabled=tuple(config.metrics.enabled),
        config_echo={
            "mode": mode,
            "label_source": source,
            "split": split,
            "threshold": config.guidance.threshold,
            "enabled": list(config.metrics.enabled),
        },
    )
    return {"metrics.json": json_text(report)}


@dataclass(frozen=True)
class Stage:
    """One row of the stage table. `outputs(config, ablation)` names the
    workdir files the stage writes; `run(config, corpus, ablation, read)`
    returns their text by name, reading each input through `read(name)`."""

    name: str
    help: str
    outputs: Callable[[PipelineConfig, bool], list[str]]
    run: Callable[[PipelineConfig, Corpus, bool, Callable[[str], object]], dict[str, str]]


# In pipeline order.
STAGES = (
    Stage("bootstrap", "extract, merge, annotate, and filter the label taxonomy",
          lambda config, ablation: ["taxonomy.json", "labels.jsonl", "audit.json"], _bootstrap),
    Stage("train", "fit the multi-label classifier head",
          lambda config, ablation: ["checkpoint.json"], _train),
    Stage("predict", "write label predictions and classifier metrics",
          lambda config, ablation: ["predictions.jsonl", "mlc_metrics.json"], _predict),
    Stage("generate", "generate reports for the configured mode",
          lambda config, ablation: [guidance_mod.generated_filename(m, s)
                                    for m, s in _cells(config, ablation)], _generate),
    Stage("evaluate", "score generated reports against references",
          lambda config, ablation: ["metrics.json"], _evaluate),
)


def run_stage(stage: Stage, config: PipelineConfig, corpus: Corpus, ablation: bool) -> None:
    """Run one stage on `corpus`: build all its outputs, then write each and
    record the run in `meta/<name>.json`. A stage that fails writes nothing."""
    started = time.time()
    workdir = Path(config.paths.workdir)
    names = stage.outputs(config, ablation)
    # The run reads each input once. The feature matrix, the largest, has one
    # use in a stage, so it is not kept past it; nothing is kept past the run.
    memo = functools.cache(lambda name: _read(name, config, corpus, read))
    read = lambda name: memo(name) if name != "features" else _read(name, config, corpus, read)
    outputs = stage.run(config, corpus, ablation, read)
    memo.cache_clear()
    try:
        (workdir / "meta").mkdir(exist_ok=True)
    except OSError as exc:
        raise ArtifactWriteError(f"cannot create {workdir / 'meta'}: {exc}") from exc
    for name in names:
        write_atomic(workdir / name, outputs[name])
    logger.info("%s: wrote %s", stage.name, ", ".join(names))
    meta = {
        "command": stage.name,
        "config_sha256": config_fingerprint(config),
        "gateway_model": config.gateway.model,
        "gateway_backend": config.gateway.backend,
        "started_unix": round(started, 3),
        "finished_unix": round(time.time(), 3),
    }
    write_atomic(workdir / "meta" / f"{stage.name}.json", json_text(meta))


# ---------------------------------------------------------------------------
# Argument handling
# ---------------------------------------------------------------------------


# Named flags of every stage command, each an alias of `--set <key>=VALUE`:
# its value is parsed and checked as that override's would be.
FLAG_ALIASES = (
    ("--workdir", "paths.workdir"),
    ("--mode", "guidance.mode"),
    ("--label-source", "guidance.label_source"),
    ("--threshold", "guidance.threshold"),
    ("--seed", "train.seed"),
    ("--backend", "gateway.backend"),
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="reportguide",
        description="Bootstrapped finding labels, a long-tail classifier, and "
        "label-guided report generation, staged over plain files.",
    )
    parser.add_argument("--verbose", action="store_true", help="debug logging")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser):
        p.add_argument("--config", help="path to the JSON config file")
        p.add_argument("--force", action="store_true", help="overwrite existing artifacts")
        for flag, key in FLAG_ALIASES:
            p.add_argument(flag, dest=key, metavar="VALUE", help=f"alias of --set {key}=VALUE")
        p.add_argument(
            "--set",
            dest="overrides",
            action="append",
            default=[],
            metavar="KEY=VALUE",
            help="override any config field by dotted path, e.g. --set train.epochs=50",
        )

    for name, help_text in [(stage.name, stage.help) for stage in STAGES] + [
        ("pipeline", "run all five stages in sequence")
    ]:
        p = sub.add_parser(name, help=help_text)
        add_common(p)
        if name == "generate":
            p.add_argument(
                "--ablation",
                action="store_true",
                help="generate every mode/label-source combination",
            )

    synth = sub.add_parser("synth", help="write the bundled synthetic corpus")
    synth.add_argument("--out", required=True, help="output directory")
    synth.add_argument("--seed", type=int, default=None, help="generation seed")
    return parser


def _collect_overrides(args: argparse.Namespace) -> list[tuple[str, str]]:
    overrides = [
        (key, getattr(args, key)) for _, key in FLAG_ALIASES if getattr(args, key, None) is not None
    ]
    for item in getattr(args, "overrides", []):
        if "=" not in item:
            raise ConfigError(f"--set expects KEY=VALUE, got {item!r}")
        key, _, value = item.partition("=")
        overrides.append((key.strip(), value))
    return overrides


def main(argv: list[str] | None = None) -> int:
    """Run one command; return its exit code.

    The corpus lives until the command ends, so the cyclic collector is
    paused while the manifest is parsed and everything alive then is frozen
    out of later collections. The collector is left as it was found:
    enabled or not, and with the objects it had frozen, if any, and no more.
    """
    args, extra = _build_parser().parse_known_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )
    gc_was_enabled = gc.isenabled()
    freeze = gc.get_freeze_count() == 0
    try:
        if extra:
            raise ConfigError(f"unrecognized argument {extra[0]!r}")
        if args.command == "synth":
            if args.seed is not None and args.seed < 0:
                raise ConfigError(f"synth --seed must be >= 0, got {args.seed}")
            out = Path(args.out)
            try:
                out.mkdir(parents=True, exist_ok=True)
            except OSError as exc:
                raise ConfigError(f"cannot use output directory {out}: {exc}") from exc
            from .synthetic import write_synthetic_corpus

            kwargs = {} if args.seed is None else {"seed": args.seed}
            synth = write_synthetic_corpus(out, **kwargs)
            print(
                f"wrote {len(synth.corpus)} records and "
                f"{synth.features.rows}x{synth.features.dim} features to {args.out}"
            )
            return 0

        overrides = _collect_overrides(args)
        config = load_config(args.config, overrides)
        workdir = Path(config.paths.workdir)
        try:
            workdir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot use workdir {workdir}: {exc}") from exc
        ablation = getattr(args, "ablation", False)
        # `pipeline` runs every stage in order inside one workdir lock, and
        # only once none of their outputs would be overwritten.
        stages = [stage for stage in STAGES if args.command in ("pipeline", stage.name)]
        with _WorkdirLock(workdir):
            names = [name for stage in stages for name in stage.outputs(config, ablation)]
            existing = [str(workdir / name) for name in names if (workdir / name).exists()]
            if existing and not args.force:
                raise ConfigError(
                    f"refusing to overwrite existing artifacts: {', '.join(existing)}; "
                    f"pass --force to redo"
                )
            gc.disable()
            try:
                corpus = load_manifest(config.paths.manifest)
            finally:
                if gc_was_enabled:
                    gc.enable()
            if freeze:
                gc.freeze()
            for stage in stages:
                run_stage(stage, config, corpus, ablation)
        return 0
    except PipelineError as exc:
        logger.error("%s: %s", exc.label, exc)
        return exc.exit_code
    finally:
        if freeze:
            gc.unfreeze()


def entry() -> None:
    code = main(sys.argv[1:])
    # Nothing is freed before exit: spare the shutdown collection a walk
    # over every object still alive.
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    entry()
