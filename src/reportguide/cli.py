"""Command-line pipeline orchestrator: arguments, the workdir lock, the
lineage checks and the stage table. `schema` declares and loads the config.

The five stages are the rows of one table, `STAGES`: each names the record
fields it reads, the workdir files it writes and a run function that
returns their text and writes nothing. Each stage command reads one JSON
config file, validates it, takes a lock on the working directory, refuses
to overwrite any selected stage's outputs without --force, and reads the
manifest once, keeping only the fields its stages read, from the workdir's
manifest snapshot when that is current; `run_stage` then runs
a stage on that corpus, writes the outputs only after the whole run has
returned, and leaves `meta/<stage>.json` describing the run and what it was
made from. `pipeline` runs the table's rows in order in-process, so its
artifacts are byte-identical to running the stages one by one. A command
that succeeds and keeps the reports writes the snapshot if it was missing
or stale. The
subcommands, and the stage named when an input is missing, come from the
same table. A run reads every other input through `read(name)`, once per
stage, and `_read` reads each with the artifact's one reader
(`load_checkpoint` binds the checkpoint to the taxonomy, `load_generated`
checks a whole generated file), so this module raises only configuration,
missing-prerequisite and artifact-write errors. A stage that writes a
labels, predictions or generated file leaves its rows twin
(`corpus.rows_twin`) at `twin_path`, keyed by what the file's reader checks
it against (`_labels_key`, `_cell_key`), and `_read` rebuilds such a file
from a current twin instead of its reader.

A command exits 0 on success. Every failure is a `PipelineError`, logged
under its `label` and exiting with its `exit_code`, as `errors` declares.
"""

from __future__ import annotations

import argparse
import fcntl
import gc
import hashlib
import json
import logging
import os
import sys
import time
from collections.abc import Callable
from pathlib import Path
from typing import NamedTuple

# `classifier` and `synthetic` load numpy, which only train, predict and
# synth use, `bootstrap` is code that only bootstrap, train, predict and
# generate run, and `metrics` is code that only evaluate runs: each is
# imported inside the functions that run it, so a stage's process loads
# only the code of that stage.
from . import guidance as guidance_mod
from .corpus import (
    Corpus,
    Twin,
    load_features,
    load_manifest,
    rows_from_twin,
    rows_twin,
    save_snapshot,
    save_twin,
)
from .errors import ConfigError, DataError, PipelineError, PrerequisiteError
from .fileio import json_text, read_json, write_atomic
from .schema import PipelineConfig, as_dict, config_fingerprint, load_config

logger = logging.getLogger(__name__)


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


# The workdir's snapshot of the checked manifest: written once a command
# that keeps the reports succeeds, so later commands on the same manifest
# bytes skip the JSONL.
SNAPSHOT = Path("meta") / "manifest.snapshot"


def twin_path(name: str) -> Path:
    """Where, in the workdir, the stage that writes artifact `name` leaves
    its twin: the checked values it was written from, so later stages skip
    decoding it."""
    return Path("meta") / f"{name}.twin"


def _labels_key(taxonomy) -> str:
    """The reader's part of the key of a labels or predictions file's rows
    twin: the taxonomy that `load_labels` checks each vector against."""
    from .bootstrap import taxonomy_fingerprint

    return f"taxonomy {taxonomy_fingerprint(taxonomy)}"


def _cell_key(mode: str, label_source: str, split: str) -> str:
    """The reader's part of the key of a generated file's rows twin: the
    cell that `load_generated` checks each row against."""
    return f"cell {mode!r} {label_source!r} {split!r}"


def _producer(name: str, config: PipelineConfig) -> str | None:
    """The stage that writes workdir file `name`; with ablation, generate
    writes every cell's file."""
    return next((stage.name for stage in STAGES if name in stage.outputs(config, True)), None)


def _last_run(config: PipelineConfig, stage: str | None) -> dict:
    """`meta/<stage>.json`, the record of the stage's last run, or {}."""
    path = Path(config.paths.workdir) / "meta" / f"{stage}.json"
    try:
        return read_json(path, PrerequisiteError, str(path))
    except PrerequisiteError:
        return {}


def _written_sha256(name: str, config: PipelineConfig) -> str | None:
    """The sha256 of workdir file `name` as its stage's last run recorded it."""
    outputs = _last_run(config, _producer(name, config)).get("outputs")
    return outputs.get(name) if isinstance(outputs, dict) else None


def _check_predictions(config: PipelineConfig) -> None:
    """Refuse pred labels that predict's last run made for another split or
    threshold, or from a taxonomy, labels or checkpoint that the workdir no
    longer holds: a pred cell renders them as they are."""
    workdir, run = Path(config.paths.workdir), _last_run(config, "predict")
    made, inputs = run.get("config"), run.get("inputs")
    made = made.get("guidance") if isinstance(made, dict) else None
    if not isinstance(made, dict) or not isinstance(inputs, dict):
        stale = [f"{workdir / 'meta' / 'predict.json'} does not record the run that wrote it"]
    else:
        wanted = {"split": config.guidance.split, "threshold": config.guidance.threshold}
        stale = [f"it was made for {key} {made.get(key)!r}, not {value!r}"
                 for key, value in wanted.items() if made.get(key) != value]
        stale += [f"{name} has been rewritten since predict read it"
                  for name, sha in inputs.items() if sha != _written_sha256(name, config)]
    if stale:
        raise PrerequisiteError(
            f"stale predictions.jsonl in {workdir}: {stale[0]}; run `reportguide predict` first"
        )


def _read(
    name: str, config: PipelineConfig, corpus: Corpus, read: Callable[[str], object],
    checked: list[str],
):
    """One stage input: `features`, or a workdir artifact by its one reader,
    bound to `read("taxonomy.json")`; `predictions.jsonl` is read by the
    labels reader, once `_check_predictions` has found it current. A missing
    artifact names the stage that writes it. The taxonomy is read before the
    labels are looked for, and after the predictions are, so a missing
    predictions file names `predict`; the checkpoint is found before, and
    checked after, the labels. A labels, predictions or generated file is
    rebuilt from the rows of its twin when that is current
    (`corpus.rows_from_twin`); otherwise its reader decodes and checks it,
    and its name is added to `checked`."""
    if name == "features":
        return load_features(config.paths.features, corpus)
    if name == "labels.jsonl":
        read("taxonomy.json")
    path = Path(config.paths.workdir) / name
    if not path.exists():
        raise PrerequisiteError(
            f"missing {name} in {path.parent}; run `reportguide {_producer(name, config)}` first"
        )
    if name == "predictions.jsonl":
        _check_predictions(config)
    if name == "taxonomy.json":
        from .bootstrap import load_taxonomy

        return load_taxonomy(path)
    if name == "checkpoint.json":
        from . import classifier as classifier_mod

        read("labels.jsonl")  # the labels are checked first
        return classifier_mod.load_checkpoint(path, read("taxonomy.json"))
    # A twinned file: rebuilt from its twin's rows, or decoded and checked.
    labels = name in ("labels.jsonl", "predictions.jsonl")
    if labels:
        from . import bootstrap as bootstrap_mod

        taxonomy = read("taxonomy.json")
        key = _labels_key(taxonomy)
    else:
        cell = (*config.guidance.cell, config.guidance.split)
        key = _cell_key(*cell)
    rows = rows_from_twin(path.parent / twin_path(name), path, corpus, key)
    if rows is None:
        checked.append(name)
        if labels:
            return bootstrap_mod.load_labels(path, corpus, taxonomy, name.partition(".")[0])
        return guidance_mod.load_generated(path, corpus, *cell)
    return bootstrap_mod.labels_dataset(taxonomy, rows) if labels else list(rows)


# ---------------------------------------------------------------------------
# Stages: each run function reads the corpus and, through `read`, its
# inputs, returns each output's text and twin (None for a file with none)
# by name, and writes nothing.
# ---------------------------------------------------------------------------

# An output's text and its twin, if it has one.
Output = tuple[str, Twin | None]


def _bootstrap(config: PipelineConfig, corpus: Corpus, ablation: bool, read) -> dict[str, Output]:
    from . import bootstrap as bootstrap_mod

    dataset = bootstrap_mod.bootstrap_dataset(corpus, config.bootstrap, config.gateway)
    audit = bootstrap_mod.audit_taxonomy(dataset)
    logger.info(
        "bootstrap: %d labels, %d annotated records, %d skipped",
        len(dataset.taxonomy),
        len(dataset.items),
        len(dataset.skipped),
    )
    ids = [item.record_id for item in dataset.items]
    vectors = [item.positives for item in dataset.items]
    return {
        "taxonomy.json": (bootstrap_mod.taxonomy_to_json(dataset.taxonomy), None),
        "labels.jsonl": (
            bootstrap_mod.labels_to_jsonl(dataset),
            rows_twin(corpus, _labels_key(dataset.taxonomy), ids, vectors),
        ),
        "audit.json": (json_text(audit), None),
    }


def _train(config: PipelineConfig, corpus: Corpus, ablation: bool, read) -> dict[str, Output]:
    from . import classifier as classifier_mod

    features = read("features")
    params = classifier_mod.train(read("labels.jsonl"), features, config.train)
    return {"checkpoint.json": (classifier_mod.checkpoint_to_json(params), None)}


def _predict(config: PipelineConfig, corpus: Corpus, ablation: bool, read) -> dict[str, Output]:
    """Predict every record of `guidance.split`, in id order, with the
    workdir's checkpoint, and score the predictions against its labels."""
    from . import classifier as classifier_mod

    features, params = read("features"), read("checkpoint.json")
    split = config.guidance.split
    ids = sorted(rec.id for rec in corpus.split(split))
    predictions = classifier_mod.predict_records(params, features, ids, config.guidance.threshold)
    positives = {rid: pred.positives for rid, pred in predictions.items()}
    items = read("labels.jsonl").split_items(split)
    scores = classifier_mod.evaluate_mlc(params.k, items, positives)
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
    key = _labels_key(read("taxonomy.json"))
    twin = rows_twin(corpus, key, list(positives), list(positives.values()))
    return {
        "predictions.jsonl": ("".join(lines), twin),
        "mlc_metrics.json": (json_text(scores), None),
    }


def _cells(config: PipelineConfig, ablation: bool) -> tuple[tuple[str, str], ...]:
    return guidance_mod.ABLATION_MODES if ablation else (config.guidance.cell,)


def _generate(config: PipelineConfig, corpus: Corpus, ablation: bool, read) -> dict[str, Output]:
    g = config.guidance
    cells = _cells(config, ablation)
    sources = {source for _, source in cells}
    # Each source's labels file; image_only cells, whose source is "none",
    # read none, nor the taxonomy. A missing labels.jsonl is named first.
    labels = {
        source: {item.record_id: item.positives for item in read(name).items}
        for source, name in (("gt", "labels.jsonl"), ("pred", "predictions.jsonl"))
        if source in sources
    }
    taxonomy = read("taxonomy.json") if labels else None
    outputs: dict[str, Output] = {}
    for mode, source in cells:
        rows = guidance_mod.run_generation(
            corpus, taxonomy, mode, source, labels.get(source, {}), g.generator, g.split
        )
        outputs[guidance_mod.generated_filename(mode, source)] = (
            guidance_mod.generated_to_jsonl(rows),
            rows_twin(corpus, _cell_key(mode, source, g.split), [row["id"] for row in rows],
                      [row["report"] for row in rows]),
        )
    return outputs


def _evaluate(config: PipelineConfig, corpus: Corpus, ablation: bool, read) -> dict[str, Output]:
    from . import metrics as metrics_mod

    mode, source = config.guidance.cell
    rows = read(guidance_mod.generated_filename(mode, source))
    report = metrics_mod.evaluate_generation(
        [(rec.id, generated, rec.report) for rec, generated in rows],
        gateway=config.gateway,
        enabled=tuple(config.metrics.enabled),
        config_echo={
            "mode": mode,
            "label_source": source,
            "split": config.guidance.split,
            "enabled": list(config.metrics.enabled),
        },
    )
    return {"metrics.json": (json_text(report), None)}


class Stage(NamedTuple):
    """One row of the stage table. `fields` names the record fields that
    `run` reads besides id and split, the only ones its process keeps;
    `outputs(config, ablation)` names the workdir files the stage writes;
    `run(config, corpus, ablation, read)` returns, by name, the text of each
    and its twin or None, reading each input through `read(name)`."""

    name: str
    help: str
    fields: tuple[str, ...]
    outputs: Callable[[PipelineConfig, bool], list[str]]
    run: Callable[[PipelineConfig, Corpus, bool, Callable[[str], object]], dict[str, Output]]


# In pipeline order.
STAGES = (
    Stage("bootstrap", "extract, merge, annotate, and filter the label taxonomy", ("report",),
          lambda config, ablation: ["taxonomy.json", "labels.jsonl", "audit.json"], _bootstrap),
    Stage("train", "fit the multi-label classifier head", (),
          lambda config, ablation: ["checkpoint.json"], _train),
    Stage("predict", "write label predictions and classifier metrics", (),
          lambda config, ablation: ["predictions.jsonl", "mlc_metrics.json"], _predict),
    Stage("generate", "generate reports for the configured mode", ("images",),
          lambda config, ablation: [guidance_mod.generated_filename(m, s)
                                    for m, s in _cells(config, ablation)], _generate),
    Stage("evaluate", "score generated reports against references", ("report",),
          lambda config, ablation: ["metrics.json"], _evaluate),
)


def run_stage(stage: Stage, config: PipelineConfig, corpus: Corpus, ablation: bool) -> None:
    """Run one stage on `corpus`: build all its outputs, then write each,
    then the twins of those that have one, and record the run in
    `meta/<name>.json`: its effective config, the sha256 of each output, for
    each workdir file it read the sha256 that file's stage recorded writing,
    which inputs it decoded and checked for want of a current twin or
    snapshot (`checked`, the manifest included), and (`corpus`) the sha256
    of the manifest bytes and, if it read them, of the feature file. A stage
    that fails writes nothing."""
    started = time.time()
    workdir = Path(config.paths.workdir)
    names = stage.outputs(config, ablation)
    # The run reads each input once. The feature matrix, the largest, has one
    # use in a stage, so it is not kept past it; nothing is kept past the run.
    inputs: dict[str, object] = {}
    lineage = {"manifest_sha256": corpus.manifest_sha256}
    checked = ["manifest"] if corpus.decoded else []

    def read(name: str):
        if name == "features":
            features = _read(name, config, corpus, read, checked)
            lineage["features_sha256"] = features.sha256
            return features
        if name not in inputs:
            inputs[name] = _read(name, config, corpus, read, checked)
        return inputs[name]

    outputs = stage.run(config, corpus, ablation, read)
    made_from = {name: _written_sha256(name, config) for name in inputs}
    inputs.clear()
    try:
        (workdir / "meta").mkdir(exist_ok=True)
    except OSError as exc:
        raise DataError(f"cannot create {workdir / 'meta'}: {exc}") from exc
    written, twins = {}, {}
    for name in names:
        text, twins[name] = outputs[name]
        data = text.encode("utf-8")
        write_atomic(workdir / name, data)
        written[name] = hashlib.sha256(data).hexdigest()
    for name, twin in twins.items():
        if twin is not None:
            save_twin(workdir / twin_path(name), twin.key, written[name], twin.values)
    logger.info("%s: wrote %s", stage.name, ", ".join(names))
    meta = {
        "command": stage.name,
        "config_sha256": config_fingerprint(config),
        "config": as_dict(config),
        "inputs": made_from,
        "checked": checked,
        "corpus": lineage,
        "outputs": written,
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
                fields = {name for stage in stages for name in stage.fields}
                corpus = load_manifest(config.paths.manifest, fields, workdir / SNAPSHOT)
            finally:
                if gc_was_enabled:
                    gc.enable()
            if freeze:
                gc.freeze()
            for stage in stages:
                run_stage(stage, config, corpus, ablation)
            save_snapshot(corpus)
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
