"""Guidance prompts and report generation.

Predicted (or ground-truth) labels are serialized into a fixed natural
language template that a multimodal generator consumes alongside the images.
Generation itself is pluggable: a deterministic mock for offline runs, an
external command spawned per record, or an OpenAI-compatible HTTP endpoint.
"""

from __future__ import annotations

import json
import logging
from dataclasses import InitVar, dataclass, field, replace
from pathlib import Path
from typing import TYPE_CHECKING

from .corpus import Corpus, ReportRecord, read_record_rows
from .errors import ConfigError, DataError, GeneratedFileError, GenerationError
from .gateway import ChatRequest, GatewayConfig, complete
from .schema import check_fields

if TYPE_CHECKING:
    from .bootstrap import LabelTaxonomy

logger = logging.getLogger(__name__)

MODES = ("image_only", "label_only", "image_and_label")
LABEL_SOURCES = ("gt", "pred")

# The guidance template. Both label-bearing modes share it verbatim; the
# image-only ablation keeps just the instruction sentence.
_FINDINGS_TEMPLATE = (
    "The image shows the following findings: {findings}. "
    "Based on these findings and the image, generate a detailed diagnostic report."
)
_NO_FINDINGS_TEMPLATE = (
    "The image shows no salient findings listed. "
    "Based on the image, generate a detailed diagnostic report."
)
_IMAGE_ONLY_TEMPLATE = "Based on the image, generate a detailed diagnostic report."


@dataclass(frozen=True)
class GuidancePrompt:
    label_source: str  # "gt", "pred", or "none" for image_only
    label_names: tuple[str, ...]
    text: str
    image_paths: tuple[str, ...]


def serialize_labels(
    positives: tuple[int, ...] | list[int],
    taxonomy: LabelTaxonomy | None,
    mode: str = "image_and_label",
    label_source: str = "pred",
    record: ReportRecord | None = None,
) -> GuidancePrompt:
    """Render a label vector into a guidance prompt.

    Labels appear in ascending taxonomy index order, comma separated. The
    prompt text depends only on the positives, the taxonomy names, and the
    mode; ground-truth and predicted labels share this exact code path. An
    image_only prompt carries no label content, whatever it is given, and
    reads no taxonomy.
    """
    if mode not in MODES:
        raise ConfigError(f"unknown guidance mode {mode!r}")
    if mode == "image_only":
        label_source, names, text = "none", (), _IMAGE_ONLY_TEMPLATE
    else:
        if label_source not in LABEL_SOURCES:
            raise ConfigError(
                f"label source must be one of {LABEL_SOURCES}, got {label_source!r}"
            )
        ordered = sorted(set(int(j) for j in positives))
        k = len(taxonomy)
        for j in ordered:
            if not 0 <= j < k:
                raise ConfigError(f"label index {j} outside taxonomy of size {k}")
        names = tuple(taxonomy.labels[j].name for j in ordered)
        if names:
            text = _FINDINGS_TEMPLATE.format(findings=", ".join(names))
        else:
            text = _NO_FINDINGS_TEMPLATE
    # label_only is the ablation's no-image condition: its requests name no image.
    image_paths = (
        tuple(im.path for im in record.images)
        if record is not None and mode != "label_only"
        else ()
    )
    return GuidancePrompt(
        label_source=label_source, label_names=names, text=text, image_paths=image_paths
    )


# ---------------------------------------------------------------------------
# Generation backends
# ---------------------------------------------------------------------------


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


_GENERATION_SYSTEM_PROMPT = (
    "You are a radiology reporting assistant. Write the diagnostic report "
    "requested by the user, using the listed findings when given."
)


def mock_phrase(label_name: str) -> str:
    """Fixed phrase expansion for one label name."""
    return f"{label_name.lower()} is present."


def _mock_generate(prompt: GuidancePrompt) -> str:
    if not prompt.label_names:
        return "Findings: no abnormality described."
    return "Findings: " + " ".join(mock_phrase(name) for name in prompt.label_names)


def _command_generate(prompt: GuidancePrompt, config: GeneratorConfig) -> str:
    import subprocess  # here, so that only a command generator's process loads it

    request_line = json.dumps(
        {"prompt": prompt.text, "images": list(prompt.image_paths)}, ensure_ascii=False
    )
    try:
        proc = subprocess.run(
            config.command,
            shell=True,
            input=request_line + "\n",
            capture_output=True,
            text=True,
            timeout=300,
        )
    except (OSError, subprocess.SubprocessError) as exc:
        raise GenerationError(f"generator command failed to run: {exc}") from exc
    if proc.returncode != 0:
        raise GenerationError(
            f"generator command exited with {proc.returncode}: {proc.stderr.strip()[:500]}"
        )
    try:
        payload = json.loads(proc.stdout.strip().splitlines()[-1])
        report = payload["report"]
    except (ValueError, LookupError, IndexError) as exc:
        raise GenerationError(
            f"generator command wrote no parseable report line: {exc}"
        ) from exc
    if not isinstance(report, str):
        raise GenerationError("generator command returned a non-string report")
    return report


def _http_generate(prompt: GuidancePrompt, config: GeneratorConfig) -> str:
    user = prompt.text
    if prompt.image_paths:
        user += "\n\nImages: " + ", ".join(prompt.image_paths)
    response = complete(
        ChatRequest(system=_GENERATION_SYSTEM_PROMPT, user=user), config.gateway
    )
    return response.text


def generate_report(prompt: GuidancePrompt, config: GeneratorConfig) -> str:
    """Produce one report from one prompt through the configured backend."""
    if config.backend == "mock":
        return _mock_generate(prompt)
    if config.backend == "command":
        return _command_generate(prompt, config)
    return _http_generate(prompt, config)


# ---------------------------------------------------------------------------
# Generation over the ablation grid
# ---------------------------------------------------------------------------

# The full ablation grid: prompt mode paired with where labels come from.
ABLATION_MODES: tuple[tuple[str, str], ...] = (
    ("image_only", "none"),
    ("label_only", "pred"),
    ("image_and_label", "pred"),
    ("label_only", "gt"),
    ("image_and_label", "gt"),
)


def mode_tag(mode: str, label_source: str) -> str:
    return mode if label_source == "none" else f"{mode}-{label_source}"


def generated_filename(mode: str, label_source: str) -> str:
    return f"generated-{mode_tag(mode, label_source)}.jsonl"


def run_generation(
    corpus: Corpus,
    taxonomy: LabelTaxonomy | None,
    mode: str,
    label_source: str,
    labels: dict[str, tuple[int, ...]],
    generator: GeneratorConfig,
    split: str = "test",
) -> list[dict]:
    """Generate reports for one (mode, label source) cell of the ablation.

    `labels` maps each record id of the split to its positives from
    `label_source`; image_only cells read none, and no taxonomy either. A
    record of the split with no entry is a data error: no stage can supply
    it. Output rows are ordered by record id. Each row carries the prompt
    that produced it so downstream evaluation never has to re-derive prompts.
    """
    rows: list[dict] = []
    for rec in sorted(corpus.split(split), key=lambda r: r.id):
        positives = () if mode == "image_only" else labels.get(rec.id)
        if positives is None:
            raise DataError(
                f"record {rec.id!r} of split {split!r} has no {label_source} label vector"
            )
        prompt = serialize_labels(
            positives, taxonomy, mode=mode, label_source=label_source, record=rec
        )
        report = generate_report(prompt, generator)
        rows.append(
            {
                "id": rec.id,
                "mode": mode,
                "label_source": prompt.label_source,
                "prompt": prompt.text,
                "report": report,
            }
        )
    return rows


def generated_to_jsonl(rows: list[dict]) -> str:
    """Generated rows as the JSON lines `load_generated` reads back."""
    return "".join(json.dumps(row, ensure_ascii=False) + "\n" for row in rows)


def load_generated(
    path: str | Path, corpus: Corpus, mode: str, label_source: str, split: str
) -> list[tuple[int, dict, ReportRecord]]:
    """The rows of one cell's generated file in file order, each with its line
    number and record. Each row has a string `report` and `prompt`, carries
    the cell's `mode` and `label_source` and names a record of `split`, once;
    every record of the split has a row. So a cell is scored over exactly the
    split's records, and only over rows that its own prompts produced."""
    what = f"generated file {path}"
    rows = []
    for lineno, obj, rec in read_record_rows(path, corpus, GeneratedFileError, what):
        where = f"{what} line {lineno}"
        for key in ("report", "prompt"):
            if type(obj.get(key)) is not str:
                raise GeneratedFileError(f"{where}: {key} must be a string")
        if obj.get("mode") != mode or obj.get("label_source") != label_source:
            raise GeneratedFileError(
                f"{where}: mode and label_source are {obj.get('mode')!r} and "
                f"{obj.get('label_source')!r}, not {mode!r} and {label_source!r}"
            )
        if rec.split != split:
            raise GeneratedFileError(
                f"{where}: record {rec.id!r} is in split {rec.split!r}, not {split!r}"
            )
        rows.append((lineno, obj, rec))
    expected = corpus.split(split)
    missing = sorted({rec.id for rec in expected} - {rec.id for _, _, rec in rows})
    if missing:
        raise GeneratedFileError(
            f"{what} lacks {len(missing)} of the {len(expected)} records "
            f"of split {split!r}, first {', '.join(map(repr, missing[:3]))}"
        )
    return rows
