"""Guidance prompts and report generation.

Predicted (or ground-truth) labels are serialized into a fixed natural
language template that a multimodal generator consumes alongside the images.
Generation itself is pluggable: a deterministic mock for offline runs, an
external command spawned per record, or an OpenAI-compatible HTTP endpoint.
`GeneratorConfig`, `MODES` and `LABEL_SOURCES` are declared in `schema`.
"""

from __future__ import annotations

import json
import logging
from json.encoder import encode_basestring
from pathlib import Path
from typing import TYPE_CHECKING, NamedTuple

from .corpus import Corpus, ReportRecord, read_record_rows
from .errors import DataError, GatewayError
from .fileio import lone_surrogate
from .gateway import ChatRequest, complete
from .schema import GeneratorConfig

if TYPE_CHECKING:
    from .bootstrap import LabelTaxonomy

logger = logging.getLogger(__name__)

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


class GuidancePrompt(NamedTuple):
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

    Labels appear in the vector's order, comma separated: `load_labels`
    passes only strictly ascending vectors of taxonomy indices, and the
    config's choices fix `mode` and `label_source`. The prompt text depends
    only on the positives, the taxonomy names, and the mode; ground-truth
    and predicted labels share this exact code path. An image_only prompt
    carries no label content, whatever it is given, and reads no taxonomy.
    """
    if mode == "image_only":
        label_source, names, text = "none", (), _IMAGE_ONLY_TEMPLATE
    else:
        names = tuple(taxonomy.labels[j].name for j in positives)
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
            input=(request_line + "\n").encode("utf-8"),
            capture_output=True,
            timeout=300,
        )
    except (OSError, subprocess.SubprocessError) as exc:
        raise GatewayError(f"generator command failed to run: {exc}") from exc
    if proc.returncode != 0:
        stderr = proc.stderr.decode("utf-8", "replace")
        raise GatewayError(
            f"generator command exited with {proc.returncode}: {stderr.strip()[:500]}"
        )
    try:
        # Output that is not UTF-8 raises UnicodeDecodeError, a ValueError.
        payload = json.loads(proc.stdout.decode("utf-8").strip().splitlines()[-1])
        report = payload["report"]
    except (ValueError, LookupError, IndexError, RecursionError) as exc:
        raise GatewayError(
            f"generator command wrote no parseable report line: {exc}"
        ) from exc
    if not isinstance(report, str):
        raise GatewayError("generator command returned a non-string report")
    if char := lone_surrogate(report):
        raise GatewayError(f"generator command returned the lone surrogate {char!r}")
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
    record of the split with no entry is a data error: its labels file has
    no row for it. Output rows are ordered by record id. Each row carries
    the prompt that produced it so downstream evaluation never has to
    re-derive prompts.
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
    """Generated rows, as `run_generation` builds them, as the JSON lines
    `load_generated` reads back: keys id, mode, label_source, prompt and
    report, each a string. Each line is the bytes that
    `json.dumps(row, ensure_ascii=False)` writes, non-ASCII text raw, built
    from the C string encoder that call uses, with no encoder made per row."""
    return "".join([
        f'{{"id": {encode_basestring(row["id"])}, "mode": {encode_basestring(row["mode"])}, '
        f'"label_source": {encode_basestring(row["label_source"])}, '
        f'"prompt": {encode_basestring(row["prompt"])}, '
        f'"report": {encode_basestring(row["report"])}}}\n'
        for row in rows
    ])


def load_generated(
    path: str | Path, corpus: Corpus, mode: str, label_source: str, split: str
) -> list[tuple[ReportRecord, str]]:
    """The (record, generated report) of each row of one cell's generated
    file, in file order. Each row has a string `report` and `prompt`,
    carries the cell's `mode` and `label_source` and names a record of
    `split`, once; every record of the split has a row. So a cell is scored
    over exactly the split's records, and only over rows that its own
    prompts produced."""
    what = f"generated file {path}"
    rows = []
    for lineno, obj, rec in read_record_rows(path, corpus, DataError, what):
        where = f"{what} line {lineno}"
        for key in ("report", "prompt"):
            if type(obj.get(key)) is not str:
                raise DataError(f"{where}: {key} must be a string")
        if obj.get("mode") != mode or obj.get("label_source") != label_source:
            raise DataError(
                f"{where}: mode and label_source are {obj.get('mode')!r} and "
                f"{obj.get('label_source')!r}, not {mode!r} and {label_source!r}"
            )
        if rec.split != split:
            raise DataError(
                f"{where}: record {rec.id!r} is in split {rec.split!r}, not {split!r}"
            )
        rows.append((rec, obj["report"]))
    expected = corpus.split(split)
    missing = sorted({rec.id for rec in expected} - {rec.id for rec, _ in rows})
    if missing:
        raise DataError(
            f"{what} lacks {len(missing)} of the {len(expected)} records "
            f"of split {split!r}, first {', '.join(map(repr, missing[:3]))}"
        )
    return rows
