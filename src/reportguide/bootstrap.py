"""Taxonomy bootstrap: turn raw report text into a multi-label dataset.

Three gateway-backed steps. Batched extraction proposes finding names,
iterative merging consolidates them under a token budget, and closed
vocabulary annotation assigns the merged labels to every report. A final
frequency filter drops labels too rare in the training split to learn.
"""

from __future__ import annotations

import difflib
import functools
import hashlib
import json
import logging
from collections import Counter
from dataclasses import dataclass, field
from importlib import resources
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import TYPE_CHECKING

from .corpus import Corpus, read_record_rows
from .errors import (
    BootstrapError,
    EmptyTaxonomyError,
    LLMOutputError,
    MergeBudgetError,
    MergeProgressError,
)
from .fileio import json_text, read_json
from .gateway import (
    ChatRequest,
    GatewayConfig,
    complete_with_reprompt,
    estimate_tokens,
    map_calls,
    map_distinct_texts,
    parse_string_groups,
    parse_string_list,
)
from .schema import check_values
from .textnorm import alias_key, collapse_whitespace, match_key

if TYPE_CHECKING:
    from .cli import BootstrapConfig

logger = logging.getLogger(__name__)

SYNONYM_SIMILARITY_THRESHOLD = 0.85


@functools.cache
def _prompt_text(name: str) -> str:
    return resources.files("reportguide.prompts").joinpath(name).read_text(encoding="utf-8")


@dataclass(frozen=True)
class LabelEntry:
    index: int
    name: str
    aliases: tuple[str, ...] = ()
    count: int = 0


@dataclass(frozen=True)
class LabelTaxonomy:
    """Ordered label vocabulary with merge provenance and training counts."""

    labels: tuple[LabelEntry, ...]
    merge_rounds: int = 0
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        for i, entry in enumerate(self.labels):
            if entry.index != i:
                raise BootstrapError(
                    f"label {entry.name!r} has index {entry.index}, expected {i}"
                )
        keys = [match_key(e.name) for e in self.labels]
        if len(set(keys)) != len(keys):
            raise BootstrapError("taxonomy contains duplicate label names")

    def __len__(self) -> int:
        return len(self.labels)

    def names(self) -> list[str]:
        return [e.name for e in self.labels]

    def index_of(self, surface: str) -> int | None:
        """Resolve a name or alias, case-insensitively, to a label index."""
        return self._lookup.get(match_key(surface))

    @functools.cached_property
    def _lookup(self) -> dict[str, int]:
        table: dict[str, int] = {}
        for e in self.labels:
            table[match_key(e.name)] = e.index
            for a in e.aliases:
                table.setdefault(match_key(a), e.index)
        return table

    @functools.cached_property
    def vocabulary(self) -> dict:
        """The record-independent part of an annotate request payload."""
        return {
            "labels": self.names(),
            "aliases": {a: e.name for e in self.labels for a in e.aliases},
        }


@dataclass(frozen=True, slots=True)
class AnnotatedItem:
    record_id: str
    split: str
    positives: tuple[int, ...]


def _vector_fault(positives: tuple[int, ...], k: int) -> str | None:
    """Why a positive-index vector is invalid for a taxonomy of `k` labels:
    an index outside 0..k-1, or indices not strictly ascending; None if valid."""
    for j in positives:
        if not 0 <= j < k:
            return f"has label index {j} outside 0..{k - 1}"
    if any(a >= b for a, b in zip(positives, positives[1:])):
        return "has unsorted or duplicate positives"
    return None


@dataclass(frozen=True)
class MLCDataset:
    """Taxonomy plus one positive-index vector per annotated record.

    Each distinct vector is checked once, in item order, so an invalid one
    is reported for the first record that carries it.
    """

    taxonomy: LabelTaxonomy
    items: tuple[AnnotatedItem, ...]
    skipped: tuple[str, ...] = ()

    def __post_init__(self):
        k = len(self.taxonomy)
        valid: set[tuple[int, ...]] = set()
        for item in self.items:
            if item.positives not in valid:
                fault = _vector_fault(item.positives, k)
                if fault:
                    raise BootstrapError(f"record {item.record_id!r} {fault}")
                valid.add(item.positives)

    def split_items(self, split: str) -> list[AnnotatedItem]:
        return [item for item in self.items if item.split == split]


# ---------------------------------------------------------------------------
# Extraction
# ---------------------------------------------------------------------------


def _dedupe_surfaces(surfaces: list[str]) -> list[str]:
    """Trim and drop case-fold duplicates, keeping first-seen casing."""
    out: list[str] = []
    seen: set[str] = set()
    for s in surfaces:
        surface = collapse_whitespace(s)
        if not surface:
            continue
        key = match_key(surface)
        if key not in seen:
            seen.add(key)
            out.append(surface)
    return out


def extract_batch_labels(reports: list[str], config: GatewayConfig) -> list[str]:
    """Propose finding names for one batch of report texts."""
    request = ChatRequest(
        system=_prompt_text("extraction.txt"),
        user=json.dumps(reports, ensure_ascii=False),
    )
    surfaces = complete_with_reprompt(request, config, parse_string_list)
    return _dedupe_surfaces(surfaces)


# ---------------------------------------------------------------------------
# Merging
# ---------------------------------------------------------------------------


def _set_cost(labels: list[str]) -> int:
    return estimate_tokens(json.dumps(labels, ensure_ascii=False))


def _group_consecutive(sets: list[list[str]], budget: int) -> list[list[list[str]]]:
    """Greedily pack consecutive sets while their summed cost fits the budget."""
    groups: list[list[list[str]]] = []
    current: list[list[str]] = []
    current_cost = 0
    for label_set in sets:
        cost = _set_cost(label_set)
        if cost > budget:
            raise MergeBudgetError(
                f"label set of {len(label_set)} names costs {cost} tokens, "
                f"over the merge budget of {budget}"
            )
        if current and current_cost + cost > budget:
            groups.append(current)
            current = []
            current_cost = 0
        current.append(label_set)
        current_cost += cost
    if current:
        groups.append(current)
    return groups


class _AliasTracker:
    """Accumulates which surface forms folded into which canonical name."""

    def __init__(self):
        self.aliases: dict[str, list[str]] = {}

    def absorb(self, canonical: str, variants: list[str]) -> None:
        bucket = self.aliases.setdefault(match_key(canonical), [])
        known = {match_key(canonical)} | {match_key(a) for a in bucket}
        for v in variants:
            if match_key(v) not in known:
                known.add(match_key(v))
                bucket.append(v)

    def rename(self, old: str, new: str) -> None:
        if match_key(old) == match_key(new):
            return
        bucket = self.aliases.pop(match_key(old), [])
        self.absorb(new, [old] + bucket)

    def for_name(self, name: str) -> tuple[str, ...]:
        return tuple(self.aliases.get(match_key(name), ()))


def _merge_group(
    group: list[list[str]], config: GatewayConfig, tracker: _AliasTracker
) -> list[str]:
    request = ChatRequest(
        system=_prompt_text("merge.txt"),
        user=json.dumps(group, ensure_ascii=False),
    )
    groups = complete_with_reprompt(request, config, parse_string_groups)

    offered = {match_key(s) for labels in group for s in labels}
    merged: list[str] = []
    seen: set[str] = set()
    covered: set[str] = set()
    for g in groups:
        canonical, variants = g[0], g[1:]
        if match_key(canonical) not in offered:
            # Invented names are dropped rather than trusted.
            logger.warning("merge output invented label %r; dropping", canonical)
            continue
        for prior in variants:
            tracker.rename(prior, canonical)
        covered.add(match_key(canonical))
        covered.update(match_key(v) for v in variants)
        if match_key(canonical) not in seen:
            seen.add(match_key(canonical))
            merged.append(canonical)
    # Labels the model failed to place are kept, not silently lost.
    for labels in group:
        for s in labels:
            if match_key(s) not in covered and match_key(s) not in seen:
                logger.warning("merge output dropped label %r; keeping it", s)
                seen.add(match_key(s))
                merged.append(s)
    return merged


def merge_label_sets(
    sets: list[list[str]], config: GatewayConfig, merge_budget: int
) -> tuple[list[str], dict[str, tuple[str, ...]], int]:
    """Merge per-batch label sets into one deduplicated list.

    Returns (labels, aliases keyed by match_key of the label, rounds run).
    A single non-empty input set passes through unchanged with zero rounds.
    """
    # An empty set (a batch of normal studies) has nothing to merge.
    working = [labels for labels in map(_dedupe_surfaces, sets) if labels]
    if not working:
        raise BootstrapError("no label sets to merge")
    if len(working) == 1:
        return list(working[0]), {match_key(s): () for s in working[0]}, 0

    tracker = _AliasTracker()
    rounds = 0
    while len(working) > 1:
        groups = _group_consecutive(working, merge_budget)
        if len(groups) == len(working):
            raise MergeProgressError(
                f"merge budget {merge_budget} cannot fit two sets in one call; "
                f"{len(working)} sets remain after {rounds} rounds"
            )
        next_sets: list[list[str]] = []
        for g in groups:
            if len(g) == 1:
                next_sets.append(g[0])
            else:
                next_sets.append(_merge_group(g, config, tracker))
        working = next_sets
        rounds += 1
    final = working[0]
    aliases = {match_key(s): tracker.for_name(s) for s in final}
    return list(final), aliases, rounds


# ---------------------------------------------------------------------------
# Annotation
# ---------------------------------------------------------------------------


def annotate_report(
    report: str, taxonomy: LabelTaxonomy, config: GatewayConfig, carriers: int = 1
) -> tuple[int, ...]:
    """Assign taxonomy label indices to one report text via the gateway.

    Returned strings are matched to canonical names or aliases case
    insensitively; anything unmatched is dropped with one log line naming
    the `carriers` records that share the text, never invented into the
    vocabulary.
    """
    request = ChatRequest(
        system=_prompt_text("annotate.txt"),
        user=json.dumps({"report": report, **taxonomy.vocabulary}, ensure_ascii=False),
    )
    surfaces = complete_with_reprompt(request, config, parse_string_list)
    indices = [taxonomy.index_of(s) for s in surfaces]
    unknown = [s for s, idx in zip(surfaces, indices) if idx is None]
    if unknown:
        logger.warning(
            "annotation returned unknown labels %s for %d records carrying the text; dropped",
            unknown,
            carriers,
        )
    return tuple(sorted({idx for idx in indices if idx is not None}))


# ---------------------------------------------------------------------------
# Filtering
# ---------------------------------------------------------------------------


def filter_labels(dataset: MLCDataset, min_label_count: int) -> MLCDataset:
    """Drop labels below the training-split frequency threshold.

    Survivors are re-indexed densely in their original order and each
    distinct vector is re-projected once; a projection keeps its order, so
    it stays sorted. Counts are taken over the training split only.
    """
    counts = [0] * len(dataset.taxonomy)
    for item in dataset.items:
        if item.split == "train":
            for j in item.positives:
                counts[j] += 1

    survivors = [e for e in dataset.taxonomy.labels if counts[e.index] >= min_label_count]
    if not survivors:
        raise EmptyTaxonomyError(
            f"no label reaches the frequency threshold {min_label_count} "
            f"on the training split"
        )
    # Old index to new, None for a dropped label.
    remap: list[int | None] = [None] * len(counts)
    for new, e in enumerate(survivors):
        remap[e.index] = new
    new_labels = tuple(
        LabelEntry(index=new, name=e.name, aliases=e.aliases, count=counts[e.index])
        for new, e in enumerate(survivors)
    )
    new_taxonomy = LabelTaxonomy(
        labels=new_labels,
        merge_rounds=dataset.taxonomy.merge_rounds,
        params=dict(dataset.taxonomy.params),
    )
    projected: dict[tuple[int, ...], tuple[int, ...]] = {}
    new_items = []
    for item in dataset.items:
        positives = projected.get(item.positives)
        if positives is None:
            positives = projected[item.positives] = tuple(
                remap[j] for j in item.positives if remap[j] is not None
            )
        new_items.append(AnnotatedItem(item.record_id, item.split, positives))
    return MLCDataset(taxonomy=new_taxonomy, items=tuple(new_items), skipped=dataset.skipped)


# ---------------------------------------------------------------------------
# Full stage
# ---------------------------------------------------------------------------


def bootstrap_dataset(
    corpus: Corpus,
    config: BootstrapConfig,
    gateway: GatewayConfig,
) -> MLCDataset:
    """Run extraction, merging, annotation, and filtering over a corpus.

    With the mock backend the whole stage is deterministic, so repeated runs
    serialize to byte-identical artifacts.
    """
    train = corpus.split("train")
    batches = [
        [rec.report for rec in train[i : i + config.b]]
        for i in range(0, len(train), config.b)
    ]
    batch_sets = map_calls(lambda reports: extract_batch_labels(reports, gateway), batches, gateway)
    logger.info(
        "extracted %d label sets from %d training reports (batch size %d)",
        len(batch_sets),
        len(train),
        config.b,
    )

    names, aliases, merge_rounds = merge_label_sets(batch_sets, gateway, config.kappa)
    draft = LabelTaxonomy(
        labels=tuple(
            LabelEntry(index=i, name=n, aliases=aliases.get(match_key(n), ()))
            for i, n in enumerate(names)
        ),
        merge_rounds=merge_rounds,
        params={"b": config.b, "kappa": config.kappa, "theta": config.theta},
    )
    logger.info("merged to %d draft labels in %d rounds", len(draft), merge_rounds)

    carriers = Counter(record.report for record in corpus.records)
    annotations = map_distinct_texts(
        lambda text: annotate_report(text, draft, gateway, carriers[text]), carriers, gateway
    )
    logger.info(
        "annotated %d records through %d distinct report texts",
        len(corpus.records),
        len(carriers),
    )
    items: list[AnnotatedItem] = []
    skipped: list[str] = []
    for record in corpus.records:
        positives = annotations[record.report]
        if isinstance(positives, LLMOutputError):
            logger.debug("skipping record %s: annotation unparseable: %s", record.id, positives)
            skipped.append(record.id)
        else:
            items.append(AnnotatedItem(record.id, record.split, positives))
    if skipped:
        logger.warning("annotation skipped %d records", len(skipped))

    dataset = MLCDataset(taxonomy=draft, items=tuple(items), skipped=tuple(skipped))
    return filter_labels(dataset, config.theta)


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------


def taxonomy_to_json(taxonomy: LabelTaxonomy) -> str:
    doc = {
        "version": 1,
        "params": taxonomy.params,
        "merge_rounds": taxonomy.merge_rounds,
        "labels": [
            {"index": e.index, "name": e.name, "aliases": list(e.aliases), "count": e.count}
            for e in taxonomy.labels
        ],
    }
    return json_text(doc)


def load_taxonomy(path: str | Path) -> LabelTaxonomy:
    from .cli import BootstrapConfig  # the section whose settings `params` records

    doc = read_json(path, BootstrapError, f"taxonomy file {path}")
    if doc.get("version") != 1:
        raise BootstrapError(f"taxonomy file {path} has unsupported version {doc.get('version')!r}")
    entries = doc.get("labels", [])
    if not isinstance(entries, list):
        raise BootstrapError(f"taxonomy file {path}: labels must be a list")
    labels = []
    for i, e in enumerate(entries):
        where = f"taxonomy file {path} label {i}"
        if not isinstance(e, dict):
            raise BootstrapError(f"{where}: not a JSON object")
        index, name = e.get("index"), e.get("name")
        aliases, count = e.get("aliases", []), e.get("count", 0)
        if not _is_int(index):
            raise BootstrapError(f"{where}: index must be an integer")
        if not isinstance(name, str):
            raise BootstrapError(f"{where}: name must be a string")
        if not isinstance(aliases, list) or not all(isinstance(a, str) for a in aliases):
            raise BootstrapError(f"{where}: aliases must be a list of strings")
        if not _is_int(count):
            raise BootstrapError(f"{where}: count must be an integer")
        labels.append(LabelEntry(index=index, name=name, aliases=tuple(aliases), count=count))
    merge_rounds, params = doc.get("merge_rounds"), doc.get("params", {})
    if not _is_int(merge_rounds) or merge_rounds < 0 or not isinstance(params, dict):
        raise BootstrapError(
            f"taxonomy file {path}: merge_rounds must be an integer >= 0 and params an object"
        )
    check_values(BootstrapConfig, params, BootstrapError, f"taxonomy file {path}: params.")
    return LabelTaxonomy(labels=tuple(labels), merge_rounds=merge_rounds, params=dict(params))


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def taxonomy_fingerprint(taxonomy: LabelTaxonomy) -> str:
    """Stable digest binding downstream artifacts to a taxonomy."""
    return hashlib.sha256(taxonomy_to_json(taxonomy).encode("utf-8")).hexdigest()


def labels_to_jsonl(dataset: MLCDataset) -> str:
    """One `{"id": ..., "positives": [...]}` line per item, the bytes that
    `json.dumps` writes with its defaults (ASCII escapes, ", " and ": ")."""
    return "".join(
        f'{{"id": {encode_basestring_ascii(item.record_id)}, '
        f'"positives": [{", ".join(map(str, item.positives))}]}}\n'
        for item in dataset.items
    )


def load_labels(path: str | Path, corpus: Corpus, taxonomy: LabelTaxonomy) -> MLCDataset:
    """Read labels.jsonl; a faulty row is reported with its line, and each
    distinct vector is checked against the taxonomy once and shared by the
    records that carry it."""
    items: list[AnnotatedItem] = []
    what = f"labels file {path}"
    k = len(taxonomy)
    vectors: dict[tuple[int, ...], tuple[int, ...]] = {}
    for lineno, obj, rec in read_record_rows(path, corpus, BootstrapError, what):
        positives = obj.get("positives")
        if not isinstance(positives, list) or not all(_is_int(j) for j in positives):
            raise BootstrapError(f"{what} line {lineno}: positives must be a list of integers")
        vector = tuple(positives)
        shared = vectors.get(vector)
        if shared is None:
            fault = _vector_fault(vector, k)
            if fault:
                raise BootstrapError(f"{what} line {lineno}: record {rec.id!r} {fault}")
            shared = vectors[vector] = vector
        items.append(AnnotatedItem(record_id=rec.id, split=rec.split, positives=shared))
    return MLCDataset(taxonomy=taxonomy, items=tuple(items))


# ---------------------------------------------------------------------------
# Audit
# ---------------------------------------------------------------------------


def audit_taxonomy(dataset: MLCDataset) -> dict:
    """Quality proxies for human review of a bootstrapped taxonomy.

    Coverage is the fraction of annotated reports with at least one positive
    label. Synonym candidates are label pairs whose normalized surfaces are
    nearly identical, which usually means the merge step missed a variant.
    """
    n = len(dataset.items)
    covered = sum(1 for item in dataset.items if item.positives)
    histogram = [
        {"index": e.index, "name": e.name, "count": e.count} for e in dataset.taxonomy.labels
    ]
    candidates: list[dict] = []
    labels = dataset.taxonomy.labels
    for i in range(len(labels)):
        for j in range(i + 1, len(labels)):
            a, b = alias_key(labels[i].name), alias_key(labels[j].name)
            ratio = difflib.SequenceMatcher(None, a, b).ratio()
            if ratio >= SYNONYM_SIMILARITY_THRESHOLD:
                candidates.append(
                    {
                        "a": labels[i].name,
                        "b": labels[j].name,
                        "similarity": round(ratio, 4),
                    }
                )
    return {
        "reports": n,
        "coverage": (covered / n) if n else 0.0,
        "label_histogram": histogram,
        "synonym_candidates": candidates,
    }
