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
from collections.abc import Iterable
from importlib import resources
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import NamedTuple

from .corpus import Corpus, ReportRecord, read_record_rows
from .errors import DataError, LLMOutputError
from .fileio import json_text, read_json
from .gateway import (
    ChatRequest,
    complete_with_reprompt,
    estimate_tokens,
    map_calls,
    map_distinct_texts,
    parse_string_groups,
    parse_string_list,
)
from .schema import BootstrapConfig, GatewayConfig, check_values
from .textnorm import alias_key, collapse_whitespace, match_key

logger = logging.getLogger(__name__)

SYNONYM_SIMILARITY_THRESHOLD = 0.85


@functools.cache
def _prompt_text(name: str) -> str:
    return resources.files("reportguide.prompts").joinpath(name).read_text(encoding="utf-8")


class LabelEntry(NamedTuple):
    index: int
    name: str
    aliases: tuple[str, ...] = ()
    count: int = 0


class LabelTaxonomy:
    """Ordered label vocabulary with merge provenance and training counts.
    Two taxonomies are equal when their labels, merge rounds and params are."""

    def __init__(
        self, labels: tuple[LabelEntry, ...], merge_rounds: int = 0, params: dict | None = None
    ):
        self.labels = labels
        self.merge_rounds = merge_rounds
        self.params = {} if params is None else params
        for i, entry in enumerate(self.labels):
            if entry.index != i:
                raise DataError(
                    f"label {entry.name!r} has index {entry.index}, expected {i}"
                )
        keys = [match_key(e.name) for e in self.labels]
        if len(set(keys)) != len(keys):
            raise DataError("taxonomy contains duplicate label names")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.labels, self.merge_rounds, self.params) == (
            other.labels, other.merge_rounds, other.params
        )

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


class AnnotatedItem(NamedTuple):
    """One record's row of the dataset: its id, split and positive indices."""

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


class MLCDataset(NamedTuple):
    """Taxonomy plus one positive-index vector per annotated record, each
    strictly ascending and within the taxonomy: `load_labels` checks every
    vector it reads, and `bootstrap_dataset` builds each as a projection of
    a sorted, in-range annotation.
    """

    taxonomy: LabelTaxonomy
    items: tuple[AnnotatedItem, ...]
    skipped: tuple[str, ...] = ()

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
            raise DataError(
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


def _merge_call(group: list[list[str]], config: GatewayConfig) -> list[list[str]]:
    """The synonym groups the gateway proposes for one group of label sets."""
    request = ChatRequest(
        system=_prompt_text("merge.txt"),
        user=json.dumps(group, ensure_ascii=False),
    )
    return complete_with_reprompt(request, config, parse_string_groups)


def _merge_group(
    group: list[list[str]], groups: list[list[str]], tracker: _AliasTracker
) -> list[str]:
    """Fold one group's synonym `groups` into its merged label list."""
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
        raise DataError("no label sets to merge")
    if len(working) == 1:
        return list(working[0]), {match_key(s): () for s in working[0]}, 0

    tracker = _AliasTracker()
    rounds = 0
    while len(working) > 1:
        groups = _group_consecutive(working, merge_budget)
        if len(groups) == len(working):
            raise DataError(
                f"merge budget {merge_budget} cannot fit two sets in one call; "
                f"{len(working)} sets remain after {rounds} rounds"
            )
        # The round's calls may run concurrently (`map_calls`); their replies
        # are folded in group order, so the result does not depend on timing.
        replies = iter(map_calls(lambda g: _merge_call(g, config),
                                 [g for g in groups if len(g) > 1], config))
        working = [g[0] if len(g) == 1 else _merge_group(g, next(replies), tracker)
                   for g in groups]
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


def filter_labels(
    taxonomy: LabelTaxonomy, vectors: dict[tuple[int, ...], int], min_label_count: int
) -> tuple[LabelTaxonomy, dict[tuple[int, ...], tuple[int, ...]]]:
    """Drop labels below the training-split frequency threshold.

    `vectors` maps each distinct positive-index vector to the number of
    training records that carry it (0 for one that only other splits
    carry), so counts are taken over the training split only. Survivors are
    re-indexed densely in their original order. Returns the filtered
    taxonomy and each vector's projection onto it; a projection keeps its
    order, so it stays sorted.
    """
    counts = [0] * len(taxonomy)
    for vector, carriers in vectors.items():
        for j in vector:
            counts[j] += carriers

    survivors = [e for e in taxonomy.labels if counts[e.index] >= min_label_count]
    if not survivors:
        raise DataError(
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
        merge_rounds=taxonomy.merge_rounds,
        params=dict(taxonomy.params),
    )
    projection = {
        vector: tuple(remap[j] for j in vector if remap[j] is not None) for vector in vectors
    }
    return new_taxonomy, projection


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
    failures = {t: p for t, p in annotations.items() if isinstance(p, LLMOutputError)}
    skipped: list[str] = []
    if failures:
        for record in corpus.records:
            if record.report in failures:
                error = failures[record.report]
                logger.debug("skipping record %s: annotation unparseable: %s", record.id, error)
                skipped.append(record.id)
        logger.warning("annotation skipped %d records", len(skipped))

    # Labels are counted, dropped and reindexed from the distinct vectors
    # and the training records carrying each, so each record's row is built
    # once, with its filtered vector.
    train_carriers = Counter(record.report for record in train)
    vectors: dict[tuple[int, ...], int] = {}
    for text, positives in annotations.items():
        if text not in failures:
            vectors[positives] = vectors.get(positives, 0) + train_carriers[text]
    taxonomy, projection = filter_labels(draft, vectors, config.theta)
    rows = {text: projection[p] for text, p in annotations.items() if text not in failures}
    items = [
        AnnotatedItem(record.id, record.split, rows[record.report])
        for record in corpus.records
        if record.report in rows
    ]
    return MLCDataset(taxonomy=taxonomy, items=tuple(items), skipped=tuple(skipped))


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
    doc = read_json(path, DataError, f"taxonomy file {path}")
    if doc.get("version") != 1:
        raise DataError(f"taxonomy file {path} has unsupported version {doc.get('version')!r}")
    entries = doc.get("labels", [])
    if not isinstance(entries, list):
        raise DataError(f"taxonomy file {path}: labels must be a list")
    labels = []
    for i, e in enumerate(entries):
        where = f"taxonomy file {path} label {i}"
        if not isinstance(e, dict):
            raise DataError(f"{where}: not a JSON object")
        index, name = e.get("index"), e.get("name")
        aliases, count = e.get("aliases", []), e.get("count", 0)
        if not _is_int(index):
            raise DataError(f"{where}: index must be an integer")
        if not isinstance(name, str):
            raise DataError(f"{where}: name must be a string")
        if not isinstance(aliases, list) or not all(isinstance(a, str) for a in aliases):
            raise DataError(f"{where}: aliases must be a list of strings")
        if not _is_int(count):
            raise DataError(f"{where}: count must be an integer")
        labels.append(LabelEntry(index=index, name=name, aliases=tuple(aliases), count=count))
    merge_rounds, params = doc.get("merge_rounds"), doc.get("params", {})
    if not _is_int(merge_rounds) or merge_rounds < 0 or not isinstance(params, dict):
        raise DataError(
            f"taxonomy file {path}: merge_rounds must be an integer >= 0 and params an object"
        )
    check_values(BootstrapConfig, params, DataError, f"taxonomy file {path}: params.")
    if not labels:  # bootstrap never writes one: its frequency filter refuses
        raise DataError(f"taxonomy file {path} has no labels")
    return LabelTaxonomy(labels=tuple(labels), merge_rounds=merge_rounds, params=dict(params))


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def taxonomy_fingerprint(taxonomy: LabelTaxonomy) -> str:
    """Stable digest binding downstream artifacts to a taxonomy."""
    return hashlib.sha256(taxonomy_to_json(taxonomy).encode("utf-8")).hexdigest()


def labels_to_jsonl(dataset: MLCDataset) -> str:
    """One `{"id": ..., "positives": [...]}` line per item, the bytes that
    `json.dumps` writes with its defaults (ASCII escapes, ", " and ": ").
    Each distinct vector's `, "positives": [...]}` tail is built once."""
    tails: dict[tuple[int, ...], str] = {}
    lines = []
    for record_id, _, positives in dataset.items:
        tail = tails.get(positives)
        if tail is None:
            tail = tails[positives] = f', "positives": [{", ".join(map(str, positives))}]}}\n'
        lines.append('{"id": ' + encode_basestring_ascii(record_id) + tail)
    return "".join(lines)


# The one type a `positives` entry may have: not bool, float or str.
_INT_TYPE = frozenset({int})


def load_labels(
    path: str | Path, corpus: Corpus, taxonomy: LabelTaxonomy, kind: str = "labels"
) -> MLCDataset:
    """Read labels.jsonl, or predictions.jsonl as `kind` "predictions"; a
    faulty row is reported with its file and line, and each distinct vector
    is checked against the taxonomy once and shared by the records that
    carry it."""
    rows: list[tuple[ReportRecord, tuple[int, ...]]] = []
    what = f"{kind} file {path}"
    k = len(taxonomy)
    vectors: dict[tuple[int, ...], tuple[int, ...]] = {}
    for lineno, obj, rec in read_record_rows(path, corpus, DataError, what):
        positives = obj.get("positives")
        # The entries' types are checked before the vector is looked up: a
        # tuple holding True or 1.0 equals one holding 1.
        if type(positives) is not list or not _INT_TYPE.issuperset(map(type, positives)):
            raise DataError(f"{what} line {lineno}: positives must be a list of integers")
        vector = tuple(positives)
        shared = vectors.get(vector)
        if shared is None:
            fault = _vector_fault(vector, k)
            if fault:
                raise DataError(f"{what} line {lineno}: record {rec.id!r} {fault}")
            shared = vectors[vector] = vector
        rows.append((rec, shared))
    return labels_dataset(taxonomy, rows)


def labels_dataset(
    taxonomy: LabelTaxonomy, rows: Iterable[tuple[ReportRecord, tuple[int, ...]]]
) -> MLCDataset:
    """The dataset of a labels or predictions file whose rows are `rows`,
    (record, positives) in file order, each vector strictly ascending
    within `taxonomy`, as `load_labels` checks them or a rows twin
    (`corpus.rows_from_twin`) returns them: each item keeps its record's
    id and split objects and the row's vector object."""
    return MLCDataset(taxonomy, tuple(AnnotatedItem(rec.id, rec.split, positives)
                                      for rec, positives in rows))


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
