"""Bundled synthetic corpus for offline runs, demos, and the test suite.

Two hundred short radiograph reports are generated from ten finding
templates plus two deliberately rare findings that sit below the default
frequency threshold. Feature rows are informative by construction: one
strongly signed dimension per primary finding plus pure-noise dimensions,
so a linear head can recover the labels. Every template sentence embeds a
keyword the mock gateway recognizes, which is what lets the whole pipeline
run and score itself without any network access.
"""

from __future__ import annotations

from pathlib import Path
from typing import NamedTuple

import numpy as np

from .corpus import Corpus, FeatureMatrix, ImageRef, ReportRecord, save_features, save_manifest
from .errors import SyntheticSeedError
from .fileio import json_text, write_atomic

SYNTHETIC_SEED = 7

# Ten primary findings with sentence variants. Each sentence contains a
# keyword for exactly its own finding, so keyword scans reproduce the
# sampled label sets exactly.
PRIMARY_FINDINGS: tuple[tuple[str, tuple[str, ...]], ...] = (
    (
        "Pulmonary cavitation",
        (
            "A thick-walled cavity is seen in the upper zone.",
            "There is a cavity with an air-fluid level.",
        ),
    ),
    (
        "Pleural effusion",
        (
            "A small pleural effusion blunts the costophrenic angle.",
            "Moderate pleural effusion is present on the right.",
        ),
    ),
    (
        "Pulmonary infiltrates",
        (
            "Patchy infiltrates are noted in the mid zone.",
            "Bilateral infiltrates are scattered through the lung fields.",
        ),
    ),
    (
        "Pulmonary fibrosis",
        (
            "Coarse fibrotic streaking is seen in the apices.",
            "There is fibrotic streaking with architectural distortion.",
        ),
    ),
    (
        "Lymphadenopathy",
        (
            "Mediastinal lymphadenopathy is suspected.",
            "There are enlarged lymph nodes at the hila.",
        ),
    ),
    (
        "Pleural thickening",
        (
            "Pleural thickening extends along the lateral chest wall.",
            "There is thickened pleura at the apex.",
        ),
    ),
    (
        "Calcified granuloma",
        (
            "A calcified granuloma is visible in the mid zone.",
            "Dense calcification consistent with an old granuloma is seen.",
        ),
    ),
    (
        "Consolidation",
        (
            "Dense consolidation occupies the lower lobe.",
            "There is an airspace opacity in the lingula.",
        ),
    ),
    (
        "Atelectasis",
        (
            "Linear atelectasis is seen at the left base.",
            "There is volume loss in the right lower zone.",
        ),
    ),
    (
        "Pneumothorax",
        (
            "A small apical pneumothorax is identified.",
            "There is a shallow pneumothorax without shift.",
        ),
    ),
)

# Deliberately rare findings: injected into a handful of training reports so
# they fall under the default frequency threshold and get filtered out.
RARE_FINDINGS: tuple[tuple[str, str], ...] = (
    ("Miliary nodules", "Diffuse miliary nodules are scattered through both lungs."),
    ("Hilar prominence", "There is hilar prominence on the right."),
)

_OPENING = "Frontal chest radiograph."
_CLOSING = "The remainder of the examination is unremarkable."
_NORMAL_BODY = "The lungs are well expanded and clear. No focal lesion is identified."

SPLIT_SIZES = {"train": 140, "val": 30, "test": 30}
FEATURE_DIM = 16
_SIGNAL = 2.0
_FEATURE_NOISE = 0.25
_RARE_INJECTIONS = 5  # per rare finding, training split only
_LABEL_COUNT_WEIGHTS = ((0, 0.08), (1, 0.30), (2, 0.34), (3, 0.20), (4, 0.08))


class SyntheticCorpus(NamedTuple):
    corpus: Corpus
    features: FeatureMatrix
    primary_names: tuple[str, ...]
    rare_names: tuple[str, ...]
    gt_labels: dict[str, tuple[str, ...]]  # record id -> finding names, primaries first


def build_synthetic_corpus(seed: int = SYNTHETIC_SEED) -> SyntheticCorpus:
    """Deterministically generate the 200-report corpus and its features."""
    rng = np.random.default_rng(seed)
    primary_names = tuple(name for name, _ in PRIMARY_FINDINGS)
    counts = np.array([c for c, _ in _LABEL_COUNT_WEIGHTS])
    weights = np.array([w for _, w in _LABEL_COUNT_WEIGHTS])
    weights = weights / weights.sum()

    records: list[ReportRecord] = []
    labels: dict[str, tuple[str, ...]] = {}
    feature_rows: list[np.ndarray] = []
    row_ids: list[str] = []

    serial = 0
    train_ids: list[str] = []
    for split in ("train", "val", "test"):
        for _ in range(SPLIT_SIZES[split]):
            serial += 1
            rid = f"syn-{serial:04d}"
            n_labels = int(rng.choice(counts, p=weights))
            chosen = sorted(rng.choice(len(primary_names), size=n_labels, replace=False))
            names = tuple(primary_names[i] for i in chosen)

            sentences = [_OPENING]
            if names:
                for i in chosen:
                    variants = PRIMARY_FINDINGS[i][1]
                    sentences.append(variants[int(rng.integers(len(variants)))])
            else:
                sentences.append(_NORMAL_BODY)
            sentences.append(_CLOSING)

            x = np.full(FEATURE_DIM, -_SIGNAL, dtype=np.float64)
            for i in chosen:
                x[i] = _SIGNAL
            x[: len(primary_names)] += rng.normal(0.0, _FEATURE_NOISE, len(primary_names))
            x[len(primary_names) :] = rng.normal(0.0, 1.0, FEATURE_DIM - len(primary_names))

            records.append(
                ReportRecord(
                    id=rid,
                    split=split,
                    report=" ".join(sentences),
                    images=(ImageRef(path=f"images/{rid}.png", modality="xray"),),
                )
            )
            labels[rid] = names
            feature_rows.append(x)
            row_ids.append(rid)
            if split == "train":
                train_ids.append(rid)

    # Inject each rare finding into a few training reports (appending its
    # sentence before the closing line) so it exists but stays sub-threshold.
    rare_names = tuple(name for name, _ in RARE_FINDINGS)
    taken: set[str] = set()
    for name, sentence in RARE_FINDINGS:
        pool = [rid for rid in train_ids if rid not in taken]
        chosen_ids = rng.choice(len(pool), size=_RARE_INJECTIONS, replace=False)
        for idx in sorted(int(i) for i in chosen_ids):
            rid = pool[idx]
            taken.add(rid)
            rec = next(r for r in records if r.id == rid)
            body, closing = rec.report.rsplit(" " + _CLOSING, 1)
            rec.report = body + " " + sentence + " " + _CLOSING
            labels[rid] = labels[rid] + (name,)

    corpus = Corpus(records=records)
    features = FeatureMatrix(
        values=np.asarray(feature_rows, dtype=np.float32), row_ids=row_ids
    )

    # Construction guard: every primary finding must clear the default
    # frequency threshold on the training split, every rare one must not.
    train_count = {name: 0 for name in primary_names + rare_names}
    for rid in train_ids:
        for name in labels[rid]:
            train_count[name] += 1
    for name in primary_names:
        if train_count[name] < 15:
            raise SyntheticSeedError(
                f"synthetic corpus seed {seed}: primary finding {name!r} occurs only "
                f"{train_count[name]} times in the training split"
            )
    for name in rare_names:
        if not 0 < train_count[name] < 15:
            raise SyntheticSeedError(
                f"synthetic corpus seed {seed}: rare finding {name!r} occurs "
                f"{train_count[name]} times in the training split"
            )

    return SyntheticCorpus(
        corpus=corpus,
        features=features,
        primary_names=primary_names,
        rare_names=rare_names,
        gt_labels=labels,
    )


def write_synthetic_corpus(out_dir: str | Path, seed: int = SYNTHETIC_SEED) -> SyntheticCorpus:
    """Materialize the synthetic corpus as pipeline input files.

    Writes manifest.jsonl, features.ffmx (+ .ids sidecar), and a
    gt_labels.json transparency file that the pipeline itself never reads.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    synth = build_synthetic_corpus(seed)
    save_manifest(synth.corpus, out / "manifest.jsonl")
    save_features(synth.features, out / "features.ffmx")
    gt_doc = {rid: list(names) for rid, names in synth.gt_labels.items()}
    write_atomic(out / "gt_labels.json", json_text(gt_doc))
    return synth
