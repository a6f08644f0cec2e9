"""Scaled benchmark inputs: the bundled synthetic corpus copied N times.

Each copy keeps the split and the report text of its source record and gets
a fresh id. Feature rows are jittered with seeded N(0, 0.05) noise and, when
asked, padded to a wider dimension with seeded N(0, 1) noise columns. The
pipeline sees only the written manifest.jsonl and features.ffmx (+ .ids);
the ground truth the output checks need goes to a separate `--truth` file.

    PYTHONPATH=src python3 bench/inputs.py --copies 500 --seed 1 --out /tmp/corpus-100k
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from reportguide.corpus import Corpus, FeatureMatrix, ReportRecord, save_features, save_manifest
from reportguide.synthetic import build_synthetic_corpus

JITTER_SD = 0.05
# Per-copy label floor of the synthetic corpus: every primary finding has at
# least this many train records in one copy, every rare one fewer.
THETA_PER_COPY = 15
ID_FORMAT = "c{copy:04d}-{base}"


def base_corpus(seed: int):
    """`build_synthetic_corpus` for the workload seed.

    A few seeds trip the corpus's own construction guard (a primary finding
    under the frequency floor); those move to the next seed, so every
    workload seed yields a valid corpus deterministically.
    """
    base_seed = seed
    while True:
        try:
            return build_synthetic_corpus(base_seed)
        except AssertionError:
            base_seed += 1


def write_inputs(out_dir: str | Path, copies: int, seed: int, dim: int = 16) -> dict:
    """Write the scaled corpus; return its ground truth as a JSON-able dict.

    The truth names every record by `id_format` over (copy, base record id)
    and gives each base record's split and primary findings.
    """
    base = base_corpus(seed)
    base_values = np.asarray(base.features.values, dtype=np.float64)
    base_dim = base_values.shape[1]
    if dim < base_dim:
        raise ValueError(f"dim must be at least {base_dim}, got {dim}")
    order = [base.features.row_ids.index(rec.id) for rec in base.corpus.records]
    rng = np.random.default_rng([seed, copies, dim])

    records: list[ReportRecord] = []
    blocks: list[np.ndarray] = []
    for c in range(copies):
        block = base_values[order] + rng.normal(0.0, JITTER_SD, base_values.shape)
        if dim > base_dim:
            pad = rng.normal(0.0, 1.0, (base_values.shape[0], dim - base_dim))
            block = np.hstack([block, pad])
        blocks.append(block.astype(np.float32))
        for rec in base.corpus.records:
            rid = ID_FORMAT.format(copy=c, base=rec.id)
            records.append(ReportRecord(id=rid, split=rec.split, report=rec.report, images=rec.images))

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    save_manifest(Corpus(records=records), out / "manifest.jsonl")
    features = FeatureMatrix(values=np.vstack(blocks), row_ids=[r.id for r in records])
    save_features(features, out / "features.ffmx")
    primaries = set(base.primary_names)
    return {
        "records": len(records),
        "copies": copies,
        "dim": dim,
        "theta": THETA_PER_COPY * copies,
        "id_format": ID_FORMAT,
        "primary_names": list(base.primary_names),
        "base": {
            rec.id: {
                "split": rec.split,
                "primaries": sorted(n for n in base.gt_labels[rec.id] if n in primaries),
            }
            for rec in base.corpus.records
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="directory for manifest.jsonl and features.ffmx")
    parser.add_argument("--copies", type=int, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--dim", type=int, default=16)
    parser.add_argument("--truth", help="write the ground truth JSON here")
    args = parser.parse_args(argv)
    truth = write_inputs(args.out, args.copies, args.seed, args.dim)
    if args.truth:
        Path(args.truth).write_text(json.dumps(truth) + "\n", encoding="utf-8")
    print(
        f"wrote {truth['records']} records x {truth['dim']} features to {args.out}; "
        f"use --set bootstrap.theta={truth['theta']}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
