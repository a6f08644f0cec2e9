"""Dataset plumbing: report manifests and precomputed image-feature files.

A dataset is two plain files. `manifest.jsonl` carries one report record per
line; the feature file is a small binary matrix (magic "FFMX") whose rows are
bound to records through a `.ids` sidecar listing one record id per row.
Artifacts holding one JSON line per record (labels, generated reports) are
bound to the manifest through `read_record_rows`. Only the feature-file code
imports numpy, where it runs, so a stage that reads no features (bootstrap,
evaluate) never loads it.
"""

from __future__ import annotations

import json
import struct
import sys
from collections.abc import Iterator
from dataclasses import InitVar, dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, NamedTuple

from .errors import FeatureFormatError, FeatureValidationError, ManifestError, PipelineError
from .fileio import read_bytes, read_jsonl, read_text, write_atomic

if TYPE_CHECKING:
    import numpy as np

SPLITS = ("train", "val", "test")
# Each split name to its SPLITS object, so every record shares one of three.
_SPLIT_OBJECT = {name: name for name in SPLITS}

FEATURE_MAGIC = b"FFMX"


class ImageRef(NamedTuple):
    path: str
    modality: str = ""


@dataclass(slots=True)
class ReportRecord:
    """One study: a unique id, a split, the reference report, its images."""

    id: str
    split: str
    report: str
    images: tuple[ImageRef, ...] = ()

    def __post_init__(self):
        if not self.id:
            raise ManifestError("record id must be non-empty")
        # The type is checked first: a dict lookup of a list raises TypeError.
        split = _SPLIT_OBJECT.get(self.split) if isinstance(self.split, str) else None
        if split is None:
            raise ManifestError(
                f"record {self.id!r}: split must be one of {SPLITS}, got {self.split!r}"
            )
        self.split = split
        if not self.report:
            raise ManifestError(f"record {self.id!r}: report text must be non-empty")


@dataclass
class Corpus:
    """Ordered collection of records with unique ids, and the manifest they
    were read from, which errors name."""

    records: list[ReportRecord] = field(default_factory=list)
    manifest: str = "(in memory)"
    # The records by id, when the caller has already built it and found no
    # duplicate id in it (`load_manifest` does, naming the line).
    checked_index: InitVar[dict[str, ReportRecord] | None] = None

    def __post_init__(self, checked_index):
        if checked_index is None:
            checked_index = {}
            for rec in self.records:
                if rec.id in checked_index:
                    raise ManifestError(f"duplicate record id {rec.id!r}")
                checked_index[rec.id] = rec
        self._index = checked_index

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    def index(self) -> dict[str, ReportRecord]:
        return self._index

    def split(self, name: str) -> list[ReportRecord]:
        """The records of split `name`, in manifest order. A split with no
        records is a ManifestError: no stage has anything to do on it."""
        if name not in SPLITS:
            raise ManifestError(f"unknown split {name!r}")
        records = [rec for rec in self.records if rec.split == name]
        if not records:
            raise ManifestError(f"manifest {self.manifest} has no records in split {name!r}")
        return records


def _record_from_obj(obj: dict, lineno: int) -> ReportRecord:
    try:
        images_raw = obj.get("images", [])
        if not isinstance(images_raw, list):
            raise ManifestError("images must be an array")
        try:
            pairs = [(img.get("path"), img.get("modality", "")) for img in images_raw]
        except AttributeError:  # a JSON value other than an object has no .get
            raise ManifestError("every images entry must be a JSON object") from None
        images = []
        for path, modality in pairs:
            if type(path) is not str:
                raise ManifestError(f"image path must be a string, got {path!r}")
            if type(modality) is not str:
                raise ManifestError(f"image modality must be a string, got {modality!r}")
            # A modality is categorical: every record shares one object per value.
            images.append(ImageRef(path, sys.intern(modality)))
        rid, report = obj.get("id", ""), obj.get("report", "")
        if type(rid) is not str:
            raise ManifestError(f"id must be a string, got {rid!r}")
        if type(report) is not str:
            raise ManifestError(f"record {rid!r}: report must be a string, got {report!r}")
        return ReportRecord(rid, obj.get("split", ""), report, tuple(images))
    except ManifestError as exc:
        raise ManifestError(f"manifest line {lineno}: {exc}") from exc


def load_manifest(path: str | Path) -> Corpus:
    """Read manifest.jsonl, preserving record order.

    Errors carry the 1-based line number; duplicate ids name the id. A
    manifest with no records is an error too.
    """
    records: list[ReportRecord] = []
    index: dict[str, ReportRecord] = {}
    for lineno, obj in read_jsonl(path, ManifestError, "manifest"):
        rec = _record_from_obj(obj, lineno)
        if rec.id in index:
            raise ManifestError(f"manifest line {lineno}: duplicate record id {rec.id!r}")
        index[rec.id] = rec
        records.append(rec)
    if not records:
        raise ManifestError(f"manifest {path} has no records")
    return Corpus(records=records, manifest=str(path), checked_index=index)


def read_record_rows(
    path: str | Path, corpus: Corpus, error: type[PipelineError], what: str
) -> Iterator[tuple[int, dict, ReportRecord]]:
    """Stream (line number, object, record) for each row of a one-row-per-record
    JSONL file. An `id` that is not a string (the manifest's rule), an unknown
    id, an id already on an earlier line, or a file with no rows raises
    `error`, with `what` ("labels file <path>") leading."""
    index = corpus.index()
    line_of: dict[str, int] = {}
    for lineno, obj in read_jsonl(path, error, what):
        rid = obj.get("id")
        if type(rid) is not str:
            raise error(f"{what} line {lineno}: id must be a string, got {rid!r}")
        rec = index.get(rid)
        if rec is None:
            raise error(f"{what} line {lineno}: unknown record id {rid!r}")
        if rid in line_of:
            raise error(
                f"{what} line {lineno}: record id {rid!r} is already on line {line_of[rid]}"
            )
        line_of[rid] = lineno
        yield lineno, obj, rec
    if not line_of:
        raise error(f"{what} has no rows")


def save_manifest(corpus: Corpus, path: str | Path) -> None:
    """Write manifest.jsonl in canonical form (fixed key order, UTF-8).

    save(load(p)) reproduces a canonically written file byte for byte.
    """
    lines = []
    for rec in corpus.records:
        obj = {
            "id": rec.id,
            "split": rec.split,
            "report": rec.report,
            "images": [{"path": im.path, "modality": im.modality} for im in rec.images],
        }
        lines.append(json.dumps(obj, ensure_ascii=False) + "\n")
    write_atomic(path, "".join(lines))


@dataclass
class FeatureMatrix:
    """Dense float32 feature rows plus the record id owning each row."""

    values: np.ndarray
    row_ids: list[str]

    def __post_init__(self):
        import numpy as np

        self.values = np.asarray(self.values, dtype=np.float32)
        if self.values.ndim != 2:
            raise FeatureValidationError(
                f"feature matrix must be 2-D, got shape {self.values.shape}"
            )
        if self.values.shape[0] != len(self.row_ids):
            raise FeatureValidationError(
                f"{self.values.shape[0]} feature rows but {len(self.row_ids)} row ids"
            )
        bad = np.argwhere(~np.isfinite(self.values))
        if bad.size:
            r, c = (int(x) for x in bad[0])
            raise FeatureValidationError(
                f"non-finite feature value at row {r}, column {c} (record {self.row_ids[r]!r})"
            )
        self._row_of = {rid: i for i, rid in enumerate(self.row_ids)}
        if len(self._row_of) != len(self.row_ids):
            raise FeatureValidationError("duplicate record id in feature rows")

    @property
    def rows(self) -> int:
        return int(self.values.shape[0])

    @property
    def dim(self) -> int:
        return int(self.values.shape[1])

    def row_for_id(self, record_id: str) -> np.ndarray | None:
        i = self._row_of.get(record_id)
        return None if i is None else self.values[i]


def _sidecar_path(path: str | Path) -> Path:
    # Sidecar naming: the feature file path with ".ids" appended.
    return Path(str(path) + ".ids")


def save_features(matrix: FeatureMatrix, path: str | Path) -> None:
    import numpy as np

    values = np.ascontiguousarray(matrix.values, dtype="<f4")
    rows, cols = values.shape
    write_atomic(path, FEATURE_MAGIC + struct.pack("<II", rows, cols) + values.tobytes(order="C"))
    write_atomic(_sidecar_path(path), "".join(rid + "\n" for rid in matrix.row_ids))


def load_features(path: str | Path, corpus: Corpus | None = None) -> FeatureMatrix:
    """Read a feature file and its id sidecar.

    A file with no columns is a FeatureFormatError. When a corpus is given,
    every row id must resolve to a record, and the matrix keeps that record's
    own id object.
    """
    import numpy as np

    data = read_bytes(path, FeatureFormatError, f"feature file {path}")
    if data[:4] != FEATURE_MAGIC:
        raise FeatureFormatError(f"bad magic {data[:4]!r} in {path}; expected {FEATURE_MAGIC!r}")
    if len(data) < 12:
        raise FeatureFormatError(f"truncated header in {path}")
    rows, cols = struct.unpack_from("<II", data, 4)
    expected = rows * cols * 4
    if len(data) - 12 != expected:
        raise FeatureFormatError(
            f"feature payload is {len(data) - 12} bytes, expected {expected} "
            f"({rows} rows x {cols} cols) in {path}"
        )
    if cols == 0:
        raise FeatureFormatError(f"feature file {path} has 0 columns per row")
    values = np.frombuffer(data, dtype="<f4", offset=12).reshape(rows, cols)

    sidecar = _sidecar_path(path)
    text = read_text(sidecar, FeatureFormatError, f"feature id sidecar {sidecar}")
    row_ids = [line for line in text.split("\n") if line]
    if len(row_ids) != rows:
        raise FeatureValidationError(
            f"sidecar {sidecar} lists {len(row_ids)} ids but matrix has {rows} rows"
        )

    # Rebinding each row id to its record's id object frees the sidecar's
    # copy. An unknown id is raised only after the matrix's own checks.
    unknown = None
    if corpus is not None:
        index = corpus.index()
        for i, rid in enumerate(row_ids):
            rec = index.get(rid)
            if rec is not None:
                row_ids[i] = rec.id
            elif unknown is None:
                unknown = i
    matrix = FeatureMatrix(values=values, row_ids=row_ids)
    if unknown is not None:
        raise FeatureValidationError(
            f"feature row {unknown} references unknown record id {row_ids[unknown]!r}"
        )
    return matrix
