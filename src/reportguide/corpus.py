"""Dataset plumbing: report manifests and precomputed image-feature files.

A dataset is two plain files. `manifest.jsonl` carries one report record per
line; the feature file is a small binary matrix (magic "FFMX") whose rows are
bound to records through a `.ids` sidecar listing one record id per row.
Artifacts holding one JSON line per record (labels, generated reports) are
bound to the manifest through `read_record_rows`. Only the feature-file code
imports numpy, where it runs, so a stage that reads no features (bootstrap,
evaluate) never loads it. The readers import `hashlib`, which loads OpenSSL,
where they hash, so a process that only writes inputs never loads it.

A file is checked once per file bytes, not once per process. Its *twin*
(`save_twin`) is a sections file holding the checked values that the file
was written from or read into, keyed by the sha256 of the file's bytes and
by whatever else its reader checks it against; a reader given a current
twin rebuilds its result from it instead of decoding the file again. The
manifest's twin is its *snapshot*, one section per record field, from which
`load_manifest` rebuilds the corpus from the sections a process keeps. An
artifact holding one row per record (labels, predictions, a generated
cell) has a *rows twin* (`rows_twin`, `rows_from_twin`): each row's record
by its position in the manifest, and its value as an index into the list of
the file's distinct values.
"""

from __future__ import annotations

import marshal
import os
import struct
import sys
from collections.abc import Collection, Iterator
from itertools import chain
from json.encoder import encode_basestring
from pathlib import Path
from typing import TYPE_CHECKING, NamedTuple

from .errors import DataError, PipelineError
from .fileio import (
    read_bytes,
    read_jsonl,
    read_sections,
    read_text,
    sha256_file,
    write_atomic,
    write_sections,
)
from .schema import SPLITS

if TYPE_CHECKING:
    import numpy as np

# Each split name to its SPLITS object, so every record shares one of three.
_SPLIT_OBJECT = {name: name for name in SPLITS}

FEATURE_MAGIC = b"FFMX"

# A twin is a `write_sections` file keyed by its layout, the reader's other
# inputs and the sha256 of the file's bytes, with each section's value in
# marshal format 2: a list as one object per slice of `_SLICE` items, each
# extending the one before, anything else as one object, each object after
# its length in 4 bytes, big-endian. A writer so holds one slice's bytes at
# a time, however long the list. Format 2 has no back-references, so its
# bytes are a function of the values, the same on every Python 3; a section
# is loaded only once its sha256 has matched. A change to a layout changes
# its layout string, so an older twin reads as stale.
_MARSHAL_FORMAT = 2
_SLICE = 1024
_OBJECT_LENGTH = struct.Struct(">I")

# A manifest snapshot has one section per record field, in this order: the
# list of every record's value of that field; images as each record's image
# count, then every path and modality in turn, in one list.
_SNAPSHOT_LAYOUT = "reportguide manifest snapshot 2"
_SECTIONS = ("id", "split", "report", "images")


class ImageRef(NamedTuple):
    path: str
    modality: str = ""


class ReportRecord:
    """One study: a unique id, a split, the reference report, its images.

    A record that `load_manifest` read for a stage holds None in each of
    `report` and `images` that no stage of the command reads."""

    __slots__ = ("id", "split", "report", "images")

    def __init__(self, id: str, split: str, report: str, images: tuple[ImageRef, ...] = ()):
        if not id:
            raise DataError("record id must be non-empty")
        # The type is checked first: a dict lookup of a list raises TypeError.
        split_object = _SPLIT_OBJECT.get(split) if isinstance(split, str) else None
        if split_object is None:
            raise DataError(f"record {id!r}: split must be one of {SPLITS}, got {split!r}")
        if not report:
            raise DataError(f"record {id!r}: report text must be non-empty")
        self.id, self.split, self.report, self.images = id, split_object, report, images

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.id, self.split, self.report, self.images) == (
            other.id, other.split, other.report, other.images
        )

    def __repr__(self) -> str:
        return (f"ReportRecord(id={self.id!r}, split={self.split!r}, report={self.report!r}, "
                f"images={self.images!r})")


class Corpus:
    """Ordered collection of records with unique ids, the manifest they were
    read from, which errors name, and the sha256 of its bytes; `decoded`
    when `load_manifest` decoded and checked them from the JSONL rather than
    a snapshot. Two corpora are equal when their records, manifest and
    sha256 are."""

    def __init__(
        self, records: list[ReportRecord] | None = None, manifest: str = "(in memory)",
        manifest_sha256: str | None = None, decoded: bool = False,
    ):
        self.records = [] if records is None else records
        self.manifest, self.manifest_sha256, self.decoded = manifest, manifest_sha256, decoded
        # (snapshot path, every record's report, every record's images) when
        # `load_manifest` was given a snapshot it could not use.
        self._unsaved: tuple[Path, list, list] | None = None
        # Each id to its record's position, built by the first `rows_twin`.
        self._position: dict[str, int] | None = None
        # Each id to its record; None until first use in a `from_checked` corpus.
        self._index: dict[str, ReportRecord] | None = {}
        for rec in self.records:
            if rec.id in self._index:
                raise DataError(f"duplicate record id {rec.id!r}")
            self._index[rec.id] = rec

    @classmethod
    def from_checked(
        cls, records: list[ReportRecord], manifest: str, manifest_sha256: str, decoded: bool
    ) -> Corpus:
        """The corpus of `records`, whose ids are known unique: checked line
        by line as `load_manifest` decoded them, or read from the snapshot
        of a manifest so checked. It is built without checking them again,
        and its index is built on first use."""
        corpus = cls.__new__(cls)
        corpus.records, corpus.manifest = records, manifest
        corpus.manifest_sha256, corpus.decoded = manifest_sha256, decoded
        corpus._unsaved = corpus._position = corpus._index = None
        return corpus

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.records, self.manifest, self.manifest_sha256) == (
            other.records, other.manifest, other.manifest_sha256
        )

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    def index(self) -> dict[str, ReportRecord]:
        if self._index is None:
            self._index = {rec.id: rec for rec in self.records}
        return self._index

    def split(self, name: str) -> list[ReportRecord]:
        """The records of split `name`, one of SPLITS, in manifest order. A
        split with no records is a DataError: no stage has anything to
        do on it."""
        records = [rec for rec in self.records if rec.split == name]
        if not records:
            raise DataError(f"manifest {self.manifest} has no records in split {name!r}")
        return records


def _record_from_obj(obj: dict, lineno: int) -> ReportRecord:
    try:
        images_raw = obj.get("images", [])
        if not isinstance(images_raw, list):
            raise DataError("images must be an array")
        try:
            pairs = [(img.get("path"), img.get("modality", "")) for img in images_raw]
        except AttributeError:  # a JSON value other than an object has no .get
            raise DataError("every images entry must be a JSON object") from None
        images = []
        for path, modality in pairs:
            if type(path) is not str:
                raise DataError(f"image path must be a string, got {path!r}")
            if type(modality) is not str:
                raise DataError(f"image modality must be a string, got {modality!r}")
            # A modality is categorical: every record shares one object per value.
            images.append(ImageRef(path, sys.intern(modality)))
        rid, report = obj.get("id", ""), obj.get("report", "")
        if type(rid) is not str:
            raise DataError(f"id must be a string, got {rid!r}")
        if type(report) is not str:
            raise DataError(f"record {rid!r}: report must be a string, got {report!r}")
        return ReportRecord(rid, obj.get("split", ""), report, tuple(images))
    except DataError as exc:
        raise DataError(f"manifest line {lineno}: {exc}") from exc


def load_manifest(
    path: str | Path, fields: Collection[str] | None = None, snapshot: str | Path | None = None
) -> Corpus:
    """Read manifest.jsonl, preserving record order.

    Errors carry the 1-based line number; duplicate ids name the id. A
    manifest with no records is an error too. Every line is checked in
    full; then each of `report` and `images` not in `fields` is set to
    None, so its text is freed line by line. None keeps every field.

    `snapshot` names a snapshot file for this manifest. When it holds a
    current one, written by `save_snapshot` for the same manifest bytes,
    the corpus is rebuilt from the sections that `fields` needs, each of
    which must match its digest, and the JSONL is not decoded. Any other
    file there, or none, is ignored: the manifest is read as without
    one, and, if `fields` keeps the reports, `save_snapshot` can then
    write it. A reader that drops the reports keeps none for the snapshot,
    so it holds no more than without one.

    The manifest is never held whole: it is hashed in chunks to look the
    snapshot up, and the JSONL decode hashes the bytes it decodes as it
    reads them, so `manifest_sha256` names exactly those.
    """
    import hashlib

    kept = [name for name in ("report", "images") if fields is None or name in fields]
    if snapshot is not None:
        found = load_twin(Path(snapshot), path, _SNAPSHOT_LAYOUT, ["id", "split", *kept])
        if found is not None:
            digest, columns = found
            return Corpus.from_checked(_snapshot_records(columns), str(path), digest, decoded=False)
    digest = hashlib.sha256()
    drop = [name for name in ("report", "images") if name not in kept]
    unsaved = snapshot is not None and "report" in kept
    records: list[ReportRecord] = []
    reports: list[str] = []
    images: list[tuple[ImageRef, ...]] = []
    seen: set[str] = set()
    for lineno, obj in read_jsonl(path, DataError, "manifest", digest):
        rec = _record_from_obj(obj, lineno)
        if rec.id in seen:
            raise DataError(f"manifest line {lineno}: duplicate record id {rec.id!r}")
        seen.add(rec.id)
        if unsaved:
            reports.append(rec.report)
            images.append(rec.images)
        for name in drop:
            setattr(rec, name, None)
        records.append(rec)
    if not records:
        raise DataError(f"manifest {path} has no records")
    corpus = Corpus.from_checked(records, str(path), digest.hexdigest(), decoded=True)
    if unsaved:
        corpus._unsaved = (Path(snapshot), reports, images)
    return corpus


def save_snapshot(corpus: Corpus) -> None:
    """Write the snapshot that `load_manifest(path, fields, snapshot)` found
    missing or stale for `corpus`, if it did and `fields` kept the reports;
    else do nothing.

    It is a twin (`save_twin`): one that cannot be written is left
    unwritten, and the manifest is read instead.
    """
    if corpus._unsaved is None:
        return
    path, reports, images = corpus._unsaved
    columns = (
        [rec.id for rec in corpus],
        [rec.split for rec in corpus],
        reports,
        [*map(len, images), *chain.from_iterable(chain.from_iterable(images))],
    )
    if save_twin(path, _SNAPSHOT_LAYOUT, corpus.manifest_sha256, dict(zip(_SECTIONS, columns))):
        corpus._unsaved = None


def _snapshot_records(columns: dict) -> list[ReportRecord]:
    """The records of a current snapshot's `columns`, holding the fields
    read. Their values were checked when the snapshot was written, so they
    are built without checks."""
    none = [None] * len(columns["id"])
    images = none
    if "images" in columns:
        n, column = len(columns["id"]), columns["images"]
        refs = list(map(ImageRef, column[n::2], map(sys.intern, column[n + 1::2])))
        images, start = [], 0
        for count in column[:n]:
            images.append(tuple(refs[start:start + count]))
            start += count
    new = object.__new__
    records = []
    for rid, split, report, imgs in zip(
        columns["id"], map(_SPLIT_OBJECT.__getitem__, columns["split"]),
        columns.get("report", none), images,
    ):
        rec = new(ReportRecord)
        rec.id, rec.split, rec.report, rec.images = rid, split, report, imgs
        records.append(rec)
    return records


class Twin(NamedTuple):
    """What a stage writes to an artifact's twin: the key of the checks its
    reader makes besides the artifact's sha256, and the values by section."""

    key: str
    values: dict[str, object]


def save_twin(path: Path, key: str, sha256: str, values: dict[str, object]) -> bool:
    """Replace the twin file `path` of a file whose bytes have `sha256`
    with `values`, one section each, for the readers whose other checks
    `key` names; True once written.

    The file is replaced atomically but not fsynced (`write_sections`): a
    twin lost in a crash, or torn, fails its check. One that cannot be
    written is left unwritten, and its file is read instead."""
    sections = ((name, _marshalled(value)) for name, value in values.items())
    try:
        write_sections(path, f"{key}, sha256 {sha256}", sections)
    except DataError:
        return False
    return True


def load_twin(
    path: Path, source: str | Path, key: str, names
) -> tuple[str, dict[str, object]] | None:
    """(sha256 of `source`, the values of sections `names`) of the twin
    file `path`, if it was saved for `key` and the current bytes of
    `source` and each of those sections matches its digest; else None.
    `source` is hashed in chunks, and only when `path` is a regular file."""
    if not os.path.isfile(path):
        return None
    digest = sha256_file(source)
    blobs = None if digest is None else read_sections(path, f"{key}, sha256 {digest}", names)
    if blobs is None:
        return None
    return digest, {name: _unmarshalled(blob) for name, blob in blobs.items()}


def _marshalled(value) -> Iterator[bytes]:
    """The bytes of the twin section holding `value`, one object at a time."""
    parts = [value]
    if type(value) is list and len(value) > _SLICE:
        parts = (value[start:start + _SLICE] for start in range(0, len(value), _SLICE))
    for part in parts:
        blob = marshal.dumps(part, _MARSHAL_FORMAT)
        yield _OBJECT_LENGTH.pack(len(blob))
        yield blob
        del blob  # written: free it before the next slice is marshalled


def _unmarshalled(blob: bytes):
    """The value of the twin section `blob` (`_marshalled`)."""
    view, start, value = memoryview(blob), 0, None
    while start < len(blob):
        (length,) = _OBJECT_LENGTH.unpack_from(blob, start)
        start += _OBJECT_LENGTH.size
        part = marshal.loads(view[start:start + length])
        start += length
        if value is None:
            value = part
        else:
            value.extend(part)
    return value


# A rows twin, of a file holding one row per record, is keyed by this layout,
# the manifest, and the reader's own part: what else it checks the rows
# against. It holds each row's record position in the manifest, each row's
# index into the list of the file's distinct values, and that list.
_ROWS_LAYOUT = "reportguide rows twin 1"
_ROWS_SECTIONS = ("position", "value", "values")


def _rows_key(corpus: Corpus, key: str) -> str:
    return f"{_ROWS_LAYOUT}, manifest {corpus.manifest_sha256}, {key}"


def rows_twin(corpus: Corpus, key: str, ids: list[str], values: list) -> Twin | None:
    """The twin of a file whose rows, in file order, name the records `ids`
    of `corpus` and carry `values`, each a checked marshallable value, for
    `rows_from_twin(twin, path, corpus, key)` to rebuild them from; None for
    no rows, which every reader refuses, or a corpus read from no manifest,
    whose positions no key could bind."""
    if not ids or corpus.manifest_sha256 is None:
        return None
    if corpus._position is None:
        corpus._position = {rid: i for i, rid in enumerate(corpus.index())}
    position, distinct = corpus._position, {}
    return Twin(_rows_key(corpus, key), {
        "position": [position[rid] for rid in ids],
        "value": [distinct.setdefault(value, len(distinct)) for value in values],
        "values": list(distinct),
    })


def rows_from_twin(
    twin: Path, path: str | Path, corpus: Corpus, key: str
) -> Iterator[tuple[ReportRecord, object]] | None:
    """The (record of `corpus`, value) of each row, in file order, that
    `rows_twin(corpus, key, ...)` gave for the file at `path`, rebuilt from
    the twin file `twin` if it is current for the bytes at `path`, `corpus`
    and `key`; else None. Equal values are one shared object. Nothing is
    decoded from `path` or checked again. The rows are made as they are
    iterated, so a caller that builds its own result holds no list of them."""
    found = load_twin(twin, path, _rows_key(corpus, key), _ROWS_SECTIONS)
    if found is None:
        return None
    sections = found[1]
    return zip(
        map(corpus.records.__getitem__, sections["position"]),
        map(sections["values"].__getitem__, sections["value"]),
    )


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


def _image_text(im: ImageRef) -> str:
    return (
        f'{{"path": {encode_basestring(im.path)}, '
        f'"modality": {encode_basestring(im.modality)}}}'
    )


def manifest_to_jsonl(corpus: Corpus) -> str:
    """The manifest.jsonl text of `corpus`: one line per record, keys id,
    split, report and images (path, modality in each image).

    Each line is the bytes that `json.dumps(..., ensure_ascii=False)` writes
    for the record's object, non-ASCII text raw, built from the C string
    encoder that call uses, with no object or encoder made per record.
    """
    return "".join([
        f'{{"id": {encode_basestring(rec.id)}, "split": {encode_basestring(rec.split)}, '
        f'"report": {encode_basestring(rec.report)}, '
        f'"images": [{", ".join(map(_image_text, rec.images))}]}}\n'
        for rec in corpus.records
    ])


def save_manifest(corpus: Corpus, path: str | Path) -> None:
    """Write manifest.jsonl in canonical form (`manifest_to_jsonl`, UTF-8).

    save(load(p)) reproduces a canonically written file byte for byte.
    """
    write_atomic(path, manifest_to_jsonl(corpus))


class FeatureMatrix:
    """Dense float32 feature rows plus the record id owning each row, and
    the sha256 of the feature file they were read from.

    `source` names where the row ids came from in a duplicate-id error."""

    def __init__(
        self,
        values: np.ndarray,
        row_ids: list[str],
        source: str = "the feature matrix",
        sha256: str | None = None,
    ):
        import numpy as np

        self.values = np.asarray(values, dtype=np.float32)
        self.row_ids = row_ids
        self.sha256 = sha256
        if self.values.ndim != 2:
            raise DataError(
                f"feature matrix must be 2-D, got shape {self.values.shape}"
            )
        if self.values.shape[0] != len(self.row_ids):
            raise DataError(
                f"{self.values.shape[0]} feature rows but {len(self.row_ids)} row ids"
            )
        # The float64 sum of float32 values is finite exactly when every value
        # is, and numpy reduces through a fixed-size buffer, so no temporary
        # the size of the matrix is made unless a value is bad.
        with np.errstate(invalid="ignore"):
            finite = np.isfinite(self.values.sum(dtype=np.float64))
        if not finite:
            r, c = (int(x) for x in np.argwhere(~np.isfinite(self.values))[0])
            raise DataError(
                f"non-finite feature value at row {r}, column {c} (record {self.row_ids[r]!r})"
            )
        self._row_of = {rid: i for i, rid in enumerate(self.row_ids)}
        if len(self._row_of) != len(self.row_ids):
            # The first row whose id the dict maps to a later row.
            i = next(i for i, rid in enumerate(self.row_ids) if self._row_of[rid] != i)
            rid = self.row_ids[i]
            raise DataError(
                f"{source} lists duplicate record id {rid!r} at rows {i} and {self._row_of[rid]}"
            )

    @property
    def rows(self) -> int:
        return int(self.values.shape[0])

    @property
    def dim(self) -> int:
        return int(self.values.shape[1])

    def row_index(self, record_id: str) -> int | None:
        """The index of `record_id`'s row in `values`, or None."""
        return self._row_of.get(record_id)

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

    A file with no columns is a DataError. When a corpus is given,
    every row id must resolve to a record, and the matrix keeps that record's
    own id object.
    """
    import hashlib

    import numpy as np

    data = read_bytes(path, DataError, f"feature file {path}")
    if data[:4] != FEATURE_MAGIC:
        raise DataError(f"bad magic {data[:4]!r} in {path}; expected {FEATURE_MAGIC!r}")
    if len(data) < 12:
        raise DataError(f"truncated header in {path}")
    rows, cols = struct.unpack_from("<II", data, 4)
    expected = rows * cols * 4
    if len(data) - 12 != expected:
        raise DataError(
            f"feature payload is {len(data) - 12} bytes, expected {expected} "
            f"({rows} rows x {cols} cols) in {path}"
        )
    if cols == 0:
        raise DataError(f"feature file {path} has 0 columns per row")
    values = np.frombuffer(data, dtype="<f4", offset=12).reshape(rows, cols)

    sidecar = _sidecar_path(path)
    text = read_text(sidecar, DataError, f"feature id sidecar {sidecar}")
    row_ids = [line for line in text.split("\n") if line]
    if len(row_ids) != rows:
        raise DataError(
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
    matrix = FeatureMatrix(
        values=values, row_ids=row_ids, source=f"feature id sidecar {sidecar}",
        sha256=hashlib.sha256(data).hexdigest(),
    )
    if unknown is not None:
        raise DataError(
            f"feature row {unknown} references unknown record id {row_ids[unknown]!r}"
        )
    return matrix
