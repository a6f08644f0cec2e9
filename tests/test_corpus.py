"""Manifest and feature-file plumbing: parsing, validation, binary layout,
sidecar binding, and round-trip fidelity."""

from __future__ import annotations

import hashlib
import json
import marshal
import re
import struct
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import json_strings, sections_footer

from reportguide import corpus as corpus_mod
from reportguide.bootstrap import (
    AnnotatedItem,
    LabelEntry,
    LabelTaxonomy,
    MLCDataset,
    bootstrap_dataset,
    labels_dataset,
    labels_to_jsonl,
    load_labels,
)
from reportguide.classifier import predict_records, train
from reportguide.cli import STAGES
from reportguide.corpus import (
    SPLITS,
    Corpus,
    FeatureMatrix,
    ImageRef,
    ReportRecord,
    load_features,
    load_manifest,
    load_twin,
    manifest_to_jsonl,
    read_record_rows,
    rows_from_twin,
    rows_twin,
    save_features,
    save_manifest,
    save_snapshot,
    save_twin,
)
from reportguide.errors import DataError
from reportguide.guidance import (
    ABLATION_MODES,
    generated_to_jsonl,
    load_generated,
)
from reportguide.schema import BootstrapConfig, TrainConfig


def _write_manifest(path, rows):
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row) + "\n")


# ---------------------------------------------------------------------------
# Records and corpus invariants
# ---------------------------------------------------------------------------


def test_record_requires_nonempty_id():
    with pytest.raises(DataError, match="^record id must be non-empty$"):
        ReportRecord(id="", split="train", report="text")


def test_record_requires_known_split():
    message = f"^record 'a': split must be one of {re.escape(str(SPLITS))}, got 'holdout'$"
    with pytest.raises(DataError, match=message):
        ReportRecord(id="a", split="holdout", report="text")


def test_record_requires_nonempty_report():
    with pytest.raises(DataError, match="^record 'a': report text must be non-empty$"):
        ReportRecord(id="a", split="train", report="")


def test_corpus_rejects_duplicate_ids():
    rec = lambda i: ReportRecord(id=i, split="train", report="t")
    with pytest.raises(DataError, match="^duplicate record id 'x'$"):
        Corpus(records=[rec("x"), rec("x")])


def test_a_read_manifest_is_not_checked_for_duplicate_ids_again(tmp_path):
    """`load_manifest` checks each id as it decodes its line, and a snapshot
    holds the ids of a manifest so checked, so neither path builds its
    corpus through the checking constructor; the index is built on use."""
    path, snapshot = tmp_path / "manifest.jsonl", tmp_path / "manifest.snapshot"
    _write_manifest(
        path, [{"id": rid, "split": "train", "report": "t", "images": []} for rid in ("b", "a")]
    )
    with mock.patch.object(Corpus, "__init__", side_effect=AssertionError("checked again")):
        decoded = load_manifest(path, None, snapshot)
        save_snapshot(decoded)
        with mock.patch.object(corpus_mod, "read_jsonl", side_effect=AssertionError("decoded")):
            read = load_manifest(path, None, snapshot)
    assert decoded.decoded and not read.decoded
    for corpus in decoded, read:
        assert list(corpus.index()) == ["b", "a"]
        assert all(corpus.index()[rec.id] is rec for rec in corpus.records)


def test_corpus_lookup_and_split_sizes():
    records = [
        ReportRecord(id="a", split="train", report="t"),
        ReportRecord(id="b", split="val", report="t"),
        ReportRecord(id="c", split="test", report="t"),
    ]
    corpus = Corpus(records=records)
    assert corpus.index()["b"].split == "val"
    assert [len(corpus.split(s)) for s in ("train", "val", "test")] == [1, 1, 1]


# ---------------------------------------------------------------------------
# Manifest files
# ---------------------------------------------------------------------------


def test_load_manifest_three_line_splits(tmp_path):
    path = tmp_path / "manifest.jsonl"
    _write_manifest(
        path,
        [
            {"id": "a", "split": "train", "report": "one", "images": []},
            {"id": "b", "split": "val", "report": "two", "images": []},
            {"id": "c", "split": "test", "report": "three", "images": []},
        ],
    )
    corpus = load_manifest(path)
    assert [len(corpus.split(s)) for s in ("train", "val", "test")] == [1, 1, 1]
    assert [r.id for r in corpus] == ["a", "b", "c"]  # input order preserved


def test_load_manifest_parses_image_refs(tmp_path):
    path = tmp_path / "manifest.jsonl"
    _write_manifest(
        path,
        [
            {
                "id": "a",
                "split": "train",
                "report": "one",
                "images": [{"path": "img/a.png", "modality": "xray"}],
            }
        ],
    )
    rec = load_manifest(path).index()["a"]
    assert rec.images == (ImageRef(path="img/a.png", modality="xray"),)


def test_load_manifest_names_bad_json_line(tmp_path):
    path = tmp_path / "manifest.jsonl"
    path.write_text(
        '{"id": "a", "split": "train", "report": "ok", "images": []}\n'
        "this is not json\n",
        encoding="utf-8",
    )
    with pytest.raises(DataError, match="line 2"):
        load_manifest(path)


def test_load_manifest_names_duplicate_id(tmp_path):
    path = tmp_path / "manifest.jsonl"
    _write_manifest(
        path,
        [
            {"id": "x", "split": "train", "report": "one", "images": []},
            {"id": "x", "split": "val", "report": "two", "images": []},
        ],
    )
    with pytest.raises(DataError, match="^manifest line 2: duplicate record id 'x'$"):
        load_manifest(path)


def test_load_manifest_indexes_each_record_by_its_id(tmp_path):
    path = tmp_path / "manifest.jsonl"
    _write_manifest(
        path,
        [{"id": rid, "split": "train", "report": "t", "images": []} for rid in ("b", "a", "c")],
    )
    corpus = load_manifest(path)
    assert corpus.index() == {rec.id: rec for rec in corpus.records}
    assert list(corpus.index()) == ["b", "a", "c"]
    assert all(corpus.index()[rec.id] is rec for rec in corpus.records)


@pytest.mark.parametrize("split", ["nope", [], None, {}])
def test_load_manifest_reports_line_of_invalid_record(tmp_path, split):
    path = tmp_path / "manifest.jsonl"
    _write_manifest(
        path,
        [
            {"id": "a", "split": "train", "report": "one", "images": []},
            {"id": "b", "split": split, "report": "two", "images": []},
        ],
    )
    with pytest.raises(DataError) as excinfo:
        load_manifest(path)
    assert str(excinfo.value) == (
        f"manifest line 2: record 'b': split must be one of {SPLITS}, got {split!r}"
    )


_GOOD_LINE = '{"id": "b", "split": "val", "report": "two", "images": [{"path": "p.png"}]}'


@pytest.mark.parametrize(
    "line",
    [
        "\ufeff" + _GOOD_LINE,  # a byte-order mark is not JSON whitespace
        _GOOD_LINE + " {}",  # Extra data
        _GOOD_LINE[:-1],  # truncated
        "{" + _GOOD_LINE,
        "{}}",
        "[1, 2",
        "nul",
        '{"id": "b", "report": "\x01"}',  # a raw control character
    ],
)
def test_load_manifest_words_invalid_json_as_json_loads_does(tmp_path, line):
    path = tmp_path / "manifest.jsonl"
    path.write_text(
        '{"id": "a", "split": "train", "report": "ok", "images": []}\n' + line + "\n",
        encoding="utf-8",
    )
    with pytest.raises(json.JSONDecodeError) as expected:
        json.loads(line + "\n")
    with pytest.raises(DataError) as excinfo:
        load_manifest(path)
    assert str(excinfo.value) == f"manifest line 2: invalid JSON: {expected.value}"


@pytest.mark.parametrize("image", ['"p.png"', "1", "null", "[]", "true"])
def test_load_manifest_rejects_an_images_entry_that_is_not_an_object(tmp_path, image):
    path = tmp_path / "manifest.jsonl"
    path.write_text(
        '{"id": "a", "split": "train", "report": "ok", "images": []}\n'
        f'{{"id": "b", "split": "train", "report": "x", "images": [{{}}, {image}]}}\n',
        encoding="utf-8",
    )
    with pytest.raises(DataError) as excinfo:
        load_manifest(path)
    assert str(excinfo.value) == (
        "manifest line 2: every images entry must be a JSON object"
    )


def test_load_manifest_sets_each_field_it_is_not_asked_to_keep_to_none(tmp_path):
    path = tmp_path / "m.jsonl"
    _write_manifest(path, [
        {"id": "a", "split": "train", "report": "r", "images": [{"path": "a.png"}]},
    ])
    for fields, report, images in [
        (None, "r", (ImageRef("a.png"),)),
        (("report", "images"), "r", (ImageRef("a.png"),)),
        (("report",), "r", None),
        (("images",), None, (ImageRef("a.png"),)),
        ((), None, None),
    ]:
        [rec] = load_manifest(path, fields).records
        assert (rec.id, rec.split, rec.report, rec.images) == ("a", "train", report, images)


def test_load_manifest_skips_blank_lines(tmp_path):
    path = tmp_path / "manifest.jsonl"
    path.write_text(
        '{"id": "a", "split": "train", "report": "ok", "images": []}\n\n',
        encoding="utf-8",
    )
    assert len(load_manifest(path)) == 1


# ---------------------------------------------------------------------------
# Per-record JSONL files bound to the manifest
# ---------------------------------------------------------------------------

_AB = Corpus(records=[ReportRecord("a", "train", "ra"), ReportRecord("b", "test", "rb")])


def test_read_record_rows_yields_each_row_with_its_record_in_file_order(tmp_path):
    path = tmp_path / "rows.jsonl"
    path.write_text('{"id": "b", "x": 1}\n\n{"id": "a", "x": 2}\n', encoding="utf-8")
    rows = list(read_record_rows(path, _AB, DataError, "rows file"))
    assert rows == [
        (1, {"id": "b", "x": 1}, _AB.records[1]),
        (3, {"id": "a", "x": 2}, _AB.records[0]),
    ]


class _RowsError(DataError):
    """The error a caller hands `read_record_rows`."""


@pytest.mark.parametrize(
    "text, message",
    [
        ('{"id": "a"}\n{"id": "c"}\n', "rows file line 2: unknown record id 'c'"),
        ('{"id": "a"}\n{"id": 7}\n', "rows file line 2: id must be a string, got 7"),
        ('{"id": true}\n', "rows file line 1: id must be a string, got True"),
        ('{"x": 1}\n', "rows file line 1: id must be a string, got None"),
        ('{"id": "b"}\n{"id": "a"}\n{"id": "b"}\n',
         "rows file line 3: record id 'b' is already on line 1"),
        ("", "rows file has no rows"),
        ("\n  \n", "rows file has no rows"),
    ],
)
def test_read_record_rows_raises_the_callers_error(tmp_path, text, message):
    path = tmp_path / "rows.jsonl"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(_RowsError) as excinfo:
        list(read_record_rows(path, _AB, _RowsError, "rows file"))
    assert str(excinfo.value) == message


def test_manifest_round_trip_is_byte_identical(tmp_path):
    records = [
        ReportRecord(
            id="a",
            split="train",
            report="Ünïcode text with 中文 and punctuation; quotes \"ok\".",
            images=(ImageRef(path="x/a.png", modality="xray"),),
        ),
        ReportRecord(id="b", split="test", report="plain"),
    ]
    first = tmp_path / "one.jsonl"
    second = tmp_path / "two.jsonl"
    save_manifest(Corpus(records=records), first)
    save_manifest(load_manifest(first), second)
    assert first.read_bytes() == second.read_bytes()


_ID_ALPHABET = st.text(
    alphabet=st.characters(min_codepoint=33, max_codepoint=126), min_size=1, max_size=12
)


@given(
    st.lists(
        st.tuples(
            _ID_ALPHABET,
            st.sampled_from(["train", "val", "test"]),
            st.text(min_size=1, max_size=80).filter(lambda s: s.strip()),
        ),
        min_size=1,
        max_size=10,
        unique_by=lambda t: t[0],
    )
)
@settings(max_examples=50, deadline=None)
def test_manifest_round_trip_preserves_records(tmp_path_factory, rows):
    tmp = tmp_path_factory.mktemp("prop")
    records = [ReportRecord(id=i, split=s, report=r) for i, s, r in rows]
    path = tmp / "m.jsonl"
    save_manifest(Corpus(records=records), path)
    loaded = load_manifest(path)
    assert list(loaded.records) == records


_IMAGES = st.lists(st.builds(ImageRef, json_strings(), json_strings()), max_size=3)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.tuples(json_strings(min_size=1), st.sampled_from(SPLITS), json_strings(min_size=1),
                  _IMAGES),
        max_size=6,
        unique_by=lambda t: t[0],
    )
)
@example([
    ("a", "train", "r", ()),
    ("b", "val", "r", (ImageRef("p.png", "xray"),)),
    ("c", "test", "r", (ImageRef("p1", ""), ImageRef("p2", "ct"), ImageRef("\u2028", "\ud800"))),
])
def test_manifest_to_jsonl_writes_the_bytes_of_json_dumps(rows):
    records = [ReportRecord(i, s, r, tuple(images)) for i, s, r, images in rows]
    assert manifest_to_jsonl(Corpus(records=records)) == "".join(
        json.dumps(
            {
                "id": i,
                "split": s,
                "report": r,
                "images": [{"path": im.path, "modality": im.modality} for im in images],
            },
            ensure_ascii=False,
        )
        + "\n"
        for i, s, r, images in rows
    )


# ---------------------------------------------------------------------------
# Manifest snapshots
# ---------------------------------------------------------------------------

# Text a manifest can hold (no lone surrogate), rich in what JSON writers
# and line splitters get wrong: quotes, backslashes, raw U+2028/U+2029,
# control characters and non-ASCII text.
_MANIFEST_TEXT = st.text(
    st.characters(exclude_categories=["Cs"])
    | st.sampled_from(['"', "\\", "\u2028", "\u2029", "\x00", "\n", "é", "肺", "😀"]),
    min_size=1,
    max_size=12,
)
# Few values, so that records share modalities.
_MODALITY = st.sampled_from(["", "xray", "ct", "肺 CT"]) | _MANIFEST_TEXT
_FIELD_SETS = [None, (), ("report",), ("images",), ("report", "images")]


def _manifest_line(rid, split, report, images, ascii_only):
    obj = {"id": rid, "split": split, "report": report}
    if images is not None:
        obj["images"] = [
            {"path": path} if modality is None else {"path": path, "modality": modality}
            for path, modality in images
        ]
    return json.dumps(obj, ensure_ascii=ascii_only) + "\n"


@settings(max_examples=100, deadline=None)
@given(
    rows=st.lists(
        st.tuples(
            _MANIFEST_TEXT,
            st.sampled_from(SPLITS),
            _MANIFEST_TEXT,
            st.none() | st.lists(st.tuples(_MANIFEST_TEXT, st.none() | _MODALITY), max_size=3),
            st.booleans(),
        ),
        min_size=1,
        max_size=8,
        unique_by=lambda row: row[0],
    ),
    written_with=st.sampled_from([None, ("report",), ("report", "images")]),
)
def test_a_snapshot_rebuilds_the_corpus_that_the_jsonl_gives(tmp_path_factory, rows, written_with):
    tmp = tmp_path_factory.mktemp("snapshot")
    path, snapshot = tmp / "manifest.jsonl", tmp / "manifest.snapshot"
    path.write_text("".join(_manifest_line(*row) for row in rows), encoding="utf-8")
    for fields in (), ("images",):
        save_snapshot(load_manifest(path, fields, snapshot))
    assert not snapshot.exists()  # a reader that drops the reports writes none
    # Lists of more than two items are marshalled in slices, as long ones are.
    with mock.patch.object(corpus_mod, "_SLICE", 2):
        save_snapshot(load_manifest(path, written_with, snapshot))
    assert snapshot.is_file()
    for fields in _FIELD_SETS:
        parsed = load_manifest(path, fields)
        with mock.patch.object(corpus_mod, "read_jsonl", side_effect=AssertionError("decoded")):
            read = load_manifest(path, fields, snapshot)
        assert read == parsed and read.manifest == str(path)
        assert list(read.index()) == [rec.id for rec in parsed]
        assert all(rec.split is next(s for s in SPLITS if s == rec.split) for rec in read)
        for rec in read:
            for image in rec.images or ():
                assert image.modality is sys.intern(image.modality)
                assert type(image) is ImageRef


_MANIFEST_ROWS = st.lists(
    st.tuples(
        _MANIFEST_TEXT,
        st.sampled_from(SPLITS),
        _MANIFEST_TEXT,
        st.none() | st.lists(st.tuples(_MANIFEST_TEXT, st.none() | _MODALITY), max_size=3),
        st.booleans(),
    ),
    min_size=1,
    max_size=8,
    unique_by=lambda row: row[0],
)


def _write_twin_of(path, twin, tmp) -> object:
    """Save `twin` for the bytes at `path`, as `run_stage` does."""
    twin_file = tmp / f"{path.name}.twin"
    # Lists of more than two items are marshalled in slices, as long ones are.
    with mock.patch.object(corpus_mod, "_SLICE", 2):
        assert save_twin(twin_file, twin.key, hashlib.sha256(path.read_bytes()).hexdigest(),
                         twin.values)
    return twin_file


@settings(max_examples=60, deadline=None)
@given(rows=_MANIFEST_ROWS, k=st.integers(1, 5), data=st.data())
def test_a_twin_rebuilds_what_the_checked_readers_return(tmp_path_factory, rows, k, data):
    tmp = tmp_path_factory.mktemp("twin")
    path = tmp / "manifest.jsonl"
    path.write_text("".join(_manifest_line(*row) for row in rows), encoding="utf-8")
    # The writer's corpus keeps every field; a reader's, none.
    written, corpus = load_manifest(path), load_manifest(path, ())
    taxonomy = LabelTaxonomy(labels=tuple(LabelEntry(i, f"finding {i}") for i in range(k)))
    vector = st.lists(st.integers(0, k - 1), unique=True, max_size=k).map(sorted).map(tuple)
    pool = data.draw(st.lists(vector, min_size=1, max_size=3))
    order = data.draw(st.permutations(written.records))
    chosen = order[: data.draw(st.integers(1, len(order)))]
    # Each vector drawn anew, so that equal vectors are distinct objects.
    label_rows = [(rec.id, tuple(data.draw(st.sampled_from(pool)))) for rec in chosen]
    dataset = MLCDataset(taxonomy, tuple(AnnotatedItem(rid, written.index()[rid].split, v)
                                         for rid, v in label_rows))
    texts = {
        "labels": labels_to_jsonl(dataset),
        "predictions": "".join(json.dumps({"id": rid, "positives": list(v), "probs": [0.5] * k})
                               + "\n" for rid, v in label_rows),
    }
    index = corpus.index()
    key = f"taxonomy {k}"
    ids, vectors = [rid for rid, _ in label_rows], [v for _, v in label_rows]
    for kind, text in texts.items():
        labels = tmp / f"{kind}.jsonl"
        labels.write_text(text, encoding="utf-8")
        twin = _write_twin_of(labels, rows_twin(written, key, ids, vectors), tmp)
        checked = load_labels(labels, corpus, taxonomy, kind)
        with mock.patch.object(corpus_mod, "read_jsonl", side_effect=AssertionError("decoded")):
            rebuilt = labels_dataset(taxonomy, rows_from_twin(twin, labels, corpus, key))
        assert rebuilt == checked
        assert all(item.record_id is index[item.record_id].id for item in rebuilt.items)
        assert all(item.split is index[item.record_id].split for item in rebuilt.items)
        # One shared tuple per distinct vector, as the checked read shares them.
        for items in (checked.items, rebuilt.items):
            distinct = {item.positives for item in items}
            assert len({id(item.positives) for item in items}) == len(distinct)
    split = data.draw(st.sampled_from(sorted({rec.split for rec in corpus})))
    mode, source = data.draw(st.sampled_from(ABLATION_MODES))
    records = data.draw(st.permutations(written.split(split)))
    # Every report distinct, or every report the same text.
    if data.draw(st.booleans()):
        reports = data.draw(st.lists(_MANIFEST_TEXT, min_size=len(records),
                                     max_size=len(records), unique=True))
    else:
        reports = [data.draw(_MANIFEST_TEXT)] * len(records)
    generated_rows = [
        {"id": rec.id, "mode": mode, "label_source": source, "prompt": data.draw(_MANIFEST_TEXT),
         "report": report}
        for rec, report in zip(records, reports)
    ]
    generated = tmp / "generated.jsonl"
    generated.write_text(generated_to_jsonl(generated_rows), encoding="utf-8")
    key = f"cell {mode} {source} {split}"
    twin = _write_twin_of(generated, rows_twin(written, key, [rec.id for rec in records], reports),
                          tmp)
    checked = load_generated(generated, corpus, mode, source, split)
    with mock.patch.object(corpus_mod, "read_jsonl", side_effect=AssertionError("decoded")):
        rebuilt = list(rows_from_twin(twin, generated, corpus, key))
    assert rebuilt == checked
    assert all(rec is index[rec.id] for rec, _ in rebuilt)
    assert len({id(report) for _, report in rebuilt}) == len(set(reports))
    # A twin is current only for the key it was written for.
    assert rows_from_twin(twin, generated, corpus, f"cell {mode} {source} other") is None


def test_no_twin_binds_a_corpus_read_from_no_manifest(tmp_path):
    corpus = Corpus(records=[ReportRecord("a", "test", "ref")])
    assert rows_twin(corpus, "key", ["a"], [(0,)]) is None
    path = tmp_path / "manifest.jsonl"
    save_manifest(corpus, path)
    corpus = load_manifest(path)
    assert rows_twin(corpus, "key", [], []) is None
    assert rows_twin(corpus, "key", ["a"], [(0,)]).values == {
        "position": [0], "value": [0], "values": [(0,)]
    }


def test_save_twin_holds_one_marshalled_slice_at_a_time(tmp_path):
    # Three sections of about 3 MB each, marshalled 1024 items at a time.
    values = {name: [name * 100] * 30_000 for name in "abc"}
    size = len(marshal.dumps(values["a"], 2))
    tracemalloc.start()
    try:
        assert save_twin(tmp_path / "x.twin", "key", "0" * 64, values)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < size / 8, (peak, size)
    assert load_twin(tmp_path / "x.twin", tmp_path / "x.twin", "key", "abc") is None  # stale
    path = tmp_path / "source"
    path.write_bytes(b"x")
    assert save_twin(tmp_path / "x.twin", "key", hashlib.sha256(b"x").hexdigest(), values)
    assert load_twin(tmp_path / "x.twin", path, "key", "abc")[1] == values


def _report_section_offset(snapshot) -> int:
    sections = sections_footer(snapshot.read_bytes())[0]["sections"]
    return sections["id"][0] + sections["split"][0]


# ---------------------------------------------------------------------------
# Feature files
# ---------------------------------------------------------------------------


def test_load_features_reads_hand_written_binary(tmp_path):
    # The binary layout is written by hand here so the reader is checked
    # against the declared format, not against the writer.
    path = tmp_path / "f.ffmx"
    payload = struct.pack("<6f", 1.0, 2.0, 3.0, 4.0, 5.0, 6.0)
    path.write_bytes(b"FFMX" + struct.pack("<II", 2, 3) + payload)
    (tmp_path / "f.ffmx.ids").write_text("a\nb\n", encoding="utf-8")
    matrix = load_features(path)
    assert matrix.rows == 2 and matrix.dim == 3
    assert matrix.row_ids == ["a", "b"]
    np.testing.assert_array_equal(
        matrix.values, np.array([[1, 2, 3], [4, 5, 6]], dtype=np.float32)
    )


def test_save_then_load_features_round_trip_exact(tmp_path):
    values = np.array([[0.1, -2.5e-8, 3e7], [1.5, -0.0, 7.25]], dtype=np.float32)
    matrix = FeatureMatrix(values=values, row_ids=["r1", "r2"])
    path = tmp_path / "f.ffmx"
    save_features(matrix, path)
    loaded = load_features(path)
    np.testing.assert_array_equal(loaded.values, values)
    assert loaded.row_ids == ["r1", "r2"]


def test_load_features_rejects_bad_magic(tmp_path):
    path = tmp_path / "f.ffmx"
    path.write_bytes(b"NOPE" + struct.pack("<II", 1, 1) + struct.pack("<f", 1.0))
    with pytest.raises(DataError, match="magic"):
        load_features(path)


def test_load_features_rejects_truncated_payload(tmp_path):
    path = tmp_path / "f.ffmx"
    path.write_bytes(b"FFMX" + struct.pack("<II", 2, 3) + struct.pack("<3f", 1, 2, 3))
    (tmp_path / "f.ffmx.ids").write_text("a\nb\n", encoding="utf-8")
    with pytest.raises(DataError, match="expected 24"):
        load_features(path)


def test_load_features_rejects_truncated_header(tmp_path):
    path = tmp_path / "f.ffmx"
    path.write_bytes(b"FFMX" + b"\x01\x00")
    with pytest.raises(DataError, match="header"):
        load_features(path)


def test_load_features_cites_position_of_nan(tmp_path):
    path = tmp_path / "f.ffmx"
    payload = struct.pack("<4f", 1.0, float("nan"), 3.0, 4.0)
    path.write_bytes(b"FFMX" + struct.pack("<II", 2, 2) + payload)
    (tmp_path / "f.ffmx.ids").write_text("a\nb\n", encoding="utf-8")
    with pytest.raises(DataError, match=r"row 0, column 1"):
        load_features(path)


def test_load_features_requires_sidecar(tmp_path):
    path = tmp_path / "f.ffmx"
    path.write_bytes(b"FFMX" + struct.pack("<II", 1, 1) + struct.pack("<f", 1.0))
    with pytest.raises(DataError, match="sidecar"):
        load_features(path)


def test_load_features_rejects_sidecar_count_mismatch(tmp_path):
    path = tmp_path / "f.ffmx"
    path.write_bytes(b"FFMX" + struct.pack("<II", 2, 1) + struct.pack("<2f", 1.0, 2.0))
    (tmp_path / "f.ffmx.ids").write_text("a\n", encoding="utf-8")
    with pytest.raises(DataError, match="1 ids"):
        load_features(path)


def test_load_features_rejects_unknown_record_id(tmp_path):
    path = tmp_path / "f.ffmx"
    matrix = FeatureMatrix(values=np.ones((1, 2), dtype=np.float32), row_ids=["ghost"])
    save_features(matrix, path)
    corpus = Corpus(records=[ReportRecord(id="real", split="train", report="t")])
    with pytest.raises(DataError, match="ghost"):
        load_features(path, corpus)


def test_feature_matrix_rejects_non_2d():
    with pytest.raises(DataError, match=r"^feature matrix must be 2-D, got shape \(3,\)$"):
        FeatureMatrix(values=np.ones(3, dtype=np.float32), row_ids=["a", "b", "c"])


def test_feature_matrix_rejects_row_count_mismatch():
    with pytest.raises(DataError, match="^2 feature rows but 1 row ids$"):
        FeatureMatrix(values=np.ones((2, 2), dtype=np.float32), row_ids=["a"])


def test_feature_matrix_rejects_duplicate_ids():
    with pytest.raises(
        DataError,
        match="^the feature matrix lists duplicate record id 'a' at rows 0 and 2$",
    ):
        FeatureMatrix(values=np.ones((4, 2), dtype=np.float32), row_ids=["a", "b", "a", "b"])


def test_load_features_names_the_sidecar_the_id_and_the_rows_of_a_duplicate(tmp_path):
    path = tmp_path / "f.ffmx"
    save_features(FeatureMatrix(values=np.ones((3, 2), dtype=np.float32),
                                row_ids=["a", "b", "c"]), path)
    (tmp_path / "f.ffmx.ids").write_text("a\nb\nb\n", encoding="utf-8")
    with pytest.raises(DataError) as info:
        load_features(path)
    assert str(info.value) == (
        f"feature id sidecar {path}.ids lists duplicate record id 'b' at rows 1 and 2"
    )


def test_feature_matrix_names_record_with_non_finite_value():
    values = np.ones((2, 2), dtype=np.float32)
    values[1, 0] = np.inf
    with pytest.raises(DataError, match="'bad'"):
        FeatureMatrix(values=values, row_ids=["ok", "bad"])


@pytest.mark.parametrize(
    "bad, where",
    [
        # inf and -inf sum to NaN; the first in row order is named.
        ({(3, 1): np.inf, (5, 0): -np.inf}, "row 3, column 1 (record 'r3')"),
        ({(6, 0): -np.inf, (2, 2): np.nan}, "row 2, column 2 (record 'r2')"),
        ({(7, 2): np.nan}, "row 7, column 2 (record 'r7')"),
    ],
)
def test_feature_matrix_names_the_first_non_finite_value(bad, where):
    values = np.full((8, 3), np.finfo(np.float32).max, dtype=np.float32)
    for position, value in bad.items():
        values[position] = value
    with pytest.raises(DataError) as info:
        FeatureMatrix(values=values, row_ids=[f"r{i}" for i in range(8)])
    assert str(info.value) == f"non-finite feature value at {where}"


def test_feature_matrix_accepts_the_largest_float32_values():
    # Their sum overflows float32, never float64.
    values = np.full((2000, 256), np.finfo(np.float32).max, dtype=np.float32)
    matrix = FeatureMatrix(values=values, row_ids=[f"r{i}" for i in range(2000)])
    assert matrix.rows == 2000


def test_building_a_feature_matrix_makes_no_matrix_sized_temporary():
    values = np.random.default_rng(0).normal(size=(2000, 256)).astype(np.float32)
    ids = [f"r{i}" for i in range(2000)]
    tracemalloc.start()
    try:
        FeatureMatrix(values=values, row_ids=ids)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < values.nbytes / 8, peak


def test_row_for_id_returns_none_for_unknown():
    matrix = FeatureMatrix(values=np.ones((1, 2), dtype=np.float32), row_ids=["a"])
    assert matrix.row_for_id("zzz") is None
    np.testing.assert_array_equal(matrix.row_for_id("a"), np.ones(2, dtype=np.float32))


def test_row_index_names_the_row_that_row_for_id_returns():
    values = np.arange(6, dtype=np.float32).reshape(3, 2)
    matrix = FeatureMatrix(values=values, row_ids=["c", "a", "b"])
    assert [matrix.row_index(rid) for rid in ("a", "b", "c", "zzz")] == [1, 2, 0, None]
    np.testing.assert_array_equal(matrix.row_for_id("b"), values[matrix.row_index("b")])


@given(
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=0, max_value=2**31 - 1),
)
@settings(max_examples=30, deadline=None)
def test_feature_round_trip_is_exact_for_random_matrices(tmp_path_factory, rows, cols, seed):
    tmp = tmp_path_factory.mktemp("ffmx")
    rng = np.random.default_rng(seed)
    values = rng.normal(scale=1e3, size=(rows, cols)).astype(np.float32)
    ids = [f"id-{i}" for i in range(rows)]
    path = tmp / "f.ffmx"
    save_features(FeatureMatrix(values=values, row_ids=ids), path)
    loaded = load_features(path)
    np.testing.assert_array_equal(loaded.values, values)
    assert loaded.row_ids == ids


# ---------------------------------------------------------------------------
# Per-record memory
# ---------------------------------------------------------------------------


def test_every_stage_holds_a_shared_value_once_per_corpus(synth_dir, mock_gateway):
    corpus = load_manifest(synth_dir / "manifest.jsonl")
    assert all(any(rec.split is name for name in SPLITS) for rec in corpus)
    modalities = [image.modality for rec in corpus for image in rec.images]
    first: dict[str, str] = {}
    assert modalities and all(first.setdefault(m, m) is m for m in modalities)

    features = load_features(synth_dir / "features.ffmx", corpus)
    index = corpus.index()
    assert all(rid is index[rid].id for rid in features.row_ids)

    dataset = bootstrap_dataset(corpus, BootstrapConfig(), mock_gateway)
    params = train(dataset, features, TrainConfig(epochs=1))
    predictions = predict_records(params, features, [rec.id for rec in corpus], 0.5)
    assert not hasattr(dataset.items[0], "__dict__")
    assert not hasattr(next(iter(predictions.values())), "__dict__")


def test_load_manifest_never_holds_the_manifest_whole(tmp_path):
    # Long reports, dropped line by line: the file dwarfs what is kept.
    records = [ReportRecord(f"r{i:03d}", SPLITS[i % 3], f"{i} " + "x" * 20_000) for i in range(200)]
    path = tmp_path / "manifest.jsonl"
    save_manifest(Corpus(records=records), path)
    size = path.stat().st_size
    snapshot = tmp_path / "manifest.snapshot"
    save_snapshot(load_manifest(path, snapshot=snapshot))
    stale = tmp_path / "stale.snapshot"
    stale.write_bytes(snapshot.read_bytes().replace(b"sha256 ", b"sha256 0", 1))
    # A decode with no snapshot, a hash then a decode past a stale one, and
    # a hash then a snapshot read.
    for given in (None, stale, snapshot):
        tracemalloc.start()
        try:
            corpus = load_manifest(path, (), given)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert corpus.manifest_sha256 == hashlib.sha256(path.read_bytes()).hexdigest()
        assert corpus.decoded is (given is not snapshot)
        assert peak < size / 8, (given, peak, size)


def _held_by(call):
    """Bytes still allocated once `call()` has returned, while its result is
    alive, and the result."""
    tracemalloc.start()
    try:
        result = call()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    return held, result


def _held_by_load_manifest(path, fields=None, snapshot=None) -> int:
    """Bytes still allocated after `load_manifest(path, fields, snapshot)`
    returns."""
    held, corpus = _held_by(lambda: load_manifest(path, fields, snapshot))
    assert len(corpus) == 2000
    return held


def test_a_train_process_holds_no_report_text_or_image_list(synth, tmp_path):
    # A bench/inputs.py corpus: each synthetic record copied with a fresh id.
    records = [
        ReportRecord(f"c{copy:04d}-{rec.id}", rec.split, rec.report, rec.images)
        for copy in range(10)
        for rec in synth.corpus.records
    ]
    path = tmp_path / "manifest.jsonl"
    save_manifest(Corpus(records=records), path)
    full = _held_by_load_manifest(path)
    snapshot = tmp_path / "manifest.snapshot"
    save_snapshot(load_manifest(path, snapshot=snapshot))
    blob = bytearray(snapshot.read_bytes())
    blob[_report_section_offset(snapshot) + 10] ^= 1
    snapshot.write_bytes(bytes(blob))
    for stage in ("train", "predict"):
        [fields] = [row.fields for row in STAGES if row.name == stage]
        # Decoding the JSONL, given no snapshot or a missing one...
        held = [
            _held_by_load_manifest(path, fields),
            _held_by_load_manifest(path, fields, tmp_path / "missing.snapshot"),
        ]
        # ...or reading the snapshot, which never reads the report section:
        # the damaged byte there goes unnoticed.
        with mock.patch.object(corpus_mod, "read_jsonl", side_effect=AssertionError("decoded")):
            held.append(_held_by_load_manifest(path, fields, snapshot))
        assert max(held) < 0.4 * full, (stage, held, full)
    # A process that keeps the reports checks that section, and reads the JSONL.
    with mock.patch.object(corpus_mod, "read_jsonl", wraps=corpus_mod.read_jsonl) as decoded:
        load_manifest(path, ("report",), snapshot)
    assert decoded.call_count == 1
    # Its labels, read from their twin, hold no more than the checked read.
    corpus = load_manifest(path, ())
    taxonomy = LabelTaxonomy(labels=tuple(LabelEntry(i, f"finding {i}") for i in range(4)))
    rows = [(rec.id, tuple(j for j in range(4) if i % 16 >> j & 1)) for i, rec in enumerate(corpus)]
    labels = tmp_path / "labels.jsonl"
    labels.write_text(labels_to_jsonl(MLCDataset(taxonomy, tuple(
        AnnotatedItem(rid, "train", vector) for rid, vector in rows))), encoding="utf-8")
    ids, vectors = [rid for rid, _ in rows], [vector for _, vector in rows]
    twin = _write_twin_of(labels, rows_twin(corpus, "taxonomy", ids, vectors), tmp_path)
    # Each read runs once untraced first, so that neither is charged for
    # what a first call caches for the process. What the two reads hold
    # then differs only by a few small objects that free lists keep, which
    # do not grow with the rows: 1 KiB allows for them.
    reads = [lambda: load_labels(labels, corpus, taxonomy),
             lambda: labels_dataset(taxonomy, rows_from_twin(twin, labels, corpus, "taxonomy"))]
    (checked, dataset), (rebuilt, twin_dataset) = [(read(), _held_by(read))[1] for read in reads]
    assert twin_dataset == dataset and rebuilt <= checked + 1024, (rebuilt, checked)
