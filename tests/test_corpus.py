"""Manifest and feature-file plumbing: parsing, validation, binary layout,
sidecar binding, and round-trip fidelity."""

from __future__ import annotations

import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reportguide.bootstrap import bootstrap_dataset
from reportguide.classifier import predict_records, train
from reportguide.cli import BootstrapConfig, TrainConfig
from reportguide.corpus import (
    SPLITS,
    Corpus,
    FeatureMatrix,
    ImageRef,
    ReportRecord,
    load_features,
    load_manifest,
    read_record_rows,
    save_features,
    save_manifest,
)
from reportguide.errors import (
    DataError,
    FeatureFormatError,
    FeatureValidationError,
    GeneratedFileError,
    ManifestError,
)


def _write_manifest(path, rows):
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row) + "\n")


# ---------------------------------------------------------------------------
# Records and corpus invariants
# ---------------------------------------------------------------------------


def test_record_requires_nonempty_id():
    with pytest.raises(ManifestError):
        ReportRecord(id="", split="train", report="text")


def test_record_requires_known_split():
    with pytest.raises(ManifestError):
        ReportRecord(id="a", split="holdout", report="text")


def test_record_requires_nonempty_report():
    with pytest.raises(ManifestError):
        ReportRecord(id="a", split="train", report="")


def test_corpus_rejects_duplicate_ids():
    rec = lambda i: ReportRecord(id=i, split="train", report="t")
    with pytest.raises(ManifestError, match="^duplicate record id 'x'$"):
        Corpus(records=[rec("x"), rec("x")])


def test_corpus_lookup_and_split_sizes():
    records = [
        ReportRecord(id="a", split="train", report="t"),
        ReportRecord(id="b", split="val", report="t"),
        ReportRecord(id="c", split="test", report="t"),
    ]
    corpus = Corpus(records=records)
    assert corpus.index()["b"].split == "val"
    assert [len(corpus.split(s)) for s in ("train", "val", "test")] == [1, 1, 1]
    with pytest.raises(ManifestError):
        corpus.split("holdout")


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
    with pytest.raises(ManifestError, match="line 2"):
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
    with pytest.raises(ManifestError, match="^manifest line 2: duplicate record id 'x'$"):
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
    with pytest.raises(ManifestError) as excinfo:
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
    with pytest.raises(ManifestError) as excinfo:
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
    with pytest.raises(ManifestError) as excinfo:
        load_manifest(path)
    assert str(excinfo.value) == (
        "manifest line 2: every images entry must be a JSON object"
    )


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
    with pytest.raises(GeneratedFileError) as excinfo:
        list(read_record_rows(path, _AB, GeneratedFileError, "rows file"))
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
    with pytest.raises(FeatureFormatError, match="magic"):
        load_features(path)


def test_load_features_rejects_truncated_payload(tmp_path):
    path = tmp_path / "f.ffmx"
    path.write_bytes(b"FFMX" + struct.pack("<II", 2, 3) + struct.pack("<3f", 1, 2, 3))
    (tmp_path / "f.ffmx.ids").write_text("a\nb\n", encoding="utf-8")
    with pytest.raises(FeatureFormatError, match="expected 24"):
        load_features(path)


def test_load_features_rejects_truncated_header(tmp_path):
    path = tmp_path / "f.ffmx"
    path.write_bytes(b"FFMX" + b"\x01\x00")
    with pytest.raises(FeatureFormatError, match="header"):
        load_features(path)


def test_load_features_cites_position_of_nan(tmp_path):
    path = tmp_path / "f.ffmx"
    payload = struct.pack("<4f", 1.0, float("nan"), 3.0, 4.0)
    path.write_bytes(b"FFMX" + struct.pack("<II", 2, 2) + payload)
    (tmp_path / "f.ffmx.ids").write_text("a\nb\n", encoding="utf-8")
    with pytest.raises(FeatureValidationError, match=r"row 0, column 1"):
        load_features(path)


def test_load_features_requires_sidecar(tmp_path):
    path = tmp_path / "f.ffmx"
    path.write_bytes(b"FFMX" + struct.pack("<II", 1, 1) + struct.pack("<f", 1.0))
    with pytest.raises(FeatureFormatError, match="sidecar"):
        load_features(path)


def test_load_features_rejects_sidecar_count_mismatch(tmp_path):
    path = tmp_path / "f.ffmx"
    path.write_bytes(b"FFMX" + struct.pack("<II", 2, 1) + struct.pack("<2f", 1.0, 2.0))
    (tmp_path / "f.ffmx.ids").write_text("a\n", encoding="utf-8")
    with pytest.raises(FeatureValidationError, match="1 ids"):
        load_features(path)


def test_load_features_rejects_unknown_record_id(tmp_path):
    path = tmp_path / "f.ffmx"
    matrix = FeatureMatrix(values=np.ones((1, 2), dtype=np.float32), row_ids=["ghost"])
    save_features(matrix, path)
    corpus = Corpus(records=[ReportRecord(id="real", split="train", report="t")])
    with pytest.raises(FeatureValidationError, match="ghost"):
        load_features(path, corpus)


def test_feature_matrix_rejects_non_2d():
    with pytest.raises(FeatureValidationError):
        FeatureMatrix(values=np.ones(3, dtype=np.float32), row_ids=["a", "b", "c"])


def test_feature_matrix_rejects_row_count_mismatch():
    with pytest.raises(FeatureValidationError):
        FeatureMatrix(values=np.ones((2, 2), dtype=np.float32), row_ids=["a"])


def test_feature_matrix_rejects_duplicate_ids():
    with pytest.raises(FeatureValidationError, match="duplicate"):
        FeatureMatrix(values=np.ones((2, 2), dtype=np.float32), row_ids=["a", "a"])


def test_feature_matrix_names_record_with_non_finite_value():
    values = np.ones((2, 2), dtype=np.float32)
    values[1, 0] = np.inf
    with pytest.raises(FeatureValidationError, match="'bad'"):
        FeatureMatrix(values=values, row_ids=["ok", "bad"])


def test_row_for_id_returns_none_for_unknown():
    matrix = FeatureMatrix(values=np.ones((1, 2), dtype=np.float32), row_ids=["a"])
    assert matrix.row_for_id("zzz") is None
    np.testing.assert_array_equal(matrix.row_for_id("a"), np.ones(2, dtype=np.float32))


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
