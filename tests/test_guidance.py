"""Guidance prompt rendering, generation backends, and generation over the
ablation grid."""

from __future__ import annotations

import json
import shlex
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import json_strings

from reportguide.bootstrap import (
    AnnotatedItem,
    LabelEntry,
    LabelTaxonomy,
    MLCDataset,
    labels_to_jsonl,
    taxonomy_fingerprint,
    taxonomy_to_json,
)
from reportguide.classifier import ClassifierParams, checkpoint_to_json, predict_records
from reportguide.cli import main
from reportguide.corpus import (
    Corpus,
    FeatureMatrix,
    ImageRef,
    ReportRecord,
    load_manifest,
    save_features,
    save_manifest,
)
from reportguide.errors import ConfigError, DataError, GatewayError
from reportguide.fileio import write_atomic
from reportguide.guidance import (
    ABLATION_MODES,
    GeneratorConfig,
    generate_report,
    generated_filename,
    generated_to_jsonl,
    load_generated,
    mock_phrase,
    mode_tag,
    run_generation,
    serialize_labels,
)

GOLDEN_PROMPT = (
    "The image shows the following findings: secondary PTB, right upper field. "
    "Based on these findings and the image, generate a detailed diagnostic report."
)
NO_FINDINGS_PROMPT = (
    "The image shows no salient findings listed. "
    "Based on the image, generate a detailed diagnostic report."
)
IMAGE_ONLY_PROMPT = "Based on the image, generate a detailed diagnostic report."


def _taxonomy(names, aliases=None):
    aliases = aliases or {}
    return LabelTaxonomy(
        labels=tuple(
            LabelEntry(index=i, name=n, aliases=tuple(aliases.get(n, ())))
            for i, n in enumerate(names)
        )
    )


# ---------------------------------------------------------------------------
# Prompt rendering
# ---------------------------------------------------------------------------


def test_two_findings_render_to_the_exact_template():
    tax = _taxonomy(["secondary PTB", "right upper field"])
    prompt = serialize_labels((0, 1), tax)
    assert prompt.text == GOLDEN_PROMPT
    assert prompt.label_names == ("secondary PTB", "right upper field")


def test_empty_positives_render_the_fixed_no_findings_sentence():
    tax = _taxonomy(["A"])
    prompt = serialize_labels((), tax)
    assert prompt.text == NO_FINDINGS_PROMPT
    assert prompt.label_names == ()


def test_image_only_mode_drops_the_findings_sentence():
    tax = _taxonomy(["A"])
    prompt = serialize_labels((0,), tax, mode="image_only")
    assert prompt.text == IMAGE_ONLY_PROMPT
    assert prompt.label_source == "none"
    assert prompt.label_names == ()


def test_findings_appear_in_ascending_index_order():
    tax = _taxonomy(["alpha", "beta", "gamma"])
    prompt = serialize_labels((0, 2), tax)
    assert "findings: alpha, gamma." in prompt.text


def test_prompt_uses_canonical_names_never_aliases():
    tax = _taxonomy(
        ["Pulmonary tuberculosis"], {"Pulmonary tuberculosis": ("TB", "ptb")}
    )
    prompt = serialize_labels((0,), tax)
    assert "Pulmonary tuberculosis" in prompt.text
    assert "TB," not in prompt.text


def test_same_vector_yields_identical_prompt_bytes():
    tax = _taxonomy(["A", "B"])
    assert serialize_labels((0, 1), tax).text == serialize_labels((0, 1), tax).text


def test_gt_and_pred_sources_share_the_exact_text():
    tax = _taxonomy(["A", "B"])
    gt = serialize_labels((1,), tax, label_source="gt")
    pred = serialize_labels((1,), tax, label_source="pred")
    assert gt.text == pred.text
    assert (gt.label_source, pred.label_source) == ("gt", "pred")


def test_label_only_mode_shares_the_findings_template():
    tax = _taxonomy(["A"])
    assert (
        serialize_labels((0,), tax, mode="label_only").text
        == serialize_labels((0,), tax, mode="image_and_label").text
    )


def test_record_binding_carries_image_paths():
    tax = _taxonomy(["A"])
    rec = ReportRecord(
        id="r9",
        split="test",
        report="t",
        images=(ImageRef(path="images/r9.png"),),
    )
    prompt = serialize_labels((0,), tax, record=rec)
    assert prompt.image_paths == ("images/r9.png",)


def test_label_only_prompt_carries_no_image_paths():
    rec = ReportRecord(id="r9", split="test", report="t", images=(ImageRef(path="images/r9.png"),))
    prompt = serialize_labels((0,), _taxonomy(["A"]), mode="label_only", record=rec)
    assert prompt.image_paths == ()


def test_image_only_prompt_cannot_carry_labels():
    prompt = serialize_labels((0,), _taxonomy(["A"]), mode="image_only", label_source="gt")
    assert (prompt.label_source, prompt.label_names) == ("none", ())


# ---------------------------------------------------------------------------
# Generation backends
# ---------------------------------------------------------------------------


def test_generator_config_validation():
    with pytest.raises(ConfigError):
        GeneratorConfig(backend="banana")
    with pytest.raises(ConfigError):
        GeneratorConfig(backend="command")
    with pytest.raises(ConfigError):
        GeneratorConfig(backend="http")


def _prompt_for(names, positives):
    return serialize_labels(positives, _taxonomy(names))


def test_mock_generator_expands_each_label_to_its_phrase():
    prompt = _prompt_for(["Pleural effusion", "Consolidation"], (0, 1))
    report = generate_report(prompt, GeneratorConfig(backend="mock"))
    assert report == "Findings: pleural effusion is present. consolidation is present."


def test_mock_generator_mentions_each_label_exactly_once():
    names = ["Atelectasis", "Pneumothorax", "Consolidation"]
    prompt = _prompt_for(names, (0, 1, 2))
    report = generate_report(prompt, GeneratorConfig(backend="mock"))
    for name in names:
        assert report.count(mock_phrase(name)) == 1


def test_mock_generator_without_findings_is_fixed():
    prompt = _prompt_for(["A"], ())
    report = generate_report(prompt, GeneratorConfig(backend="mock"))
    assert report == "Findings: no abnormality described."


def _command_config(tmp_path, body: str) -> GeneratorConfig:
    script = tmp_path / "gen.py"
    script.write_text(body, encoding="utf-8")
    cmd = f"{shlex.quote(sys.executable)} {shlex.quote(str(script))}"
    return GeneratorConfig(backend="command", command=cmd)


def test_command_generator_round_trips_prompt_and_ignores_log_noise(tmp_path):
    config = _command_config(
        tmp_path,
        "import json, sys\n"
        "req = json.loads(sys.stdin.readline())\n"
        "print('loading model weights...')\n"
        "print(json.dumps({'report': 'echo: ' + req['prompt']}))\n",
    )
    prompt = _prompt_for(["Pleural effusion"], (0,))
    report = generate_report(prompt, config)
    assert report == "echo: " + prompt.text


def test_command_generator_receives_image_paths(tmp_path):
    config = _command_config(
        tmp_path,
        "import json, sys\n"
        "req = json.loads(sys.stdin.readline())\n"
        "print(json.dumps({'report': '|'.join(req['images'])}))\n",
    )
    rec = ReportRecord(
        id="r", split="test", report="ref", images=(ImageRef(path="im/x.png"),)
    )
    prompt = serialize_labels((), _taxonomy(["A"]), record=rec)
    assert generate_report(prompt, config) == "im/x.png"


def test_command_generator_nonzero_exit_raises(tmp_path):
    config = _command_config(tmp_path, "import sys\nsys.exit(3)\n")
    with pytest.raises(GatewayError, match="exited with 3"):
        generate_report(_prompt_for(["A"], ()), config)


def test_command_generator_garbage_stdout_raises(tmp_path):
    config = _command_config(tmp_path, "print('not json at all')\n")
    with pytest.raises(GatewayError, match="parseable"):
        generate_report(_prompt_for(["A"], ()), config)


def test_command_generator_non_string_report_raises(tmp_path):
    config = _command_config(tmp_path, "print('{\"report\": 42}')\n")
    with pytest.raises(GatewayError, match="non-string"):
        generate_report(_prompt_for(["A"], ()), config)


@pytest.mark.parametrize(
    "body, message",
    [
        ("import sys\nsys.stdout.buffer.write(b'\\xff\\n')\n",
         "wrote no parseable report line: 'utf-8' codec can't decode byte 0xff"),
        ("print('{\"report\": \"x\\\\ud800\"}')\n", "returned the lone surrogate '\\\\ud800'"),
    ],
    ids=["not-utf8", "lone-surrogate"],
)
def test_command_generator_output_that_is_not_unicode_text_raises(tmp_path, body, message):
    config = _command_config(tmp_path, body)
    with pytest.raises(GatewayError, match=f"^generator command {message}"):
        generate_report(_prompt_for(["A"], ()), config)


def test_command_generator_missing_binary_raises():
    config = GeneratorConfig(
        backend="command", command="/nonexistent/generator-binary-xyz"
    )
    with pytest.raises(GatewayError, match="^generator command exited with 127: "):
        generate_report(_prompt_for(["A"], ()), config)


# ---------------------------------------------------------------------------
# Generation runs and prerequisites
# ---------------------------------------------------------------------------


def _gen_corpus_and_labels():
    tax = _taxonomy(["Pleural effusion", "Consolidation"])
    records = [
        ReportRecord(id="t-c", split="test", report="ref c"),
        ReportRecord(id="t-a", split="test", report="ref a"),
        ReportRecord(id="t-b", split="test", report="ref b"),
    ]
    corpus = Corpus(records=records)
    return corpus, tax, {"t-a": (0,), "t-b": (), "t-c": (0, 1)}


def test_run_generation_rows_are_ordered_and_complete():
    corpus, tax, labels = _gen_corpus_and_labels()
    rows = run_generation(
        corpus, tax, "image_and_label", "gt", labels, GeneratorConfig(backend="mock")
    )
    assert [r["id"] for r in rows] == ["t-a", "t-b", "t-c"]
    assert set(rows[0]) == {"id", "mode", "label_source", "prompt", "report"}
    assert rows[0]["label_source"] == "gt"
    assert rows[2]["prompt"] == serialize_labels((0, 1), tax).text


def test_run_generation_image_only_has_no_label_source():
    corpus, tax, _ = _gen_corpus_and_labels()
    rows = run_generation(
        corpus, tax, "image_only", "none", {}, GeneratorConfig(backend="mock")
    )
    assert all(r["label_source"] == "none" for r in rows)
    assert all(r["prompt"] == IMAGE_ONLY_PROMPT for r in rows)


def test_run_generation_gt_without_labels_is_a_data_error():
    corpus, tax, labels = _gen_corpus_and_labels()
    del labels["t-b"]
    with pytest.raises(DataError, match="'t-b' of split 'test' has no gt label vector"):
        run_generation(
            corpus, tax, "image_and_label", "gt", labels, GeneratorConfig(backend="mock")
        )


def test_run_generation_writes_file_that_loads_back(tmp_path):
    corpus, tax, labels = _gen_corpus_and_labels()
    path = tmp_path / "generated-image_and_label-gt.jsonl"
    rows = run_generation(
        corpus,
        tax,
        "image_and_label",
        "gt",
        labels,
        GeneratorConfig(backend="mock"),
    )
    write_atomic(path, generated_to_jsonl(rows))
    loaded = load_generated(path, corpus, "image_and_label", "gt", "test")
    assert _generated_rows(path) == rows
    assert loaded == [(corpus.index()[row["id"]], row["report"]) for row in rows]
    assert all(rec is corpus.index()[row["id"]] for (rec, _), row in zip(loaded, rows))


def _generated_rows(path) -> list[dict]:
    """Every row of a generated file, with the prompt that `load_generated`
    does not return."""
    return [json.loads(line) for line in Path(path).read_text(encoding="utf-8").splitlines()]


_ONE_RECORD = Corpus(records=[ReportRecord(id="a", split="test", report="ref")])
_ONE_ROW = json.dumps(
    {"id": "a", "mode": "image_only", "label_source": "none", "prompt": "p", "report": "x"}
)


def test_load_generated_reports_bad_lines(tmp_path):
    path = tmp_path / "generated.jsonl"
    path.write_text(_ONE_ROW + "\n{broken\n", encoding="utf-8")
    with pytest.raises(DataError, match="line 2"):
        load_generated(path, _ONE_RECORD, "image_only", "none", "test")


def test_load_generated_names_the_first_faulty_line(tmp_path):
    corpus = Corpus(records=[ReportRecord(id=rid, split="test", report="ref") for rid in "ab"])
    path = tmp_path / "generated.jsonl"
    rows = [
        {"id": "a", "mode": "label_only", "label_source": "gt", "prompt": "p", "report": "x"},
        {"id": "b", "mode": "image_only", "label_source": "none", "prompt": "p", "report": 3},
    ]
    path.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")
    with pytest.raises(DataError, match=f"{path.name} line 1: mode and label_source"):
        load_generated(path, corpus, "image_only", "none", "test")


_GENERATED_KEYS = ("id", "mode", "label_source", "prompt", "report")


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(*[json_strings()] * len(_GENERATED_KEYS)), max_size=6))
def test_generated_to_jsonl_writes_the_bytes_of_json_dumps(values):
    rows = [dict(zip(_GENERATED_KEYS, row)) for row in values]
    assert generated_to_jsonl(rows) == "".join(
        json.dumps(row, ensure_ascii=False) + "\n" for row in rows
    )


@pytest.mark.parametrize("line", ['["a"]', '"text"', "3", "null"])
def test_load_generated_rejects_non_object_lines(tmp_path, line):
    path = tmp_path / "generated.jsonl"
    path.write_text(_ONE_ROW + "\n" + line + "\n", encoding="utf-8")
    with pytest.raises(DataError, match=f"{path.name} line 2: not a JSON object"):
        load_generated(path, _ONE_RECORD, "image_only", "none", "test")


# ---------------------------------------------------------------------------
# Ablation grid
# ---------------------------------------------------------------------------


def test_mode_tags_and_filenames():
    assert mode_tag("image_only", "none") == "image_only"
    assert mode_tag("image_and_label", "pred") == "image_and_label-pred"
    assert generated_filename("image_only", "none") == "generated-image_only.jsonl"
    assert (
        generated_filename("label_only", "gt") == "generated-label_only-gt.jsonl"
    )


def _gt_primary_indices(synth, record_id):
    """The indices, among the primary findings, of a record's ground truth."""
    order = {name: i for i, name in enumerate(synth.primary_names)}
    return tuple(sorted(order[n] for n in synth.gt_labels[record_id] if n in order))


def _gt_dataset_over(synth):
    tax = _taxonomy(list(synth.primary_names))
    items = tuple(
        AnnotatedItem(rec.id, rec.split, _gt_primary_indices(synth, rec.id))
        for rec in synth.corpus.records
    )
    return MLCDataset(taxonomy=tax, items=items)


def _identity_params_over(synth):
    # One strongly weighted diagonal per primary finding; the appended noise
    # dimensions get zero weight. Signal magnitude 2 against noise sigma
    # 0.25 keeps every logit far from the threshold, so this head reproduces
    # the generator's labels exactly without any training.
    k = len(synth.primary_names)
    d = synth.features.values.shape[1]
    weights = np.hstack([10.0 * np.eye(k), np.zeros((k, d - k))])
    return ClassifierParams(
        weights=weights,
        bias=np.zeros(k),
        frequencies=np.full(k, 0.5),
        tau=1.0,
        taxonomy_hash=taxonomy_fingerprint(_gt_dataset_over(synth).taxonomy),
    )


def _generate_ablation(synth, synth_dir, workdir, *flags):
    """Run `predict`, then `generate --ablation` with any extra `flags`, over
    the ground-truth labels and the hand-built head, for the records of the
    manifest in `synth_dir`; return each cell's file by mode tag."""
    workdir.mkdir(parents=True)
    dataset = _gt_dataset_over(synth)
    ids = {rec.id for rec in load_manifest(synth_dir / "manifest.jsonl").records}
    items = tuple(item for item in dataset.items if item.record_id in ids)
    write_atomic(workdir / "taxonomy.json", taxonomy_to_json(dataset.taxonomy))
    write_atomic(workdir / "labels.jsonl", labels_to_jsonl(dataset._replace(items=items)))
    write_atomic(workdir / "checkpoint.json", checkpoint_to_json(_identity_params_over(synth)))
    args = [
        "--workdir", str(workdir),
        "--set", f"paths.manifest={synth_dir / 'manifest.jsonl'}",
        "--set", f"paths.features={synth_dir / 'features.ffmx'}",
    ]
    assert main(["predict", *args]) == 0
    assert main(["generate", "--ablation", *args, *flags]) == 0
    return {mode_tag(m, s): workdir / generated_filename(m, s) for m, s in ABLATION_MODES}


def test_hand_built_head_reproduces_generator_labels(synth):
    from reportguide.classifier import predict

    params = _identity_params_over(synth)
    for rec in synth.corpus.split("test"):
        row = synth.features.row_for_id(rec.id)
        assert predict(params, row).positives == _gt_primary_indices(synth, rec.id)


def test_ablation_writes_all_five_cells_over_the_same_records(synth, synth_dir, tmp_path):
    paths = _generate_ablation(synth, synth_dir, tmp_path / "run")
    assert set(paths) == {mode_tag(m, s) for m, s in ABLATION_MODES}
    id_sets = []
    for mode, source in ABLATION_MODES:
        rows = load_generated(paths[mode_tag(mode, source)], synth.corpus, mode, source, "test")
        id_sets.append([rec.id for rec, _ in rows])
    assert all(ids == id_sets[0] for ids in id_sets)
    assert len(id_sets[0]) == len(synth.corpus.split("test"))


def test_ablation_gt_and_pred_prompts_agree_for_a_perfect_head(synth, synth_dir, tmp_path):
    paths = _generate_ablation(synth, synth_dir, tmp_path / "run")
    gt_rows, pred_rows = (
        _generated_rows(path)
        for path in (paths["image_and_label-gt"], paths["image_and_label-pred"])
    )
    assert [r["prompt"] for r in gt_rows] == [r["prompt"] for r in pred_rows]
    assert [r["report"] for r in gt_rows] == [r["report"] for r in pred_rows]


def test_ablation_predicts_each_record_once_and_writes_what_single_cells_write(
    synth, synth_dir, tmp_path, monkeypatch
):
    from reportguide import classifier

    dataset = _gt_dataset_over(synth)
    test_ids = sorted(rec.id for rec in synth.corpus.split("test"))
    predicted = predict_records(_identity_params_over(synth), synth.features, test_ids, 0.5)
    labels = {
        "pred": {rid: pred.positives for rid, pred in predicted.items()},
        "gt": {item.record_id: item.positives for item in dataset.items},
    }
    calls = []
    real_predict = classifier.predict

    def counting_predict(params_, row, threshold=0.5):
        calls.append(threshold)
        return real_predict(params_, row, threshold=threshold)

    monkeypatch.setattr(classifier, "predict", counting_predict)
    # predict predicts each record once; generate renders what it wrote.
    _generate_ablation(synth, synth_dir, tmp_path / "ablation")
    assert len(calls) == len(test_ids)
    for mode, source in ABLATION_MODES:
        single = tmp_path / generated_filename(mode, source)
        rows = run_generation(
            synth.corpus,
            dataset.taxonomy,
            mode,
            source,
            labels.get(source, {}),
            GeneratorConfig(backend="mock"),
        )
        write_atomic(single, generated_to_jsonl(rows))
        assert single.read_bytes() == (tmp_path / "ablation" / single.name).read_bytes()


def _small_synth_dir(synth, out) -> Path:
    """The first three test records of the synthetic corpus and their
    feature rows as pipeline inputs, for runs that cost a request or a
    process per record."""
    records = sorted(synth.corpus.split("test"), key=lambda r: r.id)[:3]
    ids = [rec.id for rec in records]
    out.mkdir()
    save_manifest(Corpus(records=records), out / "manifest.jsonl")
    rows = np.stack([synth.features.row_for_id(rid) for rid in ids])
    save_features(FeatureMatrix(values=rows, row_ids=ids), out / "features.ffmx")
    return out


def _assert_each_cell_sent_its_images(data, paths, expected_report):
    """Every row's report echoes the request its cell sent for its record of
    the manifest in `data`; `expected_report(prompt, images)` renders what
    that request should be."""
    corpus = load_manifest(data / "manifest.jsonl")
    for mode, source in ABLATION_MODES:
        path = paths[mode_tag(mode, source)]
        loaded = load_generated(path, corpus, mode, source, "test")
        for (rec, report), row in zip(loaded, _generated_rows(path), strict=True):
            images = [] if mode == "label_only" else [im.path for im in rec.images]
            assert rec.images and report == expected_report(row["prompt"], images)


def test_http_ablation_sends_images_in_every_mode_but_label_only(
    synth, tmp_path, stub_server_factory, monkeypatch
):
    monkeypatch.setenv("LLM_API_KEY", "test-key")
    server = stub_server_factory(reply=lambda doc: doc["messages"][1]["content"])
    data = _small_synth_dir(synth, tmp_path / "data")
    paths = _generate_ablation(
        synth, data, tmp_path / "run",
        "--set", "guidance.generator.backend=http",
        "--set", f"guidance.generator.endpoint={server.endpoint}",
    )
    _assert_each_cell_sent_its_images(
        data,
        paths,
        lambda prompt, images: prompt + ("\n\nImages: " + ", ".join(images) if images else ""),
    )
    # Each distinct request went out once; the call log answered its repeats.
    sent = [doc["messages"][1]["content"] for doc in server.requests]
    assert len(sent) == len(set(sent))


def test_command_ablation_sends_images_in_every_mode_but_label_only(synth, tmp_path):
    script = tmp_path / "echo.py"
    script.write_text(
        "import json, sys\n"
        "line = sys.stdin.readline()\n"
        "print(json.dumps({'report': line.rstrip('\\n')}))\n",
        encoding="utf-8",
    )
    command = f"{shlex.quote(sys.executable)} {shlex.quote(str(script))}"
    data = _small_synth_dir(synth, tmp_path / "data")
    paths = _generate_ablation(
        synth, data, tmp_path / "run",
        "--set", "guidance.generator.backend=command",
        "--set", f"guidance.generator.command={command}",
    )
    _assert_each_cell_sent_its_images(
        data,
        paths,
        lambda prompt, images: json.dumps({"prompt": prompt, "images": images}, ensure_ascii=False),
    )
