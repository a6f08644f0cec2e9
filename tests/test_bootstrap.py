"""Taxonomy bootstrap: extraction, budgeted merging, closed-vocabulary
annotation, frequency filtering, persistence, and the audit report."""

from __future__ import annotations

import json
import logging
from collections import Counter
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reportguide.bootstrap import (
    AnnotatedItem,
    LabelEntry,
    LabelTaxonomy,
    MLCDataset,
    annotate_report,
    audit_taxonomy,
    bootstrap_dataset,
    extract_batch_labels,
    filter_labels,
    labels_to_jsonl,
    load_labels,
    load_taxonomy,
    merge_label_sets,
    taxonomy_fingerprint,
    taxonomy_to_json,
)
from reportguide.corpus import Corpus, ReportRecord
from reportguide.errors import (
    BootstrapError,
    ConfigError,
    EmptyTaxonomyError,
    LLMOutputError,
    ManifestError,
    MergeBudgetError,
    MergeProgressError,
)
from reportguide.fileio import write_atomic
from reportguide.cli import BootstrapConfig, main
from reportguide.gateway import ChatRequest, ChatResponse, GatewayConfig, estimate_tokens

from reportguide import gateway as gateway_mod


def _taxonomy(names, aliases=None):
    aliases = aliases or {}
    return LabelTaxonomy(
        labels=tuple(
            LabelEntry(index=i, name=n, aliases=tuple(aliases.get(n, ())))
            for i, n in enumerate(names)
        )
    )


# ---------------------------------------------------------------------------
# Type invariants
# ---------------------------------------------------------------------------


def test_bootstrap_config_validation():
    with pytest.raises(ConfigError):
        BootstrapConfig(b=0)
    with pytest.raises(ConfigError):
        BootstrapConfig(kappa=0)
    with pytest.raises(ConfigError):
        BootstrapConfig(theta=-1)


def test_taxonomy_requires_dense_indices():
    with pytest.raises(BootstrapError):
        LabelTaxonomy(labels=(LabelEntry(index=1, name="A"),))


def test_taxonomy_rejects_case_insensitive_duplicate_names():
    with pytest.raises(BootstrapError):
        _taxonomy(["Effusion", "effusion"])


def test_taxonomy_index_of_resolves_names_and_aliases():
    tax = _taxonomy(["Pulmonary tuberculosis"], {"Pulmonary tuberculosis": ("TB",)})
    assert tax.index_of("pulmonary TUBERCULOSIS") == 0
    assert tax.index_of("tb") == 0
    assert tax.index_of("unknown thing") is None


def test_dataset_rejects_out_of_range_positives():
    tax = _taxonomy(["A"])
    with pytest.raises(BootstrapError):
        MLCDataset(taxonomy=tax, items=(AnnotatedItem("r", "train", (1,)),))


def test_dataset_rejects_unsorted_positives():
    tax = _taxonomy(["A", "B"])
    with pytest.raises(BootstrapError):
        MLCDataset(taxonomy=tax, items=(AnnotatedItem("r", "train", (1, 0)),))


@pytest.mark.parametrize(
    "bad, message",
    [
        ((2,), "has label index 2 outside 0..1"),
        ((0, 2), "has label index 2 outside 0..1"),
        ((-1,), "has label index -1 outside 0..1"),
        ((1, 0), "has unsorted or duplicate positives"),
        ((1, 1), "has unsorted or duplicate positives"),
    ],
)
def test_dataset_names_the_first_record_carrying_an_invalid_vector(bad, message):
    # A valid vector repeats before the invalid one, which two records carry.
    tax = _taxonomy(["A", "B"])
    items = (
        AnnotatedItem("r1", "train", (0, 1)),
        AnnotatedItem("r2", "test", (0, 1)),
        AnnotatedItem("r3", "train", bad),
        AnnotatedItem("r4", "val", (0, 1)),
        AnnotatedItem("r5", "train", bad),
    )
    with pytest.raises(BootstrapError, match=f"^record 'r3' {message}$"):
        MLCDataset(taxonomy=tax, items=items)


# ---------------------------------------------------------------------------
# Extraction
# ---------------------------------------------------------------------------


def test_extract_batch_labels_maps_mock_lexicon(mock_gateway):
    reports = [
        "A thick-walled cavity is present in the left apex.",
        "Patchy infiltrates are scattered in both bases.",
    ]
    labels = extract_batch_labels(reports, mock_gateway)
    assert labels == ["Pulmonary cavitation", "Pulmonary infiltrates"]


def test_extract_batch_labels_no_hits_is_empty(mock_gateway):
    assert extract_batch_labels(["Entirely normal study."], mock_gateway) == []


def test_extract_batch_labels_dedupes_within_batch(mock_gateway):
    reports = ["A cavity here.", "Another cavity there."]
    assert extract_batch_labels(reports, mock_gateway) == ["Pulmonary cavitation"]


def test_extraction_reprompts_once_then_succeeds(monkeypatch, mock_gateway):
    calls = []

    def fake_complete(request, config):
        calls.append(request)
        if len(calls) == 1:
            return ChatResponse(text="sorry, here you go", input_tokens=0, output_tokens=0)
        return ChatResponse(text='["Pulmonary cavitation"]', input_tokens=0, output_tokens=0)

    monkeypatch.setattr(gateway_mod, "complete", fake_complete)
    labels = extract_batch_labels(["whatever"], mock_gateway)
    assert labels == ["Pulmonary cavitation"]
    assert len(calls) == 2
    assert "Return only the JSON array" in calls[1].user


def test_extraction_failure_after_reprompt_carries_raw_text(monkeypatch, mock_gateway):
    def fake_complete(request, config):
        return ChatResponse(text="still not json", input_tokens=0, output_tokens=0)

    monkeypatch.setattr(gateway_mod, "complete", fake_complete)
    with pytest.raises(LLMOutputError) as excinfo:
        extract_batch_labels(["whatever"], mock_gateway)
    assert excinfo.value.raw_text == "still not json"


# ---------------------------------------------------------------------------
# Merging
# ---------------------------------------------------------------------------


def test_merge_single_set_passes_through_with_zero_rounds(mock_gateway):
    labels, aliases, rounds = merge_label_sets([["A", "B"]], mock_gateway, merge_budget=200)
    assert labels == ["A", "B"]
    assert rounds == 0
    assert aliases == {"a": (), "b": ()}


def test_merge_twelve_sets_with_four_per_group_takes_two_rounds(mock_gateway):
    # Each set ["A", "B"] serializes to 10 characters = 3 estimated tokens,
    # so a budget of 12 admits exactly four sets per merge call:
    # 12 sets -> 3 merged sets -> 1 set, i.e. exactly two rounds.
    one_set = ["A", "B"]
    assert estimate_tokens(json.dumps(one_set)) == 3
    labels, _, rounds = merge_label_sets([list(one_set) for _ in range(12)], mock_gateway, 12)
    assert rounds == 2
    assert labels == ["A", "B"]


def test_merge_without_progress_raises(mock_gateway):
    # Each set alone fits the budget but no two fit together, so a round
    # cannot reduce the set count.
    sets = [["AAAAAAAAAA"], ["BBBBBBBBBB"]]
    assert all(estimate_tokens(json.dumps(s)) <= 5 for s in sets)
    with pytest.raises(MergeProgressError):
        merge_label_sets(sets, mock_gateway, merge_budget=5)


def test_merge_oversized_single_set_raises_budget_error(mock_gateway):
    oversized = ["X" * 100]
    with pytest.raises(MergeBudgetError):
        merge_label_sets([["A"], oversized], mock_gateway, merge_budget=10)


def test_merge_empty_input_raises(mock_gateway):
    with pytest.raises(BootstrapError):
        merge_label_sets([], mock_gateway, merge_budget=10)


def test_merge_folds_synonyms_and_keeps_alias_provenance(mock_gateway):
    labels, aliases, rounds = merge_label_sets(
        [["TB", "tuberculosis"], ["Pulmonary tuberculosis"]], mock_gateway, merge_budget=200
    )
    assert labels == ["Pulmonary tuberculosis"]
    assert rounds == 1
    assert set(aliases["pulmonary tuberculosis"]) == {"TB", "tuberculosis"}


def test_merge_output_stays_within_offered_labels(mock_gateway):
    sets = [["Pleural effusion", "effusion of the pleura"], ["Consolidation"]]
    labels, _, _ = merge_label_sets(sets, mock_gateway, merge_budget=200)
    offered = {s.casefold() for group in sets for s in group}
    assert all(label.casefold() in offered for label in labels)


def test_merge_drops_invented_canonical_but_keeps_its_members(monkeypatch, mock_gateway, caplog):
    # The model proposes a canonical name that was never offered; the merge
    # must not adopt it, and the original labels must survive.
    def fake_complete(request, config):
        return ChatResponse(
            text='[["Invented disease", "A"], ["B"]]', input_tokens=0, output_tokens=0
        )

    monkeypatch.setattr(gateway_mod, "complete", fake_complete)
    with caplog.at_level("WARNING"):
        labels, _, rounds = merge_label_sets([["A"], ["B"]], mock_gateway, merge_budget=200)
    assert labels == ["B", "A"]  # B placed by the model, A recovered afterwards
    assert rounds == 1
    assert any("invented" in r.message for r in caplog.records)


# ---------------------------------------------------------------------------
# Annotation
# ---------------------------------------------------------------------------


def test_annotate_report_sets_exactly_the_mentioned_labels(mock_gateway):
    tax = _taxonomy(["Pulmonary cavitation", "Pleural effusion", "Consolidation"])
    report = "A cavity is seen. Small pleural effusion."
    assert annotate_report(report, tax, mock_gateway) == (0, 1)


def test_annotate_report_with_no_mentions_is_empty(mock_gateway):
    tax = _taxonomy(["Pulmonary cavitation"])
    assert annotate_report("Normal study.", tax, mock_gateway) == ()


def test_annotate_drops_labels_outside_taxonomy(monkeypatch, mock_gateway, caplog):
    def fake_complete(request, config):
        return ChatResponse(
            text='["XYZ", "Pulmonary cavitation"]', input_tokens=0, output_tokens=0
        )

    monkeypatch.setattr(gateway_mod, "complete", fake_complete)
    tax = _taxonomy(["Pulmonary cavitation"])
    with caplog.at_level("WARNING"):
        positives = annotate_report("whatever", tax, mock_gateway)
    assert positives == (0,)
    assert any("XYZ" in r.message for r in caplog.records)


def test_annotate_matches_aliases_case_insensitively(monkeypatch, mock_gateway):
    def fake_complete(request, config):
        return ChatResponse(text='["tb"]', input_tokens=0, output_tokens=0)

    monkeypatch.setattr(gateway_mod, "complete", fake_complete)
    tax = _taxonomy(["Pulmonary tuberculosis"], {"Pulmonary tuberculosis": ("TB",)})
    assert annotate_report("whatever", tax, mock_gateway) == (0,)


# ---------------------------------------------------------------------------
# Filtering
# ---------------------------------------------------------------------------


def _counted_dataset():
    """Three labels with training counts [20, 14, 15]."""
    tax = _taxonomy(["L0", "L1", "L2"])
    items = []
    for i in range(20):
        positives = [0]
        if i < 14:
            positives.append(1)
        if i < 15:
            positives.append(2)
        items.append(AnnotatedItem(f"t{i:02d}", "train", tuple(sorted(positives))))
    # A non-training item must not affect the counts.
    items.append(AnnotatedItem("v00", "val", (0, 1, 2)))
    return MLCDataset(taxonomy=tax, items=tuple(items))


def test_filter_labels_drops_below_threshold_and_reindexes():
    filtered = filter_labels(_counted_dataset(), min_label_count=15)
    assert filtered.taxonomy.names() == ["L0", "L2"]
    assert [e.index for e in filtered.taxonomy.labels] == [0, 1]
    assert [e.count for e in filtered.taxonomy.labels] == [20, 15]


def test_filter_labels_counts_training_split_only():
    # L1 occurs 14 times in train plus once in val; 15 total must not save it.
    filtered = filter_labels(_counted_dataset(), min_label_count=15)
    assert "L1" not in filtered.taxonomy.names()


def test_filter_labels_reprojects_vectors_by_name():
    dataset = _counted_dataset()
    filtered = filter_labels(dataset, min_label_count=15)
    before = {i.record_id: i for i in dataset.items}
    for item in filtered.items:
        old_names = {
            dataset.taxonomy.labels[j].name for j in before[item.record_id].positives
        }
        new_names = {filtered.taxonomy.labels[j].name for j in item.positives}
        assert new_names == old_names - {"L1"}


def test_filter_labels_theta_one_is_identity_on_present_labels():
    dataset = _counted_dataset()
    filtered = filter_labels(dataset, min_label_count=1)
    assert filtered.taxonomy.names() == ["L0", "L1", "L2"]
    assert {i.record_id: i.positives for i in filtered.items} == {
        i.record_id: i.positives for i in dataset.items
    }


def test_filter_labels_post_condition_min_count_at_threshold():
    filtered = filter_labels(_counted_dataset(), min_label_count=15)
    assert min(e.count for e in filtered.taxonomy.labels) >= 15


def test_filter_labels_all_removed_raises():
    with pytest.raises(EmptyTaxonomyError):
        filter_labels(_counted_dataset(), min_label_count=1000)


def test_filter_labels_projects_a_vector_shared_across_splits_once():
    tax = _taxonomy(["L0", "L1", "L2"])
    shared = (0, 1, 2)
    items = (
        AnnotatedItem("t1", "train", shared),
        AnnotatedItem("t2", "train", (0, 2)),
        AnnotatedItem("s1", "test", shared),
        AnnotatedItem("v1", "val", (1,)),
    )
    filtered = filter_labels(MLCDataset(taxonomy=tax, items=items), min_label_count=2)
    assert filtered.taxonomy.names() == ["L0", "L2"]
    # The test record that shares t1's vector does not count towards L0.
    assert [e.count for e in filtered.taxonomy.labels] == [2, 2]
    assert [(i.record_id, i.split, i.positives) for i in filtered.items] == [
        ("t1", "train", (0, 1)), ("t2", "train", (0, 1)), ("s1", "test", (0, 1)), ("v1", "val", ()),
    ]
    assert filtered.items[0].positives is filtered.items[2].positives


_SPLIT_NAMES = st.sampled_from(("train", "val", "test"))


@settings(max_examples=200, deadline=None)
@given(
    k=st.integers(1, 6),
    rows=st.lists(st.tuples(_SPLIT_NAMES, st.sets(st.integers(0, 5))), min_size=1, max_size=30),
    theta=st.integers(0, 4),
)
def test_filter_labels_matches_a_per_record_reprojection(k, rows, theta):
    items = tuple(
        AnnotatedItem(f"r{n}", split, tuple(sorted(j for j in positives if j < k)))
        for n, (split, positives) in enumerate(rows)
    )
    dataset = MLCDataset(taxonomy=_taxonomy([f"L{j}" for j in range(k)]), items=items)
    counts = Counter(j for item in items if item.split == "train" for j in item.positives)
    kept = [j for j in range(k) if counts[j] >= theta]
    if not kept:
        with pytest.raises(EmptyTaxonomyError):
            filter_labels(dataset, theta)
        return
    remap = {old: new for new, old in enumerate(kept)}
    filtered = filter_labels(dataset, theta)
    assert filtered.taxonomy.names() == [f"L{j}" for j in kept]
    assert [e.count for e in filtered.taxonomy.labels] == [counts[j] for j in kept]
    assert [item.positives for item in filtered.items] == [
        tuple(sorted(remap[j] for j in item.positives if j in remap)) for item in items
    ]


# ---------------------------------------------------------------------------
# Full stage on the synthetic corpus
# ---------------------------------------------------------------------------


def test_bootstrap_recovers_generator_labels(synth, mock_gateway):
    dataset = bootstrap_dataset(synth.corpus, BootstrapConfig(), mock_gateway)
    assert set(dataset.taxonomy.names()) == set(synth.primary_names)
    assert len(dataset.taxonomy) == 10
    assert dataset.skipped == ()
    # One batch of 140 training reports under the default batch size of 200.
    assert dataset.taxonomy.merge_rounds == 0


def test_bootstrap_filters_injected_rare_labels(synth, mock_gateway):
    dataset = bootstrap_dataset(synth.corpus, BootstrapConfig(), mock_gateway)
    for rare in synth.rare_names:
        assert rare not in dataset.taxonomy.names()


def test_bootstrap_multiple_batches_still_recover_labels(synth, mock_gateway):
    dataset = bootstrap_dataset(
        synth.corpus, BootstrapConfig(b=40), mock_gateway
    )
    assert set(dataset.taxonomy.names()) == set(synth.primary_names)
    assert dataset.taxonomy.merge_rounds >= 1


def test_bootstrap_requires_training_records(mock_gateway):
    corpus = Corpus(records=[ReportRecord(id="a", split="test", report="t")])
    with pytest.raises(ManifestError, match="has no records in split 'train'"):
        bootstrap_dataset(corpus, BootstrapConfig(), mock_gateway)


def test_bootstrap_reruns_write_byte_identical_artifacts(synth, mock_gateway):
    a = bootstrap_dataset(synth.corpus, BootstrapConfig(), mock_gateway)
    b = bootstrap_dataset(synth.corpus, BootstrapConfig(), mock_gateway)
    assert taxonomy_to_json(a.taxonomy) == taxonomy_to_json(b.taxonomy)
    assert labels_to_jsonl(a) == labels_to_jsonl(b)


def test_bootstrap_skips_records_with_unparseable_annotation(monkeypatch, mock_gateway):
    corpus = Corpus(
        records=[
            ReportRecord(id="good", split="train", report="A cavity is seen."),
            ReportRecord(id="bad", split="train", report="A cavity too."),
        ]
    )
    real_complete = gateway_mod.complete

    def flaky_complete(request, config):
        if "[task:annotate]" in request.system and "A cavity too." in request.user:
            return ChatResponse(text="garbage", input_tokens=0, output_tokens=0)
        return real_complete(request, config)

    monkeypatch.setattr(gateway_mod, "complete", flaky_complete)
    dataset = bootstrap_dataset(
        corpus, BootstrapConfig(theta=1), mock_gateway
    )
    assert dataset.skipped == ("bad",)
    assert [i.record_id for i in dataset.items] == ["good"]


def test_skipped_records_are_one_warning_and_detail_at_debug(
    monkeypatch, mock_gateway, caplog
):
    corpus = Corpus(
        records=[
            ReportRecord(id="good", split="train", report="A cavity is seen."),
            ReportRecord(id="bad1", split="train", report="A cavity too."),
            ReportRecord(id="bad2", split="train", report="A cavity too."),
        ]
    )
    real_complete = gateway_mod.complete

    def flaky_complete(request, config):
        if "[task:annotate]" in request.system and "A cavity too." in request.user:
            return ChatResponse(text="garbage", input_tokens=0, output_tokens=0)
        return real_complete(request, config)

    monkeypatch.setattr(gateway_mod, "complete", flaky_complete)
    with caplog.at_level(logging.DEBUG, logger="reportguide.bootstrap"):
        bootstrap_dataset(corpus, BootstrapConfig(theta=1), mock_gateway)
    warnings = [r.message for r in caplog.records if r.levelno >= logging.WARNING]
    assert warnings == ["annotation skipped 2 records"]
    detail = [r for r in caplog.records if r.message.startswith("skipping record")]
    assert sorted(r.message.split(":")[0] for r in detail) == [
        "skipping record bad1",
        "skipping record bad2",
    ]
    assert all(r.levelno == logging.DEBUG for r in detail)


def test_unknown_labels_are_one_warning_per_distinct_text(monkeypatch, mock_gateway, caplog):
    corpus = Corpus(
        records=[
            ReportRecord(id=f"r{i}", split="train", report="A cavity is seen.")
            for i in range(3)
        ]
    )
    real_complete = gateway_mod.complete

    def odd_complete(request, config):
        response = real_complete(request, config)
        if "[task:annotate]" in request.system:
            text = json.dumps(["XYZ", *json.loads(response.text)])
            return ChatResponse(text=text, input_tokens=0, output_tokens=0)
        return response

    monkeypatch.setattr(gateway_mod, "complete", odd_complete)
    with caplog.at_level(logging.INFO, logger="reportguide.bootstrap"):
        dataset = bootstrap_dataset(corpus, BootstrapConfig(theta=1), mock_gateway)
    assert [i.positives for i in dataset.items] == [(0,)] * 3
    warnings = [r.message for r in caplog.records if r.levelno >= logging.WARNING]
    assert warnings == [
        "annotation returned unknown labels ['XYZ'] for 3 records carrying the text; dropped"
    ]
    info = [r.message for r in caplog.records if r.levelno == logging.INFO]
    assert "annotated 3 records through 1 distinct report texts" in info


def _mock_reply(request: dict) -> str:
    system, user = (m["content"] for m in request["messages"])
    return gateway_mod.complete(ChatRequest(system=system, user=user), GatewayConfig()).text


def test_http_bootstrap_annotates_each_distinct_text_once(
    synth, synth_dir, stub_server_factory, monkeypatch, tmp_path
):
    monkeypatch.setenv("LLM_API_KEY", "test-key")
    server = stub_server_factory(reply=_mock_reply, keep_alive=True)
    config = tmp_path / "config.json"
    paths = {
        "manifest": str(synth_dir / "manifest.jsonl"),
        "features": str(synth_dir / "features.ffmx"),
    }
    config.write_text(json.dumps({"paths": paths, "bootstrap": {"b": 40}}), encoding="utf-8")
    args = ["bootstrap", "--config", str(config), "--workdir"]
    assert main([*args, str(tmp_path / "mock")]) == 0
    http = [
        "--set", "gateway.backend=http",
        "--set", f"gateway.endpoint={server.endpoint}",
        "--set", "gateway.requests_per_minute=60000",
    ]
    assert main([*args, str(tmp_path / "http"), *http]) == 0

    records = synth.corpus.records
    distinct = len({r.report for r in records})
    assert distinct < len(records)
    tasks = Counter(r["messages"][0]["content"].split("\n", 1)[0] for r in server.requests)
    train = len(synth.corpus.split("train"))
    assert tasks["[task:extract]"] == -(-train // 40)
    assert tasks["[task:merge]"] >= 1
    assert tasks["[task:annotate]"] == distinct
    assert len(server.requests) == tasks["[task:extract]"] + tasks["[task:merge]"] + distinct
    for name in ("labels.jsonl", "taxonomy.json"):
        assert (tmp_path / "http" / name).read_bytes() == (tmp_path / "mock" / name).read_bytes()


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------


def test_taxonomy_save_load_round_trip(tmp_path):
    tax = LabelTaxonomy(
        labels=(
            LabelEntry(index=0, name="A", aliases=("a1", "a2"), count=20),
            LabelEntry(index=1, name="B", aliases=(), count=15),
        ),
        merge_rounds=2,
        params={"b": 200, "kappa": 200, "theta": 15},
    )
    path = tmp_path / "taxonomy.json"
    write_atomic(path, taxonomy_to_json(tax))
    loaded = load_taxonomy(path)
    assert loaded == tax


def test_a_taxonomy_with_empty_params_round_trips(tmp_path):
    # An in-process LabelTaxonomy records no bootstrap settings: `"params": {}`.
    tax = _taxonomy(["A", "B"])
    path = tmp_path / "taxonomy.json"
    write_atomic(path, taxonomy_to_json(tax))
    assert '"params": {}' in path.read_text(encoding="utf-8")
    loaded = load_taxonomy(path)
    assert loaded == tax
    assert taxonomy_to_json(loaded) == path.read_text(encoding="utf-8")


def test_taxonomy_fingerprint_is_stable_and_sensitive(tmp_path):
    tax_a = _taxonomy(["A", "B"])
    tax_b = _taxonomy(["A", "C"])
    assert taxonomy_fingerprint(tax_a) == taxonomy_fingerprint(_taxonomy(["A", "B"]))
    assert taxonomy_fingerprint(tax_a) != taxonomy_fingerprint(tax_b)


def test_load_taxonomy_rejects_unknown_version(tmp_path):
    path = tmp_path / "taxonomy.json"
    path.write_text('{"version": 99, "labels": []}', encoding="utf-8")
    with pytest.raises(BootstrapError, match="version"):
        load_taxonomy(path)


@pytest.mark.parametrize(
    "doc, message",
    [
        ([], "not a JSON object"),
        ({"version": 1, "labels": {}}, "labels must be a list"),
        ({"version": 1, "labels": [], "merge_rounds": "2"}, "merge_rounds must be an integer"),
        ({"version": 1, "labels": [], "params": [["b", 200]]}, "params an object"),
        ({"version": 1, "labels": [["A"]]}, "label 0: not a JSON object"),
        ({"version": 1, "labels": [{"name": "A"}]}, "label 0: index must be an integer"),
        ({"version": 1, "labels": [{"index": 0.0, "name": "A"}]}, "index must be an integer"),
        ({"version": 1, "labels": [{"index": True, "name": "A"}]}, "index must be an integer"),
        ({"version": 1, "labels": [{"index": 0}]}, "label 0: name must be a string"),
        ({"version": 1, "labels": [{"index": 0, "name": "A", "aliases": "a1"}]},
         "aliases must be a list of strings"),
        ({"version": 1, "labels": [{"index": 0, "name": "A", "count": "x"}]},
         "count must be an integer"),
    ],
)
def test_load_taxonomy_rejects_malformed_documents(tmp_path, doc, message):
    path = tmp_path / "taxonomy.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(BootstrapError, match=message) as info:
        load_taxonomy(path)
    assert str(path) in str(info.value)


def test_labels_save_load_round_trip(tmp_path):
    tax = _taxonomy(["A", "B"])
    corpus = Corpus(
        records=[
            ReportRecord(id="r1", split="train", report="t"),
            ReportRecord(id="r2", split="test", report="t"),
        ]
    )
    dataset = MLCDataset(
        taxonomy=tax,
        items=(AnnotatedItem("r1", "train", (0, 1)), AnnotatedItem("r2", "test", ())),
    )
    path = tmp_path / "labels.jsonl"
    write_atomic(path, labels_to_jsonl(dataset))
    loaded = load_labels(path, corpus, tax)
    assert loaded.items == dataset.items


_RECORD_ID = st.text(
    st.one_of(
        st.characters(),
        st.sampled_from(
            ('"', "\\", "\x00", "\x1f", "\x7f", "\u2028", "\u2029", "é", "肺", "😀")
        ),
        st.integers(0xD800, 0xDFFF).map(chr),  # lone surrogates
    ),
    max_size=20,
)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.tuples(_RECORD_ID, st.lists(st.integers(-(2**70), 2**70), max_size=60)), max_size=8
    )
)
@example([("", []), ("r1", list(range(500))), ("r2", [2**64, -(2**63)])])
def test_labels_to_jsonl_writes_the_bytes_of_json_dumps(rows):
    # Any str id and int vector: labels_to_jsonl reads only `items`.
    dataset = SimpleNamespace(items=[AnnotatedItem(i, "train", tuple(p)) for i, p in rows])
    assert labels_to_jsonl(dataset) == "".join(
        json.dumps({"id": i, "positives": list(p)}) + "\n" for i, p in rows
    )


@pytest.mark.parametrize(
    "line, message",
    [
        ('["r1", [0]]', "line 2: not a JSON object"),
        ("null", "line 2: not a JSON object"),
        ('{"id": "r1", "positives": ["0"]}', "line 2: positives must be a list of integers"),
        ('{"id": "r1", "positives": [0.5]}', "line 2: positives must be a list of integers"),
        ('{"id": "r1", "positives": [true]}', "line 2: positives must be a list of integers"),
        ('{"id": "r1", "positives": 0}', "line 2: positives must be a list of integers"),
        ('{"id": "r1", "positives": [1]}', "line 2: record 'r1' has label index 1 outside 0..0"),
        ('{"id": "r1", "positives": [0, 0]}',
         "line 2: record 'r1' has unsorted or duplicate positives"),
    ],
)
def test_load_labels_rejects_malformed_lines(tmp_path, line, message):
    tax = _taxonomy(["A"])
    corpus = Corpus(
        records=[ReportRecord(id=rid, split="train", report="t") for rid in ("r0", "r1")]
    )
    path = tmp_path / "labels.jsonl"
    path.write_text('{"id": "r0", "positives": [0]}\n' + line + "\n", encoding="utf-8")
    with pytest.raises(BootstrapError, match=f"labels file .*labels.jsonl {message}"):
        load_labels(path, corpus, tax)


def test_load_labels_names_the_line_of_the_first_record_carrying_an_invalid_vector(tmp_path):
    tax = _taxonomy(["A", "B"])
    corpus = Corpus(
        records=[ReportRecord(id=f"r{n}", split="train", report="t") for n in range(5)]
    )
    path = tmp_path / "labels.jsonl"
    rows = [("r0", [0, 1]), ("r1", [0, 1]), ("r2", [1, 0]), ("r3", [0, 1]), ("r4", [1, 0])]
    # The blank line makes file lines and row positions differ.
    path.write_text(
        "\n" + "".join(json.dumps({"id": i, "positives": p}) + "\n" for i, p in rows),
        encoding="utf-8",
    )
    with pytest.raises(
        BootstrapError,
        match=f"^labels file {path} line 4: record 'r2' has unsorted or duplicate positives$",
    ):
        load_labels(path, corpus, tax)


def test_load_labels_shares_one_vector_among_the_records_that_carry_it(tmp_path):
    tax = _taxonomy(["A", "B"])
    corpus = Corpus(
        records=[ReportRecord(id=f"r{n}", split="train", report="t") for n in range(3)]
    )
    path = tmp_path / "labels.jsonl"
    path.write_text(
        '{"id": "r0", "positives": [0, 1]}\n{"id": "r1", "positives": []}\n'
        '{"id": "r2", "positives": [0, 1]}\n',
        encoding="utf-8",
    )
    items = load_labels(path, corpus, tax).items
    assert [item.positives for item in items] == [(0, 1), (), (0, 1)]
    assert items[0].positives is items[2].positives


def test_load_labels_rejects_unknown_record(tmp_path):
    tax = _taxonomy(["A"])
    corpus = Corpus(records=[ReportRecord(id="r1", split="train", report="t")])
    path = tmp_path / "labels.jsonl"
    path.write_text('{"id": "ghost", "positives": []}\n', encoding="utf-8")
    with pytest.raises(BootstrapError, match="labels.jsonl line 1: unknown record id 'ghost'"):
        load_labels(path, corpus, tax)


# ---------------------------------------------------------------------------
# Audit
# ---------------------------------------------------------------------------


def test_audit_coverage_is_one_when_every_report_has_a_label():
    tax = _taxonomy(["A"])
    items = tuple(AnnotatedItem(f"r{i}", "train", (0,)) for i in range(4))
    audit = audit_taxonomy(MLCDataset(taxonomy=tax, items=items))
    assert audit["coverage"] == 1.0
    assert audit["reports"] == 4


def test_audit_counts_unlabeled_reports():
    tax = _taxonomy(["A"])
    items = (AnnotatedItem("r0", "train", (0,)), AnnotatedItem("r1", "train", ()))
    audit = audit_taxonomy(MLCDataset(taxonomy=tax, items=items))
    assert audit["coverage"] == 0.5


def test_audit_flags_punctuation_variant_synonyms():
    tax = _taxonomy(["optic disc edema", "optic-disc edema"])
    audit = audit_taxonomy(MLCDataset(taxonomy=tax, items=()))
    pairs = {(c["a"], c["b"]) for c in audit["synonym_candidates"]}
    assert ("optic disc edema", "optic-disc edema") in pairs


def test_audit_does_not_flag_distinct_labels():
    tax = _taxonomy(["Pneumothorax", "Cardiomegaly"])
    audit = audit_taxonomy(MLCDataset(taxonomy=tax, items=()))
    assert audit["synonym_candidates"] == []
