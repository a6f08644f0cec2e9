"""Command-line orchestration: config loading and overrides, exit codes,
artifact and locking discipline, and the mini end-to-end pipeline."""

from __future__ import annotations

import ast
import fcntl
import functools
import gc
import inspect
import json
import math
import os
import re
import shlex
import struct
import subprocess
import sys
from dataclasses import asdict, fields, is_dataclass
from pathlib import Path

import numpy as np
import pytest

from reportguide import bootstrap, classifier, cli, errors, guidance, metrics
from reportguide.cli import (
    FLAG_ALIASES,
    STAGES,
    PipelineConfig,
    _build_parser,
    _collect_overrides,
    config_fingerprint,
    load_config,
    main,
)
from reportguide.corpus import (
    FEATURE_MAGIC,
    Corpus,
    FeatureMatrix,
    ReportRecord,
    load_features,
    load_manifest,
    save_features,
    save_manifest,
)
from reportguide.errors import ConfigError, DataError, PipelineError
from reportguide.gateway import SENTINEL_ENTITIES, ChatRequest, GatewayConfig, complete
from reportguide.schema import describe_bounds

# ---------------------------------------------------------------------------
# A 12-record corpus small enough to push through every stage in-process:
# two findings with strongly signed two-dimensional features.
# ---------------------------------------------------------------------------

_CAVITY = "A cavity is seen in the upper zone."
_EFFUSION = "A small pleural effusion is present."
_BOTH = "A cavity is seen, and a small pleural effusion is present."
_NORMAL = "The lungs are clear."


def _mini_records():
    plan = [
        ("t1", "train", _CAVITY), ("t2", "train", _EFFUSION),
        ("t3", "train", _BOTH), ("t4", "train", _NORMAL),
        ("t5", "train", _CAVITY), ("t6", "train", _EFFUSION),
        ("t7", "train", _BOTH), ("t8", "train", _NORMAL),
        ("v1", "val", _CAVITY), ("v2", "val", _EFFUSION),
        ("s1", "test", _CAVITY), ("s2", "test", _EFFUSION),
    ]
    return [ReportRecord(id=i, split=s, report=r) for i, s, r in plan]


def _mini_features(records):
    rows = []
    for rec in records:
        has_cavity = "cavity" in rec.report
        has_effusion = "effusion" in rec.report
        rows.append([2.0 if has_cavity else -2.0, 2.0 if has_effusion else -2.0])
    return FeatureMatrix(
        values=np.asarray(rows, dtype=np.float32),
        row_ids=tuple(r.id for r in records),
    )


@pytest.fixture()
def mini(tmp_path):
    """Manifest + features on disk plus a ready-to-run config file."""
    records = _mini_records()
    corpus = Corpus(records=records)
    data_dir = tmp_path / "data"
    data_dir.mkdir()
    save_manifest(corpus, data_dir / "manifest.jsonl")
    save_features(_mini_features(records), data_dir / "features.ffmx")
    workdir = tmp_path / "run"
    config = {
        "paths": {
            "manifest": str(data_dir / "manifest.jsonl"),
            "features": str(data_dir / "features.ffmx"),
            "workdir": str(workdir),
        },
        "bootstrap": {"theta": 2},
        "train": {"learning_rate": 0.5, "epochs": 40, "batch_size": 8},
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config, indent=2), encoding="utf-8")
    return {"config": str(config_path), "workdir": workdir, "tmp": tmp_path}


# ---------------------------------------------------------------------------
# Config loading
# ---------------------------------------------------------------------------


def test_config_file_values_override_defaults(mini):
    config = load_config(mini["config"], [])
    assert config.bootstrap.theta == 2
    assert config.train.epochs == 40
    assert config.bootstrap.b == 200  # untouched default
    assert config.guidance.mode == "image_and_label"


def test_config_rejects_unknown_section(mini, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"bananas": {}}', encoding="utf-8")
    with pytest.raises(ConfigError, match="unknown config section"):
        load_config(path, [])


def test_config_rejects_unknown_key_within_section(mini, tmp_path):
    doc = json.loads((tmp_path / "config.json").read_text(encoding="utf-8"))
    doc["train"]["bogus"] = 1
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(ConfigError, match="train.bogus"):
        load_config(path, [])


def test_overrides_parse_json_types(mini):
    config = load_config(
        mini["config"],
        [("train.epochs", "50"), ("guidance.threshold", "0.25"),
         ("train.adjustment", "off")],
    )
    assert config.train.epochs == 50
    assert config.guidance.threshold == 0.25
    assert config.train.adjustment == "off"


def test_overrides_accept_bare_strings(mini):
    config = load_config(mini["config"], [("guidance.mode", "label_only")])
    assert config.guidance.mode == "label_only"


def test_override_unknown_dotted_key_is_rejected(mini):
    with pytest.raises(ConfigError, match="train.what"):
        load_config(mini["config"], [("train.what", "1")])


@pytest.mark.parametrize(
    "dotted, value, hint",
    [
        ("bootstrap.theta", "-1", "theta"),
        ("guidance.mode", "banana", "mode"),
        ("guidance.threshold", "1.5", "threshold"),
        ("guidance.split", "other", "split"),
        ("train.epochs", "0", "epochs"),
        ("gateway.backend", "http", "endpoint"),
        ("guidance.threshold", "abc", "threshold"),
        ("train.learning_rate", "abc", "learning_rate"),
        ("gateway.parallelism", "x", "parallelism"),
        ("train.batch_size", "null", "batch_size"),
        ("paths.workdir", "5", "workdir"),
        ("paths", "5", "paths"),
        ("bootstrap.b", "true", "b must be an integer"),
        ("train.epochs", "2.5", "epochs"),
        ("train.tau", "nan", "tau"),
        ("train.tau", "NaN", "tau"),
        ("train.learning_rate", "1e400", "learning_rate"),
        ("train.seed", "-1", "seed"),
        ("guidance.generator", "1", "generator"),
        ("guidance.generator.backend", "zzz", "backend"),
        ("metrics.enabled", '"bleu"', "list of strings"),
        ("gateway.call_log_path", '"calls.jsonl"', "unknown config key"),
        ("gateway.retry_base_delay", "0", "unknown config key"),
        ("guidance.generator.gateway", "{}", "unknown config key"),
        ("gateway", '{"backend": "http", "endpoint": "localhost:8080/v1"}', "endpoint must be"),
        ("gateway", '{"backend": "http", "endpoint": "ftp://host/v1"}', "endpoint must be"),
        ("gateway", '{"backend": "http", "endpoint": "http://host:port/v1"}', "not a valid URL"),
        ("guidance.generator", '{"backend": "http", "endpoint": "https:///v1"}',
         "guidance.generator: endpoint must be"),
        ("paths.workdir.x", "1", "does not name a field"),
        pytest.param("train.tau", "9" * 400, "tau must be a finite number",
                     id="train.tau-400-digits"),
    ],
)
def test_validation_rejects_bad_values(mini, dotted, value, hint):
    with pytest.raises(ConfigError, match=hint):
        load_config(mini["config"], [(dotted, value)])


def _declared_fields(config=PipelineConfig(), prefix=""):
    """(dotted key, annotation as written, bounds) of every leaf config field,
    found by walking the sections' declarations."""
    for f in fields(config):
        value = getattr(config, f.name)
        if is_dataclass(value):
            yield from _declared_fields(value, f"{prefix}{f.name}.")
        else:
            yield f"{prefix}{f.name}", f.type, f.metadata


def _past(kind, bound, direction):
    """The value next to `bound` in `direction` (+1 up, -1 down) for `kind`."""
    return bound + direction if kind == "int" else math.nextafter(bound, direction * math.inf)


def _bound_cases():
    """(key, JSON value, accepted) just past and at each declared bound, and
    outside each declared choice."""
    for key, kind, bounds in _declared_fields():
        for name, bound in bounds.items():
            if name == "choices":
                rows = [("outside", ["nope"] if kind == "list[str]" else "nope", False)]
            elif name == "above":  # exclusive: the bound is out, the value past it in
                rows = [("at", bound, False), ("past", _past(kind, bound, 1), True)]
            else:
                outward = 1 if name == "high" else -1
                rows = [("past", _past(kind, bound, outward), False), ("at", bound, True)]
            for where, value, accepted in rows:
                yield pytest.param(key, json.dumps(value), accepted, id=f"{key}-{name}-{where}")


@pytest.mark.parametrize("key, value, accepted", list(_bound_cases()))
def test_every_declared_bound_is_checked_when_the_config_loads(mini, key, value, accepted):
    if accepted:
        config = load_config(mini["config"], [(key, value)])
        node = config
        for part in key.split("."):
            node = getattr(node, part)
        assert node == json.loads(value)
    else:
        with pytest.raises(ConfigError, match=re.escape(f"{key} must be ")):
            load_config(mini["config"], [(key, value)])


def test_the_bounds_walk_finds_every_section():
    keys = {key for key, _, bounds in _declared_fields() if bounds}
    assert {"bootstrap.b", "gateway.parallelism", "train.tau", "train.learning_rate",
            "guidance.threshold", "guidance.generator.backend", "metrics.enabled"} <= keys


# A JSON value of another type than each declared annotation's.
_WRONG_TYPE = {"int": '"x"', "float": '"x"', "str": "5", "list[str]": "5"}


@pytest.mark.parametrize(
    "key, kind", [pytest.param(key, kind, id=key) for key, kind, _ in _declared_fields()]
)
def test_every_field_rejects_a_value_of_the_wrong_json_type(mini, key, kind):
    with pytest.raises(ConfigError, match=re.escape(f"{key} must be ")):
        load_config(mini["config"], [(key, _WRONG_TYPE[kind])])


@pytest.mark.parametrize(
    "flag, value, key",
    [("--threshold", "abc", "guidance.threshold"), ("--seed", "1.5", "train.seed")],
)
def test_a_bad_named_flag_is_a_configuration_error(mini, caplog, flag, value, key):
    assert main(["train", "--config", mini["config"], flag, value]) == 2
    assert f"configuration error: {key} must be " in caplog.text


@pytest.mark.parametrize("flag, key", FLAG_ALIASES)
def test_each_named_flag_is_an_alias_of_set(flag, key):
    parser = _build_parser()
    for value in ("0.25", "7", "label_only", "/tmp/w"):
        named = _collect_overrides(parser.parse_args(["train", flag, value]))
        aliased = _collect_overrides(parser.parse_args(["train", "--set", f"{key}={value}"]))
        assert named == aliased == [(key, value)]


@pytest.mark.parametrize(
    "override",
    [
        "guidance.threshold=abc",
        "train.learning_rate=abc",
        "gateway.parallelism=x",
        "train.batch_size=null",
        "paths.workdir=5",
        "paths=5",
        "train.tau=-5",
        "paths.workdir.x=1",
        pytest.param("train.tau=" + "9" * 400, id="train.tau=400-digits"),
    ],
)
def test_bad_values_exit_2_from_every_stage(mini, caplog, override):
    for command in ("bootstrap", "train", "predict", "generate", "evaluate", "pipeline"):
        caplog.clear()
        assert main([command, "--config", mini["config"], "--set", override]) == 2, command
        assert "configuration error:" in caplog.text, command


def test_an_empty_features_path_exits_2_from_every_stage(mini, caplog):
    for command in ("bootstrap", "train", "predict", "generate", "evaluate", "pipeline"):
        caplog.clear()
        assert main([command, "--config", mini["config"], "--set", "paths.features="]) == 2, command
        assert "configuration error: paths.features is required" in caplog.text, command
    assert not mini["workdir"].exists()


def _dotted(doc: dict, prefix: str = "") -> dict:
    flat = {}
    for key, value in doc.items():
        if isinstance(value, dict):
            flat.update(_dotted(value, prefix + key + "."))
        else:
            flat[prefix + key] = value
    return flat


def test_settable_keys_are_exactly_the_documented_28(mini):
    config = load_config(mini["config"], [])
    flat = _dotted(asdict(config))
    assert set(flat) == {
        "paths.manifest", "paths.features", "paths.workdir",
        "bootstrap.b", "bootstrap.kappa", "bootstrap.theta",
        "gateway.backend", "gateway.endpoint", "gateway.model", "gateway.api_key_env",
        "gateway.max_retries", "gateway.parallelism", "gateway.requests_per_minute",
        "train.learning_rate", "train.epochs", "train.batch_size", "train.seed",
        "train.tau", "train.adjustment",
        "guidance.mode", "guidance.label_source", "guidance.threshold", "guidance.split",
        "guidance.generator.backend", "guidance.generator.command",
        "guidance.generator.endpoint", "guidance.generator.model",
        "metrics.enabled",
    }
    for key, value in flat.items():
        again = load_config(mini["config"], [(key, json.dumps(value))])
        assert config_fingerprint(again) == config_fingerprint(config), key


def test_readme_configuration_block_matches_the_schema():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = re.search(r"```jsonc\n(.*?)```", readme, re.S).group(1)
    doc = json.loads(re.sub(r"//[^\n]*", "", block))
    assert doc == asdict(PipelineConfig())
    # Each declared bound or choice is stated on its field's line.
    lines = block.splitlines()
    for key, _, bounds in _declared_fields():
        at = 0
        for part in key.split("."):
            at = next(i for i in range(at, len(lines)) if lines[i].lstrip().startswith(f'"{part}":'))
        assert describe_bounds(bounds) in lines[at], (key, lines[at])


def test_readme_files_table_names_the_stage_that_writes_each_artifact(stage_reads):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    table = readme.split("| file | written by | read by | contents |\n|---|---|---|---|\n", 1)[1]
    cells = [
        [cell.strip() for cell in line.split("|")[1:4]]
        for line in table.split("\n\n", 1)[0].splitlines()
    ]
    rows = [(name.strip("`"), writer.strip("`")) for name, writer, _ in cells]
    assert ("meta/<command>.json", "every stage") in rows
    documented = [(name, writer) for name, writer in rows if writer != "every stage"]
    outputs = [
        (name, stage.name)
        for stage in STAGES
        for name in stage.outputs(PipelineConfig(), True)
    ]

    def describes(row, output):
        pattern = re.escape(row[0]).replace("<tag>", "[a-z_-]+")
        return re.fullmatch(pattern, output[0]) is not None and row[1] == output[1]

    for output in outputs:
        assert len([row for row in documented if describes(row, output)]) == 1, output
    for row in documented:
        assert any(describes(row, output) for output in outputs), row

    # "read by" names exactly the stages that were seen reading the file.
    stage_names = {stage.name for stage in STAGES}
    for (name, _), (_, _, readers) in zip(rows, cells):
        pattern = re.escape(name).replace("<tag>", "[a-z_-]+")
        recorded = {
            command[0] for command, keys, _, _ in stage_reads
            if any(re.fullmatch(pattern, key) for key in keys)
        }
        assert set(re.findall(r"`(\w+)`", readers)) & stage_names == recorded, name


def test_http_generator_falls_back_to_the_gateway_section(mini):
    config = load_config(
        mini["config"],
        [("gateway.endpoint", "http://127.0.0.1:9/v1"), ("gateway.max_retries", "5"),
         ("guidance.generator.backend", "http"), ("guidance.generator.model", "gen-1")],
    )
    chat = config.guidance.generator.gateway
    assert (chat.backend, chat.endpoint, chat.model, chat.max_retries) == (
        "http", "http://127.0.0.1:9/v1", "gen-1", 5
    )
    with pytest.raises(ConfigError, match="endpoint"):
        load_config(mini["config"], [("guidance.generator.backend", "http")])


def test_http_generation_logs_one_call_per_split_record(mini, stub_server_factory, monkeypatch):
    monkeypatch.setenv("LLM_API_KEY", "test-key")
    assert main(["pipeline", "--config", mini["config"]]) == 0
    server = stub_server_factory(reply="Findings: from the stub.")
    assert main([
        "generate", "--config", mini["config"], "--force",
        "--set", "guidance.generator.backend=http",
        "--set", f"guidance.generator.endpoint={server.endpoint}",
    ]) == 0
    log = (mini["workdir"] / "gateway_calls.jsonl").read_text(encoding="utf-8").splitlines()
    assert len(log) == len(server.requests) == 2  # the test split: s1 and s2
    assert {json.loads(line)["model"] for line in log} == {"mock-clinical-1"}


# ---------------------------------------------------------------------------
# Billed calls: the workdir's call log answers repeated http requests
# ---------------------------------------------------------------------------


def _mock_reply(doc: dict) -> str:
    """The mock gateway's answer to a chat-completions request, so that an
    http run against a stub with this reply writes a mock run's artifacts."""
    messages = {m["role"]: m["content"] for m in doc["messages"]}
    request = ChatRequest(system=messages["system"], user=messages["user"])
    return complete(request, GatewayConfig(backend="mock")).text


def _http(server) -> list[str]:
    return ["--set", "gateway.backend=http", "--set", f"gateway.endpoint={server.endpoint}"]


def test_a_rerun_of_a_failed_http_bootstrap_sends_only_the_unlogged_requests(
    mini, stub_server_factory, monkeypatch
):
    monkeypatch.setenv("LLM_API_KEY", "test-key")
    clean = mini["tmp"] / "clean"
    server = stub_server_factory(reply=_mock_reply)
    bootstrap_clean = ["bootstrap", "--config", mini["config"], "--workdir", str(clean)]
    assert main([*bootstrap_clean, *_http(server)]) == 0
    total = len(server.requests)
    # A non-retryable status after all but three of the requests.
    failing = stub_server_factory(script=[200] * (total - 3) + [400], reply=_mock_reply)
    assert main(["bootstrap", "--config", mini["config"], *_http(failing)]) == 3
    assert not (mini["workdir"] / "taxonomy.json").exists()
    log = mini["workdir"] / "gateway_calls.jsonl"
    logged = len(log.read_text(encoding="utf-8").splitlines())
    assert total - 3 <= logged < total
    # The rerun goes to the same endpoint, which keys the log, and its
    # script is spent: from here on, every request succeeds.
    sent = len(failing.requests)
    assert main(["bootstrap", "--config", mini["config"], *_http(failing)]) == 0
    assert len(failing.requests) - sent == total - logged
    for name in ("taxonomy.json", "labels.jsonl"):
        assert (mini["workdir"] / name).read_bytes() == (clean / name).read_bytes(), name


def test_an_http_ablation_sends_each_entity_text_once(mini, stub_server_factory, monkeypatch):
    monkeypatch.setenv("LLM_API_KEY", "test-key")
    server = stub_server_factory(reply=_mock_reply)
    config = ["--config", mini["config"], *_http(server)]
    assert main(["pipeline", *config]) == 0
    assert main(["generate", "--ablation", "--force", *config]) == 0
    cells = [
        ["--mode", mode] + ([] if source == "none" else ["--label-source", source])
        for mode, source in guidance.ABLATION_MODES
    ]
    scored = []
    for cell in cells:
        assert main(["evaluate", "--force", *config, *cell]) == 0
        scored.append((mini["workdir"] / "metrics.json").read_bytes())
    entity_texts = [
        doc["messages"][1]["content"]
        for doc in server.requests
        if SENTINEL_ENTITIES in doc["messages"][0]["content"]
    ]
    assert len(entity_texts) == len(set(entity_texts))
    # Scored again on an empty log, each cell sends its texts and writes the same bytes.
    for cell, metrics_json in zip(cells, scored):
        (mini["workdir"] / "gateway_calls.jsonl").unlink()
        sent = len(server.requests)
        assert main(["evaluate", "--force", *config, *cell]) == 0
        assert len(server.requests) > sent
        assert (mini["workdir"] / "metrics.json").read_bytes() == metrics_json


@pytest.mark.parametrize(
    "tamper, message",
    [
        (lambda log: log.mkdir(), "cannot read gateway call log {log}: [Errno 21] Is a directory"),
        (lambda log: log.symlink_to(log.parent / "missing" / log.name),
         "cannot write gateway call log {log}: [Errno 2] No such file or directory"),
    ],
    ids=["directory", "dangling-symlink"],
)
def test_a_call_log_that_cannot_be_read_or_written_exits_4(
    mini, caplog, stub_server_factory, monkeypatch, tamper, message
):
    monkeypatch.setenv("LLM_API_KEY", "test-key")
    server = stub_server_factory(reply=_mock_reply)
    log = mini["workdir"] / "gateway_calls.jsonl"
    mini["workdir"].mkdir()
    tamper(log)
    assert main(["bootstrap", "--config", mini["config"], *_http(server)]) == 4
    assert message.format(log=log) in caplog.text
    assert not (mini["workdir"] / "taxonomy.json").exists()


def test_validation_rejects_unknown_metric(mini):
    with pytest.raises(ConfigError, match="metric"):
        load_config(mini["config"], [("metrics.enabled", '["bleu", "nope"]')])


def test_validation_requires_existing_manifest(mini):
    with pytest.raises(ConfigError, match="does not exist"):
        load_config(mini["config"], [("paths.manifest", "/nonexistent/m.jsonl")])


def test_fingerprint_is_stable_and_sensitive(mini):
    a = config_fingerprint(load_config(mini["config"], []))
    b = config_fingerprint(load_config(mini["config"], []))
    c = config_fingerprint(load_config(mini["config"], [("train.seed", "9")]))
    assert a == b
    assert a != c


def test_fingerprint_ignores_how_values_were_set(mini):
    via_file = load_config(mini["config"], [])
    via_flag = load_config(mini["config"], [("train.epochs", "40")])
    assert config_fingerprint(via_file) == config_fingerprint(via_flag)
    as_float = load_config(mini["config"], [("train.epochs", "40.0"), ("train.tau", "1")])
    assert config_fingerprint(via_file) == config_fingerprint(as_float)


# ---------------------------------------------------------------------------
# Exit codes
# ---------------------------------------------------------------------------


def test_synth_command_writes_the_bundled_corpus(tmp_path, capsys):
    out = tmp_path / "synth"
    assert main(["synth", "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "wrote 200 records and 200x16 features" in printed
    for name in ("manifest.jsonl", "features.ffmx", "features.ffmx.ids", "gt_labels.json"):
        assert (out / name).exists()


@pytest.mark.parametrize(
    "seed, out_is_a_file, message",
    [
        ("-1", False, "synth --seed must be >= 0, got -1"),
        ("3", True, "cannot use output directory {out}: [Errno 17]"),
    ],
    ids=["negative-seed", "out-is-a-file"],
)
def test_bad_synth_arguments_exit_2(tmp_path, caplog, seed, out_is_a_file, message):
    out = tmp_path / "synth"
    if out_is_a_file:
        out.write_text("not a directory", encoding="utf-8")
    assert main(["synth", "--out", str(out), "--seed", seed]) == 2
    assert f"configuration error: {message.format(out=out)}" in caplog.text
    assert out.is_file() if out_is_a_file else not out.exists()


def test_a_synth_seed_that_fails_the_corpus_guard_exits_2_and_writes_nothing(tmp_path, caplog):
    from reportguide.synthetic import build_synthetic_corpus

    out = tmp_path / "synth"
    assert main(["synth", "--out", str(out), "--seed", "40"]) == 2
    assert "configuration error: synthetic corpus seed 40: primary finding" in caplog.text
    assert list(out.iterdir()) == []
    # Callers that move on to the next seed catch an AssertionError.
    with pytest.raises(AssertionError, match="seed 40"):
        build_synthetic_corpus(40)


def test_missing_config_file_exits_2(tmp_path):
    assert main(["bootstrap", "--config", str(tmp_path / "nope.json")]) == 2


def test_invalid_config_json_exits_2(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{oops", encoding="utf-8")
    assert main(["bootstrap", "--config", str(path)]) == 2


def test_set_flag_without_equals_exits_2(mini):
    code = main(["bootstrap", "--config", mini["config"], "--set", "trainepochs"])
    assert code == 2


def test_unrecognized_positional_exits_2(mini):
    assert main(["bootstrap", "--config", mini["config"], "bogus"]) == 2


def test_http_gateway_without_endpoint_exits_2(mini):
    assert main(["bootstrap", "--config", mini["config"], "--backend", "http"]) == 2


def _error_classes():
    return [
        cls for cls in vars(errors).values()
        if isinstance(cls, type) and cls.__module__ == errors.__name__
    ]


def _branches():
    """The direct subclasses of PipelineError, one per exit code."""
    return [cls for cls in _error_classes() if cls.__bases__ == (PipelineError,)]


def test_each_error_is_on_exactly_one_branch_and_each_branch_declares_its_code():
    branches = _branches()
    assert sorted(cls.exit_code for cls in branches) == [2, 3, 4, 5]
    for cls in branches:
        assert {"exit_code", "label"} <= set(vars(cls)), cls
    for cls in _error_classes():
        if cls is not PipelineError:
            assert len([b for b in branches if b in cls.__mro__]) == 1, cls


def test_main_maps_every_package_error_in_one_handler():
    names = {cls.__name__ for cls in _error_classes()}
    caught = [
        {name.id for name in ast.walk(node.type) if isinstance(name, ast.Name)} & names
        for node in ast.walk(ast.parse(inspect.getsource(main)))
        if isinstance(node, ast.ExceptHandler) and node.type is not None
    ]
    assert [c for c in caught if c] == [{"PipelineError"}]


def test_readme_exit_code_table_lists_success_and_each_declared_code():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    table = readme.split("| code | meaning |\n|---|---|\n", 1)[1].split("\n\n", 1)[0]
    rows = {
        int(code): meaning.strip()
        for code, meaning in (line.split("|")[1:3] for line in table.splitlines())
    }
    assert sorted(rows) == [0, 2, 3, 4, 5]
    assert rows[0] == "success"
    for cls in _branches():
        assert rows[cls.exit_code].startswith(cls.label), cls


def test_predict_before_train_exits_5(mini, caplog):
    assert main(["bootstrap", "--config", mini["config"]]) == 0
    for command in ("predict", "generate"):  # generate's default cell reads `pred`
        caplog.clear()
        assert main([command, "--config", mini["config"]]) == 5
        assert "reportguide train" in caplog.text


@pytest.mark.parametrize("command", ["predict", "generate"])
def test_a_missing_checkpoint_is_reported_before_damaged_labels(mini, caplog, command):
    assert main(["pipeline", "--config", mini["config"]]) == 0
    (mini["workdir"] / "checkpoint.json").unlink()
    _edit_rows("labels.jsonl", lambda rows: rows[2].pop("positives"))(mini["workdir"])
    assert main([command, "--config", mini["config"], "--force"]) == 5
    assert "reportguide train" in caplog.text


def test_an_image_only_generate_reads_no_bootstrap_output(mini):
    # An image_only prompt carries no labels, so the cell needs only the manifest.
    assert main(["generate", "--config", mini["config"], "--mode", "image_only"]) == 0
    assert sorted(p.name for p in mini["workdir"].iterdir()) == [
        "generated-image_only.jsonl", "meta",
    ]
    after = mini["tmp"] / "after"
    assert main(["pipeline", "--config", mini["config"], "--workdir", str(after)]) == 0
    assert main(["generate", "--config", mini["config"], "--workdir", str(after),
                 "--mode", "image_only", "--force"]) == 0
    assert (after / "generated-image_only.jsonl").read_bytes() == (
        mini["workdir"] / "generated-image_only.jsonl"
    ).read_bytes()


@pytest.mark.parametrize(
    "command, producer",
    [
        ("generate --mode label_only --label-source gt", "bootstrap"),
        ("generate --mode image_and_label --label-source gt", "bootstrap"),
        ("generate --mode label_only --label-source pred", "train"),
        ("generate --ablation", "train"),
    ],
)
def test_a_generate_cell_that_carries_labels_needs_the_bootstrap_outputs(
    mini, caplog, command, producer
):
    assert main([*command.split(), "--config", mini["config"]]) == 5
    assert f"run `reportguide {producer}` first" in caplog.text


def test_evaluate_before_generate_exits_5(mini, caplog):
    assert main(["bootstrap", "--config", mini["config"]]) == 0
    assert main(["evaluate", "--config", mini["config"]]) == 5
    assert "reportguide generate" in caplog.text


def test_held_lock_exits_2(mini, caplog):
    workdir = mini["workdir"]
    workdir.mkdir(parents=True, exist_ok=True)
    fd = os.open(workdir / ".lock", os.O_CREAT | os.O_WRONLY)
    try:
        fcntl.flock(fd, fcntl.LOCK_EX)
        os.write(fd, b"12345")
        assert main(["bootstrap", "--config", mini["config"]]) == 2
        assert "locked" in caplog.text
    finally:
        os.close(fd)


def test_a_workdir_that_is_a_file_exits_2(mini, caplog):
    workdir = mini["workdir"]
    workdir.write_text("not a directory", encoding="utf-8")
    assert main(["bootstrap", "--config", mini["config"]]) == 2
    assert f"configuration error: cannot use workdir {workdir}: [Errno 17]" in caplog.text


def test_a_lock_that_cannot_be_opened_exits_2(mini, caplog):
    lock = mini["workdir"] / ".lock"
    lock.mkdir(parents=True)
    assert main(["bootstrap", "--config", mini["config"]]) == 2
    assert f"configuration error: cannot open lock file {lock}: [Errno 21]" in caplog.text
    assert lock.is_dir()
    assert not (mini["workdir"] / "taxonomy.json").exists()


def _meta_is_a_file(workdir, monkeypatch):
    (workdir / "meta").write_text("not a directory", encoding="utf-8")


def _lock_write_fails(workdir, monkeypatch):
    def no_space(*args):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(os, "ftruncate", no_space)


@pytest.mark.parametrize(
    "setup, code, message",
    [
        (_meta_is_a_file, 4, "data error: cannot create {workdir}/meta: [Errno 17]"),
        (_lock_write_fails, 2,
         "configuration error: cannot write lock file {workdir}/.lock: [Errno 28]"),
    ],
    ids=["meta-is-a-file", "lock-write-fails"],
)
def test_a_workdir_that_cannot_be_written_leaves_it_unchanged(
    mini, monkeypatch, caplog, setup, code, message
):
    workdir = mini["workdir"]
    workdir.mkdir()
    setup(workdir, monkeypatch)
    before, fds = _snapshot(workdir), len(os.listdir("/proc/self/fd"))
    assert main(["bootstrap", "--config", mini["config"]]) == code
    assert message.format(workdir=workdir) in caplog.text
    assert _snapshot(workdir) == before  # no output, no meta file, no .lock
    assert len(os.listdir("/proc/self/fd")) == fds  # the lock's fd is closed


def test_lock_left_by_a_killed_run_is_taken_over(mini, caplog):
    workdir = mini["workdir"]
    workdir.mkdir(parents=True, exist_ok=True)
    holder = subprocess.Popen(
        [
            sys.executable,
            "-c",
            "import fcntl, os, sys, time\n"
            "fd = os.open(sys.argv[1], os.O_CREAT | os.O_WRONLY)\n"
            "fcntl.flock(fd, fcntl.LOCK_EX)\n"
            "os.write(fd, str(os.getpid()).encode())\n"
            "print('held', flush=True)\n"
            "time.sleep(60)\n",
            str(workdir / ".lock"),
        ],
        stdout=subprocess.PIPE,
        text=True,
    )
    try:
        assert holder.stdout.readline() == "held\n"
        assert main(["bootstrap", "--config", mini["config"]]) == 2
        assert "locked" in caplog.text
    finally:
        holder.kill()
        holder.wait(timeout=10)
        holder.stdout.close()
    assert (workdir / ".lock").read_text(encoding="ascii") == str(holder.pid)
    assert main(["bootstrap", "--config", mini["config"]]) == 0
    assert not (workdir / ".lock").exists()


def test_lock_retries_when_its_file_is_unlinked_under_it(mini, monkeypatch):
    # The previous holder unlinks the file just before releasing it; the lock
    # then won belongs to a file no longer at the path, so take the new one.
    lock_path = mini["workdir"] / ".lock"
    real_flock = fcntl.flock
    calls = []

    def flock_after_unlink(fd, op):
        calls.append(os.fstat(fd).st_ino)
        if len(calls) == 1:
            os.unlink(lock_path)
        return real_flock(fd, op)

    monkeypatch.setattr(fcntl, "flock", flock_after_unlink)
    assert main(["bootstrap", "--config", mini["config"]]) == 0
    assert len(calls) == 2
    assert not lock_path.exists()


def test_lock_is_released_after_a_run(mini):
    assert main(["bootstrap", "--config", mini["config"]]) == 0
    assert not (mini["workdir"] / ".lock").exists()
    # A second command can take the lock again (and hits the overwrite
    # refusal, not the lock).
    assert main(["bootstrap", "--config", mini["config"], "--force"]) == 0


def test_rerun_without_force_refuses_and_exits_2(mini, caplog):
    assert main(["bootstrap", "--config", mini["config"]]) == 0
    assert main(["bootstrap", "--config", mini["config"]]) == 2
    assert "--force" in caplog.text
    assert main(["bootstrap", "--config", mini["config"], "--force"]) == 0


def test_a_refused_pipeline_runs_no_stage_and_names_every_existing_output(mini, caplog):
    assert main(["pipeline", "--config", mini["config"]]) == 0
    workdir = mini["workdir"]
    for name in ("taxonomy.json", "labels.jsonl", "audit.json"):
        (workdir / name).unlink()
    before = _files(workdir)
    assert main(["pipeline", "--config", mini["config"]]) == 2
    assert _files(workdir) == before
    refusal = next(r.getMessage() for r in caplog.records if "refusing" in r.getMessage())
    later = ["checkpoint.json", "predictions.jsonl", "mlc_metrics.json",
             "generated-image_and_label-pred.jsonl", "metrics.json"]
    assert refusal.count(str(workdir)) == len(later)
    assert all(str(workdir / name) in refusal for name in later)


def test_a_failed_predict_leaves_no_partial_artifact(mini):
    assert main(["bootstrap", "--config", mini["config"]]) == 0
    assert main(["train", "--config", mini["config"]]) == 0
    full = _mini_features(_mini_records())
    keep = [i for i, rid in enumerate(full.row_ids) if rid != "s2"]  # the last test id
    partial = mini["tmp"] / "partial.ffmx"
    save_features(
        FeatureMatrix(values=full.values[keep], row_ids=tuple(full.row_ids[i] for i in keep)),
        partial,
    )
    predict = ["predict", "--config", mini["config"]]
    assert main(predict + ["--set", f"paths.features={partial}"]) == 4
    assert not (mini["workdir"] / "predictions.jsonl").exists()
    assert not (mini["workdir"] / "mlc_metrics.json").exists()
    assert main(predict) == 0


def _files(workdir: Path) -> dict:
    return {p.relative_to(workdir): p.read_bytes() for p in workdir.rglob("*") if p.is_file()}


@pytest.mark.parametrize("failing", ["replace", "fsync"])
@pytest.mark.parametrize("stage", ["bootstrap", "train", "predict", "generate", "evaluate"])
def test_a_write_that_fails_leaves_the_previous_artifacts(
    mini, monkeypatch, caplog, stage, failing
):
    assert main(["pipeline", "--config", mini["config"]]) == 0
    before = _files(mini["workdir"])

    def no_space(*args):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(os, failing, no_space)
    assert main([stage, "--config", mini["config"], "--force"]) == 4
    assert re.search(r"data error: cannot write \S+: \[Errno 28\] No space", caplog.text)
    assert _files(mini["workdir"]) == before  # no .tmp file left either


@pytest.mark.parametrize(
    "stage, module, last_call",
    [
        ("bootstrap", bootstrap, "audit_taxonomy"),
        ("train", classifier, "checkpoint_to_json"),
        ("predict", classifier, "evaluate_mlc"),
        ("generate", guidance, "run_generation"),
        ("evaluate", metrics, "evaluate_generation"),
    ],
)
def test_a_stage_that_fails_after_its_library_work_writes_nothing(
    mini, monkeypatch, caplog, stage, module, last_call
):
    names = [s.name for s in STAGES]
    for earlier in names[: names.index(stage)]:
        assert main([earlier, "--config", mini["config"]]) == 0, earlier
    before = _files(mini["workdir"])

    def fail(*args, **kwargs):
        raise DataError("injected failure")

    monkeypatch.setattr(module, last_call, fail)
    assert main([stage, "--config", mini["config"]]) == 4
    assert "injected failure" in caplog.text
    assert _files(mini["workdir"]) == before  # no output, no meta file


def _accessor(config, corpus):
    """A memoised `read` over `cli._read`, standing in for the one that
    `run_stage` hands each run."""
    read = functools.cache(lambda name: cli._read(name, config, corpus, read))
    return read


@pytest.mark.parametrize("ablation", [False, True])
def test_each_stage_returns_exactly_the_outputs_it_declares(mini, ablation):
    assert main(["pipeline", "--config", mini["config"]]) == 0
    config = load_config(mini["config"], [])
    corpus = load_manifest(config.paths.manifest)
    for stage in STAGES:
        outputs = stage.run(config, corpus, ablation, _accessor(config, corpus))
        assert sorted(outputs) == sorted(stage.outputs(config, ablation)), stage.name
        assert all(isinstance(text, str) for text in outputs.values()), stage.name


def test_artifacts_get_mode_0666_less_the_umask(mini):
    umask = os.umask(0o027)
    try:
        assert main(["pipeline", "--config", mini["config"]]) == 0
    finally:
        os.umask(umask)
    modes = {p.name: p.stat().st_mode & 0o777 for p in mini["workdir"].rglob("*") if p.is_file()}
    assert len(modes) == 13 and set(modes.values()) == {0o640}, modes  # 8 artifacts, 5 meta


def test_tampered_taxonomy_fails_predict_with_4(mini):
    assert main(["bootstrap", "--config", mini["config"]]) == 0
    assert main(["train", "--config", mini["config"]]) == 0
    tax_path = mini["workdir"] / "taxonomy.json"
    doc = json.loads(tax_path.read_text(encoding="utf-8"))
    doc["labels"][0]["name"] = "Renamed finding"
    tax_path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    assert main(["predict", "--config", mini["config"]]) == 4


def _edit_json(name, edit):
    def tamper(workdir):
        path = workdir / name
        doc = json.loads(path.read_text(encoding="utf-8"))
        edit(doc)
        path.write_text(json.dumps(doc), encoding="utf-8")
    return tamper


def _replace_file(name, data):
    def tamper(workdir):
        path = workdir / name
        path.write_bytes(data if isinstance(data, bytes) else data.encode("utf-8"))
    return tamper


def _make_directory(name):
    def tamper(workdir):
        (workdir / name).unlink()
        (workdir / name).mkdir()
    return tamper


def _append_line(name, line):
    def tamper(workdir):
        with open(workdir / name, "a", encoding="utf-8") as fh:
            fh.write(line + "\n")
    return tamper


def _edit_rows(name, edit):
    def tamper(workdir):
        path = workdir / name
        rows = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
        edit(rows)
        path.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")
    return tamper


def _resize_checkpoint(delta):
    """Give the checkpoint `delta` more (or fewer) labels than its taxonomy,
    keeping its arrays consistent with the new k."""
    def edit(doc):
        d = doc["d"]
        doc["k"] += delta
        if delta > 0:
            doc["weights"] += [0.0] * (d * delta)
            doc["bias"] += [0.0] * delta
            doc["frequencies"] += [0.5] * delta
        else:
            doc["weights"] = doc["weights"][: d * delta]
            doc["bias"] = doc["bias"][:delta]
            doc["frequencies"] = doc["frequencies"][:delta]
    return _edit_json("checkpoint.json", edit)


def _drop_feature_row(record_id):
    def tamper(workdir):
        path = workdir / "../data/features.ffmx"
        full = load_features(path)
        keep = [i for i, rid in enumerate(full.row_ids) if rid != record_id]
        rows = FeatureMatrix(values=full.values[keep], row_ids=[full.row_ids[i] for i in keep])
        save_features(rows, path)
    return tamper


def _together(*tampers):
    def tamper(workdir):
        for each in tampers:
            each(workdir)
    return tamper


def _remove(name):
    def tamper(workdir):
        (workdir / name).unlink()
    return tamper


def _bad_feature_magic(workdir):
    path = workdir / "../data/features.ffmx"
    path.write_bytes(b"BAD!" + path.read_bytes()[4:])


def _zero_width_features(workdir):
    path = workdir / "../data/features.ffmx"
    rows, _ = struct.unpack_from("<II", path.read_bytes(), 4)
    path.write_bytes(FEATURE_MAGIC + struct.pack("<II", rows, 0))


@pytest.mark.parametrize(
    "tamper, command, message",
    [
        (_edit_json("checkpoint.json", lambda d: d["weights"].__setitem__(0, float("nan"))),
         "predict", "non-finite"),
        (_edit_json("checkpoint.json", lambda d: d.pop("k")), "predict", "missing k"),
        (_edit_json("checkpoint.json", lambda d: d.__setitem__("tau", "1")),
         "predict", "checkpoint.json: tau must be a finite number, got '1'"),
        (_append_line("labels.jsonl", '["t1"]'), "train", "labels.jsonl line 13"),
        (_append_line("labels.jsonl", '{"id": "t1", "positives": ["x"]}'),
         "train", "labels.jsonl line 13"),
        (_append_line("generated-image_and_label-pred.jsonl", "[1, 2]"),
         "evaluate", "generated-image_and_label-pred.jsonl line 3"),
        (_edit_rows("generated-image_and_label-pred.jsonl", lambda rows: rows[1].pop("report")),
         "evaluate", "generated-image_and_label-pred.jsonl line 2: report must be a string"),
        (_edit_rows("generated-image_and_label-pred.jsonl",
                    lambda rows: rows[0].__setitem__("report", None)),
         "evaluate", "generated-image_and_label-pred.jsonl line 1: report must be a string"),
        (_edit_rows("generated-image_and_label-pred.jsonl",
                    lambda rows: rows[1].__setitem__("report", 12345)),
         "evaluate", "generated-image_and_label-pred.jsonl line 2: report must be a string"),
        (_edit_rows("generated-image_and_label-pred.jsonl", lambda rows: rows.append(rows[0])),
         "evaluate",
         "generated-image_and_label-pred.jsonl line 3: record id 's1' is already on line 1"),
        (_replace_file("taxonomy.json", "[]"), "train", "taxonomy.json: not a JSON object"),
        (_edit_json("taxonomy.json", lambda d: d.__setitem__("labels", {})),
         "train", "taxonomy.json: labels must be a list"),
        (_edit_json("taxonomy.json", lambda d: d["labels"].__setitem__(1, "x")),
         "train", "taxonomy.json label 1: not a JSON object"),
        (_edit_json("taxonomy.json", lambda d: d["labels"][0].pop("index")),
         "train", "label 0: index must be an integer"),
        (_edit_json("taxonomy.json", lambda d: d["labels"][0].__setitem__("index", "0")),
         "predict", "label 0: index must be an integer"),
        (_edit_json("taxonomy.json", lambda d: d["labels"][0].__setitem__("name", 7)),
         "train", "label 0: name must be a string"),
        (_append_line("../data/manifest.jsonl",
                      '{"id": "x1", "split": "train", "report": "x", "images": ["p.png"]}'),
         "train", "manifest line 13: every images entry must be a JSON object"),
        (_append_line("../data/manifest.jsonl",
                      '{"id": "x1", "split": "train", "report": "x", "images": "p.png"}'),
         "train", "data error: manifest line 13: images must be an array"),
        (_replace_file("taxonomy.json", b"\xff\xfe{"), "train", "taxonomy.json: not UTF-8 text"),
        (_make_directory("taxonomy.json"), "train", "taxonomy.json: [Errno 21] Is a directory"),
        (_replace_file("labels.jsonl", b"\xff\xfe{"), "train", "labels.jsonl: not UTF-8 text"),
        (_make_directory("labels.jsonl"), "train", "labels.jsonl: [Errno 21] Is a directory"),
        (_replace_file("checkpoint.json", b"\xff\xfe{"), "predict",
         "checkpoint.json: not UTF-8 text"),
        (_make_directory("checkpoint.json"), "predict",
         "checkpoint.json: [Errno 21] Is a directory"),
        (_replace_file("generated-image_and_label-pred.jsonl", b"\xff\xfe{"), "evaluate",
         "generated-image_and_label-pred.jsonl: not UTF-8 text"),
        (_make_directory("generated-image_and_label-pred.jsonl"), "evaluate",
         "generated-image_and_label-pred.jsonl: [Errno 21] Is a directory"),
        (_replace_file("../data/manifest.jsonl", b"\xff\xfe{"), "train",
         "data error: cannot read manifest: not UTF-8 text"),
        (_make_directory("../data/manifest.jsonl"), "train",
         "data error: cannot read manifest: [Errno 21] Is a directory"),
        (_replace_file("../data/features.ffmx", b"\xff\xfe{"), "train",
         "features.ffmx; expected b'FFMX'"),
        (_make_directory("../data/features.ffmx"), "train",
         "features.ffmx: [Errno 21] Is a directory"),
        (_zero_width_features, "train", "features.ffmx has 0 columns per row"),
        (_replace_file("../data/features.ffmx.ids", b"\xff\xfe{"), "train",
         "features.ffmx.ids: not UTF-8 text"),
        (_make_directory("../data/features.ffmx.ids"), "train",
         "features.ffmx.ids: [Errno 21] Is a directory"),
        (_drop_feature_row("s2"), "predict", "record 's2' has no feature row"),
        (_drop_feature_row("s2"), "generate", "record 's2' has no feature row"),
        *[
            (_resize_checkpoint(delta), command,
             f"checkpoint.json has k={2 + delta} but the taxonomy in the workdir has 2 labels")
            for delta in (1, -1)
            for command in ("predict", "generate")
        ],
        (_replace_file("taxonomy.json", b""), "train", "taxonomy.json is not valid JSON"),
        (_replace_file("labels.jsonl", b""), "train", "labels.jsonl has no rows"),
        (_replace_file("labels.jsonl", b""), "predict", "labels.jsonl has no rows"),
        (_replace_file("checkpoint.json", b""), "predict", "checkpoint.json is not valid JSON"),
        (_replace_file("generated-image_and_label-pred.jsonl", b""), "evaluate",
         "generated-image_and_label-pred.jsonl has no rows"),
        (_replace_file("../data/manifest.jsonl", b""), "train",
         "manifest.jsonl has no records"),
        (_replace_file("../data/features.ffmx", b""), "train",
         "features.ffmx; expected b'FFMX'"),
        (_replace_file("../data/features.ffmx.ids", b""), "train",
         "features.ffmx.ids lists 0 ids"),
        (_append_line("labels.jsonl", '{"id": "t1", "positives": [0]}'), "train",
         "labels.jsonl line 13: record id 't1' is already on line 1"),
        (_edit_rows("generated-image_and_label-pred.jsonl",
                    lambda rows: rows[1].__setitem__("id", "zzz")),
         "evaluate", "generated-image_and_label-pred.jsonl line 2: unknown record id 'zzz'"),
        (_edit_rows("generated-image_and_label-pred.jsonl",
                    lambda rows: rows[1].__setitem__("id", "t1")),
         "evaluate",
         "generated-image_and_label-pred.jsonl line 2: "
         "record 't1' is in split 'train', not 'test'"),
        (_edit_rows("generated-image_and_label-pred.jsonl", lambda rows: rows.pop(0)),
         "evaluate",
         "generated-image_and_label-pred.jsonl lacks 1 of the 2 records "
         "of split 'test', first 's1'"),
        (_edit_json("taxonomy.json", lambda d: d.__setitem__("params", {"b": None, "theta": "x"})),
         "train", "taxonomy.json: params.b must be an integer, got None"),
        (_edit_json("taxonomy.json", lambda d: d["params"].__setitem__("theta", -1)),
         "predict", "taxonomy.json: params.theta must be >= 0, got -1"),
        (_edit_json("taxonomy.json", lambda d: d["params"].__setitem__("zz", 1)),
         "train", "taxonomy.json: params.zz is not a field of BootstrapConfig"),
        (_edit_json("taxonomy.json", lambda d: d.__setitem__("merge_rounds", -3)),
         "train", "taxonomy.json: merge_rounds must be an integer >= 0"),
        (_edit_json("taxonomy.json", lambda d: d.pop("merge_rounds")),
         "predict", "taxonomy.json: merge_rounds must be an integer >= 0"),
        (_edit_json("checkpoint.json", lambda d: d.__setitem__("tau", -5)),
         "predict", "checkpoint.json: tau must be >= 0, got -5.0"),
        (_edit_rows("labels.jsonl", lambda rows: rows[2].__setitem__("id", 7)),
         "train", "labels.jsonl line 3: id must be a string, got 7"),
        (_edit_rows("generated-image_and_label-pred.jsonl",
                    lambda rows: rows[1].__setitem__("id", True)),
         "evaluate", "generated-image_and_label-pred.jsonl line 2: id must be a string, got True"),
        (_edit_rows("labels.jsonl", lambda rows: rows[2].pop("positives")),
         "train", "labels.jsonl line 3: positives must be a list of integers"),
        (_edit_rows("labels.jsonl", lambda rows: rows[2].__setitem__("positives", [99])),
         "train", "labels.jsonl line 3: record 't3' has label index 99 outside 0..1"),
        (_edit_rows("labels.jsonl", lambda rows: rows[2].__setitem__("positives", [1, 0])),
         "train", "labels.jsonl line 3: record 't3' has unsorted or duplicate positives"),
        (_edit_rows("labels.jsonl", lambda rows: rows.__setitem__(
            slice(None), [row for row in rows if not row["id"].startswith("t")])),
         "train", "data error: dataset has no training items"),
        (_append_line("../data/manifest.jsonl",
                      '{"id": 7, "split": "train", "report": "x", "images": []}'),
         "train", "manifest line 13: id must be a string, got 7"),
        (_append_line("../data/manifest.jsonl",
                      '{"id": "x1", "split": "train", "report": 5, "images": []}'),
         "train", "manifest line 13: record 'x1': report must be a string, got 5"),
        (_append_line("../data/manifest.jsonl",
                      '{"id": "x1", "split": "train", "report": "x", "images": [{"path": null}]}'),
         "generate", "manifest line 13: image path must be a string, got None"),
        (_append_line("../data/manifest.jsonl", '{"id": "x1", "split": "train", "report": "x", '
                      '"images": [{"path": "p.png", "modality": 3}]}'),
         "train", "manifest line 13: image modality must be a string, got 3"),
        (_edit_rows("generated-image_and_label-pred.jsonl", lambda rows: [
            row.update(mode="label_only", label_source="gt") for row in rows]),
         "evaluate", "generated-image_and_label-pred.jsonl line 1: mode and label_source are "
         "'label_only' and 'gt', not 'image_and_label' and 'pred'"),
        (_edit_rows("generated-image_and_label-pred.jsonl",
                    lambda rows: rows[1].__setitem__("label_source", None)),
         "evaluate", "generated-image_and_label-pred.jsonl line 2: mode and label_source are "
         "'image_and_label' and None"),
        (_edit_rows("generated-image_and_label-pred.jsonl", lambda rows: rows[1].pop("prompt")),
         "evaluate", "generated-image_and_label-pred.jsonl line 2: prompt must be a string"),
        (_edit_rows("generated-image_and_label-pred.jsonl",
                    lambda rows: rows[0].__setitem__("prompt", ["x"])),
         "evaluate", "generated-image_and_label-pred.jsonl line 1: prompt must be a string"),
        *[
            (_edit_rows("../data/manifest.jsonl", lambda rows: [
                row.update(split="val") for row in rows if row["split"] == "test"]),
             command, "manifest.jsonl has no records in split 'test'")
            for command in ("predict", "generate", "generate --ablation",
                            "generate --mode label_only --label-source gt")
        ],
        *[
            (_edit_rows("labels.jsonl",
                        lambda rows: rows.remove(next(r for r in rows if r["id"] == "s2"))),
             command, "data error: record 's2' of split 'test' has no gt label vector")
            for command in ("generate --mode label_only --label-source gt", "generate --ablation")
        ],
        # Precedence: the labels are checked before the checkpoint's contents,
        # and the feature file before the checkpoint is looked for.
        *[
            (_together(_edit_json("checkpoint.json", lambda d: d.pop("k")),
                       _edit_rows("labels.jsonl", lambda rows: rows[2].pop("positives"))),
             command, "labels.jsonl line 3")
            for command in ("predict", "generate", "generate --ablation")
        ],
        (_together(_remove("checkpoint.json"), _bad_feature_magic), "predict", "bad magic"),
    ],
)
def test_malformed_artifacts_exit_4(mini, caplog, tamper, command, message):
    assert main(["pipeline", "--config", mini["config"]]) == 0
    tamper(mini["workdir"])
    before = _snapshot(mini["workdir"])
    assert main([*command.split(), "--config", mini["config"], "--force"]) == 4
    assert message in caplog.text
    assert _snapshot(mini["workdir"]) == before  # the failed stage wrote nothing


def test_a_damaged_checkpoint_is_logged_as_a_data_error(mini, caplog):
    assert main(["pipeline", "--config", mini["config"]]) == 0
    _edit_json("checkpoint.json", lambda d: d.__setitem__("tau", -5))(mini["workdir"])
    assert main(["predict", "--config", mini["config"], "--force"]) == 4
    assert "data error: checkpoint " in caplog.text
    assert "tau must be >= 0, got -5.0" in caplog.text


def _snapshot(workdir):
    return {
        str(path.relative_to(workdir)): path.read_bytes() if path.is_file() else None
        for path in sorted(workdir.rglob("*"))
    }


@pytest.mark.parametrize(
    "tamper, message",
    [
        (_replace_file("config.json", b"\xff\xfe{"), "config.json: not UTF-8 text"),
        (_make_directory("config.json"), "config.json: [Errno 21] Is a directory"),
    ],
)
def test_an_unreadable_config_file_exits_2(mini, caplog, tamper, message):
    tamper(mini["tmp"])
    assert main(["bootstrap", "--config", mini["config"]]) == 2
    assert "configuration error: cannot read config file" in caplog.text
    assert message in caplog.text


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_divergent_training_exits_4(mini):
    # A huge (finite: infinity is a config error) learning rate saturates the
    # weights to +/-inf within the first single-record batches; the first
    # subsequent record whose feature pattern is not parallel to them
    # produces a NaN logit.
    assert main(["bootstrap", "--config", mini["config"]]) == 0
    code = main(
        ["train", "--config", mini["config"],
         "--set", "train.learning_rate=1e308", "--set", "train.batch_size=1"]
    )
    assert code == 4


# ---------------------------------------------------------------------------
# Stages and artifacts
# ---------------------------------------------------------------------------


def test_bootstrap_with_one_report_per_batch_exits_0(mini):
    # Normal studies extract to empty label sets, which merging must skip.
    assert main(["bootstrap", "--config", mini["config"], "--set", "bootstrap.b=1"]) == 0
    doc = json.loads((mini["workdir"] / "taxonomy.json").read_text(encoding="utf-8"))
    assert [e["name"] for e in doc["labels"]] == ["Pulmonary cavitation", "Pleural effusion"]
    assert doc["params"] == {"b": 1, "kappa": 200, "theta": 2}


def test_workdir_flag_redirects_artifacts(mini):
    other = mini["tmp"] / "elsewhere"
    assert main(["bootstrap", "--config", mini["config"], "--workdir", str(other)]) == 0
    assert (other / "taxonomy.json").exists()
    assert not (mini["workdir"] / "taxonomy.json").exists()


def test_a_dotted_flag_is_an_unrecognized_argument(mini, caplog):
    assert main(["bootstrap", "--config", mini["config"], "--bootstrap.theta=3"]) == 2
    assert "unrecognized argument '--bootstrap.theta=3'" in caplog.text
    assert not mini["workdir"].exists()


def test_pipeline_end_to_end_produces_every_artifact(mini):
    assert main(["pipeline", "--config", mini["config"]]) == 0
    workdir = mini["workdir"]
    for name in (
        "taxonomy.json",
        "labels.jsonl",
        "audit.json",
        "checkpoint.json",
        "predictions.jsonl",
        "mlc_metrics.json",
        "generated-image_and_label-pred.jsonl",
        "metrics.json",
    ):
        assert (workdir / name).exists(), name
    for stage in ("bootstrap", "train", "predict", "generate", "evaluate"):
        assert (workdir / "meta" / f"{stage}.json").exists()

    taxonomy = json.loads((workdir / "taxonomy.json").read_text(encoding="utf-8"))
    names = [e["name"] for e in taxonomy["labels"]]
    assert names == ["Pulmonary cavitation", "Pleural effusion"]

    mlc = json.loads((workdir / "mlc_metrics.json").read_text(encoding="utf-8"))
    assert mlc["macro_f1"] == 1.0
    assert mlc["micro_f1"] == 1.0

    predictions = [
        json.loads(line)
        for line in (workdir / "predictions.jsonl").read_text(encoding="utf-8").splitlines()
    ]
    assert [p["id"] for p in predictions] == ["s1", "s2"]
    assert predictions[0]["positives"] == [0]
    assert predictions[1]["positives"] == [1]

    metrics = json.loads((workdir / "metrics.json").read_text(encoding="utf-8"))
    assert metrics["config"]["mode"] == "image_and_label"
    assert metrics["corpus"]["entity_f1"] == 1.0
    assert len(metrics["per_sample"]) == 2


def test_predict_and_generate_load_the_manifest_once_and_predict_each_row_once(
    mini, monkeypatch
):
    assert main(["bootstrap", "--config", mini["config"]]) == 0
    assert main(["train", "--config", mini["config"]]) == 0
    calls = {"load_manifest": 0, "predict": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(cli, "load_manifest", counting("load_manifest", cli.load_manifest))
    monkeypatch.setattr(classifier, "predict", counting("predict", classifier.predict))
    test_rows = 2

    assert main(["predict", "--config", mini["config"]]) == 0
    assert calls == {"load_manifest": 1, "predict": test_rows}
    workdir = mini["workdir"]
    config = load_config(mini["config"], [])
    corpus = cli.load_manifest(config.paths.manifest)
    features = cli.load_features(config.paths.features, corpus)
    taxonomy = bootstrap.load_taxonomy(workdir / "taxonomy.json")
    dataset = bootstrap.load_labels(workdir / "labels.jsonl", corpus, taxonomy)
    params = classifier.load_checkpoint(workdir / "checkpoint.json", taxonomy)
    items = dataset.split_items("test")
    predicted = classifier.predict_records(params, features, [i.record_id for i in items], 0.5)
    fresh = classifier.evaluate_mlc(
        params.k, items, {rid: pred.positives for rid, pred in predicted.items()}
    )
    assert (workdir / "mlc_metrics.json").read_text(encoding="utf-8") == (
        json.dumps(fresh, indent=2) + "\n"
    )

    calls.update(load_manifest=0, predict=0)
    assert main(["generate", "--config", mini["config"], "--ablation"]) == 0
    assert calls == {"load_manifest": 1, "predict": test_rows}

    # `pipeline` hands one corpus to all five stages.
    calls.update(load_manifest=0, predict=0)
    assert main(["pipeline", "--config", mini["config"], "--force"]) == 0
    assert calls["load_manifest"] == 1


# Paths opened for reading, while a stage run records them. An audit hook
# cannot be removed, so the one `stage_reads` adds records only while this
# is a list.
_OPENED: list[str] | None = None


def _record_reads(event, args):
    if event == "open" and _OPENED is not None:
        path, _, flags = args
        if isinstance(path, (str, os.PathLike)) and not flags & (
            os.O_WRONLY | os.O_RDWR | os.O_DIRECTORY
        ):
            _OPENED.append(os.path.abspath(path))


@pytest.fixture(scope="module")
def stage_reads(synth_dir, tmp_path_factory):
    """Run every stage on the synthetic corpus: bootstrap, train, predict,
    generate and evaluate for each of the five cells, then generate
    --ablation. Returns, per run, the command, the names `cli._read` was
    called with, the paths of those names, and the workdir files and the
    feature file that the run opened for reading, in order."""
    global _OPENED
    workdir = tmp_path_factory.mktemp("reads") / "run"
    features = str(synth_dir / "features.ffmx")
    config = workdir.parent / "config.json"
    config.write_text(json.dumps({"paths": {
        "manifest": str(synth_dir / "manifest.jsonl"), "features": features,
        "workdir": str(workdir),
    }}), encoding="utf-8")
    commands = [["bootstrap"], ["train"], ["predict"]]
    for mode, source in guidance.ABLATION_MODES:
        cell = ["--mode", mode] + ([] if source == "none" else ["--label-source", source])
        commands += [["generate", *cell], ["evaluate", *cell]]
    commands.append(["generate", "--ablation"])

    def recording(keys):
        def read(name, *args):
            keys.append(name)
            return original(name, *args)
        return read

    original = cli._read
    sys.addaudithook(_record_reads)
    runs = []
    with pytest.MonkeyPatch.context() as patch:
        for command in commands:
            keys, _OPENED = [], []
            patch.setattr(cli, "_read", recording(keys))
            try:
                assert main([*command, "--config", str(config), "--force"]) == 0, command
            finally:
                opened, _OPENED = _OPENED, None
            paths = {features if key == "features" else str(workdir / key) for key in keys}
            opened = [path for path in opened
                      if path == features or Path(path).parent == workdir]
            runs.append((command, keys, paths, opened))
    return runs


def test_each_stage_opens_each_input_once_and_only_through_its_accessor(stage_reads):
    for command, keys, paths, opened in stage_reads:
        assert len(keys) == len(set(keys)), command  # each input is read once
        assert len(opened) == len(set(opened)), (command, opened)
        assert set(opened) == paths, command
        if command[0] == "generate":
            uses_pred = "--ablation" in command or command[-1] == "pred"
            carries_labels = "--ablation" in command or "--label-source" in command
            assert ("checkpoint.json" in keys) == uses_pred, command
            # An image_only cell reads no bootstrap output, nor anything else.
            assert ("taxonomy.json" in keys) == carries_labels, command
            assert ("labels.jsonl" in keys) == carries_labels, command
            assert bool(keys) == carries_labels, command
    assert [keys for command, keys, _, _ in stage_reads if command[0] == "bootstrap"] == [[]]


def test_meta_records_the_effective_config_fingerprint(mini):
    assert main(["bootstrap", "--config", mini["config"]]) == 0
    meta = json.loads(
        (mini["workdir"] / "meta" / "bootstrap.json").read_text(encoding="utf-8")
    )
    expected = config_fingerprint(load_config(mini["config"], []))
    assert meta["config_sha256"] == expected
    assert meta["command"] == "bootstrap"
    assert meta["gateway_backend"] == "mock"


def test_generate_ablation_writes_all_five_files(mini):
    assert main(["pipeline", "--config", mini["config"]]) == 0
    assert main(["generate", "--config", mini["config"], "--ablation", "--force"]) == 0
    names = [
        "generated-image_only.jsonl",
        "generated-label_only-pred.jsonl",
        "generated-image_and_label-pred.jsonl",
        "generated-label_only-gt.jsonl",
        "generated-image_and_label-gt.jsonl",
    ]
    counts = set()
    for name in names:
        path = mini["workdir"] / name
        assert path.exists(), name
        counts.add(len(path.read_text(encoding="utf-8").splitlines()))
    assert counts == {2}


def test_a_failing_ablation_cell_leaves_every_generated_file_unchanged(mini, caplog):
    assert main(["pipeline", "--config", mini["config"]]) == 0
    assert main(["generate", "--config", mini["config"], "--ablation", "--force"]) == 0
    before = _files(mini["workdir"])
    script = mini["tmp"] / "refuse_labels.py"
    script.write_text(
        "import json, sys\n"
        "prompt = json.loads(sys.stdin.readline())['prompt']\n"
        "if 'following findings' in prompt:\n"
        "    sys.exit('labels refused')\n"
        "print(json.dumps({'report': 'from the command generator'}))\n",
        encoding="utf-8",
    )
    command = f"{shlex.quote(sys.executable)} {shlex.quote(str(script))}"
    code = main([
        "generate", "--config", mini["config"], "--ablation", "--force",
        "--set", "guidance.generator.backend=command",
        "--set", f"guidance.generator.command={command}",
    ])
    assert code == 3
    assert "labels refused" in caplog.text
    after = _files(mini["workdir"])
    generated = sorted(name for name in before if name.name.startswith("generated-"))
    assert len(generated) == 5
    for name in generated:
        assert after[name] == before[name], name


def test_evaluate_scores_the_configured_mode(mini):
    assert main(["pipeline", "--config", mini["config"]]) == 0
    assert main(["generate", "--config", mini["config"], "--ablation", "--force"]) == 0
    assert main(
        ["evaluate", "--config", mini["config"], "--mode", "image_only", "--force"]
    ) == 0
    metrics = json.loads((mini["workdir"] / "metrics.json").read_text(encoding="utf-8"))
    assert metrics["config"]["mode"] == "image_only"
    assert metrics["config"]["label_source"] == "none"
    # Image-only prompts make the mock write the fixed no-findings report,
    # which shares no entities with the references.
    assert metrics["corpus"]["entity_f1"] == 0.0


def test_a_metric_out_of_range_is_a_data_error(mini, caplog, monkeypatch):
    assert main(["pipeline", "--config", mini["config"]]) == 0
    (mini["workdir"] / "metrics.json").unlink()
    monkeypatch.setattr(metrics, "rouge_l_sample", lambda candidate, reference: 1.5)
    with pytest.raises(DataError, match="metric rouge_l out of range: 1.5"):
        metrics.evaluate_generation([("r1", "a cavity", "a cavity")], enabled=("rouge_l",))
    assert main(["evaluate", "--config", mini["config"]]) == 4
    assert "data error: metric rouge_l out of range: 1.5" in caplog.text
    assert not (mini["workdir"] / "metrics.json").exists()


def test_stagewise_run_matches_pipeline_artifacts(mini, tmp_path):
    assert main(["pipeline", "--config", mini["config"]]) == 0

    other = tmp_path / "stagewise"
    args = ["--config", mini["config"], "--workdir", str(other)]
    for stage in ("bootstrap", "train", "predict", "generate", "evaluate"):
        assert main([stage, *args]) == 0, stage

    for name in (
        "taxonomy.json",
        "labels.jsonl",
        "checkpoint.json",
        "predictions.jsonl",
        "generated-image_and_label-pred.jsonl",
        "metrics.json",
    ):
        assert (other / name).read_bytes() == (mini["workdir"] / name).read_bytes(), name


# ---------------------------------------------------------------------------
# The cyclic collector around a command
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("malformed", [False, True], ids=["exit-0", "exit-4"])
@pytest.mark.parametrize("caller_froze", [False, True], ids=["fresh", "caller-froze"])
def test_main_leaves_the_collector_as_it_found_it(mini, monkeypatch, malformed, caller_froze):
    """The stage runs with the collector on and the corpus frozen; after
    the command, on success or a data error, the collector is enabled or
    not and holds the frozen objects it held before, and no more."""
    if malformed:
        manifest = mini["tmp"] / "data" / "manifest.jsonl"
        manifest.write_text(manifest.read_text(encoding="utf-8") + "{not json\n", encoding="utf-8")
    seen = []
    original = bootstrap.bootstrap_dataset

    def recording(*args, **kwargs):
        seen.append((gc.isenabled(), gc.get_freeze_count() > 0))
        return original(*args, **kwargs)

    monkeypatch.setattr(bootstrap, "bootstrap_dataset", recording)
    try:
        if caller_froze:
            gc.disable()
            gc.freeze()
        before = (gc.isenabled(), gc.get_freeze_count())
        code = main(["bootstrap", "--config", mini["config"]])
        after = (gc.isenabled(), gc.get_freeze_count())
    finally:
        gc.unfreeze()
        gc.enable()
    assert code == (4 if malformed else 0)
    assert after == before
    if malformed:
        assert seen == []
    else:
        assert seen == [(not caller_froze, True)]
