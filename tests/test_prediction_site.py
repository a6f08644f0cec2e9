"""Records are predicted in one place: `classifier.predict_records`, which
only the predict stage, `cli._predict`, calls, since generate renders the
labels predict wrote; n-grams are counted in one place:
`metrics._Text.grams`; JSONL rows are bound to manifest records in one
place: `corpus.read_record_rows`; and the manifest is loaded in one place:
`cli.main`, once per command. Each
artifact is checked by its one reader, so the driver in `cli.py` raises only
configuration, missing-prerequisite and artifact-write errors.

The guard parses each module of the package and fails on a call to
`predict` outside `predict_records`, on a call to `predict_records` outside
`cli._predict`, on a feature-row lookup outside `predict_records` and `train`,
which look rows up through `row_index`, on any import from `classifier`
in `guidance.py`, which writes reports from the labels it is handed, and on
a call to `ngram_counts` outside the per-text analysis, so that no metric
goes back to rebuilding the n-gram tables of a text for each pair. It also
fails on a record lookup through `Corpus.index()`, or a JSONL read, outside
`corpus.py`, so that no artifact reader resolves record ids its own way,
and on a `load_manifest` call outside `cli.main`, so that no stage reads the
manifest again, and on a call to an artifact reader, or to `load_features`,
anywhere in `cli.py` but `_read`, so that each stage input is read in one
place. It fails, too, on a `raise` in `cli.py` of anything but a new
`ConfigError` or `PrerequisiteError`, or a new `DataError` inside an
`except OSError` handler (an artifact that could not be written), and on
any use of `taxonomy_hash` there,
so that no artifact rule, such as the checkpoint's binding to its taxonomy,
moves back out of the artifact's reader. And it fails on a `GuidancePrompt`
built outside `guidance.serialize_labels`, so that ground-truth and
predicted labels are rendered by one function.
"""

from __future__ import annotations

import ast
from pathlib import Path

import reportguide

PACKAGE = Path(reportguide.__file__).parent


def _call_sites(name: str) -> set[tuple[str, str]]:
    """(module, enclosing function) of each call to `name` or `<x>.name`."""
    sites = set()

    def visit(module: str, node: ast.AST, scope: tuple[str, ...]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(module, child, scope + (child.name,))
                continue
            if isinstance(child, ast.Call):
                func = child.func
                called = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if called == name:
                    sites.add((module, ".".join(scope)))
            visit(module, child, scope)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(path.name, ast.parse(path.read_text(encoding="utf-8")), ())
    return sites


def test_only_predict_records_calls_predict():
    assert _call_sites("predict") == {("classifier.py", "predict_records")}


def test_only_the_predict_stage_predicts_records():
    assert _call_sites("predict_records") == {("cli.py", "_predict")}


def test_only_predict_records_and_train_look_up_feature_rows():
    assert _call_sites("row_index") == {
        ("classifier.py", "predict_records"),
        ("classifier.py", "train"),
    }
    assert _call_sites("row_for_id") == set()


def test_guidance_imports_nothing_from_classifier():
    tree = ast.parse((PACKAGE / "guidance.py").read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
            imported.update(f"{node.module or ''}.{alias.name}" for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    assert not any("classifier" in name.split(".") for name in imported), imported


def test_only_the_per_text_analysis_counts_ngrams():
    assert _call_sites("ngram_counts") == {("metrics.py", "_Text.grams")}


def test_only_corpus_looks_up_records_and_reads_jsonl():
    assert {module for module, _ in _call_sites("index")} == {"corpus.py"}
    assert _call_sites("read_jsonl") == {
        ("corpus.py", "load_manifest"),
        ("corpus.py", "read_record_rows"),
    }


def test_only_the_driver_loads_the_manifest():
    assert _call_sites("load_manifest") == {("cli.py", "main")}


def test_the_driver_reads_every_stage_input_in_one_place():
    readers = ("load_taxonomy", "load_labels", "load_checkpoint", "load_generated", "load_features")
    for reader in readers:
        sites = {scope for module, scope in _call_sites(reader) if module == "cli.py"}
        assert sites == {"_read"}, reader


def test_the_driver_raises_only_config_prerequisite_and_write_errors():
    raised = set()

    def visit(node: ast.AST, handler: str | None) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ExceptHandler):
                visit(child, ast.unparse(child.type) if child.type else None)
                continue
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                visit(child, None)
                continue
            if isinstance(child, ast.Raise):
                func = child.exc.func if isinstance(child.exc, ast.Call) else None
                name = func.id if isinstance(func, ast.Name) else ast.unparse(child)
                raised.add(f"{name} in except {handler}" if name == "DataError" else name)
            visit(child, handler)

    visit(ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8")), None)
    assert raised == {"ConfigError", "DataError in except OSError", "PrerequisiteError"}


def test_the_driver_leaves_the_checkpoint_binding_to_its_reader():
    tree = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    names = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    names |= {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert "taxonomy_hash" not in names


def test_only_serialize_labels_builds_a_guidance_prompt():
    assert _call_sites("GuidancePrompt") == {("guidance.py", "serialize_labels")}
