"""Golden artifact digests for the synthetic corpus, and call counts of the
steps the pipeline must not repeat per record or per batch.

The digests pin the bytes the pipeline writes: `pipeline`, then `generate
--ablation` and `evaluate` of every ablation cell, on the bundled synthetic
corpus with the default config. A change that alters any of these files,
however slightly, fails here; one that means to must update the digests and
say why.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import reportguide
from reportguide import classifier as classifier_mod
from reportguide import gateway as gateway_mod
from reportguide.bootstrap import bootstrap_dataset
from reportguide.classifier import train
from reportguide.cli import main
from reportguide.guidance import ABLATION_MODES, generated_filename
from reportguide.schema import BootstrapConfig, TrainConfig

# Each metrics.json echoes its cell, split and metrics, and no threshold:
# predict alone applies one.
GOLDEN_SHA256 = {
    "taxonomy.json": "a152bb338167c64cfdf3baaf5e72c43aafac821776405217a053a86313dcce2b",
    "labels.jsonl": "ade7690db0242820f6fab00c74b0b2dbe05fa8e726fb1d87ec25c66f40c877d6",
    "generated-image_only.jsonl": "0078c26a72818eb164b9e486e4fbc5fb9f23c6cad4f72ebb85686011cc184430",
    "generated-label_only-pred.jsonl": "ae229f7a290c11c2b0c69cbd2583b0e524ff998f3ac443ebc923a935596e4597",
    "generated-image_and_label-pred.jsonl": "85002aedb51cab739c67d2404010425ec4af4f102c710acac1b0f28076991a4a",
    "generated-label_only-gt.jsonl": "16fea12f31b746eaefe544d0757fcb9dd56de653e4b77fc11f468ff54b3798c2",
    "generated-image_and_label-gt.jsonl": "2a68f1e24547ffe7d7e843be992864f006b10a117083cae151df0f23ee20a938",
    "metrics.json image_only": "707e9764e6fc183c981cd99274221e9c4e70d2ddc2f19a5ba05e0be8ea690bb4",
    "metrics.json label_only-pred": "2087be5067c2ad22aa4df0ea39da4c71b7bf8f7f32ea2d89f373514e9caa30ee",
    "metrics.json image_and_label-pred": "425654409cc2746d8e67d20c4193197b1185661503f8d4601499d2ab5f05c3d4",
    "metrics.json label_only-gt": "bc050f32d02fedde0b654f21dd6503f58f7f633d03d8b38fc2eec7e406a70844",
    "metrics.json image_and_label-gt": "2a9a3739b11540c4d77a757214336f2dff454674fc276c213395ebea3c65b312",
}


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _synth_config(synth_dir, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(
        json.dumps(
            {
                "paths": {
                    "manifest": str(synth_dir / "manifest.jsonl"),
                    "features": str(synth_dir / "features.ffmx"),
                    "workdir": str(tmp_path / "run"),
                }
            }
        ),
        encoding="utf-8",
    )
    return config


def test_ablation_artifacts_match_the_golden_digests(synth_dir, tmp_path):
    workdir = tmp_path / "run"
    config = _synth_config(synth_dir, tmp_path)
    assert main(["pipeline", "--config", str(config)]) == 0
    assert main(["generate", "--config", str(config), "--ablation", "--force"]) == 0
    digests = {name: _sha256(workdir / name) for name in ("taxonomy.json", "labels.jsonl")}
    for mode, source in ABLATION_MODES:
        name = generated_filename(mode, source)
        digests[name] = _sha256(workdir / name)
        args = ["evaluate", "--config", str(config), "--force", "--mode", mode]
        if source != "none":
            args += ["--label-source", source]
        assert main(args) == 0
        digests[f"metrics.json {name[len('generated-'):-len('.jsonl')]}"] = _sha256(
            workdir / "metrics.json"
        )
    assert digests == GOLDEN_SHA256


# The artifacts that the stages without numpy write: `bootstrap`, then the
# generate and evaluate cells that read no predictions.
_NUMPY_FREE = {name: digest for name, digest in GOLDEN_SHA256.items() if "pred" not in name}

# Run by another interpreter: argv is a config, whose workdir holds the
# manifest snapshot and the twins of labels.jsonl and of each cell that the
# running interpreter wrote, and the expected digests, whose names say which
# cells to run. The cells run twice. First each is evaluated, reading the
# running interpreter's twin of its generated file, then generated, reading
# its labels twin. Then, once bootstrap has run again, each is generated and
# evaluated with every twin deleted before each command, so that the JSONL
# readers decode and check labels.jsonl and the generated file. It exits
# non-zero if a command fails, else prints, for each pass, each artifact's
# digest and each command's `checked`, and whether numpy was imported,
# whether the snapshot was kept (read, not written again), the sha256 of
# each twin it wrote itself and of the snapshot it writes itself in a fresh
# workdir.
_OTHER_INTERPRETER_RUN = """
import hashlib, json, sys
from pathlib import Path
from reportguide.cli import main

config, expected = Path(sys.argv[1]), json.loads(sys.argv[2])
run_dir = Path(json.loads(config.read_text(encoding="utf-8"))["paths"]["workdir"])
snapshot = Path("meta") / "manifest.snapshot"
written = (run_dir / snapshot).stat().st_ino

def run(*args):
    if main([*args, "--config", str(config), "--force"]) != 0:
        sys.exit(f"{' '.join(args)} failed")
    meta = run_dir / "meta" / f"{args[0]}.json"
    return json.loads(meta.read_text(encoding="utf-8"))["checked"]

sha256 = lambda path: hashlib.sha256(path.read_bytes()).hexdigest()

def cells(twins):
    digests, checked = {}, []
    for name in expected:
        if name.startswith("generated-"):
            tag = name[len("generated-"):-len(".jsonl")]
            mode, _, source = tag.partition("-")
            cell = ["--mode", mode] + (["--label-source", source] if source else [])
            for command in ("evaluate", "generate") if twins else ("generate", "evaluate"):
                if not twins:
                    for twin in (run_dir / "meta").glob("*.twin"):
                        twin.unlink()
                checked.append(run(command, *cell))
            digests[name] = sha256(run_dir / name)
            digests["metrics.json " + tag] = sha256(run_dir / "metrics.json")
    return digests, checked

passes = {"twin": cells(True)}
kept = (run_dir / snapshot).stat().st_ino == written
run("bootstrap")
labels = {name: sha256(run_dir / name) for name in ("taxonomy.json", "labels.jsonl")}
twins = {path.name: sha256(path) for path in sorted((run_dir / "meta").glob("*.twin"))}
passes["jsonl"] = cells(False)
fresh = run_dir.parent / "fresh"
run("bootstrap", "--workdir", str(fresh))
print(json.dumps({**{kind: {"digests": {**labels, **digests}, "checked": checked}
                    for kind, (digests, checked) in passes.items()},
                  "numpy": "numpy" in sys.modules, "snapshot_kept": kept,
                  "twins_sha256": twins, "snapshot_sha256": sha256(fresh / snapshot)}))
"""


# Written so that any Python, 2.7 included, runs it.
_PROBE = (
    "import os, sys; sys.stdout.write('%d %d %s %s' % (sys.version_info[0], "
    "sys.version_info[1], sys.version.split()[0], os.path.realpath(sys.executable)))"
)


def _other_interpreters() -> dict[str, str]:
    """Version to path of each Python >= 3.10 under $PYENV_ROOT/versions that
    runs and is not the running interpreter. A pyenv shim may not run, so
    each candidate is asked for its own version and executable."""
    root = Path(os.environ.get("PYENV_ROOT") or Path.home() / ".pyenv") / "versions"
    running = os.path.realpath(sys.executable)
    found = {}
    for candidate in sorted(root.glob("*/bin/python3")):
        try:
            probe = subprocess.run(
                [str(candidate), "-c", _PROBE], capture_output=True, text=True, timeout=10
            )
        except (OSError, subprocess.TimeoutExpired):
            continue
        fields = probe.stdout.split(" ", 3)
        if probe.returncode != 0 or len(fields) != 4:
            continue
        major, minor, version, executable = fields
        if (int(major), int(minor)) >= (3, 10) and executable != running:
            found[version] = str(candidate)
    return found


def test_numpy_free_golden_digests_hold_on_every_local_interpreter(synth_dir, tmp_path):
    interpreters = _other_interpreters()
    if not interpreters:
        pytest.skip("no Python >= 3.10 other than the running one under $PYENV_ROOT/versions")
    env = {**os.environ, "PYTHONPATH": str(Path(reportguide.__file__).parent.parent)}
    results = {}
    for version, python in interpreters.items():
        scratch = tmp_path / version
        scratch.mkdir()
        config = _synth_config(synth_dir, scratch)
        # The running interpreter writes the snapshot and twins that the
        # other one reads.
        assert main(["bootstrap", "--config", str(config)]) == 0
        for name in _NUMPY_FREE:
            if name.startswith("generated-"):
                mode, _, source = name[len("generated-"):-len(".jsonl")].partition("-")
                cell = ["--mode", mode] + (["--label-source", source] if source else [])
                assert main(["generate", *cell, "--config", str(config)]) == 0
        meta = scratch / "run" / "meta"
        snapshot = _sha256(meta / "manifest.snapshot")
        twins = {path.name: _sha256(path) for path in sorted(meta.glob("*.twin"))}
        assert len(twins) == 4  # labels.jsonl and three cells
        proc = subprocess.run(
            [python, "-c", _OTHER_INTERPRETER_RUN, str(config), json.dumps(_NUMPY_FREE)],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 0, f"Python {version}: {proc.stderr}"
        results[version] = json.loads(proc.stdout)
    cells = [name for name in _NUMPY_FREE if name.startswith("generated-")]
    # Without twins, generate decodes the labels of a cell that reads them,
    # and evaluate the generated file.
    decoded = [checked for name in cells
               for checked in (["labels.jsonl"] if "-gt" in name else [], [name])]
    expected = {"twin": {"digests": _NUMPY_FREE, "checked": [[]] * 2 * len(cells)},
                "jsonl": {"digests": _NUMPY_FREE, "checked": decoded},
                "numpy": False, "snapshot_kept": True, "twins_sha256": twins,
                "snapshot_sha256": snapshot}
    assert results == {version: expected for version in interpreters}


def _counting(monkeypatch, owner, attr) -> list:
    calls: list = []
    original = getattr(owner, attr)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, attr, wrapper)
    return calls


def test_training_computes_the_logit_shift_once(synth, mock_gateway, monkeypatch):
    dataset = bootstrap_dataset(synth.corpus, BootstrapConfig(), mock_gateway)
    adjust_calls = _counting(monkeypatch, classifier_mod, "adjust_logits")
    shift_calls = _counting(monkeypatch, classifier_mod, "_logit_shift")
    train(dataset, synth.features, TrainConfig(epochs=3, batch_size=8))
    assert len(adjust_calls) <= 1
    assert len(shift_calls) == 1


def test_bootstrap_calls_the_gateway_once_per_batch_merge_and_distinct_text(
    synth, mock_gateway, monkeypatch
):
    calls = _counting(monkeypatch, gateway_mod, "complete")
    config = BootstrapConfig(b=40)
    bootstrap_dataset(synth.corpus, config, mock_gateway)
    tasks = Counter(request.system.split("\n", 1)[0] for request, _ in calls)
    batches = -(-len(synth.corpus.split("train")) // config.b)
    distinct = len({r.report for r in synth.corpus.records})
    assert tasks["[task:extract]"] == batches
    assert tasks["[task:merge]"] >= 1
    assert len(calls) == batches + tasks["[task:merge]"] + distinct
