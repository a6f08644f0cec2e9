"""Each stage process imports only the code it runs.

numpy is loaded by `classifier` and `synthetic` alone, and `cli` imports
those two inside the functions that run them, so `bootstrap`, `generate`
and `evaluate` start without numpy, and without `classifier`: generate
renders the labels that predict wrote. `cli` imports `bootstrap` the same way, and `guidance`
names its `LabelTaxonomy` for type checking only and imports `subprocess`
where it spawns a generator, so an `evaluate` process loads no bootstrap
code, no `difflib` and no `subprocess`. `fileio` names its temp files from
`os.urandom`, not `secrets`, and `gateway` imports `concurrent.futures`
where it starts http threads, so a mock `bootstrap` or `evaluate` loads
neither. `cli` imports `metrics`, the scorer, inside `_evaluate`, so only an
`evaluate` process loads it. The subprocess test checks that in a fresh interpreter, because
this test session has loaded all of them already. The guard parses each module of the package and fails, naming the
file and line, on an import that runs when a module is imported (one
outside every function and every `if TYPE_CHECKING:` block) and would undo
that: an import of numpy outside `classifier.py` and `synthetic.py`, an
import of `classifier` or `synthetic` in `cli.py`, or an import of
`bootstrap` in `cli.py` or `guidance.py`. Another guard fails on any import
of `cli`, wherever it stands, in a module but `__main__.py`: library code
takes its config sections from `schema`, and a fresh interpreter that runs
README's "Library use" imports loads no `cli`. A fresh-interpreter test
checks that an `evaluate` over ASCII text compiles no pattern holding the
CJK class, which takes milliseconds to compile.

No module imports `dataclasses`: the config sections, records and result
types are plain classes or `NamedTuple`s, so a stage process neither loads
`dataclasses` (with `inspect`, `ast` and `dis`) nor compiles the code each
decoration generates. A guard fails on any such import, and a
fresh-interpreter test runs the five stages and `import reportguide.gateway`,
which the benchmark's stub server does, and finds no `dataclasses` loaded,
and no `reportguide.corpus` after the gateway import.
"""

from __future__ import annotations

import ast
import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import reportguide
from reportguide.cli import main

PACKAGE = Path(reportguide.__file__).parent
_SRC = PACKAGE.parent

NUMPY_MODULES = {"classifier.py", "synthetic.py"}


def _imported(node: ast.AST) -> list[str]:
    """The module names an import statement names, relative ones with their
    leading dots; none for any other node."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom):
        prefix = "." * node.level
        if node.module:
            return [prefix + node.module]
        return [prefix + alias.name for alias in node.names]  # from . import name
    return []


def _import_time_imports(tree: ast.Module) -> list[tuple[int, str]]:
    """(line, module name) of each import that runs when the module is
    imported. Relative names keep their leading dots."""
    found: list[tuple[int, str]] = []

    def visit(nodes) -> None:
        for node in nodes:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            if isinstance(node, ast.If) and getattr(node.test, "id", None) == "TYPE_CHECKING":
                visit(node.orelse)
                continue
            found.extend((node.lineno, name) for name in _imported(node))
            visit(ast.iter_child_nodes(node))

    visit(tree.body)
    return found


def _package_imports() -> list[tuple[str, int, str]]:
    return [
        (path.name, line, name)
        for path in sorted(PACKAGE.glob("*.py"))
        for line, name in _import_time_imports(ast.parse(path.read_text(encoding="utf-8")))
    ]


def _package_module(name: str) -> str | None:
    """The package module a relative or `reportguide.` import names."""
    if name.startswith("."):
        return name.lstrip(".").split(".")[0]
    if name.startswith("reportguide."):
        return name.split(".")[1]
    return None


def test_only_classifier_and_synthetic_import_numpy_when_imported():
    imports = _package_imports()
    assert ("classifier.py", "numpy") in {(module, name) for module, _, name in imports}
    offenders = [
        f"{module}:{line} imports {name}"
        for module, line, name in imports
        if name.split(".")[0] == "numpy" and module not in NUMPY_MODULES
    ]
    assert offenders == []


def test_cli_imports_neither_classifier_nor_synthetic_when_imported():
    imports = _package_imports()
    assert ("cli.py", ".corpus") in {(module, name) for module, _, name in imports}
    offenders = [
        f"{module}:{line} imports {name}"
        for module, line, name in imports
        if module == "cli.py" and _package_module(name) in ("classifier", "synthetic")
    ]
    assert offenders == []


def test_neither_cli_nor_guidance_imports_bootstrap_when_imported():
    imports = _package_imports()
    # The walk does see guidance's module-level imports, and skips its
    # TYPE_CHECKING-only `from .bootstrap import LabelTaxonomy`.
    assert ("guidance.py", ".corpus") in {(module, name) for module, _, name in imports}
    offenders = [
        f"{module}:{line} imports {name}"
        for module, line, name in imports
        if module in ("cli.py", "guidance.py") and _package_module(name) == "bootstrap"
    ]
    assert offenders == []


def test_no_module_imports_dataclasses():
    """Not when it is imported, not inside a function and not for type
    checking."""
    found = [
        f"{path.name}:{node.lineno} imports {name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        for name in _imported(node)
        if name.split(".")[0] == "dataclasses"
    ]
    assert found == []


def test_only_main_imports_cli():
    """No library module imports `cli`: not when it is imported, not inside a
    function and not for type checking. The config sections live in
    `schema`."""
    found = [
        (path.name, node.lineno, name)
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        for name in _imported(node)
        if _package_module(name) == "cli"
    ]
    assert ("__main__.py", ".cli") in {(module, name) for module, _, name in found}
    offenders = [f"{module}:{line} imports {name}" for module, line, name in found
                 if module != "__main__.py"]
    assert offenders == []


def _library_use() -> str:
    """README's "Library use" section."""
    readme = (_SRC.parent / "README.md").read_text(encoding="utf-8")
    return readme.split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]


def _library_use_imports() -> list[str]:
    """The import lines of README's "Library use" example."""
    block = _library_use().split("```python\n", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line.startswith(("from ", "import "))]


def test_the_readme_library_use_names_only_what_the_package_holds():
    """The example's imports run, and each backticked call in the section's
    prose, such as `load_manifest(path)`, names an attribute of a package
    module or a method of one of its classes."""
    exec("\n".join(_library_use_imports()), {})
    held = set()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem != "__main__":  # running it runs the CLI
            attributes = vars(importlib.import_module(f"reportguide.{path.stem}"))
            held.update(attributes)
            held.update(name for value in attributes.values() if isinstance(value, type)
                        and value.__module__.startswith("reportguide.") for name in dir(value))
    called = set(re.findall(r"`(?:\w+\.)*(\w+)\(", _library_use()))
    assert "load_manifest" in called
    assert sorted(called - held) == []


def test_the_readme_library_imports_load_no_cli():
    imports = _library_use_imports()
    assert "from reportguide.schema import BootstrapConfig, GatewayConfig, TrainConfig" in imports
    code = "\n".join([*imports, "import sys", "print('reportguide.cli' in sys.modules)"])
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(_SRC)},
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    assert out.stdout.split() == ["False"], out.stderr


_RUN = """
import json, sys
from reportguide.cli import main
codes = [main(argv) for argv in json.loads(sys.argv[1])]
watched = (
    "numpy", "reportguide.classifier", "reportguide.bootstrap", "difflib", "subprocess", "secrets", "concurrent.futures",
    "reportguide.metrics",
)
print(json.dumps({"codes": codes, "loaded": [m for m in watched if m in sys.modules]}))
"""


@pytest.fixture(scope="module")
def ran_config(synth_dir, tmp_path_factory) -> str:
    """A mock-backend config whose workdir has been through the pipeline,
    so every stage's inputs are there."""
    tmp = tmp_path_factory.mktemp("imports")
    config = {
        "paths": {
            "manifest": str(synth_dir / "manifest.jsonl"),
            "features": str(synth_dir / "features.ffmx"),
            "workdir": str(tmp / "run"),
        },
        "gateway": {"backend": "mock"},
    }
    path = tmp / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    assert main(["pipeline", "--config", str(path)]) == 0
    return str(path)


@pytest.mark.parametrize(
    "stage, loaded",
    [
        (None, []),
        ("bootstrap", ["reportguide.bootstrap", "difflib"]),
        ("evaluate", ["reportguide.metrics"]),
        ("generate --ablation", ["reportguide.bootstrap", "difflib"]),
        # numpy's random generator imports `secrets` itself.
        ("train", ["numpy", "reportguide.classifier", "reportguide.bootstrap", "difflib",
                   "secrets"]),
    ],
    ids=["import", "bootstrap", "evaluate", "generate-ablation", "train"],
)
def test_a_fresh_process_loads_numpy_only_for_the_stages_that_use_it(
    ran_config, stage, loaded
):
    runs = [] if stage is None else [[*stage.split(), "--config", ran_config, "--force"]]
    out = subprocess.run(
        [sys.executable, "-c", _RUN, json.dumps(runs)],
        env={**os.environ, "PYTHONPATH": str(_SRC)},
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    result = json.loads(out.stdout.splitlines()[-1])
    assert result == {"codes": [0] * len(runs), "loaded": loaded}, out.stderr


# Records each pattern compiled by `re.compile`, through which the package
# compiles all of its patterns, before the package is imported.
_RUN_COUNTING_PATTERNS = """
import json, re, sys
compiled = []
_compile = re.compile
def counting(pattern, flags=0):
    compiled.append(pattern)
    return _compile(pattern, flags)
re.compile = counting
from reportguide.cli import main
from reportguide.metrics import tokenize
from reportguide.textnorm import CJK_CLASS
def cjk_patterns():
    return sum(isinstance(p, str) and CJK_CLASS in p for p in compiled)
codes = [main(argv) for argv in json.loads(sys.argv[1])]
ascii_run = cjk_patterns()
tokenize("\u80ba")
print(json.dumps({"codes": codes, "ascii_run": ascii_run, "after_cjk_text": cjk_patterns()}))
"""


def test_an_evaluate_over_ascii_text_compiles_no_cjk_pattern(ran_config):
    """The synthetic corpus is ASCII, so its evaluate never needs a pattern
    holding the CJK class; the first ideograph compiles one."""
    runs = [["evaluate", "--config", ran_config, "--force"]]
    out = subprocess.run(
        [sys.executable, "-c", _RUN_COUNTING_PATTERNS, json.dumps(runs)],
        env={**os.environ, "PYTHONPATH": str(_SRC)},
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    result = json.loads(out.stdout.splitlines()[-1])
    assert result == {"codes": [0], "ascii_run": 0, "after_cjk_text": 1}, out.stderr


# Runs each command, noting after each whether `dataclasses` is loaded.
_RUN_WATCHING_DATACLASSES = """
import json, sys
from reportguide.cli import main
print(json.dumps([[main(argv), "dataclasses" in sys.modules] for argv in json.loads(sys.argv[1])]))
"""


def test_no_stage_and_no_gateway_import_loads_dataclasses(ran_config):
    env = {**os.environ, "PYTHONPATH": str(_SRC)}
    stages = ["bootstrap", "train", "predict", "generate", "evaluate"]
    runs = [[stage, "--config", ran_config, "--force"] for stage in stages]
    out = subprocess.run(
        [sys.executable, "-c", _RUN_WATCHING_DATACLASSES, json.dumps(runs)],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    assert json.loads(out.stdout.splitlines()[-1]) == [[0, False]] * len(stages), out.stderr
    code = (
        "import json, sys, reportguide.gateway\n"
        "print(json.dumps([m for m in ('dataclasses', 'reportguide.corpus') if m in sys.modules]))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120,
        check=True,
    )
    assert json.loads(out.stdout.splitlines()[-1]) == [], out.stderr
