"""Every artifact write goes through `fileio.write_atomic`.

The guard parses each module of the package and fails on any call that can
create or change a file outside `fileio.py`, except the two writes that are
not artifacts: the gateway call log's append and the workdir lock.
"""

from __future__ import annotations

import ast
from pathlib import Path

import reportguide

PACKAGE = Path(reportguide.__file__).parent

# (module, enclosing function) of each write allowed outside fileio.py.
EXEMPT = {
    ("gateway.py", "_log_call"),  # append-only call log, one line per call
    ("cli.py", "_WorkdirLock.__enter__"),  # the lock file is never read back
}


def _mode(call: ast.Call, position: int):
    for kw in call.keywords:
        if kw.arg == "mode":
            return kw.value
    return call.args[position] if len(call.args) > position else None


def _writes(call: ast.Call) -> bool:
    func = call.func
    if isinstance(func, ast.Attribute) and func.attr in ("write_text", "write_bytes"):
        return True
    if isinstance(func, ast.Attribute) and func.attr == "open":
        if isinstance(func.value, ast.Name) and func.value.id == "os":
            return True  # os.open takes flags; any use may create a file
        mode = _mode(call, 0)  # Path.open(mode)
    elif isinstance(func, ast.Name) and func.id == "open":
        mode = _mode(call, 1)
    else:
        return False
    if mode is None:
        return False  # the default mode is "r"
    if not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)):
        return True  # a mode the scan cannot read counts as a write
    return any(c in mode.value for c in "wxa+")


def _write_sites(path: Path) -> list[tuple[str, str, int]]:
    sites = []

    def visit(node: ast.AST, scope: tuple[str, ...]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + (child.name,))
                continue
            if isinstance(child, ast.Call) and _writes(child):
                sites.append((path.name, ".".join(scope), child.lineno))
            visit(child, scope)

    visit(ast.parse(path.read_text(encoding="utf-8")), ())
    return sites


def test_only_fileio_writes_artifacts():
    sites = [
        site
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "fileio.py"
        for site in _write_sites(path)
    ]
    assert {(module, scope) for module, scope, _ in sites} >= EXEMPT  # the scan sees them
    unexpected = [site for site in sites if site[:2] not in EXEMPT]
    assert unexpected == [], "write through fileio.write_atomic instead"


def test_the_scan_flags_every_kind_of_write():
    source = """
def f(p, m):
    open(p, "w")
    open(p, mode="wb")
    open(p, "x")
    open(p, "r+")
    open(p, m)
    p.open("a")
    p.write_text("x")
    p.write_bytes(b"x")
    os.open(p, 0)
def g(p):
    open(p)
    open(p, "rb")
    p.open()
    p.read_text()
"""
    calls = [n for n in ast.walk(ast.parse(source)) if isinstance(n, ast.Call)]
    assert sorted(n.lineno for n in calls if _writes(n)) == list(range(3, 12))
