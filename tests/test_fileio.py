"""Every artifact write goes through `fileio.write_atomic`, every read
through `fileio`'s readers.

The guard parses each module of the package and fails on any call that can
create or change a file outside `fileio.py`, except the two writes that are
not artifacts: the gateway call log's append and the workdir lock. It also
fails on any call that reads a file outside `fileio.py`, except the read of
the package's own prompt texts. `write_atomic` itself is called only by the
stage driver, `cli.run_stage`, and by the writers of pipeline inputs.
"""

from __future__ import annotations

import ast
import hashlib
import json
import os
import stat
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reportguide
from reportguide.errors import DataError
from reportguide.fileio import (
    json_text,
    read_jsonl,
    read_sections,
    sha256_file,
    write_atomic,
    write_sections,
)

PACKAGE = Path(reportguide.__file__).parent

# (module, enclosing function) of each write allowed outside fileio.py.
EXEMPT = {
    ("gateway.py", "_log_call"),  # append-only call log, one line per call
    ("cli.py", "_WorkdirLock.__enter__"),  # the lock file is never read back
}

# (module, enclosing function) of each read allowed outside fileio.py.
READ_EXEMPT = {
    ("bootstrap.py", "_prompt_text"),  # package prompt resources, not artifacts
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


def _reads(call: ast.Call) -> bool:
    func = call.func
    if isinstance(func, ast.Attribute):
        owner = func.value.id if isinstance(func.value, ast.Name) else None
        if func.attr in ("read_text", "read_bytes"):
            return True
        if func.attr == "load":
            return owner == "json"
        if func.attr != "open" or owner == "os":
            return False
    elif not (isinstance(func, ast.Name) and func.id == "open"):
        return False
    return not _writes(call)  # open(...) or Path.open(...) in a read mode


def _sites(path: Path, kind) -> list[tuple[str, str, int]]:
    sites = []

    def visit(node: ast.AST, scope: tuple[str, ...]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + (child.name,))
                continue
            if isinstance(child, ast.Call) and kind(child):
                sites.append((path.name, ".".join(scope), child.lineno))
            visit(child, scope)

    visit(ast.parse(path.read_text(encoding="utf-8")), ())
    return sites


def _package_sites(kind) -> list[tuple[str, str, int]]:
    return [
        site
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "fileio.py"
        for site in _sites(path, kind)
    ]


def test_only_fileio_writes_artifacts():
    sites = _package_sites(_writes)
    assert {(module, scope) for module, scope, _ in sites} >= EXEMPT  # the scan sees them
    unexpected = [site for site in sites if site[:2] not in EXEMPT]
    assert unexpected == [], "write through fileio.write_atomic instead"


def test_only_fileio_reads_artifacts():
    sites = _package_sites(_reads)
    assert {(module, scope) for module, scope, _ in sites} >= READ_EXEMPT  # the scan sees it
    unexpected = [site for site in sites if site[:2] not in READ_EXEMPT]
    assert unexpected == [], "read through fileio's read_* functions instead"


def _calls_write_atomic(call: ast.Call) -> bool:
    func = call.func
    name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
    return name == "write_atomic"


def test_only_the_stage_driver_and_the_input_writers_call_write_atomic():
    assert {site[:2] for site in _package_sites(_calls_write_atomic)} == {
        ("cli.py", "run_stage"),
        ("corpus.py", "save_manifest"),
        ("corpus.py", "save_features"),
        ("synthetic.py", "write_synthetic_corpus"),
    }


def _fsynced_kinds(monkeypatch, fail_on_directories=False) -> list[str]:
    kinds = []
    real_fsync = os.fsync

    def fsync(fd):
        kind = "dir" if stat.S_ISDIR(os.fstat(fd).st_mode) else "file"
        kinds.append(kind)
        if fail_on_directories and kind == "dir":
            raise OSError(5, "Input/output error")
        real_fsync(fd)

    monkeypatch.setattr(os, "fsync", fsync)
    return kinds


def test_write_atomic_fsyncs_the_file_then_its_directory(tmp_path, monkeypatch):
    # The directory fsync makes the rename durable; a power loss itself
    # cannot be simulated here, so the test counts the calls.
    kinds = _fsynced_kinds(monkeypatch)
    write_atomic(tmp_path / "a.json", "{}\n")
    write_atomic(tmp_path / "a.json", "[]\n")
    assert kinds == ["file", "dir", "file", "dir"]
    assert (tmp_path / "a.json").read_text(encoding="utf-8") == "[]\n"


def test_a_failed_directory_fsync_is_an_artifact_write_error(tmp_path, monkeypatch):
    _fsynced_kinds(monkeypatch, fail_on_directories=True)
    with pytest.raises(DataError, match=r"cannot write .*a\.json: \[Errno 5\]"):
        write_atomic(tmp_path / "a.json", "{}\n")
    assert [p.name for p in tmp_path.iterdir()] == ["a.json"]  # no temp file left


_SECTIONS = {"a": b"first", "b": b"", "c": b"\x00third\n"}


def _in_chunks(sections: dict) -> list:
    """`sections` as `write_sections` takes them: c in two chunks."""
    return [(name, [blob[:2], blob[2:]] if name == "c" else [blob])
            for name, blob in sections.items()]


def test_a_sections_file_returns_the_sections_asked_for_and_is_not_fsynced(
    tmp_path, monkeypatch
):
    kinds = _fsynced_kinds(monkeypatch)
    path = tmp_path / "cache"
    write_sections(path, "k1", _in_chunks(_SECTIONS))
    assert kinds == []  # a lost cache file is only read as none
    assert read_sections(path, "k1", ["a", "b", "c"]) == _SECTIONS
    assert read_sections(path, "k1", ["c"]) == {"c": _SECTIONS["c"]}
    assert read_sections(path, "k2", ["a"]) is None  # made for another key
    assert read_sections(path, "k1", ["a", "d"]) is None  # no such section


def test_a_damaged_section_fails_only_a_read_that_asks_for_it(tmp_path):
    path = tmp_path / "cache"
    write_sections(path, "k", _in_chunks(_SECTIONS))
    blob = path.read_bytes()
    path.write_bytes(blob[:6] + b"X" + blob[7:])  # inside section c, after a and b
    assert read_sections(path, "k", ["a", "b"]) == {"a": b"first", "b": b""}
    assert read_sections(path, "k", ["a", "c"]) is None


def test_write_sections_takes_each_chunk_once_the_one_before_is_written(tmp_path):
    path = tmp_path / "cache"
    size = 1 << 17  # past the write buffer, so a written chunk is on disk
    on_disk = []

    def chunks(name):
        for _ in range(2):
            [tmp] = tmp_path.glob(".cache.*.tmp")
            on_disk.append(tmp.stat().st_size)
            yield name.encode() * size

    write_sections(path, "k", ((name, chunks(name)) for name in "ab"))
    assert on_disk == [0, size, 2 * size, 3 * size]
    assert read_sections(path, "k", ["b"]) == {"b": b"b" * 2 * size}


def _footer(doc: dict) -> bytes:
    line = json.dumps(doc).encode() + b"\n"
    return line + struct.pack(">I", len(line))


_SHA_FIRST = hashlib.sha256(b"first").hexdigest()


@pytest.mark.parametrize(
    "tail",
    [b"", b"\0\0", b"[]\n" + struct.pack(">I", 3), _footer({"version": 2}),
     _footer({"version": 2, "key": "k", "sections": []}),
     _footer({"version": 2, "key": "k", "sections": {"a": [5.0, _SHA_FIRST]}}),
     _footer({"version": 2, "key": "k", "sections": {"a": 5}}),
     _footer({"version": 1, "key": "k", "sections": {"a": [5, _SHA_FIRST]}}),
     b"[" * 4000 + b"\n" + struct.pack(">I", 4001),
     _footer({"version": 2, "key": "k", "sections": {"a": [-1, _SHA_FIRST]}}),
     _footer({"version": 2, "key": "k", "sections": {"a": [4, _SHA_FIRST]}}),
     _footer({"version": 2, "key": "k", "sections": {"a": [5, _SHA_FIRST]}})[:-4]
     + struct.pack(">I", 1 << 20),
     b"x" * 5000 + b"\n" + struct.pack(">I", 5001)],
    ids=["empty", "short", "list", "no-key", "sections-list", "float-length", "not-a-pair",
         "other-version", "too-deep", "negative-length", "short-of-the-footer",
         "length-past-the-start", "too-long"],
)
def test_a_sections_file_with_a_footer_it_did_not_write_reads_as_none(tmp_path, tail):
    path = tmp_path / "cache"
    path.write_bytes(b"first" + tail)
    assert read_sections(path, "k", ["a"]) is None
    # The same bytes with the footer `write_sections` gives them are read.
    path.write_bytes(
        b"first" + _footer({"version": 2, "key": "k", "sections": {"a": [5, _SHA_FIRST]}})
    )
    assert read_sections(path, "k", ["a"]) == {"a": b"first"}


def test_write_sections_replaces_an_empty_directory_but_no_other(tmp_path):
    path = tmp_path / "cache"
    path.mkdir()
    write_sections(path, "k", [("a", [b"x"])])
    assert read_sections(path, "k", ["a"]) == {"a": b"x"}
    path.unlink()
    path.mkdir()
    (path / "kept").write_text("x", encoding="utf-8")
    with pytest.raises(DataError, match="cannot write .*cache"):
        write_sections(path, "k", [("a", [b"x"])])
    assert (path / "kept").is_file()


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


def test_the_scan_flags_every_kind_of_read():
    source = """
def f(p):
    open(p)
    open(p, "rb")
    open(p, mode="r")
    p.open()
    p.open("rb")
    p.read_text()
    p.read_bytes()
    json.load(p)
def g(p, m):
    open(p, "w")
    open(p, m)
    p.open("a")
    os.open(p, 0)
    json.loads(p)
    pickle.load(p)
    fh.read()
"""
    calls = [n for n in ast.walk(ast.parse(source)) if isinstance(n, ast.Call)]
    assert sorted(n.lineno for n in calls if _reads(n)) == list(range(3, 11))


def test_read_jsonl_splits_only_at_newlines_and_skips_blank_lines(tmp_path):
    # json.dumps(ensure_ascii=False) writes these separators raw inside strings;
    # str.splitlines() would break a line at each of them.
    text = "a\u2028b\u2029c\x85d"
    path = tmp_path / "rows.jsonl"
    line = json.dumps({"text": text}, ensure_ascii=False)
    path.write_bytes(f"{line}\n \t\n\n{line}\r\n".encode("utf-8"))
    assert list(read_jsonl(path, DataError, "rows")) == [(1, {"text": text}), (4, {"text": text})]



def _json_loads_rows(path, what):
    """`read_jsonl` as it was with `json.loads` on each line: the rows read,
    and the message of the error that stopped the read, if any."""
    rows = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if line.isspace():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                return rows, f"{what} line {lineno}: invalid JSON: {exc}"
            if not isinstance(obj, dict):
                return rows, f"{what} line {lineno}: not a JSON object"
            rows.append((lineno, obj))
    return rows, None


def _read_jsonl_rows(path, what, digest=None):
    rows = []
    try:
        for row in read_jsonl(path, DataError, what, digest):
            rows.append(row)
    except DataError as exc:
        return rows, str(exc)
    return rows, None


# (file text, what stops the read: None, or the message's words after
# "line N: ").
@pytest.mark.parametrize(
    "text, stop",
    [
        ('  {"a": 1}  \n\t{"b": [1, {"c": 2}]}\t \n', None),
        ('{"a": 1}\r\n{"b": "x"}\r\n', None),
        ('{"a": "x\u2028y", "b": "\u2029"}\n{"c": 1}\u2028\n', "invalid JSON"),
        ('{"a": NaN, "b": Infinity, "c": -Infinity}\n', None),
        ('{"a": 1, "b": 2, "a": 3}\n', None),
        ('{"a": 1}{"b": 2}\n', "invalid JSON"),
        ('{"a": 1} {"b": 2}\n', "invalid JSON"),
        ('{"a": 1}\n[1, 2]\n', "not a JSON object"),
        ('{"a": 1}\n[1, 2] x\n', "invalid JSON"),
        ("3\n", "not a JSON object"),
        ('"s"\n', "not a JSON object"),
        ("null\n", "not a JSON object"),
        ("3 4\n", "invalid JSON"),
        ('{"a": 1\n', "invalid JSON"),
        ('{"a": [1, 2\n', "invalid JSON"),
        ('{"a": "x\x01y"}\n', "invalid JSON"),
        ('{"a": 1}\x0b\n', "invalid JSON"),
        ('\ufeff{"a": 1}\n', "invalid JSON"),
        ('\n   \n{"a": 1}\n\t\r\n\n{"b": 2}\n \n', None),
        ('{"a": 1}\n\n{"b": 2}', None),
        ("", None),
    ],
    ids=[
        "leading-and-trailing-spaces",
        "crlf",
        "u2028-in-a-string-and-after-a-value",
        "nan-and-infinity",
        "duplicate-key",
        "two-objects",
        "two-objects-spaced",
        "list",
        "list-then-junk",
        "bare-number",
        "bare-string",
        "bare-null",
        "two-numbers",
        "truncated-object",
        "truncated-list-in-object",
        "raw-control-character",
        "vertical-tab-after-a-value",
        "byte-order-mark",
        "blank-and-whitespace-lines",
        "no-final-newline",
        "empty-file",
    ],
)
def test_read_jsonl_reads_each_line_as_json_loads_does(tmp_path, text, stop):
    path = tmp_path / "rows.jsonl"
    path.write_bytes(text.encode("utf-8"))
    rows, message = _read_jsonl_rows(path, "rows")
    want_rows, want_message = _json_loads_rows(path, "rows")
    # repr: NaN is unequal to itself, and 1 == 1.0.
    assert (repr(rows), message) == (repr(want_rows), want_message)
    if stop is None:
        assert message is None
    else:
        assert message.split(": ", 1)[1].startswith(stop)
    # Hashing the bytes as they are read changes nothing of that.
    digest = hashlib.sha256()
    assert repr(_read_jsonl_rows(path, "rows", digest)) == repr((rows, message))
    if stop is None:
        assert digest.hexdigest() == hashlib.sha256(path.read_bytes()).hexdigest()


_ROW = b'{"text": "' + b"x" * 90 + b'"}\n'


@pytest.mark.parametrize(
    "data",
    [
        _ROW * 300 + b"\xff" + _ROW,  # bad UTF-8 in a later chunk
        _ROW * 80 + b"{\n" + _ROW * 3 + b"\xff",  # bad JSON, then bad UTF-8 in its chunk
        _ROW * 80 + b"{\n" + _ROW * 200 + b"\xff",  # bad JSON, then bad UTF-8 chunks later
        _ROW * 1000,
    ],
    ids=["bad-utf8", "bad-json-then-bad-utf8-nearby", "bad-json-then-bad-utf8-far", "clean"],
)
def test_read_jsonl_reports_the_same_error_whether_or_not_it_hashes(tmp_path, data):
    path = tmp_path / "rows.jsonl"
    path.write_bytes(data)
    digest = hashlib.sha256()
    assert _read_jsonl_rows(path, "rows", digest) == _read_jsonl_rows(path, "rows")
    if data == _ROW * 1000:
        assert digest.hexdigest() == hashlib.sha256(data).hexdigest()
    for unreadable in (tmp_path / "missing.jsonl", tmp_path):
        assert _read_jsonl_rows(unreadable, "rows", hashlib.sha256()) == _read_jsonl_rows(
            unreadable, "rows"
        )


@pytest.mark.parametrize("size", [0, 1, 65_535, 65_536, 200_001])
def test_sha256_file_hashes_a_regular_file_in_chunks(tmp_path, size):
    path = tmp_path / "blob"
    path.write_bytes(bytes(range(256)) * (size // 256) + b"z" * (size % 256))
    assert sha256_file(path) == hashlib.sha256(path.read_bytes()).hexdigest()


def test_sha256_file_is_none_for_anything_but_a_readable_regular_file(tmp_path):
    os.mkfifo(tmp_path / "fifo")  # refused, not waited on
    os.symlink("loop", tmp_path / "loop")
    for name in ("missing", "fifo", "loop", "."):
        assert sha256_file(tmp_path / name) is None, name


# ---------------------------------------------------------------------------
# The indented JSON writer
# ---------------------------------------------------------------------------


def _stdlib_json_text(doc) -> str:
    return json.dumps(doc, ensure_ascii=False, indent=2) + "\n"


class _Count(int):
    pass


_SPECIAL_FLOATS = (
    float("nan"), float("inf"), float("-inf"), -0.0, 0.0, 5e-324, 1e-310, 1.7976931348623157e308
)
# A run of any characters, then a run of the ones a writer may mishandle:
# one draw each, far cheaper than a choice of set per character.
_TEXT = st.tuples(
    st.text(st.characters(), max_size=4),
    st.text(("\u2028", "\u2029", '"', "\\", "\x00", "\x1f", "\x7f"), max_size=4),
).map("".join)
_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**130), max_value=2**130),
    st.floats(),
    st.sampled_from(_SPECIAL_FLOATS),
    _TEXT,
)
# Subclasses of JSON scalars and keys of every type json.dumps converts.
_ODD_SCALARS = st.one_of(st.floats().map(np.float64), st.integers().map(_Count))
_ODD_KEYS = st.one_of(st.integers(), st.floats(), st.booleans(), st.none())


def _containers(children, keys):
    return st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.dictionaries(keys, children, max_size=5),
    )


_DOCS = st.recursive(_SCALARS, lambda children: _containers(children, _TEXT), max_leaves=25)
_ODD_DOCS = st.recursive(
    st.one_of(_SCALARS, _ODD_SCALARS),
    lambda children: _containers(children, st.one_of(_TEXT, _ODD_KEYS)),
    max_leaves=20,
)


@settings(max_examples=150, deadline=None)
@given(_DOCS)
@example({"a": [], "b": {}, "c": [[], {}, ()], "d": (1, 2.5, None, True, False, "\u2028")})
@example({"x": list(_SPECIAL_FLOATS), "y": 2**200, "z": -(2**70), "w": "\u80ba\U00020001 \u00e9"})
def test_json_text_writes_json_dumps_bytes(doc):
    assert json_text(doc) == _stdlib_json_text(doc)


@settings(max_examples=100, deadline=None)
@given(_ODD_DOCS)
@example({"p": np.float64(0.1), "q": [np.float64("nan"), _Count(3)]})
@example({1: "a", 2.5: [True], None: {"k": 1}, False: ()})
@example({"a": {"b": [1]}, "c": {"d": 1, 7: 2}})
def test_json_text_writes_json_dumps_bytes_for_subclasses_and_non_str_keys(doc):
    assert json_text(doc) == _stdlib_json_text(doc)


def _cyclic_list():
    doc = [1]
    doc.append({"again": doc})
    return {"a": doc}


def _cyclic_dict():
    doc: dict = {"x": 1}
    doc["self"] = doc
    return doc


@pytest.mark.parametrize(
    "doc",
    [_cyclic_list(), _cyclic_dict(), {(1, 2): 1}, {"a": object()}, {"a": {1, 2}}, [10**5000]],
    ids=["cyclic-list", "cyclic-dict", "tuple-key", "object", "set", "int-too-long"],
)
def test_json_text_raises_what_json_dumps_raises(doc):
    with pytest.raises(Exception) as want:
        _stdlib_json_text(doc)
    with pytest.raises(Exception) as got:
        json_text(doc)
    assert type(got.value) is type(want.value)
    assert str(got.value) == str(want.value)
