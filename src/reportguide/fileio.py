"""The one way artifacts reach disk and are read back.

Each stage reads only files an earlier stage wrote, so every artifact is
replaced in one step: a failed or killed stage leaves the previous file or
none, never part of one. `json_text` is the text of every indented JSON
artifact but the checkpoint. A *sections* file (`write_sections`) is a
cache: each named section carries its sha256, and `read_sections` returns
sections only when every one asked for matches, so a torn or stale file is
read as no file. A cache is keyed by the sha256 of the file it stands for,
which `sha256_file` hashes in chunks, so no file is held whole to hash it.

Reads go through the `read_*` functions: a file that cannot be read (a
directory, no permission, not UTF-8) or is not the JSON it should be raises
the caller's typed `error`, with `what` ("taxonomy file <path>") leading.
So does JSON whose string escapes decode to a lone surrogate, such as
`"\\ud800"`: no UTF-8 file can hold that text, so an artifact built from it
could never be written.
"""

from __future__ import annotations

import functools
import io
import json
import json.scanner
import os
import re
import stat
import struct
from collections.abc import Iterable, Iterator
from json.encoder import encode_basestring
from pathlib import Path

from .errors import DataError, PipelineError


def write_atomic(
    path: str | Path, data: str | bytes | Iterable[bytes], durable: bool = True
) -> None:
    """Replace `path` with `data`; a str is written as UTF-8, an iterable of
    bytes one after another, each taken once the one before is written.

    The bytes go to `.<name>.<random>.tmp` in the same directory, which is
    flushed, fsynced and renamed onto `path`; the directory is then fsynced
    so the rename itself is durable. With `durable` false neither fsync is
    made, and a crash may leave the file lost or torn, which only a reader
    that checks it can tell. On any error the temp file is removed and,
    unless only the directory fsync failed, `path` is left as it was; an
    OSError is raised again as a DataError naming `path`. A new file gets
    mode 0o666 & ~umask, as `open(path, "w")` would give it.
    """
    path = Path(path)
    if isinstance(data, str):
        data = data.encode("utf-8")
    chunks = [data] if isinstance(data, bytes) else data
    tmp = path.with_name(f".{path.name}.{os.urandom(8).hex()}.tmp")
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            with open(fd, "wb") as fh:
                fh.writelines(chunks)
                if durable:
                    fh.flush()
                    os.fsync(fh.fileno())
            os.replace(tmp, path)
            if durable:
                dir_fd = os.open(path.parent, os.O_RDONLY | os.O_DIRECTORY)
                try:
                    os.fsync(dir_fd)
                finally:
                    os.close(dir_fd)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise
    except OSError as exc:
        raise DataError(f"cannot write {path}: {exc}") from exc


# A sections file is each section's bytes in turn, then one JSON footer
# line, {"version", "key", "sections": {name: [length, sha256], ...}}, then
# that line's length as 4 bytes, big-endian. The digests follow the
# sections, so each section is written as it is made.
_SECTIONS_VERSION = 2
_FOOTER_LIMIT = 4096
_FOOTER_LENGTH = struct.Struct(">I")


def write_sections(
    path: Path, key: str, sections: Iterable[tuple[str, Iterable[bytes]]]
) -> None:
    """Replace `path`, atomically but not durably, with the sections that
    `sections` gives as (name, its bytes in chunks) pairs, and a footer
    giving `key`, for which they were made, and each section's length and
    sha256. Each chunk is taken once the one before is written, so a lazy
    `sections` holds one chunk at a time. An empty directory at `path` is
    removed first. Raises DataError as `write_atomic` does."""
    import hashlib  # deferred, as in `corpus`: writing inputs loads no OpenSSL

    try:
        if path.is_dir() and not path.is_symlink():
            path.rmdir()
    except OSError as exc:
        raise DataError(f"cannot write {path}: {exc}") from exc

    def chunks():
        table = {}
        for name, section in sections:
            digest, length = hashlib.sha256(), 0
            for chunk in section:
                digest.update(chunk)
                length += len(chunk)
                yield chunk
                del chunk  # written: free it before the next one is made
            table[name] = [length, digest.hexdigest()]
        footer = {"version": _SECTIONS_VERSION, "key": key, "sections": table}
        line = json.dumps(footer).encode("utf-8") + b"\n"
        yield line + _FOOTER_LENGTH.pack(len(line))

    write_atomic(path, chunks(), durable=False)


def _section_spans(footer: bytes, key: str, size: int) -> dict[str, tuple[int, int, str]] | None:
    """Section name to (offset, length, sha256), from the footer line of a
    sections file made for `key` whose sections fill its first `size`
    bytes; else None."""
    try:
        doc = json.loads(footer)
        if doc["version"] != _SECTIONS_VERSION or doc["key"] != key:
            return None
        spans, offset = {}, 0
        for name, (length, sha) in doc["sections"].items():
            if type(length) is not int or length < 0:
                return None
            spans[name] = (offset, length, sha)
            offset += length
    except (ValueError, TypeError, KeyError, AttributeError, RecursionError):
        return None  # not JSON, or not a footer
    return spans if offset == size else None


def _regular_fd(path) -> int | None:
    """A read-only descriptor of the regular file at `path`, or None. The
    file is opened without blocking, so that a FIFO is refused, not waited
    on."""
    try:
        fd = os.open(path, os.O_RDONLY | os.O_NONBLOCK)
    except OSError:
        return None
    try:
        if stat.S_ISREG(os.fstat(fd).st_mode):
            return fd
    except OSError:
        pass
    os.close(fd)
    return None


def sha256_file(path) -> str | None:
    """The sha256 of the regular file at `path`, read in 64 KiB chunks; None
    if it is not a regular file or cannot be read."""
    import hashlib

    fd = _regular_fd(path)
    if fd is None:
        return None
    digest, chunk = hashlib.sha256(), bytearray(1 << 16)
    view = memoryview(chunk)
    try:
        with open(fd, "rb", buffering=0, closefd=False) as fh:
            while size := fh.readinto(chunk):
                digest.update(view[:size])
    except OSError:
        return None
    finally:
        os.close(fd)
    return digest.hexdigest()


def read_sections(path: Path, key: str, names) -> dict[str, bytes] | None:
    """The sections `names` of the `write_sections` file at `path`, if it
    is a regular file made for `key` and each of them matches its sha256;
    else None, whatever is or is not at `path`. No other section is read."""
    import hashlib

    fd = _regular_fd(path)
    if fd is None:
        return None
    try:
        with open(fd, "rb", closefd=False) as fh:
            end = fh.seek(0, os.SEEK_END) - _FOOTER_LENGTH.size
            if end < 0:
                return None
            fh.seek(end)
            (length,) = _FOOTER_LENGTH.unpack(fh.read(_FOOTER_LENGTH.size))
            if not 0 < length <= min(end, _FOOTER_LIMIT):
                return None
            fh.seek(end - length)
            spans = _section_spans(fh.read(length), key, end - length)
            if spans is None or not spans.keys() >= set(names):
                return None
            found = {}
            for name in names:
                offset, length, sha = spans[name]
                fh.seek(offset)
                blob = fh.read(length)
                if len(blob) != length or hashlib.sha256(blob).hexdigest() != sha:
                    return None
                found[name] = blob
    except (OSError, struct.error):
        return None
    finally:
        os.close(fd)
    return found


class _Unhandled(Exception):
    """A value that `json_text` leaves to `json.dumps`."""


_SCALAR_TYPES = frozenset({str, int, float, bool, type(None)})
_STR_TYPE = frozenset({str})


@functools.cache
def _flat_encoder(newline: str):
    """The stdlib's one-line encoder, with `newline` after each comma.

    On a container holding scalars only, it writes the items as
    `json.dumps(..., indent=2)` writes them at the depth whose line break
    and indent is `newline`, through the same leaf encoders (the C ones
    where available), between the container's two brackets.
    """
    return json.JSONEncoder(
        ensure_ascii=False, check_circular=False, separators=("," + newline, ": ")
    ).encode


def _value_text(o, newline: str, open_ids: set) -> str:
    """`o` as `json.dumps(o, ensure_ascii=False, indent=2)` writes it on a
    line that starts with `newline`. `open_ids` holds the containers being
    written around `o`."""
    kind = type(o)
    if kind is dict:
        if not _STR_TYPE.issuperset(map(type, o)):
            raise _Unhandled
        values = o.values()
    elif kind is list or kind is tuple:
        values = o
    elif kind in _SCALAR_TYPES:
        return _flat_encoder(newline)(o)
    else:
        raise _Unhandled  # a subclass, or not JSON
    if not o:
        return "{}" if kind is dict else "[]"
    inner = newline + "  "
    if _SCALAR_TYPES.issuperset(map(type, values)):
        body = _flat_encoder(inner)(o)[1:-1]
    else:
        if id(o) in open_ids:
            raise _Unhandled  # a cycle
        open_ids.add(id(o))
        texts = [_value_text(v, inner, open_ids) for v in values]
        open_ids.discard(id(o))
        if kind is dict:
            texts = map(": ".join, zip(map(encode_basestring, o), texts))
        body = ("," + inner).join(texts)
    if kind is dict:
        return "{" + inner + body + newline + "}"
    return "[" + inner + body + newline + "]"


def json_text(doc) -> str:
    """`json.dumps(doc, ensure_ascii=False, indent=2) + "\\n"`, byte for byte.

    The stdlib writes indented JSON in Python, value by value. Here each
    container of scalars is one call of its C encoder, and each other level
    is joined at once. A document holding a subclass of a JSON type, a key
    that is not a str, a value that is not JSON, or a cycle goes to
    `json.dumps` whole, so it gets the stdlib's exact bytes or exception.
    """
    try:
        return _value_text(doc, "\n", set()) + "\n"
    except _Unhandled:
        return json.dumps(doc, ensure_ascii=False, indent=2) + "\n"


def _unreadable(error: type[PipelineError], what: str, path, exc: Exception) -> PipelineError:
    # An OSError's text names the path; a decoding error's does not.
    reason = exc if isinstance(exc, OSError) else f"not UTF-8 text ({exc.reason}): {str(path)!r}"
    return error(f"cannot read {what}: {reason}")


def read_bytes(path: str | Path, error: type[PipelineError], what: str) -> bytes:
    try:
        return Path(path).read_bytes()
    except OSError as exc:
        raise _unreadable(error, what, path, exc) from exc


def read_text(path: str | Path, error: type[PipelineError], what: str) -> str:
    """The file decoded as UTF-8, with universal newlines."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise _unreadable(error, what, path, exc) from exc


_SURROGATE = re.compile("[\ud800-\udfff]")


def lone_surrogate(text: str) -> str | None:
    """The first lone surrogate in `text`, or None. A JSON escape from
    `\\uD800` to `\\uDFFF` that is not half of a pair decodes to one, and
    no UTF-8 file can hold it, so text decoded from JSON that could reach an
    artifact or the call log is checked with this."""
    found = _SURROGATE.search(text)
    return found[0] if found else None


# A JSON string token; in valid JSON, none spans lines.
_STRING = re.compile(r'"(?:[^"\\]|\\.)*"')


def _reject_lone_surrogates(line: str, error: type[PipelineError], where: str) -> None:
    """Raise `error` if a string on this line of valid JSON decodes to a
    lone surrogate. Only a `\\uD...` escape makes one, so callers pass
    only lines holding a backslash, which a single-character search finds
    at memchr speed."""
    if "\\ud" not in line and "\\uD" not in line:
        return
    for token in _STRING.findall(line):
        char = lone_surrogate(json.loads(token))
        if char:
            raise error(
                f"{where}: a string escape decodes to the lone surrogate {char!r}, "
                f"which UTF-8 cannot encode"
            )


def read_json(path: str | Path, error: type[PipelineError], what: str) -> dict:
    """The file's JSON document, which must be an object."""
    text = read_text(path, error, what)
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:  # JSONDecodeError, or a value too deep or long
        raise error(f"{what} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise error(f"{what}: not a JSON object")
    if "\\" in text:
        for lineno, line in enumerate(text.split("\n"), start=1):
            _reject_lone_surrogates(line, error, f"{what} line {lineno}")
    return doc


# The decoder's own scanner (the C one where available), called without
# `json.loads`'s checks around it.
_scan_once = json.scanner.make_scanner(json.JSONDecoder())


def _decode_line(line: str):
    """`json.loads(line)`. A line holding one value from its first character,
    followed by JSON whitespace only, is decoded by the scanner alone; any
    other line goes to `json.loads`, which returns its value or raises its
    error."""
    try:
        obj, end = _scan_once(line, 0)
    except (StopIteration, json.JSONDecodeError):
        return json.loads(line)
    if line[end:].strip(" \t\n\r"):
        return json.loads(line)
    return obj


class _HashedFile(io.FileIO):
    """A file opened for reading whose every byte read updates `digest`."""

    def __init__(self, path, digest):
        super().__init__(os.fspath(path))  # as `open` does: errors name the path's text
        self.digest = digest

    def readinto(self, buffer):
        size = super().readinto(buffer)
        if size:
            self.digest.update(memoryview(buffer)[:size])
        return size


def read_jsonl(
    path: str | Path, error: type[PipelineError], what: str, digest=None
) -> Iterator[tuple[int, dict]]:
    """Stream (1-based line number, object) for each non-blank line. Lines
    end at newlines only, not at the U+2028 that `json.dumps` leaves raw.
    `digest`, when given, is a hashlib object that every byte read from the
    file updates, so that once the last row is out it holds the hash of
    exactly the bytes decoded. The file is read as `open` reads it either
    way, so every error and its order are the same."""
    try:
        with open(path, encoding="utf-8") if digest is None else io.TextIOWrapper(
            io.BufferedReader(_HashedFile(path, digest)), encoding="utf-8"
        ) as fh:
            for lineno, line in enumerate(fh, start=1):
                if line.isspace():
                    continue
                try:
                    obj = _decode_line(line)
                except (ValueError, RecursionError) as exc:
                    raise error(f"{what} line {lineno}: invalid JSON: {exc}") from exc
                if not isinstance(obj, dict):
                    raise error(f"{what} line {lineno}: not a JSON object")
                if "\\" in line:
                    _reject_lone_surrogates(line, error, f"{what} line {lineno}")
                yield lineno, obj
    except (OSError, UnicodeDecodeError) as exc:
        raise _unreadable(error, what, path, exc) from exc
