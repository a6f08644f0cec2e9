"""The one way artifacts reach disk.

Each stage reads only files an earlier stage wrote, so every artifact is
replaced in one step: a failed or killed stage leaves the previous file or
none, never part of one.
"""

from __future__ import annotations

import os
import secrets
from pathlib import Path

from .errors import ArtifactWriteError


def write_atomic(path: str | Path, data: str | bytes) -> None:
    """Replace `path` with `data`; a str is written as UTF-8.

    The bytes go to `.<name>.<random>.tmp` in the same directory, which is
    flushed, fsynced and renamed onto `path`. On any error the temp file is
    removed and `path` is left as it was; an OSError is raised again as an
    ArtifactWriteError naming `path`. A new file gets mode 0o666 & ~umask, as
    `open(path, "w")` would give it.
    """
    path = Path(path)
    if isinstance(data, str):
        data = data.encode("utf-8")
    tmp = path.with_name(f".{path.name}.{secrets.token_hex(8)}.tmp")
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            with open(fd, "wb") as fh:
                fh.write(data)
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise
    except OSError as exc:
        raise ArtifactWriteError(f"cannot write {path}: {exc}") from exc
