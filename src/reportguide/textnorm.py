"""Character classification and label-string normalization helpers."""

from __future__ import annotations

import re

# CJK Unified Ideograph blocks (base, extension A, extensions B..F and the
# compatibility block). Kana and Hangul are intentionally not included; only
# ideographs get the one-token-per-character treatment.
CJK_RANGES: tuple[tuple[int, int], ...] = (
    (0x4E00, 0x9FFF),
    (0x3400, 0x4DBF),
    (0x20000, 0x2A6DF),
    (0x2A700, 0x2EBEF),
    (0xF900, 0xFAFF),
)

# The body of a character class matching exactly the CJK_RANGES code points.
# A pattern holding it takes milliseconds to compile, so it is compiled
# where first needed, never at import: `re.compile` keeps it from then on.
CJK_CLASS = "".join(f"{chr(lo)}-{chr(hi)}" for lo, hi in CJK_RANGES)

_WS_RE = re.compile(r"\s+")
_PUNCT_RE = re.compile(r"[^\w\s]|_", flags=re.UNICODE)


def collapse_whitespace(s: str) -> str:
    return _WS_RE.sub(" ", s).strip()


def match_key(s: str) -> str:
    """Key used when comparing label surfaces: trimmed, case-folded,
    internal whitespace collapsed."""
    return collapse_whitespace(s).casefold()


def alias_key(s: str) -> str:
    """Stricter key for synonym detection: match_key plus punctuation
    stripped, so "optic-disc edema" and "optic disc edema" collide."""
    return collapse_whitespace(_PUNCT_RE.sub(" ", match_key(s)))
