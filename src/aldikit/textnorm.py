"""Arabic-aware text normalization and tokenization.

Every module that compares, groups, or scores sentences goes through these
two functions, so the rules are deliberately small and deterministic:

1. Unicode NFC.
2. Strip Arabic diacritics (tashkeel, U+064B..U+0652).
3. Strip tatweel/kashida (U+0640).
4. Collapse whitespace runs to single spaces and trim.

Alef/ya letter unification is intentionally NOT performed: collapsing
orthographic variants would erase dialectal spelling cues that the
downstream estimators rely on.

Tokenization splits on whitespace after detaching punctuation: a token is a
maximal run of word characters or a maximal run of punctuation/symbol
characters, so "جدا...." yields ["جدا", "...."].
"""

from __future__ import annotations

import re
import unicodedata
from functools import lru_cache

# Tashkeel: fathatan..sukun. Kept as a range on purpose; marks outside it
# (e.g. madda above U+0653) are letters' building blocks and must survive.
_DIACRITICS_RE = re.compile(r"[ً-ْ]")
_TATWEEL = "ـ"
_WHITESPACE_RE = re.compile(r"\s+")


def normalize(text: str) -> str:
    """Normalize ``text``; applying it twice equals applying it once."""
    out = unicodedata.normalize("NFC", text)
    out = _DIACRITICS_RE.sub("", out).replace(_TATWEEL, "")
    # Re-run NFC: removing a mark can expose a base+mark pair that now
    # composes (e.g. alef + fatha + madda -> alef + madda -> alef-madda).
    out = unicodedata.normalize("NFC", out)
    return _WHITESPACE_RE.sub(" ", out).strip()


@lru_cache(maxsize=None)
def _is_punct(ch: str) -> bool:
    return unicodedata.category(ch)[0] in ("P", "S")


def tokenize(text: str) -> list[str]:
    """Split normalized text into tokens, detaching punctuation runs.

    Returns a possibly empty list; no token is empty or contains whitespace.
    """
    tokens: list[str] = []
    run: list[str] = []
    run_is_punct = False
    for ch in text:
        if ch.isspace():
            if run:
                tokens.append("".join(run))
                run = []
            continue
        punct = _is_punct(ch)
        if run and punct != run_is_punct:
            tokens.append("".join(run))
            run = []
        run.append(ch)
        run_is_punct = punct
    if run:
        tokens.append("".join(run))
    return tokens


def word_count(text: str) -> tuple[int, int]:
    """Token counts of ``text`` under both counting conventions.

    Returns (whitespace-split count, punctuation-detached token count); both
    are reported in corpus statistics because average sentence length
    depends on the convention.
    """
    ws = len(text.split())
    return ws, len(tokenize(text))
