"""Arabic-aware text normalization and tokenization.

Every module that compares, groups, or scores sentences goes through these
two functions, so the rules are deliberately small and deterministic:

1. Unicode NFC.
2. Strip Arabic diacritics (tashkeel, U+064B..U+0652).
3. Strip tatweel/kashida (U+0640).
4. Collapse whitespace runs to single spaces and trim.

Clean text (NFC, no tashkeel or tatweel, single spaces, no edge spaces) is
returned unchanged, as the same object; the rules are the same for it, the
function only skips the passes that would not change it.

Alef/ya letter unification is intentionally NOT performed: collapsing
orthographic variants would erase dialectal spelling cues that the
downstream estimators rely on.

Tokenization works per whitespace-separated word. A word whose characters
are all alphanumeric is one token; in any other word a token is a maximal
run of word characters or a maximal run of punctuation/symbol characters,
so "جدا...." yields ["جدا", "...."]. The two rules agree because no
alphanumeric character is in a punctuation or symbol category.
"""

from __future__ import annotations

import unicodedata
from functools import lru_cache

# Tashkeel (fathatan..sukun) and tatweel/kashida. Kept as a range on purpose;
# marks outside it (e.g. madda above U+0653) are letters' building blocks and
# must survive.
_STRIPPED = "".join(map(chr, range(0x064B, 0x0653))) + "\u0640"


def normalize(text: str) -> str:
    """Normalize ``text``; applying it twice equals applying it once."""
    out = unicodedata.normalize("NFC", text)
    stripped = out
    for ch in _STRIPPED:
        if ch in stripped:
            stripped = stripped.replace(ch, "")
    if len(stripped) != len(out):
        # Re-run NFC: removing a mark can expose a base+mark pair that now
        # composes (e.g. alef + tatweel + madda -> alef + madda -> alef-madda).
        out = unicodedata.normalize("NFC", stripped)
    # Every whitespace character except U+0020 is non-printable, so printable
    # text with no double or edge space has nothing to collapse or trim.
    if (
        out.isprintable()
        and "  " not in out
        and not out.startswith(" ")
        and not out.endswith(" ")
    ):
        return out
    return " ".join(out.split())


@lru_cache(maxsize=None)
def _is_punct(ch: str) -> bool:
    return unicodedata.category(ch)[0] in ("P", "S")


def tokenize(text: str) -> list[str]:
    """Split normalized text into tokens, detaching punctuation runs.

    Returns a possibly empty list; no token is empty or contains whitespace.
    """
    tokens: list[str] = []
    for word in text.split():
        if word.isalnum():
            tokens.append(word)
            continue
        run: list[str] = []
        run_is_punct = False
        for ch in word:
            punct = _is_punct(ch)
            if run and punct != run_is_punct:
                tokens.append("".join(run))
                run = []
            run.append(ch)
            run_is_punct = punct
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
