import itertools
import random
import unicodedata

from aldikit import textnorm
from aldikit.textnorm import normalize, tokenize


def oracle_tokenize(text: str) -> list[str]:
    """Independent punctuation-detachment oracle: classify each character,
    then group consecutive same-class characters (dropping whitespace)."""

    def klass(ch):
        if ch.isspace():
            return "space"
        if unicodedata.category(ch)[0] in ("P", "S"):
            return "punct"
        return "word"

    tokens = []
    for key, chars in itertools.groupby(text, key=klass):
        if key != "space":
            tokens.append("".join(chars))
    return tokens


TOKENIZE_FIXTURES = [
    "",
    "جدا....",
    "برافو للسيد الوزير",
    "وزير جدع بصراحة .... ياريت يفضل كدا على طول",
    "هل هذا صحيح؟",
    "ما هذا؟!",
    "قال: نعم، بالتأكيد.",
    "كلمة-مركبة",
    "(بين قوسين)",
    "ya zamalek ya 7arameyaaaa",
    "very nice...",
    "a.b.c",
    "١٩٨١",
    "50%",
    "price=9.99",
    "نص عربي, مع فاصلة لاتينية",
    "«اقتباس»",
    "سؤال ؟ وجواب !",
    "tabs\tand\nnewlines",
    "mixed عربي and English!",
]


def test_normalize_empty():
    assert normalize("") == ""


def test_normalize_tatweel():
    assert normalize("ابـــدا") == "ابدا"


def test_normalize_strips_fatha():
    with_fatha = "كتَب"
    assert normalize(with_fatha) == "كتب"


def test_normalize_whitespace_and_trim():
    assert normalize("  ابدا   ابدا \n") == "ابدا ابدا"


def test_normalize_idempotent_on_fixtures():
    # includes the mark-removal recomposition trap: alef + fatha + madda
    tricky = TOKENIZE_FIXTURES + ["آَبرز", "ابـــدا", "كتَب"]
    for text in tricky:
        once = normalize(text)
        assert normalize(once) == once


def test_tokenize_empty():
    assert tokenize("") == []


def test_tokenize_plain_words():
    assert tokenize("برافو للسيد الوزير") == ["برافو", "للسيد", "الوزير"]


def test_tokenize_detaches_trailing_punctuation():
    assert tokenize("جدا....") == ["جدا", "...."]


def test_tokenize_matches_oracle_on_fixtures():
    for text in TOKENIZE_FIXTURES:
        assert tokenize(normalize(text)) == oracle_tokenize(normalize(text)), text


def test_tokenize_no_empty_tokens_random():
    rng = random.Random(1234)
    alphabet = "ابتجد aeز?!.،؟ \t\nًـxyz19٣"
    for _ in range(300):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randrange(0, 40)))
        tokens = tokenize(normalize(text))
        assert all(tokens), text
        assert all(not any(ch.isspace() for ch in t) for t in tokens)


def test_token_count_stable_under_renormalization():
    rng = random.Random(99)
    alphabet = "ابتجد aeز?!.،؟ ًـxyz"
    for _ in range(200):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randrange(0, 30)))
        once = normalize(text)
        assert len(tokenize(once)) == len(tokenize(normalize(once)))


def test_roundtrip_spaces():
    text = normalize("قال : نعم ، بالتأكيد .")
    tokens = tokenize(text)
    # single-space concatenation re-tokenizes identically
    assert tokenize(" ".join(tokens)) == tokens


def test_word_count_reports_both_conventions():
    ws, tok = textnorm.word_count("جدا....")
    assert ws == 1
    assert tok == 2
