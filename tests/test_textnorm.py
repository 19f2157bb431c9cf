import itertools
import random
import re
import sys
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


def reference_normalize(text: str) -> str:
    """The normalization rules applied one pass each: NFC, strip tashkeel and
    tatweel, NFC again, collapse whitespace runs, trim."""
    out = unicodedata.normalize("NFC", text)
    out = re.sub("[\u064b-\u0652]", "", out).replace("\u0640", "")
    out = unicodedata.normalize("NFC", out)
    return re.sub(r"\s+", " ", out).strip()


WHITESPACE = [chr(cp) for cp in range(sys.maxunicode + 1) if chr(cp).isspace()]

# Every class the tokenizer and normalizer tell apart, plus the characters
# where they could disagree with the references.
PROPERTY_ALPHABET = (
    WHITESPACE
    + list("ابتجدزكلمنهويءآأإةى")  # Arabic letters
    + ["\u0653", "\u0654", "\u0655", "\u0670"]  # marks that survive
    + [chr(cp) for cp in range(0x064B, 0x0653)]  # tashkeel
    + ["\u0640"]  # tatweel
    + list("٠١٢٣٤٥٦٧٨٩0123456789")
    + list(".,!?-():;'\"")  # ASCII punctuation
    + list("،؛؟٪")  # Arabic punctuation
    + list("%=«»+$")  # symbols and quotes
    + ["\u200c"]  # ZWNJ
    + list("abcXYZ")
    + ["e\u0301"]  # decomposed letter that NFC composes
)


def random_text(rng: random.Random, max_len: int = 30) -> str:
    return "".join(
        rng.choice(PROPERTY_ALPHABET) for _ in range(rng.randrange(0, max_len))
    )


# Characters that NFC leaves alone and normalize neither strips nor splits on.
CLEAN_ALPHABET = (
    list("ابتجدزكلمنهويءآأإةى")
    + list("٠١٢٣٤٥٦٧٨٩0123456789")
    + list(".,!?-():;'\"،؛؟٪%=«»+$")
    + list("abcXYZ\xe9")
)
MARKS = [chr(cp) for cp in range(0x064B, 0x0653)] + ["\u0640"]  # tashkeel, tatweel


def clean_text(rng: random.Random) -> str:
    """Single-spaced words, already normalized."""
    words = [
        "".join(rng.choice(CLEAN_ALPHABET) for _ in range(rng.randrange(1, 8)))
        for _ in range(rng.randrange(1, 8))
    ]
    return " ".join(words)


def insert(rng: random.Random, text: str, piece: str) -> str:
    at = rng.randrange(len(text) + 1)
    return text[:at] + piece + text[at:]


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


def test_tokenize_matches_oracle_random():
    rng = random.Random(20231020)
    for _ in range(3000):
        text = random_text(rng)
        assert tokenize(text) == oracle_tokenize(text), repr(text)
        once = normalize(text)
        assert tokenize(once) == oracle_tokenize(once), repr(text)


def test_normalize_matches_reference_random():
    rng = random.Random(20231021)
    for _ in range(3000):
        text = random_text(rng)
        assert normalize(text) == reference_normalize(text), repr(text)
    # clean text with one piece inserted sits at the edge of each fast path
    pieces = [MARKS, WHITESPACE, [" "], ["\u0627" + mark + "\u0653" for mark in MARKS]]
    rng = random.Random(20231023)
    for _ in range(3000):
        text = insert(rng, clean_text(rng), rng.choice(rng.choice(pieces)))
        assert normalize(text) == reference_normalize(text), repr(text)


def test_normalize_matches_reference_on_fixtures():
    # alef + tatweel + madda composes only after the tatweel is gone
    extra = ["آَبرز", "ابـــدا", "كتَب", "اـٓ", "\u3000ا\u0085ب\xa0"]
    for text in TOKENIZE_FIXTURES + extra:
        assert normalize(text) == reference_normalize(text), repr(text)


def test_no_alphanumeric_character_is_punctuation_or_symbol():
    # tokenize keeps an all-alphanumeric word whole; that equals the
    # character-class rule only while this holds.
    clashes = [
        "U+%04X" % cp
        for cp in range(sys.maxunicode + 1)
        if chr(cp).isalnum() and unicodedata.category(chr(cp))[0] in ("P", "S")
    ]
    assert clashes == []


def test_no_whitespace_character_but_space_is_printable():
    # normalize returns printable text with no double or edge space as it is;
    # that equals collapsing whitespace runs only while this holds.
    printable = ["U+%04X" % ord(ch) for ch in WHITESPACE if ch.isprintable()]
    assert printable == ["U+0020"]


def test_normalize_returns_clean_text_itself():
    rng = random.Random(20231022)
    for _ in range(500):
        text = clean_text(rng)
        assert reference_normalize(text) == text, repr(text)
        assert normalize(text) is text, repr(text)
