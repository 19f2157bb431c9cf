import random
import sys
from collections import Counter
from pathlib import Path

import pytest

from aldikit import estimators
from aldikit.errors import FormatError, ProtocolError
from aldikit.estimators import (
    LexiconEstimator,
    PositionalEstimator,
    binary_di_score,
    build_lexicon,
    cmi_score,
    external_score,
    lexicon_score,
    load_lexicon,
    read_label_file,
    read_token_tag_file,
    save_lexicon,
)
from aldikit.textnorm import normalize, tokenize

DATA_DIR = Path(__file__).resolve().parent.parent / "src" / "aldikit" / "data"


# ---------------------------------------------------------------------------
# lexicon


def test_build_lexicon_threshold_two():
    lex, counts = build_lexicon(["a b a"], min_occurrences=2)
    assert lex == frozenset({"a"})
    assert counts["b"] == 1


def test_build_lexicon_threshold_one():
    lex, _ = build_lexicon(["a b a"], min_occurrences=1)
    assert lex == frozenset({"a", "b"})


@pytest.mark.parametrize(
    "corpus, message",
    [
        ([], "at least 2 times (0 distinct tokens seen)"),
        (["  \u064e\u0640 ", ""], "at least 2 times (0 distinct tokens seen)"),
        (["a b", "c"], "at least 2 times (3 distinct tokens seen)"),
    ],
    ids=["empty", "no-tokens", "all-below-threshold"],
)
def test_build_lexicon_empty_corpus_raises(corpus, message):
    with pytest.raises(FormatError) as excinfo:
        build_lexicon(corpus, min_occurrences=2)
    assert message in str(excinfo.value)


# Words repeat across lines so counts exceed 1; every class tokenize and
# normalize tell apart occurs inside them.
_WORD_PARTS = [
    "كتب", "الوزير", "جدا", "\u064e", "\u0651", "\u0652", "\u0640", "\u0640\u0640",
    "...", "؟؟", "!", "،", "«", "»", "%", "-", "abc", "Zamalek", "7", "١٩",
    "e\u0301",
]
_SPACES = [" ", "  ", "\t", "\u00a0", "\u3000"]


def test_build_lexicon_counts_match_token_oracle_random():
    rng = random.Random(20231023)
    vocab = [
        "".join(rng.choice(_WORD_PARTS) for _ in range(rng.randrange(1, 4)))
        for _ in range(40)
    ]
    for _ in range(200):
        lines = [
            "".join(
                rng.choice(vocab) + rng.choice(_SPACES)
                for _ in range(rng.randrange(0, 12))
            )
            for _ in range(rng.randrange(0, 8))
        ]
        expected = Counter(t for line in lines for t in tokenize(normalize(line)))
        if not expected:
            with pytest.raises(FormatError):
                build_lexicon(lines, min_occurrences=1)
            continue
        lex, counts = build_lexicon(lines, min_occurrences=1)
        assert counts == expected
        assert lex == frozenset(expected)


def test_build_lexicon_normalizes_tokens():
    lex, _ = build_lexicon(["كتَب كتب"], min_occurrences=2)
    assert "كتب" in lex


def test_lexicon_roundtrip(tmp_path):
    lex, _ = build_lexicon(["a b a c c"], min_occurrences=2)
    path = tmp_path / "lex.txt"
    save_lexicon(lex, 2, path)
    assert load_lexicon(path) == lex
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines == ["#aldi-lexicon v1 min_count=2", "a", "c"]
    # a lexicon built elsewhere may carry a count after each token
    with_counts = tmp_path / "counts.txt"
    with_counts.write_text(
        "#aldi-lexicon v1 min_count=2\na\t2\nc\t2\n", encoding="utf-8"
    )
    assert load_lexicon(with_counts) == lex


def test_load_lexicon_rejects_header_only_file(tmp_path):
    path = tmp_path / "lex.txt"
    path.write_text("#aldi-lexicon v1 min_count=2\n\n", encoding="utf-8")
    with pytest.raises(FormatError, match="no tokens"):
        load_lexicon(path)


def test_load_lexicon_rejects_other_files(tmp_path):
    path = tmp_path / "notlex.txt"
    path.write_text("token\n", encoding="utf-8")
    with pytest.raises(FormatError, match="header"):
        load_lexicon(path)


def test_load_lexicon_rejects_an_unreadable_min_count(tmp_path):
    path = tmp_path / "lex.txt"
    path.write_text("#aldi-lexicon v1 min_count=abc\na\n", encoding="utf-8")
    with pytest.raises(FormatError) as excinfo:
        load_lexicon(path)
    assert str(excinfo.value) == "%s: unreadable min_count" % path


def test_lexicon_score_fraction():
    lex = frozenset({"a", "b", "c"})
    assert lexicon_score("a b c x", lex) == 0.25
    assert lexicon_score("a b", lex) == 0.0
    assert lexicon_score("x y", lex) == 1.0


def test_lexicon_score_empty_sentence_errors():
    lex = frozenset({"a"})
    with pytest.raises(FormatError, match="empty"):
        lexicon_score("   ", lex)


def test_lexicon_score_passive_pair():
    # feature pair scored against a lexicon missing only the dialectal verb
    lex = frozenset({"قيلت", "الحقيقة"})
    assert lexicon_score("اتقالت الحقيقة", lex) == 0.5
    assert lexicon_score("قيلت الحقيقة", lex) == 0.0


def test_lexicon_score_antitone_under_growth():
    rng = random.Random(42)
    vocab = ["توكن%d" % i for i in range(30)]
    for _ in range(100):
        sentence = " ".join(rng.choice(vocab) for _ in range(rng.randrange(1, 12)))
        small_tokens = frozenset(rng.sample(vocab, rng.randrange(0, 20)))
        grown = small_tokens | frozenset(rng.sample(vocab, rng.randrange(0, 20)))
        assert lexicon_score(sentence, grown) <= lexicon_score(sentence, small_tokens)


# ---------------------------------------------------------------------------
# binary sentence DI


def test_binary_di_values():
    assert binary_di_score("MSA") == 0.0
    assert binary_di_score("EGY") == 1.0
    assert binary_di_score("GLF") == 1.0


def test_binary_di_unknown_label():
    with pytest.raises(FormatError, match="XYZ"):
        binary_di_score("XYZ")
    with pytest.raises(FormatError):
        binary_di_score("")


# ---------------------------------------------------------------------------
# CMI


def test_cmi_formula():
    assert cmi_score(["EGY", "EGY", "MSA", "NamedEntity"]) == pytest.approx(2 / 3)
    assert cmi_score(["NamedEntity", "Other"]) == 0.0
    assert cmi_score(["MSA", "MSA"]) == 0.0


def test_cmi_unknown_tag():
    with pytest.raises(FormatError, match="FOO"):
        cmi_score(["MSA", "FOO"])


def test_cmi_permutation_and_padding_invariance():
    rng = random.Random(314)
    neutral = ["NamedEntity", "Ambiguous", "Mixed", "Other"]
    for _ in range(200):
        tags = [rng.choice(["MSA", "EGY"]) for _ in range(rng.randrange(1, 10))]
        base = cmi_score(tags)
        shuffled = rng.sample(tags, len(tags))
        assert cmi_score(shuffled) == pytest.approx(base, abs=0)
        padded = list(tags)
        for _ in range(rng.randrange(0, 5)):
            padded.insert(rng.randrange(len(padded) + 1), rng.choice(neutral))
        assert cmi_score(padded) == pytest.approx(base, abs=0)


def test_read_token_tag_file(tmp_path):
    path = tmp_path / "tags.tsv"
    path.write_text(
        "انا\tEGY\nاقول\tEGY\nالحقيقة\tMSA\n\nمصر\tNE\nجميلة\tmsa\n",
        encoding="utf-8",
    )
    sentences = read_token_tag_file(path)
    assert len(sentences) == 2
    assert [tag for _, tag in sentences[0]] == ["EGY", "EGY", "MSA"]
    assert [tag for _, tag in sentences[1]] == ["NamedEntity", "MSA"]


def test_read_token_tag_file_matches_an_oracle_random(tmp_path):
    """Runs of blank or whitespace-only lines end a sentence, with any line
    end; a broken line is named by its number in the file."""
    rng = random.Random("token-tags")
    aliases = sorted(estimators._TAG_ALIASES.items())
    path = tmp_path / "tags.tsv"
    for case in range(150):
        expected, out = [], []
        for _ in range(rng.randrange(0, 6)):
            gap = rng.randrange(1 if out else 0, 4)
            out += [rng.choice(["", " ", "\t", " \t "]) for _ in range(gap)]
            expected.append([])
            for _ in range(rng.randrange(1, 5)):
                alias, tag = rng.choice(aliases)
                token = rng.choice(["كلمة", "x", " y ", ""])
                out.append(token + "\t" + rng.choice([alias, alias.upper(), " %s " % alias]))
                expected[-1].append((token, tag))
        end = rng.choice(["\n", "\r\n", "\r"])
        path.write_bytes((end.join(out) + rng.choice(["", end])).encode("utf-8"))
        assert read_token_tag_file(path) == expected, case
        if expected:
            j = rng.choice([j for j, line in enumerate(out) if line.strip()])
            out[j], message = rng.choice([
                ("a\tMSA\tx", "must be 'token<TAB>tag'"), ("a", "must be 'token<TAB>tag'"),
                ("a\tBOGUS", "has unknown tag 'BOGUS'"),
            ])
            path.write_bytes(end.join(out).encode("utf-8"))
            with pytest.raises(FormatError) as excinfo:
                read_token_tag_file(path)
            assert str(excinfo.value) == "%s: line %d %s" % (path, j + 1, message)


def test_read_token_tag_file_errors(tmp_path):
    path = tmp_path / "tags.tsv"
    path.write_text("توكن بلا تاغ\n", encoding="utf-8")
    with pytest.raises(FormatError, match="line 1"):
        read_token_tag_file(path)
    path.write_text("توكن\tBOGUS\n", encoding="utf-8")
    with pytest.raises(FormatError, match="BOGUS"):
        read_token_tag_file(path)


# ---------------------------------------------------------------------------
# external scorer protocol


def test_external_identity_scorer():
    scorer = (
        sys.executable,
        "-c",
        "import sys\n[sys.stdout.write('0.11\\n') for _ in sys.stdin]\n",
    )
    scores = external_score(["جملة"], scorer)
    assert scores == [0.11]


def test_external_clipping():
    scorer = (
        sys.executable,
        "-c",
        "import sys\nvals=['0.0','1.2','-0.5']\n"
        "[sys.stdout.write(vals.pop(0)+'\\n') for _ in sys.stdin]\n",
    )
    scores = external_score(["a", "b", "c"], scorer)
    assert scores == [0.0, 1.0, 0.0]


def test_external_count_mismatch():
    scorer = (sys.executable, "-c", "import sys\nsys.stdin.read()\nprint('0.5')\n")
    with pytest.raises(ProtocolError, match="1 lines for 3"):
        external_score(["a", "b", "c"], scorer)


def test_external_non_numeric_line():
    scorer = (
        sys.executable,
        "-c",
        "import sys\nsys.stdin.read()\nprint('0.5')\nprint('oops')\n",
    )
    with pytest.raises(ProtocolError, match="line 2"):
        external_score(["a", "b"], scorer)


def test_external_nonzero_exit():
    scorer = (sys.executable, "-c", "import sys\nsys.exit(9)\n")
    with pytest.raises(ProtocolError, match="status 9"):
        external_score(["a"], scorer)


def test_external_batching_preserves_order():
    scorer = (
        sys.executable,
        "-c",
        "import sys\n"
        "for line in sys.stdin:\n"
        "    print(len(line.strip()) / 10.0)\n",
    )
    sentences = ["a", "bb", "ccc", "dddd", "eeeee"]
    assert external_score(sentences, scorer, batch_size=2) == [0.1, 0.2, 0.3, 0.4, 0.5]


# ---------------------------------------------------------------------------
# batch adapters and the shipped parallel fixture


def test_estimator_outputs_in_range_random():
    rng = random.Random(8)
    lex = frozenset({"كلمة%d" % i for i in range(10)})
    est = LexiconEstimator(lex)
    sentences = [
        " ".join("كلمة%d" % rng.randrange(20) for _ in range(rng.randrange(1, 8)))
        for _ in range(100)
    ]
    assert all(0.0 <= s <= 1.0 for s in est.score_many(sentences))


def test_binary_estimator_alignment():
    est = PositionalEstimator("binary-di", ["MSA", "EGY"])
    assert est.score_many(["x", "y"]) == [0.0, 1.0]
    with pytest.raises(FormatError, match="2 DI labels for 1"):
        est.score_many(["x"])


def test_cmi_estimator_alignment():
    est = PositionalEstimator("cmi", [["MSA", "EGY"]])
    assert est.score_many(["جملة"]) == [0.5]
    with pytest.raises(FormatError, match="1 tag sequences for 2"):
        est.score_many(["a", "b"])


def test_read_label_file(tmp_path):
    path = tmp_path / "labels.txt"
    path.write_text("MSA\nEGY\n\nGLF\n", encoding="utf-8")
    assert read_label_file(path) == ["MSA", "EGY", "GLF"]


def test_parallel_fixture_da_scores_above_msa():
    pairs = []
    with open(DATA_DIR / "parallel_msa_da_50.tsv", encoding="utf-8") as fh:
        header = fh.readline()
        assert header.rstrip("\n") == "msa\tda"
        for line in fh:
            msa, da = line.rstrip("\n").split("\t")
            pairs.append((msa, da))
    assert len(pairs) == 50
    lex, _ = build_lexicon((msa for msa, _ in pairs), min_occurrences=2)
    assert all(
        lexicon_score(da, lex) > lexicon_score(msa, lex) for msa, da in pairs
    )
