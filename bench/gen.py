"""Seeded generator of synthetic aldikit inputs, with a ledger of what it made.

One call to :func:`generate` writes every input file a workload needs into a
directory and returns a ledger: the counts that a correct build of those
files must report (groups, kept, discarded, discard categories, agreement
items, distinct keys, lexicon size, segments). The ledger is derived from
what the generator decided, never from running aldikit, so it is an
independent check of the program's outputs.

Files written (all UTF-8, LF):

- ``hits.tsv``: HIT export in the shipped 77-column layout, one line per
  worker pass over 10 comments and 2 controls.
- ``msa.txt``: MSA corpus, one line per sentence, for ``build-lexicon``.
- ``transcript.html``: saved transcript with one ``<p>`` per segment.

The same (workload, seed) always gives the same bytes.
"""

from __future__ import annotations

import json
import random
import sys
from collections import Counter
from itertools import accumulate
from dataclasses import dataclass
from pathlib import Path

SOURCES = ("AlGhad", "AlRiyadh", "Youm7")
SOURCE_SPELLINGS = {
    "AlGhad": ("AlGhad", "alghad", "Ghad"),
    "AlRiyadh": ("AlRiyadh", "riyadh"),
    "Youm7": ("Youm7", "alyoum7"),
}
ORDINAL = ("MSA", "Little", "Mixed", "Most")
LEVEL_SPELLINGS = {
    "MSA": ("MSA", "msa"),
    "Little": ("Little", "little dialectal"),
    "Mixed": ("Mixed", "mixed"),
    "Most": ("Most", "mostly dialectal"),
    "NotArabic": ("NotArabic", "not arabic"),
    "Missing": ("", "missing"),
}
DIALECTS = ("EGY", "LEV", "GLF", "MAG", "IRQ")
JUNK_LEVELS = ("NotArabic", "Missing")
DISCARD_CATEGORIES = (
    "UrlOrEmail", "HtmlArtifacts", "Symbols", "Arabizi", "English", "Other"
)
# Share of a comment's words drawn from the dialect vocabulary, by level.
DIALECT_SHARE = {"MSA": 0.03, "Little": 0.15, "Mixed": 0.4, "Most": 0.7}
# Roughly the paper's comment level mix (MSA, Little, Mixed, Most).
LEVEL_MIX = (0.56, 0.24, 0.13, 0.07)

LETTERS = [chr(c) for c in range(0x0621, 0x063B)] + [
    chr(c) for c in range(0x0641, 0x064B)
]
LETTER_SET = frozenset(LETTERS)
DIACRITICS = [chr(c) for c in range(0x064B, 0x0653)]
TATWEEL = "ـ"
SYMBOLS = "!?.,;:؟،*@$%^()~+="
LATIN = "abcdefghijklmnoprstuwyz"

COLUMNS = 77


@dataclass(frozen=True)
class Sizes:
    """Input sizes of one workload."""

    tasks: int  # 10-comment tasks; each is done by 3 (sometimes 4-5) workers
    variants: bool  # every annotation gets its own raw form of the text
    corpus_lines: int
    corpus_words: tuple[int, int]
    paragraphs: int
    paragraph_words: tuple[int, int]


WORKLOADS = {
    "aoc": Sizes(800, False, 2500, (60, 160), 1500, (30, 90)),
    "variants": Sizes(800, True, 2500, (60, 160), 1500, (30, 90)),
}


class _Vocab:
    """Synthetic Arabic-letter words with Zipf-like sampling weights."""

    def __init__(self, rng: random.Random, size: int, taken: set[str]):
        words = []
        while len(words) < size:
            word = "".join(rng.choice(LETTERS) for _ in range(rng.randint(2, 7)))
            if word not in taken:
                taken.add(word)
                words.append(word)
        self.words = words
        self.cum = list(accumulate(1.0 / (rank + 3) for rank in range(size)))

    def sample(self, rng: random.Random, k: int) -> list[str]:
        return rng.choices(self.words, cum_weights=self.cum, k=k)


class _Generator:
    def __init__(self, seed: int, sizes: Sizes):
        self.sizes = sizes
        # Structure and raw-form choices draw from separate streams, so
        # `aoc` and `variants` with one seed share their normalized groups.
        self.rng = random.Random("aldibench:%d:structure" % seed)
        self.var_rng = random.Random("aldibench:%d:variants" % seed)
        taken: set[str] = set()
        self.msa = _Vocab(self.rng, 4000, taken)
        self.dialect = _Vocab(self.rng, 900, taken)
        self.oov = _Vocab(self.rng, 2000, taken)
        self.used_raw: set[str] = set()

    # -- texts -------------------------------------------------------------

    def sentence(self, level: str, lo: int, hi: int) -> str:
        rng = self.rng
        n = rng.randint(lo, hi)
        words = self.msa.sample(rng, n)
        # randomized rounding keeps the expected dialect and OOV shares
        n_dialect = int(DIALECT_SHARE[level] * n + rng.random())
        n_oov = min(n - n_dialect, int(0.04 * n + rng.random()))
        slots = rng.sample(range(n), n_dialect + n_oov)
        for slot, word in zip(slots, self.dialect.sample(rng, n_dialect)
                              + self.oov.sample(rng, n_oov)):
            words[slot] = word
        return " ".join(words)

    def junk(self, category: str) -> str:
        """A text that aldikit's discard taxonomy files under ``category``.

        Every junk text has at least six internal spaces, so whitespace
        variants can give each annotation its own raw form.
        """
        rng = self.rng

        def latin_word(digits: bool) -> str:
            word = "".join(rng.choice(LATIN) for _ in range(rng.randint(3, 7)))
            if digits:
                pos = rng.randint(0, len(word))
                word = word[:pos] + rng.choice("2357") + word[pos:]
            return word

        def msa(k: int) -> str:
            return " ".join(self.msa.sample(rng, k))

        if category == "UrlOrEmail":
            return "%s http://site%d.example.com/p/%s %s" % (
                msa(2), rng.randint(1, 999), latin_word(True), msa(4))
        if category == "HtmlArtifacts":
            return "&#%d; %s </div> %s" % (rng.randint(1569, 1610), msa(2), msa(3))
        if category == "Symbols":
            return " ".join(
                "".join(rng.choice(SYMBOLS) for _ in range(rng.randint(2, 5)))
                for _ in range(rng.randint(7, 10))
            )
        if category == "Arabizi":
            words = [latin_word(rng.random() < 0.5) for _ in range(rng.randint(7, 10))]
            words[0] = latin_word(True)
            return " ".join(words)
        if category == "English":
            return " ".join(latin_word(False) for _ in range(rng.randint(7, 10)))
        return self.sentence("MSA", 7, 12)

    def variant(self, text: str, arabic: bool) -> str:
        """A raw form of ``text`` that normalizes back to ``text``.

        Arabic texts gain diacritics, tatweel and doubled spaces; other texts
        only doubled spaces, because a tatweel or mark inside a Latin or
        symbol token would change how the text is categorized. Raw forms are
        unique within one generated file.
        """
        rng = self.var_rng
        for attempt in range(64):
            out = []
            for ch in text:
                if ch == " ":
                    out.append(" " * (1 + (rng.random() < 0.3 + 0.01 * attempt)
                                      + (rng.random() < 0.1)))
                    continue
                out.append(ch)
                if arabic and ch in LETTER_SET:
                    u = rng.random()
                    if u < 0.12:
                        out.append(rng.choice(DIACRITICS))
                    elif u < 0.16:
                        out.append(TATWEEL)
            raw = "".join(out)
            if raw not in self.used_raw:
                self.used_raw.add(raw)
                return raw
        raise RuntimeError("no unused raw form left for %r" % text)

    # -- HIT export ----------------------------------------------------------

    def annotate(self, level: str, dialect: str | None) -> tuple[str, str]:
        rng = self.rng
        u = rng.random()
        if u < 0.012:
            return "NotArabic", ""
        if u < 0.022:
            return "Missing", ""
        index = ORDINAL.index(level)
        v = rng.random()
        if v < 0.64:
            pass
        elif v < 0.94:
            index += rng.choice((-1, 1))
        else:
            index += rng.choice((-2, 2))
        got = ORDINAL[min(3, max(0, index))]
        if got == "MSA":
            return got, ""
        if dialect is None or rng.random() < 0.15:
            return got, rng.choice(DIALECTS + ("GEN",))
        return got, dialect

    def hits(self, ledger: "Ledger") -> list[str]:
        rng = self.rng
        sizes = self.sizes
        per_source = max(4, sizes.tasks // 6)
        articles = {
            source: ["%s-%05d" % (source[:2].lower(), i) for i in range(per_source)]
            for source in SOURCES
        }
        controls = {}
        for source in SOURCES:
            for article in articles[source]:
                controls[(source, article)] = [
                    self.sentence("MSA", 12, 25) for _ in range(3)
                ]
        popular = [self.sentence(rng.choice(ORDINAL), 2, 5) for _ in range(200)]
        comments_of: dict[tuple[str, str], list[tuple]] = {}
        workers = ["W%05d" % i for i in range(max(10, sizes.tasks // 4))]
        residences = ("JO", "EG", "SA", "MA", "IQ", "US")
        lines = []
        for task in range(sizes.tasks):
            source = rng.choice(SOURCES)
            pair = rng.sample(articles[source], 2)
            cells = []  # (article, kind, base, category, level, dialect, shown)
            for slot in range(10):
                article = pair[slot % 2]
                earlier = comments_of.setdefault((source, article), [])
                u = rng.random()
                if u < 0.045:
                    category = rng.choice(DISCARD_CATEGORIES)
                    comment = (self.junk(category), category, None, None)
                    earlier.append(comment)
                elif u < 0.1 and earlier:
                    comment = rng.choice(earlier)
                elif u < 0.22:
                    comment = (rng.choice(popular), None, rng.choice(ORDINAL),
                               rng.choice(DIALECTS))
                    earlier.append(comment)
                else:
                    level = rng.choices(ORDINAL, weights=LEVEL_MIX)[0]
                    comment = (self.sentence(level, 3, 14), None, level,
                               None if level == "MSA" else rng.choice(DIALECTS))
                    earlier.append(comment)
                base, category, level, dialect = comment
                shown = base
                # drawn in both modes so `aoc` and `variants` stay in step
                if rng.random() < 0.12 and not sizes.variants:
                    shown = self.variant(base, category in (None, "Other"))
                cells.append((article, "comment", base, category, level, dialect,
                              shown))
            for slot, article in enumerate(pair):
                base = rng.choice(controls[(source, article)])
                cells.insert(4 + 6 * slot, (article, "control", base, None, "MSA",
                                            None, base))
            n_workers = 3 if rng.random() < 0.9 else rng.choice((4, 4, 5))
            for worker in rng.sample(workers, n_workers):
                fields = [
                    "T%06d" % task, worker, rng.choice(residences),
                    rng.choice(("yes", "yes", "no", "")),
                    rng.choice(DIALECTS),
                ]
                for article, kind, base, category, level, dialect, shown in cells:
                    if category is not None:
                        got = rng.choice(JUNK_LEVELS)
                        got_dialect = ""
                    elif kind == "control":
                        got = "MSA" if rng.random() < 0.95 else "Little"
                        got_dialect = "" if got == "MSA" else rng.choice(DIALECTS)
                    else:
                        got, got_dialect = self.annotate(level, dialect)
                    raw = (
                        self.variant(base, category in (None, "Other"))
                        if sizes.variants else shown
                    )
                    spelled_source = rng.choice(SOURCE_SPELLINGS[source])
                    spelled_level = rng.choice(LEVEL_SPELLINGS[got])
                    fields.extend((spelled_source, article, kind, raw, spelled_level,
                                   got_dialect))
                    ledger.add_annotation(source, article, base, raw, category,
                                          got)
                assert len(fields) == COLUMNS
                lines.append("\t".join(fields))
                ledger.hits += 1
        return lines

    # -- corpus, transcript --------------------------------------------------

    def corpus(self, ledger: "Ledger") -> list[str]:
        rng = self.rng
        lo, hi = self.sizes.corpus_words
        lines = []
        for _ in range(self.sizes.corpus_lines):
            words = self.msa.sample(rng, rng.randint(lo, hi))
            tokens = []
            parts = []
            for i, word in enumerate(words):
                tokens.append(word)
                shown = word
                if rng.random() < 0.05:
                    pos = rng.randint(1, len(word))
                    shown = word[:pos] + rng.choice(DIACRITICS) + word[pos:]
                # a comma on the last word would fuse with the final period
                if i < len(words) - 1 and rng.random() < 0.04:
                    shown += "،"
                    tokens.append("،")
                parts.append(shown)
            line = " ".join(parts) + "."
            tokens.append(".")
            ledger.corpus_tokens.update(tokens)
            lines.append(line)
        return lines

    def distinct_sentences(self, count: int, bounds: tuple[int, int]) -> list[str]:
        rng = self.rng
        seen = set()
        out = []
        while len(out) < count:
            text = self.sentence(rng.choices(ORDINAL, weights=LEVEL_MIX)[0], *bounds)
            if text not in seen:
                seen.add(text)
                out.append(text)
        return out

    def transcript(self) -> str:
        rng = self.rng
        parts = [
            "<!DOCTYPE html>",
            "<html><head><title>transcript</title>",
            "<style>p { margin: 0 }</style></head><body>",
            "<script>var skipped = 1;</script>",
        ]
        for text in self.distinct_sentences(self.sizes.paragraphs,
                                            self.sizes.paragraph_words):
            words = text.split(" ")
            u = rng.random()
            if u < 0.2 and len(words) > 2:
                words[1] = "<b>%s</b>" % words[1]
            elif u < 0.3:
                words.append("&amp;")
            parts.append("<p>%s</p>" % " ".join(words))
            if rng.random() < 0.1:
                parts.append("<div>%s</div>" % self.msa.sample(rng, 1)[0])
        parts.append("</body></html>")
        return "\n".join(parts) + "\n"


class Ledger:
    """What a correct build of the generated files must report."""

    def __init__(self):
        self.hits = 0
        self.rows_per_source: Counter = Counter()
        self.groups: dict[tuple[str, str, str], list] = {}
        self.raw_keys: set[tuple[str, str, str]] = set()
        self.raw_texts: set[str] = set()
        self.corpus_tokens: Counter = Counter()
        self.segments = 0
        self.input_bytes = 0

    def add_annotation(self, source, article, base, raw, category, level):
        self.rows_per_source[source] += 1
        group = self.groups.setdefault((source, article, base), [category, []])
        group[1].append(level)
        self.raw_keys.add((source, article, raw))
        self.raw_texts.add(raw)

    def summary(self, min_count: int = 2) -> dict:
        kept = discarded = more_than_three = items = 0
        categories = Counter()
        for category, levels in self.groups.values():
            junk = sum(1 for level in levels if level in JUNK_LEVELS)
            if 3 * junk >= 2 * len(levels):
                discarded += 1
                categories[category or "Other"] += 1
            else:
                kept += 1
            if len(levels) > 3:
                more_than_three += 1
            if len(levels) == 3 and junk == 0:
                items += 1
        rows = sum(self.rows_per_source.values())
        return {
            "hits": self.hits,
            "rows": rows,
            "rows_per_source": dict(sorted(self.rows_per_source.items())),
            "groups": len(self.groups),
            "kept": kept,
            "discarded": discarded,
            "discard_categories": {c: categories[c] for c in DISCARD_CATEGORIES},
            "more_than_three_annotations": more_than_three,
            "agreement_items": items,
            "distinct_keys": {"normalized": len(self.groups),
                              "raw": len(self.raw_keys)},
            "distinct_raw_texts": len(self.raw_texts),
            "lexicon_tokens": sum(
                1 for c in self.corpus_tokens.values() if c >= min_count),
            "lexicon_distinct_seen": len(self.corpus_tokens),
            "segments": self.segments,
            "input_bytes": self.input_bytes,
        }


def _write(path: Path, text: str) -> int:
    data = text.encode("utf-8")
    path.write_bytes(data)
    return len(data)


def generate(sizes: Sizes, seed: int, out_dir: str | Path) -> dict:
    """Write one workload's inputs into ``out_dir``; return the ledger summary."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    gen = _Generator(seed, sizes)
    ledger = Ledger()
    ledger.input_bytes += _write(out_dir / "hits.tsv",
                                 "\n".join(gen.hits(ledger)) + "\n")
    ledger.input_bytes += _write(out_dir / "msa.txt",
                                 "\n".join(gen.corpus(ledger)) + "\n")
    ledger.segments = sizes.paragraphs
    ledger.input_bytes += _write(out_dir / "transcript.html", gen.transcript())
    return ledger.summary()


def main(argv: list[str]) -> int:
    """``gen.py WORKLOAD SEED OUT_DIR``: write the inputs, print the ledger."""
    workload, seed, out_dir = argv
    print(json.dumps(generate(WORKLOADS[workload], int(seed), out_dir)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
