"""Seeded property tests shared by the tab-separated input formats.

Each format builds random valid files with an oracle of their parsed value,
and breaks one line of a valid file with one fault. A file is written with
random blank lines, LF or CRLF line ends and an optional final newline; a
valid file must parse to the oracle's value, and a broken one must raise
FormatError naming the path and the broken line's number in the file.
"""

import json
import random
import re
from typing import Callable, NamedTuple

import pytest

from aldikit import cli, dataset, estimators, evaluation, ingest, pipeline, textnorm
from aldikit.errors import FormatError

# Cell text: no tab and no line end, but characters that str.splitlines
# takes for line ends, and other whitespace.
_TEXT = [*"كتب ابدا جدا؟!x7#", " ", "\x0b", "\x0c", "\x85", "\xa0", "\u2028"]
_SPLITS = ("train", "dev", "test")


def _text(rng: random.Random, low: int = 0) -> str:
    return "".join(rng.choice(_TEXT) for _ in range(rng.randrange(low, 12)))


def _widen_or_narrow(rng: random.Random, cells: list[str]) -> list[str]:
    """The cells with one removed or one more inserted."""
    cells = list(cells)
    if rng.random() < 0.5:
        del cells[rng.randrange(len(cells))]
    else:
        cells.insert(rng.randrange(len(cells) + 1), rng.choice(["", "extra"]))
    return cells


class Format(NamedTuple):
    # rng -> (header lines, data lines, the oracle's parsed value)
    valid: Callable
    read: Callable
    # kind -> fault(rng, data lines) -> (index of the line to replace, new line,
    # regex the message must match after "<path>: line <n> ")
    faults: dict
    # more readers that must refuse a faulty file with read's message
    also: tuple = ()


# --- dataset.tsv ------------------------------------------------------------

_DATASET_COLUMNS = ("kind", "aldi", "split", "text")


def _dataset_valid(rng):
    lines, expected = [], []
    for _ in range(rng.randrange(2, 25)):
        row = {name: _text(rng) for name in dataset.DATASET_HEADER}
        row.update(
            source=rng.choice(ingest.SOURCES),
            kind=rng.choice(ingest.KINDS),
            aldi=rng.choice(["", "0.000000", "0.333333", "1.000000"]),
            split=rng.choice(_SPLITS + ("",)),
        )
        lines.append("\t".join(row[name] for name in dataset.DATASET_HEADER))
        expected.append(tuple(row[name] for name in _DATASET_COLUMNS))
    return ["\t".join(dataset.DATASET_HEADER)], lines, expected


def _dataset_width(rng, lines):
    j = rng.randrange(len(lines))
    cells = _widen_or_narrow(rng, lines[j].split("\t"))
    return j, "\t".join(cells), r"has %d columns, expected 12$" % len(cells)


DATASET = Format(
    _dataset_valid,
    lambda path: pipeline.read_dataset_file(path, _DATASET_COLUMNS),
    {"width": _dataset_width},
)


# --- score files --------------------------------------------------------------

# Lines a score file skips: they take no id.
_SCORE_SKIPS = ("# note", "#", "#\tx", "  ", "\t")


def _scores_valid(rng):
    lines, expected = [], {}
    ids = rng.sample(range(100, 1000), 30)  # above every ordinal
    for i in range(rng.randrange(2, 25)):
        if i and rng.random() < 0.2:
            lines.append(rng.choice(_SCORE_SKIPS))
            continue
        value = rng.choice([0.0, 1.0, rng.random(), -5 * rng.random()])
        text = rng.choice([repr(value), "%.6f" % value])
        if rng.random() < 0.5:
            key = 1 + sum(line not in _SCORE_SKIPS for line in lines)
            lines.append(text)
        else:
            key = ids.pop()
            lines.append("%d\t%s" % (key, text))
        expected[key] = float(text)
    return [], lines, expected


def _score_lines(lines):
    return [j for j, line in enumerate(lines) if line not in _SCORE_SKIPS]


def _scores_extra_cell(rng, lines):
    j = rng.choice(_score_lines(lines))
    middle = rng.choice(["junk", "0.5", ""])
    return j, "%d\t%s\t0.5" % (rng.randrange(1, 1000), middle), "is not 'id<TAB>score'$"


def _scores_not_numeric(rng, lines):
    j = rng.choice(_score_lines(lines))
    score = rng.choice(["abc", "1.2.3", "0x10", "1e", "--1", ".", ""])
    line = rng.choice(["%d\t%s" % (rng.randrange(1, 1000), score), score or "x"])
    return j, line, "is not 'id<TAB>score'$"


def _scores_repeated_id(rng, lines):
    scored = _score_lines(lines)
    i = rng.choice(scored[:-1] or scored)
    key = lines[i].split("\t")[0] if "\t" in lines[i] else str(scored.index(i) + 1)
    j = rng.randrange(i + 1, len(lines)) if i + 1 < len(lines) else None
    if j is None:  # no line after i: the repeat goes onto a new last line
        lines.append(_SCORE_SKIPS[0])
        j = len(lines) - 1
    return j, "%s\t0.25" % key, "repeats id %s$" % key


SCORES = Format(
    _scores_valid,
    pipeline.read_score_file,
    {"extra-cell": _scores_extra_cell, "not-numeric": _scores_not_numeric,
     "repeated-id": _scores_repeated_id},
)


# --- split assignment ---------------------------------------------------------


def _assignment_key(line):
    cells = line.split("\t")
    return tuple(cells[:2]) if len(cells) == 3 else cells[0]


def _assignment_valid(rng):
    header = rng.choice([[], ["source\tarticle_id\tsplit"], ["article_id\tsplit"]])
    lines, expected = [], {}
    for _ in range(rng.randrange(2, 25)):
        if rng.random() < 0.5:
            key = (rng.choice(ingest.SOURCES), "a%d" % rng.randrange(12))
        else:
            key = "a%d" % rng.randrange(12)
        split = expected.setdefault(key, rng.choice(_SPLITS))  # repeats keep it
        cell = rng.choice([split, split.upper(), " %s " % split.capitalize()])
        lines.append("\t".join([*key, cell] if isinstance(key, tuple) else [key, cell]))
    return header, lines, expected


def _assignment_width(rng, lines):
    j = rng.randrange(len(lines))
    cells = lines[j].split("\t")
    if rng.random() < 0.5:
        cells = cells[:1]
    else:
        cells = cells[:-1] + ["x"] * (4 - len(cells)) + cells[-1:]
    return j, "\t".join(cells), "must have 2 or 3 columns$"


def _assignment_unknown_split(rng, lines):
    j = rng.randrange(len(lines))
    token = rng.choice(["training", "valid", "", "tst", "dev?"])
    cells = lines[j].split("\t")[:-1] + [token]
    return j, "\t".join(cells), "has unknown split %s$" % re.escape(repr(token))


def _assignment_conflict(rng, lines):
    i = rng.randrange(len(lines) - 1)
    j = rng.randrange(i + 1, len(lines))
    cells = lines[i].split("\t")
    split = next(  # the split every line of this article gives
        line.split("\t")[-1].strip().lower()
        for line in lines if _assignment_key(line) == _assignment_key(lines[i])
    )
    other = rng.choice([s for s in _SPLITS if s != split])
    article = re.escape(repr(cells[-2]))
    line = "\t".join(cells[:-1] + [other])
    return j, line, "moves article %s from %s to %s$" % (article, split, other)


ASSIGNMENT = Format(
    _assignment_valid,
    dataset.load_assignment,
    {"width": _assignment_width, "unknown-split": _assignment_unknown_split,
     "conflicting-split": _assignment_conflict},
)


# --- contrastive pairs --------------------------------------------------------


def _pairs_valid(rng):
    """Pairs with distinct (feature_id, variant, word_order, gender) keys and
    texts that keep a letter, as read_pairs_file requires."""
    header = rng.choice([[], ["\t".join(evaluation.PAIRS_HEADER)]])
    keys = [
        ("f%d" % f, variant, order, gender)
        for f in range(9) for variant in evaluation.VARIANTS
        for order in ("SVO", "VSO") for gender in ("masc", "fem", "")
    ]
    pairs = [
        evaluation.ContrastivePair(*key, _text(rng) + rng.choice("كتبx") + _text(rng))
        for key in rng.sample(keys, rng.randrange(2, 25))
    ]
    return header, ["\t".join(p) for p in pairs], pairs


def _pairs_width(rng, lines):
    j = rng.randrange(len(lines))
    cells = _widen_or_narrow(rng, lines[j].split("\t"))
    return j, "\t".join(cells), r"has %d columns, expected 5$" % len(cells)


def _pairs_unknown_variant(rng, lines):
    j = rng.randrange(len(lines))
    cells = lines[j].split("\t")
    cells[1] = rng.choice(["msa", "Egy", "LEV", "", "MSA "])
    return j, "\t".join(cells), "has unknown variant %s$" % re.escape(repr(cells[1]))


def _pairs_empty_text(rng, lines):
    """A text of only whitespace, tashkeel and tatweel, which normalize drops."""
    j = rng.randrange(len(lines))
    cells = lines[j].split("\t")
    cells[4] = "".join(rng.choice(" \x0b\x85\u2028\u064e\u0651\u0640") for _ in range(4))
    return j, "\t".join(cells), "has an empty text$"


def _pairs_repeated(rng, lines):
    """A later line with an earlier line's key; its own text may differ."""
    m, j = sorted(rng.sample(range(len(lines)), 2))
    cells = lines[m].split("\t")
    cells[4] = rng.choice([cells[4], "x"])
    return j, "\t".join(cells), r"repeats line \d+$"


PAIRS = Format(
    _pairs_valid,
    evaluation.read_pairs_file,
    {"width": _pairs_width, "unknown-variant": _pairs_unknown_variant,
     "empty-text": _pairs_empty_text, "repeated": _pairs_repeated},
)


# --- lexicon --------------------------------------------------------------------


def _lexicon_valid(rng):
    min_count = rng.randrange(1, 9)
    tokens = [_text(rng, low=1) for _ in range(rng.randrange(2, 25))]
    lines = [t + rng.choice(["", "\t%d" % rng.randrange(1, 99)]) for t in tokens]
    header = "%s min_count=%d" % (estimators.LEXICON_MAGIC, min_count)
    return [header], lines, frozenset(tokens)


LEXICON = Format(_lexicon_valid, estimators.load_lexicon, {})  # its lines hold no fault


# --- sentence-DI labels ---------------------------------------------------------

# Lines a label file skips: blank after stripping.
_LABEL_SKIPS = (" ", "\t", "\x0b \xa0")


def _di_labels_valid(rng):
    lines, expected = [], []
    for _ in range(rng.randrange(2, 25)):
        if rng.random() < 0.15:
            lines.append(rng.choice(_LABEL_SKIPS))
            continue
        label = rng.choice(sorted(estimators.KNOWN_DI_LABELS))
        label = rng.choice([label, label.lower(), label.capitalize()])
        expected.append(label)
        lines.append(rng.choice(["", " ", "\xa0", "\t"]) + label + rng.choice(["", " "]))
    return [], lines, expected


def _di_labels_unknown(rng, lines):
    j = rng.randrange(len(lines))
    label = rng.choice(["XYZ", "msa?", "EGY LEV", "M SA", "Egyptian", "MSA\tEGY"])
    line = rng.choice(["", " "]) + label + rng.choice(["", "\t"])
    return j, line, "has unknown sentence-DI label %s$" % re.escape(repr(label))


def _binary_di_estimator(path):
    """score's, speech's and contrastive's binary-di estimator, built from
    the file as the CLI builds it."""
    return cli._ESTIMATORS["binary-di"][1](estimators, path, None)


DI_LABELS = Format(
    _di_labels_valid,
    estimators.read_di_labels,
    {"unknown-label": _di_labels_unknown},
    (_binary_di_estimator,),
)


# --- annotation rows ----------------------------------------------------------

# Annotation-row cells with a closed vocabulary, by column index.
_ROW_LABELS = {
    0: ("source", ingest.SOURCES),
    2: ("kind", ingest.KINDS),
    3: ("level", ingest.LEVELS),
    4: ("dialect", ingest.DIALECTS + ("",)),
    7: ("native_speaker", ("yes", "no", "")),
}


def _rows_valid(rng):
    lines, expected = [], []
    for _ in range(rng.randrange(2, 25)):
        cells = ["a%d" % rng.randrange(9), "w%d" % rng.randrange(9),
                 rng.choice(["", "JO", "EG"]), rng.choice(["", "LEV"]), _text(rng)]
        labels = {i: rng.choice(values) for i, (_, values) in _ROW_LABELS.items()}
        source, kind, level, dialect, native = labels.values()
        article, worker, residence, best, text = cells
        lines.append("\t".join(
            [source, article, kind, level, dialect, worker, residence, native, best, text]
        ))
        expected.append(ingest.AnnotationRow(
            source, article, kind, level, dialect, worker, residence, native, best, text,
        ))
    return ["\t".join(ingest.ROWS_HEADER)], lines, expected


def _rows_width(rng, lines):
    j = rng.randrange(len(lines))
    cells = _widen_or_narrow(rng, lines[j].split("\t"))
    return j, "\t".join(cells), r"has %d columns, expected 10$" % len(cells)


def _rows_unknown_label(rng, lines):
    j = rng.randrange(len(lines))
    cells = lines[j].split("\t")
    i = rng.choice(list(_ROW_LABELS))
    what, values = _ROW_LABELS[i]
    cells[i] = rng.choice([t for t in ("msa", "Comment", "MSA ", "?", "Yes", "")
                           if t not in values])
    return j, "\t".join(cells), "has unknown %s %s$" % (what, re.escape(repr(cells[i])))


def _build_nothing(path):
    """build-dataset as a rows reader: its raw-key count reads the file first
    and checks only the header, and a refused build creates no path."""
    out = path.parent / "out"
    try:
        pipeline.run_build_dataset(path, out, 0)
    finally:
        assert not out.exists()


ROWS = Format(
    _rows_valid,
    lambda path: list(ingest.read_rows(path)),
    {"width": _rows_width, "unknown-label": _rows_unknown_label},
    (_build_nothing,),
)


FORMATS = {
    "dataset": DATASET, "scores": SCORES, "assignment": ASSIGNMENT,
    "pairs": PAIRS, "lexicon": LEXICON, "rows": ROWS, "di-labels": DI_LABELS,
}


def _write(path, rng, header, lines, end):
    """Write the header on line 1, then the data lines with random blank lines
    before each; return each data line's number in the file."""
    out, numbers = list(header), []
    for line in lines:
        out += [""] * rng.choice([0, 0, 0, 1, 2])
        out.append(line)
        numbers.append(len(out))
    path.write_bytes((end.join(out) + rng.choice(["", end])).encode("utf-8"))
    return numbers


@pytest.mark.parametrize("name", FORMATS)
def test_valid_files_parse_to_the_oracle_with_lf_or_crlf(tmp_path, name):
    fmt = FORMATS[name]
    rng = random.Random("valid-" + name)
    for case in range(60):
        header, lines, expected = fmt.valid(rng)
        layout = rng.random()
        for end in ("\n", "\r\n"):
            path = tmp_path / ("%s%d.tsv" % (name, case))
            _write(path, random.Random(layout), header, lines, end)
            assert fmt.read(path) == expected, (case, end)


@pytest.mark.parametrize("name", [name for name in FORMATS if FORMATS[name].faults])
def test_one_fault_names_the_path_and_its_file_line(tmp_path, name):
    fmt = FORMATS[name]
    rng = random.Random("fault-" + name)
    seen = set()
    for case in range(90):
        header, lines, _ = fmt.valid(rng)
        kind = rng.choice(sorted(fmt.faults))
        seen.add(kind)
        j, lines[j], pattern = fmt.faults[kind](rng, lines)
        path = tmp_path / ("%s%d.tsv" % (name, case))
        numbers = _write(path, rng, header, lines, rng.choice(["\n", "\r\n"]))
        for read in (fmt.read, *fmt.also):
            with pytest.raises(FormatError) as excinfo:
                read(path)
            message = str(excinfo.value)
            prefix = "%s: line %d " % (path, numbers[j])
            assert message.startswith(prefix), (case, kind, message)
            assert re.search(pattern, message[len(prefix):]), (case, kind, message)
    assert seen == set(fmt.faults)


@pytest.mark.parametrize("name, message", [
    ("dataset", "not a dataset file"),
    ("lexicon", "not a lexicon file (bad header)"),
    ("rows", "missing or wrong annotation-row header"),
])
def test_a_required_header_must_be_line_1(tmp_path, name, message):
    fmt = FORMATS[name]
    header, lines, _ = fmt.valid(random.Random(name))
    path = tmp_path / "file.tsv"
    for text in ("", "\n", "\r\n".join(["", *header, *lines]), "\n".join(lines)):
        path.write_text(text, encoding="utf-8", newline="")
        for read in (fmt.read, *fmt.also):
            with pytest.raises(FormatError) as excinfo:
                read(path)
            assert str(excinfo.value) == "%s: %s" % (path, message)


_LINE_1_FAULTS = ("missing", "reordered", "extra", "bom", "blank")


def _wrong_first_lines(rng, fault):
    """Lines that leave anything but the rows header alone on line 1."""
    cells = list(ingest.ROWS_HEADER)
    if fault == "missing":
        return []
    if fault == "reordered":
        i, j = rng.sample(range(len(cells)), 2)
        cells[i], cells[j] = cells[j], cells[i]
    elif fault == "extra":
        cells.insert(rng.randrange(len(cells) + 1), rng.choice(["", "extra"]))
    elif fault == "bom":
        cells[0] = "\ufeff" + cells[0]
    return [""] * (fault == "blank") + ["\t".join(cells)]


def test_both_reads_of_rows_check_line_1_alike(tmp_path):
    """read_rows and build-dataset's raw-key count refuse the same first lines
    with the same message, and both take the header with any line end."""
    rng = random.Random("rows-line-1")
    path = tmp_path / "rows.tsv"
    message = "%s: missing or wrong annotation-row header" % path
    for case in range(60):
        _, lines, expected = _rows_valid(rng)
        fault = _LINE_1_FAULTS[case % len(_LINE_1_FAULTS)]
        end = rng.choice(["\n", "\r\n", "\r"])
        _write(path, rng, _wrong_first_lines(rng, fault), lines, end)
        for read in (ROWS.read, ingest.count_raw_keys):
            with pytest.raises(FormatError) as excinfo:
                read(path)
            assert str(excinfo.value) == message, (case, fault, read)
        end = ("\n", "\r\n", "\r")[case % 3]
        _write(path, rng, [_ROWS_HEADER], lines, end)
        assert ROWS.read(path) == expected, (case, end)
        keys = {(r.source, r.article_id, r.sentence_text) for r in expected}
        assert ingest.count_raw_keys(path) == (len(keys), len(lines)), (case, end)


# --- build-dataset's distinct keys ---------------------------------------------

# Tashkeel (fatha, shadda) and tatweel: a text with them added normalizes to
# the same text, so its rows join the same group under another raw key.
_MARKS = ("\u064e", "\u0651", "\u0640")
_ROWS_HEADER = "\t".join(ingest.ROWS_HEADER)


def _variant(rng, text):
    chars = list(text)
    for _ in range(rng.randrange(1, 4)):
        chars.insert(rng.randrange(len(chars) + 1), rng.choice(_MARKS))
    edge = rng.choice(["", " ", "  "])  # edge spaces are trimmed too
    return rng.choice([edge + "".join(chars), "".join(chars) + edge])


def _buildable_rows(rng):
    """Data lines of a rows file that builds, and each line's raw key: every
    text is annotated under two sources and three articles in each, the
    fewest articles a source can be split with."""
    texts = [_text(rng, 1) for _ in range(rng.randrange(1, 5))]
    rows = []
    for source in rng.sample(ingest.SOURCES, 2):
        for article in ("a1", "a2", "a3"):
            for text in texts:
                for worker in range(rng.randrange(1, 4)):
                    raw = text if rng.random() < 0.5 else _variant(rng, text)
                    level = rng.choice(("MSA", "Little", "Mixed", "Most"))
                    line = "\t".join([source, article, "comment", level, "",
                                      "w%d" % worker, "", "", "", raw])
                    rows.append((line, (source, article, raw)))
    rng.shuffle(rows)
    return [line for line, _ in rows], [key for _, key in rows]


def test_distinct_keys_count_raw_and_normalized_keys_with_lf_or_crlf(tmp_path):
    rng = random.Random("distinct-keys")
    shared = 0
    for case in range(40):
        lines, keys = _buildable_rows(rng)
        layout = rng.random()
        expected = {
            "raw": len(set(keys)),
            "normalized": len({(s, a, textnorm.normalize(t)) for s, a, t in keys}),
        }
        shared += expected["raw"] > expected["normalized"]
        for end in ("\n", "\r\n"):
            path = tmp_path / "rows.tsv"
            _write(path, random.Random(layout), [_ROWS_HEADER], lines, end)
            pipeline.run_build_dataset(path, tmp_path / "out", 0)
            stats = json.loads((tmp_path / "out" / "stats.json").read_text("utf-8"))
            assert stats["distinct_keys"] == expected, (case, end)
    assert shared > 20


def _files(directory):
    return {
        f.name: (f.read_bytes(), f.stat().st_ino, f.stat().st_mtime_ns)
        for f in directory.iterdir()
    }


def test_rows_that_change_between_the_two_reads_are_refused(
    tmp_path, monkeypatch, capsys
):
    lines, _ = _buildable_rows(random.Random("changed"))
    path = tmp_path / "rows.tsv"
    path.write_text("\n".join([_ROWS_HEADER, *lines, ""]), encoding="utf-8")
    out = tmp_path / "out"
    argv = ["build-dataset", str(path), "-o", str(out), "--seed"]
    assert cli.main(argv + ["1"]) == 0
    earlier = _files(out)
    assert len(earlier) == 6
    count_raw_keys = ingest.count_raw_keys

    def count_then_add_a_row(rows_path):
        counted = count_raw_keys(rows_path)
        with open(rows_path, "a", encoding="utf-8") as fh:
            fh.write(lines[0] + "\n")
        return counted

    monkeypatch.setattr(ingest, "count_raw_keys", count_then_add_a_row)
    capsys.readouterr()
    assert cli.main(argv + ["0"]) == 2
    assert capsys.readouterr().err == "error: %s changed while it was read\n" % path
    assert _files(out) == earlier
