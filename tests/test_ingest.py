import io
import random
import re

import pytest

from aldikit import ingest
from aldikit.errors import FormatError

from conftest import (
    DEFAULT_CELLS,
    cells_with,
    make_hit_line,
    make_row,
    write_rows_file,
)


def test_parse_two_hits(hit_file, default_cmap):
    hits = list(ingest.parse_hit_file(hit_file, default_cmap))
    assert len(hits) == 2
    assert sum(len(h) for h in hits) == 24
    assert hits[1][0].residence == "EG"


def test_explode_copies_annotator(hit_file, default_cmap):
    rows = next(ingest.parse_hit_file(hit_file, default_cmap))
    assert len(rows) == 12
    assert {
        (r.worker_id, r.residence, r.native_speaker, r.best_dialect) for r in rows
    } == {("w1", "JO", True, "LEV")}
    # sentence order preserved, field copy intact
    assert rows[2].level == "Most"
    assert rows[2].dialect == "EGY"
    assert rows[0].kind == "control"
    assert rows[11].kind == "control"
    assert [r.sentence_text for r in rows] == [c[3] for c in DEFAULT_CELLS]


def test_wrong_column_count_names_line(tmp_path, default_cmap):
    good = make_hit_line()
    short = "\t".join(good.split("\t")[:-6])  # drop one sentence block
    path = tmp_path / "bad.tsv"
    path.write_text(good + "\n" + short + "\n", encoding="utf-8")
    with pytest.raises(FormatError, match="line 2"):
        list(ingest.parse_hit_file(path, default_cmap))


def test_unknown_level_names_token(tmp_path, default_cmap):
    cells = cells_with({3: ("AlGhad", "art1", "comment", "نص", "WAT", "")})
    path = tmp_path / "bad.tsv"
    path.write_text(make_hit_line(cells=cells) + "\n", encoding="utf-8")
    with pytest.raises(FormatError, match="WAT"):
        list(ingest.parse_hit_file(path, default_cmap))


def test_lenient_mode_skips_and_logs(tmp_path, default_cmap):
    good = make_hit_line()
    bad = "\t".join(good.split("\t")[:-6])
    path = tmp_path / "mixed.tsv"
    path.write_text(bad + "\n" + good + "\n", encoding="utf-8")
    log = []
    hits = list(ingest.parse_hit_file(path, default_cmap, strict=False, error_log=log))
    assert len(hits) == 1
    assert len(log) == 1
    assert "line 1" in log[0]


def test_unknown_native_speaker_rejected_or_skipped(tmp_path, default_cmap):
    path = tmp_path / "hits.tsv"
    path.write_text(
        make_hit_line("hit1", "w1", native="maybe") + "\n" + make_hit_line() + "\n",
        encoding="utf-8",
    )
    with pytest.raises(FormatError, match="line 1: unknown native_speaker value 'maybe'"):
        list(ingest.parse_hit_file(path, default_cmap))
    log = []
    hits = list(ingest.parse_hit_file(path, default_cmap, strict=False, error_log=log))
    assert len(hits) == 1
    assert len(log) == 1 and "line 1" in log[0]


def test_control_count_enforced(tmp_path, default_cmap):
    cells = cells_with({0: ("AlGhad", "art1", "comment", "نص", "MSA", "")})
    path = tmp_path / "bad.tsv"
    path.write_text(make_hit_line(cells=cells) + "\n", encoding="utf-8")
    with pytest.raises(FormatError, match="control"):
        list(ingest.parse_hit_file(path, default_cmap))


def test_level_aliases():
    aliases = dict(ingest.LEVEL_ALIASES)
    assert ingest.parse_level("mostly dialectal", aliases) == "Most"
    assert ingest.parse_level("MSA", aliases) == "MSA"
    assert ingest.parse_level("", aliases) == "Missing"


def test_msa_rows_drop_dialect(tmp_path, default_cmap):
    cells = cells_with({4: ("AlGhad", "art2", "comment", "كلام جميل", "MSA", "EGY")})
    path = tmp_path / "hits.tsv"
    path.write_text(make_hit_line(cells=cells) + "\n", encoding="utf-8")
    hit = next(ingest.parse_hit_file(path, default_cmap))
    assert hit[4].level == "MSA"
    assert hit[4].dialect is None


def test_rows_roundtrip_is_byte_stable(tmp_path, hit_file, default_cmap):
    rows = []
    for hit in ingest.parse_hit_file(hit_file, default_cmap):
        rows.extend(hit)
    first = io.StringIO()
    ingest.write_rows(rows, first)
    path = tmp_path / "rows.tsv"
    path.write_text(first.getvalue(), encoding="utf-8")
    reread = list(ingest.read_rows(path))
    second = io.StringIO()
    ingest.write_rows(reread, second)
    assert first.getvalue() == second.getvalue()
    assert len(reread) == 24


def test_read_rows_rejects_bad_header(tmp_path):
    path = tmp_path / "rows.tsv"
    path.write_text("not\ta\theader\n", encoding="utf-8")
    with pytest.raises(FormatError, match="header"):
        list(ingest.read_rows(path))


def test_column_map_requires_12_blocks():
    with pytest.raises(FormatError, match="12"):
        ingest.ColumnMapConfig({"worker_id": 0, "sentences": [{}] * 3})


def test_column_map_requires_kind():
    blocks = [{"text": 1, "level": 2, "source": {"value": "AlGhad"}}] * 12
    with pytest.raises(FormatError, match="kind"):
        ingest.ColumnMapConfig({"worker_id": 0, "sentences": blocks})


def test_column_map_kind_value_and_column():
    # positional kind via constant, flagged kind via column index both parse
    blocks = []
    for i in range(12):
        blocks.append(
            {
                "source": {"value": "Youm7"},
                "article_id": {"value": "a"},
                "text": 1 + i,
                "level": {"value": "msa"},
                "kind": {"value": "control" if i < 2 else "comment"},
            }
        )
    cmap = ingest.ColumnMapConfig({"worker_id": 0, "sentences": blocks})
    line = "\t".join(["w"] + ["نص %d" % i for i in range(12)])
    hit = ingest._parse_hit_line(line.split("\t"), cmap, lineno=1)
    assert [s.kind for s in hit].count("control") == 2


def test_write_rows_sanitizes_text(tmp_path):
    row = make_row(text="with\ttab and\nnewline")
    fh = io.StringIO()
    ingest.write_rows([row], fh)
    body = fh.getvalue().splitlines()[1]
    assert body.count("\t") == len(ingest.ROWS_HEADER) - 1


# Text cells may hold any of these, separators included; other cells are
# drawn from tab-free values, as the HIT parser produces them.
_TEXT_ALPHABET = list("كتب ابدا جدا؟!x7") + ["\t", "\n", "\r", "\u2028"]


def _maybe(rng: random.Random, values):
    return rng.choice([None, *values])


def _random_row(rng: random.Random) -> ingest.AnnotationRow:
    return ingest.AnnotationRow(
        source=rng.choice(ingest.SOURCES),
        article_id="art%d" % rng.randrange(50),
        kind=rng.choice(ingest.KINDS),
        level=rng.choice(ingest.LEVELS),
        dialect=_maybe(rng, ingest.DIALECTS),
        worker_id="w%d" % rng.randrange(20),
        residence=_maybe(rng, ("JO", "EG", "SA")),
        native_speaker=rng.choice([True, False, None]),
        best_dialect=_maybe(rng, ingest.DIALECTS),
        sentence_text="".join(
            rng.choice(_TEXT_ALPHABET) for _ in range(rng.randrange(0, 25))
        ),
    )


def test_rows_roundtrip_property(tmp_path):
    rng = random.Random(20231017)
    rows = [_random_row(rng) for _ in range(500)]
    assert {r.level for r in rows} == set(ingest.LEVELS)
    assert {r.kind for r in rows} == set(ingest.KINDS)
    assert {r.native_speaker for r in rows} == {True, False, None}
    assert None in {r.dialect for r in rows} and None in {r.residence for r in rows}
    assert any("\t" in r.sentence_text for r in rows)
    assert any("\n" in r.sentence_text for r in rows)

    path = write_rows_file(tmp_path, rows)
    expected = [
        r._replace(sentence_text=re.sub("[\t\n\r]", " ", r.sentence_text))
        for r in rows
    ]
    assert list(ingest.read_rows(path)) == expected


# Cells read_rows checks, with the values it accepts.
_CHECKED_CELLS = (
    ("level", ingest.LEVELS),
    ("kind", ingest.KINDS),
    ("source", ingest.SOURCES),
    ("dialect", ingest.DIALECTS + ("",)),
    ("native_speaker", ("yes", "no", "")),
)


def test_read_rows_malformed_lines_raise_format_error(tmp_path):
    rng = random.Random(7)
    header = "\t".join(ingest.ROWS_HEADER)
    for case in range(150):
        row = _random_row(rng)
        cells = ingest.format_row(row).split("\t")
        broken = list(cells)
        mutation = case % 6
        if mutation == 0:
            if rng.random() < 0.5:
                del broken[rng.randrange(len(broken))]
            else:
                broken.insert(rng.randrange(len(broken) + 1), "extra")
        else:
            name, valid = _CHECKED_CELLS[mutation - 1]
            tokens = ["msa", "Comment", "MSA ", "?", "Most?", "cmnt", "Bogus", "egy",
                      "maybe", "Yes"]
            token = rng.choice(tokens + ([""] if "" not in valid else []))
            assert token not in valid
            broken[ingest.ROWS_HEADER.index(name)] = token
        good = ingest.format_row(_random_row(rng))
        path = tmp_path / ("rows%d.tsv" % case)
        path.write_text(
            "\n".join([header, good, "\t".join(broken)]) + "\n", encoding="utf-8"
        )
        with pytest.raises(FormatError, match="line 3"):
            list(ingest.read_rows(path))
