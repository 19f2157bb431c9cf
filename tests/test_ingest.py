import json
import random
import re

import pytest

from aldikit import ingest
from aldikit.errors import FormatError

from conftest import (
    DATA_DIR,
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
    } == {("w1", "JO", "yes", "LEV")}
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
    hits = list(ingest.parse_hit_file(path, default_cmap, skipped=log))
    assert len(hits) == 1
    assert len(log) == 1
    assert "line 1" in log[0]


def test_unknown_native_speaker_rejected_or_skipped(tmp_path, default_cmap):
    path = tmp_path / "hits.tsv"
    path.write_text(
        make_hit_line("hit1", "w1", native="maybe") + "\n" + make_hit_line() + "\n",
        encoding="utf-8",
    )
    message = "%s: line 1 has unknown native_speaker 'maybe'" % path
    with pytest.raises(FormatError, match="^%s$" % re.escape(message)):
        list(ingest.parse_hit_file(path, default_cmap))
    log = []
    hits = list(ingest.parse_hit_file(path, default_cmap, skipped=log))
    assert len(hits) == 1
    assert len(log) == 1 and "line 1" in log[0]


def _with(cells, column, value):
    cells = list(cells)
    cells[column] = value
    return cells


@pytest.mark.parametrize(
    "columns, edit, fault",
    [
        (77, lambda c: c[:-1], "has 76 columns, expected 77"),
        (77, lambda c: c + ["x"], "has 78 columns, expected 77"),
        (None, lambda c: c[:-1], "has 76 columns, expected at least 77"),
        (77, lambda c: _with(c, 1, " "), "has an empty worker_id"),
        (77, lambda c: _with(c, 3, "maybe"), "has unknown native_speaker 'maybe'"),
        (77, lambda c: _with(c, 11, "Bogus"), "has unknown source 'Bogus'"),
        (77, lambda c: _with(c, 13, " x "), "has unknown kind 'x'"),
        (77, lambda c: _with(c, 15, "WAT"), "has unknown level 'WAT'"),
        (77, lambda c: _with(c, 16, "XYZ"), "has unknown dialect 'XYZ'"),
        (77, lambda c: _with(c, 13, "control"), "has 3 control cells, expected 2"),
    ],
    ids=["short", "long", "short-no-columns", "worker", "native", "source", "kind",
         "level", "dialect", "controls"],
)
def test_every_hit_line_fault_names_its_file_and_line(tmp_path, columns, edit, fault):
    raw = _default_map()
    raw["columns"] = columns
    path = tmp_path / "hits.tsv"
    bad = "\t".join(edit(make_hit_line().split("\t")))
    path.write_text("\n".join([make_hit_line(), "", bad]) + "\n", encoding="utf-8")
    message = "%s: line 3 %s" % (path, fault)
    with pytest.raises(FormatError, match="^%s$" % re.escape(message)):
        list(ingest.parse_hit_file(path, ingest.ColumnMapConfig(raw)))


def test_control_count_enforced(tmp_path, default_cmap):
    cells = cells_with({0: ("AlGhad", "art1", "comment", "نص", "MSA", "")})
    path = tmp_path / "bad.tsv"
    path.write_text(make_hit_line(cells=cells) + "\n", encoding="utf-8")
    with pytest.raises(FormatError, match="control"):
        list(ingest.parse_hit_file(path, default_cmap))


def test_level_aliases(tmp_path, default_cmap):
    spellings = {2: "mostly dialectal", 3: " MSA ", 4: ""}
    cells = cells_with({
        i: ("AlGhad", "art1", "comment", "نص", level, "EGY")
        for i, level in spellings.items()
    })
    path = tmp_path / "hits.tsv"
    lines = [make_hit_line(cells=cells)] * 3
    lines.append(make_hit_line(cells=cells_with({5: cells[5][:4] + ("WAT", "")})))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    hits = ingest.parse_hit_file(path, default_cmap)
    assert [next(hits)[i].level for i in spellings] == ["Most", "MSA", "Missing"]
    message = "%s: line 4 has unknown level 'WAT'" % path
    with pytest.raises(FormatError, match="^%s$" % re.escape(message)):
        list(hits)


def test_msa_rows_drop_dialect(tmp_path, default_cmap):
    cells = cells_with({4: ("AlGhad", "art2", "comment", "كلام جميل", "MSA", "EGY")})
    path = tmp_path / "hits.tsv"
    path.write_text(make_hit_line(cells=cells) + "\n", encoding="utf-8")
    hit = next(ingest.parse_hit_file(path, default_cmap))
    assert hit[4].level == "MSA"
    assert hit[4].dialect == ""


def test_rows_roundtrip_is_byte_stable(tmp_path, hit_file, default_cmap):
    rows = []
    for hit in ingest.parse_hit_file(hit_file, default_cmap):
        rows.extend(hit)
    first, second = tmp_path / "first.tsv", tmp_path / "second.tsv"
    ingest.write_rows(rows, first)
    reread = list(ingest.read_rows(first))
    ingest.write_rows(reread, second)
    assert first.read_bytes() == second.read_bytes()
    assert len(reread) == 24


def test_read_rows_rejects_bad_header(tmp_path):
    path = tmp_path / "rows.tsv"
    path.write_text("not\ta\theader\n", encoding="utf-8")
    with pytest.raises(FormatError, match="header"):
        list(ingest.read_rows(path))


def test_count_raw_keys_refuses_a_hit_export_as_read_rows_does(hit_file):
    message = "%s: missing or wrong annotation-row header" % hit_file
    for read in (lambda path: list(ingest.read_rows(path)), ingest.count_raw_keys):
        with pytest.raises(FormatError) as excinfo:
            read(hit_file)
        assert str(excinfo.value) == message


def test_read_rows_returns_the_module_label_objects(tmp_path):
    rows = [
        make_row(source=source, kind=kind, level=level, dialect=dialect)
        for source in ingest.SOURCES
        for kind in ingest.KINDS
        for level in ingest.LEVELS
        for dialect in ingest.DIALECTS + ("",)
    ]
    reread = list(ingest.read_rows(write_rows_file(tmp_path, rows)))
    assert reread == rows
    for row in reread:
        assert any(row.source is label for label in ingest.SOURCES)
        assert any(row.kind is label for label in ingest.KINDS)
        assert any(row.level is label for label in ingest.LEVELS)
        assert row.dialect == "" or any(row.dialect is d for d in ingest.DIALECTS)


def test_column_map_load_rejects_deep_nesting(tmp_path):
    path = tmp_path / "map.json"
    path.write_text("[" * 100000 + "]" * 100000, encoding="utf-8")
    with pytest.raises(FormatError, match="invalid column map"):
        ingest.ColumnMapConfig.load(path)


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
    hit = ingest._parse_hit_line("hits.tsv", 1, line.split("\t"), cmap)
    assert [s.kind for s in hit].count("control") == 2


def test_write_rows_sanitizes_text(tmp_path):
    row = make_row(text="with\ttab and\nnewline")
    path = tmp_path / "rows.tsv"
    ingest.write_rows([row], path)
    body = path.read_text(encoding="utf-8").splitlines()[1]
    assert body.count("\t") == len(ingest.ROWS_HEADER) - 1


# Text cells may hold any of these, separators included; other cells are
# drawn from tab-free values, as the HIT parser produces them.
_TEXT_ALPHABET = list("كتب ابدا جدا؟!x7") + ["\t", "\n", "\r", "\u2028"]


def _maybe(rng: random.Random, values):
    return rng.choice(["", *values])


def _random_row(rng: random.Random) -> ingest.AnnotationRow:
    return ingest.AnnotationRow(
        source=rng.choice(ingest.SOURCES),
        article_id="art%d" % rng.randrange(50),
        kind=rng.choice(ingest.KINDS),
        level=rng.choice(ingest.LEVELS),
        dialect=_maybe(rng, ingest.DIALECTS),
        worker_id="w%d" % rng.randrange(20),
        residence=_maybe(rng, ("JO", "EG", "SA")),
        native_speaker=rng.choice(["yes", "no", ""]),
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
    assert {r.native_speaker for r in rows} == {"yes", "no", ""}
    assert "" in {r.dialect for r in rows} and "" in {r.residence for r in rows}
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


# --- Column map resolved at load --------------------------------------------


def _default_map() -> dict:
    return json.loads((DATA_DIR / "aoc_column_map.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize(
    "edit, message",
    [
        ({"text": "eight"}, "'text' of sentence block 0 has unusable reference 'eight'"),
        ({"text": True}, "unusable reference True"),
        ({"text": -1}, "unusable reference -1"),
        ({"text": 8.0}, "unusable reference 8.0"),
        ({"level": {"column": "9"}}, "unusable reference '9'"),
        ({"level": {}}, "unusable reference None"),
        ({"source": {"value": "Bogus"}}, "sentence block 0 has unknown source 'Bogus'"),
        ({"source": None}, "sentence block 0 has unknown source ''"),
        ({"level": {"value": "mostly?"}}, "sentence block 0 has unknown level 'mostly?'"),
        ({"dialect": {"value": "XYZ"}}, "sentence block 0 has unknown dialect 'XYZ'"),
        ({"kind": {"value": "contrl"}}, "sentence block 0 has unknown kind 'contrl'"),
        (7, "sentence block 0 must be an object, got 7"),
        (["text", 8], "sentence block 0 must be an object, got ['text', 8]"),
        ({"article_id": {"value": "a\tb"}},
         "field 'article_id' of sentence block 0 has a tab or line break in its "
         "constant 'a\\tb'"),
    ],
    ids=["text-str", "text-bool", "text-negative", "text-float", "column-str",
         "empty-ref", "source-const", "source-null", "level-const", "dialect-const",
         "kind-const", "block-int", "block-list", "article-tab-const"],
)
def test_column_map_block_faults_raise_at_load(edit, message):
    """``edit`` is merged into sentence block 0, or replaces it if not a dict."""
    raw = _default_map()
    block = raw["sentences"][0]
    raw["sentences"][0] = {**block, **edit} if isinstance(edit, dict) else edit
    with pytest.raises(FormatError, match=re.escape(message)):
        ingest.ColumnMapConfig(raw)


@pytest.mark.parametrize(
    "edit, message",
    [
        ({"worker_id": True}, "field 'worker_id' has unusable reference True"),
        ({"residence": "2"}, "field 'residence' has unusable reference '2'"),
        ({"level_aliases": {"msa": "Bogus"}}, "level alias 'msa': unknown level"),
        ({"level_aliases": {"x": "most"}}, "level alias 'x': unknown level 'most'"),
        ({"columns": "77"}, "'columns' must be an integer of at least 77, got '77'"),
        ({"columns": True}, "'columns' must be an integer of at least 77, got True"),
        ({"columns": 76}, "'columns' must be an integer of at least 77, got 76"),
        ({"columns": 77.0}, "'columns' must be an integer of at least 77, got 77.0"),
        ({"level_aliases": ["pure msa", "MSA"]},
         "'level_aliases' must be an object, got ['pure msa', 'MSA']"),
        ({"level_aliases": None}, "'level_aliases' must be an object, got None"),
        ({"worker_id": {"value": ""}}, "field 'worker_id' is missing or empty"),
        ({"worker_id": None}, "field 'worker_id' is missing or empty"),
        ([], "column map must be a JSON object, got []"),
        ("map", "column map must be a JSON object, got 'map'"),
        ({"residence": {"value": "Amman\tJO"}},
         "field 'residence' has a tab or line break in its constant 'Amman\\tJO'"),
        ({"worker_id": {"value": "w\n1"}},
         "field 'worker_id' has a tab or line break in its constant 'w\\n1'"),
        ({"worker_id": {"value": "w1\r"}},
         "field 'worker_id' has a tab or line break in its constant 'w1\\r'"),
        ({"native_speaker": {"value": "maybe"}},
         "column map has unknown native_speaker 'maybe'"),
        ({"level_aliases": {"MSA": "Most"}}, "level alias 'msa' renames level 'MSA'"),
        # a key is held as a cell is looked up: stripped and lower-cased
        ({"level_aliases": {"MSA ": "Most"}}, "level alias 'msa' renames level 'MSA'"),
        # a blank level cell is Missing
        ({"level_aliases": {" ": "MSA"}}, "level alias '' renames level 'Missing'"),
        ({"level_aliases": {"": "MSA"}}, "level alias '' renames level 'Missing'"),
    ],
    ids=["worker-bool", "residence-str", "alias-bogus", "alias-lowercase",
         "columns-str", "columns-bool", "columns-too-few", "columns-float",
         "aliases-list", "aliases-null", "worker-empty-const", "worker-null",
         "map-list", "map-str", "residence-tab-const", "worker-newline-const",
         "worker-cr-const", "native-const", "alias-renames-level",
         "alias-renames-level-unstripped", "alias-blank", "alias-empty"],
)
def test_column_map_top_level_faults_raise_at_load(edit, message):
    """``edit`` is merged into the default map, or replaces it if not a dict."""
    raw = _default_map()
    raw = {**raw, **edit} if isinstance(edit, dict) else edit
    with pytest.raises(FormatError, match=re.escape(message)):
        ingest.ColumnMapConfig(raw)


def test_a_level_alias_key_matches_its_stripped_cell(tmp_path):
    raw = _default_map()
    raw["level_aliases"] = {" pure msa ": "MSA"}
    cmap = ingest.ColumnMapConfig(raw)
    assert cmap.level_aliases["pure msa"] == "MSA" and " pure msa " not in cmap.level_aliases
    cells = cells_with({2: ("AlGhad", "art1", "comment", "نص", "pure msa", "EGY")})
    path = tmp_path / "hits.tsv"
    path.write_text(make_hit_line(cells=cells) + "\n", encoding="utf-8")
    row = next(ingest.parse_hit_file(path, cmap))[2]
    assert (row.level, row.dialect) == ("MSA", "")


def test_column_map_constants_are_kept_as_canonical_labels(tmp_path):
    # each constant takes the lookup its cells take, once, at load
    raw = _default_map()
    raw["native_speaker"] = {"value": " Y "}
    raw["sentences"][0].update(source={"value": " Riyadh "}, kind={"value": " control"},
                               level={"value": "MOSTLY"}, dialect={"value": "gulf "})
    cmap = ingest.ColumnMapConfig(raw)
    assert cmap.annotator[2] == "yes"
    assert cmap.blocks[0][:5] == ("AlRiyadh", 6, "control", "Most", "GLF")
    path = tmp_path / "hits.tsv"
    path.write_text(make_hit_line() + "\n", encoding="utf-8")
    row = next(ingest.parse_hit_file(path, cmap))[0]
    assert (row.source, row.kind, row.level, row.dialect, row.native_speaker) == (
        "AlRiyadh", "control", "Most", "GLF", "yes")


def test_column_map_resolves_references_once():
    raw = _default_map()
    raw["best_dialect"] = {"value": "GLF"}
    del raw["residence"]
    raw["sentences"][1]["article_id"] = {"column": 12, "value": 5}
    raw["sentences"][2]["text"] = None
    raw["level_aliases"] = {"Pure MSA": "MSA"}
    cmap = ingest.ColumnMapConfig(raw)
    assert cmap.annotator == (1, "", 3, "GLF")
    assert cmap.blocks[0] == (5, 6, 7, 9, 10, 8)
    assert cmap.blocks[1][1] == "5" and cmap.blocks[2][5] == ""
    assert cmap.level_aliases["pure msa"] == "MSA"
    assert cmap.min_columns == 77


def test_column_map_unknown_keys_are_ignored(tmp_path):
    raw = _default_map()
    del raw["columns"]
    raw["comment_id"] = 200
    raw["sentences"][0]["note"] = {"column": 300}
    cmap = ingest.ColumnMapConfig(raw)
    assert cmap.min_columns == 77
    path = tmp_path / "hits.tsv"
    path.write_text(make_hit_line() + "\n", encoding="utf-8")
    assert len(next(ingest.parse_hit_file(path, cmap))) == 12


def test_column_map_unused_source_default_is_not_resolved():
    # Every block states its own source, so the top-level default is never read.
    raw = _default_map()
    raw["source"] = "unused"
    assert ingest.ColumnMapConfig(raw).blocks[0][0] == 5


# --- Fuzz: random JSON in every slot of the column map ------------------------


def _random_json(rng: random.Random, depth: int = 0):
    """A random JSON value: int, bool, str, list, dict, null or float."""
    kind = rng.choice(("int", "bool", "str", "list", "dict", "null", "float"))
    if kind == "int":
        return rng.choice([-1, 0, 1, 8, 76, 77, 10**12])
    if kind == "bool":
        return rng.random() < 0.5
    if kind == "str":
        return rng.choice(["", " ", "8", "MSA", "most", "control", "AlGhad", "value",
                           "نص"])
    if kind == "float":
        return rng.choice([0.0, 8.0, -1.5, 1e300])
    if kind == "null":
        return None
    width = rng.randrange(3) if depth < 2 else 0
    if kind == "list":
        return [_random_json(rng, depth + 1) for _ in range(width)]
    keys = ("column", "value", "text", "sentences", "msa")
    return {rng.choice(keys): _random_json(rng, depth + 1) for _ in range(width)}


def _slots(value, path=()):
    """The path of every value in a JSON tree, the root included."""
    yield path
    children = value.items() if isinstance(value, dict) else (
        enumerate(value) if isinstance(value, list) else ())
    for key, child in children:
        yield from _slots(child, path + (key,))


def _mutate_slot(tree, path, rng: random.Random):
    """``tree`` with the value at ``path`` replaced by random JSON or deleted."""
    if not path:
        return _random_json(rng)
    parent = tree
    try:
        for step in path[:-1]:
            parent = parent[step]
        parent[path[-1]]
    except (KeyError, IndexError, TypeError):
        return tree  # an earlier mutation of this case removed the slot
    if not isinstance(parent, (dict, list)):
        return tree
    if isinstance(parent, dict) and rng.random() < 0.2:
        del parent[path[-1]]
    else:
        parent[path[-1]] = _random_json(rng)
    return tree


def test_column_map_fuzz_raises_only_format_error():
    rng = random.Random(20231026)
    base = _default_map()
    base["level_aliases"] = {"pure msa": "MSA"}
    base["source"] = "AlGhad"
    slots = list(_slots(base))
    cells = make_hit_line().split("\t")
    outcomes = {"load": 0, "line": 0, "rows": 0}
    for case in range(2000):
        raw = json.loads(json.dumps(base))
        for path in rng.sample(slots, rng.randint(1, 3)):
            raw = _mutate_slot(raw, path, rng)
        try:
            cmap = ingest.ColumnMapConfig(raw)
        except FormatError:
            outcomes["load"] += 1
            continue
        try:
            ingest._parse_hit_line("hits.tsv", 1, cells, cmap)
            outcomes["rows"] += 1
        except FormatError:
            outcomes["line"] += 1
    assert all(outcomes.values()), outcomes


# --- Fuzz: mutated lines of the shipped 77-column layout ---------------------

_BAD_TOKENS = ["WAT", "?", "msa!", "most?", "Bogus", "maybe", "ja", "x y", "—", "نعم"]
# Offsets inside a sentence block (after the 5 annotator columns), per token.
_BLOCK_OFFSETS = {"source": 0, "kind": 2, "level": 4, "dialect": 5}


def _mutate(rng: random.Random, cells: list[str]) -> list[str]:
    """A copy of ``cells`` that the shipped map must reject."""
    cells = list(cells)
    mutation = rng.choice(["width", "tab", "native", "kind-count", *_BLOCK_OFFSETS])
    if mutation == "width":
        if rng.random() < 0.5:
            for _ in range(rng.randint(1, 8)):
                del cells[rng.randrange(len(cells))]
        else:
            for _ in range(rng.randint(1, 8)):
                cells.insert(rng.randrange(len(cells) + 1), rng.choice(_BAD_TOKENS))
    elif mutation == "tab":
        index = rng.randrange(len(cells))
        cut = rng.randrange(len(cells[index]) + 1)
        cells[index] = cells[index][:cut] + "\t" + cells[index][cut:]
    elif mutation == "native":
        cells[3] = rng.choice(_BAD_TOKENS)
    elif mutation == "kind-count":
        block = rng.randrange(1, 11)  # a comment block becomes a third control
        cells[5 + 6 * block + 2] = rng.choice(["control", "CNTRL", " Control "])
    else:
        token = rng.choice(_BAD_TOKENS)
        cells[5 + 6 * rng.randrange(12) + _BLOCK_OFFSETS[mutation]] = token
    return cells


def _random_cells(rng: random.Random) -> list[str]:
    """Valid cells of one line in the shipped layout, spelled in random aliases."""
    blocks = []
    controls = {0, 11}
    for i in range(12):
        level = rng.choice(list(ingest.LEVEL_ALIASES))
        dialect = rng.choice(list(ingest.DIALECT_ALIASES))
        kind = rng.choice(["control", "cntrl"] if i in controls else ["comment", "cmnt"])
        source = rng.choice(list(ingest.SOURCE_ALIASES))
        spell = rng.choice([str, str.upper, lambda s: " %s " % s])
        blocks.append((spell(source), "art%d" % rng.randrange(9), spell(kind),
                       "نص %d" % rng.randrange(99), spell(level), spell(dialect)))
    native = rng.choice(["yes", "No", "", "n/a", "1", "FALSE"])
    return make_hit_line("h", "w%d" % rng.randrange(9), "JO", native, "LEV",
                         cells=blocks).split("\t")


def test_parse_hit_file_fuzz(tmp_path, default_cmap):
    rng = random.Random(20231024)
    for case in range(60):
        lines = []
        good_lines = []
        for _ in range(rng.randint(1, 6)):
            cells = _random_cells(rng)
            if rng.random() < 0.4:
                lines.append("\t".join(_mutate(rng, cells)))
            else:
                lines.append("\t".join(cells))
                good_lines.append(lines[-1])
        path = tmp_path / ("hits%d.tsv" % case)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        good = tmp_path / ("good%d.tsv" % case)
        good.write_text("".join(line + "\n" for line in good_lines), encoding="utf-8")

        log: list[str] = []
        lenient = list(ingest.parse_hit_file(path, default_cmap, skipped=log))
        assert lenient == list(ingest.parse_hit_file(good, default_cmap))
        assert len(log) == len(lines) - len(good_lines)
        if log:
            first_bad = 1 + next(
                n for n, line in enumerate(lines) if line not in good_lines
            )
            with pytest.raises(FormatError, match="line %d\\b" % first_bad):
                list(ingest.parse_hit_file(path, default_cmap))


# --- Property: the parser against the old per-cell interpreter --------------


def _oracle_cell(ref, cells, lineno, field):
    if ref is None:
        return ""
    if isinstance(ref, dict):
        if "value" in ref:
            return str(ref["value"])
        ref = ref.get("column")
    if isinstance(ref, int):
        try:
            return cells[ref].strip()
        except IndexError:
            raise FormatError(
                "line %d: column %d for %r is out of range" % (lineno, ref, field)
            ) from None
    raise FormatError("column map field %r has unusable reference %r" % (field, ref))


def _oracle_label(token, aliases, field, path, lineno):
    label = aliases.get(token.strip().lower())
    if label is None:
        raise FormatError("%s: line %d has unknown %s %r" % (path, lineno, field, token))
    return label


def _oracle_indices(node):
    if isinstance(node, int) and not isinstance(node, bool):
        yield node
    elif isinstance(node, dict):
        for key, sub in node.items():
            if key not in ("value", "columns", "level_aliases"):
                yield from _oracle_indices(sub)
    elif isinstance(node, list):
        for sub in node:
            yield from _oracle_indices(sub)


def oracle_parse_hit_line(path, lineno, cells, raw):
    """The HIT line parser as it was: it reads the raw JSON map for every cell."""
    columns = raw.get("columns")
    if columns is not None and len(cells) != columns:
        raise FormatError("%s: line %d has %d columns, expected %d"
                          % (path, lineno, len(cells), columns))
    min_columns = 1 + max(_oracle_indices(raw))
    if len(cells) < min_columns:
        raise FormatError("%s: line %d has %d columns, expected at least %d"
                          % (path, lineno, len(cells), min_columns))
    level_aliases = dict(ingest.LEVEL_ALIASES)
    level_aliases.update({k.lower(): v for k, v in raw.get("level_aliases", {}).items()})
    worker_id = _oracle_cell(raw.get("worker_id"), cells, lineno, "worker_id")
    if not worker_id:
        raise FormatError("%s: line %d has an empty worker_id" % (path, lineno))
    residence = _oracle_cell(raw.get("residence"), cells, lineno, "residence")
    native = _oracle_label(
        _oracle_cell(raw.get("native_speaker"), cells, lineno, "native_speaker"),
        {"yes": "yes", "y": "yes", "true": "yes", "1": "yes",
         "no": "no", "n": "no", "false": "no", "0": "no",
         "": "", "na": "", "n/a": "", "none": ""},
        "native_speaker", path, lineno,
    )
    best = _oracle_cell(raw.get("best_dialect"), cells, lineno, "best_dialect")
    rows = []
    for block in raw["sentences"]:
        source = _oracle_label(
            _oracle_cell(block.get("source", raw.get("source")), cells, lineno, "source"),
            ingest.SOURCE_ALIASES, "source", path, lineno,
        )
        kind = _oracle_label(
            _oracle_cell(block["kind"], cells, lineno, "kind"),
            ingest.KIND_ALIASES, "kind", path, lineno,
        )
        level = _oracle_label(
            _oracle_cell(block["level"], cells, lineno, "level"),
            level_aliases, "level", path, lineno,
        )
        dialect = _oracle_label(
            _oracle_cell(block.get("dialect"), cells, lineno, "dialect"),
            ingest.DIALECT_ALIASES, "dialect", path, lineno,
        )
        if level == "MSA":
            dialect = ""
        rows.append(ingest.AnnotationRow(
            source, _oracle_cell(block.get("article_id"), cells, lineno, "article_id"),
            kind, level, dialect, worker_id, residence, native, best,
            _oracle_cell(block["text"], cells, lineno, "text"),
        ))
    controls = sum(1 for r in rows if r.kind == "control")
    if controls != ingest.CONTROLS_PER_HIT:
        raise FormatError("%s: line %d has %d control cells, expected %d"
                          % (path, lineno, controls, ingest.CONTROLS_PER_HIT))
    return tuple(rows)


# Valid and invalid tokens per field; the valid ones in several spellings.
_FIELD_TOKENS = {
    "source": ["AlGhad", "y7", " Riyadh ", "YOUM7"],
    "kind": ["comment", "cmnt", "Comment"],
    "level": ["MSA", "mostly dialectal", " little ", "", "Pure MSA", "NOTARABIC"],
    "dialect": ["EGY", "gulf", "", "Unfamiliar", " lev "],
    "native_speaker": ["yes", "N", "", "na", "TRUE"],
    "worker_id": ["w1", " w2 "],
    "residence": ["JO", "", " EG "],
    "best_dialect": ["LEV", ""],
    "article_id": ["a1", "", " a2 "],
    "text": ["نص", " نص آخر ", ""],
}
_BAD_FIELD_TOKENS = {
    "source": ["Bogus", ""],
    "kind": ["cntrl?", "x"],
    "level": ["WAT", "most?"],
    "dialect": ["XYZ"],
    "native_speaker": ["maybe"],
    "worker_id": [""],
}


class _RandomMap:
    """A random column map the old parser accepts, and lines to match it."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.width = rng.randint(77, 100)
        self.free = list(range(self.width))
        rng.shuffle(self.free)
        self.columns: dict[int, str] = {}  # column -> field it holds
        self.raw: dict = {}
        for field in ("worker_id", "residence", "native_speaker", "best_dialect"):
            if field == "worker_id" or rng.random() < 0.8:
                self.raw[field] = self.ref(field)
        self.raw["sentences"] = []
        controls = rng.sample(range(12), 2)
        positional = rng.random() < 0.5
        default_source = rng.random() < 0.5
        for i in range(12):
            block = {}
            for field in ("source", "article_id", "kind", "level", "dialect", "text"):
                if field == "source" and default_source and rng.random() < 0.7:
                    continue
                if field in ("article_id", "dialect") and rng.random() < 0.2:
                    continue
                if field == "kind" and positional:
                    kind = "control" if i in controls else "comment"
                    block[field] = {"value": rng.choice([kind, kind.upper()])}
                else:
                    block[field] = self.ref(field, control=i in controls)
            self.raw["sentences"].append(block)
        if default_source:
            self.raw["source"] = self.ref("source")
            self.raw["sentences"][0].pop("source", None)
        if rng.random() < 0.5:
            self.raw["level_aliases"] = {"Pure MSA": "MSA", "Dialectal": "Most"}
        if rng.random() < 0.5:
            self.raw["columns"] = self.width

    def ref(self, field, control=False):
        rng = self.rng
        if rng.random() < 0.25:
            if field == "kind":
                return {"value": "control" if control else "comment"}
            # "Pure MSA" is a level only where the map declares it an alias.
            return {"value": rng.choice(
                [t for t in _FIELD_TOKENS[field] if t != "Pure MSA"]
            )}
        column = self.free.pop()
        self.columns[column] = "control" if field == "kind" and control else field
        return column if rng.random() < 0.5 else {"column": column}

    def line(self, mutate: bool) -> list[str]:
        rng = self.rng
        cells = [rng.choice(["x", " ", "", "y "]) for _ in range(self.width)]
        for column, field in self.columns.items():
            if field == "control":
                cells[column] = rng.choice(["control", "CNTRL", " control "])
            else:
                tokens = _FIELD_TOKENS[field]
                if field == "level" and "level_aliases" not in self.raw:
                    tokens = [t for t in tokens if t != "Pure MSA"]
                cells[column] = rng.choice(tokens)
        if mutate:  # truncate, add a cell or spoil a token; not always fatal
            choice = rng.randrange(3)
            if choice == 0:
                del cells[rng.randrange(len(cells)):]
            elif choice == 1 and self.columns:
                column = rng.choice(list(self.columns))
                field = self.columns[column]
                field = "kind" if field == "control" else field
                cells[column] = rng.choice(_BAD_FIELD_TOKENS.get(field, ["?"]))
            else:
                cells.append("extra")
        return cells


def _outcome(parse, *args):
    try:
        return parse(*args)
    except FormatError as exc:
        return "FormatError: %s" % exc


def test_parser_matches_oracle_on_random_maps():
    rng = random.Random(20231025)
    outcomes = set()
    for case in range(300):
        random_map = _RandomMap(rng)
        cmap = ingest.ColumnMapConfig(random_map.raw)
        for lineno in range(1, 4):
            cells = random_map.line(mutate=rng.random() < 0.4)
            args = ("hits%d.tsv" % case, lineno, cells)
            expected = _outcome(oracle_parse_hit_line, *args, random_map.raw)
            assert _outcome(ingest._parse_hit_line, *args, cmap) == expected
            outcomes.add(expected.split(":")[0] if isinstance(expected, str) else "rows")
    assert outcomes == {"rows", "FormatError"}
