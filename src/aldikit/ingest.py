"""Parse raw AOC HIT exports into per-sentence annotation rows.

A HIT export is a tab-separated file where each line holds one crowdworker's
pass over 12 sentences (10 comments + 2 controls) plus the worker's personal
fields. Column positions vary between release variants, so the parser is
driven by an explicit column map (JSON) instead of hard-coded offsets; a
default map for the known public release ships in ``aldikit/data``.

Each parsed line yields its 12 :class:`AnnotationRow` records, one per
(sentence, annotator) pair, each carrying the worker's fields. A row's fields
are its cells in the rows file, ``""`` for no value. These flat rows are the
file every later command reads. ``build-dataset`` and ``agreement`` stream
them into comment groups that keep only each annotation's level and dialect
labels, never the rows themselves.

Every label of a HIT export, cell or column-map constant, goes through
:func:`aldikit.errors.label`: its stripped, lower-cased spelling in the
field's alias table. A miss raises ``<place> has unknown <field> <token>``,
the field named as its rows-file column; a line's place is
``<path>: line <N>``, which begins every fault of a HIT line.
"""

from __future__ import annotations

import json
from itertools import chain
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple

from .errors import FormatError, check_width, label as _label, numbered_cells, text_cell

LEVELS = ("MSA", "Little", "Mixed", "Most", "NotArabic", "Missing")
DIALECTS = ("EGY", "LEV", "GLF", "MAG", "IRQ", "GEN", "Unfamiliar", "Other")
SOURCES = ("AlGhad", "AlRiyadh", "Youm7")
KINDS = ("comment", "control")

SENTENCES_PER_HIT = 12
CONTROLS_PER_HIT = 2

# Raw files spell labels inconsistently ("most" vs "mostly dialectal", ...).
# Blank level cells map to Missing.
LEVEL_ALIASES = {
    "msa": "MSA",
    "little": "Little",
    "little dialectal": "Little",
    "mixed": "Mixed",
    "most": "Most",
    "mostly": "Most",
    "mostly dialectal": "Most",
    "not arabic": "NotArabic",
    "not_arabic": "NotArabic",
    "notarabic": "NotArabic",
    "missing": "Missing",
    "": "Missing",
}

DIALECT_ALIASES = {
    "egy": "EGY",
    "egyptian": "EGY",
    "lev": "LEV",
    "levantine": "LEV",
    "glf": "GLF",
    "gulf": "GLF",
    "mag": "MAG",
    "maghrebi": "MAG",
    "irq": "IRQ",
    "iraqi": "IRQ",
    "gen": "GEN",
    "general": "GEN",
    "unfamiliar": "Unfamiliar",
    "other": "Other",
    "": "",
}

SOURCE_ALIASES = {
    "alghad": "AlGhad",
    "ghad": "AlGhad",
    "gh": "AlGhad",
    "alriyadh": "AlRiyadh",
    "riyadh": "AlRiyadh",
    "ri": "AlRiyadh",
    "youm7": "Youm7",
    "y7": "Youm7",
    "alyoum7": "Youm7",
}

KIND_ALIASES = {
    "comment": "comment",
    "cmnt": "comment",
    "control": "control",
    "cntrl": "control",
}

# native_speaker answers -> their rows-file cell ("" for no answer)
NATIVE_ALIASES = {
    **dict.fromkeys(("", "na", "n/a", "none"), ""),
    **dict.fromkeys(("yes", "y", "true", "1"), "yes"),
    **dict.fromkeys(("no", "n", "false", "0"), "no"),
}


class AnnotationRow(NamedTuple):
    """One annotation: the annotation-row file's columns, in order, held as
    their cells (``""`` for no value; ``native_speaker`` is "yes" or "no")."""

    source: str
    article_id: str
    kind: str
    level: str
    dialect: str
    worker_id: str
    residence: str
    native_speaker: str
    best_dialect: str
    sentence_text: str


ROWS_HEADER = AnnotationRow._fields


class ColumnMapConfig:
    """Column layout of one HIT export variant.

    JSON schema (a field takes an integer column index, ``{"column": n}``,
    or ``{"value": "..."}`` for a constant)::

        {
          "worker_id": 1,
          "residence": 2,              # optional annotator fields
          "native_speaker": 3,
          "best_dialect": 4,
          "source": {"value": "AlGhad"},
          "columns": 53,               # optional exact column count
          "level_aliases": {"pure msa": "MSA"},   # optional extras
          "sentences": [               # exactly 12 blocks
            {"article_id": 5, "text": 6, "level": 7, "dialect": 8,
             "kind": {"value": "control"}},
            ...
          ]
        }

    ``kind`` must be stated per block, either as a constant (positional
    controls) or as a column index (flagged controls); it is never guessed.

    The map is resolved and checked once, at load: each field becomes a column
    index or a constant string (``""`` if absent; a block without ``source``
    takes the top-level one), and a source, kind, level, dialect or
    ``native_speaker`` constant becomes its canonical label, which looks up
    to itself on every line, through the lookup its cells take, at place
    ``sentence block <i>`` or ``column map``. A bad reference or label, a
    ``level_aliases`` target outside ``LEVELS`` or a key (stripped and
    lower-cased, as a cell is) that renames a level or the blank cell, a
    constant that holds a tab, ``\\n`` or ``\\r`` (it would split its rows-file
    line), a missing or empty ``worker_id``, a ``columns`` below the largest
    index, or a JSON value of the wrong type raises FormatError here, not on
    every line. Unknown keys are ignored.
    """

    def __init__(self, raw: dict):
        if not isinstance(raw, dict):
            raise FormatError("column map must be a JSON object, got %r" % (raw,))
        sentences = raw.get("sentences")
        if not isinstance(sentences, list) or len(sentences) != SENTENCES_PER_HIT:
            raise FormatError(
                "column map must declare exactly %d sentence blocks, got %s"
                % (SENTENCES_PER_HIT,
                   len(sentences) if isinstance(sentences, list) else "none")
            )
        aliases = raw.get("level_aliases", {})
        if not isinstance(aliases, dict):
            raise FormatError("column map 'level_aliases' must be an object, got %r"
                              % (aliases,))
        self.level_aliases = dict(LEVEL_ALIASES)
        for alias, level in aliases.items():
            if level not in LEVELS:
                raise FormatError("level alias %r: unknown level %r" % (alias, level))
            self.level_aliases[alias.strip().lower()] = level  # as a cell is looked up
        # a kept constant must look up to itself, and a blank cell to Missing
        for key, level in (*zip(map(str.lower, LEVELS), LEVELS), ("", "Missing")):
            if self.level_aliases[key] != level:
                raise FormatError("level alias %r renames level %r" % (key, level))
        worker_id, residence, native, best_dialect = (
            _resolve(raw.get(f), repr(f))
            for f in ("worker_id", "residence", "native_speaker", "best_dialect")
        )
        if worker_id == "":
            raise FormatError("column map field 'worker_id' is missing or empty")
        if isinstance(native, str):
            native = _label(NATIVE_ALIASES, native, "native_speaker", "column map", ())
        self.annotator = (worker_id, residence, native, best_dialect)
        self.blocks = []
        for i, block in enumerate(sentences):
            if not isinstance(block, dict):
                raise FormatError("sentence block %d must be an object, got %r" % (i, block))
            for field in ("text", "level", "kind"):
                if field not in block:
                    raise FormatError("sentence block %d is missing the %r field" % (i, field))
            if "source" not in block and "source" not in raw:
                raise FormatError("sentence block %d has no 'source' and no top-level "
                                  "default" % i)
            block = {"source": raw.get("source"), **block}
            refs = [
                _resolve(block.get(f), "%r of sentence block %d" % (f, i))
                for f in ("source", "article_id", "kind", "level", "dialect", "text")
            ]
            for j, field, table in ((0, "source", SOURCE_ALIASES), (2, "kind", KIND_ALIASES),
                                    (3, "level", self.level_aliases),
                                    (4, "dialect", DIALECT_ALIASES)):
                if isinstance(refs[j], str):
                    refs[j] = _label(table, refs[j], field, "sentence block %d", i)
            self.blocks.append(tuple(refs))
        indices = [r for r in self.annotator + sum(self.blocks, ()) if isinstance(r, int)]
        self.min_columns = 1 + max(indices, default=-1)
        self.columns: int | None = raw.get("columns")
        if self.columns is not None and (
            type(self.columns) is not int or self.columns < self.min_columns
        ):
            raise FormatError(
                "column map 'columns' must be an integer of at least %d, got %r"
                % (self.min_columns, self.columns)
            )

    @classmethod
    def load(cls, path: str | Path) -> "ColumnMapConfig":
        with open(path, encoding="utf-8") as fh:
            try:
                raw = json.load(fh)
            except (json.JSONDecodeError, RecursionError) as exc:  # or nested too deep
                raise FormatError("invalid column map %s: %s" % (path, exc)) from exc
        return cls(raw)

    @classmethod
    def default(cls) -> "ColumnMapConfig":
        return cls.load(Path(__file__).parent / "data" / "aoc_column_map.json")


def _resolve(ref, field: str) -> int | str:
    """One column-map reference as a column index or a constant string."""
    if ref is None:
        return ""
    if isinstance(ref, dict):
        if "value" in ref:
            value = str(ref["value"])
            if text_cell(value) != value:
                raise FormatError("column map field %s has a tab or line break in its "
                                  "constant %r" % (field, value))
            return value
        ref = ref.get("column")
    if isinstance(ref, int) and not isinstance(ref, bool) and ref >= 0:
        return ref
    raise FormatError("column map field %s has unusable reference %r" % (field, ref))


def _values(cells: list[str], refs: tuple[int | str, ...]) -> list[str]:
    """Each reference's value on one line: its stripped cell, or the constant as is."""
    return [ref if isinstance(ref, str) else cells[ref].strip() for ref in refs]


def _parse_hit_line(path: str | Path, lineno: int, cells: list[str],
                    cmap: ColumnMapConfig) -> tuple[AnnotationRow, ...]:
    if cmap.columns is not None:
        check_width(path, lineno, cells, cmap.columns)
    elif len(cells) < cmap.min_columns:
        raise FormatError("%s: line %d has %d columns, expected at least %d"
                          % (path, lineno, len(cells), cmap.min_columns))
    at = (path, lineno)
    worker_id, residence, native, best_dialect = _values(cells, cmap.annotator)
    if not worker_id:
        raise FormatError("%s: line %d has an empty worker_id" % at)
    native = _label(NATIVE_ALIASES, native, "native_speaker", "%s: line %d", at)

    rows = []
    for refs in cmap.blocks:
        source, article_id, kind, level, dialect, text = _values(cells, refs)
        source = _label(SOURCE_ALIASES, source, "source", "%s: line %d", at)
        kind = _label(KIND_ALIASES, kind, "kind", "%s: line %d", at)
        level = _label(cmap.level_aliases, level, "level", "%s: line %d", at)
        # An MSA row drops its dialect, but only after the token is checked.
        dialect = _label(DIALECT_ALIASES, dialect, "dialect", "%s: line %d", at)
        rows.append(AnnotationRow(
            source, article_id, kind, level, "" if level == "MSA" else dialect,
            worker_id, residence, native, best_dialect, text,
        ))

    controls = sum(1 for r in rows if r.kind == "control")
    if controls != CONTROLS_PER_HIT:
        raise FormatError("%s: line %d has %d control cells, expected %d"
                          % (path, lineno, controls, CONTROLS_PER_HIT))
    return tuple(rows)


def parse_hit_file(
    path: str | Path,
    column_map: ColumnMapConfig,
    skipped: list[str] | None = None,
) -> Iterator[tuple[AnnotationRow, ...]]:
    """Yield the 12 rows of each well-formed line of a tab-separated HIT export.

    Without ``skipped`` any malformed line raises FormatError, whose message
    begins ``<path>: line <N> has``; with a list the line is skipped and its
    message appended.
    """
    for lineno, cells in numbered_cells(path):
        try:
            yield _parse_hit_line(path, lineno, cells, column_map)
        except FormatError as exc:
            if skipped is None:
                raise
            skipped.append(str(exc))


def format_row(r: AnnotationRow) -> str:
    return "\t".join((*r[:-1], text_cell(r.sentence_text)))


def write_rows(rows: Iterable[AnnotationRow], path: str | Path) -> None:
    """Stream annotation rows into ``path`` as TSV with a header."""
    from .manifest import write_output

    header = "\t".join(ROWS_HEADER) + "\n"
    write_output(path, chain([header], (format_row(r) + "\n" for r in rows)))


# One lookup per cell both checks it and returns the module's own label
# object, so rows held by a caller share their label strings.
_LEVEL_CELLS, _KIND_CELLS, _SOURCE_CELLS, _DIALECT_CELLS, _NATIVE_CELLS = (
    dict(zip(labels, labels))
    for labels in (LEVELS, KINDS, SOURCES, ("", *DIALECTS), ("yes", "no", ""))
)
# Checked in this order, so a line with several bad cells names the first.
_CELL_CHECKS = (
    (3, "level", _LEVEL_CELLS),
    (2, "kind", _KIND_CELLS),
    (0, "source", _SOURCE_CELLS),
    (4, "dialect", _DIALECT_CELLS),
    (7, "native_speaker", _NATIVE_CELLS),
)


def _check_header(path: str | Path, lineno: int, cells: list[str]) -> None:
    """Raise FormatError unless ``cells``, read at ``lineno``, are line 1's header."""
    if lineno != 1 or cells != list(ROWS_HEADER):
        raise FormatError("%s: missing or wrong annotation-row header" % path)


def read_rows(path: str | Path) -> Iterator[AnnotationRow]:
    """Read an annotation-row TSV produced by :func:`write_rows`.

    Label cells come back as the ``LEVELS``/``KINDS``/``SOURCES``/``DIALECTS``
    string objects themselves, not as fresh copies, and the rows of one
    article share one ``article_id`` string.
    """
    articles: dict[str, str] = {}
    lines = numbered_cells(path)
    _check_header(path, *next(lines, (0, [])))
    for lineno, cells in lines:
        check_width(path, lineno, cells, len(ROWS_HEADER))
        (source, article_id, kind, level, dialect, worker, residence,
         native, best, text) = cells
        try:
            row = AnnotationRow(
                _SOURCE_CELLS[source], articles.setdefault(article_id, article_id),
                _KIND_CELLS[kind], _LEVEL_CELLS[level], _DIALECT_CELLS[dialect],
                worker, residence, _NATIVE_CELLS[native], best, text,
            )
        except KeyError:
            what, cell = next(
                (what, cells[i]) for i, what, table in _CELL_CHECKS if cells[i] not in table
            )
            raise FormatError(
                "%s: line %d has unknown %s %r" % (path, lineno, what, cell)
            ) from None
        yield row


def count_raw_keys(path: str | Path) -> tuple[int, int]:
    """``(distinct (source, article_id, sentence_text) keys, data lines)`` of a
    rows file, counted as :func:`read_rows` will read it.

    Line 1 must be the header, as there, so a wrong file is refused after one
    line. Data lines are not checked: any bytes count, and :func:`read_rows`,
    run next, refuses a malformed one. A key is its line without the seven
    middle cells. The file is read as latin-1, one character per byte: text
    mode ends lines where the UTF-8 read does, the ASCII header reads alike,
    and each key encodes back to the line's own bytes, which a set holds in
    less memory than the str. Blank lines are skipped as there.
    """
    keys: set[bytes] = set()
    lines = 0
    with open(path, encoding="latin-1") as fh:
        _check_header(path, 1, next(fh, "").rstrip("\n").split("\t"))
        for line in fh:
            if line := line.rstrip("\n"):
                lines += 1
                second_tab = line.find("\t", line.find("\t") + 1)
                key = line[:second_tab] + line[line.rfind("\t") :]
                keys.add(key.encode("latin-1"))
    return len(keys), lines
