from __future__ import annotations

import sys
from pathlib import Path

import pytest

from aldikit import ingest

DATA_DIR = Path(__file__).resolve().parent.parent / "src" / "aldikit" / "data"

# 12 sentence cells: block i = (source, article_id, kind, text, level, dialect)
DEFAULT_CELLS = [
    ("AlGhad", "art1", "control", "النص الأول من المقال", "MSA", ""),
    ("AlGhad", "art1", "comment", "برافو للسيد الوزير", "Little", "EGY"),
    ("AlGhad", "art1", "comment", "وزير جدع بصراحة", "Most", "EGY"),
    ("AlGhad", "art1", "comment", "نبتدى بقى الشغل الصح", "Mixed", "EGY"),
    ("AlGhad", "art2", "comment", "كلام جميل جدا", "MSA", ""),
    ("AlGhad", "art2", "comment", "الله يوفقكم", "Little", "GEN"),
    ("AlGhad", "art2", "comment", "شو هالحكي", "Most", "LEV"),
    ("AlGhad", "art2", "comment", "يعطيك العافية", "Little", "LEV"),
    ("AlGhad", "art3", "comment", "؟؟؟؟؟", "NotArabic", ""),
    ("AlGhad", "art3", "comment", "هذا رائع", "MSA", ""),
    ("AlGhad", "art3", "comment", "ما هيك بيكون الحكي", "Most", "LEV"),
    ("AlGhad", "art3", "control", "النص الثاني من المقال", "MSA", ""),
]


def make_hit_line(
    hit_id: str = "hit1",
    worker: str = "w1",
    residence: str = "JO",
    native: str = "yes",
    best: str = "LEV",
    cells=None,
) -> str:
    """One 77-column line in the shipped default column-map layout."""
    cells = cells if cells is not None else DEFAULT_CELLS
    assert len(cells) == 12
    fields = [hit_id, worker, residence, native, best]
    for cell in cells:
        fields.extend(cell)
    return "\t".join(fields)


def cells_with(overrides: dict[int, tuple]) -> list[tuple]:
    cells = list(DEFAULT_CELLS)
    for index, cell in overrides.items():
        cells[index] = cell
    return cells


@pytest.fixture
def hit_file(tmp_path) -> Path:
    path = tmp_path / "hits.tsv"
    lines = [
        make_hit_line("hit1", "w1"),
        make_hit_line("hit2", "w2", residence="EG", best="EGY"),
    ]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


@pytest.fixture
def default_cmap() -> ingest.ColumnMapConfig:
    return ingest.ColumnMapConfig.default()


def write_rows_file(tmp_path, rows) -> Path:
    path = tmp_path / "rows.tsv"
    ingest.write_rows(rows, path)
    return path


def make_row(
    source="AlGhad",
    article_id="a1",
    text="نص تجريبي",
    kind="comment",
    level="MSA",
    dialect="",
    worker="w1",
):
    return ingest.AnnotationRow(
        source=source,
        article_id=article_id,
        kind=kind,
        level=level,
        dialect=dialect,
        worker_id=worker,
        residence="",
        native_speaker="",
        best_dialect="",
        sentence_text=text,
    )
