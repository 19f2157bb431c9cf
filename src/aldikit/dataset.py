"""Build the AOC-ALDi dataset from annotation rows.

Pipeline stages, in order:

1. group identical sentences on the same article, keyed on their
   normalized text (diacritics and tatweel stripped),
2. discard junk groups where at least 2/3 of the level annotations are
   Missing or NotArabic, and classify what got discarded,
3. aggregate the ordinal level labels (MSA=0, Little=1/3, Mixed=2/3, Most=1)
   into a single dialectness score per group: the mean of the usable labels,
4. assign article-exclusive train/dev/test splits (80/10/10 by comment
   count, per source, seeded shuffle) or replay a released assignment file.

Annotation rows are consumed as a stream: a :class:`CommentGroup` keeps only
the level and dialect label of each of its annotations, as two tuples, and
every later stage reads the groups. Equal label tuples are one shared
object: a few hundred distinct tuples serve many thousands of groups. A
score is exact: the pair (k, n) of a level sum in thirds and a label count
stands for k / 3n, and it serializes at 6 decimal places (round half even).
Output files list groups sorted by source, article and canonical text; a
group's labels keep their input order.
"""

from __future__ import annotations

import random
import re
from collections import Counter
from itertools import chain, repeat
from pathlib import Path
from typing import Iterable, Sequence

from . import textnorm
from .errors import AldiError, FormatError, label, numbered_cells, text_cell
from .ingest import AnnotationRow, LEVELS

# ordinal level -> its dialectness in thirds (Little is 1/3)
LEVEL_THIRDS = {"MSA": 0, "Little": 1, "Mixed": 2, "Most": 3}

UNUSABLE_LEVELS = ("NotArabic", "Missing")

_SPLITS = {split: split for split in ("train", "dev", "test")}

DISCARD_CATEGORIES = (
    "UrlOrEmail",
    "HtmlArtifacts",
    "Symbols",
    "Arabizi",
    "English",
    "Other",
)

DATASET_HEADER = (
    "source",
    "article_id",
    "kind",
    "text",
    "level_1",
    "level_2",
    "level_3",
    "dialect_1",
    "dialect_2",
    "dialect_3",
    "aldi",
    "split",
)

DISCARDED_HEADER = ("source", "article_id", "kind", "category", "levels", "text")

ALDI_BINS = ("[0.00,0.25)", "[0.25,0.50)", "[0.50,0.75)", "[0.75,1.00]")


class CommentGroup:
    """One comment and its annotations: the table every stage after grouping reads.

    ``levels[i]`` and ``dialects[i]`` are the labels of the group's i-th
    annotation, in input order (``""`` for no dialect); both are tuples.
    Among the groups of one :func:`group_comments` call, equal tuples are one
    shared object. The later stages fill in ``aldi`` and ``split`` (kept
    groups) or ``category`` (discarded ones); ``aldi`` is the
    :func:`aggregate` pair ``(k, n)``.
    """

    __slots__ = (
        "source", "article_id", "canonical_text", "raw_text", "kind",
        "levels", "dialects", "aldi", "split", "category",
    )

    def __init__(
        self,
        source: str,
        article_id: str,
        canonical_text: str,
        raw_text: str,
        kind: str,
        levels: tuple[str, ...],
        dialects: tuple[str, ...],
        aldi: tuple[int, int] | None = None,
        split: str | None = None,
        category: str | None = None,
    ):
        self.source = source
        self.article_id = article_id
        self.canonical_text = canonical_text
        self.raw_text = raw_text
        self.kind = kind
        self.levels = levels
        self.dialects = dialects
        self.aldi = aldi
        self.split = split
        self.category = category


def format_thirds(k: int, n: int) -> str:
    """The exact score k / 3n (k >= 0) at 6 decimal places, round half even."""
    q, r = divmod(k * 10**6, 3 * n)
    if 2 * r > 3 * n or (2 * r == 3 * n and q % 2):
        q += 1
    return "%d.%06d" % divmod(q, 10**6)


# ---------------------------------------------------------------------------
# Step: grouping


def group_comments(rows: Iterable[AnnotationRow]) -> list[CommentGroup]:
    """Group annotations by (source, article_id, normalized text) in one pass.

    ``rows`` is read once, so a generator streams straight into the groups.
    Returned groups are ordered by first appearance. A group's
    ``canonical_text`` is its key's normalized text, ``raw_text`` the text of
    its first row, and its kind is "comment" once any of its rows is a comment.
    Labels grow as tuples, which hold a group's few labels in less memory
    than lists; lists turned into tuples afterwards would all be held at
    the grouping peak. Each grown tuple is swapped for the equal one already
    held, if any, so equal ``levels`` (or ``dialects``) of any two groups are
    one object, and only the distinct tuples cost memory.
    """
    groups: dict[tuple[str, str, str], CommentGroup] = {}
    shared: dict[tuple[str, ...], tuple[str, ...]] = {}
    for row in rows:
        text = row.sentence_text
        key = (row.source, row.article_id, textnorm.normalize(text))
        group = groups.get(key)
        if group is None:
            group = groups[key] = CommentGroup(
                row.source, row.article_id, key[2], text, row.kind, (), ()
            )
        elif row.kind == "comment" and group.kind == "control":
            group.kind = "comment"
        levels = group.levels + (row.level,)
        group.levels = shared.setdefault(levels, levels)
        dialects = group.dialects + (row.dialect,)
        group.dialects = shared.setdefault(dialects, dialects)
    return list(groups.values())


def count_distinct_keys(groups: Iterable[CommentGroup]) -> int:
    """Distinct (source, article_id, normalized text) keys among ``groups``."""
    return len({(g.source, g.article_id, g.canonical_text) for g in groups})


# ---------------------------------------------------------------------------
# Step: junk removal


def discard_junk(
    groups: Sequence[CommentGroup],
) -> tuple[list[CommentGroup], list[CommentGroup]]:
    """Partition groups into (kept, discarded) by the 2/3 junk rule."""
    kept: list[CommentGroup] = []
    discarded: list[CommentGroup] = []
    for group in groups:
        total = len(group.levels)
        if total == 0:
            raise AldiError(
                "group (%s, %s) has no annotations" % (group.source, group.article_id)
            )
        junk = sum(1 for level in group.levels if level in UNUSABLE_LEVELS)
        if 3 * junk >= 2 * total:
            discarded.append(group)
        else:
            kept.append(group)
    return kept, discarded


_URL_RE = re.compile(r"(?:https?|ftp)://\S+|\bwww\.\S+", re.IGNORECASE)
_EMAIL_RE = re.compile(r"[\w.+-]+@[\w-]+(?:\.[\w-]+)+")
_HTML_MARKERS = ("&#", "<a ", "</")
_LATINISH_RE = re.compile(r"^[A-Za-z0-9'\-]*[A-Za-z][A-Za-z0-9'\-]*$")


def categorize_discard(group: CommentGroup) -> str:
    """Rule-based taxonomy of why a discarded group is junk."""
    text = group.raw_text
    if _URL_RE.search(text) or _EMAIL_RE.search(text):
        return "UrlOrEmail"
    if any(marker in text for marker in _HTML_MARKERS):
        return "HtmlArtifacts"
    compact = [ch for ch in text if not ch.isspace()]
    if compact and all(textnorm._is_punct(ch) for ch in compact):
        return "Symbols"
    tokens = textnorm.tokenize(group.canonical_text)
    words = [t for t in tokens if not all(textnorm._is_punct(ch) for ch in t)]
    if words:
        latin = [t for t in words if _LATINISH_RE.match(t)]
        if 5 * len(latin) >= 4 * len(words):
            if any(any(ch.isdigit() for ch in t) for t in latin):
                return "Arabizi"
            return "English"
    return "Other"


# ---------------------------------------------------------------------------
# Step: aggregation

# One tuple object per distinct (k, n) pair: a corpus holds a few dozen pairs
# but one per kept group, so the groups share them. A pair is immutable, so
# sharing it across calls and callers changes no result.
_PAIRS: dict[tuple[int, int], tuple[int, int]] = {}


def aggregate(group: CommentGroup) -> tuple[int, int]:
    """Mean dialectness of the n usable (ordinal) labels as ``(k, n)``, where
    k is their sum in thirds: the score is k / 3n, in [0, 1]. Equal pairs are
    the same object."""
    values = [LEVEL_THIRDS[level] for level in group.levels if level in LEVEL_THIRDS]
    if not values:
        raise AldiError(
            "group (%s, %s) has no usable level annotations"
            % (group.source, group.article_id)
        )
    pair = (sum(values), len(values))
    return _PAIRS.setdefault(pair, pair)


# ---------------------------------------------------------------------------
# Step: splits


def load_assignment(path: str | Path) -> dict[tuple[str, str] | str, str]:
    """Read an article-to-split sidecar file.

    Accepts 3 columns (source, article_id, split) or 2 (article_id, split);
    an optional header line is skipped. An article may be listed more than
    once, but always with the same split.
    """
    assignment: dict = {}
    for lineno, cells in numbered_cells(path):
        if lineno == 1 and cells[-1] == "split":
            continue
        if len(cells) == 3:
            key: tuple[str, str] | str = (cells[0], cells[1])
        elif len(cells) == 2:
            key = cells[0]
        else:
            raise FormatError("%s: line %d must have 2 or 3 columns" % (path, lineno))
        split = label(_SPLITS, cells[-1], "split", "%s: line %d", (path, lineno))
        earlier = assignment.setdefault(key, split)
        if earlier != split:
            raise FormatError(
                "%s: line %d moves article %r from %s to %s"
                % (path, lineno, cells[-2], earlier, split)
            )
    return assignment


def make_splits(
    groups: Sequence[CommentGroup],
    seed: int | None,
    assignment: dict | None = None,
) -> None:
    """Assign a split to every group, keeping articles split-exclusive.

    Without an assignment file: per source, article ids are sorted, shuffled
    by a seeded RNG, and consumed in order; articles go to train until the
    cumulative group count first reaches >=80% of the source, then to dev
    until >=90%, remainder to test.
    """
    if assignment is not None:
        for group in groups:
            split = assignment.get((group.source, group.article_id))
            if split is None:
                split = assignment.get(group.article_id)
            if split is None:
                raise FormatError(
                    "assignment file does not cover article %r of source %s"
                    % (group.article_id, group.source)
                )
            group.split = split
        return

    for source in sorted({g.source for g in groups}):
        source_groups = [g for g in groups if g.source == source]
        per_article = Counter(g.article_id for g in source_groups)
        articles = sorted(per_article)
        if len(articles) < 3:
            raise FormatError(
                "source %s has only %d article(s); need at least 3 to split"
                % (source, len(articles))
            )
        rng = random.Random("%d:%s" % (seed, source))
        rng.shuffle(articles)
        total = len(source_groups)
        split_of: dict[str, str] = {}
        cumulative = 0
        phase = "train"
        for article in articles:
            split_of[article] = phase
            cumulative += per_article[article]
            if phase == "train" and 5 * cumulative >= 4 * total:
                phase = "dev"
            elif phase == "dev" and 10 * cumulative >= 9 * total:
                phase = "test"
        for group in source_groups:
            group.split = split_of[group.article_id]


# ---------------------------------------------------------------------------
# Step: statistics


def _aldi_bin(k: int, n: int) -> int:
    """Quarter of [0, 1] that holds the score k / 3n; 1 falls in the last."""
    return min(3, 4 * k // (3 * n))


def corpus_stats(
    groups: Sequence[CommentGroup],
    discarded: Sequence[CommentGroup] = (),
) -> dict:
    """Annotation- and group-level statistics of the built dataset."""
    everything = list(groups) + list(discarded)
    kind_level = Counter(
        chain.from_iterable(zip(repeat(g.kind), g.levels) for g in everything)
    )
    dialect_level = Counter(
        chain.from_iterable(zip(g.dialects, g.levels) for g in everything)
    )

    annotations: dict = {}
    for name, kinds in (
        ("comment", ("comment",)),
        ("control", ("control",)),
        ("all", ("comment", "control")),
    ):
        counts = [sum(kind_level[kind, level] for kind in kinds) for level in LEVELS]
        total = sum(counts)
        annotations[name] = {
            "total": total,
            "levels": {
                level: {
                    "count": count,
                    "percent": (100.0 * count / total) if total else 0.0,
                }
                for level, count in zip(LEVELS, counts)
            },
        }

    histogram = {"all": [0, 0, 0, 0], "comment": [0, 0, 0, 0], "control": [0, 0, 0, 0]}
    split_counts: dict[str, dict[str, Counter]] = {}
    for group in groups:
        if group.aldi is not None:
            b = _aldi_bin(*group.aldi)
            histogram["all"][b] += 1
            histogram[group.kind][b] += 1
        if group.split is not None:
            split_counts.setdefault(group.split, {}).setdefault(
                group.source, Counter()
            )[group.kind] += 1

    lengths = [textnorm.word_count(g.canonical_text) for g in groups]
    ws_total = sum(ws for ws, _ in lengths)
    token_total = sum(tok for _, tok in lengths)

    category_counter = Counter(g.category for g in discarded)

    stats = {
        "annotations": annotations,
        "dialect_level": {
            dialect: {level: dialect_level[dialect, level] for level in LEVELS}
            for dialect in sorted({dialect for dialect, _ in dialect_level if dialect})
        },
        "aldi_histogram": {"bins": list(ALDI_BINS), "counts": histogram},
        "groups": {
            "kept": len(groups),
            "discarded": len(discarded),
            "total": len(groups) + len(discarded),
            "more_than_three_annotations": sum(
                1 for g in everything if len(g.levels) > 3
            ),
        },
        "discard_categories": {
            cat: category_counter.get(cat, 0) for cat in DISCARD_CATEGORIES
        },
        "comment_length": {
            "whitespace_mean": ws_total / len(lengths) if lengths else 0.0,
            "token_mean": token_total / len(lengths) if lengths else 0.0,
        },
        "splits": {
            split: {
                source: dict(kinds) for source, kinds in sorted(by_source.items())
            }
            for split, by_source in sorted(split_counts.items())
        },
    }
    return stats


def render_stats_text(stats: dict) -> str:
    """Aligned plain-text rendering of :func:`corpus_stats` output."""
    lines: list[str] = []
    ann = stats["annotations"]
    header = ["Type"] + list(LEVELS) + ["Total"]
    table = [header]
    for kind in ("comment", "control", "all"):
        row = [kind.capitalize()]
        for level in LEVELS:
            cell = ann[kind]["levels"][level]
            row.append("%d (%.2f%%)" % (cell["count"], cell["percent"]))
        row.append(str(ann[kind]["total"]))
        table.append(row)
    widths = [max(len(r[i]) for r in table) for i in range(len(header))]
    lines.append("Level-of-dialectness annotations")
    for row in table:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))
    lines.append("")

    lines.append("Aggregated score histogram (kept groups)")
    hist = stats["aldi_histogram"]
    lines.append("  ".join("%-12s" % b for b in hist["bins"]))
    for kind in ("all", "comment", "control"):
        lines.append(
            "  ".join("%-12d" % c for c in hist["counts"][kind]) + "  " + kind
        )
    lines.append("")

    g = stats["groups"]
    lines.append("Groups: %d total, %d kept, %d discarded" % (
        g["total"], g["kept"], g["discarded"]))
    lines.append(
        "Groups with >3 annotations: %d" % g["more_than_three_annotations"]
    )
    keys = stats.get("distinct_keys")
    if keys:
        lines.append(
            "Distinct keys: %d normalized, %d raw"
            % (keys["normalized"], keys["raw"])
        )
    cats = stats["discard_categories"]
    if any(cats.values()):
        lines.append("Discard categories: " + ", ".join(
            "%s=%d" % (cat, cats[cat]) for cat in DISCARD_CATEGORIES))
    length = stats["comment_length"]
    lines.append(
        "Mean length: %.2f whitespace words, %.2f detached tokens"
        % (length["whitespace_mean"], length["token_mean"])
    )
    if stats["splits"]:
        lines.append("")
        lines.append("Split counts (groups)")
        for split in _SPLITS:
            if split not in stats["splits"]:
                continue
            for source, kinds in stats["splits"][split].items():
                lines.append(
                    "  %-5s %-9s comment=%-6d control=%d"
                    % (split, source, kinds.get("comment", 0), kinds.get("control", 0))
                )
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Serialization


def _spread(values: Sequence[str]) -> tuple[str, str, str]:
    """First two values in their own cells, the rest joined in the third."""
    first = values[0] if len(values) > 0 else ""
    second = values[1] if len(values) > 1 else ""
    third = ";".join(values[2:]) if len(values) > 2 else ""
    return first, second, third


def _in_row_order(groups: Iterable[CommentGroup]) -> list[CommentGroup]:
    """``groups`` in the row order of every output table: source, article, text."""
    return sorted(groups, key=lambda g: (g.source, g.article_id, g.canonical_text))


def dataset_lines(groups: Sequence[CommentGroup]) -> Iterable[str]:
    """The lines of dataset.tsv, each ending in a newline."""
    yield "\t".join(DATASET_HEADER) + "\n"
    for g in _in_row_order(groups):
        levels = _spread(g.levels)
        dialects = _spread(g.dialects)
        yield "\t".join(
            (
                g.source,
                g.article_id,
                g.kind,
                text_cell(g.raw_text),
                *levels,
                *dialects,
                format_thirds(*g.aldi) if g.aldi is not None else "",
                g.split or "",
            )
        ) + "\n"


def discarded_lines(discarded: Sequence[CommentGroup]) -> Iterable[str]:
    yield "\t".join(DISCARDED_HEADER) + "\n"
    for g in _in_row_order(discarded):
        yield "\t".join(
            (
                g.source,
                g.article_id,
                g.kind,
                g.category,
                ";".join(g.levels),
                text_cell(g.raw_text),
            )
        ) + "\n"


def assignment_lines(groups: Sequence[CommentGroup]) -> Iterable[str]:
    """One line per article in row order; an article's groups all share its split."""
    yield "source\tarticle_id\tsplit\n"
    splits = {(g.source, g.article_id): g.split for g in groups if g.split is not None}
    for (source, article_id), split in sorted(splits.items()):
        yield "%s\t%s\t%s\n" % (source, article_id, split)
