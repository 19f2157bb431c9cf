"""High-level drivers shared by the CLI and the test suite.

Each run_* function performs one subcommand's work: read inputs, call the
library, write each output through ``manifest.write_output`` and close the
``manifest.Run`` that declared them before the first read, and return a
summary dict for --json printing. Rows and dataset lines are streamed.

``build-dataset`` reads the rows file twice: a first read counts the
distinct raw keys of ``stats.json`` and frees them before a second read
builds the groups, so that it never holds both. On rows whose texts all
differ, that set of keys is as large as the groups.

Import rule: at module level this file imports only the standard library
and ``errors``, because ``evaluate`` and ``dprime`` need only the two file
readers at the end of it. Each run_* function imports the aldikit modules
it calls when it runs, and calls the library stages through the module
object (``dataset_mod.group_comments``), so a wrapper installed on a module
attribute before the run sees every call.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from pathlib import Path
from typing import Sequence

from .errors import FormatError, check_width, numbered_cells

# the data files of a built dataset directory, beside its manifest.json
_DATASET_FILES = ("dataset.tsv", "discarded.tsv", "split_assignment.tsv", "stats.json",
                  "stats.txt")


def run_ingest(
    hit_path: str | Path,
    out_path: str | Path,
    column_map_path: str | Path | None = None,
    strict: bool = True,
    command: Sequence[str] | None = None,
) -> dict:
    from . import ingest as ingest_mod
    from .manifest import Run

    run = Run(command, [hit_path, column_map_path], [out_path])
    cmap = (
        ingest_mod.ColumnMapConfig.load(column_map_path)
        if column_map_path
        else ingest_mod.ColumnMapConfig.default()
    )
    skipped: list[str] = []
    per_source: Counter = Counter()

    def rows():  # raises before its end on no HIT, so no rows file is left
        for hit in ingest_mod.parse_hit_file(
            hit_path, cmap, None if strict else skipped
        ):
            per_source.update(row.source for row in hit)
            yield from hit
        if not per_source:
            lenient = "" if strict else " (skipped %d malformed line(s))" % len(skipped)
            raise FormatError("%s contains no HITs%s" % (hit_path, lenient))

    ingest_mod.write_rows(rows(), out_path)
    row_count = sum(per_source.values())
    hit_count = row_count // ingest_mod.SENTENCES_PER_HIT  # every hit is 12 rows
    run.close(hits=hit_count, rows=row_count)
    return {
        "hits": hit_count,
        "rows": row_count,
        "rows_per_source": dict(sorted(per_source.items())),
        "skipped_lines": len(skipped),
        "errors": skipped,
        "output": str(out_path),
    }


def run_build_dataset(
    rows_path: str | Path,
    out_dir: str | Path,
    seed: int,
    assignment_path: str | Path | None = None,
    command: Sequence[str] | None = None,
) -> dict:
    """Build ``out_dir`` from a rows file, which is read twice: once to count
    the raw keys, and once into the groups. A rows file whose data lines
    differ in number between the two reads is refused. The small splits file,
    if any, is read before either, so a bad one is refused at once; it, not
    ``seed``, then chooses the splits, and the outputs record no seed."""
    from . import dataset as dataset_mod
    from . import ingest as ingest_mod
    from .manifest import Run, write_output

    out_dir = Path(out_dir)
    run = Run(
        command, [rows_path, assignment_path],
        [out_dir / name for name in _DATASET_FILES], out_dir / "manifest.json",
    )
    assignment = dataset_mod.load_assignment(assignment_path) if assignment_path else None
    if assignment is not None:
        seed = None
    raw_keys, lines = ingest_mod.count_raw_keys(rows_path)
    groups = dataset_mod.group_comments(ingest_mod.read_rows(rows_path))
    if not groups:
        raise FormatError("%s contains no annotation rows" % rows_path)
    if sum(len(group.levels) for group in groups) != lines:
        raise FormatError("%s changed while it was read" % rows_path)
    normalized_keys = dataset_mod.count_distinct_keys(groups)

    kept, discarded = dataset_mod.discard_junk(groups)
    for group in kept:
        group.aldi = dataset_mod.aggregate(group)
    for group in discarded:
        group.category = dataset_mod.categorize_discard(group)

    dataset_mod.make_splits(kept, seed, assignment)

    stats = dataset_mod.corpus_stats(kept, discarded)
    stats["key_mode"] = "normalized"  # a dataset-v1 field: stats.json keeps its bytes
    stats["seed"] = seed
    stats["distinct_keys"] = {"normalized": normalized_keys, "raw": raw_keys}

    out_dir.mkdir(parents=True, exist_ok=True)
    stats_json = json.dumps(stats, ensure_ascii=False, sort_keys=True, indent=2) + "\n"
    tables = (  # in the order of _DATASET_FILES; the generators stream
        dataset_mod.dataset_lines(kept), dataset_mod.discarded_lines(discarded),
        dataset_mod.assignment_lines(kept), [stats_json],
        [dataset_mod.render_stats_text(stats)],
    )
    for path, chunks in zip(run.outputs, tables):
        write_output(path, chunks)
    run.close(seed=seed)
    return {
        "groups": stats["groups"],
        "kept": stats["groups"]["kept"],
        "discarded": stats["groups"]["discarded"],
        "output_dir": str(out_dir),
    }


def run_agreement(rows_path: str | Path) -> dict:
    from . import agreement as agreement_mod
    from . import dataset as dataset_mod
    from . import ingest as ingest_mod

    groups = dataset_mod.group_comments(ingest_mod.read_rows(rows_path))
    labels, values = agreement_mod.level_agreement_items(groups)
    if not labels:
        raise FormatError("no groups with exactly 3 usable annotations")
    kappa = agreement_mod.fleiss_kappa(labels)
    alpha = agreement_mod.krippendorff_alpha_interval(values)
    return {
        "items": len(labels),
        "ratings": 3 * len(labels),
        "groups_total": len(groups),
        "fleiss_kappa": kappa,
        "krippendorff_alpha_interval": alpha,
    }


def read_score_file(path: str | Path) -> dict[int, float]:
    """Predictions: 'id TAB score' per line.

    A bare score takes its data-line ordinal as id; blank and '#' lines are
    not counted, so ids line up with the dataset ordinals. An id may occur
    only once, and a line holds 1 or 2 cells.
    """
    scores: dict[int, float] = {}
    ordinal = 0
    for lineno, cells in numbered_cells(path):
        if not "".join(cells).strip() or cells[0].startswith("#"):
            continue
        ordinal += 1
        try:
            if len(cells) == 1:
                key, value = ordinal, float(cells[0])
            else:
                key_cell, value_cell = cells  # a 3rd cell is a ValueError too
                key, value = int(key_cell), float(value_cell)
        except ValueError:
            raise FormatError(
                "%s: line %d is not 'id<TAB>score'" % (path, lineno)
            ) from None
        if not math.isfinite(value):
            raise FormatError(
                "%s: line %d has non-finite score %r" % (path, lineno, cells[-1])
            )
        if key in scores:
            raise FormatError("%s: line %d repeats id %d" % (path, lineno, key))
        scores[key] = value
    if not scores:
        raise FormatError("%s contains no scores" % path)
    return scores


def read_dataset_file(path: str | Path, columns: Sequence[str]) -> list[tuple[str, ...]]:
    """The named columns of each row of a built dataset file; the row at
    index i has id i + 1 (blank lines are not counted, as in score files)."""
    lines = numbered_cells(path)
    lineno, header = next(lines, (0, []))
    if lineno != 1 or any(name not in header for name in ("text", "aldi", *columns)):
        raise FormatError("%s: not a dataset file" % path)
    picks = [header.index(name) for name in columns]
    rows = []
    for lineno, cells in lines:
        check_width(path, lineno, cells, len(header))
        rows.append(tuple([cells[i] for i in picks]))
    return rows
