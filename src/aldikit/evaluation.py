"""Score-quality evaluation: RMSE, discrimination, contrastive feature pairs.

Everything here but ``read_pairs_file``, which reads a file, is pure over
immutable inputs. The discrimination measure divides the absolute mean
difference of two score populations by their pooled standard deviation;
sample variance (n-1) is the default with a population-variance switch,
since the convention is not pinned down anywhere authoritative.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import NamedTuple, Sequence

from .errors import AldiError, FormatError, check_width, numbered_cells


class ScoredPair(NamedTuple):
    gold: float
    predicted: float
    subset: str  # "control" | "comment"


def rmse(pairs: Sequence[ScoredPair], subset: str | None = None) -> float:
    """Root mean squared error of predicted vs gold, optionally filtered."""
    selected = [p for p in pairs if subset is None or p.subset == subset]
    if not selected:
        raise FormatError(
            "rmse over an empty selection" + (" (subset=%s)" % subset if subset else "")
        )
    return math.sqrt(
        math.fsum((p.gold - p.predicted) ** 2 for p in selected) / len(selected)
    )


def rmse_report(pairs: Sequence[ScoredPair]) -> dict:
    """Control / comment / all RMSE with their sample sizes."""
    report = {}
    for name, subset in (("control", "control"), ("comment", "comment"), ("all", None)):
        selected = [p for p in pairs if subset is None or p.subset == subset]
        report[name] = {
            "n": len(selected),
            "rmse": rmse(pairs, subset) if selected else None,
        }
    return report


def _variance(values: Sequence[float], sample: bool) -> float:
    n = len(values)
    mean = math.fsum(values) / n
    ss = math.fsum((v - mean) ** 2 for v in values)
    return ss / (n - 1) if sample else ss / n


def d_prime(
    group_a: Sequence[float],
    group_b: Sequence[float],
    sample_variance: bool = True,
) -> float:
    """Discrimination between two score populations.

    |mean_a - mean_b| / sqrt((var_a + var_b) / 2). Zero pooled variance is
    only defined when the means agree too (result 0).
    """
    if len(group_a) < 2 or len(group_b) < 2:
        raise FormatError("d_prime needs at least 2 values per group")
    mean_a = math.fsum(group_a) / len(group_a)
    mean_b = math.fsum(group_b) / len(group_b)
    pooled = (_variance(group_a, sample_variance) + _variance(group_b, sample_variance)) / 2.0
    if pooled == 0.0:
        if mean_a == mean_b:
            return 0.0
        raise AldiError("d_prime undefined: zero variance with distinct means")
    return abs(mean_a - mean_b) / math.sqrt(pooled)


# ---------------------------------------------------------------------------
# Contrastive feature pairs


VARIANTS = ("MSA", "EGY")


class ContrastivePair(NamedTuple):
    feature_id: str
    variant: str
    word_order: str
    gender: str
    text: str


PAIRS_HEADER = ("feature_id", "variant", "word_order", "gender", "text")


def read_pairs_file(path: str | Path) -> list[ContrastivePair]:
    """The pairs in file order. A line is refused, by its number in the file,
    for a wrong width or variant, a text that normalizes to nothing, or a
    repeat of an earlier line's (feature_id, variant, word_order, gender)."""
    from .textnorm import normalize  # here, so that evaluate does not load it

    pairs = []
    first_line: dict[tuple[str, ...], int] = {}
    for lineno, cells in numbered_cells(path):
        if lineno == 1 and tuple(cells) == PAIRS_HEADER:
            continue
        check_width(path, lineno, cells, len(PAIRS_HEADER))
        pair = ContrastivePair(*cells)
        if pair.variant not in VARIANTS:
            raise FormatError(
                "%s: line %d has unknown variant %r" % (path, lineno, pair.variant)
            )
        if not normalize(pair.text):
            raise FormatError("%s: line %d has an empty text" % (path, lineno))
        earlier = first_line.setdefault(pair[:4], lineno)
        if earlier != lineno:
            raise FormatError("%s: line %d repeats line %d" % (path, lineno, earlier))
        pairs.append(pair)
    return pairs


def contrastive_matrix(pairs: Sequence[ContrastivePair], estimators: Sequence) -> list[dict]:
    """Score every pair text with every estimator, Table-style rows.

    A row is the object that ``contrastive --json`` prints, one per
    (feature_id, word_order): ``{"feature_id", "word_order", "scores":
    {estimator id: {variant: {gender: score}}}, "flagged": [sorted ids]}``.
    Each must carry both an MSA and an EGY variant, which is checked before
    any estimator runs. An estimator is flagged on a row when it scores the
    MSA variant at or above the EGY variant for any gender present on both
    sides, or on average if none is (a dialectness estimator must separate
    them the other way).
    """
    variants: dict[tuple[str, str], set[str]] = {}
    for p in pairs:
        variants.setdefault((p.feature_id, p.word_order), set()).add(p.variant)
    for (feature_id, word_order), present in variants.items():
        for variant in VARIANTS:
            if variant not in present:
                raise FormatError(
                    "feature %s (%s) is missing its %s variant"
                    % (feature_id, word_order, variant)
                )
    rows = {k: {"feature_id": k[0], "word_order": k[1], "scores": {}, "flagged": []}
            for k in variants}

    texts = [p.text for p in pairs]
    for estimator in estimators:
        scores = estimator.score_many(texts)
        for p, score in zip(pairs, scores):
            by_variant = rows[p.feature_id, p.word_order]["scores"].setdefault(
                estimator.estimator_id, {})
            by_variant.setdefault(p.variant, {})[p.gender] = score

    for row in rows.values():
        for estimator_id, by_variant in row["scores"].items():
            msa, egy = by_variant["MSA"], by_variant["EGY"]
            common = set(msa) & set(egy)
            if common:
                flagged = any(msa[g] >= egy[g] for g in common)
            else:
                flagged = sum(msa.values()) / len(msa) >= sum(egy.values()) / len(egy)
            if flagged:
                row["flagged"].append(estimator_id)
        row["flagged"].sort()
    return list(rows.values())


_GENDER_ORDER = {"masc": 0, "fem": 1}


def _gender_key(gender: str) -> tuple[int, str]:
    return (_GENDER_ORDER.get(gender, 2), gender)


def render_matrix_tsv(rows: Sequence[dict]) -> str:
    """Feature x estimator table of ``contrastive_matrix`` rows; masculine
    and feminine collapsed when equal."""
    from .estimators import format_score  # here, so that evaluate does not load it

    estimator_ids = sorted({eid for row in rows for eid in row["scores"]})
    header = ["feature_id", "word_order"]
    for eid in estimator_ids:
        header += ["%s:MSA" % eid, "%s:EGY" % eid]
    header.append("flags")
    lines = ["\t".join(header)]
    for row in rows:
        cells = [row["feature_id"], row["word_order"]]
        for eid in estimator_ids:
            by_variant = row["scores"].get(eid, {})
            for variant in VARIANTS:
                by_gender = by_variant.get(variant, {})
                rendered = [
                    format_score(by_gender[g]) for g in sorted(by_gender, key=_gender_key)
                ]
                cells.append(" / ".join(rendered if len(set(rendered)) > 1 else rendered[:1]))
        cells.append(",".join(row["flagged"]))
        lines.append("\t".join(cells))
    return "\n".join(lines) + "\n"
