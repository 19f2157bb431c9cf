"""Chance-corrected inter-annotator agreement statistics.

Two statistics over level-of-dialectness annotations:

- Fleiss' kappa over categorical labels, for items that all carry the same
  number of ratings.
- Krippendorff's alpha with the interval metric, over the numeric label
  values; the coincidence-matrix formulation tolerates a variable number
  of ratings per item (items with fewer than two ratings are unpairable
  and ignored).

Sums use math.fsum so corpus-scale runs (hundreds of thousands of pair
terms) are not at the mercy of accumulation order.
"""

from __future__ import annotations

import math
import warnings
from collections import Counter
from typing import Hashable, Sequence

from .dataset import CommentGroup, LEVEL_THIRDS
from .errors import FormatError


def fleiss_kappa(items: Sequence[Sequence[Hashable]]) -> float:
    """Fleiss' kappa for categorical ratings, n raters per item.

    If every rating across the whole matrix falls in one category, expected
    agreement is 1 and the ratio degenerates; by convention 1.0 is returned
    (with a warning) since observed agreement is also perfect.
    """
    if len(items) < 2:
        raise FormatError("fleiss_kappa needs at least 2 items")
    n = len(items[0])
    if n < 2:
        raise FormatError("fleiss_kappa needs at least 2 ratings per item")
    for i, ratings in enumerate(items):
        if len(ratings) != n:
            raise FormatError(
                "item %d has %d ratings, expected %d (equal rater count required)"
                % (i, len(ratings), n)
            )

    category_totals: Counter = Counter()
    per_item_agreement = []
    for ratings in items:
        counts = Counter(ratings)
        category_totals.update(counts)
        agree_pairs = sum(c * (c - 1) for c in counts.values())
        per_item_agreement.append(agree_pairs / (n * (n - 1)))

    total = len(items) * n
    p_bar = math.fsum(per_item_agreement) / len(items)
    p_e = math.fsum((c / total) ** 2 for c in category_totals.values())
    if p_e >= 1.0:
        warnings.warn(
            "all ratings fall in a single category; kappa is 1 by convention",
            stacklevel=2,
        )
        return 1.0
    return (p_bar - p_e) / (1.0 - p_e)


def krippendorff_alpha_interval(items: Sequence[Sequence[float]]) -> float:
    """Krippendorff's alpha, interval metric, variable raters per item.

    Disagreement between two values is their squared difference. Items with
    fewer than 2 ratings contribute nothing. Raises if no item is pairable.
    """
    pairable = [list(map(float, ratings)) for ratings in items if len(ratings) >= 2]
    if not pairable:
        raise FormatError("krippendorff alpha is undefined: no pairable values")

    n = sum(len(r) for r in pairable)
    value_counts: Counter = Counter()
    unit_terms = []
    for ratings in pairable:
        value_counts.update(ratings)
        m = len(ratings)
        within = math.fsum(
            (a - b) ** 2 for i, a in enumerate(ratings) for b in ratings[i + 1 :]
        )
        # ordered pairs double the unordered sum
        unit_terms.append(2.0 * within / (m - 1))
    d_observed = math.fsum(unit_terms) / n

    values = sorted(value_counts)
    d_expected = math.fsum(
        value_counts[a] * value_counts[b] * (a - b) ** 2
        for i, a in enumerate(values)
        for b in values[i + 1 :]
    ) * 2.0 / (n * (n - 1))

    if d_expected == 0.0:
        # every pairable value identical: no disagreement to correct for
        return 1.0
    return 1.0 - d_observed / d_expected


def level_agreement_items(
    groups: Sequence[CommentGroup],
) -> tuple[list[list[str]], list[list[float]]]:
    """Agreement inputs from grouped comments.

    Selects groups carrying exactly 3 annotations, all on the ordinal scale
    (no NotArabic/Missing), which is the subset both statistics are quoted
    on. Returns (categorical label triples, numeric value triples).
    """
    labels: list[list[str]] = []
    values: list[list[float]] = []
    for group in groups:
        levels = group.levels
        if len(levels) != 3 or any(lv not in LEVEL_THIRDS for lv in levels):
            continue
        labels.append(levels)
        values.append([LEVEL_THIRDS[lv] / 3 for lv in levels])
    return labels, values
