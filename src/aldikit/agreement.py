"""Chance-corrected inter-annotator agreement statistics.

Two statistics over level-of-dialectness annotations:

- Fleiss' kappa over categorical labels, for items that all carry the same
  number of ratings.
- Krippendorff's alpha with the interval metric, over the numeric label
  values; the coincidence-matrix formulation tolerates a variable number
  of ratings per item (items with fewer than two ratings are unpairable
  and ignored).

Both work over the distinct rating tuples and how often each occurs: a
corpus of 3-rater items on a 4-level scale holds at most 64 distinct
ordered triples, however many items it has. Each tuple's term is computed
once, and ``term * count`` is summed exactly as a ``Fraction`` and rounded
once at the end. That is the correctly rounded sum of the per-item terms,
which is what ``math.fsum`` over those terms returns, so the result does
not depend on item order or on how the items are grouped.
"""

from __future__ import annotations

import math
import warnings
from collections import Counter
from fractions import Fraction
from typing import Hashable, Sequence

from .dataset import CommentGroup, LEVEL_THIRDS
from .errors import FormatError


def _weighted_sum(terms) -> Fraction:
    """The exact sum of ``term * count`` over ``(term, count)`` pairs."""
    return sum((Fraction(term) * count for term, count in terms), Fraction(0))


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
    tallies = Counter(map(tuple, items))
    if any(len(ratings) != n for ratings in tallies):
        i, ratings = next((i, r) for i, r in enumerate(items) if len(r) != n)
        raise FormatError(
            "item %d has %d ratings, expected %d (equal rater count required)"
            % (i, len(ratings), n)
        )

    category_totals: Counter = Counter()
    item_terms = []
    for ratings, count in tallies.items():
        counts = Counter(ratings)
        for category, k in counts.items():
            category_totals[category] += k * count
        agree_pairs = sum(c * (c - 1) for c in counts.values())
        item_terms.append((agree_pairs / (n * (n - 1)), count))

    total = len(items) * n
    p_bar = float(_weighted_sum(item_terms)) / len(items)
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
    tallies = Counter(tuple(ratings) for ratings in items if len(ratings) >= 2)
    if not tallies:
        raise FormatError("krippendorff alpha is undefined: no pairable values")

    n = 0
    value_counts: Counter = Counter()
    unit_terms = []
    for ratings, count in tallies.items():
        ratings = list(map(float, ratings))
        if not all(map(math.isfinite, ratings)):
            raise FormatError("krippendorff alpha needs finite values, got %r"
                              % (ratings,))
        m = len(ratings)
        n += m * count
        for value in ratings:
            value_counts[value] += count
        within = math.fsum(
            (a - b) ** 2 for i, a in enumerate(ratings) for b in ratings[i + 1 :]
        )
        # ordered pairs double the unordered sum
        unit_terms.append((2.0 * within / (m - 1), count))
    d_observed = float(_weighted_sum(unit_terms)) / n

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


# each ordinal level's numeric value, one float object that every item shares
_LEVEL_VALUES = {level: thirds / 3 for level, thirds in LEVEL_THIRDS.items()}


def level_agreement_items(
    groups: Sequence[CommentGroup],
) -> tuple[list[tuple[str, ...]], list[tuple[float, ...]]]:
    """Agreement inputs from grouped comments.

    Selects groups carrying exactly 3 annotations, all on the ordinal scale
    (no NotArabic/Missing), which is the subset both statistics are quoted
    on. Returns (categorical label triples, numeric value triples); a label
    triple is the group's own ``levels`` tuple.
    """
    labels: list[tuple[str, ...]] = []
    values: list[tuple[float, ...]] = []
    for group in groups:
        levels = group.levels
        if len(levels) != 3 or any(lv not in LEVEL_THIRDS for lv in levels):
            continue
        labels.append(levels)
        values.append(tuple([_LEVEL_VALUES[lv] for lv in levels]))
    return labels, values
