import math
import random
import warnings
from collections import Counter
from fractions import Fraction

import pytest

from aldikit.agreement import (
    fleiss_kappa,
    krippendorff_alpha_interval,
    level_agreement_items,
)
from aldikit.dataset import group_comments
from aldikit.errors import FormatError

from conftest import make_row


# ---------------------------------------------------------------------------
# Brute-force oracles, written straight off the published definitions and
# kept deliberately independent of the implementations under test.


def oracle_fleiss_kappa(items):
    n = len(items[0])
    big_n = len(items)
    # observed agreement: fraction of agreeing ordered rater pairs per item
    p_is = []
    for ratings in items:
        agree = 0
        for a in range(n):
            for b in range(n):
                if a != b and ratings[a] == ratings[b]:
                    agree += 1
        p_is.append(agree / (n * (n - 1)))
    p_bar = sum(p_is) / big_n
    # expected agreement from global category proportions
    categories = {}
    for ratings in items:
        for r in ratings:
            categories[r] = categories.get(r, 0) + 1
    total = big_n * n
    p_e = sum((c / total) ** 2 for c in categories.values())
    if p_e >= 1.0:
        return 1.0
    return (p_bar - p_e) / (1 - p_e)


def oracle_alpha_interval(items):
    units = [list(map(float, u)) for u in items if len(u) >= 2]
    n = sum(len(u) for u in units)
    d_o = 0.0
    for unit in units:
        m = len(unit)
        within = 0.0
        for i in range(m):
            for j in range(m):
                if i != j:
                    within += (unit[i] - unit[j]) ** 2
        d_o += within / (m - 1)
    d_o /= n
    pooled = [v for unit in units for v in unit]
    d_e = 0.0
    for i in range(n):
        for j in range(n):
            if i != j:
                d_e += (pooled[i] - pooled[j]) ** 2
    d_e /= n * (n - 1)
    if d_e == 0.0:
        return 1.0
    return 1.0 - d_o / d_e


def fsum_fleiss_kappa(items):
    """Per-item terms summed with math.fsum, one term per item."""
    n = len(items[0])
    category_totals = Counter()
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
        return 1.0
    return (p_bar - p_e) / (1.0 - p_e)


def fsum_alpha_interval(items):
    """Per-unit terms summed with math.fsum, one term per unit."""
    pairable = [list(map(float, ratings)) for ratings in items if len(ratings) >= 2]
    n = sum(len(r) for r in pairable)
    value_counts = Counter()
    unit_terms = []
    for ratings in pairable:
        value_counts.update(ratings)
        m = len(ratings)
        within = math.fsum(
            (a - b) ** 2 for i, a in enumerate(ratings) for b in ratings[i + 1 :]
        )
        unit_terms.append(2.0 * within / (m - 1))
    d_observed = math.fsum(unit_terms) / n
    values = sorted(value_counts)
    d_expected = math.fsum(
        value_counts[a] * value_counts[b] * (a - b) ** 2
        for i, a in enumerate(values)
        for b in values[i + 1 :]
    ) * 2.0 / (n * (n - 1))
    if d_expected == 0.0:
        return 1.0
    return 1.0 - d_observed / d_expected


def exact_fleiss_kappa(items):
    """Fleiss' kappa in exact rational arithmetic."""
    n = len(items[0])
    p_bar = sum(
        Fraction(sum(c * (c - 1) for c in Counter(r).values()), n * (n - 1))
        for r in items
    ) / len(items)
    total = len(items) * n
    totals = Counter(v for r in items for v in r)
    p_e = sum(Fraction(c, total) ** 2 for c in totals.values())
    if p_e == 1:
        return Fraction(1)
    return (p_bar - p_e) / (1 - p_e)


def exact_alpha_interval(items):
    """Interval alpha in exact rational arithmetic over the float values."""
    units = [[Fraction(float(v)) for v in u] for u in items if len(u) >= 2]
    n = sum(len(u) for u in units)
    d_o = sum(
        sum((a - b) ** 2 for a in u for b in u) / (len(u) - 1) for u in units
    ) / n
    totals = Counter(v for u in units for v in u)
    d_e = sum(
        ca * cb * (a - b) ** 2 for a, ca in totals.items() for b, cb in totals.items()
    ) / (n * (n - 1))
    if d_e == 0:
        return Fraction(1)
    return 1 - d_o / d_e


# ---------------------------------------------------------------------------


def test_kappa_hand_case():
    value = fleiss_kappa([("A", "A", "A"), ("A", "B", "B")])
    assert abs(value - 0.25) < 1e-12
    assert abs(oracle_fleiss_kappa([("A", "A", "A"), ("A", "B", "B")]) - 0.25) < 1e-12


def test_kappa_perfect_agreement_multiple_categories():
    items = [("A", "A", "A"), ("B", "B", "B"), ("C", "C", "C")]
    assert fleiss_kappa(items) == 1.0


def test_kappa_degenerate_single_category_warns():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert fleiss_kappa([("A", "A", "A"), ("A", "A", "A")]) == 1.0
    assert any("single category" in str(w.message) for w in caught)


def test_kappa_requires_equal_rater_counts():
    with pytest.raises(FormatError, match="equal rater count"):
        fleiss_kappa([("A", "A", "A"), ("A", "B")])


def test_kappa_requires_two_items():
    with pytest.raises(FormatError):
        fleiss_kappa([("A", "B")])


def test_alpha_hand_case():
    assert krippendorff_alpha_interval([(0, 0), (0, 1)]) == 0.0


def test_alpha_all_identical():
    assert krippendorff_alpha_interval([(0.5, 0.5), (0.5, 0.5, 0.5)]) == 1.0


def test_alpha_ignores_single_rating_items():
    base = [(0.0, 1.0), (1.0, 1.0)]
    padded = base + [(0.25,)]
    assert krippendorff_alpha_interval(base) == pytest.approx(
        krippendorff_alpha_interval(padded), abs=1e-12
    )


def test_alpha_no_pairable_values():
    with pytest.raises(FormatError, match="pairable"):
        krippendorff_alpha_interval([(1.0,), (0.0,)])


def _random_matrix(rng, max_items=6, raters=3, categories=4):
    items = []
    for _ in range(rng.randrange(2, max_items + 1)):
        items.append(tuple(rng.randrange(categories) for _ in range(raters)))
    return items


def test_kappa_matches_oracle_random():
    rng = random.Random(2024)
    for _ in range(200):
        items = _random_matrix(rng)
        labels = [tuple("ABCD"[v] for v in item) for item in items]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert abs(fleiss_kappa(labels) - oracle_fleiss_kappa(labels)) < 1e-9


def test_alpha_matches_oracle_random():
    rng = random.Random(2025)
    values = (0.0, 1 / 3, 2 / 3, 1.0)
    for _ in range(200):
        items = [
            tuple(values[v] for v in item) for item in _random_matrix(rng)
        ]
        assert abs(
            krippendorff_alpha_interval(items) - oracle_alpha_interval(items)
        ) < 1e-9


def test_alpha_variable_raters_matches_oracle():
    rng = random.Random(77)
    for _ in range(100):
        items = [
            tuple(rng.choice((0.0, 0.5, 1.0)) for _ in range(rng.randrange(2, 6)))
            for _ in range(rng.randrange(2, 7))
        ]
        assert abs(
            krippendorff_alpha_interval(items) - oracle_alpha_interval(items)
        ) < 1e-9


def test_permutation_invariance():
    rng = random.Random(31)
    for _ in range(50):
        items = _random_matrix(rng)
        labels = [tuple("ABCD"[v] for v in item) for item in items]
        values = [tuple(float(v) for v in item) for item in items]
        shuffled_items = list(labels)
        rng.shuffle(shuffled_items)
        shuffled_raters = [tuple(rng.sample(item, len(item))) for item in labels]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            base = fleiss_kappa(labels)
            assert fleiss_kappa(shuffled_items) == pytest.approx(base, abs=1e-12)
            assert fleiss_kappa(shuffled_raters) == pytest.approx(base, abs=1e-12)
        alpha_base = krippendorff_alpha_interval(values)
        shuffled_values = list(values)
        rng.shuffle(shuffled_values)
        assert krippendorff_alpha_interval(shuffled_values) == pytest.approx(
            alpha_base, abs=1e-12
        )


def test_alpha_affine_invariance():
    rng = random.Random(13)
    for _ in range(100):
        items = [
            tuple(float(rng.randrange(4)) for _ in range(3))
            for _ in range(rng.randrange(2, 6))
        ]
        base = krippendorff_alpha_interval(items)
        scale = rng.uniform(0.5, 4.0)
        shift = rng.uniform(-3.0, 3.0)
        transformed = [tuple(scale * v + shift for v in item) for item in items]
        assert krippendorff_alpha_interval(transformed) == pytest.approx(
            base, abs=1e-9
        )


def test_level_agreement_items_selection():
    rows = []
    # group 1: 3 usable annotations
    rows += [
        make_row(text="أ", level=lv, worker="w%d" % i)
        for i, lv in enumerate(["MSA", "Little", "Most"])
    ]
    # group 2: has a Missing annotation -> excluded
    rows += [
        make_row(text="ب", level=lv, worker="w%d" % i)
        for i, lv in enumerate(["MSA", "Missing", "Most"])
    ]
    # group 3: four annotations -> excluded
    rows += [
        make_row(text="ج", level="Most", worker="w%d" % i) for i in range(4)
    ]
    labels, values = level_agreement_items(group_comments(rows))
    assert labels == [("MSA", "Little", "Most")]
    assert values == [(0.0, pytest.approx(1 / 3), 1.0)]


LEVELS = ("MSA", "Little", "Mixed", "Most")


def _aoc_like(rng, items):
    """3-rater items with the skew of real annotations: few distinct triples."""
    weights = [rng.random() ** 2 for _ in LEVELS]
    labels, values = [], []
    for _ in range(items):
        base = rng.choices(range(4), weights)[0]
        triple = [
            base if rng.random() < 0.6 else rng.choices(range(4), weights)[0]
            for _ in range(3)
        ]
        labels.append([LEVELS[k] for k in triple])
        values.append([k / 3 for k in triple])
    return labels, values


def test_weighted_statistics_equal_per_item_fsum_on_aoc_like_inputs():
    for seed in range(6):
        rng = random.Random("aoc-%d" % seed)
        labels, values = _aoc_like(rng, rng.randint(1500, 4000))
        assert len(Counter(map(tuple, labels))) <= 64
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            kappa = fleiss_kappa(labels)
            assert kappa == fsum_fleiss_kappa(labels), seed
        assert abs(kappa - exact_fleiss_kappa(labels)) < 1e-12, seed
        alpha = krippendorff_alpha_interval(values)
        assert alpha == fsum_alpha_interval(values), seed
        assert abs(alpha - exact_alpha_interval(values)) < 1e-12, seed


def test_weighted_alpha_equals_per_item_fsum_with_variable_raters():
    for seed in range(6):
        rng = random.Random("raters-%d" % seed)
        scale = [rng.uniform(-2.0, 2.0) for _ in range(rng.randint(2, 6))]
        items = [
            tuple(rng.choice(scale) for _ in range(rng.choice((1, 2, 2, 3, 3, 3, 5))))
            for _ in range(rng.randint(1000, 4000))
        ]
        alpha = krippendorff_alpha_interval(items)
        assert alpha == fsum_alpha_interval(items), seed
        assert abs(alpha - exact_alpha_interval(items)) < 1e-12, seed


def test_kappa_length_error_names_the_first_short_item():
    items = [("A", "B", "C")] * 5 + [("A", "B")] + [("A",)] + [("A", "B")]
    with pytest.raises(FormatError, match="item 5 has 2 ratings, expected 3"):
        fleiss_kappa(items)


def test_alpha_rejects_non_finite_values():
    with pytest.raises(FormatError, match="finite"):
        krippendorff_alpha_interval([(0.0, 1.0), (float("nan"), 1.0)])
