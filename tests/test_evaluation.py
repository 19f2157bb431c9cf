import math
import random
from pathlib import Path

import pytest

from aldikit.errors import AldiError, FormatError
from aldikit.estimators import LexiconEstimator, PositionalEstimator, load_lexicon
from aldikit.evaluation import (
    PAIRS_HEADER,
    ContrastivePair,
    ScoredPair,
    contrastive_matrix,
    d_prime,
    read_pairs_file,
    render_matrix_tsv,
    rmse,
    rmse_report,
)

DATA_DIR = Path(__file__).resolve().parent.parent / "src" / "aldikit" / "data"


# ---------------------------------------------------------------------------
# RMSE


def pairs_of(gold, predicted, subset="comment"):
    return [ScoredPair(g, p, subset) for g, p in zip(gold, predicted)]


def test_rmse_zero_when_equal():
    assert rmse(pairs_of([0.2, 0.9], [0.2, 0.9])) == 0.0


def test_rmse_unit_errors():
    assert rmse(pairs_of([0.0, 1.0], [1.0, 0.0])) == 1.0


def test_rmse_empty_selection():
    with pytest.raises(FormatError):
        rmse([])
    with pytest.raises(FormatError, match="control"):
        rmse(pairs_of([0.1], [0.1]), subset="control")


def test_rmse_symmetric_and_permutation_invariant():
    rng = random.Random(4)
    gold = [rng.random() for _ in range(20)]
    pred = [rng.random() for _ in range(20)]
    forward = rmse(pairs_of(gold, pred))
    assert rmse(pairs_of(pred, gold)) == pytest.approx(forward, abs=1e-15)
    shuffled = pairs_of(gold, pred)
    rng.shuffle(shuffled)
    assert rmse(shuffled) == pytest.approx(forward, abs=1e-12)


def test_rmse_decomposition_identity():
    rng = random.Random(17)
    pairs = pairs_of(
        [rng.random() for _ in range(40)],
        [rng.random() for _ in range(40)],
        subset="control",
    ) + pairs_of(
        [rng.random() for _ in range(60)],
        [rng.random() for _ in range(60)],
        subset="comment",
    )
    n_ctrl = 40
    n_cmnt = 60
    lhs = rmse(pairs) ** 2 * (n_ctrl + n_cmnt)
    rhs = rmse(pairs, "control") ** 2 * n_ctrl + rmse(pairs, "comment") ** 2 * n_cmnt
    assert abs(lhs - rhs) < 1e-9


def test_rmse_report_counts():
    pairs = pairs_of([0.0], [0.0], "control") + pairs_of([1.0], [0.0], "comment")
    report = rmse_report(pairs)
    assert report["control"]["n"] == 1
    assert report["comment"]["rmse"] == 1.0
    assert report["all"]["n"] == 2


# ---------------------------------------------------------------------------
# D-prime


def test_dprime_identical_groups():
    assert d_prime([0.3, 0.5], [0.3, 0.5]) == 0.0


def test_dprime_hand_value():
    assert d_prime([0.8, 1.0], [0.0, 0.2]) == pytest.approx(5.657, abs=1e-3)


def test_dprime_symmetry_shift_scale():
    rng = random.Random(23)
    for _ in range(200):
        a = [rng.random() for _ in range(rng.randrange(2, 12))]
        b = [rng.random() for _ in range(rng.randrange(2, 12))]
        base = d_prime(a, b)
        assert d_prime(b, a) == pytest.approx(base, abs=1e-12)
        shift = rng.uniform(-5, 5)
        assert d_prime([v + shift for v in a], [v + shift for v in b]) == pytest.approx(
            base, rel=1e-9
        )
        scale = rng.uniform(0.1, 10)
        assert d_prime([v * scale for v in a], [v * scale for v in b]) == pytest.approx(
            base, rel=1e-9
        )


def test_dprime_small_groups_error():
    with pytest.raises(FormatError):
        d_prime([0.5], [0.1, 0.2])


def test_dprime_zero_variance_distinct_means():
    with pytest.raises(AldiError, match="zero variance"):
        d_prime([0.5, 0.5], [0.1, 0.1])


def test_dprime_population_variant():
    sample = d_prime([0.8, 1.0], [0.0, 0.2], sample_variance=True)
    population = d_prime([0.8, 1.0], [0.0, 0.2], sample_variance=False)
    assert population == pytest.approx(sample * math.sqrt(2), rel=1e-12)


# ---------------------------------------------------------------------------
# contrastive pairs


def fixture_estimator():
    return LexiconEstimator(load_lexicon(DATA_DIR / "contrastive_lexicon.txt"))


def test_contrastive_fixture_matrix():
    pairs = read_pairs_file(DATA_DIR / "contrastive_pairs_egy.tsv")
    rows = contrastive_matrix(pairs, [fixture_estimator()])
    by_key = {(r["feature_id"], r["word_order"]): r for r in rows}
    for key, egy_expected in [
        (("F1", "VSO"), 1 / 3),
        (("F1", "SVO"), 1 / 3),
        (("F2", "VSO"), 1 / 3),
        (("F2", "SVO"), 1 / 3),
        (("F3", "VO"), 1 / 2),
        (("F3", "OV"), 1 / 2),
        (("F4", "VSO"), 1 / 3),
        (("F4", "SVO"), 1 / 3),
        (("F5", "VSO"), 1 / 2),
    ]:
        row = by_key[key]
        cell = row["scores"]["lexicon"]
        assert set(cell["MSA"].values()) == {0.0}, key
        assert set(cell["EGY"].values()) == {egy_expected}, key
        assert "lexicon" not in row["flagged"]


def test_contrastive_binary_di_columns():
    pairs = [
        ContrastivePair("F1", "MSA", "VSO", "fem", "جملة فصحى"),
        ContrastivePair("F1", "EGY", "VSO", "fem", "جملة عامية"),
    ]
    rows = contrastive_matrix(pairs, [PositionalEstimator("binary-di", ["MSA", "EGY"])])
    cell = rows[0]["scores"]["binary-di"]
    assert cell["MSA"]["fem"] == 0.0
    assert cell["EGY"]["fem"] == 1.0


def test_contrastive_identical_texts_flagged():
    pairs = [
        ContrastivePair("F9", "MSA", "VSO", "fem", "نفس الجملة"),
        ContrastivePair("F9", "EGY", "VSO", "fem", "نفس الجملة"),
    ]
    est = fixture_estimator()
    rows = contrastive_matrix(pairs, [est])
    assert "lexicon" in rows[0]["flagged"]


def test_contrastive_missing_variant_errors():
    pairs = [ContrastivePair("F1", "MSA", "VSO", "fem", "جملة")]
    with pytest.raises(FormatError, match="EGY"):
        contrastive_matrix(pairs, [fixture_estimator()])


class _RaisingEstimator:
    estimator_id = "raising"

    def score_many(self, sentences):
        raise AssertionError("an estimator ran before the pairs were checked")


def test_contrastive_missing_variant_is_refused_before_any_estimator_runs():
    pairs = [
        ContrastivePair("F1", "MSA", "VSO", "fem", "جملة"),
        ContrastivePair("F1", "EGY", "VSO", "fem", "جملة"),
        ContrastivePair("F2", "MSA", "SVO", "masc", "جملة"),
        ContrastivePair("F3", "EGY", "VSO", "masc", "جملة"),
    ]
    with pytest.raises(FormatError) as excinfo:
        contrastive_matrix(pairs, [_RaisingEstimator()])
    assert str(excinfo.value) == "feature F2 (SVO) is missing its EGY variant"


@pytest.mark.parametrize("line_3, message", [
    ("F1\tEGY\tVSO\tmasc\t\u0640\u064e ", "line 3 has an empty text"),
    ("F1\tMSA\tVSO\tmasc\tاتقالت اتقالت", "line 3 repeats line 2"),
], ids=["empty-text", "repeated"])
def test_read_pairs_file_names_the_file_line(tmp_path, line_3, message):
    path = tmp_path / "pairs.tsv"
    path.write_text(
        "\t".join(PAIRS_HEADER) + "\nF1\tMSA\tVSO\tmasc\tالحقيقة\n" + line_3 + "\n",
        encoding="utf-8",
    )
    with pytest.raises(FormatError) as excinfo:
        read_pairs_file(path)
    assert str(excinfo.value) == "%s: %s" % (path, message)


def test_render_matrix_collapses_genders():
    pairs = [
        ContrastivePair("F1", "MSA", "VSO", "masc", "الحقيقة"),
        ContrastivePair("F1", "MSA", "VSO", "fem", "الحقيقة"),
        ContrastivePair("F1", "EGY", "VSO", "masc", "اتقالت"),
        ContrastivePair("F1", "EGY", "VSO", "fem", "الحقيقة اتقالت"),
    ]
    rows = contrastive_matrix(pairs, [fixture_estimator()])
    text = render_matrix_tsv(rows)
    line = text.splitlines()[1].split("\t")
    assert line[2] == "0.000000"  # masc == fem, collapsed
    assert line[3] == "1.000000 / 0.500000"  # masc / fem kept apart
