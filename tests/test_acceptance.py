"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Corpus-dependent criteria (3 and 4) need external data and are skipped
unless the environment points at it:

  ALDIKIT_AOC_ROWS    annotation-rows TSV of the full public AOC release
                      (produced by `aldikit ingest`)
  ALDIKIT_AOC_SPLITS  released article-to-split assignment file (optional;
                      enables the exact split-count checks)
  ALDIKIT_UN_LEXICON  lexicon file built from the UN proceedings corpus
"""

import contextlib
import os
import random
import time
from fractions import Fraction
from pathlib import Path

import pytest

from aldikit import cli, dataset, pipeline
from aldikit.agreement import fleiss_kappa, krippendorff_alpha_interval
from aldikit.dataset import CommentGroup, aggregate, format_thirds
from aldikit.estimators import (
    LexiconEstimator,
    build_lexicon,
    cmi_score,
    lexicon_score,
    load_lexicon,
)
from aldikit.evaluation import (
    ScoredPair,
    contrastive_matrix,
    d_prime,
    read_pairs_file,
    rmse,
)
from aldikit.speech import ScoreSeries, SeriesPoint, segment_html
from aldikit.svgplot import HEIGHT, MARGIN_BOTTOM, MARGIN_TOP, render_svg

from conftest import make_row, write_rows_file
from test_agreement import oracle_alpha_interval, oracle_fleiss_kappa
from test_speech import extract_marks

DATA_DIR = Path(__file__).resolve().parent.parent / "src" / "aldikit" / "data"


@contextlib.contextmanager
def criterion(number: int, name: str, budget_seconds: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print("ACCEPTANCE %d (%s): FAIL" % (number, name))
        raise
    elapsed = time.perf_counter() - start
    assert elapsed < budget_seconds, (
        "criterion %d exceeded its %.0fs budget (%.2fs)"
        % (number, budget_seconds, elapsed)
    )
    print("ACCEPTANCE %d (%s): PASS [%.2fs]" % (number, name, elapsed))


def make_group(levels):
    return CommentGroup(
        source="AlGhad",
        article_id="a",
        canonical_text="نص",
        raw_text="نص",
        kind="comment",
        levels=tuple(levels),
        dialects=("",) * len(levels),
    )


# ---------------------------------------------------------------------------


def test_criterion_1_aggregation_golden():
    with criterion(1, "aggregation golden values", budget_seconds=1.0):
        cases = [
            (("MSA", "MSA", "Little"), "0.111111"),
            (("Little", "Little", "Most"), "0.555556"),
            (("Most", "Most", "Most"), "1.000000"),
        ]
        for levels, display in cases:
            k, n = aggregate(make_group(levels))
            assert format_thirds(k, n) == display, levels


def test_criterion_2_agreement_oracles():
    with criterion(2, "agreement vs brute-force oracles", budget_seconds=5.0):
        hand_kappa = fleiss_kappa([("A", "A", "A"), ("A", "B", "B")])
        assert abs(hand_kappa - 0.25) < 1e-12
        assert krippendorff_alpha_interval([(0.0, 0.0), (0.0, 1.0)]) == 0.0

        rng = random.Random(20231212)
        values = (0.0, 1 / 3, 2 / 3, 1.0)
        labels = ("MSA", "Little", "Mixed", "Most")
        for _ in range(500):
            items = [
                tuple(rng.randrange(4) for _ in range(3))
                for _ in range(rng.randrange(2, 7))
            ]
            as_labels = [tuple(labels[v] for v in item) for item in items]
            as_values = [tuple(values[v] for v in item) for item in items]
            import warnings

            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                assert abs(
                    fleiss_kappa(as_labels) - oracle_fleiss_kappa(as_labels)
                ) < 1e-9
            assert abs(
                krippendorff_alpha_interval(as_values)
                - oracle_alpha_interval(as_values)
            ) < 1e-9


AOC_ROWS = os.environ.get("ALDIKIT_AOC_ROWS")
AOC_SPLITS = os.environ.get("ALDIKIT_AOC_SPLITS")
UN_LEXICON = os.environ.get("ALDIKIT_UN_LEXICON")

TABLE_COMMENT_PERCENT = {
    "MSA": 57.12,
    "Little": 11.16,
    "Mixed": 6.53,
    "Most": 23.05,
    "NotArabic": 1.64,
    "Missing": 0.50,
}
TABLE_CONTROL_PERCENT = {
    "MSA": 94.36,
    "Little": 1.60,
    "Mixed": 0.66,
    "Most": 1.14,
    "NotArabic": 1.76,
    "Missing": 0.48,
}
TABLE_SPLIT_COUNTS = {
    ("train", "AlGhad"): (24039, 12613),
    ("train", "AlRiyadh"): (41479, 2335),
    ("train", "Youm7"): (20041, 2379),
    ("dev", "AlGhad"): (3107, 1513),
    ("dev", "AlRiyadh"): (4567, 275),
    ("dev", "Youm7"): (2475, 323),
    ("test", "AlGhad"): (2945, 1587),
    ("test", "AlRiyadh"): (5012, 360),
    ("test", "Youm7"): (2514, 271),
}


@pytest.mark.skipif(
    not AOC_ROWS, reason="set ALDIKIT_AOC_ROWS to the full AOC annotation rows"
)
def test_criterion_3_full_corpus_counts(tmp_path):
    with criterion(3, "full-corpus pipeline counts", budget_seconds=120.0):
        out_dir = tmp_path / "aoc"
        summary = pipeline.run_build_dataset(
            AOC_ROWS,
            out_dir,
            seed=42,
            assignment_path=AOC_SPLITS,
        )
        import json

        stats = json.loads((out_dir / "stats.json").read_text(encoding="utf-8"))
        keys = stats["distinct_keys"]
        assert keys["normalized"] == 129873 or keys["raw"] == 129873, keys
        assert stats["groups"]["discarded"] == 2038
        assert stats["groups"]["kept"] == 127835
        for level, expected in TABLE_COMMENT_PERCENT.items():
            got = stats["annotations"]["comment"]["levels"][level]["percent"]
            assert abs(got - expected) <= 0.05, (level, got)
        for level, expected in TABLE_CONTROL_PERCENT.items():
            got = stats["annotations"]["control"]["levels"][level]["percent"]
            assert abs(got - expected) <= 0.05, (level, got)

        report = pipeline.run_agreement(AOC_ROWS)
        assert abs(report["fleiss_kappa"] - 0.44) <= 0.005
        assert abs(report["krippendorff_alpha_interval"] - 0.63) <= 0.005

        if AOC_SPLITS:
            for (split, source), (comments, controls) in TABLE_SPLIT_COUNTS.items():
                got = stats["splits"][split][source]
                assert got.get("comment", 0) == comments, (split, source)
                assert got.get("control", 0) == controls, (split, source)


@pytest.mark.skipif(
    not (AOC_ROWS and AOC_SPLITS and UN_LEXICON),
    reason="needs ALDIKIT_AOC_ROWS, ALDIKIT_AOC_SPLITS, and ALDIKIT_UN_LEXICON",
)
def test_criterion_4_lexicon_baseline_rmse(tmp_path):
    with criterion(4, "lexicon baseline RMSE on the test split", budget_seconds=300.0):
        out_dir = tmp_path / "aoc"
        pipeline.run_build_dataset(
            AOC_ROWS, out_dir, seed=42, assignment_path=AOC_SPLITS
        )
        lexicon = load_lexicon(UN_LEXICON)
        rows = pipeline.read_dataset_file(
            out_dir / "dataset.tsv", ("split", "aldi", "text", "kind")
        )
        pairs = []
        for split, aldi, text, kind in rows:
            if split != "test" or not aldi:
                continue
            pairs.append(
                ScoredPair(
                    gold=float(aldi),
                    predicted=lexicon_score(text, lexicon),
                    subset=kind,
                )
            )
        assert abs(rmse(pairs, "control") - 0.13) <= 0.02
        assert abs(rmse(pairs, "comment") - 0.36) <= 0.02
        assert abs(rmse(pairs) - 0.34) <= 0.02


def test_criterion_5_property_suite():
    with criterion(5, "desk-scale property suite", budget_seconds=10.0):
        rng = random.Random(424242)

        # (a) RMSE decomposition identity
        for _ in range(50):
            n_ctrl = rng.randrange(2, 30)
            n_cmnt = rng.randrange(2, 30)
            pairs = [
                ScoredPair(rng.random(), rng.random(), "control")
                for _ in range(n_ctrl)
            ] + [
                ScoredPair(rng.random(), rng.random(), "comment")
                for _ in range(n_cmnt)
            ]
            lhs = rmse(pairs) ** 2 * (n_ctrl + n_cmnt)
            rhs = (
                rmse(pairs, "control") ** 2 * n_ctrl
                + rmse(pairs, "comment") ** 2 * n_cmnt
            )
            assert abs(lhs - rhs) < 1e-9

        # (b) D' symmetry and shift/scale invariance on 200 pairs
        for _ in range(200):
            a = [rng.random() for _ in range(rng.randrange(2, 15))]
            b = [rng.random() for _ in range(rng.randrange(2, 15))]
            base = d_prime(a, b)
            assert abs(d_prime(b, a) - base) < 1e-12
            shift = rng.uniform(-4, 4)
            scale = rng.uniform(0.05, 20)
            assert abs(
                d_prime([v + shift for v in a], [v + shift for v in b]) - base
            ) <= 1e-9 * max(1.0, base)
            assert abs(
                d_prime([v * scale for v in a], [v * scale for v in b]) - base
            ) <= 1e-9 * max(1.0, base)

        # (c) derived hand value
        assert abs(d_prime([0.8, 1.0], [0.0, 0.2]) - 5.657) <= 0.001

        # (d) lexicon antitonicity under growth on 100 random sentences
        vocab = ["كلمة%d" % i for i in range(40)]
        for _ in range(100):
            sentence = " ".join(
                rng.choice(vocab) for _ in range(rng.randrange(1, 12))
            )
            small_set = frozenset(rng.sample(vocab, rng.randrange(0, 25)))
            grown_set = small_set | frozenset(rng.sample(vocab, rng.randrange(0, 25)))
            assert lexicon_score(sentence, grown_set) <= lexicon_score(
                sentence, small_set
            )

        # (e) CMI permutation/padding invariance on 200 random sequences
        neutral = ["NamedEntity", "Ambiguous", "Mixed", "Other"]
        for _ in range(200):
            tags = [rng.choice(["MSA", "EGY"]) for _ in range(rng.randrange(1, 12))]
            base = cmi_score(tags)
            assert cmi_score(rng.sample(tags, len(tags))) == base
            padded = list(tags)
            for _ in range(rng.randrange(0, 6)):
                padded.insert(rng.randrange(len(padded) + 1), rng.choice(neutral))
            assert cmi_score(padded) == base

        # (f) shipped parallel fixture: DA strictly above MSA on all 50 pairs
        pairs = []
        with open(DATA_DIR / "parallel_msa_da_50.tsv", encoding="utf-8") as fh:
            fh.readline()
            for line in fh:
                msa, da = line.rstrip("\n").split("\t")
                pairs.append((msa, da))
        assert len(pairs) == 50
        lexicon, _ = build_lexicon((m for m, _ in pairs), min_occurrences=2)
        separated = [
            lexicon_score(da, lexicon) > lexicon_score(msa, lexicon)
            for msa, da in pairs
        ]
        assert all(separated)


def test_criterion_6_contrastive_matrix():
    with criterion(6, "contrastive feature matrix", budget_seconds=5.0):
        pairs = read_pairs_file(DATA_DIR / "contrastive_pairs_egy.tsv")
        estimator = LexiconEstimator(load_lexicon(DATA_DIR / "contrastive_lexicon.txt"))
        rows = contrastive_matrix(pairs, [estimator])
        expected_egy = {
            ("F1", "VSO"): Fraction(1, 3),
            ("F1", "SVO"): Fraction(1, 3),
            ("F2", "VSO"): Fraction(1, 3),
            ("F2", "SVO"): Fraction(1, 3),
            ("F3", "VO"): Fraction(1, 2),
            ("F3", "OV"): Fraction(1, 2),
            ("F4", "VSO"): Fraction(1, 3),
            ("F4", "SVO"): Fraction(1, 3),
            ("F5", "VSO"): Fraction(1, 2),
        }
        assert {(r["feature_id"], r["word_order"]) for r in rows} == set(expected_egy)
        for row in rows:
            cell = row["scores"]["lexicon"]
            expected = expected_egy[(row["feature_id"], row["word_order"])]
            for gender, value in cell["MSA"].items():
                assert value == Fraction(0), (row["feature_id"], gender)
            for gender, value in cell["EGY"].items():
                assert Fraction(value).limit_denominator(6) == expected
                assert value == expected.numerator / expected.denominator
            assert "lexicon" not in row["flagged"]


def _rows_fixture(tmp_path):
    rng = random.Random(3)
    rows = []
    for a in range(8):
        for c in range(5):
            for w in range(3):
                level = rng.choice(["MSA", "Little", "Mixed", "Most"])
                rows.append(
                    make_row(
                        source=rng.choice(["AlGhad", "Youm7"]),
                        article_id="art%d" % a,
                        text="تعليق %d %d" % (a, c),
                        level=level,
                        dialect="EGY" if level != "MSA" else "",
                        worker="w%d" % w,
                    )
                )
    return write_rows_file(tmp_path, rows)


def test_criterion_7_determinism(tmp_path, monkeypatch):
    with criterion(7, "byte-identical rebuilds", budget_seconds=30.0):
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")
        rows_file = _rows_fixture(tmp_path)
        # the manifest records the argv, so both runs write the same directory
        out_dir = tmp_path / "out"
        outputs = []
        for _ in range(2):
            code = cli.main(
                ["build-dataset", str(rows_file), "--seed", "42", "-o", str(out_dir)]
            )
            assert code == 0
            outputs.append({p.name: p.read_bytes() for p in sorted(out_dir.iterdir())})
        assert set(outputs[0]) == {
            "dataset.tsv", "discarded.tsv", "split_assignment.tsv",
            "stats.json", "stats.txt", "manifest.json",
        }
        # same seed, rerun over the first run's files: identical bytes everywhere
        assert outputs[0] == outputs[1]


def test_criterion_8_case_study_plumbing():
    with criterion(8, "segmentation and plot plumbing", budget_seconds=5.0):
        # segmentation goldens
        assert segment_html("a<br>b<br><br>c", "br") == ["a", "b", "c"]
        assert segment_html("<p>x</p><p>y</p>", "p") == ["x", "y"]
        assert segment_html("&#1633;", "br") == ["١"]
        assert segment_html(
            "<p>قال <b>الرئيس</b> &#1633; كلمة</p>", "p"
        ) == ["قال الرئيس ١ كلمة"]

        # plot: well-formed, byte-stable, coordinates recover the scores
        n = 100
        scores = [i / (n - 1) for i in range(n)]
        series = ScoreSeries(
            "ramp",
            "synthetic",
            tuple(
                SeriesPoint(i + 1, "s%d" % i, score) for i, score in enumerate(scores)
            ),
        )
        first = render_svg(series)
        second = render_svg(series)
        assert first == second
        marks = extract_marks(first)  # parses as XML
        assert len(marks) == n
        plot_h = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM
        for (x, y), score in zip(marks, scores):
            recovered = 1.0 - (y - MARGIN_TOP) / plot_h
            assert abs(recovered - score) <= 0.5 / plot_h + 1e-9
        ys = [y for _, y in marks]
        assert all(a > b for a, b in zip(ys, ys[1:]))
