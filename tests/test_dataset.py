import random
from decimal import ROUND_HALF_EVEN, Decimal
from fractions import Fraction

import pytest

from aldikit import dataset, pipeline
from aldikit.agreement import level_agreement_items
from aldikit.dataset import (
    LEVEL_THIRDS,
    CommentGroup,
    aggregate,
    categorize_discard,
    count_distinct_keys,
    discard_junk,
    format_thirds,
    group_comments,
    make_splits,
)
from aldikit.errors import AldiError, FormatError, check_width, numbered_cells
from aldikit.estimators import format_score
from aldikit.ingest import read_rows
from aldikit.textnorm import normalize

from conftest import make_row, write_rows_file


def make_group(levels, kind="comment", source="AlGhad", article="a1", text="نص"):
    return CommentGroup(
        source=source,
        article_id=article,
        canonical_text=normalize(text),
        raw_text=text,
        kind=kind,
        levels=tuple(levels),
        dialects=("",) * len(levels),
    )


# ---------------------------------------------------------------------------
# grouping


def test_identical_comments_merge():
    rows = [
        make_row(text="نفس النص", worker="w%d" % i, level="MSA") for i in range(3)
    ] + [make_row(text="نفس النص", worker="w%d" % i, level="Most") for i in range(3)]
    groups = group_comments(rows)
    assert len(groups) == 1
    assert groups[0].levels == ("MSA",) * 3 + ("Most",) * 3
    assert groups[0].dialects == ("",) * 6


def test_same_text_different_articles_stay_apart():
    rows = [
        make_row(article_id="a1", text="نفس النص"),
        make_row(article_id="a2", text="نفس النص"),
    ]
    assert len(group_comments(rows)) == 2


def test_normalized_key_merges_diacritic_variants():
    rows = [make_row(text="كتَب"), make_row(text="كتب")]
    assert len(group_comments(rows)) == 1
    # a later text that sorts first: groups still come in first-appearance order
    rows.append(make_row(text="ارض", worker="w2"))
    groups = group_comments(rows)
    assert [g.raw_text for g in groups] == ["كتَب", "ارض"]
    assert [g.canonical_text for g in groups] == ["كتب", "ارض"]
    assert [len(g.levels) for g in groups] == [2, 1]
    assert count_distinct_keys(groups) == 2


def test_group_comments_streams_a_one_shot_generator():
    rng = random.Random(8)
    texts = ["كتب", "كتَب", "ارض", "أرض"]
    rows = [
        make_row(
            article_id=rng.choice(["a1", "a2"]),
            text=rng.choice(texts),
            kind=rng.choice(["comment", "control"]),
            level=rng.choice(["MSA", "Most", "Missing"]),
            dialect=rng.choice(["", "EGY"]),
            worker="w%d" % i,
        )
        for i in range(60)
    ]
    def slots(groups):
        return [[getattr(g, f) for f in CommentGroup.__slots__] for g in groups]

    assert slots(group_comments(iter(rows))) == slots(group_comments(rows))
    # each group holds its rows' labels in input order, and nothing else
    for g in group_comments(r for r in rows):
        members = [
            r for r in rows
            if (r.article_id, normalize(r.sentence_text))
            == (g.article_id, g.canonical_text)
        ]
        assert g.levels == tuple(r.level for r in members)
        assert g.dialects == tuple(r.dialect for r in members)


def test_groups_share_their_immutable_parts(tmp_path):
    orders = (("MSA", "Little", "Most"), ("Most", "MSA", "Little"))
    rows = [
        make_row(article_id="art1", text=text, level=level, worker="w%d" % w)
        for text, levels in zip(("أول", "ثان"), orders)
        for w, level in enumerate(levels)
    ]
    groups = group_comments(read_rows(write_rows_file(tmp_path, rows)))
    first, second = groups
    assert [(type(g.levels), type(g.dialects)) for g in groups] == [(tuple, tuple)] * 2
    # rows read from one file share each article's id string
    assert first.article_id is second.article_id
    # equal (k, n) pairs are one object
    assert aggregate(first) == (4, 3)
    assert aggregate(first) is aggregate(second)
    # label triples are the groups' own tuples, and values share their floats
    labels, values = level_agreement_items(groups)
    assert labels[0] is first.levels and labels[1] is second.levels
    assert values[0][2] is values[1][0] and values[0][0] is values[1][1]
    assert values == [(0.0, 1 / 3, 1.0), (1.0, 0.0, 1 / 3)]


def _text_variant(rng, base):
    """``base``, or a copy with a diacritic, a tatweel or a doubled space,
    each of which normalizes back to ``base``."""
    i = rng.randrange(1, len(base))
    return rng.choice([
        base,
        base[:i] + "\u064e" + base[i:],
        base[:i] + "\u0640" + base[i:],
        base.replace(" ", "  "),
    ])


@pytest.mark.parametrize("seed", range(6))
def test_group_comments_equals_a_naive_grouping_and_shares_label_tuples(seed):
    rng = random.Random(seed)
    bases = ["كتب الولد", "ارض واسعة", "قال الرئيس كلمة", "نص قصير", "شكرا جزيلا"]
    rows = [
        make_row(
            source=rng.choice(["AlGhad", "AlRiyadh", "Youm7"]),
            article_id=rng.choice(["a1", "a2", "a3"]),
            text=_text_variant(rng, rng.choice(bases)),
            kind=rng.choice(["comment", "control"]),
            level=rng.choice(["MSA", "MSA", "Little", "Mixed", "Most", "Missing"]),
            dialect=rng.choice(["", "", "EGY", "LEV"]),
            worker="w%d" % i,
        )
        for i in range(rng.randrange(80, 200))
    ]
    naive: dict = {}
    for row in rows:
        key = (row.source, row.article_id, normalize(row.sentence_text))
        naive.setdefault(key, []).append(row)
    groups = group_comments(iter(rows))
    assert [(g.source, g.article_id, g.canonical_text) for g in groups] == list(naive)
    for group, members in zip(groups, naive.values()):
        assert group.raw_text == members[0].sentence_text
        comment = any(r.kind == "comment" for r in members)
        assert group.kind == ("comment" if comment else "control")
        assert group.levels == tuple(r.level for r in members)
        assert group.dialects == tuple(r.dialect for r in members)
    # equal label tuples are one object, and this input has equal ones to share
    for tuples in ([g.levels for g in groups], [g.dialects for g in groups]):
        assert len(set(tuples)) < len(tuples)
        assert len({id(t) for t in tuples}) == len(set(tuples))


# ---------------------------------------------------------------------------
# junk rule


def test_discard_boundary_two_thirds():
    kept, discarded = discard_junk([make_group(["NotArabic", "NotArabic", "Most"])])
    assert not kept and len(discarded) == 1


def test_one_third_junk_is_kept():
    kept, discarded = discard_junk([make_group(["MSA", "Little", "NotArabic"])])
    assert len(kept) == 1 and not discarded


def test_discard_partitions_input():
    groups = [
        make_group(["MSA"] * 3),
        make_group(["Missing"] * 3),
        make_group(["Missing", "NotArabic", "Most"]),
        make_group(["MSA", "Missing", "Most"]),
    ]
    kept, discarded = discard_junk(groups)
    assert len(kept) + len(discarded) == len(groups)
    assert len(discarded) == 2


def test_empty_group_is_invariant_violation():
    with pytest.raises(AldiError):
        discard_junk([make_group([])])


# ---------------------------------------------------------------------------
# discard taxonomy


@pytest.mark.parametrize(
    "text,category",
    [
        ("؟؟؟؟؟", "Symbols"),
        ("********", "Symbols"),
        ("ya zamalek ya 7arameyaaaa", "Arabizi"),
        ("ma howeh el blogs m3abbiyeh el denya ?", "Arabizi"),
        ("very nice...", "English"),
        ("http://elbeet-elmuslim.ace.st/forum.htm", "UrlOrEmail"),
        ("Ahmad.altamimi@alghad.jo", "UrlOrEmail"),
        ('<a href="EditorOpinions.asp?EditorID=404">د. أشرف بلبع</a>', "HtmlArtifacts"),
        ("بيتهيألى قربنا قوى من سبتمبر &#1633;&#1641;", "HtmlArtifacts"),
        ("نص عربي عادي", "Other"),
    ],
)
def test_categorize_discard(text, category):
    group = make_group(["NotArabic"] * 3, text=text)
    group.raw_text = text
    assert categorize_discard(group) == category


def test_categorize_priority_url_beats_html():
    text = '</b> see http://example.com'
    group = make_group(["NotArabic"] * 3, text=text)
    assert categorize_discard(group) == "UrlOrEmail"


# ---------------------------------------------------------------------------
# aggregation


def test_aggregate_table_values():
    assert aggregate(make_group(["MSA", "MSA", "Little"])) == (1, 3)  # 1/9
    assert aggregate(make_group(["Little", "Little", "Most"])) == (5, 3)  # 5/9
    assert aggregate(make_group(["MSA", "MSA", "MSA"])) == (0, 3)
    assert aggregate(make_group(["Most", "Most", "Most"])) == (9, 3)  # 1


def test_aggregate_excludes_unusable():
    assert aggregate(make_group(["MSA", "NotArabic", "Most"])) == (3, 2)  # 1/2
    assert aggregate(make_group(["Missing", "Mixed", "Mixed"])) == (4, 2)  # 2/3


def test_aggregate_requires_usable():
    with pytest.raises(AldiError):
        aggregate(make_group(["NotArabic", "Missing", "Missing"]))


def test_aggregate_monotone_in_single_annotation():
    ordinals = ["MSA", "Little", "Mixed", "Most"]
    rng = random.Random(5)
    for _ in range(200):
        levels = [rng.choice(ordinals) for _ in range(rng.randrange(1, 6))]
        base_k, base_n = aggregate(make_group(levels))
        i = rng.randrange(len(levels))
        rank = ordinals.index(levels[i])
        if rank == 3:
            continue
        raised = list(levels)
        raised[i] = ordinals[rng.randrange(rank + 1, 4)]
        k, n = aggregate(make_group(raised))
        assert n == base_n and k > base_k


def test_aggregate_range_and_extremes():
    ordinals = ["MSA", "Little", "Mixed", "Most"]
    rng = random.Random(6)
    for _ in range(300):
        levels = [rng.choice(ordinals) for _ in range(rng.randrange(1, 7))]
        k, n = aggregate(make_group(levels))
        assert n == len(levels) and 0 <= k <= 3 * n
        assert (k == 0) == all(lv == "MSA" for lv in levels)
        assert (k == 3 * n) == all(lv == "Most" for lv in levels)


def test_format_score_six_places_half_even():
    assert format_thirds(1, 3) == "0.111111"
    assert format_thirds(5, 3) == "0.555556"
    assert format_thirds(3, 1) == "1.000000"
    # ties round to even: 3 / 6,000,000 and 9 / 6,000,000
    assert format_thirds(3, 2000000) == "0.000000"
    assert format_thirds(9, 2000000) == "0.000002"


def test_format_score_rounds_the_float_repr_half_even():
    # the shortest repr is an exact tie, which "%.6f" would round up
    assert format_score(0.2500005) == "0.250000"
    assert format_score(0.2500015) == "0.250002"
    assert format_score(1.0) == "1.000000"


def oracle_format_thirds(k, n):
    """The earlier rendering: an exact Fraction through Decimal division."""
    score = Fraction(k, 3 * n)
    dec = Decimal(score.numerator) / Decimal(score.denominator)
    return str(dec.quantize(Decimal(1).scaleb(-6), rounding=ROUND_HALF_EVEN))


def test_format_thirds_matches_fraction_oracle_exhaustively():
    for n in range(1, 401):
        for k in range(3 * n + 1):
            assert format_thirds(k, n) == oracle_format_thirds(k, n), (k, n)


# ---------------------------------------------------------------------------
# splits


def make_split_groups(num_articles=10, per_article=10, source="AlGhad"):
    groups = []
    for a in range(num_articles):
        for c in range(per_article):
            g = make_group(
                ["MSA", "MSA", "Most"],
                source=source,
                article="art%02d" % a,
                text="تعليق %d-%d" % (a, c),
            )
            g.aldi = aggregate(g)
            groups.append(g)
    return groups


def test_split_sizes_exact_on_divisible_input():
    groups = make_split_groups()
    make_splits(groups, 42)
    counts = {"train": 0, "dev": 0, "test": 0}
    for g in groups:
        counts[g.split] += 1
    assert counts == {"train": 80, "dev": 10, "test": 10}


def test_split_deterministic_for_seed():
    first = make_split_groups()
    second = make_split_groups()
    make_splits(first, 7)
    make_splits(second, 7)
    assert [g.split for g in first] == [g.split for g in second]


def test_split_articles_exclusive_random_inputs():
    rng = random.Random(11)
    for trial in range(20):
        groups = []
        for a in range(rng.randrange(3, 12)):
            for c in range(rng.randrange(1, 8)):
                g = make_group(
                    ["Most"] * 3,
                    source=rng.choice(["AlGhad", "Youm7"]),
                    article="a%d" % a,
                    text="t%d-%d" % (a, c),
                )
                g.aldi = aggregate(g)
                groups.append(g)
        # need >=3 articles per source present
        sources = {g.source for g in groups}
        for s in sources:
            if len({g.article_id for g in groups if g.source == s}) < 3:
                break
        else:
            make_splits(groups, trial)
            assert all(g.split in ("train", "dev", "test") for g in groups)
            seen = {}
            for g in groups:
                key = (g.source, g.article_id)
                assert seen.setdefault(key, g.split) == g.split


def test_split_requires_three_articles():
    groups = [make_group(["MSA"] * 3, article="a1"), make_group(["MSA"] * 3, article="a2", text="آخر")]
    for g in groups:
        g.aldi = aggregate(g)
    with pytest.raises(FormatError, match="at least 3"):
        make_splits(groups, 1)


def test_split_assignment_file_wins(tmp_path):
    groups = make_split_groups(num_articles=4, per_article=2)
    path = tmp_path / "assign.tsv"
    lines = ["source\tarticle_id\tsplit"]
    wanted = {"art00": "test", "art01": "train", "art02": "dev", "art03": "train"}
    for article, split in wanted.items():
        lines.append("AlGhad\t%s\t%s" % (article, split))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assignment = dataset.load_assignment(path)
    make_splits(groups, 3, assignment)
    for g in groups:
        assert g.split == wanted[g.article_id]


def test_split_assignment_missing_article_errors(tmp_path):
    groups = make_split_groups(num_articles=2, per_article=1)
    path = tmp_path / "assign.tsv"
    path.write_text("AlGhad\tart00\ttrain\n", encoding="utf-8")
    with pytest.raises(FormatError, match="art01"):
        make_splits(groups, 3, dataset.load_assignment(path))


# ---------------------------------------------------------------------------
# statistics and serialization


def test_corpus_stats_counts_and_percent():
    groups = [
        make_group(["MSA", "MSA", "Little"]),
        make_group(["Most", "Most", "Most"], text="آخر"),
        make_group(["MSA", "MSA", "MSA"], kind="control", text="ضابط"),
    ]
    for g in groups:
        g.aldi = aggregate(g)
    stats = dataset.corpus_stats(groups)
    comment = stats["annotations"]["comment"]
    assert comment["total"] == 6
    assert comment["levels"]["MSA"]["count"] == 2
    assert comment["levels"]["MSA"]["percent"] == pytest.approx(100 * 2 / 6)
    assert stats["annotations"]["control"]["levels"]["MSA"]["count"] == 3
    assert stats["annotations"]["all"]["total"] == 9
    assert stats["aldi_histogram"]["counts"]["all"] == [2, 0, 0, 1]


def test_corpus_stats_empty_input():
    stats = dataset.corpus_stats([])
    assert stats["annotations"]["all"]["total"] == 0
    assert stats["aldi_histogram"]["counts"]["all"] == [0, 0, 0, 0]


def test_histogram_bin_edges():
    # (k, n) stands for k / 3n
    edges = [
        ((0, 1), 0),  # 0
        ((3, 4), 1),  # 1/4
        ((3, 2), 2),  # 1/2
        ((9, 4), 3),  # 3/4
        ((3, 1), 3),  # 1
    ]
    for (k, n), expected in edges:
        assert dataset._aldi_bin(k, n) == expected


def test_dataset_lines_sorted_and_spread():
    big = make_group(["MSA", "Little", "Mixed", "Most", "MSA"], text="كبير")
    big.aldi = aggregate(big)
    small = make_group(["MSA", "MSA", "Little"], text="أصغر")
    small.aldi = aggregate(small)
    small.split = "train"
    lines = "".join(dataset.dataset_lines([big, small])).splitlines()
    assert lines[0].split("\t") == list(dataset.DATASET_HEADER)
    first = lines[1].split("\t")
    # sorted by canonical text: أصغر < كبير
    assert first[3] == "أصغر"
    assert first[10] == "0.111111"
    wide = lines[2].split("\t")
    assert wide[4:7] == ["MSA", "Little", "Mixed;Most;MSA"]


def test_separators_in_a_text_become_spaces_in_its_cell(tmp_path):
    texts = ["كلام\tجميل", "كلام\nجميل", "كلام\rجميل", "كلام\r\nجميل"]
    expected = ["كلام  جميل", "كلام جميل", "كلام جميل", "كلام جميل"]
    kept = [make_group(["MSA", "Little", "Most"], text=t) for t in texts]
    discarded = [make_group(["Missing"] * 3, text=t) for t in texts]
    for k, d in zip(kept, discarded):
        k.aldi, k.split, d.category = aggregate(k), "train", "Other"
    dataset_file, discarded_file = tmp_path / "dataset.tsv", tmp_path / "discarded.tsv"
    dataset_file.write_bytes("".join(dataset.dataset_lines(kept)).encode("utf-8"))
    discarded_file.write_bytes(
        "".join(dataset.discarded_lines(discarded)).encode("utf-8")
    )
    rows = pipeline.read_dataset_file(dataset_file, ("text",))
    assert sorted(text for text, in rows) == expected
    lines = list(numbered_cells(discarded_file))
    for lineno, cells in lines:
        check_width(discarded_file, lineno, cells, len(dataset.DISCARDED_HEADER))
    assert sorted(cells[-1] for _, cells in lines[1:]) == expected


def _shuffled_groups(rng):
    """Kept and discarded groups of 3 sources in a shuffled order, with texts
    whose diacritics make their raw and canonical order differ."""
    letters = "ابتكلمنهوي"
    kept, discarded = [], []
    for source in ("AlRiyadh", "AlGhad", "Youm7"):
        for article in rng.sample(range(100), 5):
            split = rng.choice(["train", "dev", "test"])
            count, texts = rng.randint(1, 6), set()
            while len(texts) < count:
                texts.add("".join(rng.choice(letters) for _ in range(rng.randint(1, 4))))
            for word in sorted(texts):
                raw = "".join(ch + rng.choice(["", "", "\u064e"]) for ch in word)
                junk = rng.random() < 0.3
                group = make_group(
                    ["Missing"] * 3 if junk else [rng.choice(list(LEVEL_THIRDS))] * 3,
                    kind=rng.choice(["comment", "control"]),
                    source=source, article="art%d" % article, text=raw,
                )
                if junk:
                    group.category = "Other"
                    discarded.append(group)
                else:
                    group.aldi, group.split = aggregate(group), split
                    kept.append(group)
    rng.shuffle(kept)
    rng.shuffle(discarded)
    return kept, discarded


@pytest.mark.parametrize("seed", range(5))
def test_tables_list_rows_in_source_article_text_order(seed):
    kept, discarded = _shuffled_groups(random.Random(seed))
    assert len({g.split for g in kept}) > 1

    def oracle(lines, groups, key):
        """The table with its one-group lines in ``key`` order."""
        rows = [list(lines([g]))[1] for g in sorted(groups, key=key)]
        return "".join(lines([])) + "".join(rows)

    def by_text(g):
        return g.source, g.article_id, g.canonical_text

    assert "".join(dataset.dataset_lines(kept)) == oracle(
        dataset.dataset_lines, kept, by_text
    )
    assert "".join(dataset.discarded_lines(discarded)) == oracle(
        dataset.discarded_lines, discarded, by_text
    )
    articles, expected = set(), ["source\tarticle_id\tsplit\n"]
    for g in sorted(kept, key=lambda g: (g.source, g.article_id)):
        if (g.source, g.article_id) not in articles:
            articles.add((g.source, g.article_id))
            expected.append("%s\t%s\t%s\n" % (g.source, g.article_id, g.split))
    assert "".join(dataset.assignment_lines(kept)) == "".join(expected)


def test_render_stats_text_smoke():
    groups = [make_group(["MSA", "MSA", "Little"])]
    groups[0].aldi = aggregate(groups[0])
    text = dataset.render_stats_text(dataset.corpus_stats(groups))
    assert "Level-of-dialectness annotations" in text
    assert "Comment" in text
