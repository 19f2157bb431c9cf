import csv
import io
import os
import random
import re
import warnings
import xml.etree.ElementTree as ET

import pytest

from aldikit.errors import FormatError
from aldikit.estimators import LexiconEstimator, format_score
from aldikit.speech import ScoreSeries, SeriesPoint, score_series, segment_html, write_series_csv
from aldikit.textnorm import normalize
from aldikit.svgplot import HEIGHT, MARGIN_BOTTOM, MARGIN_TOP, plot_coordinates, render_svg


# ---------------------------------------------------------------------------
# segmentation


def test_segment_br_drops_empty_segments():
    assert segment_html("a<br>b<br><br>c", "br") == ["a", "b", "c"]


def test_segment_br_variants():
    assert segment_html("a<br/>b<br />c", "br") == ["a", "b", "c"]


def test_segment_p_mode():
    assert segment_html("<p>x</p><p>y</p>", "p") == ["x", "y"]


def test_segment_p_ignores_text_outside_p():
    html = "nav junk <p>الجملة الأولى</p> footer <p>الثانية</p>"
    assert segment_html(html, "p") == ["الجملة الأولى", "الثانية"]


def test_segment_decodes_entities():
    assert segment_html("&#1633;", "br") == ["١"]
    assert segment_html("<p>&#1633;&#1641;&#1640;&#1633;</p>", "p") == ["١٩٨١"]


def test_segment_strips_inline_markup():
    html = "<p>قال <b>الرئيس</b> كلمة</p>"
    assert segment_html(html, "p") == ["قال الرئيس كلمة"]


def test_segment_skips_script_and_style():
    html = "<script>var x=1;</script>نص<br><style>p{}</style>آخر"
    assert segment_html(html, "br") == ["نص", "آخر"]


def test_segment_no_markup_in_output():
    html = "<div>أول<br><span>ثاني</span><br>ثالث <i>مائل</i></div>"
    joined = " | ".join(segment_html(html, "br"))
    assert "<" not in joined and ">" not in joined


def test_segment_zero_segments_errors():
    with pytest.raises(FormatError, match="no segments"):
        segment_html("<p></p>", "p")


def test_segment_unknown_mode():
    with pytest.raises(FormatError, match="mode"):
        segment_html("x", "div")


def test_segment_unclosed_p_best_effort():
    with pytest.warns(UserWarning, match="best-effort"):
        assert segment_html("<p>بدون إغلاق", "p") == ["بدون إغلاق"]


# Markup pieces for the fuzz test: tags of both modes, skipped elements,
# comments, CDATA and declarations, good and bad character references,
# stray angle brackets and quotes, tabs, CR and NUL.
_HTML_PIECES = [
    "<p>", "</p>", "<br>", "<br/>", "<BR />", "<p class='x'>", "<div>", "</div>",
    "<script>", "</script>", "<style>", "</style>", "<!--", "-->", "<![CDATA[",
    "]]>", "<!DOCTYPE html>", "<?php ?>", "&amp;", "&#1576;", "&#x62a;", "&#0;",
    "&#xD800;", "&#xFFFFFFFF;", "&#99999999999;", "&bogus;", "&", "&#", "&#x",
    "<", ">", "</", "</>", "<1>", "<a b=c d>", '<a href="', '"', "'", "<p", "<br",
    "\t", "\n", "\r", "\x00", " ", "كلمة", "نص", "abc", "١٢", "\u064e\u0640",
]


def test_segment_html_fuzz_raises_only_format_error():
    rng = random.Random(20231022)
    outcomes = set()
    for _ in range(3000):
        html = "".join(rng.choice(_HTML_PIECES) for _ in range(rng.randrange(0, 30)))
        if rng.random() < 0.3:
            html = html[: rng.randrange(len(html) + 1)]  # truncated markup
        mode = rng.choice(("br", "p"))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            try:
                segments = segment_html(html, mode)
            except FormatError:
                outcomes.add("error")
                continue
        outcomes.add("segments")
        for segment in segments:
            assert segment and normalize(segment) == segment, repr(html)
    assert outcomes == {"error", "segments"}


# ---------------------------------------------------------------------------
# series


def full_lexicon():
    return frozenset({"صفر", "نص", "واحد"})


def test_score_series_order_and_length():
    est = LexiconEstimator(full_lexicon())
    sentences = ["صفر نص", "صفر مجهول", "مجهول غريب"]
    series = score_series("doc", sentences, est)
    assert [p.index for p in series.points] == [1, 2, 3]
    assert [p.aldi for p in series.points] == [0.0, 0.5, 1.0]
    assert series.estimator_id == "lexicon"


def test_score_series_empty_sentence_names_index():
    est = LexiconEstimator(full_lexicon())
    with pytest.raises(FormatError, match="sentence 2"):
        score_series("doc", ["نص", "   ", "نص"], est)


def test_score_series_di_label_alignment():
    est = LexiconEstimator(full_lexicon())
    series = score_series("doc", ["نص"], est, di_labels=["MSA"])
    assert series.points[0].di_label == "MSA"
    with pytest.raises(FormatError, match="1 DI labels for 2"):
        score_series("doc", ["نص", "نص"], est, di_labels=["MSA"])


def test_write_series_csv(tmp_path):
    series = ScoreSeries(
        "doc", "lexicon", (SeriesPoint(1, "جملة", 0.5, "EGY"),)
    )
    out = tmp_path / "series.csv"
    write_series_csv(series, out)
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "index,score,di_label,sentence"
    assert lines[1] == "1,0.500000,EGY,جملة"


def _whole_series_csv(series):
    """The series CSV as one ``csv.writer`` over a ``StringIO`` writes it."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["index", "score", "di_label", "sentence"])
    for p in series.points:
        writer.writerow([p.index, format_score(p.aldi), p.di_label or "", p.sentence])
    return buf.getvalue()


@pytest.mark.parametrize("seed", range(5))
def test_streamed_series_csv_equals_the_whole_csv_writer_output(tmp_path, seed):
    rng = random.Random(seed)
    pieces = ["جملة", "a b", ",", '"', "\r", "\n", "\r\n", " ", "'"]

    def cell():
        return "".join(rng.choice(pieces) for _ in range(rng.randrange(6)))

    points = tuple(
        SeriesPoint(i, cell() or "نص", rng.random(), rng.choice([None, "", cell()]))
        for i in range(1, rng.randrange(2, 60))
    )
    series = ScoreSeries("doc", "lexicon", points)
    out = tmp_path / "series.csv"
    write_series_csv(series, out)
    assert out.read_bytes() == _whole_series_csv(series).encode("utf-8")


def test_a_series_csv_that_fails_midway_leaves_the_old_file(tmp_path):
    out = tmp_path / "series.csv"
    out.write_text("old bytes\n", encoding="utf-8")
    points = [SeriesPoint(i, "جملة", 0.5) for i in range(1, 4)]
    series = ScoreSeries("doc", "lexicon", (*points, SeriesPoint(4, "جملة", None)))
    with pytest.raises(TypeError) as excinfo:
        write_series_csv(series, out)
    # the score is formatted as the rows stream, inside write_output
    assert "write_output" in [entry.name for entry in excinfo.traceback]
    assert out.read_bytes() == b"old bytes\n"
    assert sorted(os.listdir(tmp_path)) == ["series.csv"]


# ---------------------------------------------------------------------------
# SVG plots


def make_series(scores, labels=None):
    points = tuple(
        SeriesPoint(i, "جملة %d" % i, s, labels[i - 1] if labels else None)
        for i, s in enumerate(scores, start=1)
    )
    return ScoreSeries("doc", "lexicon", points)


def extract_marks(svg_text):
    """Coordinate oracle: pull data-mark centers out of the XML."""
    root = ET.fromstring(svg_text)
    ns = {"svg": "http://www.w3.org/2000/svg"}
    marks = [
        (float(c.get("cx")), float(c.get("cy")))
        for c in root.iter("{http://www.w3.org/2000/svg}circle")
        if c.get("class") == "pt"
    ]
    return marks


def test_single_point_series_has_one_mark():
    svg = render_svg(make_series([0.5]))
    assert len(extract_marks(svg)) == 1


def test_svg_is_well_formed_and_self_contained():
    svg = render_svg(make_series([0.0, 0.3, 1.0], labels=["MSA", "DA", "DA"]))
    ET.fromstring(svg)  # raises on malformed XML
    assert "href" not in svg
    assert "<image" not in svg


def test_svg_byte_identical_across_renders():
    series = make_series([0.1, 0.9, 0.4])
    assert render_svg(series) == render_svg(series)


def test_ramp_coordinates_match_scores():
    n = 100
    scores = [i / (n - 1) for i in range(n)]
    series = make_series(scores)
    svg = render_svg(series)
    marks = extract_marks(svg)
    assert len(marks) == n
    # x strictly increasing, y strictly decreasing (score up = pixel up)
    xs = [m[0] for m in marks]
    ys = [m[1] for m in marks]
    assert all(a < b for a, b in zip(xs, xs[1:]))
    assert all(a > b for a, b in zip(ys, ys[1:]))
    # invert the y mapping and recover the scores (2dp coordinate grid)
    plot_h = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM
    for (x, y), score in zip(marks, scores):
        recovered = 1.0 - (y - MARGIN_TOP) / plot_h
        assert recovered == pytest.approx(score, abs=0.5 / plot_h + 1e-9)


def test_rendered_coordinates_agree_with_mapping():
    series = make_series([0.25, 0.75])
    svg = render_svg(series)
    marks = extract_marks(svg)
    for (x, y), (ex, ey) in zip(marks, plot_coordinates(series)):
        assert x == pytest.approx(ex, abs=0.005)
        assert y == pytest.approx(ey, abs=0.005)


def test_di_labels_get_distinct_colors():
    svg = render_svg(make_series([0.2, 0.8], labels=["MSA", "DA"]))
    fills = set(re.findall(r'class="pt"[^/]*fill="(#\w+)"', svg))
    assert len(fills) == 2


def test_empty_series_plot_is_format_error():
    with pytest.raises(FormatError, match="empty series"):
        render_svg(ScoreSeries("doc", "lexicon", ()))
